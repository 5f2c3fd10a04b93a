import pickle

import pytest

from hera import errors

SAMPLES = [
    errors.TruncatedRecord("c.pcap", 7),
    errors.OversizedRecord("c.pcap", 1, 4294967280, 262144),
    errors.UnsupportedLinktype(9, "c.pcap"),
    errors.UnsupportedVersion("v9", "f.hera"),
    errors.CorruptRecord(5, "missing field 'stime'", "f.hera"),
    errors.EmptyLabelCell(3, "gt.csv"),
    errors.MalformedTimestamp(4, "noon", "gt.csv"),
    errors.MalformedField(4, "sport", "http", "gt.csv"),
    errors.MalformedDatasetCell(2, "dport", "bad value 'x'", "d.csv"),
    errors.MissingMatchField("proto", "d.csv"),
    errors.UnreadableLine("gt.csv", 3, "bytes are not UTF-8", column=12),
]


@pytest.mark.parametrize("error", SAMPLES, ids=lambda e: type(e).__name__)
def test_error_survives_pickling(error):
    # Errors raised in a `--jobs` worker process reach the parent pickled.
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)
