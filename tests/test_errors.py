"""An error is its message: whatever input a reader refuses, the error it
raises holds that message and nothing else, so it survives pickling as
raised, as an error raised in a `--jobs` worker process must to reach
the parent. Each case is one kind of malformed input or setting, read as
the package reads it."""

import io
import pickle
import struct

import pytest

import pcap_builder as pb
from hera.dataset import read_csv
from hera.errors import HeraError, UsageError
from hera.features import select_feature_set
from hera.herafile import read_hera
from hera.labelling import GroundTruth, label_dataset, parse_ground_truth
from hera.pcap import CaptureReader

HDR = ["stime", "ltime", "proto", "saddr", "sport", "daddr", "dport"]


def read_capture(data: bytes):
    return list(CaptureReader(io.BytesIO(data), name="c.pcap"))


def read_file(name: str, data: bytes, read):
    def reads(tmp_path):
        path = tmp_path / name
        path.write_bytes(data)
        return read(path)
    return reads


def label(header, rows):
    return label_dataset(header, rows, GroundTruth([]))


CASES = {
    "TruncatedRecord": lambda _: read_capture(pb.pcap([]) + b"\x00" * 8),
    "OversizedRecord": lambda _: read_capture(
        pb.pcap([struct.pack("<IIII", 1, 0, 0xFFFFFFF0, 60)])),
    "UnsupportedLinktype": lambda _: read_capture(pb.pcap([], linktype=9)),
    "UnsupportedVersion": read_file("f.hera", b"#HERA v9\n", read_hera),
    "CorruptRecord": read_file("f.hera", b"#HERA v1\nsaddr=a\n", read_hera),
    "EmptyLabelCell": read_file("gt.csv", b"Label,Proto\n,udp\n", parse_ground_truth),
    "MalformedTimestamp": read_file("gt.csv", b"StartTime,Label\nnoon,DoS\n",
                                    parse_ground_truth),
    "MalformedField": read_file("gt.csv", b"Sport,Label\nhttp,DoS\n", parse_ground_truth),
    "MalformedDatasetCell": lambda _: label(HDR, [["1.0", "2.0", "tcp", "a", "1", "b", "x"]]),
    "MissingMatchField": lambda _: label(HDR[:3], []),
    "UnreadableLine": read_file("d.csv", b"stime\n\xff\n", read_csv),
    "UnknownFeature": lambda _: select_feature_set(["nosuchfeat"]),
}


@pytest.mark.parametrize("case", CASES)
def test_error_survives_pickling(tmp_path, case):
    with pytest.raises(HeraError) as raised:
        CASES[case](tmp_path)
    error = raised.value
    assert type(error) is (UsageError if case == "UnknownFeature" else HeraError)
    assert error.args == (str(error),)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert copy.args == error.args
