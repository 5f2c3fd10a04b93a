"""racluster passes the record of a key seen once through as its own
merged record: merging any record alone gives a record equal to it.

`cluster` is checked against `cluster_oracle.cluster_every_group`, which
merges every key's records into a new record, on records read from
written lines with the edits `test_record_reader.py` makes, and on
records no export writes: a management record with or without `flows`,
another record with `flows` set, a side with an `ltime` but no `stime`,
a record with an unknown field.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluster_oracle import cluster_every_group
from hera import dataset
from hera.dataset import build_dataset, cluster
from hera.errors import CorruptRecord
from hera.features import select_feature_set
from hera.flows import ExportConfig, FlowTable
from hera.herafile import parse_record
from hera.pcap import CaptureReader
from test_record_reader import (
    SEC,
    _capture,
    _fields,
    _join,
    _set,
    capture_lines,
    edited_lines,
    written_fields,
)

ALL = select_feature_set("all")


def _lines(management: bool) -> list[str]:
    return [line for line in capture_lines() if (" mgmt=1 " in line) == management]


@st.composite
def record_lines(draw) -> str:
    """A capture line as written, or with random values or edits, or a
    line of a record no export writes."""
    kind = draw(st.sampled_from(("written", "random values", "edited", "management", "flows",
                                 "ltime without stime", "unknown field")))
    if kind == "random values":
        return _join(draw(written_fields()))
    if kind == "edited":
        return draw(edited_lines())
    if kind == "management":
        return draw(st.sampled_from(_lines(management=True)))
    if kind == "flows":  # set, or empty on a management record
        fields = _fields(draw(st.sampled_from(capture_lines())))
        return _join(_set(fields, "flows", draw(st.just("") | st.integers(0, 9).map(str))))
    fields = _fields(draw(st.sampled_from(_lines(management=False))))
    if kind == "ltime without stime":
        fields = _set(fields, draw(st.sampled_from(("sstime", "dstime"))), "")
    elif kind == "unknown field":
        fields.append(["zz", "1"])
    return _join(fields)


def records_of(lines) -> list:
    records = []
    for number, line in enumerate(lines, start=1):
        try:
            records.append(parse_record(line, number))
        except CorruptRecord:
            pass
    return records


def dataset_outcome(records, cluster_function, keep_management: bool):
    """build_dataset's racluster rows and stats for the `all` features
    with `cluster_function` as its cluster, or the error it raises."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "cluster", cluster_function)
        try:
            _, rows, stats = build_dataset(records, ALL, mode="racluster",
                                           keep_management=keep_management)
        except Exception as exc:  # a random value a feature cannot compute
            return type(exc), str(exc)
    return rows, stats


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(record_lines(), min_size=1, max_size=8), st.booleans())
def test_racluster_rows_equal_those_of_merging_every_group(lines, keep_management):
    records = records_of(lines)
    assert (dataset_outcome(records, cluster, keep_management)
            == dataset_outcome(records, cluster_every_group, keep_management))


# The TCP flow's record: both of its sides saw packets.
TCP_FIELDS = _fields(next(line for line in capture_lines() if " proto=tcp " in line))
MANAGEMENT_FIELDS = _fields(_lines(management=True)[0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(record_lines())
def test_a_record_that_is_its_own_merge_is_what_merging_it_gives(line):
    # Every record merged alone is itself, so racluster passes a key seen
    # once through.
    for rec in records_of([line]):
        assert cluster_every_group([rec]) == [rec]
        assert cluster([rec])[0] is rec


# The records whose merge alone differed from them while the time span
# and `flows` rules had corner cases: merging one now gives it unchanged.
@pytest.mark.parametrize("line", [
    _join(_set(TCP_FIELDS, "flows", "3")),
    _join(_set(TCP_FIELDS, "dstime", "")),
    _join(_set(TCP_FIELDS, "sstime", "")),
    _join(MANAGEMENT_FIELDS),
    _join(_set(MANAGEMENT_FIELDS, "flows", "")),
], ids=["flows-set", "dltime-without-dstime", "sltime-without-sstime",
        "management", "management-without-flows"])
def test_a_record_merging_would_change_is_merged(line):
    [rec] = records_of([line])
    [merged] = cluster([rec])
    assert [merged] == cluster_every_group([rec]) == [rec]
    assert merged is rec


def test_a_record_read_with_an_unknown_field_is_its_own_merge():
    # A reader skips an unknown field, so the record it gives is the
    # written line's.
    [rec] = records_of([_join(TCP_FIELDS + [["zz", "1"]])])
    assert cluster([rec])[0] is rec
    assert cluster_every_group([rec]) == [rec]


def test_an_exported_record_whose_key_occurs_once_comes_back_as_itself():
    table = FlowTable(ExportConfig(interval_us=10 * SEC))
    for packet in CaptureReader(io.BytesIO(_capture())):
        table.assign(packet)
    records = [rec for rec in table.flush() if not rec.is_management]
    merged = cluster(records)
    assert merged == cluster_every_group(records)
    keys = [rec.key for rec in records]
    once = [rec for rec in records if keys.count(rec.key) == 1]
    several = {rec.key for rec in records} - {rec.key for rec in once}
    assert once and several  # the UDP flow of three slices is merged
    assert all(any(m is rec for m in merged) for rec in once)
    assert all(m.trans == 3 and all(m is not rec for rec in records)
               for m in merged if m.key in several)
