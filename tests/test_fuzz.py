"""Fuzzing the capture reader and the commands with mutated inputs.

A small valid capture with TCP, UDP, ICMP, IPv6, fragmented and
VLAN-tagged frames is cut after every byte of every frame, and damaged
by random byte overwrites, insertions and truncations. The reader must fail only with a `CaptureError`, account
for every record it read, and `hera export` must exit 0 or 2, never
with a traceback. The same edits to the `.hera` file exported from that
capture, and to a small ground truth and dataset CSV, must leave
`hera dataset` and `hera label` exiting 0 or 2 as well. `hera run` on a
damaged capture must exit 0 or 2, and leave no file or directory behind
when it exits 2. Record and snapshot lengths at their extremes must
leave `hera export`, and `hera run` with a small ground truth, exiting 0
or 2 too, within memory proportional to the capture's size; a `.hera` file with a very long line or a
5,000-digit value leaves `hera dataset` exiting 0 or 2 within memory
proportional to the file's size; and a dataset or ground truth with a
very long, very wide or multi-line row leaves `hera label` exiting 0 or
2 within memory proportional to the two files' size.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcap_builder as pb
from hera.cli import main
from hera.errors import CaptureError
from hera.pcap import MAX_RECORD_BYTES, CaptureReader, DecodedPacket

A4, B4 = "10.0.0.1", "10.0.0.2"
A6, B6 = "2001:db8::1", "2001:db8::2"


def _frames() -> list[bytes]:
    vlan_type, vlan_body = pb.vlan_tag(
        pb.ETHERTYPE_IPV4, pb.ipv4(A4, B4, 17, pb.udp(5000, 53, b"tagged")))
    return [
        pb.tcp4_frame(A4, B4, 40000, 80, pb.SYN),
        pb.tcp4_frame(B4, A4, 80, 40000, pb.SYN | pb.ACK),
        pb.tcp4_frame(A4, B4, 40000, 80, pb.PSH | pb.ACK, payload=b"GET /"),
        pb.udp4_frame(A4, B4, 5353, 53, payload=b"query"),
        pb.icmp4_frame(A4, B4, 8, 0, payload=b"ping"),
        pb.ethernet(pb.ipv4(A4, B4, 17, b"\x00" * 16, flags_frag=3), pb.ETHERTYPE_IPV4),
        pb.ethernet(pb.ipv6(A6, B6, 6, pb.tcp(41000, 443, pb.SYN)), pb.ETHERTYPE_IPV6),
        pb.ethernet(pb.ipv6(A6, B6, 17, pb.udp(7000, 53, b"six"),
                            ext_headers=[(0, b"\x00" * 4)]), pb.ETHERTYPE_IPV6),
        pb.ethernet(vlan_body, vlan_type),
    ]


FRAMES = _frames()

_EDIT = st.tuples(st.sampled_from(("overwrite", "insert", "truncate")),
                  st.integers(0, 1 << 12), st.binary(min_size=1, max_size=8))


def _apply(data: bytearray, edit) -> None:
    kind, position, blob = edit
    position %= len(data) + 1
    if kind == "overwrite":
        data[position:position + len(blob)] = blob
    elif kind == "insert":
        data[position:position] = blob
    else:
        del data[position:]


@contextlib.contextmanager
def _workdir(files: dict[str, bytes]):
    """A fresh directory holding `files`, with no workspace file in effect."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("HERA_WORKSPACE", None)
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        yield Path(tmp)


@st.composite
def mutated_captures(draw) -> bytes:
    """Edits inside frames, whose record headers then still fit them,
    and edits anywhere in the file, record and global headers included."""
    frames = [bytearray(frame) for frame in FRAMES]
    for index, edit in draw(st.lists(st.tuples(st.integers(0, len(FRAMES) - 1), _EDIT),
                                     max_size=6)):
        _apply(frames[index], edit)
    data = bytearray(pb.pcap([pb.record(1_000 * i, bytes(frame))
                              for i, frame in enumerate(frames)]))
    for edit in draw(st.lists(_EDIT, max_size=3)):
        _apply(data, edit)
    return bytes(data)


def test_every_prefix_of_every_frame_decodes_or_skips():
    records = [frame[:length] for frame in FRAMES for length in range(len(frame) + 1)]
    reader = CaptureReader(io.BytesIO(pb.pcap([pb.record(0, r) for r in records])))
    items = [reader.next_packet() for _ in records]
    assert reader.next_packet() is None
    decoded = sum(isinstance(item, DecodedPacket) for item in items)
    assert decoded + sum(reader.skipped.values()) == len(records)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_captures())
def test_reader_fails_only_with_capture_errors_and_counts_every_record(data):
    decoded = 0
    try:
        reader = CaptureReader(io.BytesIO(data))
        while (item := reader.next_packet()) is not None:
            if isinstance(item, DecodedPacket):
                decoded += 1
                assert 0 <= item.payload_bytes <= item.ip_bytes
    except CaptureError:
        return
    assert decoded + sum(reader.skipped.values()) == reader.record_index


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mutated_captures())
def test_export_of_a_mutated_capture_exits_0_or_2(data):
    with _workdir({"fuzz.pcap": data}) as tmp:
        code = main(["export", "--pcap", str(tmp / "fuzz.pcap"), "--out", str(tmp / "flows")])
    assert code in (0, 2)


LARGEST = 2**32 - 1  # the largest length a record or global header can state


@st.composite
def extreme_length_captures(draw) -> bytes:
    """A capture whose snaplen and whose records' incl_len and orig_len
    are 0, MAX_RECORD_BYTES - 1, MAX_RECORD_BYTES, MAX_RECORD_BYTES + 1,
    one less than, equal to or one more than the snaplen, 2**32 - 1, or
    the frame's length. A record holds its incl_len bytes when they are
    at most MAX_RECORD_BYTES + 1, less one byte when `short` is drawn,
    and only its frame otherwise."""
    snaplen = draw(st.sampled_from((0, 1, 65535, MAX_RECORD_BYTES - 1, MAX_RECORD_BYTES,
                                    MAX_RECORD_BYTES + 1, LARGEST)))
    records = []
    for index in range(draw(st.integers(1, 3))):
        frame = draw(st.sampled_from(FRAMES))
        incl_len, orig_len = (draw(st.sampled_from((
            0, MAX_RECORD_BYTES - 1, MAX_RECORD_BYTES, MAX_RECORD_BYTES + 1, max(snaplen - 1, 0),
            snaplen, min(snaplen + 1, LARGEST), LARGEST, len(frame)))) for _ in range(2))
        if incl_len <= MAX_RECORD_BYTES + 1:
            body = (frame + bytes(max(incl_len - len(frame), 0)))[:incl_len]
            if draw(st.booleans()):  # short
                body = body[:-1]
        else:
            body = frame
        records.append(pb.record(1_000 * index, body, incl_len=incl_len, orig_len=orig_len))
    return pb.pcap(records, snaplen=snaplen)


def traced_peak(files: dict[str, bytes], command) -> tuple[int, int]:
    """(exit code, peak of memory traced above the start) of main() on
    command(directory), where the directory holds `files`."""
    with _workdir(files) as tmp:
        argv = command(tmp)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            code = main(argv)
            return code, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()


def export_peak(data: bytes) -> tuple[int, int]:
    """traced_peak of `hera export` on the capture `data`."""
    return traced_peak({"fuzz.pcap": data}, lambda tmp: [
        "export", "--pcap", str(tmp / "fuzz.pcap"), "--out", str(tmp / "out")])


# Export's traced peak may be at most PEAK_PER_BYTE times the capture's
# size plus PEAK_BASE bytes. Over 200 of these captures, the decoder that
# sliced each header out of the record peaked within 2 bytes per capture
# byte plus 315,371 bytes; the bound allows 1.5 times the slope and about
# 1.6 times the base.
PEAK_PER_BYTE = 3
PEAK_BASE = 500_000


@settings(max_examples=60, deadline=None, derandomize=True)
@given(extreme_length_captures())
def test_export_at_extreme_lengths_exits_0_or_2_in_bounded_memory(data):
    export_peak(pb.pcap([pb.record(0, frame) for frame in FRAMES]))  # imports and kernels
    code, peak = export_peak(data)
    assert code in (0, 2)
    assert peak <= PEAK_PER_BYTE * len(data) + PEAK_BASE


# Edits to text files write ASCII twice as often as arbitrary bytes, so
# that many mutants still decode and reach the stage behind the reader.
_ASCII = st.text(st.characters(max_codepoint=127), min_size=1, max_size=8).map(str.encode)
_TEXT_EDIT = st.tuples(st.sampled_from(("overwrite", "insert", "truncate")),
                       st.integers(0, 1 << 12),
                       st.one_of(_ASCII, _ASCII, st.binary(min_size=1, max_size=8)))


def _mutated(data: bytes, edits) -> bytes:
    buffer = bytearray(data)
    for edit in edits:
        _apply(buffer, edit)
    return bytes(buffer)


GROUND_TRUTH = (
    b"StartTime,LastTime,Proto,SrcAddr,Sport,DstAddr,Dport,Label\n"
    b"10,20.5,tcp,10.0.0.1,40000,10.0.0.2,80,Exploits\n"
    b",,udp,10.0.0.2,,,,Scan\n"
    b"0,,,2001:db8::1,,,,Backdoor\n"
)
DATASET = (
    b"stime,ltime,proto,saddr,sport,daddr,dport,sbytes\n"
    b"10.000000,12.000000,tcp,10.0.0.1,40000,10.0.0.2,80,120\n"
    b"11.000000,11.500000,udp,10.0.0.1,53,10.0.0.2,5353,64\n"
    b"30.000000,31.000000,tcp,2001:db8::2,443,2001:db8::1,41000,80\n"
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_TEXT_EDIT, max_size=2), st.lists(_TEXT_EDIT, max_size=2))
def test_label_of_a_mutated_ground_truth_and_dataset_exits_0_or_2(gt_edits, csv_edits):
    files = {"gt.csv": _mutated(GROUND_TRUTH, gt_edits),
             "data.csv": _mutated(DATASET, csv_edits)}
    with _workdir(files) as tmp:
        code = main(["label", "--in", str(tmp / "data.csv"), "--gt", str(tmp / "gt.csv"),
                     "--out", str(tmp / "out"), "--bidirectional"])
    assert code in (0, 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mutated_captures())
def test_run_of_a_mutated_capture_exits_0_or_2_and_leaves_nothing_after_2(data):
    # The flows directory exists beforehand; the CSV directory and its
    # parent are made by the run, and must be gone again after a 2.
    with _workdir({"fuzz.pcap": data, "gt.csv": GROUND_TRUTH}) as tmp:
        (tmp / "flows").mkdir()
        before = sorted(tmp.rglob("*"))
        code = main(["run", "--pcap", str(tmp / "fuzz.pcap"), "--gt", str(tmp / "gt.csv"),
                     "--flows-dir", str(tmp / "flows"), "--csv-dir", str(tmp / "made" / "csv"),
                     "--features", "all"])
        assert code in (0, 2)
        if code == 2:
            assert sorted(tmp.rglob("*")) == before


def run_peak(data: bytes) -> tuple[int, int]:
    """traced_peak of `hera run` on the capture `data` and GROUND_TRUTH."""
    return traced_peak({"fuzz.pcap": data, "gt.csv": GROUND_TRUTH}, lambda tmp: [
        "run", "--pcap", str(tmp / "fuzz.pcap"), "--gt", str(tmp / "gt.csv"),
        "--flows-dir", str(tmp / "flows"), "--csv-dir", str(tmp / "csv")])


# Run's traced peak may be at most RUN_PEAK_PER_BYTE times the capture's
# size plus RUN_PEAK_BASE bytes. Over 200 of these captures, the code
# this bound was first set on peaked within 1 byte per capture byte plus
# 321,616 bytes; the bound allows 1.5 times the slope and about 1.6
# times the base, as export's does.
RUN_PEAK_PER_BYTE = 1.5
RUN_PEAK_BASE = 515_000


@settings(max_examples=60, deadline=None, derandomize=True)
@given(extreme_length_captures())
def test_run_at_extreme_lengths_exits_0_or_2_in_bounded_memory(data):
    run_peak(pb.pcap([pb.record(0, frame) for frame in FRAMES]))  # imports and kernels
    code, peak = run_peak(data)
    assert code in (0, 2)
    assert peak <= RUN_PEAK_PER_BYTE * len(data) + RUN_PEAK_BASE


@functools.cache
def _exported_hera() -> bytes:
    capture = pb.pcap([pb.record(1_000 * i, frame) for i, frame in enumerate(FRAMES)])
    with _workdir({"fuzz.pcap": capture}) as tmp:
        assert main(["export", "--pcap", str(tmp / "fuzz.pcap"), "--out", str(tmp)]) == 0
        return (tmp / "fuzz.hera").read_bytes()


# racluster merges the flow records; ra with --keep-management also
# computes every feature of the management records.
@pytest.mark.parametrize("mode", [["--mode", "racluster"], ["--mode", "ra", "--keep-management"]],
                         ids=["racluster", "ra-management"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_TEXT_EDIT, max_size=2))
def test_dataset_of_a_mutated_flow_file_exits_0_or_2(mode, edits):
    with _workdir({"fuzz.hera": _mutated(_exported_hera(), edits)}) as tmp:
        code = main(["dataset", "--in", str(tmp / "fuzz.hera"), "--out", str(tmp / "out"),
                     "--features", "all", *mode])
    assert code in (0, 2)


@st.composite
def flow_files(draw) -> bytes:
    """The exported flow file under text edits, then either with one
    field's value a 5,000-digit integer, past the digits int() takes, or
    with one more line of 1 kB to 300 kB: a record with a long unknown
    field, a header line, bytes that are no record, or a record with
    thousands of unknown fields."""
    data = _mutated(_exported_hera(), draw(st.lists(_TEXT_EDIT, max_size=2)))
    names = re.findall(rb" ([a-z]+)=[0-9]", data)
    if names and draw(st.booleans()):
        name = draw(st.sampled_from(names))
        return re.sub(b" " + name + b"=[0-9]+", b" " + name + b"=" + b"9" * 5000, data, count=1)
    size = draw(st.integers(1_000, 300_000))
    record = _exported_hera().splitlines()[-1]
    line = draw(st.sampled_from((
        record + b" x=" + b"a" * size,
        b"#" + b"h" * size,
        b"g" * size,
        record + b"".join(b" f%d=1" % i for i in range(size // 6)),
    )))
    return data + line + b"\n"


def dataset_peak(data: bytes, mode: list[str]) -> tuple[int, int]:
    """traced_peak of `hera dataset --features all` on the flow file `data`."""
    return traced_peak({"fuzz.hera": data}, lambda tmp: [
        "dataset", "--in", str(tmp / "fuzz.hera"), "--out", str(tmp / "out"), "--features", "all",
        *mode])


# Dataset's traced peak may be at most DATASET_PEAK_PER_BYTE times the
# flow file's size plus DATASET_PEAK_BASE bytes. Over the 40 files this
# test draws, in both modes, the code this bound was first set on peaked
# within 21.5 bytes per byte plus 86,941 bytes: a line of thousands of
# unknown fields is split into that many strings, and each is kept as a
# name and a value. The bound allows 1.5 times the slope and about 2.9
# times the base.
DATASET_PEAK_PER_BYTE = 32
DATASET_PEAK_BASE = 250_000


@pytest.mark.parametrize("mode", [["--mode", "racluster"], ["--mode", "ra", "--keep-management"]],
                         ids=["racluster", "ra-management"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(flow_files())
def test_dataset_of_a_long_or_huge_valued_flow_file_exits_0_or_2_in_bounded_memory(mode, data):
    dataset_peak(_exported_hera(), mode)  # imports and kernels
    code, peak = dataset_peak(data, mode)
    assert code in (0, 2)
    assert peak <= DATASET_PEAK_PER_BYTE * len(data) + DATASET_PEAK_BASE


FIELD_LIMIT = 131_072  # the csv module's default field size limit


@st.composite
def label_inputs(draw) -> dict[str, bytes]:
    """The small ground truth and dataset, one of them under a text edit,
    then one of them with one more row that adds 1 kB to 300 kB: cells of
    a thousand characters, thousands of columns, or a quoted cell holding
    line breaks; or a cell within two characters of the field size limit."""
    files = {"gt.csv": GROUND_TRUTH, "data.csv": DATASET}
    edited = draw(st.sampled_from(sorted(files)))
    files[edited] = _mutated(files[edited], draw(st.lists(_TEXT_EDIT, max_size=1)))
    name = draw(st.sampled_from(sorted(files)))
    row = {"gt.csv": GROUND_TRUTH, "data.csv": DATASET}[name].splitlines()[1]
    size = draw(st.integers(1_000, 300_000))
    line = draw(st.sampled_from((
        row + b"".join(b",l" + b"a" * 998 for _ in range(size // 1_000)),
        row + b"".join(b",%d" % i for i in range(size // 6)),
        row + b',"' + b"q\r\n" * (size // 3) + b'"',
        row + b",c" + b"b" * draw(st.integers(FIELD_LIMIT - 3, FIELD_LIMIT + 1)),
    )))
    files[name] += line + b"\n"
    return files


def label_peak(files: dict[str, bytes]) -> tuple[int, int]:
    """traced_peak of `hera label --bidirectional` on the dataset and
    ground truth in `files`."""
    return traced_peak(files, lambda tmp: [
        "label", "--in", str(tmp / "data.csv"), "--gt", str(tmp / "gt.csv"),
        "--out", str(tmp / "out"), "--bidirectional"])


# Label's traced peak may be at most LABEL_PEAK_PER_BYTE times the size
# of the dataset and ground truth plus LABEL_PEAK_BASE bytes. Over the 60
# inputs this test draws, the code this bound was first set on peaked
# within 30 bytes per byte plus 51,884 bytes: a ground-truth row of
# thousands of one-digit columns is split into that many strings. The
# bound allows 1.5 times the slope and about 4.8 times the base.
LABEL_PEAK_PER_BYTE = 45
LABEL_PEAK_BASE = 250_000


@settings(max_examples=60, deadline=None, derandomize=True)
@given(label_inputs())
def test_label_of_a_long_or_wide_input_exits_0_or_2_in_bounded_memory(files):
    label_peak({"gt.csv": GROUND_TRUTH, "data.csv": DATASET})  # imports
    code, peak = label_peak(files)
    assert code in (0, 2)
    size = sum(map(len, files.values()))
    assert peak <= LABEL_PEAK_PER_BYTE * size + LABEL_PEAK_BASE
