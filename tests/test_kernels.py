"""The compiled kernels: the feature row of each selection, the `.hera`
writer and the written-form reader per record, and the packet kernel
`FlowTable.assign` with the endpoint statistics' merge per packet.

Each kernel is checked against its reference: `kernel_oracle` for the
row and the writer, the general record reader for the written-form
reader, `endpoint_oracle` for the endpoint fold of the packet kernel and
for the merges of endpoints and of records. The call-count guards keep
each kernel, the CSV line writer that takes the rows and the packet
decoder straight-line: one Python-level call per cell, per field or per
header would show up as dozens or hundreds; `dataset_rows` is held to a
few calls per record around its row kernel.
"""

import io
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import pcap_builder as pb
from endpoint_oracle import oracle_merge, oracle_record_merge, oracle_update
from helpers import canonical_key, field_names, oriented, replace
from hera import herafile
from hera.dataset import dataset_rows, row_writer
from hera.features import PRESETS, RowContext, compute_row, select_feature_set
from hera.flows import (
    ACK,
    MANAGEMENT_KEY,
    EndpointStats,
    ExportConfig,
    FlowKey,
    FlowRecord,
    FlowTable,
)
from hera.herafile import format_record
from hera.pcap import CaptureReader, DecodedPacket
from kernel_oracle import oracle_format_record, oracle_row
from test_features import tcp_flow

ADDRESSES = ["10.0.0.1", "10.0.0.2", "192.168.1.254", "0.0.0.0", "2001:db8::1",
             "2001:db8::2", "::1", "fe80::1%eth0"]
PROTOS = ["tcp", "udp", "icmp", "ipv6-icmp", "gre"]
SELECTIONS = {preset: select_feature_set(preset) for preset in PRESETS}

ints = st.integers(-5, 10**6) | st.integers(-2**62, 2**62)
optional_ints = st.none() | ints
times = st.integers(-5_000_000, 5_000_000) | st.integers(-10**15, 10**15)
optional_times = st.none() | times


def _field_strategy(name: str, default):
    if name.endswith("_us"):
        return optional_times if default is None else times
    return optional_ints if default is None else ints


endpoint_stats = st.builds(EndpointStats, **{
    name: _field_strategy(name, getattr(EndpointStats(), name))
    for name in field_names(EndpointStats)})
flow_keys = st.builds(FlowKey, st.sampled_from(ADDRESSES), st.integers(0, 65535),
                      st.sampled_from(ADDRESSES), st.integers(0, 65535), st.sampled_from(PROTOS))


@st.composite
def records(draw):
    """A record with any mix of present and None fields: negative times
    and gaps, zero and negative durations, management records and IPv6
    addresses."""
    management = draw(st.booleans())
    stime = draw(times)
    return FlowRecord(
        key=MANAGEMENT_KEY if management else draw(flow_keys),
        initiator=draw(st.sampled_from("ab")),
        stime_us=stime,
        ltime_us=stime + draw(st.sampled_from([0, 0, 1, -1]) | st.integers(0, 10**10)),
        slice_index=draw(st.integers(0, 10**6)),
        is_management=management,
        a=draw(endpoint_stats),
        b=draw(endpoint_stats),
        flgs=draw(st.integers(0, 63)),
        tcp_state=draw(st.sampled_from([None, "REQ", "CON", "FIN", "RST"])),
        synack_us=draw(optional_times),
        ackdat_us=draw(optional_times),
        iat_sum_us=draw(times),
        iat_sumsq=draw(ints),
        iat_min_us=draw(optional_times),
        iat_max_us=draw(optional_times),
        vlan_id=draw(optional_ints),
        ip_version=draw(st.sampled_from([None, 4, 6])),
        frag_count=draw(ints),
        runtime_us=draw(times),
        idle_us=draw(times),
        flows=draw(optional_ints) if management else None,
        seq=draw(optional_ints),
        trans=draw(st.integers(1, 10**6)),
    )


contexts = st.builds(RowContext, rank=st.integers(0, 10**7),
                     service=st.sampled_from(["", "-", "http", "dns"]),
                     ssaddr=st.none() | st.integers(0, 100), sdaddr=st.none() | st.integers(0, 100))


@settings(max_examples=300, deadline=None)
@given(records(), contexts)
def test_row_kernels_equal_the_per_cell_oracle_on_every_preset(rec, ctx):
    for preset, names in SELECTIONS.items():
        assert compute_row(rec, names, ctx) == oracle_row(rec, names, ctx), preset


@settings(max_examples=300, deadline=None)
@given(records())
def test_writer_kernel_equals_the_per_field_oracle(rec):
    assert format_record(rec) == oracle_format_record(rec)


@settings(max_examples=300, deadline=None)
@given(records(), st.sampled_from(["note=", "x1=abc", "future_field=1.5"]))
def test_written_form_reader_equals_the_general_reader(rec, unknown):
    line = format_record(rec)
    record = herafile._written_line()(line)
    assert record is not None
    assert record == herafile._parse_general(line)
    # Both readers orient the key as export does, whatever the record's.
    assert (record.key, record.initiator) == canonical_key(*oriented(rec)[2:], rec.key.proto)
    # An unknown field is not written form, and the general reader skips it.
    assert herafile._written_line()(f"{line} {unknown}") is None
    assert herafile._parse_general(f"{line} {unknown}") == record


# The statistics of each side of a record, in `.hera` line order, as they
# were written out by hand: (name suffix, value kind, attribute).
SIDE_FIELDS = (
    ("pkts", "int", "pkts"),
    ("bytes", "int", "bytes"),
    ("appbytes", "int", "appbytes"),
    ("datapkts", "int", "datapkts"),
    ("minsz", "oint", "sz_min"),
    ("maxsz", "oint", "sz_max"),
    ("sqsz", "int", "sz_sumsq"),
    ("minappsz", "oint", "app_min"),
    ("maxappsz", "oint", "app_max"),
    ("sqappsz", "int", "app_sumsq"),
    ("ttl", "oint", "ttl_first"),
    ("minttl", "oint", "ttl_min"),
    ("maxttl", "oint", "ttl_max"),
    ("tos", "oint", "tos_first"),
    ("win", "oint", "win_first"),
    ("tcpb", "oint", "tcpb_first"),
    ("fin", "int", "fin_cnt"),
    ("syn", "int", "syn_cnt"),
    ("rst", "int", "rst_cnt"),
    ("psh", "int", "psh_cnt"),
    ("ack", "int", "ack_cnt"),
    ("urg", "int", "urg_cnt"),
    ("stime", "otime", "first_ts_us"),
    ("ltime", "otime", "last_ts_us"),
    ("ipsum", "time", "iat_sum_us"),
    ("ipsq", "int", "iat_sumsq"),
    ("ipmin", "otime", "iat_min_us"),
    ("ipmax", "otime", "iat_max_us"),
)


def test_side_fields_derived_from_the_endpoint_table_keep_the_line_order():
    assert herafile._SIDE_FIELDS == SIDE_FIELDS
    attrs = tuple(attr for _, _, attr in SIDE_FIELDS)
    assert field_names(EndpointStats) == EndpointStats.__slots__ == attrs
    # The reader kernels build EndpointStats by position, in this order.
    stats = EndpointStats(*range(len(attrs)))
    assert [getattr(stats, attr) for attr in attrs] == list(range(len(attrs)))


@settings(max_examples=300, deadline=None)
@given(endpoint_stats, endpoint_stats)
def test_the_generated_merge_equals_the_oracle_merge(mine, theirs):
    """Any mix of None and present values, as records read from a file
    may carry: a time span with one end only, extremes without sums."""
    expected = replace(mine)
    oracle_merge(expected, theirs)
    mine.merge(theirs)
    assert mine == expected


@settings(max_examples=300, deadline=None)
@given(records(), records(), optional_times)
def test_the_record_merge_equals_the_oracle_record_merge(rec, other, prev_ltime_us):
    """Records with any mix of None and present values, management or
    not, folded with and without the ltime of the record before."""
    expected = replace(rec, a=replace(rec.a), b=replace(rec.b))
    unchanged = replace(other, a=replace(other.a), b=replace(other.b))
    oracle_record_merge(expected, other, prev_ltime_us)
    rec.merge(other, prev_ltime_us)
    assert rec == expected
    assert other == unchanged


@st.composite
def packet_streams(draw):
    """Packets between two endpoints over two ports each, as TCP, UDP or
    with any flags, at times that go back within and beyond the slack."""
    ts = 1_000_000
    packets = []
    for _ in range(draw(st.integers(0, 30))):
        ts += draw(st.integers(-3_000_000, 20_000_000) | st.sampled_from((0, 1, -1)))
        src, dst = draw(st.permutations(("10.0.0.1", "10.0.0.2")))
        size = draw(st.integers(0, 1500))
        packets.append(DecodedPacket(
            ts, src, dst, draw(st.sampled_from((80, 81))), draw(st.sampled_from((80, 81))),
            draw(st.sampled_from(("tcp", "udp"))), size, draw(st.integers(0, size)),
            draw(st.integers(0, 255)), draw(st.integers(0, 255)), 4, draw(st.booleans()),
            draw(st.none() | st.integers(0, 63)), draw(st.none() | st.integers(0, 65535)),
            draw(st.none() | st.integers(0, 2**32 - 1)), draw(st.none() | st.integers(0, 4095))))
    return packets


@settings(max_examples=150, deadline=None)
@given(packet_streams(), st.integers(1, 30), st.integers(1, 30), st.integers(0, 2))
def test_the_packet_kernel_folds_each_endpoint_as_the_oracle_update(
        packets, interval_s, idle_s, slack_s):
    table = FlowTable(ExportConfig(interval_us=interval_s * 1_000_000,
                                   idle_timeout_us=idle_s * 1_000_000,
                                   reorder_slack_us=slack_s * 1_000_000))
    expected = {}  # id(record) -> (record, the oracle's stats of each side)
    for packet in packets:
        skipped = table.skipped_non_monotonic
        table.assign(packet)
        if table.skipped_non_monotonic > skipped:
            continue
        key, sender = canonical_key(packet.src_addr, packet.src_port,
                                    packet.dst_addr, packet.dst_port, packet.proto)
        live = table._live.get(key)
        rec = table._closed[-1] if live is None else live.rec  # closed by this segment
        _, sides = expected.setdefault(id(rec), (rec, {"a": EndpointStats(), "b": EndpointStats()}))
        oracle_update(sides[sender], packet)
    for rec, sides in expected.values():
        assert (rec.a, rec.b) == (sides["a"], sides["b"])


# -- call-count guards --------------------------------------------------------


def python_calls(function, *args) -> int:
    """The Python-level calls one call of function(*args) makes, itself
    included, once its kernel is compiled."""
    function(*args)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_a_row_of_every_feature_makes_at_most_8_python_calls():
    ctx = RowContext(rank=3, service="http", ssaddr=1, sdaddr=2)
    # compute_row, the kernel and its six opt_min/opt_max cells: the
    # identity cells read the row's oriented locals, not the record's
    # properties.
    assert python_calls(compute_row, tcp_flow(), SELECTIONS["all"], ctx) <= 8


def test_writing_a_record_makes_at_most_2_python_calls():
    # format_record and the kernel: the sides are picked once, not read
    # through the record's orientation properties.
    assert python_calls(format_record, tcp_flow()) <= 2


def test_reading_a_written_record_makes_at_most_4_python_calls():
    # The kernel and the three constructors: the key is oriented inline.
    assert python_calls(herafile._written_line(), format_record(tcp_flow())) <= 4


def test_read_hera_reads_written_lines_without_the_general_reader(tmp_path, monkeypatch):
    records = [tcp_flow(), replace(tcp_flow(), initiator="b")]
    path = tmp_path / "written.hera"
    herafile.write_hera(path, herafile.HeraHeader(config=ExportConfig()), records)
    expected = herafile.read_hera(path).records
    calls = []
    monkeypatch.setattr(herafile, "_parse_general", lambda *args: calls.append(args))
    assert herafile.read_hera(path).records == expected
    assert calls == []


def test_dataset_rows_of_the_default_preset_make_at_most_7_python_calls_per_record():
    names = SELECTIONS["default"]

    def drain(records):
        _, rows, _ = dataset_rows(records, names)
        for _ in rows:
            pass

    records = [tcp_flow(), replace(tcp_flow(), initiator="b")]
    # Per record: the rows generator, the row kernel, its RowContext, the
    # service of the connection counts and of the row, and the packet and
    # byte totals of the stats.
    assert python_calls(drain, records * 2) - python_calls(drain, records) <= 7 * len(records)


def test_writing_a_row_of_every_feature_makes_at_most_3_python_calls():
    ctx = RowContext(rank=3, service="http", ssaddr=1, sdaddr=2)
    row = compute_row(tcp_flow(), SELECTIONS["all"], ctx)
    assert len(row) == 130
    assert python_calls(row_writer(io.StringIO()), row) <= 3


def test_reading_an_ethernet_ipv4_tcp_frame_makes_at_most_2_python_calls():
    frame = pb.tcp4_frame("10.0.0.1", "10.0.0.2", 40000, 80, pb.ACK, payload=b"data")
    reader = CaptureReader(io.BytesIO(pb.pcap([pb.record(0, frame), pb.record(1, frame)])))
    assert python_calls(reader.next_packet) <= 2  # the addresses' text cached by the first


def _packet(proto: str, flags: int | None) -> DecodedPacket:
    return DecodedPacket(1_000_000, "10.0.0.1", "10.0.0.2", 40000, 80, proto, 60, 20, 64, 0, 4,
                         tcp_flags=flags, tcp_window=None if flags is None else 512,
                         tcp_seq=None if flags is None else 7)


def test_assigning_a_tcp_segment_to_an_open_flow_makes_at_most_2_python_calls():
    table = FlowTable(ExportConfig())
    assert python_calls(table.assign, _packet("tcp", ACK)) <= 2  # the kernel and _tcp_segment


def test_assigning_a_udp_packet_to_an_open_flow_makes_1_python_call():
    table = FlowTable(ExportConfig())
    assert python_calls(table.assign, _packet("udp", None)) == 1
