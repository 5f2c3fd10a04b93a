import io
import math

import pytest

import pcap_builder as pb
from hera.dataset import cluster
from hera.errors import UsageError
from hera.features import (
    ALWAYS_ON,
    CATALOG,
    CATALOG_ORDER,
    DEFAULT_FEATURES,
    PRESET_BOT_IOT,
    PRESET_CIC_IDS2017,
    PRESET_UNSW_NB15,
    RowContext,
    compute_row,
    select_feature_set,
    service_of,
)
from hera.flows import (
    ExportConfig,
    FlowKey,
    FlowRecord,
    FlowTable,
    make_management_record,
)
from hera.pcap import CaptureReader, DecodedPacket
from helpers import collect_flows, oriented, replace
from test_docs import catalog_table
from test_flows import flag_value

SEC = 1_000_000

DEFAULT_22 = [
    "FlowID", "rank", "stime", "ltime", "sport", "dport", "saddr", "daddr",
    "proto", "bytes", "sbytes", "dbytes", "pkts", "spkts", "dpkts", "dur",
    "runtime", "idle", "flgs", "tcpopt", "Ssaddr", "Sdaddr",
]


def tcp_flow(payloads_c=(0, 100), payloads_s=(40,), base=10.0):
    """Deterministic TCP exchange; returns the single non-management record."""
    table = FlowTable(ExportConfig())
    ts = round(base * SEC)
    seqno = 0

    def p(src, dst, sport, dport, flags, payload, at):
        return DecodedPacket(
            ts_us=at, src_addr=src, dst_addr=dst, src_port=sport,
            dst_port=dport, proto="tcp", ip_bytes=40 + payload,
            payload_bytes=payload, ttl=64, tos=0, ip_version=4,
            tcp_flags=flag_value(flags), tcp_window=4096, tcp_seq=1,
        )

    table.assign(p("10.0.0.1", "10.0.0.2", 40000, 80, {"S"}, 0, ts))
    table.assign(p("10.0.0.2", "10.0.0.1", 80, 40000, {"S", "A"}, 0, ts + 100_000))
    table.assign(p("10.0.0.1", "10.0.0.2", 40000, 80, {"A"}, 0, ts + 300_000))
    at = ts + 300_000
    for size in payloads_c:
        at += 100_000
        table.assign(p("10.0.0.1", "10.0.0.2", 40000, 80, {"A", "P"}, size, at))
    for size in payloads_s:
        at += 100_000
        table.assign(p("10.0.0.2", "10.0.0.1", 80, 40000, {"A", "P"}, size, at))
    recs = [r for r in table.flush() if not r.is_management]
    assert len(recs) == 1
    return recs[0]


def cells(rec, names, rank=0, ssaddr=1, sdaddr=1):
    o = oriented(rec)
    service = service_of(rec.key.proto, o.sport, o.dport)
    ctx = RowContext(rank=rank, service=service, ssaddr=ssaddr, sdaddr=sdaddr)
    return dict(zip(names, compute_row(rec, names, ctx)))


# -- catalog shape ---------------------------------------------------------


def test_catalog_has_exactly_130_features():
    assert len(CATALOG) == 130


def test_catalog_names_unique():
    assert len(set(CATALOG_ORDER)) == 130


def test_first_22_are_the_default_preset():
    assert list(CATALOG_ORDER[:22]) == DEFAULT_22
    assert list(DEFAULT_FEATURES) == DEFAULT_22


def test_always_on_is_the_documented_eight():
    assert set(ALWAYS_ON) == {"rank", "stime", "ltime", "proto", "saddr", "daddr", "sport", "dport"}
    assert set(ALWAYS_ON) <= set(DEFAULT_22)


def test_exactly_two_features_are_connection_counts():
    assert [f.name for f in CATALOG if f.name in ("Ssaddr", "Sdaddr")] == ["Ssaddr", "Sdaddr"]


def test_catalog_table_is_consistent():
    rows = catalog_table()
    # header row plus one row per feature
    assert len(rows) == 131
    assert rows[0][0] == "position"
    assert "name" in rows[0]
    name_col = rows[0].index("name")
    names = [row[name_col] for row in rows[1:]]
    assert names == list(CATALOG_ORDER)
    assert [row[0] for row in rows[1:]] == [str(i) for i in range(1, 131)]


# -- selection --------------------------------------------------------------


def test_select_default():
    assert select_feature_set("default") == DEFAULT_22


def test_select_all():
    assert select_feature_set("all") == list(CATALOG_ORDER)


def test_select_single_feature_gets_always_on():
    assert select_feature_set(["dur"]) == [
        "rank", "stime", "ltime", "sport", "dport", "saddr", "daddr", "proto", "dur",
    ]


def test_selection_preserves_catalog_order():
    out = select_feature_set(["trans", "dur", "FlowID"])
    positions = [CATALOG_ORDER.index(name) for name in out]
    assert positions == sorted(positions)


def test_unknown_feature_raises():
    with pytest.raises(UsageError) as err:
        select_feature_set(["nosuchfeat"])
    assert str(err.value) == "unknown feature 'nosuchfeat'"


def test_unknown_preset_raises():
    with pytest.raises(UsageError) as err:
        select_feature_set("nosuchpreset")
    assert str(err.value) == "unknown feature 'nosuchpreset'"


@pytest.mark.parametrize(
    "preset,size",
    [("unsw_nb15", 35), ("bot_iot", 22), ("cic_ids2017", 59)],
)
def test_named_presets(preset, size):
    out = select_feature_set(preset)
    assert len(out) == size
    assert set(ALWAYS_ON) <= set(out)
    positions = [CATALOG_ORDER.index(name) for name in out]
    assert positions == sorted(positions)


@pytest.mark.parametrize("text, names", [
    ("UNSW-NB15", PRESET_UNSW_NB15),
    (" dur , jit ", ["dur", "jit"]),
    ("", []),
    ("all", CATALOG_ORDER),
], ids=["preset-as-typed", "names-with-spaces", "empty", "all"])
def test_the_text_of_features_selects_as_its_names_do(text, names):
    """`--features` text selects the preset it names, in any case and with
    `-` or `_`, or else the comma-separated names, each stripped."""
    assert select_feature_set(text) == select_feature_set(names)


def test_preset_literals_are_within_catalog():
    for preset in (PRESET_UNSW_NB15, PRESET_BOT_IOT, PRESET_CIC_IDS2017):
        assert set(preset) <= set(CATALOG_ORDER)


# -- FlowID and service ------------------------------------------------------


def make_record(saddr, sport, daddr, dport, proto):
    if (saddr, sport) <= (daddr, dport):
        key = FlowKey(saddr, sport, daddr, dport, proto)
        initiator = "a"
    else:
        key = FlowKey(daddr, dport, saddr, sport, proto)
        initiator = "b"
    return FlowRecord(key=key, initiator=initiator, stime_us=0, ltime_us=0)


def flow_id(rec) -> str:
    """The record's FlowID cell."""
    return compute_row(rec, ["FlowID"], RowContext())[0]


def test_flow_id_grammar():
    rec = make_record("10.0.0.1", 1234, "10.0.0.2", 80, "tcp")
    assert flow_id(rec) == "10.0.0.2-10.0.0.1-80-1234-tcp"
    # The source is the initiator, whichever endpoint its key puts first.
    rec = make_record("10.0.0.2", 1234, "10.0.0.1", 80, "tcp")
    assert rec.initiator == "b"
    assert flow_id(rec) == "10.0.0.1-10.0.0.2-80-1234-tcp"


def test_flow_id_icmp_uses_type_code_ports():
    rec = make_record("10.0.0.1", 8, "10.0.0.2", 0, "icmp")
    assert flow_id(rec) == "10.0.0.2-10.0.0.1-0-8-icmp"


def test_flow_id_ipv6():
    rec = make_record("2001:db8::1", 5000, "2001:db8::2", 443, "tcp")
    assert flow_id(rec) == "2001:db8::2-2001:db8::1-443-5000-tcp"


def test_service_lookup():
    assert service_of("tcp", 40000, 80) == "http"
    assert service_of("udp", 53, 35000) == "dns"
    assert service_of("tcp", 40000, 40001) == "-"


def test_service_uses_lower_port():
    assert service_of("tcp", 443, 80) == "http"  # min(sport, dport) decides


# -- row computation -----------------------------------------------------------


def test_identity_cells():
    rec = tcp_flow()
    row = cells(rec, DEFAULT_22, rank=3, ssaddr=2, sdaddr=5)
    assert row["FlowID"] == "10.0.0.2-10.0.0.1-80-40000-tcp"
    assert row["rank"] == "3"
    assert row["saddr"] == "10.0.0.1"
    assert row["daddr"] == "10.0.0.2"
    assert row["sport"] == "40000"
    assert row["dport"] == "80"
    assert row["proto"] == "tcp"
    assert row["Ssaddr"] == "2"
    assert row["Sdaddr"] == "5"
    assert row["tcpopt"] == "CON"
    assert row["flgs"] == "SAP"


def test_count_cells():
    rec = tcp_flow(payloads_c=(0, 100), payloads_s=(40,))
    row = cells(rec, DEFAULT_22)
    # client: SYN, ACK, data(0), data(100); server: SYN-ACK, data(40)
    assert row["spkts"] == "4"
    assert row["dpkts"] == "2"
    assert row["pkts"] == "6"
    assert row["sbytes"] == str(40 * 4 + 100)
    assert row["dbytes"] == str(40 * 2 + 40)
    assert row["bytes"] == str(40 * 6 + 140)


def test_time_cells_have_six_decimals():
    rec = tcp_flow(base=10.0)
    row = cells(rec, DEFAULT_22)
    assert row["stime"] == "10.000000"
    assert row["ltime"] == "10.600000"
    assert row["dur"] == "0.600000"
    assert row["runtime"] == "0.600000"
    assert row["idle"] == "0.000000"


def test_handshake_cells():
    rec = tcp_flow()
    row = cells(rec, ["synack", "ackdat", "tcprtt"])
    assert row["synack"] == "0.100000"
    assert row["ackdat"] == "0.200000"
    assert row["tcprtt"] == "0.300000"


def test_size_statistics_hand_computed():
    rec = tcp_flow(payloads_c=(0, 100), payloads_s=(40,))
    row = cells(rec, ["smeansz", "sstdsz", "meansz", "smaxsz", "sminsz", "varsz"])
    sizes_c = [40, 40, 40, 140]
    assert row["smaxsz"] == "140"
    assert row["sminsz"] == "40"
    assert float(row["smeansz"]) == pytest.approx(sum(sizes_c) / 4)
    mean_c = sum(sizes_c) / 4
    var_c = sum(s * s for s in sizes_c) / 4 - mean_c**2
    assert float(row["sstdsz"]) == pytest.approx(math.sqrt(var_c))
    all_sizes = sizes_c + [40, 80]
    assert float(row["meansz"]) == pytest.approx(sum(all_sizes) / 6)
    mean_all = sum(all_sizes) / 6
    assert float(row["varsz"]) == pytest.approx(
        sum(s * s for s in all_sizes) / 6 - mean_all**2
    )


def test_rate_cells_hand_computed():
    rec = tcp_flow()
    row = cells(rec, ["rate", "load", "srate"])
    dur = 0.6
    assert float(row["rate"]) == pytest.approx(6 / dur)
    assert float(row["load"]) == pytest.approx((240 + 140) * 8 / dur)
    assert float(row["srate"]) == pytest.approx(4 / dur)


def test_iat_cells_hand_computed():
    rec = tcp_flow()
    # overall arrivals: 0, .1, .3, .4, .5, .6 -> gaps .1 .2 .1 .1 .1
    row = cells(rec, ["intpkt", "minipt", "maxipt", "totipt", "jit"])
    gaps = [0.1, 0.2, 0.1, 0.1, 0.1]
    assert float(row["intpkt"]) == pytest.approx(sum(gaps) / 5)
    assert row["minipt"] == "0.100000"
    assert row["maxipt"] == "0.200000"
    assert row["totipt"] == "0.600000"
    mean = sum(gaps) / 5
    var = sum(g * g for g in gaps) / 5 - mean**2
    assert float(row["jit"]) == pytest.approx(math.sqrt(max(var, 0)), abs=1e-6)


def test_direction_time_cells():
    rec = tcp_flow()
    row = cells(rec, ["sstime", "sltime", "dstime", "dltime", "sdur", "ddur"])
    assert row["sstime"] == "10.000000"
    assert row["sltime"] == "10.500000"
    assert row["dstime"] == "10.100000"
    assert row["dltime"] == "10.600000"
    assert row["sdur"] == "0.500000"
    assert row["ddur"] == "0.500000"


def test_flag_count_cells():
    rec = tcp_flow()
    row = cells(rec, ["syncnt", "ssyncnt", "dsyncnt", "ackcnt", "pshcnt", "urgcnt"])
    assert row["syncnt"] == "2"
    assert row["ssyncnt"] == "1"
    assert row["dsyncnt"] == "1"
    assert row["ackcnt"] == "5"
    assert row["pshcnt"] == "3"
    assert row["urgcnt"] == "0"


# -- undefined values are empty cells ------------------------------------------


def udp_single_packet():
    table = FlowTable(ExportConfig())
    table.assign(
        DecodedPacket(
            ts_us=5 * SEC, src_addr="10.0.0.3", dst_addr="10.0.0.4",
            src_port=9999, dst_port=53, proto="udp", ip_bytes=60,
            payload_bytes=32, ttl=64, tos=0, ip_version=4,
        )
    )
    return [r for r in table.flush() if not r.is_management][0]


def test_udp_has_empty_tcp_cells():
    rec = udp_single_packet()
    row = cells(rec, ["tcpopt", "syncnt", "sackcnt", "swin", "stcpb", "synack", "tcprtt"])
    assert all(value == "" for value in row.values())


def test_zero_duration_rates_are_empty():
    rec = udp_single_packet()
    row = cells(rec, ["rate", "load", "srate", "dload"])
    assert all(value == "" for value in row.values())


def test_absent_direction_stats_are_empty():
    rec = udp_single_packet()
    row = cells(rec, ["dminsz", "dmaxsz", "dmeansz", "dttl", "dstime", "ddur", "dintpkt"])
    assert all(value == "" for value in row.values())


def test_single_packet_iat_cells_are_empty():
    rec = udp_single_packet()
    row = cells(rec, ["intpkt", "minipt", "maxipt", "totipt", "jit"])
    assert all(value == "" for value in row.values())


def test_every_feature_computes_on_a_management_record():
    # A management record carries packet totals on one side but no
    # timestamps, so a span over that side is undefined, not an error.
    rec = make_management_record(0, 60 * SEC, packets=7, byte_count=700, flows=2)
    ctx = RowContext(rank=0, service="", ssaddr=None, sdaddr=None)
    row = dict(zip(CATALOG_ORDER, compute_row(rec, CATALOG_ORDER, ctx)))
    assert len(row) == len(CATALOG)
    assert row["sdur"] == row["ddur"] == ""
    assert row["pkts"] == "7"


def test_always_on_cells_never_empty():
    for rec in (tcp_flow(), udp_single_packet()):
        row = cells(rec, list(ALWAYS_ON))
        assert all(value != "" for value in row.values())


def test_sm_ips_ports_flag():
    rec = tcp_flow()
    assert cells(rec, ["is_sm_ips_ports"])["is_sm_ips_ports"] == "0"
    twin = make_record("10.0.0.1", 5353, "10.0.0.1", 5353, "udp")
    twin.a.pkts = 1
    assert cells(twin, ["is_sm_ips_ports"])["is_sm_ips_ports"] == "1"


def test_ratio_cells():
    # responder over initiator
    rec = tcp_flow(payloads_c=(0, 100), payloads_s=(40,))
    row = cells(rec, ["pktratio", "bytratio"])
    assert row["pktratio"] == f"{2 / 4:.6f}"
    assert row["bytratio"] == f"{120 / 260:.6f}"


# -- source and destination are one template -------------------------------------

# Every sX/dX pair of the catalog, and the both-direction feature X of
# each pair that has one; flipping a record's initiator must swap the
# pairs and leave the both-direction cells as they are.
SIDE_PAIRS = [(name, "d" + name[1:]) for name in CATALOG_ORDER
              if name.startswith("s") and "d" + name[1:] in CATALOG_ORDER]
BOTH_DIRECTIONS = [name[1:] for name, _ in SIDE_PAIRS if name[1:] in CATALOG_ORDER]
# Cells defined by orientation but not as a pair.
ORIENTED = {"FlowID", "pktratio", "bytratio"}

C, S, O = "10.0.0.1", "10.0.0.2", "10.0.0.3"
C6, S6 = "2001:db8::1", "2001:db8::2"


def _mixed_capture_records():
    """Records of a capture with a TCP session (URG included), a two-way
    UDP exchange, ICMP, one-sided UDP and TCP flows, IPv6 and a UDP flow
    sliced over several 1 s windows; management records, and the
    racluster merge of the flow records, too."""
    frames = [
        pb.tcp4_frame(C, S, 40000, 80, pb.SYN, ttl=64, window=1000, seq=5),
        pb.tcp4_frame(S, C, 80, 40000, pb.SYN | pb.ACK, ttl=128, tos=8, window=2000, seq=9),
        pb.tcp4_frame(C, S, 40000, 80, pb.ACK, ttl=63),
        pb.tcp4_frame(C, S, 40000, 80, pb.PSH | pb.ACK | pb.URG, payload=b"x" * 50),
        pb.tcp4_frame(S, C, 80, 40000, pb.PSH | pb.ACK, payload=b"y" * 300, ttl=120),
        pb.udp4_frame(C, S, 5353, 53, b"q" * 20),
        pb.udp4_frame(S, C, 53, 5353, b"r" * 40, ttl=30, tos=4),
        pb.icmp4_frame(C, S, 8, 0, b"ping"),
        pb.icmp4_frame(S, C, 0, 0, b"pong", ttl=99),
        pb.udp4_frame(C, O, 6000, 7000, b"a" * 10),
        pb.tcp4_frame(O, S, 41000, 22, pb.SYN),
        pb.ethernet(pb.ipv6(C6, S6, 6, pb.tcp(42000, 443, pb.SYN)), pb.ETHERTYPE_IPV6),
        pb.tcp4_frame(S, C, 80, 40000, pb.FIN | pb.ACK),
        pb.tcp4_frame(C, S, 40000, 80, pb.FIN | pb.ACK),
        pb.tcp4_frame(S, C, 80, 40000, pb.ACK),
    ]
    frames += [pb.udp4_frame(O, C, 9000, 9001, b"s" * n, ttl=40 + n) for n in range(1, 9)]
    capture = pb.pcap([pb.record(i * 300_000, frame) for i, frame in enumerate(frames)])
    reader = CaptureReader(io.BytesIO(capture))
    records = collect_flows(reader, ExportConfig(interval_us=SEC))
    assert not reader.skipped and reader.record_index == len(frames)
    assert {r.key.proto for r in records} == {"tcp", "udp", "icmp", "man"}
    assert any(not r.is_management and 0 in (r.a.pkts, r.b.pkts) for r in records)
    assert any(r.slice_index > 0 for r in records)
    return records + cluster([r for r in records if not r.is_management])


def test_side_pairs_cover_the_per_side_catalog():
    assert len(SIDE_PAIRS) == 37
    assert ("saddr", "daddr") in SIDE_PAIRS and ("sport", "dport") in SIDE_PAIRS
    assert ("sfincnt", "dfincnt") in SIDE_PAIRS
    assert {"bytes", "pkts", "load", "minsz", "maxttl", "fincnt"} <= set(BOTH_DIRECTIONS)


def test_flipping_the_initiator_swaps_every_side_pair():
    ctx = RowContext(rank=4, service="x", ssaddr=1, sdaddr=2)
    pairs = dict(SIDE_PAIRS) | {d: s for s, d in SIDE_PAIRS}
    for rec in _mixed_capture_records():
        flipped = replace(rec, initiator="b" if rec.initiator == "a" else "a")
        row = dict(zip(CATALOG_ORDER, compute_row(rec, CATALOG_ORDER, ctx)))
        flipped_row = dict(zip(CATALOG_ORDER, compute_row(flipped, CATALOG_ORDER, ctx)))
        for name in CATALOG_ORDER:
            if name in pairs:
                assert flipped_row[name] == row[pairs[name]], (rec, name)
            elif name not in ORIENTED:
                assert flipped_row[name] == row[name], (rec, name)
