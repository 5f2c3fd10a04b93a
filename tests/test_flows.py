import pytest
from hypothesis import given, settings, strategies as st

from flow_oracle import OraclePacket, oracle_flows

from hera.flows import (
    EndpointStats,
    FLAG_TEXT,
    ExportConfig,
    FlowKey,
    FlowTable,
    observe_gap,
    opt_max,
    opt_min,
)
from hera.pcap import DecodedPacket
from helpers import canonical_key, collect_flows, oriented

SEC = 1_000_000

# Each TCP flag letter's bit in the TCP header, written out here so that
# tests check hera's flag table rather than reuse it.
FLAG_BITS = {"F": 0x01, "S": 0x02, "R": 0x04, "P": 0x08, "A": 0x10, "U": 0x20}


def flag_value(letters) -> int:
    """The TCP flag value of a collection of flag letters."""
    return sum(FLAG_BITS[letter] for letter in set(letters))


def pkt(
    ts_s,
    src="10.0.0.1",
    dst="10.0.0.2",
    sport=1234,
    dport=80,
    proto="tcp",
    flags=None,
    ip_bytes=40,
    payload=0,
    ttl=64,
    tos=0,
    version=4,
    **extra,
):
    if proto == "tcp" and flags is None:
        flags = {"A"}
    if proto != "tcp":
        flags = None
    return DecodedPacket(
        ts_us=round(ts_s * SEC),
        src_addr=src,
        dst_addr=dst,
        src_port=sport,
        dst_port=dport,
        proto=proto,
        ip_bytes=ip_bytes,
        payload_bytes=payload,
        ttl=ttl,
        tos=tos,
        ip_version=version,
        tcp_flags=flag_value(flags) if flags is not None else None,
        **extra,
    )


def back(p, ts_s, flags=None, **kw):
    return pkt(ts_s, src=p.dst_addr, dst=p.src_addr, sport=p.dst_port, dport=p.src_port, proto=p.proto, flags=flags, **kw)


def run(packets, **cfg):
    return collect_flows(packets, ExportConfig(**cfg))


def data_records(records):
    return [r for r in records if not r.is_management]


# -- keys -----------------------------------------------------------------


def flow_key(packet):
    """The key and sending endpoint FlowTable.assign gives a packet."""
    return canonical_key(packet.src_addr, packet.src_port,
                         packet.dst_addr, packet.dst_port, packet.proto)


def test_flow_key_is_direction_invariant():
    fwd = pkt(0, src="10.0.0.1", dst="10.0.0.2", sport=1234, dport=80)
    rev = pkt(0, src="10.0.0.2", dst="10.0.0.1", sport=80, dport=1234)
    assert flow_key(fwd)[0] == flow_key(rev)[0]
    assert flow_key(fwd)[1] != flow_key(rev)[1]


def test_flow_key_includes_proto():
    t = pkt(0, proto="tcp")
    u = pkt(0, proto="udp", sport=1234, dport=80)
    assert flow_key(t)[0] != flow_key(u)[0]


def test_flow_key_icmp_uses_type_code():
    p = pkt(0, proto="icmp", sport=8, dport=0)
    key, _ = flow_key(p)
    assert {key.port_a, key.port_b} == {8, 0}


@given(
    st.tuples(st.ip_addresses(v=4).map(str), st.integers(0, 65535)),
    st.tuples(st.ip_addresses(v=4).map(str), st.integers(0, 65535)),
    st.sampled_from(["tcp", "udp", "icmp"]),
)
def test_flow_key_canonical_property(end_a, end_b, proto):
    fwd = pkt(0, src=end_a[0], dst=end_b[0], sport=end_a[1], dport=end_b[1], proto=proto)
    rev = pkt(0, src=end_b[0], dst=end_a[0], sport=end_b[1], dport=end_a[1], proto=proto)
    key_f, dir_f = flow_key(fwd)
    key_r, dir_r = flow_key(rev)
    assert key_f == key_r
    assert (key_f.addr_a, key_f.port_a) <= (key_f.addr_b, key_f.port_b)
    if (end_a, end_b) != (end_b, end_a):
        pass
    if end_a != end_b:
        assert {dir_f, dir_r} == {"a", "b"}


# -- config ----------------------------------------------------------------


def test_config_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        ExportConfig(interval_us=0)
    with pytest.raises(ValueError):
        ExportConfig(interval_us=-5 * SEC)


def test_idle_timeout_defaults_to_interval():
    cfg = ExportConfig(interval_us=30 * SEC)
    assert cfg.idle_timeout_us == 30 * SEC


# -- TCP lifecycle ----------------------------------------------------------


def full_session():
    """SYN, SYN-ACK, ACK, data both ways, FIN exchange, final ACK: 9 packets."""
    c = dict(src="10.0.0.1", dst="10.0.0.2", sport=40000, dport=80)
    s = dict(src="10.0.0.2", dst="10.0.0.1", sport=80, dport=40000)
    return [
        pkt(1.0, flags={"S"}, **c),
        pkt(1.1, flags={"S", "A"}, **s),
        pkt(1.2, flags={"A"}, **c),
        pkt(1.3, flags={"A", "P"}, payload=50, ip_bytes=90, **c),
        pkt(1.4, flags={"A", "P"}, payload=100, ip_bytes=140, **s),
        pkt(1.5, flags={"F", "A"}, **c),
        pkt(1.6, flags={"A"}, **s),
        pkt(1.7, flags={"F", "A"}, **s),
        pkt(1.8, flags={"A"}, **c),
    ]


def test_full_session_single_record():
    recs = data_records(run(full_session()))
    assert len(recs) == 1
    rec = recs[0]
    o = oriented(rec)
    assert (o.src.pkts, o.dst.pkts) == (5, 4)
    assert rec.tcp_state == "FIN"
    assert (o.saddr, o.daddr) == ("10.0.0.1", "10.0.0.2")


def test_lone_fin_does_not_close():
    c = dict(src="10.0.0.1", dst="10.0.0.2", sport=40000, dport=80)
    s = dict(src="10.0.0.2", dst="10.0.0.1", sport=80, dport=40000)
    packets = [
        pkt(1.0, flags={"S"}, **c),
        pkt(1.1, flags={"S", "A"}, **s),
        pkt(1.2, flags={"A"}, **c),
        pkt(2.0, flags={"F", "A"}, **c),  # client done sending
        pkt(2.5, flags={"A", "P"}, payload=10, ip_bytes=50, **s),
        pkt(3.0, flags={"A", "P"}, payload=10, ip_bytes=50, **s),
        pkt(3.5, flags={"A", "P"}, payload=10, ip_bytes=50, **s),
        pkt(4.0, flags={"F", "A"}, **s),
        pkt(4.1, flags={"A"}, **c),
    ]
    recs = data_records(run(packets))
    assert len(recs) == 1
    assert recs[0].pkts == 9
    assert recs[0].tcp_state == "FIN"


def test_rst_closes_and_reconnect_starts_new_flow():
    c = dict(src="10.0.0.1", dst="10.0.0.2", sport=40000, dport=80)
    s = dict(src="10.0.0.2", dst="10.0.0.1", sport=80, dport=40000)
    packets = [
        pkt(1.0, flags={"S"}, **c),
        pkt(1.1, flags={"S", "A"}, **s),
        pkt(1.2, flags={"A"}, **c),
        pkt(10.0, flags={"R"}, **s),
        pkt(12.0, flags={"S"}, **c),
    ]
    recs = data_records(run(packets))
    assert len(recs) == 2
    assert recs[0].tcp_state == "RST"
    assert recs[0].pkts == 4  # the RST itself is counted in
    assert recs[1].tcp_state == "REQ"
    assert recs[1].pkts == 1


def test_delayed_response_never_swaps_source():
    c = dict(src="10.0.0.9", dst="10.0.0.2", sport=50000, dport=443)
    packets = [pkt(1.0, flags={"S"}, **c)]
    packets.append(back(packets[0], 31.0, flags={"S", "A"}))
    recs = data_records(run(packets))
    assert len(recs) == 1
    assert oriented(recs[0])[2:5] == ("10.0.0.9", 50000, "10.0.0.2")


def test_fin_then_rst_closes_once():
    c = dict(src="10.0.0.1", dst="10.0.0.2", sport=40000, dport=80)
    s = dict(src="10.0.0.2", dst="10.0.0.1", sport=80, dport=40000)
    packets = [
        pkt(1.0, flags={"S"}, **c),
        pkt(1.1, flags={"F", "A"}, **c),
        pkt(1.2, flags={"R"}, **s),
    ]
    recs = data_records(run(packets))
    assert len(recs) == 1
    assert recs[0].tcp_state == "RST"


def test_second_fin_needs_ack_from_other_side():
    c = dict(src="10.0.0.1", dst="10.0.0.2", sport=40000, dport=80)
    s = dict(src="10.0.0.2", dst="10.0.0.1", sport=80, dport=40000)
    packets = [
        pkt(1.0, flags={"S"}, **c),
        pkt(1.1, flags={"F", "A"}, **c),
        pkt(1.2, flags={"F", "A"}, **s),  # both FINs seen, not yet acked
        pkt(1.3, flags={"A", "P"}, payload=4, ip_bytes=44, **s),  # own side: no close
        pkt(1.4, flags={"A"}, **c),  # client acknowledges: close
        pkt(1.5, flags={"S"}, **c),  # next packet opens a fresh flow
    ]
    recs = data_records(run(packets))
    assert len(recs) == 2
    assert recs[0].tcp_state == "FIN"
    assert recs[0].pkts == 5
    assert recs[1].tcp_state == "REQ"
    assert recs[1].pkts == 1


def test_req_becomes_con_on_reverse_packet():
    c = dict(src="10.0.0.1", dst="10.0.0.2", sport=40000, dport=80)
    table = FlowTable(ExportConfig())
    table.assign(pkt(1.0, flags={"S"}, **c))
    assert table.flush()  # sanity: lone SYN flow exists
    table2 = FlowTable(ExportConfig())
    table2.assign(pkt(1.0, flags={"S"}, **c))
    p = pkt(1.0, flags={"S"}, **c)
    table2.assign(back(p, 1.1, flags={"S", "A"}))
    recs = data_records(table2.flush())
    assert recs[0].tcp_state == "CON"


def test_mid_stream_flow_starts_as_con():
    recs = data_records(run([pkt(1.0, flags={"A", "P"}, payload=9, ip_bytes=49)]))
    assert recs[0].tcp_state == "CON"


def test_non_tcp_has_no_state():
    recs = data_records(run([pkt(1.0, proto="udp")]))
    assert recs[0].tcp_state is None


# -- slicing and idle -------------------------------------------------------


def test_udp_slices_across_three_intervals():
    packets = [pkt(t, proto="udp", sport=9000, dport=53) for t in range(0, 151, 10)]
    recs = data_records(run(packets, interval_us=60 * SEC, idle_timeout_us=60 * SEC))
    assert [r.slice_index for r in recs] == [0, 1, 2]
    assert sum(r.pkts for r in recs) == len(packets)
    assert all(r.key == recs[0].key for r in recs)


def test_slice_records_stay_within_interval():
    packets = [pkt(t, proto="udp") for t in (0, 59.999999, 60.0, 119.999999)]
    recs = data_records(run(packets, interval_us=60 * SEC))
    assert [r.slice_index for r in recs] == [0, 1]
    assert recs[0].pkts == 2 and recs[1].pkts == 2
    for r in recs:
        assert r.dur_us < 60 * SEC


def test_slice_indices_can_skip_when_idle_allows():
    packets = [pkt(0, proto="udp"), pkt(130, proto="udp")]
    recs = data_records(run(packets, interval_us=60 * SEC, idle_timeout_us=300 * SEC))
    assert [r.slice_index for r in recs] == [0, 2]


def test_initiator_carries_across_slices():
    first = pkt(0, proto="udp", src="10.0.0.1", dst="10.0.0.2", sport=5000, dport=53)
    packets = [first, back(first, 70.0)]
    recs = data_records(run(packets, interval_us=60 * SEC, idle_timeout_us=120 * SEC))
    assert len(recs) == 2
    assert all(oriented(r).saddr == "10.0.0.1" for r in recs)
    assert [(o.src.pkts, o.dst.pkts) for o in map(oriented, recs)] == [(1, 0), (0, 1)]


def test_idle_timeout_is_strictly_greater():
    at_limit = [pkt(0, proto="udp"), pkt(60, proto="udp")]
    recs = data_records(run(at_limit, interval_us=120 * SEC, idle_timeout_us=60 * SEC))
    assert len(recs) == 1
    over = [pkt(0, proto="udp"), pkt(60.000001, proto="udp")]
    recs = data_records(run(over, interval_us=120 * SEC, idle_timeout_us=60 * SEC))
    assert len(recs) == 2


def test_idle_close_records_gap():
    recs = data_records(run([pkt(0, proto="udp"), pkt(75, proto="udp")], interval_us=60 * SEC))
    assert len(recs) == 2
    assert recs[0].idle_us == 75 * SEC
    assert recs[1].idle_us == 0  # flushed at its own last packet


@pytest.mark.parametrize("last_s, pkts", [(6.8, [4]), (7.2, [3, 1])])
def test_idle_clock_is_the_latest_timestamp_under_reordering(last_s, pkts):
    """1.5 s arrives after 2.0 s, within the slack. The idle timeout counts
    from the episode's latest timestamp (2.0 s), not its last arrival."""
    packets = [pkt(t, proto="udp") for t in (0, 2.0, 1.5, last_s)]
    cfg = dict(interval_us=60 * SEC, idle_timeout_us=5 * SEC, reorder_slack_us=SEC)
    recs = data_records(run(packets, **cfg))
    assert [r.pkts for r in recs] == pkts
    if len(recs) == 2:
        assert recs[0].idle_us == 5_200_000
    flows, accepted, skipped, _ = oracle_flows(
        [OraclePacket(p.ts_us, p.src_addr, p.src_port, p.dst_addr, p.dst_port, p.proto,
                      p.ip_bytes) for p in packets],
        interval_us=cfg["interval_us"], idle_us=cfg["idle_timeout_us"],
        slack_us=cfg["reorder_slack_us"])
    assert (accepted, skipped) == (4, 0)
    assert [(r.key, r.initiator, r.slice_index, r.stime_us, r.ltime_us,
             o.src.pkts, o.dst.pkts, o.src.bytes, o.dst.bytes)
            for r, o in zip(recs, map(oriented, recs))] == [
        (f.key, f.initiator, f.slice_index, f.stime_us, f.ltime_us,
         f.spkts, f.dpkts, f.sbytes, f.dbytes) for f in flows]


def test_flush_idle_is_time_since_last_packet():
    table = FlowTable(ExportConfig())
    table.assign(pkt(90.0, proto="udp"))
    table.assign(pkt(100.0, proto="udp", src="10.9.9.9", sport=7))
    recs = data_records(table.flush())
    by_stime = sorted(recs, key=lambda r: r.stime_us)
    assert by_stime[0].idle_us == 10 * SEC
    assert by_stime[1].idle_us == 0


def test_tcp_closed_flow_has_zero_idle():
    recs = data_records(run(full_session() + [pkt(50.0, proto="udp")]))
    tcp = [r for r in recs if r.key.proto == "tcp"][0]
    assert tcp.idle_us == 0


def test_episode_after_idle_close_may_swap_initiator():
    first = pkt(0, proto="udp", src="10.0.0.1", dst="10.0.0.2", sport=5000, dport=53)
    late_reply = back(first, 200.0)
    recs = data_records(run([first, late_reply], interval_us=60 * SEC))
    assert len(recs) == 2
    assert oriented(recs[0]).saddr == "10.0.0.1"
    assert oriented(recs[1]).saddr == "10.0.0.2"  # new episode, new first sender


# -- ordering and robustness ------------------------------------------------


def test_non_monotonic_beyond_slack_is_skipped():
    table = FlowTable(ExportConfig())
    table.assign(pkt(10.0, proto="udp"))
    table.assign(pkt(8.9, proto="udp"))
    assert table.skipped_non_monotonic == 1
    assert table.accepted_packets == 1
    recs = data_records(table.flush())
    assert len(recs) == 1
    assert recs[0].pkts == 1


def test_out_of_order_within_slack_is_accepted():
    table = FlowTable(ExportConfig())
    table.assign(pkt(10.0, proto="udp"))
    table.assign(pkt(9.5, proto="udp"))
    assert table.skipped_non_monotonic == 0
    assert table.accepted_packets == 2
    recs = data_records(table.flush())
    assert len(recs) == 1
    assert recs[0].pkts == 2
    assert recs[0].stime_us == 9_500_000
    assert recs[0].ltime_us == 10 * SEC


def test_flush_orders_by_stime_then_key():
    table = FlowTable(ExportConfig(emit_management=False))
    table.assign(pkt(3.0, proto="udp", src="10.0.0.5", sport=50))
    table.assign(pkt(2.5, proto="udp", src="10.0.0.3", sport=30))  # within slack
    recs = table.flush()
    assert [r.stime_us for r in recs] == [2_500_000, 3 * SEC]


def test_empty_table_flushes_empty():
    assert FlowTable(ExportConfig()).flush() == []


def test_flush_is_single_shot():
    table = FlowTable(ExportConfig())
    table.flush()
    with pytest.raises(RuntimeError):
        table.flush()


def test_sequence_numbers_are_dense():
    recs = run(full_session())
    assert [r.seq for r in recs] == list(range(len(recs)))


# -- stats accumulation -------------------------------------------------------


def test_byte_and_packet_split_by_direction():
    c = dict(src="10.0.0.1", dst="10.0.0.2", sport=40000, dport=80)
    s = dict(src="10.0.0.2", dst="10.0.0.1", sport=80, dport=40000)
    packets = [
        pkt(1.0, flags={"S"}, ip_bytes=44, **c),
        pkt(1.1, flags={"S", "A"}, ip_bytes=44, **s),
        pkt(1.2, flags={"A", "P"}, ip_bytes=140, payload=100, **c),
    ]
    rec = data_records(run(packets))[0]
    src, dst = oriented(rec)[:2]
    assert (src.pkts, dst.pkts, rec.pkts) == (2, 1, 3)
    assert (src.bytes, dst.bytes, rec.bytes) == (184, 44, 228)
    assert src.appbytes == 100
    assert src.datapkts == 1
    assert dst.datapkts == 0


def test_flags_accumulate_in_canonical_order():
    c = dict(src="10.0.0.1", dst="10.0.0.2", sport=40000, dport=80)
    packets = [
        pkt(1.0, flags={"S"}, **c),
        pkt(1.1, flags={"U", "P", "A"}, **c),
        pkt(1.2, flags={"F", "A"}, **c),
    ]
    rec = data_records(run(packets))[0]
    assert FLAG_TEXT[rec.flgs] == "SAFPU"


def test_closed_and_merged_records_carry_flag_ints():
    c = dict(src="10.0.0.1", dst="10.0.0.2", sport=40000, dport=80)
    packets = [pkt(1.0, flags={"S"}, **c), pkt(1.1, flags={"S", "A"}, **c),
               pkt(30.0, **c), pkt(61.0, **c)]  # the last one opens a second slice
    records = run(packets)
    # management records first: their zeroed key sorts before the flow's
    assert [rec.flgs for rec in records] == [0, flag_value("SA"), 0, flag_value("A")]
    first, second = data_records(records)
    first.merge(second, first.ltime_us)
    assert first.flgs == flag_value("SA")


def test_flag_text_full_order():
    assert FLAG_TEXT[0x3F] == "SAFRPU"
    assert FLAG_TEXT[0] == ""
    assert len(FLAG_TEXT) == 64


def test_handshake_latencies():
    c = dict(src="10.0.0.1", dst="10.0.0.2", sport=40000, dport=80)
    s = dict(src="10.0.0.2", dst="10.0.0.1", sport=80, dport=40000)
    packets = [
        pkt(1.0, flags={"S"}, **c),
        pkt(1.05, flags={"S", "A"}, **s),
        pkt(1.25, flags={"A"}, **c),
    ]
    rec = data_records(run(packets))[0]
    assert rec.synack_us == 50_000
    assert rec.ackdat_us == 200_000


def test_no_handshake_means_no_latencies():
    rec = data_records(run([pkt(1.0, flags={"A"})]))[0]
    assert rec.synack_us is None
    assert rec.ackdat_us is None


def segment(ts_s, sender, letters, **extra):
    """A TCP segment of one connection, sent by the client ("c") or the
    server ("s")."""
    ends = (dict(src="10.0.0.1", dst="10.0.0.2", sport=40000, dport=80) if sender == "c"
            else dict(src="10.0.0.2", dst="10.0.0.1", sport=80, dport=40000))
    return pkt(ts_s, flags=set(letters), **{**ends, **extra})


# Each case: the segments of one connection under a 10 s interval, and per
# record in stime order (state, flag letters, synack_us, ackdat_us, pkts).
TCP_RULE_CASES = {
    "retransmitted-syn-and-synack-keep-the-first-latencies": (
        [segment(1.0, "c", "S"), segment(1.5, "c", "S"), segment(2.0, "s", "SA"),
         segment(3.0, "s", "SA"), segment(3.5, "c", "A")],
        [("CON", "SA", 1 * SEC, 1_500_000, 5)],
    ),
    "latency-only-on-the-slice-where-it-happens": (
        [segment(1.0, "c", "S"), segment(2.0, "s", "SA"), segment(12.0, "c", "A")],
        [("CON", "SA", 1 * SEC, None, 2), ("CON", "A", None, 10 * SEC, 1)],
    ),
    "req-carries-into-the-next-slice-until-the-reply": (
        [segment(1.0, "c", "S"), segment(11.0, "c", "A"), segment(21.0, "s", "SA")],
        [("REQ", "S", None, None, 1), ("REQ", "A", None, None, 1),
         ("CON", "SA", 20 * SEC, None, 1)],
    ),
    "non-first-fragment-opens-as-con-with-no-flags": (
        [segment(1.0, "c", "", sport=0, dport=0, is_fragment=True)],
        [("CON", "", None, None, 1)],
    ),
    "repeated-fin-from-one-side-is-not-the-second-fin": (
        [segment(1.0, "c", "S"), segment(1.1, "s", "SA"), segment(1.2, "c", "A"),
         segment(2.0, "c", "FA"), segment(2.1, "c", "FA"), segment(2.2, "s", "A"),
         segment(2.3, "c", "A")],
        [("CON", "SAF", 100_000, 100_000, 7)],
    ),
}


@pytest.mark.parametrize("packets, expected", TCP_RULE_CASES.values(), ids=TCP_RULE_CASES)
def test_tcp_connection_rules(packets, expected):
    recs = data_records(run(packets, interval_us=10 * SEC, idle_timeout_us=60 * SEC))
    assert [(r.tcp_state, r.flgs, r.synack_us, r.ackdat_us, r.pkts) for r in recs] == [
        (state, flag_value(letters), synack, ackdat, pkts)
        for state, letters, synack, ackdat, pkts in expected]


def test_tcp_rules_run_once_per_tcp_packet_only(monkeypatch):
    calls = []
    rules = FlowTable._tcp_segment

    def counted(self, live, sender, flags, ts):
        calls.append(flags)
        rules(self, live, sender, flags, ts)

    monkeypatch.setattr(FlowTable, "_tcp_segment", counted)
    packets = full_session() + [pkt(2.0, proto="udp"), pkt(2.1, proto="icmp", sport=8, dport=0),
                                segment(3.0, "c", "", sport=0, dport=0, is_fragment=True)]
    run(packets)
    assert calls == [p.tcp_flags for p in packets if p.proto == "tcp"]


def test_ttl_and_window_firsts():
    c = dict(src="10.0.0.1", dst="10.0.0.2", sport=40000, dport=80)
    packets = [
        pkt(1.0, flags={"S"}, ttl=64, tcp_window=1000, tcp_seq=77, **c),
        pkt(1.1, flags={"A"}, ttl=60, tcp_window=2000, tcp_seq=78, **c),
    ]
    src = oriented(data_records(run(packets))[0]).src
    assert src.ttl_first == 64
    assert src.ttl_min == 60
    assert src.ttl_max == 64
    assert src.win_first == 1000
    assert src.tcpb_first == 77


def test_icmp_echo_pair_forms_two_flows():
    req = pkt(1.0, proto="icmp", src="10.0.0.1", dst="10.0.0.9", sport=8, dport=0, ip_bytes=84)
    rep = pkt(1.01, proto="icmp", src="10.0.0.9", dst="10.0.0.1", sport=0, dport=0, ip_bytes=84)
    recs = data_records(run([req, rep]))
    assert len(recs) == 2


# -- management records -------------------------------------------------------


def test_management_counts_per_window():
    packets = [
        pkt(0, proto="udp", ip_bytes=100),
        pkt(10, proto="udp", ip_bytes=100),
        pkt(130, proto="udp", src="10.0.0.7", sport=7, ip_bytes=50),
    ]
    recs = run(packets, interval_us=60 * SEC, idle_timeout_us=200 * SEC)
    mgmt = [r for r in recs if r.is_management]
    assert len(mgmt) == 2  # [0,60) [120,130]; the empty [60,120) has none
    assert (mgmt[0].pkts, mgmt[0].bytes) == (2, 200)
    assert (mgmt[1].pkts, mgmt[1].bytes) == (1, 50)
    assert mgmt[0].flows == 1
    assert mgmt[1].flows == 1
    assert mgmt[0].stime_us == 0 and mgmt[0].ltime_us == 60 * SEC
    assert mgmt[1].stime_us == 120 * SEC and mgmt[1].ltime_us == 130 * SEC


def test_management_records_are_bounded_by_packets_not_by_time_span():
    # 2^32 s apart, as one corrupt ts_sec byte can make two packets: the
    # ~71 million empty 60 s windows between them get no record.
    packets = [pkt(0, proto="udp"), pkt(2 ** 32, proto="udp", sport=9)]
    recs = run(packets)
    mgmt = [r for r in recs if r.is_management]
    assert len(mgmt) == 2
    assert [(m.stime_us, m.ltime_us, m.pkts, m.flows) for m in mgmt] == [
        (0, 60 * SEC, 1, 1), ((2 ** 32 // 60) * 60 * SEC, 2 ** 32 * SEC, 1, 1)]


def test_management_key_is_zeroed():
    recs = run([pkt(0, proto="udp")])
    mgmt = [r for r in recs if r.is_management][0]
    assert mgmt.key.proto == "man"
    assert oriented(mgmt)[2:4] == ("0.0.0.0", 0)


def test_management_can_be_disabled():
    recs = run([pkt(0, proto="udp")], emit_management=False)
    assert all(not r.is_management for r in recs)


def test_management_windows_anchor_at_first_packet():
    packets = [pkt(1000.5, proto="udp"), pkt(1030.0, proto="udp")]
    recs = run(packets, interval_us=60 * SEC)
    mgmt = [r for r in recs if r.is_management]
    assert len(mgmt) == 1
    assert mgmt[0].stime_us == round(1000.5 * SEC)
    assert mgmt[0].ltime_us == 1030 * SEC


# -- record-level invariants ---------------------------------------------------


@st.composite
def packet_streams(draw):
    hosts = ["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"]
    n = draw(st.integers(1, 60))
    ts = 0.0
    out = []
    for _ in range(n):
        ts += draw(st.floats(0, 30))
        proto = draw(st.sampled_from(["tcp", "udp", "icmp"]))
        src, dst = draw(st.sampled_from([(a, b) for a in hosts for b in hosts if a != b]))
        flags = draw(st.sets(st.sampled_from("SAFRPU"), max_size=3)) if proto == "tcp" else None
        out.append(
            pkt(
                ts,
                src=src,
                dst=dst,
                sport=draw(st.sampled_from([80, 443, 5000])),
                dport=draw(st.sampled_from([80, 443, 5000])),
                proto=proto,
                flags=flags,
                ip_bytes=draw(st.integers(20, 1500)),
            )
        )
    return out


@settings(max_examples=60, deadline=None)
@given(packet_streams())
def test_record_invariants_over_random_streams(packets):
    table = FlowTable(ExportConfig(interval_us=60 * SEC))
    for p in packets:
        table.assign(p)
    assert table.skipped_non_monotonic == 0  # the streams never go back in time
    accepted_pkts = table.accepted_packets
    accepted_bytes = sum(p.ip_bytes for p in packets)
    recs = table.flush()
    data = data_records(recs)
    assert sum(r.pkts for r in data) == accepted_pkts
    assert sum(r.bytes for r in data) == accepted_bytes
    episodes_seen = set()
    for r in data:
        src, dst = oriented(r)[:2]
        assert r.stime_us <= r.ltime_us
        assert r.pkts == src.pkts + dst.pkts
        assert r.bytes == src.bytes + dst.bytes
        assert r.pkts >= 1
        episode = (r.key, r.initiator)
        if r.slice_index == 0 and episode not in episodes_seen:
            assert src.pkts >= 1
        episodes_seen.add(episode)
    mgmt = [r for r in recs if r.is_management]
    assert sum(m.pkts for m in mgmt) == accepted_pkts
    assert sum(m.bytes for m in mgmt) == accepted_bytes
    assert sum(m.flows for m in mgmt) == table.flows_started
    assert [r.seq for r in recs] == list(range(len(recs)))


@st.composite
def one_sided_fin_streams(draw):
    """Handshake, a FIN from one side only, and traffic that keeps going."""
    n = draw(st.integers(min_value=2, max_value=40))
    gaps = draw(st.lists(st.integers(1, 30 * SEC), min_size=n, max_size=n))
    sides = draw(st.lists(st.sampled_from("cs"), min_size=n, max_size=n))
    fin_at = draw(st.integers(min_value=0, max_value=n - 2))
    fin_side = draw(st.sampled_from("cs"))
    syn = pkt(0.0, flags={"S"})
    packets = [syn, back(syn, 0.05, flags={"S", "A"}), pkt(0.1, flags={"A"})]
    ts = 100_000
    for i, (gap, side) in enumerate(zip(gaps, sides)):
        ts += gap
        flags = {"A"} if i % 2 else {"P", "A"}
        if i == fin_at:
            side = fin_side
            flags = {"F", "A"}
        elif side == fin_side and i > fin_at:
            # the closing side may retransmit its FIN; still one-sided
            if i % 5 == 0:
                flags = {"F", "A"}
        p = pkt(ts / SEC, flags=flags)
        packets.append(p if side == "c" else back(syn, ts / SEC, flags=flags))
    return packets


@settings(max_examples=80, deadline=None)
@given(one_sided_fin_streams())
def test_one_sided_fin_yields_one_record_per_slice_window(packets):
    table = FlowTable(ExportConfig(interval_us=60 * SEC,
                                   idle_timeout_us=31 * SEC,
                                   emit_management=False))
    for p in packets:
        table.assign(p)
    records = table.flush()
    windows = sorted({p.ts_us // (60 * SEC) for p in packets})
    assert table.flows_started == 1
    assert [r.slice_index for r in records] == windows
    assert all(oriented(r).saddr == "10.0.0.1" for r in records)
    assert sum(r.pkts for r in records) == len(packets)


@pytest.mark.parametrize("iat_min, iat_max", [
    (None, None), (5, None), (None, 5), (5, 5), (3, 7), (100, None), (None, -100),
])
@pytest.mark.parametrize("gap", [-10, 0, 4, 5, 6, 200])
def test_observe_gap_sets_each_extreme_on_its_own(iat_min, iat_max, gap):
    stats = EndpointStats(iat_min_us=iat_min, iat_max_us=iat_max)
    observe_gap(stats, gap)
    assert (stats.iat_min_us, stats.iat_max_us) == (opt_min(iat_min, gap), opt_max(iat_max, gap))
    assert (stats.iat_sum_us, stats.iat_sumsq) == (gap, gap * gap)
