"""Acceptance suite: one test (or test family) per numbered criterion.

The terminal summary in conftest.py rolls these up into a pass/fail
line per criterion. Criterion 7 needs the full UNSW-NB15 day-2 download
and only runs when HERA_UNSW_DIR points at it.
"""

import collections
import csv as csv_mod
import os
import random
import time
from pathlib import Path

import pytest

import pcap_builder as pb
from flow_oracle import OraclePacket, oracle_flows
from hera.cli import main
from hera.dataset import build_dataset, cluster, read_csv, write_csv
from hera.features import ALWAYS_ON, CATALOG_ORDER, DEFAULT_FEATURES, select_feature_set
from hera.flows import ExportConfig, FlowTable
from hera import labelling
from hera.labelling import GroundTruth, GroundTruthEntry, label_dataset
from hera.pcap import DecodedPacket, open_capture
from helpers import label_rows, oriented
from test_cli import sample_capture, tree, write_gt
from test_dataset import brute_counts, mixed_records
from test_flows import FLAG_BITS, flag_value
from test_labelling import HDR, oracle_labels

SEC = 1_000_000

C, S = "10.0.0.1", "10.0.0.2"
C6, S6 = "2001:db8::1", "2001:db8::2"


def decode_all(path):
    packets = []
    with open_capture(path) as reader:
        while True:
            item = reader.next_packet()
            if item is None:
                break
            if isinstance(item, DecodedPacket):
                packets.append(item)
    return packets


def to_oracle(p: DecodedPacket) -> OraclePacket:
    """The oracle's packet, with hera's flag bits turned into letters."""
    flags = None if p.tcp_flags is None else frozenset(
        letter for letter, bit in FLAG_BITS.items() if p.tcp_flags & bit)
    return OraclePacket(
        ts_us=p.ts_us, src=p.src_addr, sport=p.src_port,
        dst=p.dst_addr, dport=p.dst_port, proto=p.proto,
        ip_bytes=p.ip_bytes, flags=flags,
    )


# -- criterion 1: crafted captures vs brute-force oracle ----------------------


CAPTURES = {}


def capture(fn):
    CAPTURES[fn.__name__] = fn
    return fn


def t4(ts, src, dst, sport, dport, flags, payload=b""):
    return (ts, pb.tcp4_frame(src, dst, sport, dport, flags, payload=payload))


def u4(ts, src, dst, sport, dport, payload=b"x" * 8):
    return (ts, pb.udp4_frame(src, dst, sport, dport, payload))


@capture
def handshake_only():
    return [
        t4(0, C, S, 1234, 80, pb.SYN),
        t4(50_000, S, C, 80, 1234, pb.SYN | pb.ACK),
        t4(100_000, C, S, 1234, 80, pb.ACK),
    ]


@capture
def one_sided_fin_with_continued_traffic():
    return [
        t4(0, C, S, 1234, 80, pb.SYN),
        t4(50_000, S, C, 80, 1234, pb.SYN | pb.ACK),
        t4(100_000, C, S, 1234, 80, pb.ACK),
        t4(200_000, C, S, 1234, 80, pb.PSH | pb.ACK, b"request"),
        t4(1_000_000, C, S, 1234, 80, pb.FIN | pb.ACK),
        t4(2_000_000, S, C, 80, 1234, pb.ACK),
        t4(3_000_000, S, C, 80, 1234, pb.PSH | pb.ACK, b"late data"),
        t4(4_000_000, S, C, 80, 1234, pb.PSH | pb.ACK, b"more"),
        t4(5_000_000, C, S, 1234, 80, pb.ACK),
    ]


@capture
def rst_and_reconnect():
    return [
        t4(0, C, S, 1234, 80, pb.SYN),
        t4(100_000, S, C, 80, 1234, pb.SYN | pb.ACK),
        t4(200_000, C, S, 1234, 80, pb.ACK),
        t4(300_000, S, C, 80, 1234, pb.RST),
        t4(5_000_000, C, S, 1234, 80, pb.SYN),
    ]


@capture
def udp_sliced_across_three_intervals():
    frames = []
    for t in range(0, 151, 30):
        frames.append(u4(t * SEC, C, S, 9000, 53, b"query"))
        frames.append(u4(t * SEC + 500_000, S, C, 53, 9000, b"answer!"))
    return frames


@capture
def icmp_echo_pairs():
    frames = []
    for base in (0, 1_000_000):
        frames.append((base, pb.icmp4_frame(C, S, 8, 0, b"ping")))
        frames.append((base + 80_000, pb.icmp4_frame(S, C, 0, 0, b"pong")))
    return frames


@capture
def interleaved_flows():
    frames = []
    ts = 0
    for round_no in range(4):
        for sport in (1111, 2222, 3333):
            ts += 100_000
            flags = pb.SYN if round_no == 0 else pb.ACK
            frames.append(t4(ts, C, S, sport, 80, flags, b"z" * (sport % 7)))
            ts += 30_000
            reply = pb.SYN | pb.ACK if round_no == 0 else pb.ACK
            frames.append(t4(ts, S, C, 80, sport, reply))
        ts += 50_000
        frames.append(u4(ts, C, S, 4444, 53))
    return frames


@capture
def out_of_order_within_slack():
    return [
        u4(0, C, S, 5000, 53),
        u4(1_000_000, S, C, 53, 5000),
        u4(600_000, C, S, 5000, 53),      # 0.4 s backwards: accepted
        u4(1_200_000, C, S, 5000, 53),
        u4(100_000, C, S, 5000, 53),      # 1.1 s backwards: skipped
        u4(2_000_000, S, C, 53, 5000),
    ]


@capture
def midstream_tcp():
    return [
        t4(0, C, S, 2345, 443, pb.PSH | pb.ACK, b"resumed"),
        t4(200_000, S, C, 443, 2345, pb.ACK),
        t4(400_000, S, C, 443, 2345, pb.PSH | pb.ACK, b"payload"),
        t4(600_000, C, S, 2345, 443, pb.ACK),
    ]


@capture
def fragmented_ipv4():
    whole = pb.ethernet(
        pb.ipv4(C, S, 17, pb.udp(5000, 53, b"a" * 8)), pb.ETHERTYPE_IPV4)
    first = pb.ethernet(
        pb.ipv4(C, S, 17, pb.udp(5000, 53, b"b" * 8), flags_frag=0x2000),
        pb.ETHERTYPE_IPV4)
    second = pb.ethernet(
        pb.ipv4(C, S, 17, b"c" * 16, flags_frag=2), pb.ETHERTYPE_IPV4)
    return [(0, whole), (100_000, first), (150_000, second)]


@capture
def mixed_v4_and_v6():
    v6_tcp = pb.ethernet(
        pb.ipv6(C6, S6, 6, pb.tcp(6000, 443, pb.SYN)), pb.ETHERTYPE_IPV6)
    v6_tcp_back = pb.ethernet(
        pb.ipv6(S6, C6, 6, pb.tcp(443, 6000, pb.SYN | pb.ACK)), pb.ETHERTYPE_IPV6)
    v6_udp = pb.ethernet(
        pb.ipv6(C6, S6, 17, pb.udp(7000, 53, b"q")), pb.ETHERTYPE_IPV6)
    return [
        t4(0, C, S, 1234, 80, pb.SYN),
        (100_000, v6_tcp),
        t4(200_000, S, C, 80, 1234, pb.SYN | pb.ACK),
        (300_000, v6_tcp_back),
        (400_000, v6_udp),
    ]


@capture
def full_fin_close_then_reconnect():
    return [
        t4(0, C, S, 1234, 80, pb.SYN),
        t4(100_000, S, C, 80, 1234, pb.SYN | pb.ACK),
        t4(200_000, C, S, 1234, 80, pb.ACK),
        t4(300_000, C, S, 1234, 80, pb.FIN | pb.ACK),
        t4(400_000, S, C, 80, 1234, pb.FIN | pb.ACK),
        t4(500_000, C, S, 1234, 80, pb.ACK),
        t4(2_000_000, C, S, 1234, 80, pb.SYN),
        t4(2_100_000, S, C, 80, 1234, pb.SYN | pb.ACK),
    ]


@capture
def idle_timeout_splits_udp():
    return [
        u4(0, C, S, 8000, 123),
        u4(10 * SEC, S, C, 123, 8000),
        u4(100 * SEC, C, S, 8000, 123),  # 90 s silence: splits at 60 s idle
        u4(101 * SEC, S, C, 123, 8000),
    ]


@capture
def vlan_tagged_traffic():
    ethertype, tagged = pb.vlan_tag(
        pb.ETHERTYPE_IPV4, pb.ipv4(C, S, 6, pb.tcp(3456, 80, pb.SYN)), vlan_id=12)
    plain = pb.tcp4_frame(S, C, 80, 3456, pb.SYN | pb.ACK)
    return [(0, pb.ethernet(tagged, ethertype)), (100_000, plain)]


def engine_records(tmp_path, frames, **cfg):
    path = tmp_path / "case.pcap"
    pb.write(path, [pb.record(ts, frame) for ts, frame in frames])
    config = ExportConfig(emit_management=False, **cfg)
    table = FlowTable(config)
    for packet in decode_all(path):
        table.assign(packet)
    return table.flush(), table


def engine_row(rec):
    k, (src, dst) = rec.key, oriented(rec)[:2]
    return ((k.addr_a, k.port_a, k.addr_b, k.port_b, k.proto), rec.slice_index,
            rec.stime_us, rec.ltime_us, src.pkts, dst.pkts, src.bytes, dst.bytes)


def oracle_row(flow):
    return (flow.key, flow.slice_index, flow.stime_us, flow.ltime_us,
            flow.spkts, flow.dpkts, flow.sbytes, flow.dbytes)


@pytest.mark.parametrize("name", sorted(CAPTURES))
def test_criterion_1(name, tmp_path):
    started = time.perf_counter()
    frames = CAPTURES[name]()
    path = tmp_path / f"{name}.pcap"
    pb.write(path, [pb.record(ts, frame) for ts, frame in frames])
    packets = decode_all(path)
    assert packets, "capture decoded to nothing"

    table = FlowTable(ExportConfig(emit_management=False))
    for packet in packets:
        table.assign(packet)
    records = table.flush()

    flows, accepted, skipped, total_bytes = oracle_flows(
        [to_oracle(p) for p in packets])
    assert len(records) == len(flows)
    assert sorted(engine_row(r) for r in records) == sorted(
        oracle_row(f) for f in flows)
    assert table.accepted_packets == accepted
    assert table.skipped_non_monotonic == skipped
    assert sum(r.bytes for r in records) == total_bytes
    assert time.perf_counter() - started < 5.0


# -- criterion 2: lifecycle bug-fix conformance --------------------------------


def test_criterion_2_one_sided_fin_yields_one_flow(tmp_path):
    records, _ = engine_records(tmp_path, one_sided_fin_with_continued_traffic())
    assert len(records) == 1


def test_criterion_2_rst_closes_the_flow(tmp_path):
    # traffic resumes on the same 5-tuple well inside the idle timeout,
    # so two records can only mean the RST ended the first episode
    frames = [
        t4(0, C, S, 1234, 80, pb.SYN),
        t4(100_000, S, C, 80, 1234, pb.SYN | pb.ACK),
        t4(200_000, C, S, 1234, 80, pb.ACK),
        t4(300_000, S, C, 80, 1234, pb.RST),
        t4(10 * SEC, C, S, 1234, 80, pb.SYN),
    ]
    records, _ = engine_records(tmp_path, frames)
    assert len(records) == 2


def test_criterion_2_delayed_response_never_swaps_source(tmp_path):
    # the server answers late and with more traffic than the client sent
    frames = [
        u4(0, C, S, 6000, 53, b"q"),
        u4(5 * SEC, S, C, 53, 6000, b"a" * 400),
        u4(5 * SEC + 100_000, S, C, 53, 6000, b"a" * 400),
        u4(5 * SEC + 200_000, S, C, 53, 6000, b"a" * 400),
    ]
    (record,), _ = engine_records(tmp_path, frames)
    assert oriented(record).saddr == C


# -- criterion 3: conservation and cluster invariants ---------------------------


def test_criterion_3_conservation_and_cluster():
    started = time.perf_counter()
    rng = random.Random(20260815)
    hosts = [f"10.8.{i}.{j}" for i in range(6) for j in range(1, 7)]
    table = FlowTable(ExportConfig(interval_us=15 * SEC))
    ts = 0
    sent = accepted_bytes = 0
    for _ in range(4000):
        ts += rng.randrange(0, 800_000)
        stamp = ts
        if rng.random() < 0.03:
            stamp = max(ts - 3 * SEC, 0)  # beyond slack: must be skipped
        proto = rng.choice(["tcp", "tcp", "udp", "icmp"])
        src, dst = rng.sample(hosts, 2)
        packet = DecodedPacket(
            ts_us=stamp,
            src_addr=src, dst_addr=dst,
            src_port=rng.choice([80, 443, 53, 8080, 40000]),
            dst_port=rng.choice([80, 443, 53, 8080, 40000]),
            proto=proto,
            ip_bytes=rng.randrange(40, 1500),
            payload_bytes=rng.randrange(0, 1000),
            ttl=64, tos=0, ip_version=4,
            tcp_flags=flag_value(rng.sample("SAFRP", rng.randrange(0, 3)))
            if proto == "tcp" else None,
        )
        skipped = table.skipped_non_monotonic
        table.assign(packet)
        if table.skipped_non_monotonic == skipped:
            accepted_bytes += packet.ip_bytes
        sent += 1

    records = table.flush()
    data = [r for r in records if not r.is_management]
    assert sent >= 1000
    assert table.accepted_packets + table.skipped_non_monotonic == sent
    assert table.skipped_non_monotonic > 0
    assert len({r.key for r in data}) >= 100

    assert sum(r.pkts for r in data) == table.accepted_packets
    assert sum(r.bytes for r in data) == accepted_bytes

    merged = cluster(data)
    assert sum(r.pkts for r in merged) == table.accepted_packets
    assert sum(r.bytes for r in merged) == accepted_bytes
    assert cluster(merged) == merged
    assert time.perf_counter() - started < 10.0


# -- criterion 4: labelling oracle equivalence at scale -------------------------


def big_labelling_case(rng):
    addrs = [f"172.16.0.{i}" for i in range(1, 13)]
    rows = []
    for _ in range(10_000):
        start = rng.randrange(0, 50_000)
        rows.append([
            f"{start}.000000",
            f"{start + rng.randrange(0, 120)}.000000",
            rng.choice(["tcp", "udp", "icmp"]),
            rng.choice(addrs),
            str(rng.randrange(1024, 1032)),
            rng.choice(addrs),
            rng.choice(["80", "443", "53", "8080"]),
        ])
    entries = []
    for n in range(1_000):
        # windows narrow enough that most rows stay benign and test every
        # candidate entry, while matched rows hit at varied depths
        start = rng.randrange(-1000, 55_000)
        fields = {
            "start_us": start * SEC,
            "last_us": (start + rng.randrange(0, 400)) * SEC,
        }
        if rng.random() < 0.7:
            fields["proto"] = rng.choice(["tcp", "udp", "icmp"])
        if rng.random() < 0.7:
            fields["src_addr"] = rng.choice(addrs)
        if rng.random() < 0.5:
            fields["dport"] = rng.choice([80, 443, 53, 9999])
        entries.append(GroundTruthEntry(
            label=f"Attack{n % 9}", row_number=n + 2, **fields))
    return rows, entries


def test_criterion_4_labelling_oracle_equivalence(tmp_path, monkeypatch):
    rows, entries = big_labelling_case(random.Random(404))
    time_tests = []
    window_reads = []
    match_entry = labelling.match_entry
    time_sorted = labelling._time_sorted

    def counted(entry, stime_us, ltime_us):
        time_tests.append(entry)
        return match_entry(entry, stime_us, ltime_us)

    class CountedReads(list):
        def __getitem__(self, node):
            window_reads.append(node)
            return super().__getitem__(node)

    def counted_time_sorted(*args):
        bucket = time_sorted(*args)
        return bucket._replace(max_ends=CountedReads(bucket.max_ends))

    monkeypatch.setattr(labelling, "match_entry", counted)
    monkeypatch.setattr(labelling, "_time_sorted", counted_time_sorted)

    expected = oracle_labels(rows, entries)
    labels, summary = label_rows(HDR, rows, entries)
    assert labels == expected
    # The index leaves fewer time tests than rows (6,687 for these 10,000);
    # an all-pairs scan makes about 8.2 million, and one over the entries
    # whose key fields match, about 862,000.
    assert len(time_tests) <= len(rows)
    # Nor does it compare a bucket's windows itself: its walk reads the
    # buckets' max-end trees 447,268 times for these rows, where reading
    # each window of every bucket it looks in reads them 1,053,099 times.
    assert len(window_reads) <= 460_000
    assert summary.total == len(rows)
    assert sum(summary.counts.values()) == summary.total

    header, labelled, summary2 = label_dataset(HDR, rows, GroundTruth(entries))
    out = tmp_path / "labelled.csv"
    write_csv(out, header, labelled)
    re_header, re_rows = read_csv(out)
    col = re_header.index("Label")
    recount = collections.Counter(row[col] for row in re_rows)
    assert dict(recount) == summary2.counts == summary.counts


# -- criterion 5: determinism ----------------------------------------------------


def test_criterion_5_cmd_run_is_deterministic(tmp_path):
    capture_path = sample_capture(tmp_path / "a.pcap")
    gt = write_gt(tmp_path / "gt.csv")
    outputs = []
    for run_dir in (tmp_path / "run1", tmp_path / "run2"):
        assert main([
            "run", "--pcap", str(capture_path), "--gt", str(gt),
            "--flows-dir", str(run_dir / "flows"),
            "--csv-dir", str(run_dir / "csv"),
        ]) == 0
        names = tree(run_dir)
        assert names == [
            "csv/a.csv", "csv/a.labelled.csv", "csv/a.labels.txt",
            "csv/a.stats.txt", "flows/a.hera", "flows/a.stats.txt",
        ]
        outputs.append({name: (run_dir / name).read_bytes() for name in names})
    assert outputs[0] == outputs[1]


# -- criterion 6: feature contract ------------------------------------------------


def test_criterion_6_default_preset_is_the_22_catalog_head():
    names = select_feature_set("default")
    assert names == list(DEFAULT_FEATURES)
    assert len(names) == 22
    assert names == list(CATALOG_ORDER[:22])


@pytest.mark.parametrize("selection", [
    "default", "all", "unsw_nb15", "bot_iot", "cic_ids2017",
    ["dur"], ["jit", "FlowID"], ["Ssaddr"],
])
def test_criterion_6_always_on_columns_in_every_selection(selection):
    names = select_feature_set(selection)
    assert set(ALWAYS_ON) <= set(names)


def test_criterion_6_flowid_grammar(tmp_path):
    frames = (mixed_v4_and_v6() +
              [u4(SEC, C, S, 5000, 53), (2 * SEC, pb.icmp4_frame(C, S, 8, 0))])
    records, _ = engine_records(tmp_path, frames)
    header, rows, _ = build_dataset(
        records, ["FlowID", "saddr", "daddr", "sport", "dport", "proto"])
    assert rows
    for flow_id_cell, saddr, daddr, sport, dport, proto in rows:
        assert flow_id_cell == f"{daddr}-{saddr}-{dport}-{sport}-{proto}"
        head, tail = flow_id_cell.rsplit("-", 3)[0], flow_id_cell.rsplit("-", 3)[1:]
        assert len(tail) == 3
        assert tail[0].isdigit() and tail[1].isdigit()
        assert tail[2].isalnum()


@pytest.mark.parametrize("window", [1, 10, 100])
def test_criterion_6_connection_counts_match_brute_force(window):
    from hera.dataset import compute_connection_counts

    records = mixed_records(n_packets=600, seed=window)
    assert compute_connection_counts(records, window) == brute_counts(records, window)


# -- criterion 7: UNSW-NB15 day-2 reproduction (optional, external data) ----------


UNSW_ENV = "HERA_UNSW_DIR"

TABLE_LABEL_COUNTS = {
    "Benign": 726_153,
    "Exploits": 16_157,
    "Fuzzers": 12_060,
    "Generic": 11_468,
    "Reconnaissance": 7_366,
    "DoS": 2_294,
    "Shellcode": 953,
    "Analysis": 309,
    "Backdoor": 232,
    "Worms": 104,
}
TOTAL_FLOWS = 777_096


@pytest.mark.skipif(
    UNSW_ENV not in os.environ,
    reason=f"set {UNSW_ENV} to a directory holding the UNSW-NB15 day-2 "
           "PCAPs and ground-truth CSV (tens of GB; hours-scale run)",
)
def test_criterion_7_unsw_nb15_day2(tmp_path):
    root = Path(os.environ[UNSW_ENV])
    pcaps = sorted(str(p) for p in root.rglob("*.pcap"))
    ground_truths = sorted(root.rglob("*.csv"))
    assert pcaps, f"no .pcap files under {root}"
    assert ground_truths, f"no ground-truth .csv under {root}"

    argv = ["run", "--gt", str(ground_truths[0]),
            "--features", "unsw-nb15",
            "--flows-dir", str(tmp_path / "flows"),
            "--csv-dir", str(tmp_path / "csv"),
            "--jobs", str(os.cpu_count() or 1)]
    for path in pcaps:
        argv += ["--pcap", path]
    assert main(argv) == 0

    counts = collections.Counter()
    for labelled in sorted((tmp_path / "csv").glob("*.labelled.csv")):
        with open(labelled, newline="", encoding="utf-8") as fp:
            reader = csv_mod.reader(fp)
            header = next(reader)
            col = header.index("Label")
            for row in reader:
                counts[row[col]] += 1

    total = sum(counts.values())
    assert total == pytest.approx(TOTAL_FLOWS, rel=0.02)
    malicious = total - counts["Benign"]
    share = 100.0 * malicious / total
    assert abs(share - 6.56) <= 0.5
    for label, expected in TABLE_LABEL_COUNTS.items():
        assert counts[label] == pytest.approx(expected, rel=0.02), label
