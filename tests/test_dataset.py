import csv
import functools
import io
import operator
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hera.dataset import (
    MODES,
    build_dataset,
    cluster,
    compute_connection_counts,
    compute_stats,
    format_stats,
    read_csv,
    row_writer,
    write_csv,
    write_stats,
)
from hera.features import DEFAULT_FEATURES, service_of
from hera.flows import (
    ExportConfig,
    FlowKey,
    FlowRecord,
    FlowTable,
)
from hera.pcap import DecodedPacket
from helpers import collect_flows, replace
from test_flows import back, data_records, pkt, run

SEC = 1_000_000


def mixed_records(n_packets=400, seed=11, interval_s=30, management=True):
    """Reproducible random traffic aggregated into flow records."""
    rng = random.Random(seed)
    hosts = [f"10.3.{i}.{j}" for i in range(2) for j in range(1, 5)]
    table = FlowTable(
        ExportConfig(interval_us=interval_s * SEC, emit_management=management)
    )
    ts = 0
    for _ in range(n_packets):
        ts += rng.randrange(0, 2 * SEC)
        proto = rng.choice(["tcp", "tcp", "udp", "icmp"])
        src, dst = rng.sample(hosts, 2)
        table.assign(
            pkt(
                ts / SEC,
                src=src,
                dst=dst,
                sport=rng.choice([80, 443, 53, 40000]),
                dport=rng.choice([80, 443, 53, 40000]),
                proto=proto,
                flags=rng.sample("SAFRPU", rng.randrange(0, 3))
                if proto == "tcp"
                else None,
                ip_bytes=rng.randrange(40, 1500),
                payload=rng.randrange(0, 500),
            )
        )
    return table.flush()


# -- ra mode ----------------------------------------------------------------


def test_modes():
    assert MODES == ("ra", "racluster")


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        build_dataset([], ["rank"], mode="rasort")


def test_ra_emits_one_row_per_record_in_stream_order():
    records = mixed_records()
    plain = data_records(records)
    header, rows, _ = build_dataset(records, ["rank", "stime", "proto"])
    assert header == ["rank", "stime", "proto"]
    assert len(rows) == len(plain)
    assert [r[0] for r in rows] == [str(i) for i in range(len(plain))]
    assert [r[2] for r in rows] == [rec.key.proto for rec in plain]


def test_management_rows_dropped_by_default_kept_on_request():
    records = mixed_records()
    n_mgmt = sum(1 for r in records if r.is_management)
    assert n_mgmt > 0
    _, rows, _ = build_dataset(records, ["rank", "mgmt"])
    assert len(rows) == len(records) - n_mgmt
    assert all(row[1] == "0" for row in rows)
    _, rows, _ = build_dataset(records, ["rank", "mgmt"], keep_management=True)
    assert len(rows) == len(records)
    assert sum(1 for row in rows if row[1] == "1") == n_mgmt
    # rank stays dense over whatever was emitted
    assert [row[0] for row in rows] == [str(i) for i in range(len(records))]


def test_tcpopt_column_is_empty_for_udp_only_traffic():
    packets = [pkt(i, proto="udp", sport=5000 + i, dport=53) for i in range(4)]
    records = run(packets, emit_management=False)
    header, rows, _ = build_dataset(records, list(DEFAULT_FEATURES))
    col = header.index("tcpopt")
    assert rows and all(row[col] == "" for row in rows)


# -- racluster --------------------------------------------------------------


def test_racluster_merges_slices_into_one_row():
    # one UDP conversation spanning three 60 s windows
    packets = [pkt(t, proto="udp", sport=9000, dport=53) for t in range(0, 151, 10)]
    records = run(packets, emit_management=False)
    assert len(records) == 3
    header, rows, _ = build_dataset(
        records, ["pkts", "bytes", "trans", "dur", "stime", "ltime"], mode="racluster"
    )
    assert len(rows) == 1
    assert rows[0] == ["16", "640", "3", "150.000000", "0.000000", "150.000000"]


def test_racluster_with_management_sums_flows_without_boundary_gaps():
    # A UDP flow cut into three 10 s slices and a one-packet flow, over
    # three management windows that abut (each starts where the last ends).
    first = pkt(0.0, proto="udp", sport=5000, dport=53, ip_bytes=60)
    packets = [
        first,
        back(first, 4.0, ip_bytes=100),
        pkt(12.0, proto="udp", sport=5000, dport=53, ip_bytes=60),
        pkt(14.0, proto="udp", src="10.0.0.3", sport=7000, dport=123, ip_bytes=76),
        back(first, 21.0, ip_bytes=100),
        pkt(27.5, proto="udp", sport=5000, dport=53, ip_bytes=60),
    ]
    records = run(packets, interval_us=10 * SEC)
    assert sum(r.is_management for r in records) == 3
    columns = ["stime", "ltime", "mgmt", "pkts", "bytes", "flows", "trans",
               "minipt", "maxipt", "totipt", "sminipt", "dminipt"]
    _, rows, stats = build_dataset(records, columns, mode="racluster",
                                   keep_management=True)
    assert rows == [
        # Management: windows begun 1 + 1 + 0 flows; a window boundary is
        # no inter-arrival gap, so minipt/maxipt stay empty rather than 0.
        ["0.000000", "27.500000", "1", "6", "456", "2", "3",
         "", "", "0.000000", "", ""],
        # The sliced flow gets its boundary gaps back: 4, 8, 9, 6.5 s
        # overall, 12 and 15.5 s from the source, 17 s from the destination.
        ["0.000000", "27.500000", "0", "5", "380", "", "3",
         "4.000000", "9.000000", "27.500000", "12.000000", "17.000000"],
        ["14.000000", "14.000000", "0", "1", "76", "", "1",
         "", "", "", "", ""],
    ]
    assert (stats.flows, stats.packets, stats.management_records) == (2, 6, 1)


def test_cluster_conserves_totals_per_key():
    records = data_records(mixed_records())
    merged = cluster(records)
    assert len(merged) == len({r.key for r in records})
    by_key = {}
    for rec in records:
        by_key.setdefault(rec.key, []).append(rec)
    for m in merged:
        parts = by_key[m.key]
        assert m.pkts == sum(p.pkts for p in parts)
        assert m.bytes == sum(p.bytes for p in parts)
        assert m.a.appbytes == sum(p.a.appbytes for p in parts)
        assert m.stime_us == min(p.stime_us for p in parts)
        assert m.ltime_us == max(p.ltime_us for p in parts)
        assert m.flgs == functools.reduce(operator.or_, (p.flgs for p in parts))
        assert m.trans == len(parts)
        assert m.runtime_us == sum(p.runtime_us for p in parts)
        assert m.frag_count == sum(p.frag_count for p in parts)


def test_cluster_output_is_sorted_and_ranked_like_ra():
    records = data_records(mixed_records())
    merged = cluster(records)
    assert merged == sorted(merged, key=FlowRecord.sort_key)
    _, rows, _ = build_dataset(records, ["rank"], mode="racluster")
    assert [r[0] for r in rows] == [str(i) for i in range(len(merged))]


def test_cluster_is_idempotent():
    records = data_records(mixed_records())
    once = cluster(records)
    assert cluster(once) == once


def test_cluster_of_distinct_keys_changes_nothing():
    packets = [
        pkt(float(i), sport=2000 + i, flags={"S"}) for i in range(5)
    ]
    records = run(packets, emit_management=False)
    assert len({r.key for r in records}) == len(records) == 5
    assert cluster(records) == records


def test_cluster_of_empty_list_is_empty():
    assert cluster([]) == []
    header, rows, stats = build_dataset([], ["rank", "pkts"])
    assert (header, rows) == (["rank", "pkts"], [])
    assert stats.flows == 0 and stats.packets == 0


def _scrub(rec):
    """Strip fields that legitimately differ between a clustered sliced
    stream and a single unsliced aggregation of the same packets."""
    return replace(rec, slice_index=0, seq=0, runtime_us=0, trans=0)


def monotone_stream(seed=3, n=600):
    rng = random.Random(seed)
    pairs = [
        ("10.2.0.1", "10.2.0.2", 1111, 80, "tcp"),
        ("10.2.0.3", "10.2.0.4", 2222, 53, "udp"),
        ("10.2.0.1", "10.2.0.4", 3333, 443, "tcp"),
        ("10.2.0.2", "10.2.0.3", 4444, 5000, "udp"),
    ]
    ts = 0
    packets = []
    for _ in range(n):
        ts += rng.randrange(1, 8 * SEC)
        src, dst, sport, dport, proto = rng.choice(pairs)
        if rng.random() < 0.5:
            src, dst, sport, dport = dst, src, dport, sport
        flags = None
        if proto == "tcp":
            flags = rng.choice([{"A"}, {"A"}, {"P", "A"}, {"S"}, {"R"}])
        packets.append(
            pkt(
                ts / SEC,
                src=src,
                dst=dst,
                sport=sport,
                dport=dport,
                proto=proto,
                flags=flags,
                ip_bytes=rng.randrange(40, 1200),
                payload=rng.randrange(0, 800),
            )
        )
    return packets


def test_cluster_matches_unsliced_aggregation():
    """Clustering sliced records reconstructs what a single huge-interval
    aggregation of the same packets would have reported, inter-arrival
    statistics included."""
    packets = monotone_stream()
    common = dict(idle_timeout_us=30 * SEC, emit_management=False)
    sliced = collect_flows(packets, ExportConfig(interval_us=5 * SEC, **common))
    whole = collect_flows(packets, ExportConfig(interval_us=10**12, **common))
    assert len(sliced) > len(whole)  # slicing must actually occur
    merged = cluster(sliced)
    reference = cluster(whole)
    assert len(merged) == len(reference)
    for got, want in zip(merged, reference):
        assert _scrub(got) == _scrub(want)


# -- connection counts --------------------------------------------------------


def brute_counts(records, window):
    order = sorted(
        (i for i, r in enumerate(records) if not r.is_management),
        key=lambda i: (records[i].ltime_us, i),
    )
    svc = {
        i: service_of(records[i].key.proto, records[i].sport, records[i].dport)
        for i in order
    }
    out = [(None, None)] * len(records)
    for pos, i in enumerate(order):
        win = order[max(0, pos - window + 1): pos + 1]
        rec = records[i]
        same_src = sum(
            1 for j in win
            if svc[j] == svc[i] and records[j].saddr == rec.saddr
        )
        same_dst = sum(
            1 for j in win
            if svc[j] == svc[i] and records[j].daddr == rec.daddr
        )
        out[i] = (same_src, same_dst)
    return out


@pytest.mark.parametrize("window", [1, 10, 100])
def test_connection_counts_match_brute_force(window):
    records = mixed_records()
    assert compute_connection_counts(records, window) == brute_counts(records, window)


def test_connection_counts_single_flow_matches_itself():
    records = run([pkt(0.0, flags={"S"})], emit_management=False)
    assert compute_connection_counts(records) == [(1, 1)]


def test_connection_counts_saturate_at_window():
    base = pkt(0.0)
    records = []
    for i in range(150):
        rec = run([pkt(float(i))], emit_management=False)[0]
        records.append(rec)
    counts = compute_connection_counts(records, window=100)
    assert counts[0] == (1, 1)
    assert counts[99] == (100, 100)
    assert counts[149] == (100, 100)
    assert max(c[0] for c in counts) == 100
    del base


def test_connection_counters_hold_at_most_the_window():
    """A (service, address) pair leaves its counter when its count drops
    to 0: with a new source for each record, the source counter holds
    the window's pairs, and one more only until the oldest leaves. The
    counters' sizes are read off the function's frame as it runs."""
    sizes = []

    def trace(frame, event, arg):
        if frame.f_code is not compute_connection_counts.__code__:
            return None
        if "by_dst" in frame.f_locals:
            sizes.append((len(frame.f_locals["by_src"]), len(frame.f_locals["by_dst"])))
        return trace

    records = [run([pkt(float(i), src=f"10.9.{i // 250}.{i % 250 + 1}")],
                   emit_management=False)[0] for i in range(120)]
    window = 10
    sys.settrace(trace)
    try:
        counts = compute_connection_counts(records, window)
    finally:
        sys.settrace(None)
    assert counts == brute_counts(records, window)
    assert max(src for src, _ in sizes) == window + 1
    assert sizes[-1] == (window, 1)


def test_connection_counts_skip_management_rows():
    records = mixed_records()
    plain = data_records(records)
    with_mgmt = compute_connection_counts(records, 10)
    without = compute_connection_counts(plain, 10)
    assert [c for c in with_mgmt if c != (None, None)] == without
    for rec, counts in zip(records, with_mgmt):
        assert rec.is_management == (counts == (None, None))


def test_connection_counts_reject_zero_window():
    with pytest.raises(ValueError):
        compute_connection_counts([], window=0)


# -- stats ----------------------------------------------------------------


def two_flows_and_management():
    tcp = run(
        [pkt(0.0, flags={"S"}, ip_bytes=60), back(pkt(0.0), 0.1, flags={"S", "A"}, ip_bytes=60)],
        emit_management=False,
    )[0]
    udp = run(
        [pkt(1.0, proto="udp", sport=5353, dport=53, ip_bytes=80)],
        emit_management=False,
    )[0]
    from hera.flows import make_management_record

    mgmt = make_management_record(0, 60 * SEC, packets=3, byte_count=200, flows=2)
    return [tcp, udp, mgmt]


def test_stats_totals_exclude_management():
    stats = compute_stats(two_flows_and_management())
    assert stats.flows == 2
    assert stats.packets == 3
    assert stats.bytes == 200
    assert stats.management_records == 1
    assert stats.per_proto == {"tcp": [1, 2, 120], "udp": [1, 1, 80]}


def test_stats_text_layout():
    text = format_stats(compute_stats(two_flows_and_management()))
    assert text == (
        "total_flows: 2\n"
        "total_packets: 3\n"
        "total_bytes: 200\n"
        "management_records: 1\n"
        "tcp_flows: 1\n"
        "tcp_packets: 2\n"
        "tcp_bytes: 120\n"
        "udp_flows: 1\n"
        "udp_packets: 1\n"
        "udp_bytes: 80\n"
    )


def test_write_stats_file(tmp_path):
    stats = compute_stats(two_flows_and_management())
    out = tmp_path / "x.stats.txt"
    write_stats(out, stats)
    assert out.read_text(encoding="utf-8") == format_stats(stats)


def test_build_dataset_stats_cover_emitted_rows():
    records = mixed_records()
    _, rows, stats = build_dataset(records, ["rank"])
    assert stats.flows == len(rows)
    assert stats.management_records == 0
    _, rows, stats = build_dataset(records, ["rank"], keep_management=True)
    assert stats.flows + stats.management_records == len(rows)
    _, rows, stats = build_dataset(records, ["rank"], mode="racluster")
    assert stats.flows == len(rows)
    assert stats.packets == sum(r.pkts for r in data_records(records))


# -- csv ------------------------------------------------------------------


def test_csv_header_only_for_empty_dataset(tmp_path):
    out = tmp_path / "d.csv"
    write_csv(out, ["rank", "stime"], [])
    assert out.read_bytes() == b"rank,stime\n"


def test_csv_quoting_and_round_trip(tmp_path):
    out = tmp_path / "d.csv"
    rows = [["a,b", 'say "hi"', "plain"], ["x", "", "0.500000"]]
    write_csv(out, ["one", "two", "three"], rows)
    text = out.read_text(encoding="utf-8")
    assert '"a,b"' in text
    assert '"say ""hi"""' in text
    assert "\r" not in text
    header, got = read_csv(out)
    assert header == ["one", "two", "three"]
    assert got == rows


# Cells built from the characters csv.writer treats specially, a space,
# and non-ASCII text. No cell holds a NUL: every reader refuses a line
# with one, so no row carries it.
cells = st.lists(st.sampled_from([",", '"', "\r", "\n", " ", "", "a", "0.5", "é", "日本"]),
                 max_size=4).map("".join)


def written(write_rows, rows):
    """The UTF-8 bytes write_rows(fp, rows) writes, or its csv.Error."""
    fp = io.StringIO(newline="")
    try:
        write_rows(fp, rows)
    except csv.Error as exc:
        return repr(exc)
    return fp.getvalue().encode("utf-8")


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.lists(cells, max_size=6), max_size=4))
@example([[]])
@example([[""]])
@example([["", ""]])
@example([[" "], ["a", ""], ["", "a"]])
def test_row_writer_writes_the_bytes_csv_writer_writes(rows):
    def ours(fp, rows):
        write_row = row_writer(fp)
        for row in rows:
            write_row(row)

    def theirs(fp, rows):
        csv.writer(fp, lineterminator="\n").writerows(rows)

    assert written(ours, rows) == written(theirs, rows)


def test_read_csv_of_empty_file(tmp_path):
    out = tmp_path / "empty.csv"
    out.write_bytes(b"")
    assert read_csv(out) == ([], [])


def test_dataset_cells_use_six_decimal_times(tmp_path):
    records = run([pkt(1.5, proto="udp")], emit_management=False)
    header, rows, _ = build_dataset(records, ["stime", "ltime"])
    assert rows == [["1.500000", "1.500000"]]
    out = tmp_path / "t.csv"
    write_csv(out, header, rows)
    assert out.read_text(encoding="utf-8") == "stime,ltime\n1.500000,1.500000\n"
