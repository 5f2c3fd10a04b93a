"""Dataset generation from flow records.

`ra` mode emits one CSV row per record; `racluster` merges all records
sharing a canonical key into one row first. Rows follow the selected
feature columns in catalog order; a stats text file summarizes the same
record set the rows were built from. The feature catalog is imported
only by the functions that compute rows, so `export` and `label`, which
use this module for stats and CSV files, never load it; the flow engine
only by `cluster`, so `label` never loads it either.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict, deque
from typing import TYPE_CHECKING, NamedTuple

from .errors import UnreadableLine, not_utf8
from .workspace import DEFAULT_COUNT_WINDOW

if TYPE_CHECKING:
    from .flows import FlowRecord

MODES = ("ra", "racluster")


def cluster(records: list[FlowRecord]) -> list[FlowRecord]:
    """Merge records per canonical key, racluster style.

    Constituents are folded in stime order by `FlowRecord.merge`;
    categorical fields follow the constituent with the latest ltime
    (ties broken by stream position).
    """
    from .flows import FlowRecord
    groups: dict = defaultdict(list)
    for rec in records:
        groups[rec.key].append(rec)
    merged_records = []
    for key, group in groups.items():
        by_stime = sorted(group, key=lambda r: (r.stime_us, r.seq or 0))
        latest = max(group, key=lambda r: (r.ltime_us, r.seq or 0))
        merged = FlowRecord(
            key=key,
            initiator=latest.initiator,
            stime_us=by_stime[0].stime_us,
            ltime_us=latest.ltime_us,
            slice_index=latest.slice_index,
            is_management=latest.is_management,
            tcp_state=latest.tcp_state,
            idle_us=latest.idle_us,
            seq=latest.seq,
            trans=0,
        )
        prev_ltime_us = None
        for rec in by_stime:
            merged.merge(rec, prev_ltime_us)
            prev_ltime_us = rec.ltime_us
        merged_records.append(merged)
    merged_records.sort(key=FlowRecord.sort_key)
    return merged_records


def compute_connection_counts(records, window: int = DEFAULT_COUNT_WINDOW):
    """Windowed connection counts over the last `window` flows by ltime.

    For each non-management record, counts how many flows in the window
    (including the record itself) share its service together with its
    source address (Ssaddr) or destination address (Sdaddr). Returns a
    list of (ssaddr, sdaddr) aligned with `records`; management entries
    get (None, None) and do not occupy window slots.
    """
    from .features import service_of
    if window < 1:
        raise ValueError("count window must be at least 1")
    results = [(None, None)] * len(records)
    order = sorted(
        (i for i, rec in enumerate(records) if not rec.is_management),
        key=lambda i: (records[i].ltime_us, i),
    )
    recent = deque()
    by_src = Counter()
    by_dst = Counter()
    for i in order:
        rec = records[i]
        service = service_of(rec.key.proto, rec.sport, rec.dport)
        src_key = (service, rec.saddr)
        dst_key = (service, rec.daddr)
        recent.append((src_key, dst_key))
        by_src[src_key] += 1
        by_dst[dst_key] += 1
        if len(recent) > window:
            old_src, old_dst = recent.popleft()
            by_src[old_src] -= 1
            by_dst[old_dst] -= 1
        results[i] = (by_src[src_key], by_dst[dst_key])
    return results


class StatsReport(NamedTuple):
    """Totals over the record set a dataset was built from.

    Flow totals cover ordinary records; management records are counted
    on their own line and never inflate packet or byte totals."""

    flows: int
    packets: int
    bytes: int
    management_records: int
    per_proto: dict[str, list[int]]  # flows/pkts/bytes


def compute_stats(records) -> StatsReport:
    flows = packets = nbytes = management_records = 0
    per_proto = {}
    for rec in records:
        if rec.is_management:
            management_records += 1
            continue
        flows += 1
        packets += rec.pkts
        nbytes += rec.bytes
        row = per_proto.setdefault(rec.key.proto, [0, 0, 0])
        row[0] += 1
        row[1] += rec.pkts
        row[2] += rec.bytes
    return StatsReport(flows, packets, nbytes, management_records, per_proto)


def format_stats(stats: StatsReport) -> str:
    lines = [
        f"total_flows: {stats.flows}",
        f"total_packets: {stats.packets}",
        f"total_bytes: {stats.bytes}",
        f"management_records: {stats.management_records}",
    ]
    for proto in sorted(stats.per_proto):
        flows, packets, nbytes = stats.per_proto[proto]
        lines.append(f"{proto}_flows: {flows}")
        lines.append(f"{proto}_packets: {packets}")
        lines.append(f"{proto}_bytes: {nbytes}")
    return "\n".join(lines) + "\n"


def write_stats(path, stats: StatsReport) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        fp.write(format_stats(stats))


def build_dataset(
    records: list[FlowRecord],
    feature_names: list[str],
    mode: str = "ra",
    keep_management: bool = False,
    count_window: int = DEFAULT_COUNT_WINDOW,
) -> tuple[list[str], list[list[str]], StatsReport]:
    """Turn flow records into (header, rows, stats).

    Rows keep record-stream order in ra mode and (stime, key) order
    after clustering; rank densely numbers the emitted rows.
    """
    from .features import RowContext, compute_row, service_of
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    selected = (records if keep_management
                else [rec for rec in records if not rec.is_management])
    if mode == "racluster":
        selected = cluster(selected)
    if "Ssaddr" in feature_names or "Sdaddr" in feature_names:
        counts = compute_connection_counts(selected, count_window)
    else:
        counts = [(None, None)] * len(selected)
    rows = []
    for rank, rec in enumerate(selected):
        if rec.is_management:
            service = ""
        else:
            service = service_of(rec.key.proto, rec.sport, rec.dport)
        ctx = RowContext(
            rank=rank, service=service,
            ssaddr=counts[rank][0], sdaddr=counts[rank][1],
        )
        rows.append(compute_row(rec, feature_names, ctx))
    return list(feature_names), rows, compute_stats(selected)


def write_csv(path, header: list[str], rows) -> None:
    """RFC 4180 CSV, UTF-8, LF line endings, header row first."""
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def iter_csv(path):
    """Yield the rows of a UTF-8 CSV file, decoded as a stream. Bytes
    that are not UTF-8, or a field the csv module rejects (such as one
    over its size limit), end in an error naming the line."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fp:
            reader = csv.reader(fp)
            try:
                yield from reader
            except csv.Error as exc:
                raise UnreadableLine(path, reader.line_num, str(exc)) from None
    except UnicodeDecodeError:
        raise not_utf8(path) from None


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    rows = iter_csv(path)
    header = next(rows, None)
    if header is None:
        return [], []
    return header, list(rows)
