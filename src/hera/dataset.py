"""Dataset generation from flow records.

`ra` mode emits one CSV row per record; `racluster` merges all records
sharing a canonical key into one row first. Rows follow the selected
feature columns in catalog order; a stats text file summarizes the same
record set the rows were built from. Rows are built one at a time, as
they are taken, and CSV files are written one row at a time, so the
commands never hold a whole dataset. The feature catalog is imported
only by the functions that compute rows, so `export` and `label`, which
use this module for stats and CSV files, never load it; the flow engine
only by `cluster`, so `label` never loads it either.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict, deque
from contextlib import contextmanager
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple

from .errors import UnreadableLine, not_utf8
from .workspace import DEFAULT_COUNT_WINDOW

if TYPE_CHECKING:
    from collections.abc import Iterator

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


def dataset_rows(
    records: list[FlowRecord],
    feature_names: list[str],
    mode: str = "ra",
    keep_management: bool = False,
    count_window: int = DEFAULT_COUNT_WINDOW,
) -> tuple[list[str], Iterator[list[str]], StatsReport]:
    """Turn flow records into (header, rows, stats), where `rows` builds
    each row only when it is taken, so no row outlives its consumer.

    Rows keep record-stream order in ra mode and (stime, key) order
    after clustering; rank densely numbers the emitted rows.
    """
    from .features import row_kernel
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    selected = (records if keep_management
                else [rec for rec in records if not rec.is_management])
    if mode == "racluster":
        selected = cluster(selected)
    if "Ssaddr" in feature_names or "Sdaddr" in feature_names:
        counts = compute_connection_counts(selected, count_window)
    else:
        counts = repeat((None, None))
    rows = _rows(selected, counts, row_kernel(tuple(feature_names)))
    return list(feature_names), rows, compute_stats(selected)


def _rows(records, counts, kernel):
    """Each record's row, in order, with its rank, service and
    connection counts (ssaddr, sdaddr)."""
    from .features import RowContext, service_of
    for rank, (rec, (ssaddr, sdaddr)) in enumerate(zip(records, counts)):
        if rec.is_management:
            service = ""
        else:
            service = service_of(rec.key.proto, rec.sport, rec.dport)
        yield kernel(rec, RowContext(rank=rank, service=service, ssaddr=ssaddr, sdaddr=sdaddr))


def build_dataset(records, feature_names, **options):
    """`dataset_rows` with the rows in a list."""
    header, rows, stats = dataset_rows(records, feature_names, **options)
    return header, list(rows), stats


def row_writer(fp):
    """The function that writes one row to `fp` as one line, as
    `csv.writer(fp, lineterminator="\n")` does. A row that needs no
    quoting, which is every row whose joined line holds one comma between
    each pair of cells and no quote or line break, is written as its
    cells joined by commas; only an empty row and a row of one empty
    cell join to the empty line, and csv.writer quotes the latter. Any
    other row goes through csv.writer."""
    write, write_quoted = fp.write, csv.writer(fp, lineterminator="\n").writerow

    def write_row(row):
        line = ",".join(row)
        if (line and line.count(",") == len(row) - 1 and '"' not in line
                and "\r" not in line and "\n" not in line):
            write(line + "\n")
        else:
            write_quoted(row)

    return write_row


@contextmanager
def csv_rows(path, header: list[str]):
    """Open a CSV at `path` (RFC 4180, UTF-8, LF line endings) with its
    header written; yields the function that writes one row."""
    with open(path, "w", encoding="utf-8", newline="") as fp:
        write_row = row_writer(fp)
        write_row(header)
        yield write_row


def write_csv(path, header: list[str], rows) -> int:
    """Write the header and then each row as it comes; returns the
    number of rows."""
    count = 0
    with csv_rows(path, header) as write_row:
        for count, row in enumerate(rows, 1):
            write_row(row)
    return count


def iter_csv(path):
    """Yield the rows of a UTF-8 CSV file, decoded as a stream. Bytes
    that are not UTF-8, a NUL, or a field the csv module rejects (such as
    one over its size limit), end in an error naming the line."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fp:
            reader = csv.reader(_lines_without_nul(path, fp))
            try:
                yield from reader
            except csv.Error as exc:
                raise UnreadableLine(path, reader.line_num, str(exc)) from None
    except UnicodeDecodeError:
        raise not_utf8(path) from None


def _lines_without_nul(path, fp):
    """The lines of `fp`, or an error at the first that holds a NUL:
    csv.reader refuses one before Python 3.11 and passes it on after."""
    for line_number, line in enumerate(fp, 1):
        if "\0" in line:
            raise UnreadableLine(path, line_number, "line contains NUL")
        yield line


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    rows = iter_csv(path)
    header = next(rows, None)
    if header is None:
        return [], []
    return header, list(rows)
