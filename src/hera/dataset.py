"""Dataset generation from flow records.

`ra` mode emits one CSV row per record; `racluster` emits one row per
canonical key: it merges the records of a key that has several into one
new record, and passes the record of a key seen once through, without a
copy: merging a record alone gives a record equal to it. Rows follow the
selected feature columns in catalog order; a stats text file summarizes
the same record set the rows were built from. Rows are built one at a
time, as they are taken, and CSV files are written one row at a time,
so the commands never hold a whole dataset. The feature catalog is
imported only by the functions that compute rows, so `export` and
`label`, which use this module for stats and CSV files, never load it;
the flow engine only by `cluster`, so `label` never loads it either.
"""

from __future__ import annotations

import csv
import io
from collections import deque
from contextlib import contextmanager
from itertools import chain, repeat
from typing import TYPE_CHECKING, NamedTuple

from .errors import HeraError, not_utf8
from .workspace import DEFAULT_COUNT_WINDOW

if TYPE_CHECKING:
    from collections.abc import Iterator

    from .flows import FlowRecord

MODES = ("ra", "racluster")


def cluster(records: list[FlowRecord]) -> list[FlowRecord]:
    """Merge records per canonical key, racluster style, in sort_key order.

    A key with several records gets a new record: its constituents are
    folded in stime order by `FlowRecord.merge`, and categorical fields
    follow the constituent with the latest ltime (ties broken by stream
    position). A key seen once is its own merged record, as merging it
    alone would give a record equal to it, so the list may hold the
    caller's own record objects; neither the caller nor a later stage may
    change them.
    """
    from .flows import FlowRecord
    # Each key's record while it has one, then a list of its records, in
    # stream order: one lookup per record, and no list for a key seen once.
    groups: dict = {}
    for rec in records:
        group = groups.setdefault(rec.key, rec)
        if group is not rec:
            if type(group) is list:
                group.append(rec)
            else:
                groups[rec.key] = [group, rec]
    merged_records = [_merged(key, group) if type(group) is list else group
                      for key, group in groups.items()]
    merged_records.sort(key=FlowRecord.sort_key)
    return merged_records


def _merged(key, group: list[FlowRecord]) -> FlowRecord:
    """A new record of `key` with the records of `group` merged into it."""
    from .flows import FlowRecord
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
    return merged


def compute_connection_counts(records, window: int = DEFAULT_COUNT_WINDOW):
    """Windowed connection counts over the last `window` flows by ltime.

    For each non-management record, counts how many flows in the window
    (including the record itself) share its service together with its
    source address (Ssaddr) or destination address (Sdaddr). Returns a
    list of (ssaddr, sdaddr) aligned with `records`; management entries
    get (None, None) and do not occupy window slots. A (service, address)
    pair leaves its counter when its count drops to 0, so each counter
    holds at most `window` pairs.
    """
    from .features import service_of
    if window < 1:
        raise ValueError("count window must be at least 1")
    results = [(None, None)] * len(records)
    order = sorted([(rec.ltime_us, i) for i, rec in enumerate(records)
                    if not rec.is_management])
    recent = deque()
    by_src = {}
    by_dst = {}
    for _, i in order:
        rec = records[i]
        k = rec.key
        service = service_of(k.proto, k.port_a, k.port_b)  # the lower port either way
        sa, da = (k.addr_a, k.addr_b) if rec.initiator == "a" else (k.addr_b, k.addr_a)
        src_key, dst_key = (service, sa), (service, da)
        recent.append((src_key, dst_key))
        by_src[src_key] = by_src.get(src_key, 0) + 1
        by_dst[dst_key] = by_dst.get(dst_key, 0) + 1
        if len(recent) > window:
            old_src, old_dst = recent.popleft()
            left = by_src[old_src] - 1
            if left:
                by_src[old_src] = left
            else:
                del by_src[old_src]
            left = by_dst[old_dst] - 1
            if left:
                by_dst[old_dst] = left
            else:
                del by_dst[old_dst]
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
    management_records = 0
    per_proto = {}
    for rec in records:
        if rec.is_management:
            management_records += 1
            continue
        row = per_proto.setdefault(rec.key.proto, [0, 0, 0])
        row[0] += 1
        row[1] += rec.pkts
        row[2] += rec.bytes
    flows, packets, nbytes = map(sum, zip([0, 0, 0], *per_proto.values()))
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
        k = rec.key
        service = "" if rec.is_management else service_of(k.proto, k.port_a, k.port_b)
        yield kernel(rec, RowContext(rank=rank, service=service, ssaddr=ssaddr, sdaddr=sdaddr))


def build_dataset(records, feature_names, **options):
    """`dataset_rows` with the rows in a list."""
    header, rows, stats = dataset_rows(records, feature_names, **options)
    return header, list(rows), stats


def csv_lines():
    """The function that gives a row's canonical line: the row as one CSV
    line, without its line ending, as `csv.writer(fp,
    lineterminator="\n")` writes it. A row that needs no quoting, which
    is every row whose joined line holds one comma between each pair of
    cells and no quote or line break, is its cells joined by commas; only
    an empty row and a row of one empty cell join to the empty line, and
    csv.writer quotes the latter. Any other row goes through the
    function's own csv.writer, whose record buffer (grown in steps of
    32,768 characters) and one-row text buffer serve each such row."""
    buffer = io.StringIO()
    write_quoted = csv.writer(buffer, lineterminator="\n").writerow

    def csv_line(row) -> str:
        line = ",".join(row)
        if (line and line.count(",") == len(row) - 1 and '"' not in line
                and "\r" not in line and "\n" not in line):
            return line
        buffer.seek(0)
        buffer.truncate()
        write_quoted(row)
        return buffer.getvalue()[:-1]

    return csv_line


def row_writer(fp):
    """The function that writes one row to `fp` as its canonical line
    (`csv_lines`) and a line feed, and returns that line."""
    write, csv_line = fp.write, csv_lines()

    def write_row(row):
        line = csv_line(row)
        write(line + "\n")
        return line

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


def iter_csv(path, width_of=lambda header: -1):
    """Yield (cells, line, number) for each row of a UTF-8 CSV file,
    decoded as a stream: `line` is the row's canonical line
    (`csv_lines`) and `number` the file's line the row starts on.
    `width_of` is called with the header's cells and gives how many
    leading cells the reader needs of each later row, -1 (the default)
    for all of them.

    Lines are read one by one while each, once its line ending (LF, CRLF
    or CR; a file read with newline="" ends a line at each) is taken off,
    is not empty, holds no quote or NUL and is no longer than the csv
    module's field size limit. Such a line is its own canonical line and
    is split at its commas only that many times, so its last cell holds
    the rest of the line. From the first other line on, csv.reader reads
    the rest of the file, reading on across a quoted line break where
    one is, and makes each row as long as it reads it. Bytes that are not
    UTF-8, a NUL, or a field the csv module rejects (such as one over its
    size limit), end in an error naming the line."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fp:
            lines = enumerate(fp, 1)
            limit = csv.field_size_limit()
            width = -1
            for number, line in lines:
                text = line.rstrip("\r\n")
                if not text or '"' in text or "\0" in text or len(text) > limit:
                    yield from _read_records(path, number, chain([(number, line)], lines))
                    return
                cells = text.split(",", width)
                yield cells, text, number
                if number == 1:  # the header
                    width = width_of(cells)
    except UnicodeDecodeError:
        raise not_utf8(path) from None


def _read_records(path, number, lines):
    """(cells, line, number) of each record csv.reader reads from
    `lines`, (line number, text) pairs from line `number` on, the line
    being the row's canonical line and the number that of the line the
    record starts on."""
    reader = csv.reader(_lines_without_nul(path, lines))
    csv_line = csv_lines()
    start = number
    try:
        for cells in reader:
            yield cells, csv_line(cells), start
            start = number + reader.line_num
    except csv.Error as exc:
        raise HeraError(f"{path}: line {number + reader.line_num - 1}: {exc}") from None


def _lines_without_nul(path, lines):
    """The text of each (line number, text) pair, or an error at the
    first that holds a NUL: csv.reader refuses one before Python 3.11
    and passes it on after."""
    for number, line in lines:
        if "\0" in line:
            raise HeraError(f"{path}: line {number}: line contains NUL")
        yield line


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    rows = [cells for cells, _, _ in iter_csv(path)]
    return (rows[0], rows[1:]) if rows else ([], [])
