"""Ground-truth labelling of dataset rows.

A ground-truth CSV names attacks by five-tuple fragments and a time
window; only the Label column is mandatory, every other field is
optional and an absent field matches anything. Rows are labelled by the
first matching entry in file order, or with the benign label when
nothing matches. Matching is directional (entry source against flow
source) unless bidirectional matching is switched on.

Cost model: entries are indexed by the match fields they pin, so a row's
candidates are the entries whose pinned fields equal its own (or the
reversed row's, when bidirectional). A bucket of several entries sharing
those fields is sorted by start time under a max-end segment tree, so
of a bucket only the entries whose window overlaps the row's are found
and tested. The first candidate in file order whose window overlaps the
row's wins, as in an all-pairs scan; the cost grows with the candidates,
not with the ground truth. A parsed `GroundTruth` builds its index once,
however many datasets it labels.

Cells in the form hera writes (a time as `timefmt.WRITTEN_TIME`, a port
as ASCII digits) are read without a call per cell; any other text goes
to `text_to_us`/`text_to_int`, which decide its value or its error.
"""

from __future__ import annotations

import ipaddress
import re
from functools import cached_property
from itertools import chain
from math import inf
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .dataset import csv_lines, iter_csv
from .errors import (
    EmptyLabelCell,
    MalformedDatasetCell,
    MalformedField,
    MalformedTimestamp,
    MissingLabelColumn,
    MissingMatchField,
    excerpt,
)
from .timefmt import WRITTEN_TIME, text_to_int, text_to_us
from .workspace import DEFAULT_BENIGN_LABEL

if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

# Recognized ground-truth headers, compared case-insensitively, in the
# order `parse_ground_truth` reads their cells.
_GT_COLUMNS = ("label", "starttime", "lasttime", "proto", "srcaddr", "sport",
               "dstaddr", "dport")

MATCH_COLUMNS = ("stime", "ltime", "proto", "saddr", "daddr", "sport", "dport")


_WRITTEN_TIME = re.compile(WRITTEN_TIME).fullmatch


def _canonical_addr(text: str) -> str:
    """The canonical text of an IP address; other text is kept as it is.
    `ipaddress` accepts IPv4 text only in its canonical form (it rejects
    leading zeros, whitespace and non-ASCII digits), so only text with a
    ':' can change."""
    if ":" not in text:
        return text
    try:
        return str(ipaddress.ip_address(text))
    except ValueError:
        return text


class _Memo(dict):
    """`convert(text)` of each distinct text, computed once."""

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, text: str):
        value = self[text] = self.convert(text)
        return value


class GroundTruthEntry(NamedTuple):
    label: str
    row_number: int
    start_us: int | None = None
    last_us: int | None = None
    # The key fields, in the order of a row's key; None matches anything.
    proto: str | None = None
    src_addr: str | None = None
    sport: int | None = None
    dst_addr: str | None = None
    dport: int | None = None


class GroundTruth(list):
    """A ground truth's entries in file order, with their match index,
    built on first use and kept: the list must not change after that."""

    @cached_property
    def match_index(self) -> list[tuple[itemgetter, dict]]:
        return _index_entries(self)


def parse_ground_truth(path) -> GroundTruth:
    reader = iter_csv(path)
    try:
        header = next(reader)[0]
    except StopIteration:
        raise MissingLabelColumn(f"{path}: empty ground-truth file") from None
    if header:  # a byte-order mark (Excel's "CSV UTF-8") is not part of a name
        header[0] = header[0].removeprefix("\ufeff")
    names = [name.strip().lower() for name in header]
    if "label" not in names:
        raise MissingLabelColumn(f"{path}: no Label column in {excerpt(header)}")
    # The first column of each name; None for a name the header lacks.
    positions = [names.index(name) if name in names else None for name in _GT_COLUMNS]
    pick = None if None in positions else itemgetter(*positions)
    width = max(i for i in positions if i is not None) + 1
    labels = _Memo(str.strip)
    protos = _Memo(lambda text: text.strip().lower() or None)
    addrs = _Memo(lambda text: _canonical_addr(text.strip()) or None)
    entries = GroundTruth()
    for row_number, (row, _, _) in enumerate(reader, start=2):
        if pick is not None and len(row) >= width:
            cells = pick(row)
        else:
            cells = [row[i] if i is not None and i < len(row) else "" for i in positions]
        label, start, last, proto, src, sport, dst, dport = cells
        label = labels[label]
        if not label:
            if not "".join(row).strip():
                continue
            raise EmptyLabelCell(row_number, path)
        try:
            entry = GroundTruthEntry(
                label, row_number,
                int(start.replace(".", "")) if _WRITTEN_TIME(start)
                else _timestamp(start, row_number, path),
                int(last.replace(".", "")) if _WRITTEN_TIME(last)
                else _timestamp(last, row_number, path),
                protos[proto], addrs[src],
                int(sport) if sport.isdigit() and sport.isascii()
                else _port(sport, "sport", row_number, path),
                addrs[dst],
                int(dport) if dport.isdigit() and dport.isascii()
                else _port(dport, "dport", row_number, path))
        except ValueError:  # int() past its digit limit: the parsers decide
            entry = GroundTruthEntry(
                label, row_number, _timestamp(start, row_number, path),
                _timestamp(last, row_number, path), protos[proto], addrs[src],
                _port(sport, "sport", row_number, path), addrs[dst],
                _port(dport, "dport", row_number, path))
        entries.append(entry)
    return entries


def _timestamp(text: str, row_number: int, path) -> int | None:
    text = text.strip()
    if not text:
        return None
    try:
        return text_to_us(text)
    except ValueError:
        raise MalformedTimestamp(row_number, text, path) from None


def _port(text: str, column: str, row_number: int, path) -> int | None:
    text = text.strip()
    if not text:
        return None
    try:
        return text_to_int(text)
    except ValueError:
        raise MalformedField(row_number, column, text, path) from None


class LabelSummary(NamedTuple):
    total: int
    benign_label: str
    counts: dict[str, int]  # rows per label

    @property
    def benign(self) -> int:
        return self.counts.get(self.benign_label, 0)

    @property
    def malicious(self) -> int:
        return self.total - self.benign


# Converters of the match cells that can reject their text.
_CELL_PARSERS = {"stime": text_to_us, "ltime": text_to_us, "sport": text_to_int,
                 "dport": text_to_int}


def match_width(header) -> int:
    """How many leading cells of a dataset row labelling reads: all of
    them up to its last match column, or every cell (-1) when the header
    lacks one, which `_row_views` then reports."""
    if not set(MATCH_COLUMNS) <= set(header):
        return -1
    return max(header.index(col) for col in MATCH_COLUMNS) + 1


def _row_views(header, rows, path=None):
    """Yield (item, (stime_us, ltime_us, (proto, saddr, sport, daddr,
    dport))) for each (cells, item, line number) of `rows`, the number
    being the line of the CSV at `path` that the row starts on. Only the
    cells up to the last match column are read."""
    positions = []
    for col in MATCH_COLUMNS:
        try:
            positions.append(header.index(col))
        except ValueError:
            raise MissingMatchField(col, path) from None
    pick = itemgetter(*positions)
    addrs = _Memo(_canonical_addr)
    for row, item, line_number in rows:
        try:
            stime, ltime, proto, saddr, daddr, sport, dport = pick(row)
            view = (int(stime.replace(".", "")) if _WRITTEN_TIME(stime) else text_to_us(stime),
                    int(ltime.replace(".", "")) if _WRITTEN_TIME(ltime) else text_to_us(ltime),
                    (proto.lower(), addrs[saddr],
                     int(sport) if sport.isdigit() and sport.isascii() else text_to_int(sport),
                     addrs[daddr],
                     int(dport) if dport.isdigit() and dport.isascii() else text_to_int(dport)))
        except (ValueError, IndexError):
            view = _general_view(row, line_number, positions, addrs, path)
        yield item, view


def _general_view(row, line_number, positions, addrs, path):
    """A row's view converted cell by cell, for a row the written-form
    path could not read; the first match cell that is missing or cannot
    be converted raises."""
    cells = []
    for column, position in zip(MATCH_COLUMNS, positions):
        if position >= len(row):
            raise MalformedDatasetCell(line_number, column, "missing cell", path)
        try:
            cells.append(_CELL_PARSERS.get(column, str)(row[position]))
        except ValueError:
            raise MalformedDatasetCell(line_number, column,
                                       f"bad value {excerpt(row[position])}", path) from None
    stime, ltime, proto, saddr, daddr, sport, dport = cells
    return stime, ltime, (proto.lower(), addrs[saddr], sport, addrs[daddr], dport)


def match_entry(entry: GroundTruthEntry, stime_us: int, ltime_us: int) -> bool:
    """True when the entry's time window overlaps the flow's (absent
    bounds are open). The index has already matched the key fields."""
    return ((entry.start_us is None or ltime_us >= entry.start_us)
            and (entry.last_us is None or stime_us <= entry.last_us))


_FULL_SHAPE = (0, 1, 2, 3, 4)


class _TimeSorted(NamedTuple):
    """A bucket of several entries, sorted by start time, with a max-end
    segment tree over that order."""

    starts: tuple  # ascending; an absent start is -inf
    # Node i > 0 holds the largest end under it, its children are 2i and
    # 2i + 1; leaf width + k holds the k-th entry's (+inf when absent).
    max_ends: list
    by_start: tuple  # the positions, in the order of `starts`


def _time_sorted(entries, positions) -> _TimeSorted:
    windows = sorted(
        (-inf if entries[p].start_us is None else entries[p].start_us,
         inf if entries[p].last_us is None else entries[p].last_us, p)
        for p in positions)
    starts, ends, by_start = zip(*windows)
    width = 1 << (len(ends) - 1).bit_length()
    tree = [-inf] * width + list(ends) + [-inf] * (width - len(ends))
    for node in range(width - 1, 0, -1):
        tree[node] = max(tree[2 * node], tree[2 * node + 1])
    return _TimeSorted(starts, tree, by_start)


def _overlapping(bucket: _TimeSorted, stime_us: int, ltime_us: int) -> list[int]:
    """Ascending positions of the bucket's entries whose window overlaps
    [stime_us, ltime_us]. A subtree is entered only when its first entry
    starts by `ltime_us` and its largest end reaches `stime_us`, so the
    cost grows with the entries found, not with the bucket."""
    tree, starts = bucket.max_ends, bucket.starts
    found = []
    nodes = [(1, 0, len(tree) // 2)]  # (node, its first leaf's entry, its leaves)
    while nodes:
        node, first, leaves = nodes.pop()
        if tree[node] >= stime_us and starts[first] <= ltime_us:
            if leaves == 1:
                found.append(bucket.by_start[first])
            else:
                leaves >>= 1
                nodes += ((2 * node, first, leaves), (2 * node + 1, first + leaves, leaves))
    found.sort()
    return found


def _index_entries(entries) -> list[tuple[itemgetter, dict]]:
    """Group entry positions by shape, the indices of the key fields
    (proto, src_addr, sport, dst_addr, dport) an entry pins, then by the
    values of those fields as the shape's getter reads them from a key.
    A bucket of one entry is a list of its position; a larger one is
    `_TimeSorted`."""
    shapes: dict[tuple[int, ...], tuple[itemgetter, dict]] = {}
    for position, entry in enumerate(entries):
        values = entry[4:]  # proto, src_addr, sport, dst_addr, dport
        shape = (_FULL_SHAPE if None not in values
                 else tuple(i for i, value in enumerate(values) if value is not None))
        if shape not in shapes:
            # itemgetter(slice(0)) reads the empty key () of the all-wildcard shape.
            shapes[shape] = (itemgetter(*shape) if shape else itemgetter(slice(0)), {})
        key_of, table = shapes[shape]
        table.setdefault(key_of(values), []).append(position)
    for _, table in shapes.values():
        for key, bucket in table.items():
            if len(bucket) > 1:
                table[key] = _time_sorted(entries, bucket)
    return list(shapes.values())


def _candidates(index, forward, reverse, stime_us, ltime_us) -> list[int]:
    """Ascending positions of the entries whose pinned fields equal the
    forward key's, or the reverse key's when one is given, and whose
    bucket places them in reach of [stime_us, ltime_us]."""
    buckets = []
    for key_of, table in index:
        key = key_of(forward)
        bucket = table.get(key)
        if bucket is not None:
            buckets.append(bucket)
        if reverse is not None:
            reverse_key = key_of(reverse)
            if reverse_key != key:
                bucket = table.get(reverse_key)
                if bucket is not None:
                    buckets.append(bucket)
    found = [bucket if type(bucket) is list else _overlapping(bucket, stime_us, ltime_us)
             for bucket in buckets]
    return found[0] if len(found) == 1 else sorted(chain.from_iterable(found))


def labelled_rows(
    header: list[str],
    rows: Iterable[tuple[list[str], object, int]],
    entries: GroundTruth,
    counts: dict[str, int],
    benign_label: str = DEFAULT_BENIGN_LABEL,
    bidirectional: bool = False,
    path=None,
) -> Iterator[tuple[object, str]]:
    """Yield (item, label) for each (cells, item, line number) of `rows`,
    as it is taken, and count the label in `counts` (rows per label).
    `path`, if given, is the file the rows come from, and the number the
    line of that file a row starts on, for the error a row or the header
    raises.

    A row gets the label of the first entry in list order, among those
    the index offers for its key and times, whose time window
    `match_entry` accepts."""
    index = entries.match_index
    for item, (stime_us, ltime_us, forward) in _row_views(header, rows, path):
        proto, saddr, sport, daddr, dport = forward
        reverse = (proto, daddr, dport, saddr, sport) if bidirectional else None
        label = benign_label
        for position in _candidates(index, forward, reverse, stime_us, ltime_us):
            entry = entries[position]
            if match_entry(entry, stime_us, ltime_us):
                label = entry.label
                break
        counts[label] = counts.get(label, 0) + 1
        yield item, label


def label_dataset(header, rows, entries, benign_label=DEFAULT_BENIGN_LABEL,
                  bidirectional=False):
    """Append each row's label to the row itself; returns the header with
    a Label column appended, the same rows and the summary."""
    counts = {}
    numbered = ((row, row, number) for number, row in enumerate(rows, start=2))
    for row, label in labelled_rows(header, numbered, entries, counts, benign_label,
                                    bidirectional):
        row.append(label)
    return [*header, "Label"], rows, LabelSummary(sum(counts.values()), benign_label, counts)


def write_labelled(path, header, rows, entries, benign_label=DEFAULT_BENIGN_LABEL,
                   bidirectional=False, source=None) -> LabelSummary:
    """Write the labelled CSV of `rows`, (cells, line, line number), to
    `path`: the header with a Label column, then each row's line with its
    label cell, as the row comes; returns the summary. `source`, if
    given, is the file the rows come from, for the error a row or the
    header raises. A row of two or more cells, as every labelled row is, keeps
    its cells' quoting when one more is appended, so its labelled line
    is its line and the label's cell; the canonical line of ["", label]
    is that cell with its comma, quoted once per distinct label."""
    counts = {}
    csv_line = csv_lines()
    label_cells = _Memo(lambda label: csv_line(["", label]) + "\n")
    with open(path, "w", encoding="utf-8", newline="") as fp:
        write = fp.write
        write(csv_line([*header, "Label"]) + "\n")
        for line, label in labelled_rows(header, rows, entries, counts, benign_label,
                                         bidirectional, source):
            write(line + label_cells[label])
    return LabelSummary(sum(counts.values()), benign_label, counts)


def format_label_summary(summary: LabelSummary) -> str:
    lines = [
        f"total_flows: {summary.total}",
        f"benign_flows: {summary.benign}",
        f"malicious_flows: {summary.malicious}",
        "",
    ]
    lines.append(f"{summary.benign_label}: {summary.benign}")
    others = [
        (label, count) for label, count in summary.counts.items()
        if label != summary.benign_label
    ]
    others.sort(key=lambda item: (-item[1], item[0]))
    for label, count in others:
        lines.append(f"{label}: {count}")
    return "\n".join(lines) + "\n"


def write_label_summary(path, summary: LabelSummary) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        fp.write(format_label_summary(summary))
