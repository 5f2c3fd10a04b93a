"""Ground-truth labelling of dataset rows.

A ground-truth CSV names attacks by five-tuple fragments and a time
window. It must have the Label column and at least one match column
(one with none would label every row); an absent or empty field
matches anything. Rows are labelled by the first matching entry in
file order, or with the benign label when nothing matches. Matching is
directional (entry source against flow source) unless bidirectional
matching is switched on.

Cost model: entries are indexed by the match fields they pin, so a row's
candidates are the entries whose pinned fields equal its own (or the
reversed row's, when bidirectional). A bucket of several entries sharing
those fields is sorted by start time under a max-end segment tree, so
of a bucket only the entries whose window overlaps the row's are found
and tested. The first candidate in file order whose window overlaps the
row's wins, as in an all-pairs scan; the cost grows with the candidates,
not with the ground truth. The index is built in the pass that reads the
entries, so a parsed `GroundTruth` carries it into every dataset it
labels.

One reader, `_match_cells`, reads the match cells of a ground-truth row
and of a dataset row alike. Cells in the form hera writes (a time as
`timefmt.WRITTEN_TIME`, a port as ASCII digits, an address with no ':'
and no surrounding whitespace) are read without a Python-level call per
cell; any other text goes to `text_to_us`/`text_to_int` or the protocol
and address memos, which decide its value or its error. The first cell
of a row that cannot be read ends in `path: line N, column 'NAME': bad
value 'X'` (or `missing cell`), N the file's line the row starts on.
"""

from __future__ import annotations

import ipaddress
import re
from itertools import chain
from math import inf
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .dataset import csv_lines, iter_csv
from .errors import HeraError, _where, excerpt
from .timefmt import MAX_DIGITS, WRITTEN_TIME, address_to_text, text_to_int, text_to_us
from .workspace import DEFAULT_BENIGN_LABEL

if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

# Recognized ground-truth headers, compared case-insensitively: the
# label's, then those of MATCH_COLUMNS in that order.
_GT_COLUMNS = ("label", "starttime", "lasttime", "proto", "srcaddr", "dstaddr",
               "sport", "dport")

MATCH_COLUMNS = ("stime", "ltime", "proto", "saddr", "daddr", "sport", "dport")
# The converter of each match cell; str never rejects its text.
_CELL_PARSERS = (text_to_us, text_to_us, str, str, str, text_to_int, text_to_int)

_WRITTEN_TIME = re.compile(WRITTEN_TIME).fullmatch


def _canonical_addr(text: str) -> str:
    """The canonical text of an IP address (`timefmt.address_to_text`);
    other text is kept as it is. `ipaddress` accepts IPv4 text only in
    its canonical form (it rejects leading zeros, whitespace and
    non-ASCII digits), so only text with a ':' can change."""
    if ":" not in text:
        return text
    try:
        return address_to_text(ipaddress.ip_address(text))
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
    line_number: int  # the line of the file its row starts on
    start_us: int | None = None
    last_us: int | None = None
    # The key fields, in the order of a row's key; None matches anything.
    proto: str | None = None
    src_addr: str | None = None
    sport: int | None = None
    dst_addr: str | None = None
    dport: int | None = None


class GroundTruth(list):
    """A ground truth's entries in file order, with their match index
    (`_index_entries`), built as the entries are taken: the list must not
    change after that."""

    def __init__(self, entries: Iterable[GroundTruthEntry]):
        super().__init__()
        self.match_index = _index_entries(self, entries)


def parse_ground_truth(path) -> GroundTruth:
    reader = iter_csv(path)
    try:
        header = next(reader)[0]
    except StopIteration:
        raise HeraError(f"{path}: empty ground-truth file") from None
    if header:  # a byte-order mark (Excel's "CSV UTF-8") is not part of a name
        header[0] = header[0].removeprefix("\ufeff")
    names = [name.strip().lower() for name in header]
    if "label" not in names:
        raise HeraError(f"{path}: no Label column in {excerpt(header)}")
    if not set(_GT_COLUMNS[1:]) & set(names):
        raise HeraError(f"{path}: no StartTime, LastTime, Proto, SrcAddr, DstAddr, Sport "
                        f"or Dport column in {excerpt(header)}")
    return GroundTruth(_entries(path, header, reader, _positions(names, _GT_COLUMNS)))


def _positions(names, columns) -> list[int | None]:
    """The first position of each of `columns` in `names`; None for a
    column that `names` lacks."""
    return [names.index(column) if column in names else None for column in columns]


def _entries(path, header, reader, positions) -> Iterator[GroundTruthEntry]:
    """The entry of each ground-truth row that `reader` yields after the
    header, in file order; `positions` are the columns of `_GT_COLUMNS`.
    A column the header lacks, or a cell past a row's end, reads as an
    empty cell, which matches anything."""
    pick = None if None in positions else itemgetter(*positions)
    width = max(i for i in positions if i is not None) + 1
    labels = _Memo(str.strip)

    def labelled():
        for row, _, line_number in reader:
            if pick is not None and len(row) >= width:
                cells = pick(row)
            else:
                cells = [row[i] if i is not None and i < len(row) else "" for i in positions]
            label = labels[cells[0]]
            if not label:
                if not "".join(row).strip():
                    continue
                raise HeraError(f"{path}: line {line_number}: empty label cell")
            yield cells, label, line_number

    names = [header[i] if i is not None else column
             for i, column in zip(positions[1:], MATCH_COLUMNS)]
    new = tuple.__new__
    for label, line_number, start_us, last_us, key in _match_cells(
            path, names, range(1, 8), labelled()):
        yield new(GroundTruthEntry, (label, line_number, start_us, last_us, *key))


def _match_cells(path, names, positions, rows, empty_is_bad=False):
    """Yield (item, line number, stime_us, ltime_us, (proto, saddr, sport,
    daddr, dport)) for each (cells, item, line number) of `rows`, reading
    the cells at `positions`, those of MATCH_COLUMNS as the header
    `names` them, by one rule: surrounding whitespace is not part of a
    value, and an empty cell reads as None (unless `empty_is_bad`, then an
    empty time or port is a bad value). The first cell in that order that
    is missing or does not convert raises, naming the line of the file at
    `path` that the row starts on."""
    pick = itemgetter(*positions)
    protos = _Memo(lambda text: text.strip().lower() or None)
    addrs = _Memo(lambda text: _canonical_addr(text.strip()) or None)

    def number(parse, text):
        text = text.strip()
        return parse(text) if text or empty_is_bad else None

    for row, item, line_number in rows:
        try:
            stime, ltime, proto, saddr, daddr, sport, dport = pick(row)
            view = (item, line_number,
                    int(stime.replace(".", "")) if _WRITTEN_TIME(stime)
                    else number(text_to_us, stime),
                    int(ltime.replace(".", "")) if _WRITTEN_TIME(ltime)
                    else number(text_to_us, ltime),
                    (protos[proto],
                     saddr if saddr and ":" not in saddr and saddr.strip() == saddr
                     else addrs[saddr],
                     int(sport) if sport.isdigit() and sport.isascii() and len(sport) <= MAX_DIGITS
                     else number(text_to_int, sport),
                     daddr if daddr and ":" not in daddr and daddr.strip() == daddr
                     else addrs[daddr],
                     int(dport) if dport.isdigit() and dport.isascii() and len(dport) <= MAX_DIGITS
                     else number(text_to_int, dport)))
        except (ValueError, IndexError):  # a row with a bad cell: name the first
            for name, position, parse in zip(names, positions, _CELL_PARSERS):
                where = f"{_where(path)}line {line_number}, column {name!r}"
                if position >= len(row):
                    raise HeraError(f"{where}: missing cell") from None
                try:
                    number(parse, row[position])
                except ValueError:
                    raise HeraError(f"{where}: bad value {excerpt(row[position])}") from None
        yield view


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


def match_width(header) -> int:
    """How many leading cells of a dataset row labelling reads: all of
    them up to its last match column, or every cell (-1) when the header
    lacks one, which `labelled_rows` then reports."""
    positions = _positions(header, MATCH_COLUMNS)
    return -1 if None in positions else max(positions) + 1


def match_entry(entry: GroundTruthEntry, stime_us: int, ltime_us: int) -> bool:
    """True when the entry's time window overlaps the flow's (absent
    bounds are open). The index has already matched the key fields."""
    return ((entry.start_us is None or ltime_us >= entry.start_us)
            and (entry.last_us is None or stime_us <= entry.last_us))


_FULL_SHAPE = 0b11111  # every key field pinned


class _TimeSorted(NamedTuple):
    """A bucket of several entries, sorted by start time, with a max-end
    segment tree over that order."""

    starts: tuple  # ascending; an absent start is -inf
    # Node i > 0 holds the largest end under it, its children are 2i and
    # 2i + 1; leaf width + k holds the k-th entry's (+inf when absent).
    max_ends: list
    by_start: tuple  # the positions, in the order of `starts`


def _time_sorted(entries, positions) -> _TimeSorted:
    windows = []
    for p in positions:
        start_us, last_us = entries[p][2:4]
        windows.append((-inf if start_us is None else start_us,
                        inf if last_us is None else last_us, p))
    windows.sort()
    starts, ends, by_start = zip(*windows)
    width = 1 << (len(ends) - 1).bit_length()
    tree = [-inf] * width + list(ends) + [-inf] * (width - len(ends))
    for node in range(width - 1, 0, -1):
        tree[node] = max(tree[2 * node], tree[2 * node + 1])
    return tuple.__new__(_TimeSorted, (starts, tree, by_start))


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


def _index_entries(into: list, entries) -> list[tuple[itemgetter, dict]]:
    """Append each of `entries` to `into` and index its position there,
    in one pass: by shape, the key fields (proto, src_addr, sport,
    dst_addr, dport) the entry pins, bit i standing for field i, then by
    the values of those fields as the shape's getter reads them from a
    key. A bucket of one entry is its position; a larger one is made
    `_TimeSorted` once every entry is in."""
    shapes: dict[int, tuple[itemgetter, dict]] = {}
    several = []  # (table, key) of each bucket of more than one entry
    append = into.append
    for position, entry in enumerate(entries, start=len(into)):
        append(entry)
        values = entry[4:]
        if None not in values:
            shape = _FULL_SHAPE
        else:
            proto, src_addr, sport, dst_addr, dport = values
            shape = ((proto is not None) | (src_addr is not None) << 1
                     | (sport is not None) << 2 | (dst_addr is not None) << 3
                     | (dport is not None) << 4)
        pair = shapes.get(shape)
        if pair is None:
            fields = [i for i in range(5) if shape >> i & 1]
            # tuple() gives a full key as it is; itemgetter(slice(0)) reads
            # the empty key () of the all-wildcard shape.
            key_of = (tuple if shape == _FULL_SHAPE else itemgetter(*fields) if fields
                      else itemgetter(slice(0)))
            pair = shapes[shape] = (key_of, {})
        key_of, table = pair
        key = key_of(values)
        bucket = table.get(key)
        if bucket is None:
            table[key] = position
        elif type(bucket) is int:
            table[key] = [bucket, position]
            several.append((table, key))
        else:
            bucket.append(position)
    for table, key in several:
        table[key] = _time_sorted(into, table[key])
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
    found = [[bucket] if type(bucket) is int else _overlapping(bucket, stime_us, ltime_us)
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
    positions = _positions(header, MATCH_COLUMNS)
    if None in positions:
        column = MATCH_COLUMNS[positions.index(None)]
        raise HeraError(f"{_where(path)}dataset is missing required column {column!r}")
    index = entries.match_index
    for item, _, stime_us, ltime_us, forward in _match_cells(
            path, MATCH_COLUMNS, positions, rows, empty_is_bad=True):
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
