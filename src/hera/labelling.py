"""Ground-truth labelling of dataset rows.

A ground-truth CSV names attacks by five-tuple fragments and a time
window; only the Label column is mandatory, every other field is
optional and an absent field matches anything. Rows are labelled by the
first matching entry in file order, or with the benign label when
nothing matches. Matching is directional (entry source against flow
source) unless bidirectional matching is switched on.

Entries are indexed by the match fields they pin, so a row is tested
only against the entries whose pinned fields equal its own; the cost of
labelling grows with those candidates, not with the ground truth.
"""

from __future__ import annotations

import ipaddress
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .dataset import iter_csv
from .errors import (
    EmptyLabelCell,
    MalformedDatasetCell,
    MalformedField,
    MalformedTimestamp,
    MissingLabelColumn,
    MissingMatchField,
)
from .timefmt import text_to_int, text_to_us
from .workspace import DEFAULT_BENIGN_LABEL

# Recognized ground-truth headers, compared case-insensitively, in the
# order `parse_ground_truth` reads their cells.
_GT_COLUMNS = ("label", "starttime", "lasttime", "proto", "srcaddr", "sport",
               "dstaddr", "dport")

MATCH_COLUMNS = ("stime", "ltime", "proto", "saddr", "daddr", "sport", "dport")


class _AddrCache(dict):
    """Canonical text of each distinct address, parsed once per cache.
    Text that is not an IP address is kept as it is."""

    def __missing__(self, text: str) -> str:
        try:
            value = str(ipaddress.ip_address(text))
        except ValueError:
            value = text
        self[text] = value
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


def parse_ground_truth(path) -> list[GroundTruthEntry]:
    reader = iter_csv(path)
    try:
        header = next(reader)
    except StopIteration:
        raise MissingLabelColumn(f"{path}: empty ground-truth file") from None
    names = [name.strip().lower() for name in header]
    if "label" not in names:
        raise MissingLabelColumn(f"{path}: no Label column in {header!r}")
    # The first column of each name; None for a name the header lacks.
    positions = [names.index(name) if name in names else None for name in _GT_COLUMNS]
    addrs = _AddrCache()
    entries = []
    for row_number, row in enumerate(reader, start=2):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        label, start, last, proto, src, sport, dst, dport = (
            row[i].strip() if i is not None and i < len(row) else "" for i in positions)
        if label == "":
            raise EmptyLabelCell(row_number)
        entries.append(GroundTruthEntry(
            label, row_number,
            _timestamp(start, row_number), _timestamp(last, row_number),
            proto.lower() or None,
            addrs[src] if src else None, _port(sport, "sport", row_number),
            addrs[dst] if dst else None, _port(dport, "dport", row_number),
        ))
    return entries


def _timestamp(text: str, row_number: int) -> int | None:
    if not text:
        return None
    try:
        return text_to_us(text)
    except ValueError:
        raise MalformedTimestamp(row_number, text) from None


def _port(text: str, column: str, row_number: int) -> int | None:
    if not text:
        return None
    try:
        return text_to_int(text)
    except ValueError:
        raise MalformedField(row_number, column, text) from None


@dataclass
class LabelSummary:
    total: int = 0
    benign_label: str = DEFAULT_BENIGN_LABEL
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def benign(self) -> int:
        return self.counts.get(self.benign_label, 0)

    @property
    def malicious(self) -> int:
        return self.total - self.benign


# Converters of the match cells that can reject their text.
_CELL_PARSERS = {"stime": text_to_us, "ltime": text_to_us, "sport": text_to_int,
                 "dport": text_to_int}


def _row_views(header, rows):
    """Yield (stime_us, ltime_us, (proto, saddr, sport, daddr, dport))
    for each row; rows[0] is line 2 of the CSV."""
    positions = []
    for col in MATCH_COLUMNS:
        try:
            positions.append(header.index(col))
        except ValueError:
            raise MissingMatchField(col) from None
    stime, ltime, proto, saddr, daddr, sport, dport = positions
    addrs = _AddrCache()
    for line_number, row in enumerate(rows, start=2):
        try:
            view = (text_to_us(row[stime]), text_to_us(row[ltime]),
                    (row[proto].lower(), addrs[row[saddr]], text_to_int(row[sport]),
                     addrs[row[daddr]], text_to_int(row[dport])))
        except (ValueError, IndexError):
            raise _bad_cell(row, line_number, positions) from None
        yield view


def _bad_cell(row, line_number, positions) -> MalformedDatasetCell:
    """The error for the first match cell of `row` that is missing or
    cannot be converted."""
    for column, position in zip(MATCH_COLUMNS, positions):
        if position >= len(row):
            return MalformedDatasetCell(line_number, column, "missing cell")
        try:
            _CELL_PARSERS.get(column, str)(row[position])
        except ValueError:
            return MalformedDatasetCell(line_number, column, f"bad value {row[position]!r}")
    raise AssertionError(f"line {line_number}: every match cell converts")


def match_entry(entry: GroundTruthEntry, stime_us: int, ltime_us: int) -> bool:
    """True when the entry's time window overlaps the flow's (absent
    bounds are open). The index has already matched the key fields."""
    return ((entry.start_us is None or ltime_us >= entry.start_us)
            and (entry.last_us is None or stime_us <= entry.last_us))


def _index_entries(entries) -> list[tuple[tuple[int, ...], dict]]:
    """Group entry positions by shape, the indices of the key fields
    (proto, src_addr, sport, dst_addr, dport) an entry pins, then by the
    values of those fields. Positions in each bucket ascend."""
    shapes: dict[tuple[int, ...], dict] = {}
    for position, entry in enumerate(entries):
        values = entry[4:]  # proto, src_addr, sport, dst_addr, dport
        shape = tuple(i for i, value in enumerate(values) if value is not None)
        key = tuple(values[i] for i in shape)
        shapes.setdefault(shape, {}).setdefault(key, []).append(position)
    return list(shapes.items())


def _candidates(index, forward, reverse) -> list[int]:
    """Ascending positions of the entries whose pinned fields equal the
    forward key's, or the reverse key's when one is given."""
    buckets = []
    for shape, table in index:
        key = tuple(forward[i] for i in shape)
        bucket = table.get(key)
        if bucket is not None:
            buckets.append(bucket)
        if reverse is not None:
            reverse_key = tuple(reverse[i] for i in shape)
            if reverse_key != key:
                bucket = table.get(reverse_key)
                if bucket is not None:
                    buckets.append(bucket)
    return buckets[0] if len(buckets) == 1 else sorted(itertools.chain(*buckets))


def label_rows(
    header: list[str],
    rows: list[list[str]],
    entries: list[GroundTruthEntry],
    benign_label: str = DEFAULT_BENIGN_LABEL,
    bidirectional: bool = False,
) -> tuple[list[str], LabelSummary]:
    """Return one label per row plus the summary.

    A row gets the label of the first entry in list order, among those
    the index offers for its key, whose time window `match_entry`
    accepts."""
    index = _index_entries(entries)
    summary = LabelSummary(benign_label=benign_label)
    counts = summary.counts
    labels = []
    for stime_us, ltime_us, forward in _row_views(header, rows):
        proto, saddr, sport, daddr, dport = forward
        reverse = (proto, daddr, dport, saddr, sport) if bidirectional else None
        label = benign_label
        for position in _candidates(index, forward, reverse):
            entry = entries[position]
            if match_entry(entry, stime_us, ltime_us):
                label = entry.label
                break
        labels.append(label)
        counts[label] = counts.get(label, 0) + 1
    summary.total = len(labels)
    return labels, summary


def label_dataset(header, rows, entries, **kwargs):
    """Append each row's label to the row itself; returns the header with
    a Label column appended, the same rows and the summary."""
    labels, summary = label_rows(header, rows, entries, **kwargs)
    for row, label in zip(rows, labels):
        row.append(label)
    return [*header, "Label"], rows, summary


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
