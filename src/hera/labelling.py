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

from .dataset import iter_csv
from .errors import (
    EmptyLabelCell,
    MalformedDatasetCell,
    MalformedField,
    MalformedTimestamp,
    MissingLabelColumn,
    MissingMatchField,
)
from .timefmt import text_to_us

DEFAULT_BENIGN_LABEL = "Benign"

# Recognized ground-truth headers, compared case-insensitively.
_GT_COLUMNS = {
    "starttime": "start",
    "lasttime": "last",
    "proto": "proto",
    "srcaddr": "src_addr",
    "sport": "sport",
    "dstaddr": "dst_addr",
    "dport": "dport",
    "label": "label",
}

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


@dataclass(frozen=True)
class GroundTruthEntry:
    label: str
    row_number: int
    start_us: int | None = None
    last_us: int | None = None
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
    mapping = {}
    for idx, name in enumerate(header):
        key = _GT_COLUMNS.get(name.strip().lower())
        if key is not None and key not in mapping:
            mapping[key] = idx
    if "label" not in mapping:
        raise MissingLabelColumn(f"{path}: no Label column in {header!r}")
    addrs = _AddrCache()
    entries = []
    for row_number, row in enumerate(reader, start=2):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        entries.append(_parse_entry(row, row_number, mapping, addrs))
    return entries


def _cell(row, mapping, key) -> str:
    idx = mapping.get(key)
    if idx is None or idx >= len(row):
        return ""
    return row[idx].strip()


def _parse_entry(row, row_number, mapping, addrs) -> GroundTruthEntry:
    label = _cell(row, mapping, "label")
    if label == "":
        raise EmptyLabelCell(row_number)
    values = {"label": label, "row_number": row_number}
    for key, attr in (("start", "start_us"), ("last", "last_us")):
        text = _cell(row, mapping, key)
        if text:
            try:
                values[attr] = text_to_us(text)
            except ValueError:
                raise MalformedTimestamp(row_number, text) from None
    for key, attr in (("sport", "sport"), ("dport", "dport")):
        text = _cell(row, mapping, key)
        if text:
            try:
                values[attr] = int(text)
            except ValueError:
                raise MalformedField(row_number, key, text) from None
    proto = _cell(row, mapping, "proto")
    if proto:
        values["proto"] = proto.lower()
    for key, attr in (("src_addr", "src_addr"), ("dst_addr", "dst_addr")):
        text = _cell(row, mapping, key)
        if text:
            values[attr] = addrs[text]
    return GroundTruthEntry(**values)


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


@dataclass(frozen=True)
class _RowView:
    stime_us: int
    ltime_us: int
    proto: str
    saddr: str
    sport: int
    daddr: str
    dport: int


# Converters of the match cells that can reject their text.
_CELL_PARSERS = {"stime": text_to_us, "ltime": text_to_us, "sport": int, "dport": int}


def _row_views(header, rows) -> list[_RowView]:
    """Parsed match cells of each row; rows[0] is line 2 of the CSV."""
    index = {}
    for col in MATCH_COLUMNS:
        try:
            index[col] = header.index(col)
        except ValueError:
            raise MissingMatchField(col) from None
    addrs = _AddrCache()
    views = []
    for line_number, row in enumerate(rows, start=2):
        try:
            views.append(_RowView(
                stime_us=text_to_us(row[index["stime"]]),
                ltime_us=text_to_us(row[index["ltime"]]),
                proto=row[index["proto"]].lower(),
                saddr=addrs[row[index["saddr"]]],
                sport=int(row[index["sport"]]),
                daddr=addrs[row[index["daddr"]]],
                dport=int(row[index["dport"]]),
            ))
        except (ValueError, IndexError):
            raise _bad_cell(row, line_number, index) from None
    return views


def _bad_cell(row, line_number, index) -> MalformedDatasetCell:
    """The error for the first match cell of `row` that is missing or
    cannot be converted."""
    for column in MATCH_COLUMNS:
        position = index[column]
        if position >= len(row):
            return MalformedDatasetCell(line_number, column, "missing cell")
        try:
            _CELL_PARSERS.get(column, str)(row[position])
        except ValueError:
            return MalformedDatasetCell(line_number, column, f"bad value {row[position]!r}")
    raise AssertionError(f"line {line_number}: every match cell converts")


def match_entry(view: _RowView, entry: GroundTruthEntry, bidirectional: bool) -> bool:
    """True when every field present on the entry matches the flow and
    the time windows overlap (absent bounds are open)."""
    if entry.start_us is not None and view.ltime_us < entry.start_us:
        return False
    if entry.last_us is not None and view.stime_us > entry.last_us:
        return False
    if entry.proto is not None and view.proto != entry.proto:
        return False
    forward = (
        (entry.src_addr is None or view.saddr == entry.src_addr)
        and (entry.sport is None or view.sport == entry.sport)
        and (entry.dst_addr is None or view.daddr == entry.dst_addr)
        and (entry.dport is None or view.dport == entry.dport)
    )
    if forward:
        return True
    if not bidirectional:
        return False
    return (
        (entry.src_addr is None or view.daddr == entry.src_addr)
        and (entry.sport is None or view.dport == entry.sport)
        and (entry.dst_addr is None or view.saddr == entry.dst_addr)
        and (entry.dport is None or view.sport == entry.dport)
    )


def _index_entries(entries) -> list[tuple[tuple[int, ...], dict]]:
    """Group entry positions by shape, the indices of the key fields
    (proto, src_addr, sport, dst_addr, dport) an entry pins, then by the
    values of those fields. Positions in each bucket ascend."""
    shapes: dict[tuple[int, ...], dict] = {}
    for position, entry in enumerate(entries):
        values = (entry.proto, entry.src_addr, entry.sport, entry.dst_addr, entry.dport)
        shape = tuple(i for i, value in enumerate(values) if value is not None)
        key = tuple(values[i] for i in shape)
        shapes.setdefault(shape, {}).setdefault(key, []).append(position)
    return list(shapes.items())


def _candidates(index, forward, reverse) -> list[list[int]]:
    """The buckets whose key equals the projection of the forward key,
    or of the reverse key when one is given, onto their shape."""
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
    return buckets


def label_rows(
    header: list[str],
    rows: list[list[str]],
    entries: list[GroundTruthEntry],
    benign_label: str = DEFAULT_BENIGN_LABEL,
    bidirectional: bool = False,
) -> tuple[list[str], LabelSummary]:
    """Return one label per row plus the summary.

    A row gets the label of the first entry in list order that
    `match_entry` accepts among those the index offers for its key."""
    views = _row_views(header, rows)
    index = _index_entries(entries)
    summary = LabelSummary(benign_label=benign_label)
    labels = []
    for view in views:
        forward = (view.proto, view.saddr, view.sport, view.daddr, view.dport)
        reverse = (
            (view.proto, view.daddr, view.dport, view.saddr, view.sport)
            if bidirectional else None
        )
        buckets = _candidates(index, forward, reverse)
        positions = buckets[0] if len(buckets) == 1 else sorted(itertools.chain(*buckets))
        label = benign_label
        for position in positions:
            entry = entries[position]
            if match_entry(view, entry, bidirectional):
                label = entry.label
                break
        labels.append(label)
        summary.total += 1
        summary.counts[label] = summary.counts.get(label, 0) + 1
    return labels, summary


def label_dataset(header, rows, entries, **kwargs):
    """Labelled copy of a dataset: header + Label column appended."""
    labels, summary = label_rows(header, rows, entries, **kwargs)
    labelled_header = list(header) + ["Label"]
    labelled_rows = [row + [label] for row, label in zip(rows, labels)]
    return labelled_header, labelled_rows, summary


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
