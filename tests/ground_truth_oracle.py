"""Ground-truth parsing and indexing in two passes: the reference for
`labelling.parse_ground_truth`, which builds each entry and its place in
the match index in the pass that reads its line.

`parse_ground_truth` here reads the rows into a list of entries, each
made by the `GroundTruthEntry` constructor, each cell read on its own by
the rule README states: each time and port by the reference parsers of
`helpers`, each address by `ipaddress`, and an error message written
out here. `index_entries` then groups the entries by shape and key and
turns every bucket of several entries into a max-end segment tree
(`time_sorted`), and a bucket of one entry into its position, the form
`labelling.labelled_rows` reads. `OracleGroundTruth` carries that index,
so `labelled_rows` labels through it as it would through the one-pass
index."""

from __future__ import annotations

import ipaddress
from math import inf
from operator import itemgetter

from hera.dataset import iter_csv
from hera.errors import HeraError, excerpt
from hera.labelling import GroundTruthEntry, _TimeSorted
from hera.timefmt import address_to_text
from helpers import reference_int, reference_us


def canonical_address(text: str) -> str:
    """The text `ipaddress` writes of an address; other text as it is."""
    try:
        return address_to_text(ipaddress.ip_address(text))
    except ValueError:
        return text


# The match columns of a ground truth in the order their cells are
# checked, that of the dataset's match columns, each with the entry field
# it sets and the reader of its stripped, non-empty text.
COLUMNS = (("starttime", "start_us", reference_us), ("lasttime", "last_us", reference_us),
           ("proto", "proto", str.lower), ("srcaddr", "src_addr", canonical_address),
           ("dstaddr", "dst_addr", canonical_address), ("sport", "sport", reference_int),
           ("dport", "dport", reference_int))


class OracleGroundTruth(list):
    """Entries in file order with the two-pass index."""

    def __init__(self, entries):
        super().__init__(entries)
        self.match_index = index_entries(self)


def parse_ground_truth(path) -> OracleGroundTruth:
    reader = iter_csv(path)
    try:
        header = next(reader)[0]
    except StopIteration:
        raise HeraError(f"{path}: empty ground-truth file") from None
    if header:
        header[0] = header[0].removeprefix("\ufeff")
    names = [name.strip().lower() for name in header]
    if "label" not in names:
        raise HeraError(f"{path}: no Label column in {excerpt(header)}")
    if not {name for name, _, _ in COLUMNS} & set(names):
        raise HeraError(f"{path}: no StartTime, LastTime, Proto, SrcAddr, DstAddr, Sport "
                        f"or Dport column in {excerpt(header)}")

    def cell(row, name):
        """The row's cell in the first column headed `name`; "" when the
        header or the row has none."""
        position = names.index(name) if name in names else len(row)
        return row[position] if position < len(row) else ""

    entries = []
    for row, _, line_number in reader:
        label = cell(row, "label").strip()
        if not label:
            if not "".join(row).strip():
                continue
            raise HeraError(f"{path}: line {line_number}: empty label cell")
        fields = {}
        for name, field, read in COLUMNS:
            text = cell(row, name)
            try:
                fields[field] = read(text.strip()) if text.strip() else None
            except ValueError:
                column = header[names.index(name)]
                raise HeraError(f"{path}: line {line_number}, column {column!r}: "
                                f"bad value {excerpt(text)}") from None
        entries.append(GroundTruthEntry(label, line_number, **fields))
    return OracleGroundTruth(entries)


def time_sorted(entries, positions) -> _TimeSorted:
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


def index_entries(entries) -> list[tuple[itemgetter, dict]]:
    shapes: dict[tuple[int, ...], tuple[itemgetter, dict]] = {}
    for position, entry in enumerate(entries):
        values = entry[4:]  # proto, src_addr, sport, dst_addr, dport
        shape = tuple(i for i, value in enumerate(values) if value is not None)
        if shape not in shapes:
            shapes[shape] = (itemgetter(*shape) if shape else itemgetter(slice(0)), {})
        key_of, table = shapes[shape]
        table.setdefault(key_of(values), []).append(position)
    for _, table in shapes.values():
        for key, bucket in table.items():
            table[key] = bucket[0] if len(bucket) == 1 else time_sorted(entries, bucket)
    return list(shapes.values())
