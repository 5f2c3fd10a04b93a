"""Ground-truth parsing and indexing in two passes: the reference for
`labelling.parse_ground_truth`, which builds each entry and its place in
the match index in the pass that reads its line.

`parse_ground_truth` here reads the rows into a list of entries, each
made by the `GroundTruthEntry` constructor, each time and port through
the package's bounded parsers (`_timestamp`, `_port`) and each address
through the memo. `index_entries` then groups the entries by shape and
key and turns every bucket of several entries into a max-end segment
tree (`time_sorted`), and a bucket of one entry into its position, the
form `labelling.labelled_rows` reads. `OracleGroundTruth` carries that
index, so `labelled_rows` labels through it as it would through the one-pass
index."""

from __future__ import annotations

from math import inf
from operator import itemgetter

from hera.dataset import iter_csv
from hera.errors import HeraError, excerpt
from hera.labelling import (
    _GT_COLUMNS,
    GroundTruthEntry,
    _canonical_addr,
    _Memo,
    _port,
    _timestamp,
    _TimeSorted,
)


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
    positions = [names.index(name) if name in names else None for name in _GT_COLUMNS]
    pick = None if None in positions else itemgetter(*positions)
    width = max(i for i in positions if i is not None) + 1
    labels = _Memo(str.strip)
    protos = _Memo(lambda text: text.strip().lower() or None)
    addrs = _Memo(lambda text: _canonical_addr(text.strip()) or None)
    entries = []
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
            raise HeraError(f"{path}: row {row_number}: empty label cell")
        entries.append(GroundTruthEntry(
            label, row_number, _timestamp(start, row_number, path),
            _timestamp(last, row_number, path), protos[proto], addrs[src],
            _port(sport, "sport", row_number, path), addrs[dst],
            _port(dport, "dport", row_number, path)))
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
