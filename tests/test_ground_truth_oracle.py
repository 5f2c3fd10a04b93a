"""The one-pass ground-truth parser and index against the two-pass
reference (`ground_truth_oracle`): on every ground truth they read the
same entries or raise the same error, and label every row alike, with
and without bidirectional matching."""

from __future__ import annotations

import csv
import io

from hypothesis import given, settings
from hypothesis import strategies as st

import ground_truth_oracle as oracle
from hera.errors import HeraError, MalformedField
from hera.labelling import labelled_rows, parse_ground_truth

SEC = 1_000_000
COLUMNS = ["StartTime", "LastTime", "Proto", "SrcAddr", "Sport", "DstAddr", "Dport", "Label"]
HDR = ["stime", "ltime", "proto", "saddr", "sport", "daddr", "dport"]

# Each row's address and port cells are drawn from a few values, so that
# entries share keys and buckets of up to 40 entries form.
ADDRESSES = ["10.0.0.1", "10.0.0.2", "2001:DB8::1", "2001:db8:0:0::2", "::ffff:10.0.0.1"]
PORTS = ["80", "1234", "53"]


def padded(values):
    """One of `values`, sometimes with surrounding whitespace."""
    return st.tuples(st.sampled_from(["", " ", "\t"]), st.sampled_from(values),
                     st.sampled_from(["", " "])).map("".join)


def time_cell():
    """A time within the first minute, mostly on a whole or half second."""
    return st.one_of(
        st.integers(0, 60).map(lambda s: f"{s}.000000"),
        st.integers(0, 60).map(lambda s: f"{s}.500000"),
        st.integers(0, 60 * SEC).map(lambda us: f"{us // SEC}.{us % SEC:06d}"),
        st.integers(0, 60).map(str),
        st.integers(0, 60).map(lambda s: f" {s}.5 "),
        st.just(""),
    )


CELLS = {
    "StartTime": time_cell(),
    "LastTime": time_cell(),
    "Proto": st.one_of(padded(["tcp", "TCP", "udp", "Udp"]), st.just("")),
    "SrcAddr": st.one_of(padded(ADDRESSES), st.just("")),
    "Sport": st.one_of(padded(PORTS), st.just("")),
    "DstAddr": st.one_of(padded(ADDRESSES), st.just("")),
    "Dport": st.one_of(padded(PORTS), st.just("")),
    "Label": padded(["DoS", "Scan", "Exploits, web"]),
}
# Cells that make a row malformed.
BAD_CELLS = {"StartTime": "12x", "LastTime": "1.2.3", "Sport": "+80", "Dport": "٥٣"}


@st.composite
def ground_truths(draw):
    """The bytes of a ground-truth file. Up to four keys get a bucket of 1-40 rows each, which
    differ in their times and labels, and up to 20 rows are drawn cell
    by cell; the rows come in a drawn order."""
    columns = draw(st.permutations(COLUMNS))
    # Drop some match columns; Label stays.
    kept = [c for c in columns if c == "Label" or draw(st.integers(0, 4))]
    header = [draw(st.sampled_from([name, name.upper(), name.lower(), f" {name} "]))
              for name in kept]
    key_names = [name for name in ("Proto", "SrcAddr", "Sport", "DstAddr", "Dport")
                 if name in kept]
    cells_of_rows = []
    for _ in range(draw(st.integers(0, 4))):
        key = {name: draw(CELLS[name]) for name in key_names}
        cells_of_rows += [key] * draw(st.integers(1, 40))
    cells_of_rows += [{}] * draw(st.integers(0, 20))
    rows = []
    for key in draw(st.permutations(cells_of_rows)):
        if draw(st.integers(0, 29)) == 0:  # blank
            rows.append([draw(st.sampled_from(["", " "])) for _ in kept])
            continue
        cells = {name: draw(CELLS[name]) for name in kept} | key
        rows.append([cells[name] for name in kept])
    # One ground truth in four has one malformed row: a bad cell or an
    # empty label.
    faults = sorted(set(BAD_CELLS) & set(kept)) + ["Label"]
    if rows and draw(st.integers(0, 3)) == 0:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        fault = draw(st.sampled_from(faults))
        row[kept.index(fault)] = BAD_CELLS.get(fault, " ")
    out = io.StringIO(newline="")
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    csv.writer(out, lineterminator=ending, quoting=quoting).writerows([header, *rows])
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return (bom + out.getvalue()).encode("utf-8")


def dataset_rows(draw, entries):
    """Rows on the keys of the entries, forward and reversed, with the
    fields an entry leaves open filled in. A row's window ends where its
    entry's begins, begins where it ends, or lies on the half second in
    the first minute or so."""
    rows = []
    for _ in range(draw(st.integers(1, 40))):
        entry = draw(st.sampled_from(entries))
        src, sport, dst, dport = entry.src_addr, entry.sport, entry.dst_addr, entry.dport
        if draw(st.booleans()):
            src, sport, dst, dport = dst, dport, src, sport
        start = draw(st.integers(0, 130)) * SEC // 2
        end = start + draw(st.integers(0, 20)) * SEC // 2
        touch = draw(st.integers(0, 2))
        if touch == 1 and entry.start_us is not None:
            start, end = max(0, entry.start_us - end + start), entry.start_us
        elif touch == 2 and entry.last_us is not None:
            start, end = entry.last_us, entry.last_us + end - start
        rows.append([f"{start // SEC}.{start % SEC:06d}", f"{end // SEC}.{end % SEC:06d}",
                     entry.proto or "tcp", src or "10.0.0.9",
                     "9" if sport is None else str(sport), dst or "10.0.0.8",
                     "8" if dport is None else str(dport)])
    return rows


def parsed(parse, path):
    try:
        return parse(path)
    except HeraError as exc:
        return type(exc), str(exc)


def labels(rows, entries, bidirectional):
    counts = {}
    numbered = ((row, None, number) for number, row in enumerate(rows, start=2))
    return [label for _, label in labelled_rows(HDR, numbered, entries, counts,
                                                bidirectional=bidirectional)], counts


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_one_pass_index_equals_the_two_pass_oracle(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("gt") / "gt.csv"
    path.write_bytes(data.draw(ground_truths()))
    made, expected = parsed(parse_ground_truth, path), parsed(oracle.parse_ground_truth, path)
    if isinstance(expected, tuple):  # the same error, on the same line
        assert made == expected
        return
    assert list(made) == list(expected)
    if not made:
        return
    rows = dataset_rows(data.draw, expected)
    for bidirectional in (False, True):
        assert labels(rows, made, bidirectional) == labels(rows, expected, bidirectional)


def test_a_port_past_the_digit_bound_is_refused_by_both_readers(tmp_path):
    """A 41-digit port reads as a number to int(), under its own digit
    limit, but is past hera's bound: both readers refuse it alike."""
    path = tmp_path / "gt.csv"
    path.write_text("Sport,Label\n1" + "0" * 40 + ",DoS\n", encoding="utf-8")
    made, expected = parsed(parse_ground_truth, path), parsed(oracle.parse_ground_truth, path)
    assert made == expected
    assert made[0] is MalformedField
    assert made[1].startswith(f"{path}: row 2: bad sport value ")
