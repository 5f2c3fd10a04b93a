import csv
import ipaddress
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hera import labelling
from hera.errors import HeraError, excerpt
from hera.labelling import (
    DEFAULT_BENIGN_LABEL,
    GroundTruth,
    GroundTruthEntry,
    format_label_summary,
    label_dataset,
    labelled_rows,
    parse_ground_truth,
    write_label_summary,
)
from hera.timefmt import address_to_text, text_to_us
from helpers import label_rows, reference_int, reference_us

SEC = 1_000_000
HDR = ["stime", "ltime", "proto", "saddr", "sport", "daddr", "dport"]


def row(
    stime="10.000000",
    ltime="20.000000",
    proto="tcp",
    saddr="10.0.0.1",
    sport="1234",
    daddr="10.0.0.2",
    dport="80",
):
    return [stime, ltime, proto, saddr, sport, daddr, dport]


def gt(tmp_path, text):
    path = tmp_path / "gt.csv"
    path.write_text(text, encoding="utf-8")
    return parse_ground_truth(path)


def entry(label="DoS", line_number=2, **kw):
    return GroundTruthEntry(label=label, line_number=line_number, **kw)


# -- ground-truth parsing -----------------------------------------------------


def test_parse_full_row(tmp_path):
    entries = gt(
        tmp_path,
        "StartTime,LastTime,Proto,SrcAddr,Sport,DstAddr,Dport,Label\n"
        "10,20.5,TCP,10.0.0.1,1234,10.0.0.2,80,Exploits\n",
    )
    assert entries == [
        GroundTruthEntry(
            label="Exploits",
            line_number=2,
            start_us=10_000_000,
            last_us=20_500_000,
            proto="tcp",
            src_addr="10.0.0.1",
            sport=1234,
            dst_addr="10.0.0.2",
            dport=80,
        )
    ]


def test_parse_label_only_row_is_all_wildcard(tmp_path):
    entries = gt(tmp_path, "Label\nWorms\n")
    assert entries == [GroundTruthEntry(label="Worms", line_number=2)]
    labels, _ = label_rows(HDR, [row(), row(proto="udp", sport="9")], entries)
    assert labels == ["Worms", "Worms"]


def test_parse_headers_case_insensitive(tmp_path):
    entries = gt(tmp_path, "STARTTIME,label,dstaddr\n5,Scan,10.0.0.2\n")
    assert entries[0].start_us == 5_000_000
    assert entries[0].label == "Scan"
    assert entries[0].dst_addr == "10.0.0.2"


def test_parse_empty_cells_become_wildcards(tmp_path):
    entries = gt(
        tmp_path,
        "StartTime,LastTime,Proto,SrcAddr,Sport,DstAddr,Dport,Label\n"
        ",,,,,,,Fuzzers\n",
    )
    made = entries[0]
    assert made.label == "Fuzzers"
    for attr in ("start_us", "last_us", "proto", "src_addr", "sport", "dst_addr", "dport"):
        assert getattr(made, attr) is None


def test_parse_preserves_file_order_and_row_numbers(tmp_path):
    entries = gt(tmp_path, "Label\nA\nB\n\nC\n")
    assert [(e.label, e.line_number) for e in entries] == [
        ("A", 2), ("B", 3), ("C", 5),
    ]


def test_parse_unknown_columns_ignored(tmp_path):
    entries = gt(tmp_path, "AttackCategory,Label,Notes\nrecon,Scan,whatever\n")
    assert entries[0].label == "Scan"
    assert entries[0].proto is None


def test_parse_missing_label_column(tmp_path):
    with pytest.raises(HeraError) as err:
        gt(tmp_path, "StartTime,Proto\n1,tcp\n")
    assert str(err.value) == f"{tmp_path / 'gt.csv'}: no Label column in ['StartTime', 'Proto']"


def test_parse_empty_file(tmp_path):
    with pytest.raises(HeraError) as err:
        gt(tmp_path, "")
    assert str(err.value) == f"{tmp_path / 'gt.csv'}: empty ground-truth file"


def test_parse_empty_label_cell(tmp_path):
    with pytest.raises(HeraError) as err:
        gt(tmp_path, "Label,Proto\nDoS,tcp\n,udp\n")
    assert str(err.value) == f"{tmp_path / 'gt.csv'}: line 3: empty label cell"


def test_parse_malformed_timestamp(tmp_path):
    # Arabic-Indic 12.5, and 41 digits in microseconds
    for text in ("noon", "\u0661\u0662.5", "1" + "0" * 34 + ".5"):
        with pytest.raises(HeraError) as err:
            gt(tmp_path, f"StartTime,Label\n{text},DoS\n")
        assert str(err.value) == (
            f"{tmp_path / 'gt.csv'}: line 2, column 'StartTime': bad value {text!r}")


def test_parse_malformed_port(tmp_path):
    # Arabic-Indic 53, and 41 digits
    for text in ("http", "8_0", "\u0665\u0663", "1" + "0" * 40):
        with pytest.raises(HeraError) as err:
            gt(tmp_path, f"Sport,Label\n{text},DoS\n")
        assert str(err.value) == f"{tmp_path / 'gt.csv'}: line 2, column 'Sport': bad value {text!r}"


def test_parse_normalizes_proto_and_addresses(tmp_path):
    entries = gt(tmp_path, "Proto,SrcAddr,Label\nUDP,2001:0DB8::0001,Backdoor\n")
    assert entries[0].proto == "udp"
    assert entries[0].src_addr == "2001:db8::1"


# -- cells in written form and in any other form ---------------------------


def canonical_or_itself(text):
    try:
        return address_to_text(ipaddress.ip_address(text))
    except ValueError:
        return text


ADDRESS_TEXT = st.one_of(
    st.text(alphabet=list("0123456789.:abcdefABCDEF% \t") + ["\u0661", "\u0969"],
            max_size=24),
    st.ip_addresses().map(str),
    st.ip_addresses(v=6).map(lambda a: a.exploded.upper()),
    st.ip_addresses(v=4).map(lambda a: ".".join(f"{int(o):03d}" for o in str(a).split("."))),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(ADDRESS_TEXT)
def test_address_fast_path_equals_ipaddress(text):
    assert labelling._canonical_addr(text) == canonical_or_itself(text)


@pytest.mark.parametrize("text, canonical", [
    ("010.1.1.1", "010.1.1.1"),
    ("10.0.0.1", "10.0.0.1"),
    ("2001:0DB8::1", "2001:db8::1"),
    ("\u0661.2.3.4", "\u0661.2.3.4"),
])
def test_addresses_in_ground_truth_and_rows(tmp_path, text, canonical):
    assert labelling._canonical_addr(text) == canonical_or_itself(text) == canonical
    entries = gt(tmp_path, f"SrcAddr,Label\n{text},DoS\n")
    assert entries[0].src_addr == canonical
    assert one([entry(src_addr=canonical)], row(saddr=text)) == "DoS"


def test_dataset_match_cells_are_read_without_surrounding_whitespace(tmp_path):
    """As a ground-truth cell is: each row matches the entry. A cell of
    whitespace alone is still an empty, bad cell, and the cell-by-cell
    reader of a bad row names its first bad cell, not one with blanks."""
    entries = gt(tmp_path, "StartTime,Proto,SrcAddr,Sport,Label\n"
                           "1.0, TCP , 10.0.0.1 ,1,Attack\n")
    rows = [row(stime="1.000000", sport="1"), row(stime="1.000000", sport="1", saddr=" 10.0.0.1"),
            row(stime="1.000000", sport="1", proto=" tcp"), row(stime="1.000000", sport=" 1"),
            row(stime=" 1.0", sport="1"), row(stime="1.000000\t", sport="1", daddr=" ::1 "),
            row(stime="1.000000", sport="1 ", saddr="10.0.0.1\t", proto="tcp ")]
    assert label_rows(HDR, rows, entries)[0] == ["Attack"] * len(rows)
    for bad, message in ((row(sport=" "), "line 2, column 'sport': bad value ' '"),
                         (row(sport=" 1", dport="http"),
                          "line 2, column 'dport': bad value 'http'")):
        with pytest.raises(HeraError) as err:
            label_rows(HDR, [bad], entries)
        assert str(err.value) == message


GT_HEADER = ["StartTime", "LastTime", "Proto", "SrcAddr", "Sport", "DstAddr", "Dport", "Label"]


def parsed_cells(path, start, last, sport, dport):
    """parse_ground_truth on one full row: the entry's times and ports,
    or the error raised."""
    with open(path, "w", encoding="utf-8", newline="") as fp:
        csv.writer(fp, lineterminator="\n").writerows(
            [GT_HEADER, [start, last, "tcp", "10.0.0.1", sport, "10.0.0.2", dport, "DoS"]])
    try:
        made = parse_ground_truth(path)[0]
    except HeraError as exc:
        return str(exc)
    return made.start_us, made.last_us, made.sport, made.dport


def oracle_cells(path, start, last, sport, dport):
    """The same, from the reference parsers on each stripped cell, an
    empty one being None."""
    out = []
    for column, text, parse in (("StartTime", start, reference_us),
                                ("LastTime", last, reference_us),
                                ("Sport", sport, reference_int), ("Dport", dport, reference_int)):
        if not text.strip():
            out.append(None)
            continue
        try:
            out.append(parse(text.strip()))
        except ValueError:
            return f"{path}: line 2, column {column!r}: bad value {excerpt(text)}"
    return tuple(out)


def viewed_cells(stime, ltime, sport, dport):
    """The dataset's cell reader on one row: its times and ports, or the
    error."""
    positions = [HDR.index(column) for column in labelling.MATCH_COLUMNS]
    the_row = row(stime=stime, ltime=ltime, sport=sport, dport=dport)
    try:
        [(_, _, stime_us, ltime_us, key)] = labelling._match_cells(
            None, labelling.MATCH_COLUMNS, positions, [(the_row, None, 2)], empty_is_bad=True)
    except HeraError as exc:
        return str(exc)
    return stime_us, ltime_us, key[2], key[4]


def oracle_view(stime, ltime, sport, dport):
    """The same, from the reference parsers on each stripped cell, an
    empty one being an error."""
    cells = (("stime", stime, reference_us), ("ltime", ltime, reference_us),
             ("sport", sport, reference_int), ("dport", dport, reference_int))
    out = []
    for column, text, parse in cells:
        try:
            out.append(parse(text.strip()))
        except ValueError:
            return f"line 2, column {column!r}: bad value {excerpt(text)}"
    return tuple(out)


CELL_TEXT = st.one_of(
    st.from_regex(r"[0-9]{1,12}\.[0-9]{6}", fullmatch=True),
    st.from_regex(r"[0-9]{1,6}", fullmatch=True),
    st.text(alphabet=list("0123456789.+-_ \te") + ["\u0661", "\u00b2", "\uff11"], max_size=12),
)
LIMIT = sys.get_int_max_str_digits()
LONG_CELLS = [
    "+1.5", "1.1234567", "-2.000000", " 3.000000", "1.5", ".500000", "12", "+80", "-0",
    "\u0661\u0662.000000", "1_0.000000",
    "1" * 5000, "1" * 5000 + ".000000",
    # int() refuses the digits of the whole written form, but not of its whole part.
    "9" * (LIMIT - 3) + ".000000",
    # 40 digits read, 41 do not, however many leading zeros pad them.
    "9" * 34 + ".999999", "-" + "9" * 40, "1" + "0" * 34 + ".000000", "1" + "0" * 40,
    "0" * 5000 + "1.500000", "0" * 5000 + "80", "0" * 5000 + "1" + "0" * 40,
]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(CELL_TEXT, CELL_TEXT, CELL_TEXT, CELL_TEXT)
def test_cell_fast_paths_equal_the_parsers(tmp_path_factory, start, last, sport, dport):
    path = tmp_path_factory.getbasetemp() / "cells.csv"
    cells = (start, last, sport, dport)
    assert parsed_cells(path, *cells) == oracle_cells(path, *cells)
    assert viewed_cells(start, last, sport, dport) == oracle_view(start, last, sport, dport)


@pytest.mark.parametrize("text", LONG_CELLS)
def test_cell_fast_paths_on_explicit_cells(tmp_path, text):
    """Every cell keeps its value or its error, each of the four columns
    in turn holding the text; past int()'s digit limit too."""
    fine = ("1.000000", "2.000000", "1234", "80")
    path = tmp_path / "gt.csv"
    for column in range(4):
        cells = list(fine)
        cells[column] = text
        assert parsed_cells(path, *cells) == oracle_cells(path, *cells)
        assert viewed_cells(*cells) == oracle_view(*cells)


def test_overlong_cells_end_in_their_errors(tmp_path):
    path = tmp_path / "gt.csv"
    long_time = "1" * 5000 + ".000000"
    with pytest.raises(HeraError) as err:
        gt(tmp_path, f"StartTime,Label\n{long_time},DoS\n")
    assert str(err.value) == f"{path}: line 2, column 'StartTime': bad value {excerpt(long_time)}"
    with pytest.raises(HeraError) as err:
        gt(tmp_path, f"Sport,LastTime,Label\n{'8' * 5000},1.000000,DoS\n")
    assert str(err.value) == f"{path}: line 2, column 'Sport': bad value {excerpt('8' * 5000)}"
    with pytest.raises(HeraError) as err:
        label_rows(HDR, [row(), row(dport="8" * 5000)], [])
    assert str(err.value) == f"line 3, column 'dport': bad value {excerpt('8' * 5000)}"


# -- matching ------------------------------------------------------------------


def one(entries, the_row=None, **kw):
    labels, _ = label_rows(HDR, [the_row or row()], entries, **kw)
    return labels[0]


def test_overlap_matches():
    # flow [10,20] vs entry [15,30]
    assert one([entry(start_us=15_000_000, last_us=30_000_000)]) == "DoS"


def test_disjoint_windows_do_not_match():
    # flow [10,20] vs entry [21,30]
    assert one([entry(start_us=21_000_000, last_us=30_000_000)]) == "Benign"


def test_overlap_bounds_are_inclusive():
    assert one([entry(start_us=20_000_000, last_us=25_000_000)]) == "DoS"
    assert one([entry(start_us=5_000_000, last_us=10_000_000)]) == "DoS"


def test_absent_bounds_are_open():
    assert one([entry(start_us=None, last_us=12_000_000)]) == "DoS"
    assert one([entry(start_us=12_000_000, last_us=None)]) == "DoS"


def test_endpoint_field_mismatch_blocks_match():
    assert one([entry(src_addr="10.0.0.2")]) == "Benign"
    assert one([entry(src_addr="10.0.0.1")]) == "DoS"
    assert one([entry(dport=81)]) == "Benign"
    assert one([entry(dport=80)]) == "DoS"


def test_proto_match_is_case_insensitive_via_parse(tmp_path):
    entries = gt(tmp_path, "Proto,Label\nTCP,DoS\n")
    assert one(entries) == "DoS"
    assert one(entries, row(proto="udp")) == "Benign"


def test_first_matching_entry_wins():
    entries = [entry(label="DoS", line_number=2), entry(label="Exploits", line_number=3)]
    assert one(entries) == "DoS"


def test_forward_only_by_default_bidirectional_on_request():
    reversed_entry = [entry(src_addr="10.0.0.2", dst_addr="10.0.0.1",
                            sport=80, dport=1234)]
    assert one(reversed_entry) == "Benign"
    assert one(reversed_entry, bidirectional=True) == "DoS"


def test_bidirectional_requires_consistent_orientation():
    # src matches forward but dst only matches reversed: neither
    # orientation satisfies every field at once
    twisted = [entry(src_addr="10.0.0.1", dst_addr="10.0.0.1")]
    assert one(twisted, bidirectional=True) == "Benign"


def test_custom_benign_label():
    labels, summary = label_rows(HDR, [row()], [], benign_label="normal")
    assert labels == ["normal"]
    assert summary.counts == {"normal": 1}
    assert summary.benign == 1 and summary.malicious == 0


def test_missing_match_field():
    with pytest.raises(HeraError) as err:
        label_rows(["stime", "ltime", "proto"], [], [])
    assert str(err.value) == "dataset is missing required column 'saddr'"


def test_labels_every_row_in_order():
    rows = [row(saddr=f"10.0.0.{i}") for i in range(1, 6)]
    entries = [entry(src_addr="10.0.0.3")]
    labels, summary = label_rows(HDR, rows, entries)
    assert labels == ["Benign", "Benign", "DoS", "Benign", "Benign"]
    assert summary.total == 5
    assert summary.counts == {"Benign": 4, "DoS": 1}


# -- index and oracle -----------------------------------------------------------


def random_case(seed):
    """Rows and entries drawn from small value pools, so entries of most
    shapes (subsets of proto, src_addr, sport, dst_addr, dport), the
    empty and the full one included, occur and match rows in either
    direction."""
    rng = random.Random(seed)
    hosts = [f"10.0.0.{i}" for i in range(1, 6)] + [f"10.0.1.{i}" for i in range(1, 6)]
    ports = ["80", "443", "53", "1024", "1025", "1026"]
    rows = []
    for _ in range(300):
        start = rng.randrange(0, 3600)
        rows.append(
            row(
                stime=f"{start}.000000",
                ltime=f"{start + rng.randrange(0, 120)}.500000",
                proto=rng.choice(["tcp", "udp", "icmp"]),
                saddr=rng.choice(hosts),
                sport=rng.choice(ports),
                daddr=rng.choice(hosts),
                dport=rng.choice(ports),
            )
        )
    entries = []
    for n in range(60):
        start = rng.randrange(-600, 4000)
        fields = {}
        if rng.random() < 0.8:
            fields["start_us"] = start * 1_000_000
            fields["last_us"] = (start + rng.randrange(0, 300)) * 1_000_000
        if rng.random() < 0.5:
            fields["proto"] = rng.choice(["tcp", "udp", "icmp"])
        if rng.random() < 0.5:
            fields["src_addr"] = rng.choice(hosts + ["10.0.2.1"])
        if rng.random() < 0.4:
            fields["sport"] = int(rng.choice(ports + ["9999"]))
        if rng.random() < 0.4:
            fields["dst_addr"] = rng.choice(hosts + ["10.0.2.1"])
        if rng.random() < 0.4:
            fields["dport"] = int(rng.choice(ports + ["9999"]))
        entries.append(entry(label=f"Attack{n % 7}", line_number=n + 2, **fields))
    return rows, entries


def oracle_labels(rows, entries, benign=DEFAULT_BENIGN_LABEL, bidirectional=False):
    """All-pairs first-match reference, written against the documented
    matching rules rather than the implementation."""

    def matches(cells, e):
        stime, ltime, proto, saddr, sport, daddr, dport = cells
        if e.start_us is not None and text_to_us(ltime) < e.start_us:
            return False
        if e.last_us is not None and text_to_us(stime) > e.last_us:
            return False
        if e.proto is not None and proto.lower() != e.proto:
            return False
        orientations = [(saddr, int(sport), daddr, int(dport))]
        if bidirectional:
            orientations.append((daddr, int(dport), saddr, int(sport)))
        for sa, sp, da, dp in orientations:
            if (
                (e.src_addr is None or sa == e.src_addr)
                and (e.sport is None or sp == e.sport)
                and (e.dst_addr is None or da == e.dst_addr)
                and (e.dport is None or dp == e.dport)
            ):
                return True
        return False

    out = []
    for cells in rows:
        label = benign
        for e in entries:
            if matches(cells, e):
                label = e.label
                break
        out.append(label)
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_labelling_matches_all_pairs_oracle(seed, bidirectional):
    rows, entries = random_case(seed)
    labels, summary = label_rows(HDR, rows, entries, bidirectional=bidirectional)
    assert labels == oracle_labels(rows, entries, bidirectional=bidirectional)
    assert summary.total == len(rows)
    assert sum(summary.counts.values()) == summary.total
    assert all(labels)


def test_random_cases_cover_every_shape_and_direction():
    shapes = set()
    reverse_only = 0
    for seed in (1, 2, 3):
        rows, entries = random_case(seed)
        for e in entries:
            shapes.add(tuple(
                getattr(e, name) is not None
                for name in ("proto", "src_addr", "sport", "dst_addr", "dport")))
        forward = oracle_labels(rows, entries)
        both = oracle_labels(rows, entries, bidirectional=True)
        reverse_only += sum(f != b for f, b in zip(forward, both))
    assert len(shapes) >= 20
    assert (False,) * 5 in shapes and (True,) * 5 in shapes
    assert reverse_only > 0


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_index_matches_oracle_on_more_seeds(seed):
    rows, entries = random_case(seed)
    for bidirectional in (False, True):
        labels, _ = label_rows(HDR, rows, entries, bidirectional=bidirectional)
        assert labels == oracle_labels(rows, entries, bidirectional=bidirectional)


def test_index_matches_oracle_on_empty_dataset():
    entries = [entry(start_us=0, last_us=1)]
    labels, summary = label_rows(HDR, [], entries)
    assert labels == oracle_labels([], entries) == []
    assert summary.total == 0 and summary.counts == {}


def test_list_order_wins_over_duplicate_row_numbers():
    # all entries share a row number; the two that match sit in different
    # index shapes, and the dport shape is met first, so neither the row
    # number nor the order of shapes can decide
    entries = [
        entry(label="Other", line_number=7, dport=443),
        entry(label="ByHost", line_number=7, src_addr="10.0.0.1"),
        entry(label="ByPort", line_number=7, dport=80),
    ]
    assert one(entries) == oracle_labels([row()], entries)[0] == "ByHost"
    later_first = [entry(label="Late", line_number=9, dport=80),
                   entry(label="Early", line_number=2, src_addr="10.0.0.1")]
    assert one(later_first) == oracle_labels([row()], later_first)[0] == "Late"


def test_bidirectional_self_loop_row_is_tested_once(monkeypatch):
    calls = count_match_calls(monkeypatch)
    loop = row(saddr="10.0.0.7", daddr="10.0.0.7", sport="5000", dport="5000")
    entries = [
        entry(label="Other", src_addr="10.0.0.8"),
        entry(label="Loop", src_addr="10.0.0.7", sport=5000,
              dst_addr="10.0.0.7", dport=5000),
    ]
    assert one(entries, loop, bidirectional=True) == "Loop"
    assert calls == [1]


def test_non_canonical_ipv6_in_ground_truth_matches(tmp_path):
    entries = gt(
        tmp_path,
        "SrcAddr,DstAddr,Label\n2001:0DB8:0000::0001,2001:db8::0:2,Backdoor\n",
    )
    rows = [
        row(saddr="2001:db8::1", daddr="2001:db8::2"),
        row(saddr="2001:DB8:0:0:0:0:0:1", daddr="2001:0db8::0002"),
        row(saddr="2001:db8::2", daddr="2001:db8::1"),
    ]
    labels, _ = label_rows(HDR, rows, entries)
    assert labels == ["Backdoor", "Backdoor", "Benign"]
    both, _ = label_rows(HDR, rows, entries, bidirectional=True)
    assert both == ["Backdoor", "Backdoor", "Backdoor"]


def count_match_calls(monkeypatch):
    """Patch `match_entry` to count its calls in the returned list's
    only element."""
    calls = [0]
    real = labelling.match_entry

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(labelling, "match_entry", counting)
    return calls


@pytest.mark.parametrize("bidirectional", [False, True])
def test_label_rows_tests_few_entries_per_row(monkeypatch, bidirectional):
    """Guard against all-pairs matching: 2,000 distinct full 5-tuple
    entries, 2,000 rows, each row tested against at most two entries."""
    rng = random.Random(2000)
    tuples = set()
    while len(tuples) < 2000:
        tuples.add((rng.choice(["tcp", "udp"]),
                    f"10.{rng.randrange(4)}.{rng.randrange(256)}.{rng.randrange(1, 255)}",
                    rng.randrange(1024, 65536),
                    f"172.16.{rng.randrange(256)}.{rng.randrange(1, 255)}",
                    rng.choice([22, 53, 80, 443])))
    tuples = sorted(tuples)
    entries = [
        entry(label=f"Attack{n % 5}", line_number=n + 2, start_us=0, last_us=100 * SEC,
              proto=p, src_addr=sa, sport=sp, dst_addr=da, dport=dp)
        for n, (p, sa, sp, da, dp) in enumerate(tuples)
    ]
    rows = []
    for n in range(2000):
        p, sa, sp, da, dp = tuples[n]
        if n % 4 == 0:  # hit, as listed
            rows.append(row("1.0", "2.0", p, sa, str(sp), da, str(dp)))
        elif n % 4 == 1:  # hit only when matching in both directions
            rows.append(row("1.0", "2.0", p, da, str(dp), sa, str(sp)))
        elif n % 4 == 2:  # same tuple outside the entry's window
            rows.append(row("200.0", "201.0", p, sa, str(sp), da, str(dp)))
        else:  # a tuple no entry names
            rows.append(row("1.0", "2.0", p, sa, str(sp + 1), da, str(dp)))
    calls = count_match_calls(monkeypatch)
    labels, summary = label_rows(HDR, rows, entries, bidirectional=bidirectional)
    assert calls[0] <= 2 * len(rows)
    assert summary.malicious == (1000 if bidirectional else 500)
    assert [labels[n] for n in range(0, 2000, 4)] == [
        f"Attack{n % 5}" for n in range(0, 2000, 4)]


@pytest.mark.parametrize("bidirectional", [False, True])
def test_one_tuple_listed_many_times_is_not_quadratic(monkeypatch, bidirectional):
    """One 5-tuple listed n times over disjoint windows in time order, and
    one row inside each window: all-pairs first-match scanning would test
    n(n+1)/2 entries, the time-sorted bucket at most a few per row. Then
    once more with one window spanning them all, listed last, which must
    not keep every later entry in reach of every row."""
    n = 4000
    tuple_fields = dict(proto="tcp", src_addr="10.0.0.1", sport=1234, dst_addr="10.0.0.2",
                        dport=80)
    entries = [
        entry(label=f"Attack{k % 7}", line_number=k + 2, start_us=10 * k * SEC,
              last_us=(10 * k + 5) * SEC, **tuple_fields)
        for k in range(n)
    ]
    rows = [row(f"{10 * k + 2}.000000", f"{10 * k + 3}.500000") for k in range(n)]
    spanning = entry(label="Span", line_number=n + 2, start_us=0, last_us=10 * n * SEC,
                     **tuple_fields)
    for ground_truth in (entries, [*entries, spanning]):
        calls = count_match_calls(monkeypatch)
        labels, summary = label_rows(HDR, rows, ground_truth, bidirectional=bidirectional)
        assert calls[0] <= 4 * n
        assert labels == [f"Attack{k % 7}" for k in range(n)]
        assert summary.malicious == n


@pytest.mark.parametrize("bidirectional", [False, True])
def test_small_buckets_are_not_scanned(monkeypatch, bidirectional):
    """300 buckets of 2-8 entries over disjoint windows, and rows that
    mostly fall between them: labelling reads an entry only to test its
    window with `match_entry`, and tests fewer entries than rows. A
    bucket whose windows were compared one by one, in `match_entry` or
    outside it, would read each of its entries for every row."""
    rng = random.Random(8)
    entries, rows = [], []
    for k in range(300):
        key = dict(proto="tcp", src_addr=f"10.0.{k // 256}.{k % 256}", sport=1000 + k,
                   dst_addr="10.9.0.1", dport=80)
        size = 2 + k % 7
        entries += [entry(label=f"K{k}", line_number=len(entries) + j + 2,
                          start_us=100 * j * SEC, last_us=(100 * j + 10) * SEC, **key)
                    for j in range(size)]
        for start in rng.sample(range(100 * size), 5):
            rows.append(row(f"{start}.000000", f"{start + 1}.000000", "tcp", key["src_addr"],
                            str(key["sport"]), "10.9.0.1", "80"))
    reads = [0]

    class CountedReads(GroundTruth):
        def __getitem__(self, position):
            reads[0] += 1
            return list.__getitem__(self, position)

    ground_truth = CountedReads(entries)
    reads[0] = 0
    calls = count_match_calls(monkeypatch)
    numbered = ((cells, None, number) for number, cells in enumerate(rows, start=2))
    labels = [label for _, label in labelled_rows(HDR, numbered, ground_truth, {},
                                                  bidirectional=bidirectional)]
    assert labels == oracle_labels(rows, entries, bidirectional=bidirectional)
    assert reads[0] == calls[0] < len(rows)


def test_earliest_entry_in_file_order_wins_over_earlier_start():
    windows = [(50, 60), (0, 100), (55, 58), (0, None), (None, 5)]
    entries = [entry(label=f"E{k}", line_number=k + 2, src_addr="10.0.0.1", dport=80,
                     start_us=None if a is None else a * SEC,
                     last_us=None if b is None else b * SEC)
               for k, (a, b) in enumerate(windows)]
    rows = [row("56.0", "57.0"), row("10.0", "20.0"), row("200.0", "300.0"),
            row("1.0", "2.0"), row("40.0", "50.0")]
    labels, _ = label_rows(HDR, rows, entries)
    assert labels == oracle_labels(rows, entries) == ["E0", "E1", "E3", "E1", "E0"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_time_sorted_buckets_match_oracle_on_overlapping_windows(seed):
    """Buckets of many entries with overlapping windows, open bounds
    included, listed out of time order; a second shape and reversed rows
    make candidates of several buckets meet."""
    rng = random.Random(seed)
    full = dict(proto="tcp", src_addr="10.0.0.1", sport=1234, dst_addr="10.0.0.2", dport=80)
    entries = []
    for k in range(300):
        start = rng.randrange(0, 1000)
        fields = dict(full) if rng.random() < 0.7 else {"dst_addr": "10.0.0.2"}
        if rng.random() < 0.9:
            fields["start_us"] = start * SEC
        if rng.random() < 0.9:
            fields["last_us"] = (start + rng.randrange(0, 200)) * SEC
        entries.append(entry(label=f"L{k}", line_number=k + 2, **fields))
    rows = []
    for _ in range(400):
        start = rng.randrange(-50, 1250)
        times = (f"{start}.000000", f"{start + rng.randrange(0, 30)}.{rng.choice(['', '25'])}")
        if rng.random() < 0.5:
            rows.append(row(*times))
        else:
            rows.append(row(*times, "tcp", "10.0.0.2", "80", "10.0.0.1", "1234"))
    for bidirectional in (False, True):
        labels, _ = label_rows(HDR, rows, entries, bidirectional=bidirectional)
        assert labels == oracle_labels(rows, entries, bidirectional=bidirectional)


# -- labelled dataset and summary ----------------------------------------------


def test_label_dataset_appends_label_column():
    rows = [row(), row(saddr="10.0.0.9")]
    header, labelled, summary = label_dataset(HDR, rows, GroundTruth([entry(src_addr="10.0.0.9")]))
    assert header == HDR + ["Label"]
    assert labelled is rows  # labelled in place, not copied
    assert labelled == [row() + ["Benign"], row(saddr="10.0.0.9") + ["DoS"]]
    assert summary.counts == {"Benign": 1, "DoS": 1}


def test_summary_layout_benign_first_then_desc_count_then_name():
    rows = (
        [row(saddr="10.0.0.3")] * 3
        + [row(saddr="10.0.0.4")] * 3
        + [row(saddr="10.0.0.5")] * 5
        + [row()] * 2
    )
    entries = [
        entry(label="Scan", line_number=2, src_addr="10.0.0.3"),
        entry(label="DoS", line_number=3, src_addr="10.0.0.4"),
        entry(label="Worm", line_number=4, src_addr="10.0.0.5"),
    ]
    _, summary = label_rows(HDR, rows, entries)
    assert format_label_summary(summary) == (
        "total_flows: 13\n"
        "benign_flows: 2\n"
        "malicious_flows: 11\n"
        "\n"
        "Benign: 2\n"
        "Worm: 5\n"
        "DoS: 3\n"
        "Scan: 3\n"
    )


def test_summary_of_empty_dataset():
    _, summary = label_rows(HDR, [], [])
    assert summary.total == 0
    assert format_label_summary(summary) == (
        "total_flows: 0\nbenign_flows: 0\nmalicious_flows: 0\n\nBenign: 0\n"
    )


def test_write_label_summary(tmp_path):
    _, summary = label_rows(HDR, [row()], [])
    out = tmp_path / "s.txt"
    write_label_summary(out, summary)
    assert out.read_text(encoding="utf-8") == format_label_summary(summary)


def test_summary_recount_matches_labelled_output():
    rows, entries = random_case(9)
    header, labelled, summary = label_dataset(HDR, rows, GroundTruth(entries))
    col = header.index("Label")
    recount = {}
    for r in labelled:
        recount[r[col]] = recount.get(r[col], 0) + 1
    assert recount == summary.counts
