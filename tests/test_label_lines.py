"""`hera label` reads each dataset row as one line and writes it back
with one label cell. Its bytes must be what csv.reader, the same labels
and csv.writer make (`labelled_csv_oracle.py`), for any CSV text: quoted
cells, `""` escapes, commas, carriage returns and line breaks in cells,
CRLF and CR lines, empty lines, ragged rows, labels that need quoting,
and the match columns in any order. `read_csv` reads the rows csv.reader reads,
and a dataset or ground truth without quotes, whatever its line
endings, is never read by csv.reader."""

from __future__ import annotations

import csv
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hera.cli import main
from hera.dataset import read_csv
from hera.errors import HeraError
from labelled_csv_oracle import labelled_csv

MATCH_COLUMNS = ("stime", "ltime", "proto", "saddr", "daddr", "sport", "dport")
MATCH_CELLS = {
    "stime": ("10.000000", "11.000000", "30.000000", "12.5", " 11"),
    "ltime": ("12.000000", "20.000000", "31.000000", "25"),
    "proto": ("tcp", "udp", "TCP"),
    "saddr": ("10.0.0.1", "10.0.0.2", "2001:DB8::1"),
    "daddr": ("10.0.0.2", "10.0.0.1", "2001:db8::2"),
    "sport": ("40000", "53", "80"),
    "dport": ("80", "5353", "40000"),
}
# Text that may need quoting: commas, quotes, carriage returns, line breaks.
FREE_TEXT = st.text(alphabet='ab ,"\r\né', max_size=6)
LABELS = ("DoS", "Scan, slow", 'say "hi"', "two\nlines")
ADDRESSES = ("", "10.0.0.1", "10.0.0.2", "2001:db8::1")
PORTS = ("", "80", "40000", "53")


@st.composite
def dataset_texts(draw) -> str:
    """A dataset CSV: a header of the match columns and a few others in
    any order, then rows written with minimal or full quoting, LF, CRLF
    or CR endings, now and then ragged, wider than the header or empty."""
    header = draw(st.permutations([*MATCH_COLUMNS, *draw(st.lists(FREE_TEXT, max_size=3))]))
    rows = [header]
    for _ in range(draw(st.integers(0, 6))):
        cells = [draw(st.sampled_from(MATCH_CELLS[name])) if name in MATCH_CELLS
                 else draw(FREE_TEXT) for name in header]
        shape = draw(st.sampled_from(("full",) * 6 + ("cut", "wide", "empty")))
        if shape == "cut":
            cells = cells[:draw(st.integers(0, len(cells)))]
        elif shape == "wide":
            cells += draw(st.lists(FREE_TEXT, min_size=1, max_size=3))
        elif shape == "empty":
            cells = []
        rows.append(cells)
    lines = []
    for cells in rows:
        if draw(st.booleans()):
            out = io.StringIO(newline="")
            csv.writer(out, lineterminator="\n").writerow(cells)
            line = out.getvalue()[:-1]
        else:
            line = ",".join('"' + cell.replace('"', '""') + '"' for cell in cells)
        lines.append(line + draw(st.sampled_from(("\n", "\n", "\r\n", "\r"))))
    return "".join(lines)


@st.composite
def ground_truths(draw) -> str:
    rows = [["StartTime", "LastTime", "SrcAddr", "Sport", "DstAddr", "Dport", "Label"]]
    for _ in range(draw(st.integers(0, 4))):
        rows.append([draw(st.sampled_from(("", "5", "11.5"))), draw(st.sampled_from(("", "40"))),
                     draw(st.sampled_from(ADDRESSES)), draw(st.sampled_from(PORTS)),
                     draw(st.sampled_from(ADDRESSES)), draw(st.sampled_from(PORTS)),
                     draw(st.sampled_from(LABELS))])
    out = io.StringIO(newline="")
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def label(tmp: Path, dataset: str, ground_truth: str, argv=()) -> tuple[int, str, str]:
    """Exit code, labelled CSV and summary of `hera label` on the texts."""
    (tmp / "data.csv").write_bytes(dataset.encode("utf-8"))
    (tmp / "gt.csv").write_bytes(ground_truth.encode("utf-8"))
    code = main(["label", "--in", str(tmp / "data.csv"), "--gt", str(tmp / "gt.csv"),
                 "--out", str(tmp / "out"), *argv])
    if code != 0:
        return code, "", ""
    return (code, (tmp / "out" / "data.labelled.csv").read_bytes().decode("utf-8"),
            (tmp / "out" / "data.labels.txt").read_bytes().decode("utf-8"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dataset_texts(), ground_truths(), st.sampled_from(("Benign", "Normal, quiet", 'a "b"')),
       st.booleans())
def test_label_writes_what_csv_reader_the_labels_and_csv_writer_make(
        dataset, ground_truth, benign_label, bidirectional):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = ["--benign-label", benign_label] + (["--bidirectional"] if bidirectional else [])
        code, labelled, summary = label(tmp, dataset, ground_truth, argv)
        try:
            expected = (0, *labelled_csv(dataset, tmp / "gt.csv", benign_label, bidirectional))
        except HeraError:
            expected = (2, "", "")
    assert (code, labelled, summary) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dataset_texts())
def test_read_csv_reads_what_csv_reader_reads(dataset):
    rows = list(csv.reader(io.StringIO(dataset, newline="")))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(dataset.encode("utf-8"))
        assert read_csv(path) == ((rows[0], rows[1:]) if rows else ([], []))


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_labelling_an_unquoted_dataset_builds_no_csv_reader(tmp_path, monkeypatch, ending):
    dataset = ("sbytes,stime,ltime,proto,saddr,sport,daddr,dport,x\n"
               "120,10.000000,12.000000,tcp,10.0.0.1,40000,10.0.0.2,80,a,b,c\n"
               "64,11.000000,11.500000,udp,10.0.0.1,53,10.0.0.2,5353\n").replace("\n", ending)
    ground_truth = "SrcAddr,Sport,Label\n10.0.0.1,40000,DoS\n".replace("\n", ending)
    (tmp_path / "oracle.csv").write_text(ground_truth, encoding="utf-8")
    expected = labelled_csv(dataset, tmp_path / "oracle.csv", "Benign", False)

    def no_reader(*args, **kwargs):
        raise AssertionError("a csv.reader was built")

    monkeypatch.setattr(csv, "reader", no_reader)
    assert label(tmp_path, dataset, ground_truth) == (0, *expected)
