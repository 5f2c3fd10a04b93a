"""The in-repo format documents are normative; keep them equal to the code."""

import csv
import re
from pathlib import Path

from hera.features import catalog_table
from hera.herafile import KIND_CONVERTERS
from helpers import record_field_kinds

DOCS = Path(__file__).resolve().parent.parent / "docs"


def test_feature_catalog_csv_matches_the_catalog():
    with open(DOCS / "feature_catalog.csv", newline="", encoding="utf-8") as fp:
        rows = list(csv.reader(fp))
    assert rows == catalog_table()


def test_format_doc_lists_every_record_field_in_order():
    text = (DOCS / "hera-format.md").read_text(encoding="utf-8")
    fields = re.findall(r"^\| \d+ \| `([a-z]+)` \| ([a-z]+) \|", text, flags=re.M)
    assert fields == record_field_kinds()


def test_format_doc_lists_exactly_the_value_kinds_the_codec_converts():
    text = (DOCS / "hera-format.md").read_text(encoding="utf-8")
    table = text.split("### Value kinds", 1)[1].split("\n\n", 2)[1]
    first_cells = re.findall(r"^\| ([a-z]+) \|", table, flags=re.M)
    assert first_cells == ["kind", *KIND_CONVERTERS]


def test_format_doc_states_the_magic_line():
    text = (DOCS / "hera-format.md").read_text(encoding="utf-8")
    assert "#HERA v1" in text
