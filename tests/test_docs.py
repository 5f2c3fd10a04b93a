"""The in-repo format documents and README's flag tables are normative;
keep them equal to the code."""

import argparse
import csv
import re
from pathlib import Path

from hera.cli import build_parser
from hera.features import catalog_table
from hera.herafile import KIND_CONVERTERS, HeraHeader, format_header
from helpers import record_field_kinds

DOCS = Path(__file__).resolve().parent.parent / "docs"
README = DOCS.parent / "README.md"


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


def test_format_doc_layout_shows_the_header_keys_the_writer_writes_in_order():
    text = (DOCS / "hera-format.md").read_text(encoding="utf-8")
    layout = text.split("## Layout", 1)[1].split("```")[1]
    written = format_header(HeraHeader(sources=["monday.pcap"]))
    assert (re.findall(r"^#([a-z_]+)=", layout, flags=re.M)
            == [line[1:].partition("=")[0] for line in written[1:]])


def readme_flag_tables() -> dict[str, set[str]]:
    """The flags that each command's section of README.md lists in its
    table."""
    sections = re.split(r"^### `hera (\w+)`$", README.read_text(encoding="utf-8"), flags=re.M)
    return {name: set(re.findall(r"^\| `(--[a-z-]+)", body.split("\n## ")[0], flags=re.M))
            for name, body in zip(sections[1::2], sections[2::2])}


def parser_flags() -> dict[str, set[str]]:
    """The long flags `build_parser()` gives each subcommand, but --force
    and --help, which every command has."""
    [commands] = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    return {name: {flag for action in command._actions for flag in action.option_strings
                   if flag.startswith("--")} - {"--force", "--help"}
            for name, command in commands.choices.items()}


def test_readme_flag_tables_list_each_commands_flags():
    tables, flags = readme_flag_tables(), parser_flags()
    assert set(tables) == set(flags)
    for name in ("export", "dataset", "label"):
        assert tables[name] == flags[name], name
    # `run` takes the other three commands' flags but --in and --out, and
    # its table lists the flags it has in their place.
    inherited = (tables["export"] | tables["dataset"] | tables["label"]) - {"--in", "--out"}
    assert flags["run"] == inherited | tables["run"]
    assert not inherited & tables["run"]
