"""The in-repo format documents and README's flag tables are normative;
keep them equal to the code."""

import argparse
import csv
import re
from pathlib import Path

from hera.cli import build_parser
from hera.features import (
    ALWAYS_ON,
    CATALOG,
    DEFAULT_FEATURES,
    PRESETS,
    PRESET_BOT_IOT,
    PRESET_CIC_IDS2017,
    PRESET_UNSW_NB15,
)
from hera.flows import ExportConfig
from hera.herafile import KIND_CONVERTERS, HeraHeader, format_header
from hera.timefmt import MAX_DIGITS, WRITTEN_INT, WRITTEN_TIME
from helpers import record_field_kinds

SEC = 1_000_000
DOCS = Path(__file__).resolve().parent.parent / "docs"
README = DOCS.parent / "README.md"


def catalog_table() -> list[list[str]]:
    """The rows docs/feature_catalog.csv should hold: a header, then one
    row per feature of the catalog with the presets that select it."""
    rows = [["position", "name", "group", "unit", "always_on", "default",
             "unsw_nb15", "bot_iot", "cic_ids2017", "description"]]
    for pos, feature in enumerate(CATALOG, start=1):
        marks = ["yes" if feature.name in chosen else "" for chosen in (
            ALWAYS_ON, DEFAULT_FEATURES, PRESET_UNSW_NB15, PRESET_BOT_IOT, PRESET_CIC_IDS2017)]
        rows.append([str(pos), feature.name, feature.group, feature.unit, *marks,
                     feature.description])
    return rows


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


def test_format_doc_gives_the_written_forms_of_integers_and_times():
    text = (DOCS / "hera-format.md").read_text(encoding="utf-8")
    table = text.split("### Value kinds", 1)[1].split("\n\n", 2)[1]
    forms = dict(re.findall(r"^\| ([a-z]+) \|.*\| `([^`]*)` \|$", table, flags=re.M))
    assert (forms["int"], forms["time"]) == (WRITTEN_INT, WRITTEN_TIME)


def test_docs_give_the_digit_bound_of_timefmt():
    """Every "N digits" (but Python's "4,300 digits") and "10^N seconds"
    figure of README and the format doc is MAX_DIGITS's."""
    for path in (README, DOCS / "hera-format.md"):
        text = path.read_text(encoding="utf-8")
        assert set(re.findall(r"(?<![0-9,])([0-9]+)[ -]digits?\b", text)) == {str(MAX_DIGITS)}
        assert set(re.findall(r"10\^([0-9]+) seconds", text)) == {str(MAX_DIGITS - 6)}


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


def test_readme_lists_each_flag_whose_workspace_key_is_not_its_name():
    section = README.read_text(encoding="utf-8").split("## Workspace file", 1)[1].split("\n## ")[0]
    listed = dict(re.findall(r"^\| `(--[a-z-]+)` \| `([a-z_]+)` \|$", section, flags=re.M))
    others = {flag: key for key, flag in build_parser().flags.items()
              if flag.startswith("--") and flag[2:].replace("-", "_") != key}
    assert listed == others == {"--gt": "ground_truth", "--in": "inputs",
                                "--slack": "reorder_slack"}


def defaults_us(text: str) -> list[float]:
    """Each "(default N)" of `text`, N seconds, in microseconds."""
    return [float(seconds) * SEC for seconds in re.findall(r"\(default ([0-9.]+)\)", text)]


def test_export_time_defaults_in_help_and_readme_are_export_configs():
    """`ExportConfig` alone holds the default interval and slack; the
    "(default N)" of the flags' help and of README's `hera export` table
    are copies of it, in seconds."""
    [commands] = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    section = README.read_text(encoding="utf-8").split("### `hera export`", 1)[1]
    config = ExportConfig()
    for flag, default_us in (("--interval", config.interval_us),
                             ("--slack", config.reorder_slack_us)):
        for command in ("export", "run"):
            [help_text] = [action.help for action in commands.choices[command]._actions
                           if flag in action.option_strings]
            assert defaults_us(help_text) == [default_us], (command, flag)
        [row] = re.findall(rf"^\| `{flag} N` \| (.*) \|$", section, flags=re.M)
        assert defaults_us(row) == [default_us], flag


def test_features_help_and_readme_name_exactly_the_presets():
    """`select_feature_set` alone reads the text of --features; the preset
    names its help and README's `hera dataset` table give are copies of
    `PRESETS`, written with `-`."""
    presets = sorted(name.replace("_", "-") for name in PRESETS)
    [commands] = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    for command in ("dataset", "run"):
        [help_text] = [action.help for action in commands.choices[command]._actions
                       if "--features" in action.option_strings]
        assert sorted(help_text.split(" or ")[0].split("|")) == presets, command
    section = README.read_text(encoding="utf-8").split("### `hera dataset`", 1)[1]
    [row] = re.findall(r"^\| `--features X` \| (.*) \|$", section, flags=re.M)
    assert sorted(re.findall(r"`([a-z0-9-]+)`", row.split(", or ")[0])) == presets
