"""Reading and writing .hera flow files.

A .hera file is line-oriented UTF-8 text: a magic line, `#key=value`
header lines echoing the export configuration and naming the source
captures, then one record per line as space-separated `name=value` pairs
in a fixed field order. All times are seconds with exactly six decimals,
so identical inputs and configuration re-emit byte-identical files.
Readers skip unknown header lines and unknown record fields, so files
from newer minor revisions still read; they are not kept, and writers
emit only the fields hera knows.
"""

from __future__ import annotations

import re
from functools import cache
from typing import Callable, NamedTuple

from .errors import HeraError, excerpt, not_utf8
from .flows import (
    ENDPOINT_FIELDS,
    ENDPOINT_STATS,
    EXPORT_TIMES,
    FLAG_TEXT,
    FLAG_VALUES,
    ORIENT_KEY,
    RECORD_FIELDS,
    RECORD_KERNEL_HEAD,
    EndpointStats,
    ExportConfig,
    FlowKey,
    FlowRecord,
)
from .kernels import REQUIRED, TO_TEXT, compile_kernel, slotted
from .timefmt import WRITTEN_INT, WRITTEN_TIME, text_to_int, text_to_us, us_to_text

MAGIC_PREFIX = "#HERA "
VERSION_TOKEN = "v1"
MAGIC_LINE = MAGIC_PREFIX + VERSION_TOKEN


def _optional(from_text):
    """from_text, except that empty text reads as None."""
    return lambda text: None if text == "" else from_text(text)


def _bool_from_text(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"bad bool value {excerpt(text)}")
    return text == "1"


def _flags_from_text(text: str) -> int:
    flags = FLAG_VALUES.get(text)
    if flags is None:
        raise ValueError(f"bad flags value {excerpt(text)}")
    return flags


# Each value kind's converters, in the order of the "Value kinds" table
# of docs/hera-format.md: (to-text, from-text, written pattern, written
# from-text). To-text and written from-text are the kernels' expression
# templates, `$` standing for the value's or the text's expression; an
# optional text takes the optional-int template. The written pattern
# matches exactly the text to-text can write of a value within
# timefmt.MAX_DIGITS, and the written from-text reads a text that matched
# it: a time as the integer its digits spell without the dot, flags as
# each of their letters, optional, in FLAG_TEXT's order (that of the
# value with all six). An optional value's pattern is `X|`, for a group:
# sre reads `(X|)` faster than `((?:X)?)`. The strict from-text callables
# serve the general reader.
KIND_CONVERTERS: dict[str, tuple[str, Callable, str, str]] = {
    "int": (TO_TEXT["int"], text_to_int, WRITTEN_INT, "int($)"),
    "oint": (TO_TEXT["oint"], _optional(text_to_int), f"{WRITTEN_INT}|",
             "int($) if $ else None"),
    "str": (TO_TEXT["text"], str, "[^ ]*", "$"),
    "ostr": (TO_TEXT["oint"], _optional(str), "[^ ]*", "$ or None"),
    "time": (TO_TEXT["time"], text_to_us, WRITTEN_TIME, "int($.replace('.', ''))"),
    "otime": (TO_TEXT["time"], _optional(text_to_us), f"{WRITTEN_TIME}|",
              "int($.replace('.', '')) if $ else None"),
    "bool": ("'1' if $ else '0'", _bool_from_text, "[01]", "$ == '1'"),
    "flags": ("FLAG_TEXT[$]", _flags_from_text,
              "".join(letter + "?" for letter in FLAG_TEXT[-1]), "FLAG_VALUES[$]"),
}

# (name suffix, value kind, EndpointStats attribute) of the statistics
# each side of a record carries, in line order.
_SIDE_FIELDS = tuple((suffix, kind, attr) for attr, suffix, kind, _, _ in ENDPOINT_STATS)


# Every field of a v1 record line, in line order: (name, value kind,
# owner, attribute). "key" fields are the writer's oriented locals
# (flows.RECORD_KERNEL_HEAD), which the reader kernel orients into the
# FlowKey; "record" fields are FlowRecord attributes, and "src"/"dst"
# fields those of the source's and the destination's EndpointStats.
_LINE = (
    ("saddr", "str", "key", "sa"),
    ("sport", "int", "key", "sp"),
    ("daddr", "str", "key", "da"),
    ("dport", "int", "key", "dp"),
    ("proto", "str", "key", "k.proto"),
    ("stime", "time", "record", "stime_us"),
    ("ltime", "time", "record", "ltime_us"),
    ("runtime", "time", "record", "runtime_us"),
    ("idle", "time", "record", "idle_us"),
    ("slice", "int", "record", "slice_index"),
    ("mgmt", "bool", "record", "is_management"),
    ("state", "ostr", "record", "tcp_state"),
    ("flgs", "flags", "record", "flgs"),
    *[("s" + suffix, kind, "src", attr) for suffix, kind, attr in _SIDE_FIELDS],
    *[("d" + suffix, kind, "dst", attr) for suffix, kind, attr in _SIDE_FIELDS],
    ("ipsum", "time", "record", "iat_sum_us"),
    ("ipsq", "int", "record", "iat_sumsq"),
    ("ipmin", "otime", "record", "iat_min_us"),
    ("ipmax", "otime", "record", "iat_max_us"),
    ("synack", "otime", "record", "synack_us"),
    ("ackdat", "otime", "record", "ackdat_us"),
    ("vlan", "oint", "record", "vlan_id"),
    ("ipver", "oint", "record", "ip_version"),
    ("frag", "int", "record", "frag_count"),
    ("flows", "oint", "record", "flows"),
)

_NAMES = tuple(name for name, *_ in _LINE)


# Each field's converters, in line order.
_CONVERTERS = tuple(KIND_CONVERTERS[kind] for _, kind, *_ in _LINE)

# The value of each field a line may leave out: its attribute's declared
# default. The required fields take none.
_RECORD_DEFAULTS = {attr: default for attr, default in RECORD_FIELDS if default is not REQUIRED}
_SIDE_DEFAULTS = dict(ENDPOINT_FIELDS)
_DEFAULTS = tuple((_RECORD_DEFAULTS if owner == "record" else _SIDE_DEFAULTS).get(attr)
                  for _, _, owner, attr in _LINE)


@cache
def _writer():
    """The function record -> its line: one f-string, a literal per
    field of _LINE, each value in its kind's to-text template."""
    owner_names = {"key": "", "record": "r.", "src": "s.", "dst": "d."}
    literals = []
    for name, kind, owner, attr in _LINE:
        value = KIND_CONVERTERS[kind][0].replace("$", owner_names[owner] + attr)
        separator = " " if literals else ""
        literals.append(f'        f"{separator}{name}={{{value}}}"\n')
    source = f"def kernel(r):\n{RECORD_KERNEL_HEAD}    return (\n{''.join(literals)}    )\n"
    return compile_kernel("format_record", source, {"FLAG_TEXT": FLAG_TEXT})


def format_record(rec: FlowRecord) -> str:
    return _writer()(rec)


# A reader kernel. Its head puts each field's text or value into a local
# named after the field; each local goes through its kind's template, and
# the key, both EndpointStats and the record are built by position. The
# key is oriented by flows.ORIENT_KEY, as a packet's is.
_READER = """\
def kernel({parameters}):
{head}    src = EndpointStats({src})
    dst = EndpointStats({dst})
    sport, dport = {ports}
{orient}    a, b = (src, dst) if sender == 'a' else (dst, src)
    return FlowRecord({record})
"""


def _compile_reader(label: str, parameters: str, head: str, template, namespace):
    """The reader kernel whose locals go through template(kind)."""
    value = {(owner, attr): template(kind).replace("$", name) for name, kind, owner, attr in _LINE}
    built = {"key": "new(FlowKey, key)", "initiator": "sender", "a": "a", "b": "b",
             **{attr: text for (owner, attr), text in value.items() if owner == "record"}}
    source = _READER.format(
        parameters=parameters, head=head, orient=ORIENT_KEY,
        src=", ".join(value["src", attr] for attr, _ in ENDPOINT_FIELDS),
        dst=", ".join(value["dst", attr] for attr, _ in ENDPOINT_FIELDS),
        ports=f"{value['key', 'sp']}, {value['key', 'dp']}",
        record=", ".join(built[attr] for attr, _ in RECORD_FIELDS[:len(built)]))
    namespace.update(EndpointStats=EndpointStats, FlowRecord=FlowRecord, FlowKey=FlowKey,
                     new=tuple.__new__)
    return compile_kernel(label, source, namespace)


@cache
def _written_line():
    """The function line -> its record, for a line in the form
    format_record writes, or None for any other line: one pattern has
    every field of _LINE in order, each value in its kind's written form,
    one group per field, and each group goes through its kind's written
    from-text template. The written patterns bound every integer and
    time at timefmt.MAX_DIGITS, so a longer value is not written form and
    falls to the general reader, which reports it. Compiled on first read, so
    that writing never pays for it."""
    non_empty = {"saddr": "[^ ]+", "daddr": "[^ ]+"}  # a missing field when empty
    pattern = re.compile(" ".join(
        f"{name}=({non_empty.get(name) or KIND_CONVERTERS[kind][2]})"
        for name, kind, *_ in _LINE))
    head = ("    match = fullmatch(line)\n    if match is None:\n        return None\n"
            f"    {', '.join(_NAMES)} = match.groups()\n")
    namespace = {"fullmatch": pattern.fullmatch, "FLAG_VALUES": FLAG_VALUES}
    return _compile_reader("_parse_written", "line", head,
                           lambda kind: KIND_CONVERTERS[kind][3], namespace)


@cache
def _record():
    """The function values in line order -> record of the general
    reader, whose values are converted already."""
    return _compile_reader("_record", "values", f"    {', '.join(_NAMES)} = values\n",
                           lambda kind: "$", {})


def _parse_general(line: str) -> FlowRecord:
    """The record of a line with its known fields in any order and any
    unknown fields, which it skips, or a ValueError naming what is wrong
    with it: the first bad value in line order."""
    pairs = {}
    for token in line.split(" "):
        name, sep, value = token.partition("=")
        if not sep or not name:
            raise ValueError(f"malformed token {excerpt(token)}")
        if name in pairs:
            raise ValueError(f"duplicate field {excerpt(name)}")
        pairs[name] = value
    for required in ("saddr", "sport", "daddr", "dport", "proto", "stime", "ltime"):
        if required not in pairs or (required != "proto" and pairs[required] == ""):
            raise ValueError(f"missing field {required!r}")
    return _record()([from_text(pairs[name]) if name in pairs else default
                      for name, (_, from_text, _, _), default
                      in zip(_NAMES, _CONVERTERS, _DEFAULTS)])


@slotted((
    ("sources", list),
    ("config", ExportConfig),
    ("capture_start_us", None),
    ("capture_end_us", None),
))
class HeraHeader:
    """The header lines of a .hera file."""


class HeraFile(NamedTuple):
    header: HeraHeader
    records: list[FlowRecord]


def format_header(header: HeraHeader) -> list[str]:
    cfg = header.config
    lines = [
        MAGIC_LINE,
        f"#interval={us_to_text(cfg.interval_us)}",
        f"#idle_timeout={us_to_text(cfg.idle_timeout_us)}",
        f"#emit_management={'true' if cfg.emit_management else 'false'}",
        f"#reorder_slack={us_to_text(cfg.reorder_slack_us)}",
        f"#capture_start={us_to_text(header.capture_start_us)}",
        f"#capture_end={us_to_text(header.capture_end_us)}",
    ]
    lines += [f"#source={name}" for name in header.sources]
    return lines


def write_hera(path, header: HeraHeader, records) -> None:
    record_line = _writer()
    with open(path, "w", encoding="utf-8", newline="") as fp:
        for line in format_header(header):
            fp.write(line + "\n")
        for rec in records:
            fp.write(record_line(rec) + "\n")


def read_hera(path) -> HeraFile:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fp:
            return _read_lines(path, fp)
    except UnicodeDecodeError:
        raise not_utf8(path) from None


def _read_lines(path, fp) -> HeraFile:
    """The file read from `fp`. The reason a line after the first is
    refused, a ValueError's message, becomes a HeraError naming the
    path and the line in one place, here."""
    first = fp.readline()
    if not first.startswith(MAGIC_PREFIX):
        raise HeraError(f"{path}: not a flow file (missing {MAGIC_LINE!r})")
    if first.endswith("\r\n"):
        raise HeraError(f"{path}: line 1: CRLF (\\r\\n) line ending; "
                        ".hera lines end in \\n alone")
    version = first[len(MAGIC_PREFIX):].strip()
    if version != VERSION_TOKEN:
        raise HeraError(f"{path}: unsupported flow file version {excerpt(version)}")
    header = HeraHeader()
    cfg_kwargs = {}
    records = []
    written = _written_line()
    for line_number, raw in enumerate(fp, start=2):
        try:
            line = raw.rstrip("\n")
            if not line:
                continue
            if "\0" in line:
                raise ValueError("line contains NUL")
            if line.startswith("#"):
                _read_header_line(line, header, cfg_kwargs)
            else:
                records.append(written(line) or _parse_general(line))
        except ValueError as exc:
            raise HeraError(f"{path}: line {line_number}: {exc}") from None
    header.config = ExportConfig(**cfg_kwargs)
    for i, rec in enumerate(records):
        rec.seq = i
    return HeraFile(header, records)


def _read_header_line(line: str, header: HeraHeader, cfg_kwargs: dict) -> None:
    """Read one header line into `header` or the config's arguments. A
    line without `=` (`#source` alone) or with an unknown key is skipped.
    Times are read as a record's are."""
    name, sep, value = line[1:].partition("=")
    if not sep:
        return
    if any(name == key for key, _, _ in EXPORT_TIMES):
        setting = {name + "_us": text_to_us(value)}
        ExportConfig(**setting)  # the config's own range check, raised on this line
        cfg_kwargs.update(setting)
    elif name == "emit_management":
        if value not in ("true", "false"):
            raise ValueError(f"emit_management must be true or false, got {excerpt(value)}")
        cfg_kwargs["emit_management"] = value == "true"
    elif name == "capture_start":
        header.capture_start_us = text_to_us(value) if value else None
    elif name == "capture_end":
        header.capture_end_us = text_to_us(value) if value else None
    elif name == "source":
        header.sources.append(value)
