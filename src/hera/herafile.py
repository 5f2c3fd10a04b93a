"""Reading and writing .hera flow files.

A .hera file is line-oriented UTF-8 text: a magic line, `#key=value`
header lines echoing the export configuration and naming the source
captures, then one record per line as space-separated `name=value` pairs
in a fixed field order. All times are seconds with exactly six decimals,
so identical inputs and configuration re-emit byte-identical files.
Unknown header lines and unknown record fields are preserved opaquely so
files from newer minor revisions survive a rewrite.
"""

from __future__ import annotations

import re
from functools import cache
from typing import Callable, NamedTuple

from .errors import CorruptRecord, FlowFileBadMagic, UnsupportedVersion, not_utf8
from .flows import (
    ENDPOINT_FIELDS,
    ENDPOINT_STATS,
    FLAG_TEXT,
    FLAG_VALUES,
    RECORD_FIELDS,
    EndpointStats,
    ExportConfig,
    FlowRecord,
    canonical_key,
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
        raise ValueError(f"bad bool value {text!r}")
    return text == "1"


def _flags_from_text(text: str) -> int:
    flags = FLAG_VALUES.get(text)
    if flags is None:
        raise ValueError(f"bad flags value {text!r}")
    return flags


# Each value kind's converters, in the order of the "Value kinds" table
# of docs/hera-format.md: (to-text, from-text, written pattern, written
# from-text). To-text and written from-text are the kernels' expression
# templates, `$` standing for the value's or the text's expression; an
# optional text takes the optional-int template. The written pattern
# matches exactly the text to-text can write, and the written from-text
# reads a text that matched it: a time as the integer its digits spell
# without the dot, flags as each of their letters, optional, in
# FLAG_TEXT's order (that of the value with all six). The strict
# from-text callables serve the general reader.
KIND_CONVERTERS: dict[str, tuple[str, Callable, str, str]] = {
    "int": (TO_TEXT["int"], text_to_int, WRITTEN_INT, "int($)"),
    "oint": (TO_TEXT["oint"], _optional(text_to_int), f"(?:{WRITTEN_INT})?",
             "int($) if $ else None"),
    "str": (TO_TEXT["text"], str, "[^ ]*", "$"),
    "ostr": (TO_TEXT["oint"], _optional(str), "[^ ]*", "$ or None"),
    "time": (TO_TEXT["time"], text_to_us, WRITTEN_TIME, "int($.replace('.', ''))"),
    "otime": (TO_TEXT["time"], _optional(text_to_us), f"(?:{WRITTEN_TIME})?",
              "int($.replace('.', '')) if $ else None"),
    "bool": ("'1' if $ else '0'", _bool_from_text, "[01]", "$ == '1'"),
    "flags": ("FLAG_TEXT[$]", _flags_from_text,
              "".join(letter + "?" for letter in FLAG_TEXT[-1]), "FLAG_VALUES[$]"),
}

# (name suffix, value kind, EndpointStats attribute) of the statistics
# each side of a record carries, in line order.
_SIDE_FIELDS = tuple((suffix, kind, attr) for attr, suffix, kind, _, _ in ENDPOINT_STATS)


# Every field of a v1 record line, in line order: (name, value kind,
# owner, attribute). "key" fields are read off the record and oriented
# with canonical_key on reading, "record" fields are FlowRecord
# attributes, and "src"/"dst" fields those of the source's and the
# destination's EndpointStats.
_LINE = (
    ("saddr", "str", "key", "saddr"),
    ("sport", "int", "key", "sport"),
    ("daddr", "str", "key", "daddr"),
    ("dport", "int", "key", "dport"),
    ("proto", "str", "key", "key.proto"),
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
_KNOWN_FIELDS = frozenset(_NAMES)


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
    """The function record -> its line without unknown fields: one
    f-string, a literal per field of _LINE, each value in its kind's
    to-text template."""
    owner_names = {"key": "rec.", "record": "rec.", "src": "s.", "dst": "d."}
    literals = []
    for name, kind, owner, attr in _LINE:
        value = KIND_CONVERTERS[kind][0].replace("$", owner_names[owner] + attr)
        separator = " " if literals else ""
        literals.append(f'        f"{separator}{name}={{{value}}}"\n')
    source = ("def kernel(rec):\n    s = rec.src\n    d = rec.dst\n"
              f"    return (\n{''.join(literals)}    )\n")
    return compile_kernel("format_record", source, {"FLAG_TEXT": FLAG_TEXT})


def format_record(rec: FlowRecord) -> str:
    line = _writer()(rec)
    if rec.extra:
        line += "".join(f" {name}={value}" for name, value in rec.extra.items())
    return line


def parse_record(line: str, line_number: int) -> FlowRecord:
    """The record of one line: read positionally when the line is in the
    form format_record writes, by field name otherwise."""
    record = _parse_written(line)
    return _parse_general(line, line_number) if record is None else record


def _parse_written(line: str) -> FlowRecord | None:
    """The record of a line in written form, or None for any other line.
    A value int() refuses (more digits than its limit) is left to the
    general reader, which reports it."""
    return _written_line()(line)


# A reader kernel. Its head puts each field's text or value into a local
# named after the field; each local goes through its kind's template, and
# the key, both EndpointStats and the record are built by position.
_READER = """\
def kernel({parameters}):
{head}    try:
        src = EndpointStats({src})
        dst = EndpointStats({dst})
        key, initiator = canonical_key({key})
        a, b = (src, dst) if initiator == 'a' else (dst, src)
        return FlowRecord({record}, extra={extra})
    except ValueError:
        return None
"""


def _compile_reader(label: str, parameters: str, head: str, extra: str, template, namespace):
    """The reader kernel whose locals go through template(kind)."""
    value = {(owner, attr): template(kind).replace("$", name) for name, kind, owner, attr in _LINE}
    built = {"key": "key", "initiator": "initiator", "a": "a", "b": "b",
             **{attr: text for (owner, attr), text in value.items() if owner == "record"}}
    source = _READER.format(
        parameters=parameters, head=head, extra=extra,
        src=", ".join(value["src", attr] for attr, _ in ENDPOINT_FIELDS),
        dst=", ".join(value["dst", attr] for attr, _ in ENDPOINT_FIELDS),
        key=", ".join(text for (owner, _), text in value.items() if owner == "key"),
        record=", ".join(built[attr] for attr, _ in RECORD_FIELDS[:len(built)]))
    namespace.update(EndpointStats=EndpointStats, FlowRecord=FlowRecord,
                     canonical_key=canonical_key)
    return compile_kernel(label, source, namespace)


@cache
def _written_line():
    """The reader of a line in the form format_record writes, behind
    _parse_written: one pattern has every field of _LINE in order, each
    value in its kind's written form, one group per field, and each group
    goes through its kind's written from-text template. Compiled on first
    read, so that writing never pays for it."""
    non_empty = {"saddr": "[^ ]+", "daddr": "[^ ]+"}  # a missing field when empty
    pattern = re.compile(" ".join(
        f"{name}=({non_empty.get(name) or KIND_CONVERTERS[kind][2]})"
        for name, kind, *_ in _LINE))
    head = ("    match = fullmatch(line)\n    if match is None:\n        return None\n"
            f"    {', '.join(_NAMES)} = match.groups()\n")
    namespace = {"fullmatch": pattern.fullmatch, "FLAG_VALUES": FLAG_VALUES}
    return _compile_reader("_parse_written", "line", head, "{}",
                           lambda kind: KIND_CONVERTERS[kind][3], namespace)


@cache
def _record():
    """The function (values in line order, unknown fields) -> record of
    the general reader; its values are converted, so it meets no ValueError."""
    return _compile_reader("_record", "values, extra", f"    {', '.join(_NAMES)} = values\n",
                           "extra", lambda kind: "$", {})


def _parse_general(line: str, line_number: int) -> FlowRecord:
    """The record of a line with its known fields in any order and any
    unknown fields, or CorruptRecord naming what is wrong with it: the
    first bad value in line order."""
    pairs = {}
    for token in line.split(" "):
        name, sep, value = token.partition("=")
        if not sep or not name:
            raise CorruptRecord(line_number, f"malformed token {token!r}")
        if name in pairs:
            raise CorruptRecord(line_number, f"duplicate field {name!r}")
        pairs[name] = value
    extra = ({} if pairs.keys() <= _KNOWN_FIELDS else
             {name: value for name, value in pairs.items() if name not in _KNOWN_FIELDS})
    for required in ("saddr", "sport", "daddr", "dport", "proto", "stime", "ltime"):
        if required not in pairs or (required != "proto" and pairs[required] == ""):
            raise CorruptRecord(line_number, f"missing field {required!r}")
    try:
        values = [from_text(pairs[name]) if name in pairs else default
                  for name, (_, from_text, _, _), default in zip(_NAMES, _CONVERTERS, _DEFAULTS)]
    except ValueError as exc:
        raise CorruptRecord(line_number, str(exc)) from exc
    return _record()(values, extra)


@slotted((
    ("sources", list),
    ("config", ExportConfig),
    ("capture_start_us", None),
    ("capture_end_us", None),
    ("extra", list),  # unknown header lines, verbatim
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
    lines += header.extra
    return lines


def write_hera(path, header: HeraHeader, records) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        for line in format_header(header):
            fp.write(line + "\n")
        for rec in records:
            fp.write(format_record(rec) + "\n")


def read_hera(path) -> HeraFile:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fp:
            return _read_lines(path, fp)
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    except CorruptRecord as exc:
        raise CorruptRecord(exc.line_number, exc.reason, path) from None


def _read_lines(path, fp) -> HeraFile:
    first = fp.readline()
    if not first.startswith(MAGIC_PREFIX):
        raise FlowFileBadMagic(f"{path}: not a flow file (missing {MAGIC_LINE!r})")
    if first.endswith("\r\n"):
        raise CorruptRecord(1, "CRLF (\\r\\n) line ending; .hera lines end in \\n alone")
    version = first[len(MAGIC_PREFIX):].strip()
    if version != VERSION_TOKEN:
        raise UnsupportedVersion(version, path)
    header = HeraHeader()
    cfg_kwargs = {}
    records = []
    for line_number, raw in enumerate(fp, start=2):
        line = raw.rstrip("\n")
        if not line:
            continue
        if "\0" in line:
            raise CorruptRecord(line_number, "line contains NUL")
        if line.startswith("#"):
            try:
                _read_header_line(line, header, cfg_kwargs)
            except ValueError as exc:
                raise CorruptRecord(line_number, str(exc)) from None
            continue
        records.append(parse_record(line, line_number))
    header.config = ExportConfig(**cfg_kwargs)
    for i, rec in enumerate(records):
        rec.seq = i
    return HeraFile(header, records)


def _read_header_line(line: str, header: HeraHeader, cfg_kwargs: dict) -> None:
    name, sep, value = line[1:].partition("=")
    if not sep:
        header.extra.append(line)
    elif name in ("interval", "idle_timeout", "reorder_slack"):
        setting = {name + "_us": text_to_us(value)}
        ExportConfig(**setting)  # the config's own range check, raised on this line
        cfg_kwargs.update(setting)
    elif name == "emit_management":
        if value not in ("true", "false"):
            raise ValueError(f"emit_management must be true or false, got {value!r}")
        cfg_kwargs["emit_management"] = value == "true"
    elif name == "capture_start":
        header.capture_start_us = text_to_us(value) if value else None
    elif name == "capture_end":
        header.capture_end_us = text_to_us(value) if value else None
    elif name == "source":
        header.sources.append(value)
    else:
        header.extra.append(line)
