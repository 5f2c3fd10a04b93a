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

from dataclasses import dataclass, field

from .errors import CorruptRecord, FlowFileBadMagic, UnsupportedVersion, not_utf8
from .flows import ExportConfig, FlowRecord, canonical_key, render_flags
from .timefmt import text_to_us, us_to_text

MAGIC_PREFIX = "#HERA "
VERSION_TOKEN = "v1"
MAGIC_LINE = MAGIC_PREFIX + VERSION_TOKEN

# (file suffix, value kind, EndpointStats attribute)
_ENDPOINT_FIELDS = (
    ("pkts", "int", "pkts"),
    ("bytes", "int", "bytes"),
    ("appbytes", "int", "appbytes"),
    ("datapkts", "int", "datapkts"),
    ("minsz", "oint", "sz_min"),
    ("maxsz", "oint", "sz_max"),
    ("sqsz", "int", "sz_sumsq"),
    ("minappsz", "oint", "app_min"),
    ("maxappsz", "oint", "app_max"),
    ("sqappsz", "int", "app_sumsq"),
    ("ttl", "oint", "ttl_first"),
    ("minttl", "oint", "ttl_min"),
    ("maxttl", "oint", "ttl_max"),
    ("tos", "oint", "tos_first"),
    ("win", "oint", "win_first"),
    ("tcpb", "oint", "tcpb_first"),
    ("fin", "int", "fin_cnt"),
    ("syn", "int", "syn_cnt"),
    ("rst", "int", "rst_cnt"),
    ("psh", "int", "psh_cnt"),
    ("ack", "int", "ack_cnt"),
    ("urg", "int", "urg_cnt"),
    ("stime", "otime", "first_ts_us"),
    ("ltime", "otime", "last_ts_us"),
    ("ipsum", "time", "iat_sum_us"),
    ("ipsq", "int", "iat_sumsq"),
    ("ipmin", "otime", "iat_min_us"),
    ("ipmax", "otime", "iat_max_us"),
)

# (field name, value kind, FlowRecord attribute)
_RECORD_FIELDS = (
    ("stime", "time", "stime_us"),
    ("ltime", "time", "ltime_us"),
    ("runtime", "time", "runtime_us"),
    ("idle", "time", "idle_us"),
    ("slice", "int", "slice_index"),
    ("mgmt", "bool", "is_management"),
    ("state", "ostr", "tcp_state"),
    ("flgs", "flags", "flgs"),
    ("ipsum", "time", "iat_sum_us"),
    ("ipsq", "int", "iat_sumsq"),
    ("ipmin", "otime", "iat_min_us"),
    ("ipmax", "otime", "iat_max_us"),
    ("synack", "otime", "synack_us"),
    ("ackdat", "otime", "ackdat_us"),
    ("vlan", "oint", "vlan_id"),
    ("ipver", "oint", "ip_version"),
    ("frag", "int", "frag_count"),
    ("flows", "oint", "flows"),
)

# (field name, value kind) of the flow key, which parse_record reads itself
_KEY_FIELDS = (("saddr", "str"), ("sport", "int"), ("daddr", "str"), ("dport", "int"),
               ("proto", "str"))


def _fmt(kind: str, value) -> str:
    if kind == "int":
        return str(value)
    if kind == "oint" or kind == "ostr":
        return "" if value is None else str(value)
    if kind == "time" or kind == "otime":
        return us_to_text(value)
    if kind == "bool":
        return "1" if value else "0"
    if kind == "flags":
        return render_flags(value)
    raise AssertionError(kind)


def _parse(kind: str, text: str):
    if kind == "int":
        return int(text)
    if kind == "oint":
        return None if text == "" else int(text)
    if kind == "time":
        return text_to_us(text)
    if kind == "otime":
        return None if text == "" else text_to_us(text)
    if kind == "bool":
        if text not in ("0", "1"):
            raise ValueError(f"bad bool value {text!r}")
        return text == "1"
    if kind == "flags":
        flags = set(text)
        if render_flags(flags) != text:
            raise ValueError(f"bad flags value {text!r}")
        return flags
    if kind == "ostr":
        return None if text == "" else text
    raise AssertionError(kind)


def record_field_kinds() -> list[tuple[str, str]]:
    """The (name, value kind) of each field of a v1 record line, in order."""
    kinds = list(_KEY_FIELDS)
    kinds += [(name, kind) for name, kind, _ in _RECORD_FIELDS[:8]]
    for prefix in "sd":
        kinds += [(prefix + suffix, kind) for suffix, kind, _ in _ENDPOINT_FIELDS]
    kinds += [(name, kind) for name, kind, _ in _RECORD_FIELDS[8:]]
    return kinds


def record_field_names() -> list[str]:
    """The full field order of a v1 record line."""
    return [name for name, _ in record_field_kinds()]


def format_record(rec: FlowRecord) -> str:
    parts = [
        f"saddr={rec.saddr}",
        f"sport={rec.sport}",
        f"daddr={rec.daddr}",
        f"dport={rec.dport}",
        f"proto={rec.key.proto}",
    ]
    for name, kind, attr in _RECORD_FIELDS[:8]:
        parts.append(f"{name}={_fmt(kind, getattr(rec, attr))}")
    for prefix, stats in (("s", rec.src), ("d", rec.dst)):
        for suffix, kind, attr in _ENDPOINT_FIELDS:
            parts.append(f"{prefix}{suffix}={_fmt(kind, getattr(stats, attr))}")
    for name, kind, attr in _RECORD_FIELDS[8:]:
        parts.append(f"{name}={_fmt(kind, getattr(rec, attr))}")
    for name, value in rec.extra.items():
        parts.append(f"{name}={value}")
    return " ".join(parts)


_KNOWN_FIELDS = frozenset(record_field_names())


def parse_record(line: str, line_number: int) -> FlowRecord:
    pairs = {}
    extra = {}
    for token in line.split(" "):
        name, sep, value = token.partition("=")
        if not sep or not name:
            raise CorruptRecord(line_number, f"malformed token {token!r}")
        if name in pairs or name in extra:
            raise CorruptRecord(line_number, f"duplicate field {name!r}")
        if name in _KNOWN_FIELDS:
            pairs[name] = value
        else:
            extra[name] = value
    for required in ("saddr", "sport", "daddr", "dport", "proto", "stime", "ltime"):
        if required not in pairs or (required != "proto" and pairs[required] == ""):
            raise CorruptRecord(line_number, f"missing field {required!r}")
    try:
        key, initiator = canonical_key(pairs["saddr"], int(pairs["sport"]),
                                       pairs["daddr"], int(pairs["dport"]), pairs["proto"])
        rec = FlowRecord(
            key=key, initiator=initiator,
            stime_us=text_to_us(pairs["stime"]),
            ltime_us=text_to_us(pairs["ltime"]),
        )
        for name, kind, attr in _RECORD_FIELDS:
            if name in pairs:
                setattr(rec, attr, _parse(kind, pairs[name]))
        for prefix, stats in (("s", rec.src), ("d", rec.dst)):
            for suffix, kind, attr in _ENDPOINT_FIELDS:
                name = prefix + suffix
                if name in pairs:
                    setattr(stats, attr, _parse(kind, pairs[name]))
    except (ValueError, KeyError) as exc:
        raise CorruptRecord(line_number, str(exc)) from exc
    rec.extra = extra
    return rec


@dataclass
class HeraHeader:
    sources: list[str] = field(default_factory=list)
    config: ExportConfig = field(default_factory=ExportConfig)
    capture_start_us: int | None = None
    capture_end_us: int | None = None
    extra: list[str] = field(default_factory=list)  # unknown header lines, verbatim


@dataclass
class HeraFile:
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
        cfg_kwargs["emit_management"] = value == "true"
    elif name == "capture_start":
        header.capture_start_us = text_to_us(value) if value else None
    elif name == "capture_end":
        header.capture_end_us = text_to_us(value) if value else None
    elif name == "source":
        header.sources.append(value)
    else:
        header.extra.append(line)
