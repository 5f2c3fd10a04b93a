"""The dataset feature catalog.

Exactly 130 named features. Catalog order is normative: CSV columns
always appear in this order, and the first 22 entries form the default
preset. Eight identity features are always emitted no matter what the
selection says. Ssaddr and Sdaddr are the two features computed across
flows (windowed connection counts); everything else derives from a
single record. Undefined values are empty cells, never zero.

A statistic that exists once per side (`sbytes`/`dbytes`, ...) is
declared once, in a `_sides(...)` call inside `CATALOG`, with a
`{side}` description template; `_sides` expands it into the source
entry and then the destination entry. The TCP flag counts are built
the same way by `_flag_count_features`. Every cell function takes the
record, its source's and its destination's `EndpointStats`, and the
`RowContext`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Callable

from .errors import UnknownFeature
from .flows import FLAG_TEXT, EndpointStats, FlowRecord, opt_max, opt_min
from .timefmt import optional_text as _i, us_to_text

# Well-known ports for the service feature. The lookup key is the lower
# of the two ports, so the ephemeral side never hides the service.
SERVICE_PORTS = {
    ("tcp", 20): "ftp-data",
    ("tcp", 21): "ftp",
    ("tcp", 22): "ssh",
    ("tcp", 23): "telnet",
    ("tcp", 25): "smtp",
    ("tcp", 53): "dns",
    ("tcp", 80): "http",
    ("tcp", 88): "kerberos",
    ("tcp", 110): "pop3",
    ("tcp", 119): "nntp",
    ("tcp", 135): "msrpc",
    ("tcp", 139): "netbios-ssn",
    ("tcp", 143): "imap",
    ("tcp", 179): "bgp",
    ("tcp", 389): "ldap",
    ("tcp", 443): "https",
    ("tcp", 445): "smb",
    ("tcp", 465): "smtps",
    ("tcp", 587): "submission",
    ("tcp", 993): "imaps",
    ("tcp", 995): "pop3s",
    ("tcp", 1433): "mssql",
    ("tcp", 3306): "mysql",
    ("tcp", 3389): "rdp",
    ("tcp", 5432): "postgres",
    ("tcp", 6379): "redis",
    ("tcp", 8080): "http-alt",
    ("udp", 53): "dns",
    ("udp", 67): "dhcp",
    ("udp", 68): "dhcp",
    ("udp", 69): "tftp",
    ("udp", 123): "ntp",
    ("udp", 137): "netbios-ns",
    ("udp", 138): "netbios-dgm",
    ("udp", 161): "snmp",
    ("udp", 162): "snmp-trap",
    ("udp", 500): "isakmp",
    ("udp", 514): "syslog",
    ("udp", 1900): "ssdp",
    ("udp", 5353): "mdns",
}

UNMAPPED_SERVICE = "-"


def service_of(proto: str, sport: int, dport: int) -> str:
    return SERVICE_PORTS.get((proto, min(sport, dport)), UNMAPPED_SERVICE)


def flow_id(rec: FlowRecord) -> str:
    """Hyphen-joined destination address, source address, destination
    port, source port, and lowercase protocol."""
    return f"{rec.daddr}-{rec.saddr}-{rec.dport}-{rec.sport}-{rec.key.proto}"


@dataclass
class RowContext:
    """Per-row values that do not live on the record itself."""

    rank: int = 0
    service: str = ""
    ssaddr: int | None = None
    sdaddr: int | None = None


@dataclass(frozen=True)
class Feature:
    name: str
    group: str
    unit: str
    description: str
    # value(record, source's EndpointStats, destination's EndpointStats, context)
    value: Callable[[FlowRecord, EndpointStats, EndpointStats, RowContext], str]


# -- cell formatting helpers ------------------------------------------


def _f(x) -> str:
    return "" if x is None else f"{x:.6f}"


def _mean(total, n):
    return total / n if n > 0 else None


def _std(sumsq, total, n):
    if n <= 0:
        return None
    var = sumsq / n - (total / n) ** 2
    return math.sqrt(max(var, 0.0))


def _var(sumsq, total, n):
    if n <= 0:
        return None
    return max(sumsq / n - (total / n) ** 2, 0.0)


def _mean_us(sum_us, n):
    return sum_us / n / 1e6 if n > 0 else None


def _std_us(sumsq, sum_us, n):
    std = _std(sumsq, sum_us, n)
    return None if std is None else std / 1e6


def _per_second(count, dur_us):
    return count * 1e6 / dur_us if dur_us > 0 else None


def _span_us(stats):
    # no packets, a management record's, or a record read without one of them
    if stats.first_ts_us is None or stats.last_ts_us is None:
        return None
    return stats.last_ts_us - stats.first_ts_us


def _tcprtt_us(rec):
    if rec.synack_us is None or rec.ackdat_us is None:
        return None
    return rec.synack_us + rec.ackdat_us


def _sm_ips_ports(rec, src, dst, ctx):
    if rec.is_management:
        return ""
    same = rec.saddr == rec.daddr and rec.sport == rec.dport
    return "1" if same else "0"


_F = Feature


def _source(value):
    return lambda r, s, d, c: value(s, r)


def _destination(value):
    return lambda r, s, d, c: value(d, r)


def _sides(*stats) -> tuple[Feature, ...]:
    """The catalog entries of per-side statistics: every source entry,
    then every destination entry. Each statistic is (name without its
    s/d prefix, group, unit, description with a {side} slot, value),
    where value(one side's EndpointStats, record) renders its cell."""
    return tuple(
        _F(prefix + name, group, unit, description.format(side=side), cell(value))
        for prefix, side, cell in (("s", "source", _source), ("d", "destination", _destination))
        for name, group, unit, description, value in stats
    )


def _flag_count_features() -> tuple[Feature, ...]:
    """The 18 TCP flag counts, empty for non-TCP records: both
    directions, then the source's, then the destination's, each in
    FIN SYN RST PSH ACK URG order."""
    both, per_side = [], []
    for flag in ("fin", "syn", "rst", "psh", "ack", "urg"):
        get = attrgetter(flag + "_cnt")
        name, upper = flag + "cnt", flag.upper()
        both.append(_F(name, "flags", "", f"{upper} packets, both directions",
                       lambda r, s, d, c, get=get:
                       str(get(s) + get(d)) if r.key.proto == "tcp" else ""))
        per_side.append((name, "flags", "", "{side} " + upper + " packets",
                         lambda e, r, get=get: str(get(e)) if r.key.proto == "tcp" else ""))
    return (*both, *_sides(*per_side))


# The 130 catalog entries, in normative column order. The first 22 are
# the default preset. Each per-side statistic is declared once, in a
# _sides(...) call at the position of its source entry.
CATALOG: tuple[Feature, ...] = (
    _F("FlowID", "identity", "", "daddr-saddr-dport-sport-proto",
       lambda r, s, d, c: flow_id(r)),
    _F("rank", "identity", "", "dense output row index starting at 0",
       lambda r, s, d, c: str(c.rank)),
    _F("stime", "time", "s", "first packet time, epoch seconds",
       lambda r, s, d, c: us_to_text(r.stime_us)),
    _F("ltime", "time", "s", "last packet time, epoch seconds",
       lambda r, s, d, c: us_to_text(r.ltime_us)),
    _F("sport", "identity", "", "source port (ICMP type for icmp)",
       lambda r, s, d, c: str(r.sport)),
    _F("dport", "identity", "", "destination port (ICMP code for icmp)",
       lambda r, s, d, c: str(r.dport)),
    _F("saddr", "identity", "", "source address (flow initiator)",
       lambda r, s, d, c: r.saddr),
    _F("daddr", "identity", "", "destination address",
       lambda r, s, d, c: r.daddr),
    _F("proto", "identity", "", "transport protocol, lowercase",
       lambda r, s, d, c: r.key.proto),
    _F("bytes", "volume", "B", "total IP bytes both directions",
       lambda r, s, d, c: str(s.bytes + d.bytes)),
    *_sides(("bytes", "volume", "B", "IP bytes sent by the {side}",
             lambda e, r: str(e.bytes))),
    _F("pkts", "volume", "", "total packets both directions",
       lambda r, s, d, c: str(s.pkts + d.pkts)),
    *_sides(("pkts", "volume", "", "packets sent by the {side}",
             lambda e, r: str(e.pkts))),
    _F("dur", "time", "s", "ltime minus stime",
       lambda r, s, d, c: us_to_text(r.dur_us)),
    _F("runtime", "time", "s", "active runtime; sum of merged durations",
       lambda r, s, d, c: us_to_text(r.runtime_us)),
    _F("idle", "time", "s", "time since last packet when record retired",
       lambda r, s, d, c: us_to_text(r.idle_us)),
    _F("flgs", "state", "", f"union of TCP flags seen, {FLAG_TEXT[-1]} order",
       lambda r, s, d, c: FLAG_TEXT[r.flgs]),
    _F("tcpopt", "state", "", "TCP connection state (REQ/CON/FIN/RST)",
       lambda r, s, d, c: _i(r.tcp_state)),
    _F("Ssaddr", "window-count", "", "flows with same service and saddr "
       "in the last-100 window", lambda r, s, d, c: _i(c.ssaddr)),
    _F("Sdaddr", "window-count", "", "flows with same service and daddr "
       "in the last-100 window", lambda r, s, d, c: _i(c.sdaddr)),
    # -- end of default preset ---------------------------------------
    _F("service", "identity", "", "well-known service of the lower port",
       lambda r, s, d, c: c.service),
    _F("slice", "meta", "", "slice index within the flow episode",
       lambda r, s, d, c: str(r.slice_index)),
    _F("mgmt", "meta", "", "1 for management records",
       lambda r, s, d, c: "1" if r.is_management else "0"),
    _F("ipver", "meta", "", "IP version (4 or 6)",
       lambda r, s, d, c: _i(r.ip_version)),
    _F("vlanid", "meta", "", "VLAN id if the flow was tagged",
       lambda r, s, d, c: _i(r.vlan_id)),
    _F("is_sm_ips_ports", "identity", "", "1 when source and destination "
       "address and port are equal", _sm_ips_ports),
    _F("pktratio", "volume", "", "dpkts over spkts",
       lambda r, s, d, c: _f(d.pkts / s.pkts if s.pkts else None)),
    _F("bytratio", "volume", "", "dbytes over sbytes",
       lambda r, s, d, c: _f(d.bytes / s.bytes if s.bytes else None)),
    *_sides(("maxsz", "size", "B", "largest {side} packet", lambda e, r: _i(e.sz_max)),
            ("minsz", "size", "B", "smallest {side} packet", lambda e, r: _i(e.sz_min)),
            ("meansz", "size", "B", "mean {side} packet size",
             lambda e, r: _f(_mean(e.bytes, e.pkts))),
            ("stdsz", "size", "B", "std dev of {side} packet sizes",
             lambda e, r: _f(_std(e.sz_sumsq, e.bytes, e.pkts)))),
    _F("maxsz", "size", "B", "largest packet either direction",
       lambda r, s, d, c: _i(opt_max(s.sz_max, d.sz_max))),
    _F("minsz", "size", "B", "smallest packet either direction",
       lambda r, s, d, c: _i(opt_min(s.sz_min, d.sz_min))),
    _F("meansz", "size", "B", "mean packet size both directions",
       lambda r, s, d, c: _f(_mean(s.bytes + d.bytes, s.pkts + d.pkts))),
    _F("stdsz", "size", "B", "std dev of packet sizes both directions",
       lambda r, s, d, c: _f(_std(s.sz_sumsq + d.sz_sumsq, s.bytes + d.bytes, s.pkts + d.pkts))),
    _F("varsz", "size", "B^2", "variance of packet sizes both directions",
       lambda r, s, d, c: _f(_var(s.sz_sumsq + d.sz_sumsq, s.bytes + d.bytes, s.pkts + d.pkts))),
    *_sides(("appbytes", "payload", "B", "payload bytes sent by the {side}",
             lambda e, r: str(e.appbytes))),
    _F("appbytes", "payload", "B", "payload bytes both directions",
       lambda r, s, d, c: str(s.appbytes + d.appbytes)),
    *_sides(("datapkts", "payload", "", "{side} packets with payload",
             lambda e, r: str(e.datapkts))),
    _F("datapkts", "payload", "", "packets with payload, both directions",
       lambda r, s, d, c: str(s.datapkts + d.datapkts)),
    *_sides(("meanappsz", "payload", "B", "mean {side} payload per packet",
             lambda e, r: _f(_mean(e.appbytes, e.pkts)))),
    _F("meanappsz", "payload", "B", "mean payload per packet, both directions",
       lambda r, s, d, c: _f(_mean(s.appbytes + d.appbytes, s.pkts + d.pkts))),
    *_sides(("ttl", "ttl", "", "first {side} TTL seen", lambda e, r: _i(e.ttl_first))),
    *_sides(("minttl", "ttl", "", "smallest {side} TTL", lambda e, r: _i(e.ttl_min)),
            ("maxttl", "ttl", "", "largest {side} TTL", lambda e, r: _i(e.ttl_max))),
    *_sides(("tos", "ttl", "", "first {side} TOS / traffic class",
             lambda e, r: _i(e.tos_first))),
    _F("minttl", "ttl", "", "smallest TTL either direction",
       lambda r, s, d, c: _i(opt_min(s.ttl_min, d.ttl_min))),
    _F("maxttl", "ttl", "", "largest TTL either direction",
       lambda r, s, d, c: _i(opt_max(s.ttl_max, d.ttl_max))),
    *_sides(("win", "tcp", "", "first {side} TCP window", lambda e, r: _i(e.win_first))),
    *_sides(("tcpb", "tcp", "", "first {side} TCP sequence number",
             lambda e, r: _i(e.tcpb_first))),
    _F("synack", "handshake", "s", "SYN to SYN/ACK latency",
       lambda r, s, d, c: us_to_text(r.synack_us)),
    _F("ackdat", "handshake", "s", "SYN/ACK to completing ACK latency",
       lambda r, s, d, c: us_to_text(r.ackdat_us)),
    _F("tcprtt", "handshake", "s", "handshake round trip: synack + ackdat",
       lambda r, s, d, c: us_to_text(_tcprtt_us(r))),
    _F("load", "rate", "bit/s", "IP bits per second, both directions",
       lambda r, s, d, c: _f(_per_second((s.bytes + d.bytes) * 8, r.dur_us))),
    *_sides(("load", "rate", "bit/s", "{side} IP bits per second",
             lambda e, r: _f(_per_second(e.bytes * 8, r.dur_us)))),
    _F("rate", "rate", "pkt/s", "packets per second, both directions",
       lambda r, s, d, c: _f(_per_second(s.pkts + d.pkts, r.dur_us))),
    *_sides(("rate", "rate", "pkt/s", "{side} packets per second",
             lambda e, r: _f(_per_second(e.pkts, r.dur_us)))),
    _F("appload", "rate", "bit/s", "payload bits per second, both directions",
       lambda r, s, d, c: _f(_per_second((s.appbytes + d.appbytes) * 8, r.dur_us))),
    *_sides(("appload", "rate", "bit/s", "{side} payload bits per second",
             lambda e, r: _f(_per_second(e.appbytes * 8, r.dur_us)))),
    _F("intpkt", "iat", "s", "mean inter-arrival time, both directions",
       lambda r, s, d, c: _f(_mean_us(r.iat_sum_us, max(s.pkts + d.pkts - 1, 0)))),
    *_sides(("intpkt", "iat", "s", "mean {side} inter-arrival time",
             lambda e, r: _f(_mean_us(e.iat_sum_us, e.iat_count)))),
    _F("jit", "iat", "s", "std dev of inter-arrival times, both directions",
       lambda r, s, d, c: _f(_std_us(r.iat_sumsq, r.iat_sum_us, max(s.pkts + d.pkts - 1, 0)))),
    *_sides(("jit", "iat", "s", "std dev of {side} inter-arrival times",
             lambda e, r: _f(_std_us(e.iat_sumsq, e.iat_sum_us, e.iat_count)))),
    _F("minipt", "iat", "s", "smallest inter-arrival gap, both directions",
       lambda r, s, d, c: us_to_text(r.iat_min_us)),
    *_sides(("minipt", "iat", "s", "smallest {side} inter-arrival gap",
             lambda e, r: us_to_text(e.iat_min_us))),
    _F("maxipt", "iat", "s", "largest inter-arrival gap, both directions",
       lambda r, s, d, c: us_to_text(r.iat_max_us)),
    *_sides(("maxipt", "iat", "s", "largest {side} inter-arrival gap",
             lambda e, r: us_to_text(e.iat_max_us))),
    _F("totipt", "iat", "s", "sum of inter-arrival gaps, both directions",
       lambda r, s, d, c: us_to_text(r.iat_sum_us if s.pkts + d.pkts > 1 else None)),
    *_sides(("totipt", "iat", "s", "sum of {side} inter-arrival gaps",
             lambda e, r: us_to_text(e.iat_sum_us if e.iat_count else None))),
    *_flag_count_features(),
    *_sides(("stime", "direction-time", "s", "first {side} packet time",
             lambda e, r: us_to_text(e.first_ts_us)),
            ("ltime", "direction-time", "s", "last {side} packet time",
             lambda e, r: us_to_text(e.last_ts_us))),
    *_sides(("dur", "direction-time", "s", "{side} activity span",
             lambda e, r: us_to_text(_span_us(e)))),
    *_sides(("minappsz", "payload", "B", "smallest {side} payload", lambda e, r: _i(e.app_min)),
            ("maxappsz", "payload", "B", "largest {side} payload", lambda e, r: _i(e.app_max))),
    *_sides(("stdappsz", "payload", "B", "std dev of {side} payloads",
             lambda e, r: _f(_std(e.app_sumsq, e.appbytes, e.pkts)))),
    _F("minappsz", "payload", "B", "smallest payload either direction",
       lambda r, s, d, c: _i(opt_min(s.app_min, d.app_min))),
    _F("maxappsz", "payload", "B", "largest payload either direction",
       lambda r, s, d, c: _i(opt_max(s.app_max, d.app_max))),
    _F("stdappsz", "payload", "B", "std dev of payloads both directions",
       lambda r, s, d, c: _f(_std(s.app_sumsq + d.app_sumsq,
                                  s.appbytes + d.appbytes, s.pkts + d.pkts))),
    _F("flows", "management", "", "flow episodes begun in a management window",
       lambda r, s, d, c: _i(r.flows)),
    _F("seq", "meta", "", "record position in the flow file",
       lambda r, s, d, c: _i(r.seq)),
    _F("trans", "cluster", "", "records merged into this row",
       lambda r, s, d, c: str(r.trans)),
    _F("fragcnt", "meta", "", "non-first IP fragments in the flow",
       lambda r, s, d, c: str(r.frag_count)),
)

CATALOG_SIZE = 130

_BY_NAME = {feature.name: feature for feature in CATALOG}
CATALOG_ORDER = tuple(feature.name for feature in CATALOG)

ALWAYS_ON = ("rank", "stime", "ltime", "proto", "saddr", "daddr", "sport", "dport")

DEFAULT_FEATURES = CATALOG_ORDER[:22]

# Published feature sets mapped onto their nearest catalog entries.
# Members with no catalog equivalent (retransmission counts, TCP base
# sequence bookkeeping beyond the first, HTTP/FTP content features,
# MAC/OUI columns, active/idle bulk statistics, label columns) are
# documented as absent in docs/feature_catalog.csv.
PRESET_UNSW_NB15 = ALWAYS_ON + (
    "tcpopt", "dur", "sbytes", "dbytes", "sttl", "dttl", "service",
    "sload", "dload", "spkts", "dpkts", "swin", "dwin", "stcpb", "dtcpb",
    "smeansz", "dmeansz", "sjit", "djit", "sintpkt", "dintpkt",
    "tcprtt", "synack", "ackdat", "is_sm_ips_ports", "Ssaddr", "Sdaddr",
)
PRESET_BOT_IOT = ALWAYS_ON + (
    "flgs", "pkts", "bytes", "spkts", "dpkts", "sbytes", "dbytes",
    "tcpopt", "seq", "dur", "runtime", "rate", "srate", "drate",
)
PRESET_CIC_IDS2017 = ALWAYS_ON + (
    "FlowID", "spkts", "dpkts", "dur", "idle", "pktratio",
    "sappbytes", "dappbytes", "smeanappsz", "dmeanappsz",
    "sminappsz", "smaxappsz", "dminappsz", "dmaxappsz",
    "sstdappsz", "dstdappsz", "minappsz", "maxappsz", "meanappsz", "stdappsz",
    "sdatapkts", "swin", "dwin", "load", "rate", "srate", "drate",
    "intpkt", "jit", "minipt", "maxipt",
    "sintpkt", "sjit", "sminipt", "smaxipt", "stotipt",
    "dintpkt", "djit", "dminipt", "dmaxipt", "dtotipt",
    "fincnt", "syncnt", "rstcnt", "pshcnt", "ackcnt", "urgcnt",
    "spshcnt", "dpshcnt", "surgcnt", "durgcnt",
)

PRESETS = {
    "all": CATALOG_ORDER,
    "default": DEFAULT_FEATURES,
    "unsw_nb15": PRESET_UNSW_NB15,
    "bot_iot": PRESET_BOT_IOT,
    "cic_ids2017": PRESET_CIC_IDS2017,
}


def select_feature_set(selection) -> list[str]:
    """Resolve a preset name or an iterable of feature names to the
    ordered column list. Always-on features are always included, and the
    result follows catalog order regardless of request order."""
    if isinstance(selection, str):
        if selection not in PRESETS:
            raise UnknownFeature(selection)
        requested = set(PRESETS[selection])
    else:
        requested = set()
        for name in selection:
            if name not in _BY_NAME:
                raise UnknownFeature(name)
            requested.add(name)
    requested.update(ALWAYS_ON)
    return [name for name in CATALOG_ORDER if name in requested]


@lru_cache(maxsize=32)
def _cells(feature_names: tuple[str, ...]) -> tuple[Callable, ...]:
    """The cell functions of a selection, looked up once per selection."""
    return tuple(_BY_NAME[name].value for name in feature_names)


def compute_row(rec: FlowRecord, feature_names, ctx: RowContext) -> list[str]:
    src, dst = rec.src, rec.dst
    return [cell(rec, src, dst, ctx) for cell in _cells(tuple(feature_names))]


def catalog_table() -> list[list[str]]:
    """Machine-readable catalog: one row per feature with preset flags."""
    header = ["position", "name", "group", "unit", "always_on", "default",
              "unsw_nb15", "bot_iot", "cic_ids2017", "description"]
    rows = [header]
    for pos, feature in enumerate(CATALOG, start=1):
        rows.append([
            str(pos), feature.name, feature.group, feature.unit,
            "yes" if feature.name in ALWAYS_ON else "",
            "yes" if feature.name in DEFAULT_FEATURES else "",
            "yes" if feature.name in PRESET_UNSW_NB15 else "",
            "yes" if feature.name in PRESET_BOT_IOT else "",
            "yes" if feature.name in PRESET_CIC_IDS2017 else "",
            feature.description,
        ])
    return rows
