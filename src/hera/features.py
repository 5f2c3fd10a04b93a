"""The dataset feature catalog.

Exactly 130 named features. Catalog order is normative: CSV columns
always appear in this order, and the first 22 entries form the default
preset. Eight identity features are always emitted no matter what the
selection says. Ssaddr and Sdaddr are the two features computed across
flows (windowed connection counts); everything else derives from a
single record. Undefined values are empty cells, never zero.

A cell is declared as a value kind plus a Python expression (see
`Feature`); the kind's template in `kernels.TO_TEXT` turns the value
into the cell's text. A statistic that exists once per side
(`sbytes`/`dbytes`, ...) is declared once, in a `_sides(...)` call
inside `CATALOG`, with `{side}` and `{e}` slots; `_sides` expands it
into the source entry and then the destination entry. The TCP flag
counts are built the same way by `_flag_count_features`.

Each selection of features is one function, generated from its cells'
declarations on first use and cached: it computes the values the cells
share once and returns the row as one list display.
"""

from __future__ import annotations

from functools import lru_cache
from math import sqrt
from typing import NamedTuple

from .errors import UnknownFeature
from .flows import FLAG_TEXT, RECORD_KERNEL_HEAD, FlowRecord, opt_max, opt_min
from .kernels import TO_TEXT, compile_kernel, slotted

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


@slotted((("rank", 0), ("service", ""), ("ssaddr", None), ("sdaddr", None)))
class RowContext:
    """Per-row values that do not live on the record itself."""


class Feature(NamedTuple):
    name: str
    group: str
    unit: str
    description: str
    kind: str  # a key of kernels.TO_TEXT
    # An expression over the record `r`, its key `k`, its source's and
    # destination's EndpointStats `s` and `d`, addresses `sa` and `da` and
    # ports `sp` and `dp` (`flows.RECORD_KERNEL_HEAD`), the RowContext `c`,
    # and the row's shared `n`
    # (packets), `dur` (ltime_us - stime_us) and `tcp` (a TCP record).
    value: str


_F = Feature


def _sides(*stats) -> tuple[Feature, ...]:
    """The catalog entries of per-side statistics: every source entry,
    then every destination entry. Each statistic is (name without its
    s/d prefix, group, unit, description with a {side} slot, kind, value
    with an {e} slot for its side's EndpointStats)."""
    return tuple(
        _F(prefix + name, group, unit, description.format(side=side), kind, value.format(e=e))
        for prefix, side, e in (("s", "source", "s"), ("d", "destination", "d"))
        for name, group, unit, description, kind, value in stats
    )


def _flag_count_features() -> tuple[Feature, ...]:
    """The 18 TCP flag counts, empty for non-TCP records: both
    directions, then the source's, then the destination's, each in
    FIN SYN RST PSH ACK URG order."""
    both, per_side = [], []
    for flag in ("fin", "syn", "rst", "psh", "ack", "urg"):
        name, upper = flag + "cnt", flag.upper()
        both.append(_F(name, "flags", "", f"{upper} packets, both directions", "oint",
                       f"s.{flag}_cnt + d.{flag}_cnt if tcp else None"))
        per_side.append((name, "flags", "", "{side} " + upper + " packets", "oint",
                         "{e}." + flag + "_cnt if tcp else None"))
    return (*both, *_sides(*per_side))


# Slots for the catalog's values: statistics of {n} values of sum {total}
# and sum of squares {sumsq}, None unless {n} > 0 (_US: us to seconds),
# and a {count} per second of `dur`, None unless it is positive.
_MEAN = "{total} / {n} if {n} > 0 else None"
_MEAN_US = "{total} / {n} / 1e6 if {n} > 0 else None"
_VAR = "max({sumsq} / {n} - ({total} / {n}) ** 2, 0.0) if {n} > 0 else None"
_STD = "sqrt(max({sumsq} / {n} - ({total} / {n}) ** 2, 0.0)) if {n} > 0 else None"
_STD_US = "sqrt(max({sumsq} / {n} - ({total} / {n}) ** 2, 0.0)) / 1e6 if {n} > 0 else None"
_PER_SECOND = "{count} * 1e6 / dur if dur > 0 else None"

# The 130 catalog entries, in normative column order. The first 22 are
# the default preset. Each per-side statistic is declared once, in a
# _sides(...) call at the position of its source entry.
CATALOG: tuple[Feature, ...] = (
    _F("FlowID", "identity", "", "daddr-saddr-dport-sport-proto", "text",
       "f'{da}-{sa}-{dp}-{sp}-{k.proto}'"),
    _F("rank", "identity", "", "dense output row index starting at 0", "int", "c.rank"),
    _F("stime", "time", "s", "first packet time, epoch seconds", "time", "r.stime_us"),
    _F("ltime", "time", "s", "last packet time, epoch seconds", "time", "r.ltime_us"),
    _F("sport", "identity", "", "source port (ICMP type for icmp)", "int", "sp"),
    _F("dport", "identity", "", "destination port (ICMP code for icmp)", "int", "dp"),
    _F("saddr", "identity", "", "source address (flow initiator)", "text", "sa"),
    _F("daddr", "identity", "", "destination address", "text", "da"),
    _F("proto", "identity", "", "transport protocol, lowercase", "text", "k.proto"),
    _F("bytes", "volume", "B", "total IP bytes both directions", "int", "s.bytes + d.bytes"),
    *_sides(("bytes", "volume", "B", "IP bytes sent by the {side}", "int", "{e}.bytes")),
    _F("pkts", "volume", "", "total packets both directions", "int", "n"),
    *_sides(("pkts", "volume", "", "packets sent by the {side}", "int", "{e}.pkts")),
    _F("dur", "time", "s", "ltime minus stime", "time", "dur"),
    _F("runtime", "time", "s", "active runtime; sum of merged durations", "time",
       "r.runtime_us"),
    _F("idle", "time", "s", "time since last packet when record retired", "time", "r.idle_us"),
    _F("flgs", "state", "", f"union of TCP flags seen, {FLAG_TEXT[-1]} order", "text",
       "FLAG_TEXT[r.flgs]"),
    _F("tcpopt", "state", "", "TCP connection state (REQ/CON/FIN/RST)", "oint", "r.tcp_state"),
    _F("Ssaddr", "window-count", "", "flows with same service and saddr "
       "in the last-100 window", "oint", "c.ssaddr"),
    _F("Sdaddr", "window-count", "", "flows with same service and daddr "
       "in the last-100 window", "oint", "c.sdaddr"),
    # -- end of default preset ---------------------------------------
    _F("service", "identity", "", "well-known service of the lower port", "text", "c.service"),
    _F("slice", "meta", "", "slice index within the flow episode", "int", "r.slice_index"),
    _F("mgmt", "meta", "", "1 for management records", "text",
       "'1' if r.is_management else '0'"),
    _F("ipver", "meta", "", "IP version (4 or 6)", "oint", "r.ip_version"),
    _F("vlanid", "meta", "", "VLAN id if the flow was tagged", "oint", "r.vlan_id"),
    _F("is_sm_ips_ports", "identity", "", "1 when source and destination "
       "address and port are equal", "text", "'' if r.is_management else "
       "'1' if sa == da and sp == dp else '0'"),
    _F("pktratio", "volume", "", "dpkts over spkts", "float",
       "d.pkts / s.pkts if s.pkts else None"),
    _F("bytratio", "volume", "", "dbytes over sbytes", "float",
       "d.bytes / s.bytes if s.bytes else None"),
    *_sides(("maxsz", "size", "B", "largest {side} packet", "oint", "{e}.sz_max"),
            ("minsz", "size", "B", "smallest {side} packet", "oint", "{e}.sz_min"),
            ("meansz", "size", "B", "mean {side} packet size", "float",
             _MEAN.format(total="{e}.bytes", n="{e}.pkts")),
            ("stdsz", "size", "B", "std dev of {side} packet sizes", "float",
             _STD.format(sumsq="{e}.sz_sumsq", total="{e}.bytes", n="{e}.pkts"))),
    _F("maxsz", "size", "B", "largest packet either direction", "oint",
       "opt_max(s.sz_max, d.sz_max)"),
    _F("minsz", "size", "B", "smallest packet either direction", "oint",
       "opt_min(s.sz_min, d.sz_min)"),
    _F("meansz", "size", "B", "mean packet size both directions", "float",
       _MEAN.format(total="(s.bytes + d.bytes)", n="n")),
    _F("stdsz", "size", "B", "std dev of packet sizes both directions", "float",
       _STD.format(sumsq="(s.sz_sumsq + d.sz_sumsq)", total="(s.bytes + d.bytes)", n="n")),
    _F("varsz", "size", "B^2", "variance of packet sizes both directions", "float",
       _VAR.format(sumsq="(s.sz_sumsq + d.sz_sumsq)", total="(s.bytes + d.bytes)", n="n")),
    *_sides(("appbytes", "payload", "B", "payload bytes sent by the {side}", "int",
             "{e}.appbytes")),
    _F("appbytes", "payload", "B", "payload bytes both directions", "int",
       "s.appbytes + d.appbytes"),
    *_sides(("datapkts", "payload", "", "{side} packets with payload", "int", "{e}.datapkts")),
    _F("datapkts", "payload", "", "packets with payload, both directions", "int",
       "s.datapkts + d.datapkts"),
    *_sides(("meanappsz", "payload", "B", "mean {side} payload per packet", "float",
             _MEAN.format(total="{e}.appbytes", n="{e}.pkts"))),
    _F("meanappsz", "payload", "B", "mean payload per packet, both directions", "float",
       _MEAN.format(total="(s.appbytes + d.appbytes)", n="n")),
    *_sides(("ttl", "ttl", "", "first {side} TTL seen", "oint", "{e}.ttl_first")),
    *_sides(("minttl", "ttl", "", "smallest {side} TTL", "oint", "{e}.ttl_min"),
            ("maxttl", "ttl", "", "largest {side} TTL", "oint", "{e}.ttl_max")),
    *_sides(("tos", "ttl", "", "first {side} TOS / traffic class", "oint", "{e}.tos_first")),
    _F("minttl", "ttl", "", "smallest TTL either direction", "oint",
       "opt_min(s.ttl_min, d.ttl_min)"),
    _F("maxttl", "ttl", "", "largest TTL either direction", "oint",
       "opt_max(s.ttl_max, d.ttl_max)"),
    *_sides(("win", "tcp", "", "first {side} TCP window", "oint", "{e}.win_first")),
    *_sides(("tcpb", "tcp", "", "first {side} TCP sequence number", "oint", "{e}.tcpb_first")),
    _F("synack", "handshake", "s", "SYN to SYN/ACK latency", "time", "r.synack_us"),
    _F("ackdat", "handshake", "s", "SYN/ACK to completing ACK latency", "time", "r.ackdat_us"),
    _F("tcprtt", "handshake", "s", "handshake round trip: synack + ackdat", "time",
       "None if r.synack_us is None or r.ackdat_us is None else r.synack_us + r.ackdat_us"),
    _F("load", "rate", "bit/s", "IP bits per second, both directions", "float",
       _PER_SECOND.format(count="(s.bytes + d.bytes) * 8")),
    *_sides(("load", "rate", "bit/s", "{side} IP bits per second", "float",
             _PER_SECOND.format(count="{e}.bytes * 8"))),
    _F("rate", "rate", "pkt/s", "packets per second, both directions", "float",
       _PER_SECOND.format(count="n")),
    *_sides(("rate", "rate", "pkt/s", "{side} packets per second", "float",
             _PER_SECOND.format(count="{e}.pkts"))),
    _F("appload", "rate", "bit/s", "payload bits per second, both directions", "float",
       _PER_SECOND.format(count="(s.appbytes + d.appbytes) * 8")),
    *_sides(("appload", "rate", "bit/s", "{side} payload bits per second", "float",
             _PER_SECOND.format(count="{e}.appbytes * 8"))),
    # A record of n packets has n - 1 inter-arrival gaps, and so has each side.
    _F("intpkt", "iat", "s", "mean inter-arrival time, both directions", "float",
       _MEAN_US.format(total="r.iat_sum_us", n="(n - 1)")),
    *_sides(("intpkt", "iat", "s", "mean {side} inter-arrival time", "float",
             _MEAN_US.format(total="{e}.iat_sum_us", n="({e}.pkts - 1)"))),
    _F("jit", "iat", "s", "std dev of inter-arrival times, both directions", "float",
       _STD_US.format(sumsq="r.iat_sumsq", total="r.iat_sum_us", n="(n - 1)")),
    *_sides(("jit", "iat", "s", "std dev of {side} inter-arrival times", "float",
             _STD_US.format(sumsq="{e}.iat_sumsq", total="{e}.iat_sum_us", n="({e}.pkts - 1)"))),
    _F("minipt", "iat", "s", "smallest inter-arrival gap, both directions", "time",
       "r.iat_min_us"),
    *_sides(("minipt", "iat", "s", "smallest {side} inter-arrival gap", "time",
             "{e}.iat_min_us")),
    _F("maxipt", "iat", "s", "largest inter-arrival gap, both directions", "time",
       "r.iat_max_us"),
    *_sides(("maxipt", "iat", "s", "largest {side} inter-arrival gap", "time",
             "{e}.iat_max_us")),
    _F("totipt", "iat", "s", "sum of inter-arrival gaps, both directions", "time",
       "r.iat_sum_us if n > 1 else None"),
    *_sides(("totipt", "iat", "s", "sum of {side} inter-arrival gaps", "time",
             "{e}.iat_sum_us if {e}.pkts > 1 else None")),
    *_flag_count_features(),
    *_sides(("stime", "direction-time", "s", "first {side} packet time", "time",
             "{e}.first_ts_us"),
            ("ltime", "direction-time", "s", "last {side} packet time", "time",
             "{e}.last_ts_us")),
    *_sides(("dur", "direction-time", "s", "{side} activity span", "time",
             "None if {e}.first_ts_us is None or {e}.last_ts_us is None "
             "else {e}.last_ts_us - {e}.first_ts_us")),
    *_sides(("minappsz", "payload", "B", "smallest {side} payload", "oint", "{e}.app_min"),
            ("maxappsz", "payload", "B", "largest {side} payload", "oint", "{e}.app_max")),
    *_sides(("stdappsz", "payload", "B", "std dev of {side} payloads", "float",
             _STD.format(sumsq="{e}.app_sumsq", total="{e}.appbytes", n="{e}.pkts"))),
    _F("minappsz", "payload", "B", "smallest payload either direction", "oint",
       "opt_min(s.app_min, d.app_min)"),
    _F("maxappsz", "payload", "B", "largest payload either direction", "oint",
       "opt_max(s.app_max, d.app_max)"),
    _F("stdappsz", "payload", "B", "std dev of payloads both directions", "float",
       _STD.format(sumsq="(s.app_sumsq + d.app_sumsq)", total="(s.appbytes + d.appbytes)",
                   n="n")),
    _F("flows", "management", "", "flow episodes begun in a management window", "oint",
       "r.flows"),
    _F("seq", "meta", "", "record position in the flow file", "oint", "r.seq"),
    _F("trans", "cluster", "", "records merged into this row", "int", "r.trans"),
    _F("fragcnt", "meta", "", "non-first IP fragments in the flow", "int", "r.frag_count"),
)

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
def row_kernel(feature_names: tuple[str, ...]):
    """The function (record, RowContext) -> row of a selection of
    catalog names: one list display of the selected cells, each its
    kind's template around its value, after the shared values."""
    cells = "".join(f"        {TO_TEXT[feature.kind].replace('$', feature.value)},\n"
                    for feature in map(_BY_NAME.__getitem__, feature_names))
    source = ("def kernel(r, c):\n" + RECORD_KERNEL_HEAD
              + "    n, dur, tcp = s.pkts + d.pkts, r.ltime_us - r.stime_us, k.proto == 'tcp'\n"
              f"    return [\n{cells}    ]\n")
    namespace = {"FLAG_TEXT": FLAG_TEXT, "opt_max": opt_max, "opt_min": opt_min, "sqrt": sqrt}
    return compile_kernel("row", source, namespace)


def compute_row(rec: FlowRecord, feature_names, ctx: RowContext) -> list[str]:
    return row_kernel(tuple(feature_names))(rec, ctx)


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
