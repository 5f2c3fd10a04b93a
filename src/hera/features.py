"""The dataset feature catalog.

Exactly 130 named features. Catalog order is normative: CSV columns
always appear in this order, and the first 22 entries form the default
preset. Eight identity features are always emitted no matter what the
selection says. Ssaddr and Sdaddr are the two features computed across
flows (windowed connection counts); everything else derives from a
single record. Undefined values are empty cells, never zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from .errors import UnknownFeature
from .flows import FlowRecord, opt_max, opt_min, render_flags
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
    value: Callable[[FlowRecord, RowContext], str]


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


def _sm_ips_ports(rec, ctx):
    if rec.is_management:
        return ""
    same = rec.saddr == rec.daddr and rec.sport == rec.dport
    return "1" if same else "0"


_F = Feature


def _tcp_count(count) -> Callable[[FlowRecord, RowContext], str]:
    """The cell of a TCP flag count: count(record), empty for non-TCP records."""
    return lambda r, c: str(count(r)) if r.key.proto == "tcp" else ""


def _flag_count_features() -> tuple[Feature, ...]:
    """The 18 TCP flag counts: both directions, then the source's, then
    the destination's, each in FIN SYN RST PSH ACK URG order."""
    both, source, destination = [], [], []
    for flag in ("fin", "syn", "rst", "psh", "ack", "urg"):
        get = attrgetter(flag + "_cnt")
        name, upper = flag + "cnt", flag.upper()
        both.append(_F(name, "flags", "", f"{upper} packets, both directions",
                       _tcp_count(lambda r, get=get: get(r.src) + get(r.dst))))
        source.append(_F("s" + name, "flags", "", f"source {upper} packets",
                         _tcp_count(lambda r, get=get: get(r.src))))
        destination.append(_F("d" + name, "flags", "", f"destination {upper} packets",
                              _tcp_count(lambda r, get=get: get(r.dst))))
    return (*both, *source, *destination)


_FLAG_COUNTS = _flag_count_features()

# The 130 catalog entries, in normative column order. The first 22 are
# the default preset.
CATALOG: tuple[Feature, ...] = (
    _F("FlowID", "identity", "", "daddr-saddr-dport-sport-proto",
       lambda r, c: flow_id(r)),
    _F("rank", "identity", "", "dense output row index starting at 0",
       lambda r, c: str(c.rank)),
    _F("stime", "time", "s", "first packet time, epoch seconds",
       lambda r, c: us_to_text(r.stime_us)),
    _F("ltime", "time", "s", "last packet time, epoch seconds",
       lambda r, c: us_to_text(r.ltime_us)),
    _F("sport", "identity", "", "source port (ICMP type for icmp)",
       lambda r, c: str(r.sport)),
    _F("dport", "identity", "", "destination port (ICMP code for icmp)",
       lambda r, c: str(r.dport)),
    _F("saddr", "identity", "", "source address (flow initiator)",
       lambda r, c: r.saddr),
    _F("daddr", "identity", "", "destination address",
       lambda r, c: r.daddr),
    _F("proto", "identity", "", "transport protocol, lowercase",
       lambda r, c: r.key.proto),
    _F("bytes", "volume", "B", "total IP bytes both directions",
       lambda r, c: str(r.bytes)),
    _F("sbytes", "volume", "B", "IP bytes sent by the source",
       lambda r, c: str(r.src.bytes)),
    _F("dbytes", "volume", "B", "IP bytes sent by the destination",
       lambda r, c: str(r.dst.bytes)),
    _F("pkts", "volume", "", "total packets both directions",
       lambda r, c: str(r.pkts)),
    _F("spkts", "volume", "", "packets sent by the source",
       lambda r, c: str(r.src.pkts)),
    _F("dpkts", "volume", "", "packets sent by the destination",
       lambda r, c: str(r.dst.pkts)),
    _F("dur", "time", "s", "ltime minus stime",
       lambda r, c: us_to_text(r.dur_us)),
    _F("runtime", "time", "s", "active runtime; sum of merged durations",
       lambda r, c: us_to_text(r.runtime_us)),
    _F("idle", "time", "s", "time since last packet when record retired",
       lambda r, c: us_to_text(r.idle_us)),
    _F("flgs", "state", "", "union of TCP flags seen, SAFRPU order",
       lambda r, c: render_flags(r.flgs)),
    _F("tcpopt", "state", "", "TCP connection state (REQ/CON/FIN/RST)",
       lambda r, c: _i(r.tcp_state)),
    _F("Ssaddr", "window-count", "", "flows with same service and saddr "
       "in the last-100 window", lambda r, c: _i(c.ssaddr)),
    _F("Sdaddr", "window-count", "", "flows with same service and daddr "
       "in the last-100 window", lambda r, c: _i(c.sdaddr)),
    # -- end of default preset ---------------------------------------
    _F("service", "identity", "", "well-known service of the lower port",
       lambda r, c: c.service),
    _F("slice", "meta", "", "slice index within the flow episode",
       lambda r, c: str(r.slice_index)),
    _F("mgmt", "meta", "", "1 for management records",
       lambda r, c: "1" if r.is_management else "0"),
    _F("ipver", "meta", "", "IP version (4 or 6)",
       lambda r, c: _i(r.ip_version)),
    _F("vlanid", "meta", "", "VLAN id if the flow was tagged",
       lambda r, c: _i(r.vlan_id)),
    _F("is_sm_ips_ports", "identity", "", "1 when source and destination "
       "address and port are equal", _sm_ips_ports),
    _F("pktratio", "volume", "", "dpkts over spkts",
       lambda r, c: _f(r.dst.pkts / r.src.pkts if r.src.pkts else None)),
    _F("bytratio", "volume", "", "dbytes over sbytes",
       lambda r, c: _f(r.dst.bytes / r.src.bytes if r.src.bytes else None)),
    _F("smaxsz", "size", "B", "largest source packet",
       lambda r, c: _i(r.src.sz_max)),
    _F("sminsz", "size", "B", "smallest source packet",
       lambda r, c: _i(r.src.sz_min)),
    _F("smeansz", "size", "B", "mean source packet size",
       lambda r, c: _f(_mean(r.src.bytes, r.src.pkts))),
    _F("sstdsz", "size", "B", "std dev of source packet sizes",
       lambda r, c: _f(_std(r.src.sz_sumsq, r.src.bytes, r.src.pkts))),
    _F("dmaxsz", "size", "B", "largest destination packet",
       lambda r, c: _i(r.dst.sz_max)),
    _F("dminsz", "size", "B", "smallest destination packet",
       lambda r, c: _i(r.dst.sz_min)),
    _F("dmeansz", "size", "B", "mean destination packet size",
       lambda r, c: _f(_mean(r.dst.bytes, r.dst.pkts))),
    _F("dstdsz", "size", "B", "std dev of destination packet sizes",
       lambda r, c: _f(_std(r.dst.sz_sumsq, r.dst.bytes, r.dst.pkts))),
    _F("maxsz", "size", "B", "largest packet either direction",
       lambda r, c: _i(opt_max(r.src.sz_max, r.dst.sz_max))),
    _F("minsz", "size", "B", "smallest packet either direction",
       lambda r, c: _i(opt_min(r.src.sz_min, r.dst.sz_min))),
    _F("meansz", "size", "B", "mean packet size both directions",
       lambda r, c: _f(_mean(r.bytes, r.pkts))),
    _F("stdsz", "size", "B", "std dev of packet sizes both directions",
       lambda r, c: _f(_std(r.src.sz_sumsq + r.dst.sz_sumsq, r.bytes, r.pkts))),
    _F("varsz", "size", "B^2", "variance of packet sizes both directions",
       lambda r, c: _f(_var(r.src.sz_sumsq + r.dst.sz_sumsq, r.bytes, r.pkts))),
    _F("sappbytes", "payload", "B", "payload bytes sent by the source",
       lambda r, c: str(r.src.appbytes)),
    _F("dappbytes", "payload", "B", "payload bytes sent by the destination",
       lambda r, c: str(r.dst.appbytes)),
    _F("appbytes", "payload", "B", "payload bytes both directions",
       lambda r, c: str(r.src.appbytes + r.dst.appbytes)),
    _F("sdatapkts", "payload", "", "source packets with payload",
       lambda r, c: str(r.src.datapkts)),
    _F("ddatapkts", "payload", "", "destination packets with payload",
       lambda r, c: str(r.dst.datapkts)),
    _F("datapkts", "payload", "", "packets with payload, both directions",
       lambda r, c: str(r.src.datapkts + r.dst.datapkts)),
    _F("smeanappsz", "payload", "B", "mean source payload per packet",
       lambda r, c: _f(_mean(r.src.appbytes, r.src.pkts))),
    _F("dmeanappsz", "payload", "B", "mean destination payload per packet",
       lambda r, c: _f(_mean(r.dst.appbytes, r.dst.pkts))),
    _F("meanappsz", "payload", "B", "mean payload per packet, both directions",
       lambda r, c: _f(_mean(r.src.appbytes + r.dst.appbytes, r.pkts))),
    _F("sttl", "ttl", "", "first source TTL seen",
       lambda r, c: _i(r.src.ttl_first)),
    _F("dttl", "ttl", "", "first destination TTL seen",
       lambda r, c: _i(r.dst.ttl_first)),
    _F("sminttl", "ttl", "", "smallest source TTL",
       lambda r, c: _i(r.src.ttl_min)),
    _F("smaxttl", "ttl", "", "largest source TTL",
       lambda r, c: _i(r.src.ttl_max)),
    _F("dminttl", "ttl", "", "smallest destination TTL",
       lambda r, c: _i(r.dst.ttl_min)),
    _F("dmaxttl", "ttl", "", "largest destination TTL",
       lambda r, c: _i(r.dst.ttl_max)),
    _F("stos", "ttl", "", "first source TOS / traffic class",
       lambda r, c: _i(r.src.tos_first)),
    _F("dtos", "ttl", "", "first destination TOS / traffic class",
       lambda r, c: _i(r.dst.tos_first)),
    _F("minttl", "ttl", "", "smallest TTL either direction",
       lambda r, c: _i(opt_min(r.src.ttl_min, r.dst.ttl_min))),
    _F("maxttl", "ttl", "", "largest TTL either direction",
       lambda r, c: _i(opt_max(r.src.ttl_max, r.dst.ttl_max))),
    _F("swin", "tcp", "", "first source TCP window",
       lambda r, c: _i(r.src.win_first)),
    _F("dwin", "tcp", "", "first destination TCP window",
       lambda r, c: _i(r.dst.win_first)),
    _F("stcpb", "tcp", "", "first source TCP sequence number",
       lambda r, c: _i(r.src.tcpb_first)),
    _F("dtcpb", "tcp", "", "first destination TCP sequence number",
       lambda r, c: _i(r.dst.tcpb_first)),
    _F("synack", "handshake", "s", "SYN to SYN/ACK latency",
       lambda r, c: us_to_text(r.synack_us)),
    _F("ackdat", "handshake", "s", "SYN/ACK to completing ACK latency",
       lambda r, c: us_to_text(r.ackdat_us)),
    _F("tcprtt", "handshake", "s", "handshake round trip: synack + ackdat",
       lambda r, c: us_to_text(_tcprtt_us(r))),
    _F("load", "rate", "bit/s", "IP bits per second, both directions",
       lambda r, c: _f(_per_second(r.bytes * 8, r.dur_us))),
    _F("sload", "rate", "bit/s", "source IP bits per second",
       lambda r, c: _f(_per_second(r.src.bytes * 8, r.dur_us))),
    _F("dload", "rate", "bit/s", "destination IP bits per second",
       lambda r, c: _f(_per_second(r.dst.bytes * 8, r.dur_us))),
    _F("rate", "rate", "pkt/s", "packets per second, both directions",
       lambda r, c: _f(_per_second(r.pkts, r.dur_us))),
    _F("srate", "rate", "pkt/s", "source packets per second",
       lambda r, c: _f(_per_second(r.src.pkts, r.dur_us))),
    _F("drate", "rate", "pkt/s", "destination packets per second",
       lambda r, c: _f(_per_second(r.dst.pkts, r.dur_us))),
    _F("appload", "rate", "bit/s", "payload bits per second, both directions",
       lambda r, c: _f(_per_second((r.src.appbytes + r.dst.appbytes) * 8, r.dur_us))),
    _F("sappload", "rate", "bit/s", "source payload bits per second",
       lambda r, c: _f(_per_second(r.src.appbytes * 8, r.dur_us))),
    _F("dappload", "rate", "bit/s", "destination payload bits per second",
       lambda r, c: _f(_per_second(r.dst.appbytes * 8, r.dur_us))),
    _F("intpkt", "iat", "s", "mean inter-arrival time, both directions",
       lambda r, c: _f(_mean_us(r.iat_sum_us, max(r.pkts - 1, 0)))),
    _F("sintpkt", "iat", "s", "mean source inter-arrival time",
       lambda r, c: _f(_mean_us(r.src.iat_sum_us, r.src.iat_count))),
    _F("dintpkt", "iat", "s", "mean destination inter-arrival time",
       lambda r, c: _f(_mean_us(r.dst.iat_sum_us, r.dst.iat_count))),
    _F("jit", "iat", "s", "std dev of inter-arrival times, both directions",
       lambda r, c: _f(_std_us(r.iat_sumsq, r.iat_sum_us, max(r.pkts - 1, 0)))),
    _F("sjit", "iat", "s", "std dev of source inter-arrival times",
       lambda r, c: _f(_std_us(r.src.iat_sumsq, r.src.iat_sum_us, r.src.iat_count))),
    _F("djit", "iat", "s", "std dev of destination inter-arrival times",
       lambda r, c: _f(_std_us(r.dst.iat_sumsq, r.dst.iat_sum_us, r.dst.iat_count))),
    _F("minipt", "iat", "s", "smallest inter-arrival gap, both directions",
       lambda r, c: us_to_text(r.iat_min_us)),
    _F("sminipt", "iat", "s", "smallest source inter-arrival gap",
       lambda r, c: us_to_text(r.src.iat_min_us)),
    _F("dminipt", "iat", "s", "smallest destination inter-arrival gap",
       lambda r, c: us_to_text(r.dst.iat_min_us)),
    _F("maxipt", "iat", "s", "largest inter-arrival gap, both directions",
       lambda r, c: us_to_text(r.iat_max_us)),
    _F("smaxipt", "iat", "s", "largest source inter-arrival gap",
       lambda r, c: us_to_text(r.src.iat_max_us)),
    _F("dmaxipt", "iat", "s", "largest destination inter-arrival gap",
       lambda r, c: us_to_text(r.dst.iat_max_us)),
    _F("totipt", "iat", "s", "sum of inter-arrival gaps, both directions",
       lambda r, c: us_to_text(r.iat_sum_us if r.pkts > 1 else None)),
    _F("stotipt", "iat", "s", "sum of source inter-arrival gaps",
       lambda r, c: us_to_text(r.src.iat_sum_us if r.src.iat_count else None)),
    _F("dtotipt", "iat", "s", "sum of destination inter-arrival gaps",
       lambda r, c: us_to_text(r.dst.iat_sum_us if r.dst.iat_count else None)),
    *_FLAG_COUNTS,
    _F("sstime", "direction-time", "s", "first source packet time",
       lambda r, c: us_to_text(r.src.first_ts_us)),
    _F("sltime", "direction-time", "s", "last source packet time",
       lambda r, c: us_to_text(r.src.last_ts_us)),
    _F("dstime", "direction-time", "s", "first destination packet time",
       lambda r, c: us_to_text(r.dst.first_ts_us)),
    _F("dltime", "direction-time", "s", "last destination packet time",
       lambda r, c: us_to_text(r.dst.last_ts_us)),
    _F("sdur", "direction-time", "s", "source activity span",
       lambda r, c: us_to_text(_span_us(r.src))),
    _F("ddur", "direction-time", "s", "destination activity span",
       lambda r, c: us_to_text(_span_us(r.dst))),
    _F("sminappsz", "payload", "B", "smallest source payload",
       lambda r, c: _i(r.src.app_min)),
    _F("smaxappsz", "payload", "B", "largest source payload",
       lambda r, c: _i(r.src.app_max)),
    _F("dminappsz", "payload", "B", "smallest destination payload",
       lambda r, c: _i(r.dst.app_min)),
    _F("dmaxappsz", "payload", "B", "largest destination payload",
       lambda r, c: _i(r.dst.app_max)),
    _F("sstdappsz", "payload", "B", "std dev of source payloads",
       lambda r, c: _f(_std(r.src.app_sumsq, r.src.appbytes, r.src.pkts))),
    _F("dstdappsz", "payload", "B", "std dev of destination payloads",
       lambda r, c: _f(_std(r.dst.app_sumsq, r.dst.appbytes, r.dst.pkts))),
    _F("minappsz", "payload", "B", "smallest payload either direction",
       lambda r, c: _i(opt_min(r.src.app_min, r.dst.app_min))),
    _F("maxappsz", "payload", "B", "largest payload either direction",
       lambda r, c: _i(opt_max(r.src.app_max, r.dst.app_max))),
    _F("stdappsz", "payload", "B", "std dev of payloads both directions",
       lambda r, c: _f(_std(r.src.app_sumsq + r.dst.app_sumsq,
                            r.src.appbytes + r.dst.appbytes, r.pkts))),
    _F("flows", "management", "", "flow episodes begun in a management window",
       lambda r, c: _i(r.flows)),
    _F("seq", "meta", "", "record position in the flow file",
       lambda r, c: _i(r.seq)),
    _F("trans", "cluster", "", "records merged into this row",
       lambda r, c: str(r.trans)),
    _F("fragcnt", "meta", "", "non-first IP fragments in the flow",
       lambda r, c: str(r.frag_count)),
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


def compute_row(rec: FlowRecord, feature_names, ctx: RowContext) -> list[str]:
    return [_BY_NAME[name].value(rec, ctx) for name in feature_names]


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
