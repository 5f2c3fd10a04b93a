"""Bidirectional flow aggregation.

Packets are grouped under a canonical five-tuple key; the sender of the
first packet of a flow episode becomes the source and never swaps, no
matter how delayed the first response is. Records are cut by a slicing
interval anchored at the flow's first packet, by an idle timeout, and by
TCP lifecycle: any RST closes a flow, a FIN handshake closes it only once
both directions have sent a FIN and the second FIN has been acknowledged.
A lone FIN never closes a flow. `FlowTable._tcp_segment` is the one home
of these and every other TCP connection rule.

TCP flags are carried as one int of the six classic header bits, from
the decoded packet to the record's `flgs`; this module alone owns their
bits (`FIN` ... `URG`) and text (`FLAG_TEXT`, `FLAG_VALUES`).

`ENDPOINT_STATS` declares each per-endpoint statistic once: its
attribute, `.hera` field and fold rule. The `EndpointStats` class, its
`merge`, `observe_gap`, the `.hera` field order and the packet kernel's
endpoint fold are generated from it; `FlowRecord` is generated from
its own field table, `RECORD_FIELDS`. The packet kernel,
`FlowTable.assign`, is compiled once when this module is imported: one
function per packet that counts it, opens, retires or slices its
episode and folds it into the record, calling `_tcp_segment` for TCP.
"""

from __future__ import annotations

from typing import NamedTuple

from .kernels import REQUIRED, compile_kernel, slotted
from .timefmt import MAX_DIGITS

STATE_REQ = "REQ"
STATE_CON = "CON"
STATE_FIN = "FIN"
STATE_RST = "RST"

MANAGEMENT_PROTO = "man"

# TCP flags are one int: the six classic flag bits at their TCP-header
# values. A segment's NS, CWR and ECE bits are dropped when it is decoded.
FIN, SYN, RST, PSH, ACK, URG = 0x01, 0x02, 0x04, 0x08, 0x10, 0x20

# The text of each of the 64 flag values: its letters in SAFRPU order.
FLAG_TEXT = tuple(
    "".join(letter for letter, bit in
            (("S", SYN), ("A", ACK), ("F", FIN), ("R", RST), ("P", PSH), ("U", URG))
            if value & bit)
    for value in range(64))
FLAG_VALUES = {text: value for value, text in enumerate(FLAG_TEXT)}


class FlowKey(NamedTuple):
    """Canonical bidirectional key: the lexicographically smaller
    (address, port) endpoint is always endpoint a."""

    addr_a: str
    port_a: int
    addr_b: str
    port_b: int
    proto: str


MANAGEMENT_KEY = FlowKey("0.0.0.0", 0, "0.0.0.0", 0, MANAGEMENT_PROTO)


@slotted((
    ("interval_us", 60_000_000),
    ("idle_timeout_us", None),  # defaults to the interval
    ("emit_management", True),
    ("reorder_slack_us", 1_000_000),
))
class ExportConfig:
    """Knobs for the packet-to-flow stage. Times are integer microseconds."""

    def __post_init__(self):
        """Check each time against its least value and, as a .hera header
        echoes it, against MAX_DIGITS; an error starts with the time's
        key."""
        if self.idle_timeout_us is None:
            self.idle_timeout_us = self.interval_us
        positive = "must be a positive number of seconds, at least one microsecond"
        for name, least, rule in (("interval", 1, positive), ("idle_timeout", 1, positive),
                                  ("reorder_slack", 0, "must not be negative")):
            value = getattr(self, name + "_us")
            if value < least:
                raise ValueError(f"{name} {rule}")
            if value >= 10 ** MAX_DIGITS:
                raise ValueError(f"{name} must be under 10^{MAX_DIGITS - 6} seconds, "
                                 "the most a .hera file holds")


def opt_min(x, y):
    """min() where None means never observed."""
    if x is None:
        return y
    if y is None:
        return x
    return min(x, y)


def opt_max(x, y):
    """max() where None means never observed."""
    if x is None:
        return y
    if y is None:
        return x
    return max(x, y)


# Each statistic one endpoint of a record carries, in `.hera` line order:
# (EndpointStats attribute, `.hera` name suffix, value kind, fold rule,
# folded value). An "int" or "time" statistic starts at 0, an optional
# one at None (never observed). Timestamps follow packet arrival order,
# so inter-arrival gaps can be negative when a capture is slightly
# reordered within the slack.
ENDPOINT_STATS = (
    ("pkts", "pkts", "int", "sum", "1"),
    ("bytes", "bytes", "int", "sum", "size"),  # on-wire IP lengths
    ("appbytes", "appbytes", "int", "sum", "payload"),  # transport payload lengths
    ("datapkts", "datapkts", "int", "non-empty count", "payload"),
    ("sz_min", "minsz", "oint", "min", "size"),
    ("sz_max", "maxsz", "oint", "max", "size"),
    ("sz_sumsq", "sqsz", "int", "sum of squares", "size"),
    ("app_min", "minappsz", "oint", "min", "payload"),
    ("app_max", "maxappsz", "oint", "max", "payload"),
    ("app_sumsq", "sqappsz", "int", "sum of squares", "payload"),
    ("ttl_first", "ttl", "oint", "first seen", "ttl"),
    ("ttl_min", "minttl", "oint", "min", "ttl"),
    ("ttl_max", "maxttl", "oint", "max", "ttl"),
    ("tos_first", "tos", "oint", "first seen", "tos"),
    ("win_first", "win", "oint", "first non-None", "window"),
    ("tcpb_first", "tcpb", "oint", "first non-None", "seq"),
    ("fin_cnt", "fin", "int", "flag-bit count", "FIN"),
    ("syn_cnt", "syn", "int", "flag-bit count", "SYN"),
    ("rst_cnt", "rst", "int", "flag-bit count", "RST"),
    ("psh_cnt", "psh", "int", "flag-bit count", "PSH"),
    ("ack_cnt", "ack", "int", "flag-bit count", "ACK"),
    ("urg_cnt", "urg", "int", "flag-bit count", "URG"),
    ("first_ts_us", "stime", "otime", "first time", "ts"),
    ("last_ts_us", "ltime", "otime", "last time", "ts"),
    ("iat_sum_us", "ipsum", "time", "gap sum", "gap"),
    ("iat_sumsq", "ipsq", "int", "gap sum of squares", "gap"),
    ("iat_min_us", "ipmin", "otime", "gap min", "gap"),
    ("iat_max_us", "ipmax", "otime", "gap max", "gap"),
)

# Each fold rule: its line of EndpointStats.merge, which folds a later
# record's stats `o` into `s`, and its lines of the packet fold by
# section: "load" comes first, "head" runs for every packet, "first" for
# the endpoint's first packet in the record, "later" for each later one
# (`gap` after the endpoint's previous packet), then "tail", and "flags"
# for a segment with a flag set. {a} is the attribute, {v} the folded
# value and {e} the stats it is folded into. Merged gaps are those within
# each record; FlowRecord.merge adds the gap across the record boundary.
_FOLD_RULES = {
    "sum": ("s.{a} += o.{a}", {"head": "{e}.{a} += {v}"}),
    "sum of squares": ("s.{a} += o.{a}", {"head": "{e}.{a} += {v} * {v}"}),
    "non-empty count": ("s.{a} += o.{a}", {"head": "if {v} > 0: {e}.{a} += 1"}),
    "min": ("s.{a} = opt_min(s.{a}, o.{a})",
            {"first": "{e}.{a} = {v}", "later": "if {v} < {e}.{a}: {e}.{a} = {v}"}),
    "max": ("s.{a} = opt_max(s.{a}, o.{a})",
            {"first": "{e}.{a} = {v}", "later": "if {v} > {e}.{a}: {e}.{a} = {v}"}),
    "first seen": ("if s.{a} is None: s.{a} = o.{a}", {"first": "{e}.{a} = {v}"}),
    "first non-None": ("if s.{a} is None: s.{a} = o.{a}",
                       {"tail": "if {e}.{a} is None and {v} is not None: {e}.{a} = {v}"}),
    "flag-bit count": ("s.{a} += o.{a}", {"flags": "if flags & {v}: {e}.{a} += 1"}),
    "first time": ("s.{a} = opt_min(s.{a}, o.{a})", {"first": "{e}.{a} = {v}"}),
    "last time": ("s.{a} = opt_max(s.{a}, o.{a})",
                  {"load": "last = {e}.{a}", "tail": "{e}.{a} = {v}"}),
    "gap sum": ("s.{a} += o.{a}", {"later": "{e}.{a} += {v}"}),
    "gap sum of squares": ("s.{a} += o.{a}", {"later": "{e}.{a} += {v} * {v}"}),
    "gap min": ("s.{a} = opt_min(s.{a}, o.{a})",
                {"later": "if {e}.{a} is None or {v} < {e}.{a}: {e}.{a} = {v}"}),
    "gap max": ("s.{a} = opt_max(s.{a}, o.{a})",
                {"later": "if {e}.{a} is None or {v} > {e}.{a}: {e}.{a} = {v}"}),
}


def _fold_lines(section: str, target: str, indent: int, gaps_only: bool = False) -> str:
    """The packet fold's lines of one section, folding into `target`."""
    return "".join(
        " " * indent + _FOLD_RULES[rule][1][section].format(a=attr, v=value, e=target) + "\n"
        for attr, _, _, rule, value in ENDPOINT_STATS
        if section in _FOLD_RULES[rule][1] and (rule.startswith("gap") or not gaps_only))


# Each field of an EndpointStats, in ENDPOINT_STATS order: (attribute,
# default). An "int" or "time" statistic starts at 0, an optional one at
# None.
ENDPOINT_FIELDS = tuple((attr, 0 if kind in ("int", "time") else None)
                        for attr, _, kind, _, _ in ENDPOINT_STATS)


@slotted(ENDPOINT_FIELDS)
class EndpointStats:
    """Per-endpoint accumulators for one flow record (ENDPOINT_STATS)."""

    # Fold a later record's endpoint stats into this one (clustering).
    merge = compile_kernel("EndpointStats.merge", "def kernel(s, o):\n" + "".join(
        "    " + _FOLD_RULES[rule][0].format(a=attr) + "\n"
        for attr, _, _, rule, _ in ENDPOINT_STATS), {"opt_min": opt_min, "opt_max": opt_max})

# observe_gap(stats, gap_us) adds one inter-arrival gap to the IAT sums and
# extremes of an EndpointStats or a FlowRecord. Each extreme may be None on
# its own (a record read from a file), so each is tested on its own.
observe_gap = compile_kernel(
    "observe_gap", "def kernel(e, gap):\n" + _fold_lines("later", "e", 4, gaps_only=True), {})


# Each field of a FlowRecord, in constructor order: (attribute, default).
# `a` and `b` (the endpoints' EndpointStats) are new for each record.
RECORD_FIELDS = (
    ("key", REQUIRED),  # a FlowKey
    ("initiator", REQUIRED),  # 'a' or 'b': which endpoint is the flow source
    ("stime_us", REQUIRED),
    ("ltime_us", REQUIRED),
    ("slice_index", 0),
    ("is_management", False),
    ("a", EndpointStats),
    ("b", EndpointStats),
    ("flgs", 0),  # union of the TCP flag values seen
    ("tcp_state", None),
    ("synack_us", None),
    ("ackdat_us", None),
    ("iat_sum_us", 0),
    ("iat_sumsq", 0),
    ("iat_min_us", None),
    ("iat_max_us", None),
    ("vlan_id", None),
    ("ip_version", None),
    ("frag_count", 0),
    ("runtime_us", 0),
    ("idle_us", 0),
    ("flows", None),  # management records: episodes begun in window
    ("seq", None),  # position in the flushed/parsed record stream
    ("trans", 1),  # constituents merged into this record
)


@slotted(RECORD_FIELDS)
class FlowRecord:
    """One emitted flow record: a slice of a flow episode, or a
    management summary when is_management is set."""

    @property
    def sport(self) -> int:
        return self.key.port_a if self.initiator == "a" else self.key.port_b

    @property
    def dport(self) -> int:
        return self.key.port_b if self.initiator == "a" else self.key.port_a

    @property
    def pkts(self) -> int:
        return self.a.pkts + self.b.pkts

    @property
    def bytes(self) -> int:
        return self.a.bytes + self.b.bytes

    @property
    def dur_us(self) -> int:
        return self.ltime_us - self.stime_us

    def sort_key(self):
        return (self.stime_us, *self.key, self.slice_index, self.is_management)

    def merge(self, other: "FlowRecord", prev_ltime_us: int | None) -> None:
        """Fold in the next constituent of the same key, in stime order
        (racluster). Counters and sums add up, stime/ltime span the
        constituents, flag values OR together, first-seen fields keep the
        earliest value and `flows` adds up where it is set. `prev_ltime_us`
        is the ltime of the constituent folded before `other` (None for the
        first); the gap from it was a real inter-arrival gap that slicing
        cut, so it goes back into the IAT statistics, overall and per
        endpoint; management summaries have no such gaps. The caller sets
        the categorical fields. A record merged alone gives its equal."""
        if prev_ltime_us is not None and not other.is_management:
            observe_gap(self, other.stime_us - prev_ltime_us)
            for mine, theirs in ((self.a, other.a), (self.b, other.b)):
                if mine.last_ts_us is not None and theirs.first_ts_us is not None:
                    observe_gap(mine, theirs.first_ts_us - mine.last_ts_us)
        self.stime_us = min(self.stime_us, other.stime_us)
        self.ltime_us = max(self.ltime_us, other.ltime_us)
        self.a.merge(other.a)
        self.b.merge(other.b)
        self.flgs |= other.flgs
        self.runtime_us += other.runtime_us
        self.frag_count += other.frag_count
        self.trans += other.trans
        self.iat_sum_us += other.iat_sum_us
        self.iat_sumsq += other.iat_sumsq
        self.iat_min_us = opt_min(self.iat_min_us, other.iat_min_us)
        self.iat_max_us = opt_max(self.iat_max_us, other.iat_max_us)
        if self.synack_us is None:
            self.synack_us = other.synack_us
        if self.ackdat_us is None:
            self.ackdat_us = other.ackdat_us
        if self.vlan_id is None:
            self.vlan_id = other.vlan_id
        if self.ip_version is None:
            self.ip_version = other.ip_version
        if other.flows is not None:
            self.flows = (self.flows or 0) + other.flows


# The head of the row and `.hera` writer kernels over a record `r`: its
# key `k` and, by its initiator, its source's and destination's
# EndpointStats `s` and `d`, addresses `sa` and `da` and ports `sp` and `dp`.
RECORD_KERNEL_HEAD = (
    "    k = r.key\n"
    "    if r.initiator == 'a':\n"
    "        s, d, sa, sp, da, dp = r.a, r.b, k.addr_a, k.port_a, k.addr_b, k.port_b\n"
    "    else:\n"
    "        s, d, sa, sp, da, dp = r.b, r.a, k.addr_b, k.port_b, k.addr_a, k.port_a\n")


def make_management_record(
    window_start_us: int, window_end_us: int,
    packets: int, byte_count: int, flows: int,
) -> FlowRecord:
    """Build the per-window summary record with a zeroed key."""
    rec = FlowRecord(
        key=MANAGEMENT_KEY, initiator="a",
        stime_us=window_start_us, ltime_us=window_end_us,
        is_management=True, flows=flows,
    )
    rec.a.pkts = packets
    rec.a.bytes = byte_count
    rec.runtime_us = rec.dur_us
    return rec


class _LiveFlow:
    """Mutable per-episode state while a flow is open. The open record
    holds the episode's initiator, TCP state and latest timestamp."""

    __slots__ = (
        "rec", "origin_us", "fins", "syn_ts_us", "synack_ts_us", "ackdat_done",
        "last_arrival_us",
    )

    def __init__(self, rec: FlowRecord):
        self.rec = rec
        self.origin_us = rec.stime_us
        self.fins = ""  # the endpoints that have sent a FIN, in order
        self.syn_ts_us = None
        self.synack_ts_us = None
        self.ackdat_done = False
        self.last_arrival_us = None  # within the current slice


# The one orientation rule, of FlowTable.assign and the .hera reader: from
# `saddr`, `sport`, `daddr`, `dport` and `proto`, the canonical key tuple
# `key` and `sender`, the endpoint ('a' or 'b') that the source is.
ORIENT_KEY = """\
    if saddr < daddr or saddr == daddr and sport <= dport:
        sender, key = 'a', (saddr, sport, daddr, dport, proto)
    else:
        sender, key = 'b', (daddr, dport, saddr, sport, proto)
"""

# The packet kernel, FlowTable.assign. Its key ({orient}), endpoint fold
# ({load} ... {flags}) and record IAT fold ({record_gap}) come from
# ORIENT_KEY and ENDPOINT_STATS. The key is looked up as a plain tuple; a
# FlowKey is built only when an episode opens.
_ASSIGN = """\
def kernel(self, packet):
    (ts, saddr, daddr, sport, dport, proto, size, payload, ttl, tos, version,
     is_fragment, flags, window, seq, vlan_id) = packet
    config = self.config
    prev = self._prev_ts_us
    if prev is not None and ts < prev - config.reorder_slack_us:
        self.skipped_non_monotonic += 1
        return
    self._prev_ts_us = ts
    self.accepted_packets += 1
    first = self.first_ts_us
    if first is None:
        self.first_ts_us = self.last_ts_us = first = ts
    elif ts > self.last_ts_us:
        self.last_ts_us = ts
    interval = config.interval_us
    index = (ts - first) // interval
    if index < 0:
        index = 0
    counters = self._windows.get(index)
    if counters is None:
        counters = self._windows[index] = [0, 0, 0]
    counters[0] += 1
    counters[1] += size

{orient}    live = self._live.get(key)
    if live is not None:
        rec = live.rec
        if ts - rec.ltime_us > config.idle_timeout_us:
            self._retire(live, ts - rec.ltime_us)
            live = None
        elif ts - live.origin_us >= (rec.slice_index + 1) * interval:
            # No packet of a slice lies past the next one's start, so the open
            # record's ltime is the episode's latest timestamp: its idle clock.
            self._close_record(live, ts - rec.ltime_us)
            live.rec = rec = FlowRecord(
                rec.key, rec.initiator, ts, ts, (ts - live.origin_us) // interval,
                tcp_state=rec.tcp_state, ip_version=version)
            live.last_arrival_us = None
    if live is None:
        rec = FlowRecord(tuple.__new__(FlowKey, key), sender, ts, ts, ip_version=version)
        live = self._live[key] = _LiveFlow(rec)
        self.flows_started += 1
        counters[2] += 1

    if ts < rec.stime_us:
        rec.stime_us = ts
    if ts > rec.ltime_us:
        rec.ltime_us = ts
    e = rec.a if sender == "a" else rec.b
{load}{head}    if last is None:
{first}    else:
        gap = ts - last
{later}{tail}    if flags:
{flags}    arrival = live.last_arrival_us
    if arrival is not None:
        gap = ts - arrival
{record_gap}    live.last_arrival_us = ts
    if vlan_id is not None and rec.vlan_id is None:
        rec.vlan_id = vlan_id
    if is_fragment:
        rec.frag_count += 1
    if flags is not None:
        self._tcp_segment(live, sender, flags, ts)
"""


def _packet_kernel():
    """FlowTable.assign, compiled from _ASSIGN and ENDPOINT_STATS."""
    sections = {section: _fold_lines(section, "e", indent)
                for section, indent in (("load", 4), ("head", 4), ("first", 8), ("later", 8),
                                        ("tail", 4), ("flags", 8))}
    source = _ASSIGN.format(**sections, orient=ORIENT_KEY,
                            record_gap=_fold_lines("later", "rec", 8, gaps_only=True))
    namespace = {"FlowRecord": FlowRecord, "FlowKey": FlowKey, "_LiveFlow": _LiveFlow,
                 "FIN": FIN, "SYN": SYN, "RST": RST, "PSH": PSH, "ACK": ACK, "URG": URG}
    return compile_kernel("FlowTable.assign", source, namespace)


class FlowTable:
    """Streaming aggregator from decoded packets to flow records.

    `assign(packet)` takes one packet: it counts the packet, opens,
    retires or slices the packet's flow episode, folds the packet into
    the record and applies `_tcp_segment` to a TCP segment."""

    def __init__(self, config: ExportConfig):
        self.config = config
        self._live: dict[tuple, _LiveFlow] = {}
        self._closed: list[FlowRecord] = []
        self.accepted_packets = 0
        self.flows_started = 0
        self.skipped_non_monotonic = 0
        self._prev_ts_us: int | None = None  # previous accepted packet
        self.first_ts_us: int | None = None
        self.last_ts_us: int | None = None  # max accepted timestamp
        self._windows: dict[int, list[int]] = {}  # idx -> [pkts, bytes, flows]

    # Compiled once, when this module is imported: a class attribute, so
    # that a wrapper set on the class sees every packet.
    assign = _packet_kernel()

    def _tcp_segment(self, live: _LiveFlow, sender: str, flags: int, ts: int) -> None:
        """Apply the TCP connection rules to one segment of the episode, in
        this order:
        1. its flags join the record's `flgs`;
        2. the state is REQ or CON by the SYN bit of the episode's first
           segment, and REQ becomes CON once the other side sends;
        3. the first SYN -> SYN/ACK and the first SYN/ACK -> ACK latencies
           are kept, each on the record of the slice where it happens;
        4. any RST closes the episode, and so does an ACK after both FINs
           from the endpoint that did not send the second FIN."""
        rec = live.rec
        rec.flgs |= flags
        if rec.tcp_state is None:
            rec.tcp_state = STATE_REQ if flags & SYN else STATE_CON
        elif rec.tcp_state == STATE_REQ and sender != rec.initiator:
            rec.tcp_state = STATE_CON
        if flags & SYN:
            if not flags & ACK:
                if live.syn_ts_us is None:
                    live.syn_ts_us = ts
            elif live.synack_ts_us is None:
                live.synack_ts_us = ts
                if live.syn_ts_us is not None:
                    rec.synack_us = ts - live.syn_ts_us
        elif flags & ACK and live.synack_ts_us is not None and not live.ackdat_done:
            live.ackdat_done = True
            rec.ackdat_us = ts - live.synack_ts_us
        fins = live.fins
        if flags & FIN and sender not in fins:
            live.fins = fins = fins + sender
        if flags & RST:
            rec.tcp_state = STATE_RST
        elif flags & ACK and len(fins) == 2 and sender != fins[1]:
            rec.tcp_state = STATE_FIN
        else:
            return
        self._retire(live, idle_us=0)

    def _close_record(self, live: _LiveFlow, idle_us: int) -> None:
        """Finish the live record and queue it for output."""
        rec = live.rec
        rec.runtime_us = rec.dur_us
        rec.idle_us = max(idle_us, 0)
        self._closed.append(rec)

    def _retire(self, live: _LiveFlow, idle_us: int) -> None:
        """Close the record and end the episode."""
        self._close_record(live, idle_us)
        del self._live[live.rec.key]

    # -- end of capture --------------------------------------------------

    def flush(self) -> list[FlowRecord]:
        """Close everything still live, add management records, and return
        the full record list ordered by (stime, canonical key); once, at
        the end of the packets."""
        last = self.last_ts_us
        for live in list(self._live.values()):
            self._retire(live, idle_us=last - live.rec.ltime_us)
        records = self._closed
        if self.config.emit_management and self.first_ts_us is not None:
            records.extend(self._management_records())
        records.sort(key=FlowRecord.sort_key)
        for i, rec in enumerate(records):
            rec.seq = i
        return records

    def _management_records(self) -> list[FlowRecord]:
        """One record per interval window that saw a packet, so at most one
        per accepted packet however far apart the timestamps lie. The
        window of the last timestamp ends at it."""
        interval = self.config.interval_us
        t0 = self.first_ts_us
        last_index = (self.last_ts_us - t0) // interval
        out = []
        for idx in sorted(self._windows):
            start = t0 + idx * interval
            end = self.last_ts_us if idx == last_index else start + interval
            pkts, nbytes, flows = self._windows[idx]
            out.append(make_management_record(start, end, pkts, nbytes, flows))
        return out
