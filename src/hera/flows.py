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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .pcap import DecodedPacket

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


def canonical_key(saddr: str, sport: int, daddr: str, dport: int,
                  proto: str) -> tuple[FlowKey, str]:
    """Return the canonical key of a flow from (saddr, sport) to
    (daddr, dport) and which endpoint ('a' or 'b') is its source."""
    if (saddr, sport) <= (daddr, dport):
        return FlowKey(saddr, sport, daddr, dport, proto), "a"
    return FlowKey(daddr, dport, saddr, sport, proto), "b"


@dataclass
class ExportConfig:
    """Knobs for the packet-to-flow stage. Times are integer microseconds."""

    interval_us: int = 60_000_000
    idle_timeout_us: int | None = None  # defaults to the interval
    emit_management: bool = True
    reorder_slack_us: int = 1_000_000

    def __post_init__(self):
        if self.interval_us <= 0:
            raise ValueError("interval must be a positive number of seconds")
        if self.idle_timeout_us is None:
            self.idle_timeout_us = self.interval_us
        if self.idle_timeout_us <= 0:
            raise ValueError("idle timeout must be a positive number of seconds")
        if self.reorder_slack_us < 0:
            raise ValueError("reorder slack must not be negative")


@dataclass(slots=True)
class EndpointStats:
    """Per-endpoint accumulators for one flow record.

    Timestamps follow packet arrival order, so inter-arrival gaps can be
    negative when a capture is slightly reordered within the slack.
    """

    pkts: int = 0
    bytes: int = 0  # sum of on-wire IP lengths
    appbytes: int = 0  # sum of transport payload lengths
    datapkts: int = 0  # packets carrying at least one payload byte
    sz_min: int | None = None
    sz_max: int | None = None
    sz_sumsq: int = 0
    app_min: int | None = None
    app_max: int | None = None
    app_sumsq: int = 0
    ttl_first: int | None = None
    ttl_min: int | None = None
    ttl_max: int | None = None
    tos_first: int | None = None
    win_first: int | None = None
    tcpb_first: int | None = None
    fin_cnt: int = 0
    syn_cnt: int = 0
    rst_cnt: int = 0
    psh_cnt: int = 0
    ack_cnt: int = 0
    urg_cnt: int = 0
    first_ts_us: int | None = None
    last_ts_us: int | None = None
    iat_sum_us: int = 0
    iat_sumsq: int = 0
    iat_min_us: int | None = None
    iat_max_us: int | None = None

    def update(self, packet: DecodedPacket) -> None:
        ts = packet.ts_us
        size = packet.ip_bytes
        payload = packet.payload_bytes
        self.pkts += 1
        self.bytes += size
        self.appbytes += payload
        if payload > 0:
            self.datapkts += 1
        self.sz_sumsq += size * size
        self.app_sumsq += payload * payload
        if self.last_ts_us is None:  # first packet
            self.first_ts_us = ts
            self.sz_min = self.sz_max = size
            self.app_min = self.app_max = payload
            self.ttl_first = self.ttl_min = self.ttl_max = packet.ttl
            self.tos_first = packet.tos
        else:
            observe_gap(self, ts - self.last_ts_us)
            if size < self.sz_min:
                self.sz_min = size
            if size > self.sz_max:
                self.sz_max = size
            if payload < self.app_min:
                self.app_min = payload
            if payload > self.app_max:
                self.app_max = payload
            ttl = packet.ttl
            if ttl < self.ttl_min:
                self.ttl_min = ttl
            if ttl > self.ttl_max:
                self.ttl_max = ttl
        self.last_ts_us = ts
        if self.win_first is None and packet.tcp_window is not None:
            self.win_first = packet.tcp_window
        if self.tcpb_first is None and packet.tcp_seq is not None:
            self.tcpb_first = packet.tcp_seq
        flags = packet.tcp_flags
        if flags:  # bit i is FIN, SYN, RST, PSH, ACK, URG for i = 0..5
            self.fin_cnt += flags & 1
            self.syn_cnt += flags >> 1 & 1
            self.rst_cnt += flags >> 2 & 1
            self.psh_cnt += flags >> 3 & 1
            self.ack_cnt += flags >> 4 & 1
            self.urg_cnt += flags >> 5 & 1

    def merge(self, other: "EndpointStats") -> None:
        """Fold a later record's endpoint stats into this one (clustering)."""
        self.pkts += other.pkts
        self.bytes += other.bytes
        self.appbytes += other.appbytes
        self.datapkts += other.datapkts
        self.sz_sumsq += other.sz_sumsq
        self.app_sumsq += other.app_sumsq
        self.sz_min = opt_min(self.sz_min, other.sz_min)
        self.sz_max = opt_max(self.sz_max, other.sz_max)
        self.app_min = opt_min(self.app_min, other.app_min)
        self.app_max = opt_max(self.app_max, other.app_max)
        self.ttl_min = opt_min(self.ttl_min, other.ttl_min)
        self.ttl_max = opt_max(self.ttl_max, other.ttl_max)
        if self.ttl_first is None:
            self.ttl_first = other.ttl_first
        if self.tos_first is None:
            self.tos_first = other.tos_first
        if self.win_first is None:
            self.win_first = other.win_first
        if self.tcpb_first is None:
            self.tcpb_first = other.tcpb_first
        self.fin_cnt += other.fin_cnt
        self.syn_cnt += other.syn_cnt
        self.rst_cnt += other.rst_cnt
        self.psh_cnt += other.psh_cnt
        self.ack_cnt += other.ack_cnt
        self.urg_cnt += other.urg_cnt
        # Within-record gaps only; FlowRecord.merge adds the gap across
        # the record boundary.
        self.iat_sum_us += other.iat_sum_us
        self.iat_sumsq += other.iat_sumsq
        self.iat_min_us = opt_min(self.iat_min_us, other.iat_min_us)
        self.iat_max_us = opt_max(self.iat_max_us, other.iat_max_us)
        if other.first_ts_us is not None:
            self.first_ts_us = opt_min(self.first_ts_us, other.first_ts_us)
            self.last_ts_us = opt_max(self.last_ts_us, other.last_ts_us)


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


def observe_gap(stats, gap_us: int) -> None:
    """Add one inter-arrival gap to the IAT sums and extremes of an
    EndpointStats or a FlowRecord. Each extreme may be None on its own
    (a record read from a file), so each is tested on its own."""
    stats.iat_sum_us += gap_us
    stats.iat_sumsq += gap_us * gap_us
    if stats.iat_min_us is None or gap_us < stats.iat_min_us:
        stats.iat_min_us = gap_us
    if stats.iat_max_us is None or gap_us > stats.iat_max_us:
        stats.iat_max_us = gap_us


@dataclass(slots=True)
class FlowRecord:
    """One emitted flow record: a slice of a flow episode, or a
    management summary when is_management is set."""

    key: FlowKey
    initiator: str  # 'a' or 'b': which endpoint is the flow source
    stime_us: int
    ltime_us: int
    slice_index: int = 0
    is_management: bool = False
    a: EndpointStats = field(default_factory=EndpointStats)
    b: EndpointStats = field(default_factory=EndpointStats)
    flgs: int = 0  # union of the TCP flag values seen
    tcp_state: str | None = None
    synack_us: int | None = None
    ackdat_us: int | None = None
    iat_sum_us: int = 0
    iat_sumsq: int = 0
    iat_min_us: int | None = None
    iat_max_us: int | None = None
    vlan_id: int | None = None
    ip_version: int | None = None
    frag_count: int = 0
    runtime_us: int = 0
    idle_us: int = 0
    flows: int | None = None  # management records: episodes begun in window
    seq: int | None = None  # position in the flushed/parsed record stream
    trans: int = 1  # constituents merged into this record
    extra: dict[str, str] = field(default_factory=dict)  # unknown fields kept on read

    # -- orientation helpers ------------------------------------------

    @property
    def src(self) -> EndpointStats:
        return self.a if self.initiator == "a" else self.b

    @property
    def dst(self) -> EndpointStats:
        return self.b if self.initiator == "a" else self.a

    @property
    def saddr(self) -> str:
        return self.key.addr_a if self.initiator == "a" else self.key.addr_b

    @property
    def sport(self) -> int:
        return self.key.port_a if self.initiator == "a" else self.key.port_b

    @property
    def daddr(self) -> str:
        return self.key.addr_b if self.initiator == "a" else self.key.addr_a

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
        constituents, flag values OR together and first-seen fields keep the
        earliest value. `prev_ltime_us` is the ltime of the constituent
        folded before `other` (None for the first); the gap from it was
        a real inter-arrival gap that slicing cut, so it goes back into
        the IAT statistics, overall and per endpoint. Management
        summaries have no such gaps; their `flows` counts add up. The
        caller sets the categorical fields."""
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
        if self.is_management:
            self.flows = (self.flows or 0) + (other.flows or 0)


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


class FlowTable:
    """Streaming aggregator from decoded packets to flow records."""

    def __init__(self, config: ExportConfig):
        self.config = config
        self._live: dict[FlowKey, _LiveFlow] = {}
        self._closed: list[FlowRecord] = []
        self.accepted_packets = 0
        self.accepted_bytes = 0
        self.flows_started = 0
        self.skipped_non_monotonic = 0
        self._prev_ts_us: int | None = None  # previous accepted packet
        self.first_ts_us: int | None = None
        self.last_ts_us: int | None = None  # max accepted timestamp
        self._windows: dict[int, list[int]] = {}  # idx -> [pkts, bytes, flows]
        self._flushed = False

    # -- packet intake -------------------------------------------------

    def assign(self, packet: DecodedPacket) -> None:
        ts = packet.ts_us
        if (
            self._prev_ts_us is not None
            and ts < self._prev_ts_us - self.config.reorder_slack_us
        ):
            self.skipped_non_monotonic += 1
            return
        self._prev_ts_us = ts
        self.accepted_packets += 1
        self.accepted_bytes += packet.ip_bytes
        if self.first_ts_us is None:
            self.first_ts_us = self.last_ts_us = ts
        elif ts > self.last_ts_us:
            self.last_ts_us = ts
        window = self._window_counters(ts)
        window[0] += 1
        window[1] += packet.ip_bytes

        key, sender = canonical_key(packet.src_addr, packet.src_port,
                                    packet.dst_addr, packet.dst_port, packet.proto)
        live = self._live.get(key)
        if live is None:
            live = self._open_episode(key, sender, packet, window)
        elif ts - live.rec.ltime_us > self.config.idle_timeout_us:
            self._retire(live, idle_us=ts - live.rec.ltime_us)
            live = self._open_episode(key, sender, packet, window)
        elif ts - live.origin_us >= (live.rec.slice_index + 1) * self.config.interval_us:
            # No packet of a slice lies past the next one's start, so the open
            # record's ltime is the episode's latest timestamp: its idle clock.
            rec = live.rec
            self._close_record(live, idle_us=ts - rec.ltime_us)
            live.rec = FlowRecord(
                key=key, initiator=rec.initiator,
                stime_us=ts, ltime_us=ts,
                slice_index=(ts - live.origin_us) // self.config.interval_us,
                tcp_state=rec.tcp_state, ip_version=packet.ip_version,
            )
            live.last_arrival_us = None

        self._count_packet(live, sender, packet)
        if packet.tcp_flags is not None:
            self._tcp_segment(live, sender, packet.tcp_flags, ts)

    def _window_counters(self, ts_us: int) -> list[int]:
        anchor = self.first_ts_us
        idx = max((ts_us - anchor) // self.config.interval_us, 0)
        counters = self._windows.get(idx)
        if counters is None:
            counters = self._windows[idx] = [0, 0, 0]
        return counters

    def _open_episode(self, key, sender, packet, window) -> _LiveFlow:
        ts = packet.ts_us
        rec = FlowRecord(key=key, initiator=sender, stime_us=ts, ltime_us=ts,
                         ip_version=packet.ip_version)
        live = _LiveFlow(rec)
        self._live[key] = live
        self.flows_started += 1
        window[2] += 1
        return live

    def _count_packet(self, live: _LiveFlow, sender: str, packet: DecodedPacket) -> None:
        ts = packet.ts_us
        rec = live.rec
        if ts < rec.stime_us:
            rec.stime_us = ts
        if ts > rec.ltime_us:
            rec.ltime_us = ts
        (rec.a if sender == "a" else rec.b).update(packet)
        if live.last_arrival_us is not None:
            observe_gap(rec, ts - live.last_arrival_us)
        live.last_arrival_us = ts
        if rec.vlan_id is None and packet.vlan_id is not None:
            rec.vlan_id = packet.vlan_id
        if packet.is_fragment:
            rec.frag_count += 1

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
        the full record list ordered by (stime, canonical key)."""
        if self._flushed:
            raise RuntimeError("flow table already flushed")
        self._flushed = True
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


def collect_flows(packets, config: ExportConfig) -> list[FlowRecord]:
    """One-shot aggregation: feed packets through a fresh table and flush."""
    table = FlowTable(config)
    for packet in packets:
        table.assign(packet)
    return table.flush()
