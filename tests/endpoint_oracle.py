"""Hand-written references for the endpoint statistics that `hera.flows`
generates from `ENDPOINT_STATS`.

`oracle_update` folds one packet into an `EndpointStats`, as the packet
kernel `FlowTable.assign` does for the packet's sending endpoint, and
`oracle_merge` folds a later record's stats into an earlier one's, as
`EndpointStats.merge` does: the code those two replaced, one statement
per statistic. They share only the `EndpointStats` type with the
package, so a disagreement points at the generated code.

`oracle_record_merge` folds a later record into an earlier one by
README's racluster rules, as `FlowRecord.merge` does, one statement per
record-level field and `oracle_merge` for the two endpoints.
"""

from __future__ import annotations


def _opt_min(x, y):
    if x is None:
        return y
    if y is None:
        return x
    return min(x, y)


def _opt_max(x, y):
    if x is None:
        return y
    if y is None:
        return x
    return max(x, y)


def _observe_gap(stats, gap_us: int) -> None:
    stats.iat_sum_us += gap_us
    stats.iat_sumsq += gap_us * gap_us
    if stats.iat_min_us is None or gap_us < stats.iat_min_us:
        stats.iat_min_us = gap_us
    if stats.iat_max_us is None or gap_us > stats.iat_max_us:
        stats.iat_max_us = gap_us


def oracle_update(stats, packet) -> None:
    ts = packet.ts_us
    size = packet.ip_bytes
    payload = packet.payload_bytes
    stats.pkts += 1
    stats.bytes += size
    stats.appbytes += payload
    if payload > 0:
        stats.datapkts += 1
    stats.sz_sumsq += size * size
    stats.app_sumsq += payload * payload
    if stats.last_ts_us is None:  # first packet
        stats.first_ts_us = ts
        stats.sz_min = stats.sz_max = size
        stats.app_min = stats.app_max = payload
        stats.ttl_first = stats.ttl_min = stats.ttl_max = packet.ttl
        stats.tos_first = packet.tos
    else:
        _observe_gap(stats, ts - stats.last_ts_us)
        if size < stats.sz_min:
            stats.sz_min = size
        if size > stats.sz_max:
            stats.sz_max = size
        if payload < stats.app_min:
            stats.app_min = payload
        if payload > stats.app_max:
            stats.app_max = payload
        ttl = packet.ttl
        if ttl < stats.ttl_min:
            stats.ttl_min = ttl
        if ttl > stats.ttl_max:
            stats.ttl_max = ttl
    stats.last_ts_us = ts
    if stats.win_first is None and packet.tcp_window is not None:
        stats.win_first = packet.tcp_window
    if stats.tcpb_first is None and packet.tcp_seq is not None:
        stats.tcpb_first = packet.tcp_seq
    flags = packet.tcp_flags
    if flags:  # bit i is FIN, SYN, RST, PSH, ACK, URG for i = 0..5
        stats.fin_cnt += flags & 1
        stats.syn_cnt += flags >> 1 & 1
        stats.rst_cnt += flags >> 2 & 1
        stats.psh_cnt += flags >> 3 & 1
        stats.ack_cnt += flags >> 4 & 1
        stats.urg_cnt += flags >> 5 & 1


def oracle_merge(stats, other) -> None:
    stats.pkts += other.pkts
    stats.bytes += other.bytes
    stats.appbytes += other.appbytes
    stats.datapkts += other.datapkts
    stats.sz_sumsq += other.sz_sumsq
    stats.app_sumsq += other.app_sumsq
    stats.sz_min = _opt_min(stats.sz_min, other.sz_min)
    stats.sz_max = _opt_max(stats.sz_max, other.sz_max)
    stats.app_min = _opt_min(stats.app_min, other.app_min)
    stats.app_max = _opt_max(stats.app_max, other.app_max)
    stats.ttl_min = _opt_min(stats.ttl_min, other.ttl_min)
    stats.ttl_max = _opt_max(stats.ttl_max, other.ttl_max)
    if stats.ttl_first is None:
        stats.ttl_first = other.ttl_first
    if stats.tos_first is None:
        stats.tos_first = other.tos_first
    if stats.win_first is None:
        stats.win_first = other.win_first
    if stats.tcpb_first is None:
        stats.tcpb_first = other.tcpb_first
    stats.fin_cnt += other.fin_cnt
    stats.syn_cnt += other.syn_cnt
    stats.rst_cnt += other.rst_cnt
    stats.psh_cnt += other.psh_cnt
    stats.ack_cnt += other.ack_cnt
    stats.urg_cnt += other.urg_cnt
    stats.iat_sum_us += other.iat_sum_us
    stats.iat_sumsq += other.iat_sumsq
    stats.iat_min_us = _opt_min(stats.iat_min_us, other.iat_min_us)
    stats.iat_max_us = _opt_max(stats.iat_max_us, other.iat_max_us)
    stats.first_ts_us = _opt_min(stats.first_ts_us, other.first_ts_us)
    stats.last_ts_us = _opt_max(stats.last_ts_us, other.last_ts_us)


def oracle_record_merge(rec, other, prev_ltime_us) -> None:
    """Fold `other`, the next record of `rec`'s key in stime order, into
    `rec`; `prev_ltime_us` is the ltime of the record folded before
    `other`, None when `rec` is the first."""
    # The gap across the record boundary goes back into the IAT statistics,
    # overall and per endpoint, but a management summary has no such gap.
    if prev_ltime_us is not None and not other.is_management:
        _observe_gap(rec, other.stime_us - prev_ltime_us)
        if rec.a.last_ts_us is not None and other.a.first_ts_us is not None:
            _observe_gap(rec.a, other.a.first_ts_us - rec.a.last_ts_us)
        if rec.b.last_ts_us is not None and other.b.first_ts_us is not None:
            _observe_gap(rec.b, other.b.first_ts_us - rec.b.last_ts_us)
    rec.stime_us = min(rec.stime_us, other.stime_us)
    rec.ltime_us = max(rec.ltime_us, other.ltime_us)
    oracle_merge(rec.a, other.a)
    oracle_merge(rec.b, other.b)
    rec.flgs = rec.flgs | other.flgs
    rec.runtime_us += other.runtime_us
    rec.frag_count += other.frag_count
    rec.trans += other.trans
    rec.iat_sum_us += other.iat_sum_us
    rec.iat_sumsq += other.iat_sumsq
    rec.iat_min_us = _opt_min(rec.iat_min_us, other.iat_min_us)
    rec.iat_max_us = _opt_max(rec.iat_max_us, other.iat_max_us)
    if rec.synack_us is None:
        rec.synack_us = other.synack_us
    if rec.ackdat_us is None:
        rec.ackdat_us = other.ackdat_us
    if rec.vlan_id is None:
        rec.vlan_id = other.vlan_id
    if rec.ip_version is None:
        rec.ip_version = other.ip_version
    if other.flows is not None:
        rec.flows = other.flows if rec.flows is None else rec.flows + other.flows
