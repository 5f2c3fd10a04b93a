"""Hand-written references for the endpoint statistics that `hera.flows`
generates from `ENDPOINT_STATS`.

`oracle_update` folds one packet into an `EndpointStats`, as the packet
kernel `FlowTable.assign` does for the packet's sending endpoint, and
`oracle_merge` folds a later record's stats into an earlier one's, as
`EndpointStats.merge` does: the code those two replaced, one statement
per statistic. They share only the `EndpointStats` type with the
package, so a disagreement points at the generated code.
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
