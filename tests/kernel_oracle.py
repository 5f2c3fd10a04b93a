"""Per-cell and per-field references for the compiled per-record kernels.

`oracle_row` computes a feature row one cell function at a time, and
`oracle_format_record` writes a `.hera` record line one field at a
time: the implementations the generated kernels in `hera.features` and
`hera.herafile` replaced. They share no formatting code with the
package (only the flag table and the record line's field order, which
declare the format), so a disagreement points at a kernel.
"""

from __future__ import annotations

import math
from operator import attrgetter

from hera.flows import FLAG_TEXT
from hera.herafile import _LINE


def _i(value) -> str:
    return "" if value is None else str(value)


def _time(us) -> str:
    if us is None:
        return ""
    sign = "-" if us < 0 else ""
    mag = abs(us)
    return f"{sign}{mag // 1_000_000}.{mag % 1_000_000:06d}"


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


def _opt_min(x, y):
    return y if x is None else x if y is None else min(x, y)


def _opt_max(x, y):
    return y if x is None else x if y is None else max(x, y)


def _span_us(stats):
    if stats.first_ts_us is None or stats.last_ts_us is None:
        return None
    return stats.last_ts_us - stats.first_ts_us


def _iat_count(stats):
    return max(stats.pkts - 1, 0)


def _tcprtt_us(rec):
    if rec.synack_us is None or rec.ackdat_us is None:
        return None
    return rec.synack_us + rec.ackdat_us


def _sm_ips_ports(rec, src, dst, ctx):
    if rec.is_management:
        return ""
    same = rec.saddr == rec.daddr and rec.sport == rec.dport
    return "1" if same else "0"


def _sides(*stats):
    """(name, cell) of each per-side statistic: every source entry, then
    every destination entry; value(one side's stats, record)."""
    return [("s" + name, lambda r, s, d, c, value=value: value(s, r)) for name, value in stats] + [
        ("d" + name, lambda r, s, d, c, value=value: value(d, r)) for name, value in stats]


def _flag_counts():
    both, per_side = [], []
    for flag in ("fin", "syn", "rst", "psh", "ack", "urg"):
        get = attrgetter(flag + "_cnt")
        both.append((flag + "cnt", lambda r, s, d, c, get=get:
                     str(get(s) + get(d)) if r.key.proto == "tcp" else ""))
        per_side.append((flag + "cnt", lambda e, r, get=get:
                         str(get(e)) if r.key.proto == "tcp" else ""))
    return both + _sides(*per_side)


# Each feature's cell function, (record, source stats, destination stats,
# RowContext) -> text, in catalog order.
CELLS = dict([
    ("FlowID", lambda r, s, d, c: f"{r.daddr}-{r.saddr}-{r.dport}-{r.sport}-{r.key.proto}"),
    ("rank", lambda r, s, d, c: str(c.rank)),
    ("stime", lambda r, s, d, c: _time(r.stime_us)),
    ("ltime", lambda r, s, d, c: _time(r.ltime_us)),
    ("sport", lambda r, s, d, c: str(r.sport)),
    ("dport", lambda r, s, d, c: str(r.dport)),
    ("saddr", lambda r, s, d, c: r.saddr),
    ("daddr", lambda r, s, d, c: r.daddr),
    ("proto", lambda r, s, d, c: r.key.proto),
    ("bytes", lambda r, s, d, c: str(s.bytes + d.bytes)),
    *_sides(("bytes", lambda e, r: str(e.bytes))),
    ("pkts", lambda r, s, d, c: str(s.pkts + d.pkts)),
    *_sides(("pkts", lambda e, r: str(e.pkts))),
    ("dur", lambda r, s, d, c: _time(r.ltime_us - r.stime_us)),
    ("runtime", lambda r, s, d, c: _time(r.runtime_us)),
    ("idle", lambda r, s, d, c: _time(r.idle_us)),
    ("flgs", lambda r, s, d, c: FLAG_TEXT[r.flgs]),
    ("tcpopt", lambda r, s, d, c: _i(r.tcp_state)),
    ("Ssaddr", lambda r, s, d, c: _i(c.ssaddr)),
    ("Sdaddr", lambda r, s, d, c: _i(c.sdaddr)),
    ("service", lambda r, s, d, c: c.service),
    ("slice", lambda r, s, d, c: str(r.slice_index)),
    ("mgmt", lambda r, s, d, c: "1" if r.is_management else "0"),
    ("ipver", lambda r, s, d, c: _i(r.ip_version)),
    ("vlanid", lambda r, s, d, c: _i(r.vlan_id)),
    ("is_sm_ips_ports", _sm_ips_ports),
    ("pktratio", lambda r, s, d, c: _f(d.pkts / s.pkts if s.pkts else None)),
    ("bytratio", lambda r, s, d, c: _f(d.bytes / s.bytes if s.bytes else None)),
    *_sides(("maxsz", lambda e, r: _i(e.sz_max)),
            ("minsz", lambda e, r: _i(e.sz_min)),
            ("meansz", lambda e, r: _f(_mean(e.bytes, e.pkts))),
            ("stdsz", lambda e, r: _f(_std(e.sz_sumsq, e.bytes, e.pkts)))),
    ("maxsz", lambda r, s, d, c: _i(_opt_max(s.sz_max, d.sz_max))),
    ("minsz", lambda r, s, d, c: _i(_opt_min(s.sz_min, d.sz_min))),
    ("meansz", lambda r, s, d, c: _f(_mean(s.bytes + d.bytes, s.pkts + d.pkts))),
    ("stdsz", lambda r, s, d, c:
     _f(_std(s.sz_sumsq + d.sz_sumsq, s.bytes + d.bytes, s.pkts + d.pkts))),
    ("varsz", lambda r, s, d, c:
     _f(_var(s.sz_sumsq + d.sz_sumsq, s.bytes + d.bytes, s.pkts + d.pkts))),
    *_sides(("appbytes", lambda e, r: str(e.appbytes))),
    ("appbytes", lambda r, s, d, c: str(s.appbytes + d.appbytes)),
    *_sides(("datapkts", lambda e, r: str(e.datapkts))),
    ("datapkts", lambda r, s, d, c: str(s.datapkts + d.datapkts)),
    *_sides(("meanappsz", lambda e, r: _f(_mean(e.appbytes, e.pkts)))),
    ("meanappsz", lambda r, s, d, c: _f(_mean(s.appbytes + d.appbytes, s.pkts + d.pkts))),
    *_sides(("ttl", lambda e, r: _i(e.ttl_first))),
    *_sides(("minttl", lambda e, r: _i(e.ttl_min)), ("maxttl", lambda e, r: _i(e.ttl_max))),
    *_sides(("tos", lambda e, r: _i(e.tos_first))),
    ("minttl", lambda r, s, d, c: _i(_opt_min(s.ttl_min, d.ttl_min))),
    ("maxttl", lambda r, s, d, c: _i(_opt_max(s.ttl_max, d.ttl_max))),
    *_sides(("win", lambda e, r: _i(e.win_first))),
    *_sides(("tcpb", lambda e, r: _i(e.tcpb_first))),
    ("synack", lambda r, s, d, c: _time(r.synack_us)),
    ("ackdat", lambda r, s, d, c: _time(r.ackdat_us)),
    ("tcprtt", lambda r, s, d, c: _time(_tcprtt_us(r))),
    ("load", lambda r, s, d, c: _f(_per_second((s.bytes + d.bytes) * 8, r.dur_us))),
    *_sides(("load", lambda e, r: _f(_per_second(e.bytes * 8, r.dur_us)))),
    ("rate", lambda r, s, d, c: _f(_per_second(s.pkts + d.pkts, r.dur_us))),
    *_sides(("rate", lambda e, r: _f(_per_second(e.pkts, r.dur_us)))),
    ("appload", lambda r, s, d, c: _f(_per_second((s.appbytes + d.appbytes) * 8, r.dur_us))),
    *_sides(("appload", lambda e, r: _f(_per_second(e.appbytes * 8, r.dur_us)))),
    ("intpkt", lambda r, s, d, c: _f(_mean_us(r.iat_sum_us, max(s.pkts + d.pkts - 1, 0)))),
    *_sides(("intpkt", lambda e, r: _f(_mean_us(e.iat_sum_us, _iat_count(e))))),
    ("jit", lambda r, s, d, c:
     _f(_std_us(r.iat_sumsq, r.iat_sum_us, max(s.pkts + d.pkts - 1, 0)))),
    *_sides(("jit", lambda e, r: _f(_std_us(e.iat_sumsq, e.iat_sum_us, _iat_count(e))))),
    ("minipt", lambda r, s, d, c: _time(r.iat_min_us)),
    *_sides(("minipt", lambda e, r: _time(e.iat_min_us))),
    ("maxipt", lambda r, s, d, c: _time(r.iat_max_us)),
    *_sides(("maxipt", lambda e, r: _time(e.iat_max_us))),
    ("totipt", lambda r, s, d, c: _time(r.iat_sum_us if s.pkts + d.pkts > 1 else None)),
    *_sides(("totipt", lambda e, r: _time(e.iat_sum_us if _iat_count(e) else None))),
    *_flag_counts(),
    *_sides(("stime", lambda e, r: _time(e.first_ts_us)),
            ("ltime", lambda e, r: _time(e.last_ts_us))),
    *_sides(("dur", lambda e, r: _time(_span_us(e)))),
    *_sides(("minappsz", lambda e, r: _i(e.app_min)),
            ("maxappsz", lambda e, r: _i(e.app_max))),
    *_sides(("stdappsz", lambda e, r: _f(_std(e.app_sumsq, e.appbytes, e.pkts)))),
    ("minappsz", lambda r, s, d, c: _i(_opt_min(s.app_min, d.app_min))),
    ("maxappsz", lambda r, s, d, c: _i(_opt_max(s.app_max, d.app_max))),
    ("stdappsz", lambda r, s, d, c:
     _f(_std(s.app_sumsq + d.app_sumsq, s.appbytes + d.appbytes, s.pkts + d.pkts))),
    ("flows", lambda r, s, d, c: _i(r.flows)),
    ("seq", lambda r, s, d, c: _i(r.seq)),
    ("trans", lambda r, s, d, c: str(r.trans)),
    ("fragcnt", lambda r, s, d, c: str(r.frag_count)),
])


def oracle_row(rec, feature_names, ctx) -> list[str]:
    src, dst = rec.src, rec.dst
    return [CELLS[name](rec, src, dst, ctx) for name in feature_names]


# Each value kind's to-text converter.
_KIND_TO_TEXT = {
    "int": str, "oint": _i, "str": str, "ostr": _i, "time": _time, "otime": _time,
    "bool": lambda value: "1" if value else "0", "flags": FLAG_TEXT.__getitem__,
}


def oracle_format_record(rec) -> str:
    owners = {"key": rec, "record": rec, "src": rec.src, "dst": rec.dst}
    parts = [f"{name}={_KIND_TO_TEXT[kind](attrgetter(attr)(owners[owner]))}"
             for name, kind, owner, attr in _LINE]
    parts += [f"{name}={value}" for name, value in rec.extra.items()]
    return " ".join(parts)
