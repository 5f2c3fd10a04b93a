"""racluster merging every group: the reference for `dataset.cluster`.

Every key, also a key seen once, gets a new record with each of its
records merged into it by `FlowRecord.merge`, in stime order;
categorical fields follow the record with the latest ltime (ties broken
by stream position). `cluster` passes the record of a key seen once
through instead, as merging a record alone gives a record equal to it,
so the rows it gives must equal the rows of this one.
"""

from __future__ import annotations

from collections import defaultdict

from hera.flows import FlowRecord


def cluster_every_group(records: list[FlowRecord]) -> list[FlowRecord]:
    groups: dict = defaultdict(list)
    for rec in records:
        groups[rec.key].append(rec)
    merged_records = []
    for key, group in groups.items():
        by_stime = sorted(group, key=lambda r: (r.stime_us, r.seq or 0))
        latest = max(group, key=lambda r: (r.ltime_us, r.seq or 0))
        merged = FlowRecord(
            key=key,
            initiator=latest.initiator,
            stime_us=by_stime[0].stime_us,
            ltime_us=latest.ltime_us,
            slice_index=latest.slice_index,
            is_management=latest.is_management,
            tcp_state=latest.tcp_state,
            idle_us=latest.idle_us,
            seq=latest.seq,
            trans=0,
        )
        prev_ltime_us = None
        for rec in by_stime:
            merged.merge(rec, prev_ltime_us)
            prev_ltime_us = rec.ltime_us
        merged_records.append(merged)
    merged_records.sort(key=FlowRecord.sort_key)
    return merged_records
