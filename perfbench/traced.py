"""Traced in-process run of the hera pipeline.

Runs export, dataset and label through hera's public functions, with a
`time.perf_counter` span around each call, in the same order and with
the same arguments as `hera run`. Spans are kept in memory and written
out at the end together with the per-layer metrics. The runner then
checks that the files written here are byte-equal to the CLI's, so the
trace measures the same program.

`build_dataset` calls `cluster`, `compute_connection_counts` and
`compute_row` internally. Those three are timed by separate probe calls
on the same records after the pipeline, under a `probes` span that is
not part of the pipeline's time.

Usage: python3 perfbench/traced.py SPEC.json, where the spec names the
inputs, the output directory and the workload's library settings.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hera import cli  # noqa: E402
from hera.dataset import (  # noqa: E402
    DEFAULT_COUNT_WINDOW,
    build_dataset,
    cluster,
    compute_connection_counts,
    compute_stats,
    read_csv,
    write_csv,
    write_stats,
)
from hera.features import RowContext, compute_row, select_feature_set, service_of  # noqa: E402
from hera.flows import ExportConfig, FlowTable  # noqa: E402
from hera.herafile import read_hera, write_hera  # noqa: E402
from hera.labelling import label_dataset, parse_ground_truth, write_label_summary  # noqa: E402
from hera.pcap import CaptureReader  # noqa: E402
from hera.timefmt import seconds_to_us  # noqa: E402

PROBES = "probes"  # parent span of the probe calls, outside the pipeline's time


class Span:
    __slots__ = ("name", "parent", "start", "end", "busy", "calls")

    def __init__(self, name: str, parent: int | None, calls: int):
        self.name, self.parent, self.calls = name, parent, calls
        self.start, self.end, self.busy = perf_counter(), None, 0.0


class Tracer:
    """Spans with a parent index, kept in memory until the end.

    A plain span's busy time is end - start. A hot per-item call (one
    per packet or row) is folded into one span covering the loop, whose
    busy time is the sum of the individual calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _begin(self, name: str, calls: int) -> Span:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, calls))
        return self.spans[-1]

    @contextmanager
    def span(self, name: str):
        span = self._begin(name, calls=1)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = perf_counter()
            span.busy = span.end - span.start

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def fold(self, name: str):
        """One span for many calls; the caller adds to busy and calls."""
        span = self._begin(name, calls=0)
        try:
            yield span
        finally:
            span.end = perf_counter()

    @contextmanager
    def timed_method(self, cls, attr: str, name: str):
        """Fold every call of cls.attr made inside the block into one
        span. Yields the span and the instances the method ran on."""
        original = getattr(cls, attr)
        instances: list = []
        with self.fold(name) as span:
            def timed(obj, *args, **kwargs):
                if not instances or instances[-1] is not obj:
                    instances.append(obj)
                t0 = perf_counter()
                try:
                    return original(obj, *args, **kwargs)
                finally:
                    span.busy += perf_counter() - t0
                    span.calls += 1

            setattr(cls, attr, timed)
            try:
                yield span, instances
            finally:
                setattr(cls, attr, original)

    def busy(self, name: str) -> float:
        return sum(s.busy for s in self.spans if s.name == name)

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer (the span name's first component): a
        span's busy time minus its direct children's, leaving out the
        probes."""
        child_busy = [0.0] * len(self.spans)
        excluded: set[int] = set()
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                child_busy[s.parent] += s.busy
            if s.name == PROBES or s.parent in excluded:
                excluded.add(i)
        layers: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if i not in excluded:
                layer = s.name.split(".")[0]
                layers[layer] = layers.get(layer, 0.0) + s.busy - child_busy[i]
        return layers

    def dump(self) -> list[dict]:
        return [{slot: getattr(s, slot) for slot in Span.__slots__} for s in self.spans]


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def run(spec: dict) -> dict:
    tracer = Tracer()
    out = Path(spec["out"])
    flows_dir, csv_dir = out / "flows", out / "csv"
    flows_dir.mkdir(parents=True, exist_ok=True)
    csv_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(spec["pcap"]).stem
    config = ExportConfig(interval_us=seconds_to_us(spec["interval_s"]))
    feature_names = select_feature_set(spec["features"].replace("-", "_"))

    with tracer.span("stage.export"):
        with tracer.timed_method(CaptureReader, "next_packet", "pcap.next_packet") as (_, readers), \
                tracer.timed_method(FlowTable, "assign", "flows.assign") as (assign, _), \
                tracer.timed_method(FlowTable, "flush", "flows.flush"):
            header, records, table = cli.export_capture(spec["pcap"], config)
        reader = readers[0]
        hera_path = flows_dir / f"{stem}.hera"
        tracer.call("herafile.write_hera", write_hera, hera_path, header, records)
        stats = tracer.call("dataset.compute_stats", compute_stats, records)
        tracer.call("dataset.write_stats", write_stats, flows_dir / f"{stem}.stats.txt", stats)

    with tracer.span("stage.dataset"):
        flowfile = tracer.call("herafile.read_hera", read_hera, hera_path)
        ds_header, rows, ds_stats = tracer.call(
            "dataset.build_dataset", build_dataset, flowfile.records, feature_names,
            mode=spec["mode"], keep_management=False, count_window=DEFAULT_COUNT_WINDOW)
        csv_path = csv_dir / f"{stem}.csv"
        tracer.call("dataset.write_csv", write_csv, csv_path, ds_header, rows)
        tracer.call("dataset.write_stats", write_stats, csv_dir / f"{stem}.stats.txt", ds_stats)

    with tracer.span("stage.label"):
        entries = tracer.call("labelling.parse_ground_truth", parse_ground_truth, spec["gt"])
        lb_in_header, lb_in_rows = tracer.call("dataset.read_csv", read_csv, csv_path)
        lb_header, lb_rows, summary = tracer.call(
            "labelling.label_dataset", label_dataset, lb_in_header, lb_in_rows, entries,
            bidirectional=spec["bidirectional"])
        tracer.call("dataset.write_csv", write_csv, csv_dir / f"{stem}.labelled.csv",
                    lb_header, lb_rows)
        tracer.call("labelling.write_label_summary", write_label_summary,
                    csv_dir / f"{stem}.labels.txt", summary)

    with tracer.span(PROBES):
        selected = [rec for rec in flowfile.records if not rec.is_management]
        clustered = tracer.call("dataset.cluster", cluster, selected)
        if spec["mode"] == "racluster":
            selected = clustered
        counts = tracer.call("dataset.compute_connection_counts", compute_connection_counts,
                             selected, DEFAULT_COUNT_WINDOW)
        if "Ssaddr" not in feature_names and "Sdaddr" not in feature_names:
            counts = [(None, None)] * len(selected)
        probe_rows = []
        with tracer.fold("features.compute_row") as row_span:
            for rank, rec in enumerate(selected):
                service = service_of(rec.key.proto, rec.sport, rec.dport)
                ctx = RowContext(rank=rank, service=service,
                                 ssaddr=counts[rank][0], sdaddr=counts[rank][1])
                t0 = perf_counter()
                probe_rows.append(compute_row(rec, feature_names, ctx))
                row_span.busy += perf_counter() - t0
                row_span.calls += 1

    decode_s = tracer.busy("pcap.next_packet")
    assign_s = tracer.busy("flows.assign")
    write_s = tracer.busy("herafile.write_hera")
    read_s = tracer.busy("herafile.read_hera")
    label_s = tracer.busy("labelling.label_dataset")
    n_records = len(records)
    metrics = {
        "pcap.decode_s": decode_s,
        "pcap.pkts_per_s": _rate(reader.record_index, decode_s),
        "pcap.records": reader.record_index,
        "pcap.skipped": sum(reader.skipped.values()),
        "flows.assign_s": assign_s,
        "flows.pkts_per_s": _rate(assign.calls, assign_s),
        "flows.flush_s": tracer.busy("flows.flush"),
        "flows.records": n_records,
        "flows.records_per_pkt": _rate(n_records, table.accepted_packets),
        "flows.flows_started": table.flows_started,
        "flows.skipped_non_monotonic": table.skipped_non_monotonic,
        "herafile.write_s": write_s,
        "herafile.write_recs_per_s": _rate(n_records, write_s),
        "herafile.read_s": read_s,
        "herafile.read_recs_per_s": _rate(len(flowfile.records), read_s),
        "herafile.bytes": hera_path.stat().st_size,
        "dataset.build_s": tracer.busy("dataset.build_dataset"),
        "dataset.cluster_s": tracer.busy("dataset.cluster"),
        "dataset.conn_counts_s": tracer.busy("dataset.compute_connection_counts"),
        "dataset.csv_write_s": tracer.busy("dataset.write_csv"),
        "dataset.csv_read_s": tracer.busy("dataset.read_csv"),
        "dataset.rows": len(rows),
        "features.row_s": row_span.busy,
        "features.cells_per_s": _rate(row_span.calls * len(feature_names), row_span.busy),
        "labelling.gt_parse_s": tracer.busy("labelling.parse_ground_truth"),
        "labelling.label_s": label_s,
        "labelling.rows_per_s": _rate(len(lb_rows), label_s),
        "labelling.gt_entries": len(entries),
        "labelling.malicious_rows": summary.malicious,
    }
    return {
        "metrics": metrics,
        "probe_rows_match": probe_rows == rows,
        "probe_s": tracer.busy(PROBES),
        "layers_self_s": tracer.layer_self_times(),
        "spans": tracer.dump(),
    }


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
