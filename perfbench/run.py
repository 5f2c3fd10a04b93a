"""hera's benchmark: stage wall times end to end, and a traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --write-golden

Each run generates the workload's capture and ground truth from the seed
(see workloads.py; generation is not timed), then measures for about
`--seconds` seconds. One iteration runs, each in a fresh process as a
user would, `hera run` (PCAP -> labelled CSV) followed by `hera export`,
`hera dataset` and `hera label` on their own, chained through their
files. `setup_s` is the start-up cost of one invocation: a fresh
interpreter that imports `hera.cli` and builds its parser.

The host is shared, and the same process runs up to 70% slower for
minutes at a time. So before every measured process the runner times a
fixed reference program (calibrate.py) in a fresh interpreter. Each
stage time is the trimmed mean of its samples, and `setup_s` the median
of its samples, scaled by calibrate.REFERENCE_S over the trimmed mean of
the reference samples: seconds at the reference speed of the machine. A
slow phase slows both and cancels out; a slower program still reads
slower. The detail line keeps the raw wall times and the scale factor.

With `--trace 1`, each iteration also runs traced.py, which calls the
library's public functions with a span around each call, and the run
reports per-layer metrics instead.

Every run checks the program's outputs. A default-seed capture at smoke
size goes through `hera run` first and its outputs must match the sha256
hashes in golden.json; on the default seed the measured outputs must
match too. On every seed, the standalone stages' outputs must be
byte-equal to `hera run`'s, every iteration must reproduce the first,
the export stats must account for every generated packet, each dataset
row must carry the label the generator assigned it, and the traced
run's outputs must be byte-equal to the CLI's. Each CLI invocation and
each check is one attempted operation; a non-zero exit or a violated
check is a failed one.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it describes the run: inputs manifest, sample counts,
per-iteration samples and any failures.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
GOLDEN_PATH = BENCH_DIR / "golden.json"
REQUIRED = ("src/hera/cli.py", "tests/pcap_builder.py")

sys.path.insert(0, str(BENCH_DIR))
import calibrate  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
MIN_ITERATIONS = 3
SETUP_REPEATS = 10
# Each run must end within 180 s; a hung child is killed before then.
RUN_DEADLINE_S = 170

# Outputs of one pipeline run, relative to its output directory.
OUTPUTS = (
    "flows/capture.hera",
    "flows/capture.stats.txt",
    "csv/capture.csv",
    "csv/capture.stats.txt",
    "csv/capture.labelled.csv",
    "csv/capture.labels.txt",
)
STAGE_OUTPUTS = {
    "export": OUTPUTS[:2],
    "dataset": OUTPUTS[2:4],
    "label": OUTPUTS[4:],
}

END_TO_END_UNITS = {
    "run_s": "s", "export_s": "s", "dataset_s": "s", "label_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER_UNITS = {
    "pcap.decode_s": "s", "pcap.pkts_per_s": "pkt/s", "pcap.records": "count",
    "pcap.skipped": "count",
    "flows.assign_s": "s", "flows.pkts_per_s": "pkt/s", "flows.flush_s": "s",
    "flows.records": "count", "flows.records_per_pkt": "ratio",
    "flows.flows_started": "count", "flows.skipped_non_monotonic": "count",
    "herafile.write_s": "s", "herafile.write_recs_per_s": "rec/s",
    "herafile.read_s": "s", "herafile.read_recs_per_s": "rec/s", "herafile.bytes": "bytes",
    "dataset.build_s": "s", "dataset.cluster_s": "s", "dataset.conn_counts_s": "s",
    "dataset.csv_write_s": "s", "dataset.csv_read_s": "s", "dataset.rows": "count",
    "features.row_s": "s", "features.cells_per_s": "cells/s",
    "labelling.gt_parse_s": "s", "labelling.label_s": "s", "labelling.rows_per_s": "rows/s",
    "labelling.gt_entries": "count", "labelling.malicious_rows": "count",
    "cli.export_peak_rss_mb": "MB", "cli.dataset_peak_rss_mb": "MB",
    "cli.label_peak_rss_mb": "MB",
    "trace.overhead_s": "s",
}


class Session:
    """One benchmark run's child processes, log, checks and deadline.

    Measured processes start through spawn.py, so their peak RSS is their
    own rather than inherited from this process."""

    def __init__(self, log: Path):
        self.log = log
        self.attempted = 0
        self.failures: list[str] = []
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "HERA_WORKSPACE"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self._helper = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH_DIR / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True)

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.wait()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def spawn(self, argv: list[str]) -> tuple[int, float, float]:
        """Run argv to completion: (exit code, wall seconds, peak RSS MB)."""
        job = {"argv": [str(a) for a in argv], "env": self.env, "log": str(self.log),
               "timeout": max(1.0, self.deadline - time.monotonic())}
        self._helper.stdin.write(json.dumps(job) + "\n")
        self._helper.stdin.flush()
        reply = json.loads(self._helper.stdout.readline())
        return reply["code"], reply["wall_s"], reply["maxrss_mb"]

    def calibrate(self) -> float:
        """Wall seconds of one run of the reference program."""
        code, wall, _ = self.spawn([sys.executable, BENCH_DIR / "calibrate.py"])
        self.check(code == 0, f"reference program: exit {code}")
        return wall

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation; record it as failed unless ok."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"perfbench: FAILED {what}", file=sys.stderr)


def hera(*args) -> list[str]:
    return [sys.executable, "-m", "hera.cli", *map(str, args)]


def stage_commands(workload, inputs, out: Path) -> dict[str, list[str]]:
    w = workload
    return {
        "run": hera("run", "--pcap", inputs.pcap, "--gt", inputs.ground_truth,
                    "--flows-dir", out / "run" / "flows", "--csv-dir", out / "run" / "csv",
                    *w.export_args(), *w.dataset_args(), *w.label_args()),
        "export": hera("export", "--pcap", inputs.pcap, "--out", out / "stages" / "flows",
                       *w.export_args()),
        "dataset": hera("dataset", "--in", out / "stages" / "flows" / "capture.hera",
                        "--out", out / "stages" / "csv", *w.dataset_args()),
        "label": hera("label", "--in", out / "stages" / "csv" / "capture.csv",
                      "--gt", inputs.ground_truth, "--out", out / "stages" / "csv",
                      *w.label_args()),
    }


def generate_inputs(session: Session, workload, seed: int, out: Path, scale: float):
    """Generate a workload's inputs in a child process, so this process
    never holds a capture."""
    shutil.rmtree(out, ignore_errors=True)
    code, _, _ = session.spawn([sys.executable, BENCH_DIR / "workloads.py", workload.name,
                                seed, out, repr(scale)])
    if code != 0:
        raise RuntimeError(f"generating {workload.name} inputs failed; see {session.log}")
    return workloads.load(out)


def measure_setup(session: Session, samples: dict[str, list[float]]) -> None:
    """Wall time of fresh interpreters that import hera.cli and build the
    parser; one untimed warm-up first, so bytecode caches are written."""
    argv = [sys.executable, "-c", "from hera.cli import build_parser; build_parser()"]
    for i in range(SETUP_REPEATS + 1):
        calib = session.calibrate()
        code, wall, _ = session.spawn(argv)
        session.check(code == 0, f"importing hera.cli: exit {code}")
        if i:
            samples.setdefault("calib_s", []).append(calib)
            samples.setdefault("setup_s", []).append(wall)


# -- output checks ----------------------------------------------------------


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def manifest(inputs) -> dict:
    """Sizes and hashes of generated inputs, so two commits being compared
    can show they were fed the same files."""
    with open(inputs.ground_truth, encoding="utf-8") as fp:
        gt_rows = sum(1 for _ in fp) - 1
    return {
        "packets": inputs.packets,
        "skipped": inputs.skipped,
        "pcap_bytes": inputs.pcap.stat().st_size,
        "pcap_sha256": sha256(inputs.pcap),
        "gt_rows": gt_rows,
        "gt_bytes": inputs.ground_truth.stat().st_size,
        "gt_sha256": sha256(inputs.ground_truth),
    }


def hash_outputs(out: Path, names=OUTPUTS) -> dict[str, str | None]:
    return {name: sha256(out / name) if (out / name).is_file() else None for name in names}


def compare_hashes(actual: dict, expected: dict) -> list[str]:
    """Names whose hash differs from the expected one, or is missing."""
    return [name for name, digest in expected.items()
            if actual.get(name) is None or actual.get(name) != digest]


def check_conservation(session: Session, out: Path, inputs) -> None:
    """Every generated packet is in a flow or was skipped."""
    with open(out / "flows/capture.stats.txt", encoding="utf-8") as fp:
        stats = dict(line.rstrip("\n").split(": ", 1) for line in fp if ": " in line)
    total = int(stats.get("total_packets", -1))
    expected = inputs.packets - inputs.skipped
    session.check(total == expected,
                  f"packet conservation: export stats total_packets={total}, generated "
                  f"{inputs.packets} minus {inputs.skipped} skipped = {expected}")


def check_labels(session: Session, out: Path, inputs, bidirectional: bool) -> None:
    """Every labelled row carries the generator's label for its 5-tuple."""
    with open(out / "csv/capture.labelled.csv", encoding="utf-8", newline="") as fp:
        reader = csv.reader(fp)
        header = next(reader)
        col = {name: header.index(name) for name in
               ("proto", "saddr", "sport", "daddr", "dport", "Label")}
        wrong = rows = 0
        for row in reader:
            rows += 1
            fwd = (row[col["proto"]], row[col["saddr"]], int(row[col["sport"]]),
                   row[col["daddr"]], int(row[col["dport"]]))
            want = inputs.expected_labels.get(fwd)
            if want is None and bidirectional:
                want = inputs.expected_labels.get((fwd[0], fwd[3], fwd[4], fwd[1], fwd[2]))
            if row[col["Label"]] != (want or "Benign"):
                wrong += 1
    session.check(rows > 0 and wrong == 0,
                  f"labels: {wrong} of {rows} rows differ from the generated ground truth")


def golden_reference(session: Session, workload, smoke: bool, seed: int,
                     inputs_manifest: dict) -> dict | None:
    """Check the program against golden.json. Returns the expected output
    hashes of the measured seed, or None when golden.json has none."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[workload.name]
    measured = golden["smoke" if smoke else "full"]
    if seed == DEFAULT_SEED:
        session.check(inputs_manifest == measured["inputs"],
                      "inputs of the default seed differ from golden.json")
        if smoke:
            return measured["outputs"]
    # Whatever the seed, a default-seed capture at smoke size goes through `hera run`.
    out = WORK_DIR / f"{workload.name}.golden"
    inputs = generate_inputs(session, workload, DEFAULT_SEED, out, workloads.SMOKE_SCALE)
    session.check(manifest(inputs) == golden["smoke"]["inputs"],
                  "inputs of the default-seed smoke capture differ from golden.json")
    code, _, _ = session.spawn(stage_commands(workload, inputs, out)["run"])
    bad = compare_hashes(hash_outputs(out / "run"), golden["smoke"]["outputs"])
    session.check(code == 0 and not bad, f"default-seed smoke run: exit {code}, "
                  f"outputs differing from golden.json: {bad}")
    return measured["outputs"] if seed == DEFAULT_SEED else None


# -- measurement -------------------------------------------------------------


def traced_run(session: Session, workload, inputs, out: Path) -> tuple[int, float, dict | None]:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spec = {
        "pcap": str(inputs.pcap), "gt": str(inputs.ground_truth), "out": str(out),
        "result": str(out / "trace.json"), "interval_s": workload.interval_s,
        "features": workload.features, "mode": workload.mode,
        "bidirectional": workload.bidirectional,
    }
    (out / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    code, wall, _ = session.spawn([sys.executable, BENCH_DIR / "traced.py", out / "spec.json"])
    if code != 0:
        return code, wall, None
    return code, wall, json.loads((out / "trace.json").read_text(encoding="utf-8"))


def measure(session: Session, workload, inputs, reference: dict | None, until: float,
            trace: bool, samples: dict[str, list[float]]) -> None:
    """Iterate until the clock passes `until` (a time.perf_counter value),
    and at least MIN_ITERATIONS times, adding the per-iteration samples to
    `samples` by name."""
    out = WORK_DIR / workload.name
    commands = stage_commands(workload, inputs, out)
    iteration = 0
    while True:
        for sub in ("run", "stages"):
            shutil.rmtree(out / sub, ignore_errors=True)
        t_iter = time.perf_counter()
        for stage in commands:
            for name in STAGE_OUTPUTS.get(stage, ()):  # hera will not overwrite them
                (out / "stages" / name).unlink(missing_ok=True)
            samples.setdefault("calib_s", []).append(session.calibrate())
            code, wall, rss = session.spawn(commands[stage])
            names = STAGE_OUTPUTS.get(stage, OUTPUTS)
            if stage == "run":
                actual = hash_outputs(out / "run")
                if reference is None:  # later iterations must reproduce the first
                    reference = actual
            else:
                actual = hash_outputs(out / "stages", names)
            bad = compare_hashes(actual, {n: reference[n] for n in names})
            session.check(code == 0 and not bad, f"iteration {iteration} hera {stage}: "
                          f"exit {code}, outputs differing: {bad}")
            samples.setdefault(f"{stage}_s", []).append(wall)
            samples.setdefault(f"{stage}_rss_mb", []).append(rss)
            if stage == "run" and iteration == 0 and code == 0:
                check_conservation(session, out / "run", inputs)
                check_labels(session, out / "run", inputs, workload.bidirectional)
        if trace:
            code, wall, result = traced_run(session, workload, inputs, out / "traced")
            ok = result is not None and result["probe_rows_match"]
            bad = compare_hashes(hash_outputs(out / "traced"), reference) if ok else []
            session.check(ok and not bad, f"iteration {iteration} traced run: exit {code}, "
                          f"outputs differing from the CLI's: {bad}")
            if result is not None:
                for name, value in result["metrics"].items():
                    samples.setdefault(name, []).append(value)
                samples.setdefault("traced_s", []).append(wall - result["probe_s"])
                for layer, value in result["layers_self_s"].items():
                    samples.setdefault(f"self.{layer}_s", []).append(value)
        iteration += 1
        now = time.perf_counter()
        if iteration >= MIN_ITERATIONS and now + (now - t_iter) > until:
            return


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest tenth. The machine's speed
    flips between a fast and a slow mode from one process to the next, so
    a median jumps between the modes; a mean of many samples does not."""
    cut = len(values) // 10
    kept = sorted(values)[cut:len(values) - cut]
    return sum(kept) / len(kept)


def speed_factor(samples: dict) -> float:
    """REFERENCE_S over the reference program's time in this run: how
    much faster than now the machine ran when the reference was taken."""
    return calibrate.REFERENCE_S / trimmed_mean(samples["calib_s"])


def end_to_end_metrics(samples: dict) -> dict[str, float]:
    speed = speed_factor(samples)
    metrics = {name: trimmed_mean(samples[name]) * speed
               for name in ("run_s", "export_s", "dataset_s", "label_s")}
    metrics["peak_rss_mb"] = statistics.median(samples["run_rss_mb"])
    metrics["setup_s"] = statistics.median(samples["setup_s"]) * speed
    return metrics


def per_layer_metrics(samples: dict) -> dict[str, float]:
    med = statistics.median
    metrics = {name: med(samples[name]) for name in PER_LAYER_UNITS if name in samples}
    for stage in ("export", "dataset", "label"):
        metrics[f"cli.{stage}_peak_rss_mb"] = med(samples[f"{stage}_rss_mb"])
    if "traced_s" in samples:
        metrics["trace.overhead_s"] = med(samples["traced_s"]) - med(samples["run_s"])
    return metrics


def write_golden(session: Session) -> int:
    """Record input manifests and output hashes of the default seed."""
    golden = {}
    for name, workload in workloads.WORKLOADS.items():
        golden[name] = {}
        for key, scale in (("smoke", workloads.SMOKE_SCALE), ("full", 1.0)):
            out = WORK_DIR / f"{name}.golden-{key}"
            inputs = generate_inputs(session, workload, DEFAULT_SEED, out, scale)
            code, _, _ = session.spawn(stage_commands(workload, inputs, out)["run"])
            if code != 0:
                print(f"perfbench: hera run failed on {name} ({key}); see {session.log}",
                      file=sys.stderr)
                return 1
            golden[name][key] = {"inputs": manifest(inputs), "outputs": hash_outputs(out / "run")}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run at a small fraction of the workload's size")
    parser.add_argument("--write-golden", action="store_true",
                        help="record golden.json from the current program")
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found under {ROOT}; "
              "run from a checkout of the hera repository", file=sys.stderr)
        return 2
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")

    WORK_DIR.mkdir(exist_ok=True)
    log = WORK_DIR / f"{args.workload or 'golden'}.log"
    log.write_bytes(b"")
    with Session(log) as session:
        if args.write_golden:
            return write_golden(session)
        workload = workloads.WORKLOADS[args.workload]
        scale = workloads.SMOKE_SCALE if args.smoke else 1.0
        inputs = generate_inputs(session, workload, args.seed,
                                 WORK_DIR / f"{workload.name}.inputs", scale)
        inputs_manifest = manifest(inputs)
        reference = golden_reference(session, workload, args.smoke, args.seed, inputs_manifest)
        # Set-up samples count toward the run's `--seconds`.
        until = time.perf_counter() + args.seconds
        samples: dict[str, list[float]] = {}
        measure_setup(session, samples)
        measure(session, workload, inputs, reference, until, bool(args.trace), samples)

    if args.trace:
        values, units = per_layer_metrics(samples), PER_LAYER_UNITS
    else:
        values, units = end_to_end_metrics(samples), END_TO_END_UNITS
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "smoke": args.smoke,
        "inputs": inputs_manifest, "iterations": len(samples["run_s"]),
        "runner_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "speed_factor": speed_factor(samples), "samples": samples,
        "failures": session.failures,
    }))
    print(json.dumps({
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        # A metric is missing only when the run that makes it failed, and
        # then correct is false.
        "metrics": {name: {"value": values.get(name, 0.0), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
