"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench

They check that a run emits every metric BENCHMARK.json declares, with
its unit; that the output checks catch a corrupted output; that inputs
depend only on the seed; and that the runner refuses to run without the
program beside it.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GOLDEN = json.loads(bench.GOLDEN_PATH.read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def test_declared_workloads_are_the_runner_s():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.fixture
def session(tmp_path):
    with bench.Session(tmp_path / "log") as session:
        yield session


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """`hera run` on the default-seed smoke capture of short-flows."""
    workload = workloads.WORKLOADS["short-flows"]
    out = tmp_path_factory.mktemp("golden")
    inputs = workloads.generate(workload, bench.DEFAULT_SEED, out, workloads.SMOKE_SCALE)
    with bench.Session(out / "log") as session:
        code, _, _ = session.spawn(bench.stage_commands(workload, inputs, out)["run"])
    assert code == 0, (out / "log").read_text()
    return inputs, out / "run"


def test_golden_hashes_match_the_program(golden_run):
    inputs, out = golden_run
    golden = GOLDEN["short-flows"]["smoke"]
    assert bench.manifest(inputs) == golden["inputs"]
    assert bench.compare_hashes(bench.hash_outputs(out), golden["outputs"]) == []


def test_golden_check_fails_on_a_corrupted_output(golden_run, tmp_path):
    _, out = golden_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    target = copy / "csv" / "capture.labelled.csv"
    data = bytearray(target.read_bytes())
    data[-2] ^= 0x01
    target.write_bytes(bytes(data))
    golden = GOLDEN["short-flows"]["smoke"]["outputs"]
    assert bench.compare_hashes(bench.hash_outputs(copy), golden) == ["csv/capture.labelled.csv"]
    (copy / "flows" / "capture.hera").unlink()
    assert "flows/capture.hera" in bench.compare_hashes(bench.hash_outputs(copy), golden)


def test_checks_catch_a_wrong_label_and_a_lost_packet(golden_run, session, tmp_path):
    inputs, out = golden_run
    bench.check_labels(session, out, inputs, bidirectional=False)
    bench.check_conservation(session, out, inputs)
    assert session.failures == []

    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    labelled = copy / "csv" / "capture.labelled.csv"
    with open(labelled, encoding="utf-8", newline="") as fp:
        rows = list(csv.reader(fp))
    rows[1][-1] = "DoS" if rows[1][-1] == "Benign" else "Benign"
    with open(labelled, "w", encoding="utf-8", newline="") as fp:
        csv.writer(fp, lineterminator="\n").writerows(rows)
    bench.check_labels(session, copy, inputs, bidirectional=False)
    bench.check_conservation(session, copy, dataclasses.replace(inputs, packets=inputs.packets + 1))
    assert len(session.failures) == 2 and session.attempted == 4


def test_spawned_processes_report_their_own_peak_rss(session):
    grow = "b = bytearray(64 << 20); b[::4096] = b'x' * len(b[::4096])"
    code, _, small = session.spawn([sys.executable, "-c", "pass"])
    code_big, _, big = session.spawn([sys.executable, "-c", grow])
    assert code == code_big == 0
    assert small < 30 and big > 64


def test_times_are_scaled_to_the_reference_speed():
    stages = ("run_s", "export_s", "dataset_s", "label_s", "setup_s")
    samples = {name: [1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 9.0] for name in stages}
    samples["run_rss_mb"] = [30.0, 31.0, 32.0]
    samples["calib_s"] = [2 * bench.calibrate.REFERENCE_S] * 10
    metrics = bench.end_to_end_metrics(samples)
    # Stage times drop their lowest and highest tenth, setup_s is a
    # median; the machine ran at half its reference speed, so every time
    # is halved.
    assert all(metrics[name] == pytest.approx(1.0) for name in stages)
    assert metrics["peak_rss_mb"] == 31.0


def test_inputs_depend_only_on_the_seed(tmp_path):
    workload = workloads.WORKLOADS["long-flows"]
    first = workloads.generate(workload, 5, tmp_path / "a", workloads.SMOKE_SCALE)
    again = workloads.generate(workload, 5, tmp_path / "b", workloads.SMOKE_SCALE)
    other = workloads.generate(workload, 6, tmp_path / "c", workloads.SMOKE_SCALE)
    assert bench.manifest(first) == bench.manifest(again)
    assert bench.manifest(first)["pcap_sha256"] != bench.manifest(other)["pcap_sha256"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "short-flows", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
