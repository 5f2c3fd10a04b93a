"""Memory must not grow with capture length where the semantics allow.

Two captures differ only in how many 10 s slices their long flows span,
so the longer one has more records and more rows, and nothing else. The
growth of each command's traced peak per extra dataset row then shows
what the command holds per row: `run` and `dataset` hold the flow
records (a dataset needs all of them for its connection counts), but no
row; `label` holds only the ground truth.

In the same way, two captures of single-slice flows, each flow the only
record of its key, show what `dataset --mode racluster` holds per flow:
the records it read, and no merged copy of them. And the flow files of
two long-flows captures show what `read_hera` holds per record.
"""

import gc
import tracemalloc

import pcap_builder as pb
from hera.cli import main
from hera.dataset import read_csv
from hera.herafile import read_hera

SEC = 1_000_000
FLOWS = 10
SERVER = "10.0.100.1"
GT = "Proto,SrcAddr,Label\ntcp,10.0.0.3,Attack\n"


def long_flows_capture(path, slices: int):
    """FLOWS TCP flows that never close, each with a packet every 5 s,
    alternating direction, over `slices` 10 s slices."""
    frames = []
    for step in range(2 * slices):
        for i in range(FLOWS):
            client, port = f"10.0.0.{i + 1}", 40000 + i
            if step % 2:
                frame = pb.tcp4_frame(SERVER, client, 80, port, pb.ACK, payload=b"r" * 60)
            else:
                flags = pb.SYN if step == 0 else pb.PSH | pb.ACK
                frame = pb.tcp4_frame(client, SERVER, port, 80, flags, payload=b"q" * 40)
            frames.append((step * 5 * SEC + i * 1000, frame))
    pb.write(path, [pb.record(ts, frame) for ts, frame in frames])
    return path


def traced_peak(argv) -> int:
    """The peak of memory traced while main(argv) runs, above what was
    allocated when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def peaks(tmp_path, name, slices) -> tuple[int, dict[str, int]]:
    """(dataset rows, traced peak per command) for one capture."""
    capture = long_flows_capture(tmp_path / f"{name}.pcap", slices)
    gt = tmp_path / "gt.csv"
    gt.write_text(GT, encoding="utf-8")
    out = tmp_path / name
    dataset_flags = ["--features", "all"]
    result = {
        "run": traced_peak(["run", "--pcap", str(capture), "--interval", "10", "--gt", str(gt),
                            *dataset_flags, "--flows-dir", str(out / "flows"),
                            "--csv-dir", str(out / "csv")]),
        "dataset": traced_peak(["dataset", "--in", str(out / "flows" / f"{name}.hera"),
                                *dataset_flags, "--out", str(out / "dataset")]),
        "label": traced_peak(["label", "--in", str(out / "dataset" / f"{name}.csv"),
                              "--gt", str(gt), "--out", str(out / "label")]),
    }
    rows = len(read_csv(out / "csv" / f"{name}.csv")[1])
    return rows, result


def test_peak_grows_with_the_records_held_not_with_the_rows(tmp_path):
    # Under tracemalloc each call of a compiled kernel takes milliseconds,
    # so the captures stay small.
    peaks(tmp_path, "warm", 2)  # kernels compiled and modules imported first
    short_rows, short = peaks(tmp_path, "short", 5)
    long_rows, long = peaks(tmp_path, "long", 25)
    assert long_rows - short_rows >= 200
    per_row = {command: (long[command] - short[command]) / (long_rows - short_rows)
               for command in short}
    assert per_row["run"] < 3000, per_row
    assert per_row["dataset"] < 3000, per_row
    assert per_row["label"] < 500, per_row


def single_slice_capture(path, flows: int):
    """`flows` UDP flows of one request and one answer each, every flow
    within one slice, so each is one record and the only one of its key."""
    frames = []
    for i in range(flows):
        client, port = f"10.1.{i // 250}.{i % 250 + 1}", 40000 + i
        frames.append((i * 1000, pb.udp4_frame(client, SERVER, port, 53, payload=b"q" * 40)))
        frames.append((i * 1000 + 500,
                       pb.udp4_frame(SERVER, client, 53, port, payload=b"r" * 60)))
    pb.write(path, [pb.record(ts, frame) for ts, frame in frames])
    return path


def racluster_peak(tmp_path, name, flows: int) -> int:
    """The traced peak of `hera dataset --mode racluster` on the flow file
    of a capture of `flows` single-slice flows."""
    capture = single_slice_capture(tmp_path / f"{name}.pcap", flows)
    assert main(["export", "--pcap", str(capture), "--out", str(tmp_path / "flows")]) == 0
    return traced_peak(["dataset", "--in", str(tmp_path / "flows" / f"{name}.hera"),
                        "--mode", "racluster", "--out", str(tmp_path / name)])


def test_racluster_holds_a_key_seen_once_only_as_the_record_read(tmp_path):
    # Measured: 1,530 B per flow, what `read_hera` holds per record; it was
    # 2,700 B when racluster built a merged copy of every record.
    racluster_peak(tmp_path, "warm", 20)  # kernels compiled and modules imported first
    short = racluster_peak(tmp_path, "short", 100)
    long = racluster_peak(tmp_path, "long", 500)
    assert (long - short) / 400 < 2000, (short, long)


def read_held(path) -> tuple[int, int]:
    """(records, bytes traced as held while they are) of read_hera(path)."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        records = read_hera(path).records
        gc.collect()
        return len(records), tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()


def exported_held(tmp_path, name, slices: int) -> tuple[int, int]:
    capture = long_flows_capture(tmp_path / f"{name}.pcap", slices)
    assert main(["export", "--pcap", str(capture), "--interval", "10",
                 "--out", str(tmp_path / "flows")]) == 0
    return read_held(tmp_path / "flows" / f"{name}.hera")


def test_a_record_read_holds_only_its_values(tmp_path):
    # Measured on CPython 3.11: 1,599 B per record; 1,671 B when every
    # record also held a dict, empty in every exported file, for the
    # unknown fields of its line.
    exported_held(tmp_path, "warm", 2)  # reader kernel compiled first
    short_records, short = exported_held(tmp_path, "short", 5)
    long_records, long = exported_held(tmp_path, "long", 25)
    assert long_records - short_records >= 200
    assert (long - short) / (long_records - short_records) < 1635, (short, long)
