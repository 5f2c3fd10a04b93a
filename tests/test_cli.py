import builtins
import csv
import gc
import io
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pcap_builder as pb
from hera import cli, labelling
from hera.cli import main
from hera.dataset import read_csv
from hera.errors import excerpt
from hera.features import DEFAULT_FEATURES, select_feature_set
from hera.flows import ExportConfig
from hera.herafile import read_hera
from hera.timefmt import seconds_to_us

SEC = 1_000_000

CLIENT, SERVER = "192.168.1.10", "192.168.1.20"


def sample_frames(base_us=0):
    """A short TCP session plus a UDP exchange."""
    return [
        (base_us + 0, pb.tcp4_frame(CLIENT, SERVER, 40000, 80, pb.SYN)),
        (base_us + 100_000, pb.tcp4_frame(SERVER, CLIENT, 80, 40000, pb.SYN | pb.ACK)),
        (base_us + 200_000, pb.tcp4_frame(CLIENT, SERVER, 40000, 80, pb.ACK)),
        (base_us + 300_000,
         pb.tcp4_frame(CLIENT, SERVER, 40000, 80, pb.PSH | pb.ACK, payload=b"x" * 50)),
        (base_us + 400_000, pb.tcp4_frame(SERVER, CLIENT, 80, 40000, pb.ACK)),
        (base_us + 500_000, pb.udp4_frame(CLIENT, SERVER, 5353, 53, b"q" * 20)),
        (base_us + 600_000, pb.udp4_frame(SERVER, CLIENT, 53, 5353, b"r" * 40)),
    ]


def sample_capture(path, base_us=0):
    pb.write(path, [pb.record(ts, frame) for ts, frame in sample_frames(base_us)])
    return path


def slow_udp_capture(path):
    """One UDP flow spanning three 60 s windows."""
    frames = [
        (t * SEC, pb.udp4_frame(CLIENT, SERVER, 9000, 53, b"p" * 8))
        for t in range(0, 151, 10)
    ]
    pb.write(path, [pb.record(ts, frame) for ts, frame in frames])
    return path


def pipeline_capture(path):
    """The sample session plus a UDP flow sliced over three 60 s windows,
    so management records, racluster merges and both directions occur."""
    frames = sample_frames() + [(t * SEC, pb.udp4_frame(CLIENT, SERVER, 9000, 53, b"p" * 8))
                                for t in range(1, 152, 10)]
    pb.write(path, [pb.record(ts, frame) for ts, frame in frames])
    return path


# The udp entry matches the reverse direction of the UDP flows, and so
# only with --bidirectional.
PIPELINE_GT = "Proto,SrcAddr,Label\nudp,192.168.1.20,Slow\ntcp,192.168.1.10,Probe\n"


def write_gt(path, text="SrcAddr,Label\n192.168.1.10,Probe\n"):
    path.write_text(text, encoding="utf-8")
    return path


def tree(root):
    return sorted(
        str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()
    )


@pytest.fixture()
def capture(tmp_path):
    return sample_capture(tmp_path / "a.pcap")


# -- export -------------------------------------------------------------------


def test_export_naming_contract(capture, tmp_path):
    out = tmp_path / "flows"
    assert main(["export", "--pcap", str(capture), "--interval", "60",
                 "--out", str(out)]) == 0
    assert tree(out) == ["a.hera", "a.stats.txt"]
    flowfile = read_hera(out / "a.hera")
    assert flowfile.header.sources == ["a.pcap"]
    assert flowfile.header.config.interval_us == 60 * SEC
    assert len([r for r in flowfile.records if not r.is_management]) == 2
    stats_text = (out / "a.stats.txt").read_text(encoding="utf-8")
    assert "total_flows: 2" in stats_text
    assert "management_records: 1" in stats_text


@pytest.mark.parametrize("flag, bad", [
    pytest.param("--interval", "0", id="0"),
    pytest.param("--interval", "-5", id="-5"),
    # above zero, but 0 once rounded to the microsecond
    pytest.param("--interval", "0.0000004", id="0.0000004"),
    pytest.param("--idle-timeout", "1e-9", id="idle-timeout-1e-9"),
    pytest.param("--idle-timeout", "0", id="idle-timeout-0"),
])
def test_export_rejects_nonpositive_interval_before_io(capture, tmp_path, flag, bad, capsys):
    out = tmp_path / "flows"
    assert main(["export", "--pcap", str(capture), flag, bad,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"hera: {flag} must be a positive number of seconds")
    assert not out.exists()


def test_export_no_management_flag(capture, tmp_path):
    out = tmp_path / "flows"
    assert main(["export", "--pcap", str(capture), "--out", str(out),
                 "--no-management"]) == 0
    flowfile = read_hera(out / "a.hera")
    assert all(not r.is_management for r in flowfile.records)


@pytest.mark.parametrize("argv, flag", [
    (["export"], "--pcap"),
    (["dataset"], "--in"),
    (["label", "--gt", "gt.csv"], "--in"),
    (["label", "--in", "d.csv"], "--gt"),
    (["run"], "--pcap"),
], ids=["export", "dataset", "label-in", "label-gt", "run"])
def test_missing_input_is_usage_error_without_prompt(
        tmp_path, monkeypatch, capsys, argv, flag):
    def no_prompt(*_):
        raise AssertionError("prompted for input")

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HERA_WORKSPACE", raising=False)
    monkeypatch.setattr(sys.stdin, "isatty", lambda: True)
    monkeypatch.setattr(builtins, "input", no_prompt)
    assert main(argv) == 1
    assert flag in capsys.readouterr().err


def test_export_missing_input_is_io_error(tmp_path, capsys):
    assert main(["export", "--pcap", str(tmp_path / "nope.pcap"),
                 "--out", str(tmp_path / "flows")]) == 3
    assert "nope.pcap" in capsys.readouterr().err


def test_export_garbage_capture_is_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.pcap"
    bad.write_bytes(b"\x00" * 64)
    assert main(["export", "--pcap", str(bad), "--out", str(tmp_path / "f")]) == 2


@pytest.mark.parametrize("data, reason", [
    (b"", "file shorter than a magic number"),
    (pb.pcap([])[:10], "file shorter than the global header"),
    (b"\x0a\x0d\x0d\x0a" + b"\x00" * 20, "magic 0a0d0d0a is not classic PCAP"),
    (pb.pcap([], linktype=113), "unsupported linktype 113"),
], ids=["empty", "short-header", "bad-magic", "linktype"])
def test_export_bad_global_header_is_format_error(tmp_path, capsys, data, reason):
    bad = tmp_path / "bad.pcap"
    bad.write_bytes(data)
    assert main(["export", "--pcap", str(bad), "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err == f"hera: {bad}: {reason}\n"
    assert tree(tmp_path) == ["bad.pcap"]


def test_export_failure_leaves_no_partial_outputs(tmp_path):
    good = sample_capture(tmp_path / "a.pcap")
    bad = tmp_path / "b.pcap"
    bad.write_bytes(pb.pcap([])[:10])  # dies inside the global header
    out = tmp_path / "flows"
    code = main(["export", "--pcap", str(good), "--pcap", str(bad),
                 "--out", str(out)])
    assert code == 2
    assert tree(out) == []


def test_export_refuses_overwrite_without_force(capture, tmp_path, capsys):
    out = tmp_path / "flows"
    assert main(["export", "--pcap", str(capture), "--out", str(out)]) == 0
    before = (out / "a.hera").read_bytes()
    assert main(["export", "--pcap", str(capture), "--out", str(out)]) == 3
    assert "--force" in capsys.readouterr().err
    assert (out / "a.hera").read_bytes() == before


def test_export_force_rewrites_byte_identical(capture, tmp_path):
    out = tmp_path / "flows"
    assert main(["export", "--pcap", str(capture), "--out", str(out)]) == 0
    first = [(out / name).read_bytes() for name in tree(out)]
    assert main(["export", "--pcap", str(capture), "--out", str(out),
                 "--force"]) == 0
    assert [(out / name).read_bytes() for name in tree(out)] == first


def test_export_glob_and_multiple_inputs(tmp_path):
    sample_capture(tmp_path / "b.pcap")
    sample_capture(tmp_path / "a.pcap", base_us=10 * SEC)
    out = tmp_path / "flows"
    assert main(["export", "--pcap", str(tmp_path / "*.pcap"),
                 "--out", str(out)]) == 0
    assert tree(out) == ["a.hera", "a.stats.txt", "b.hera", "b.stats.txt"]


def test_export_duplicate_stems_rejected(tmp_path, capsys):
    one = tmp_path / "x" / "a.pcap"
    two = tmp_path / "y" / "a.pcap"
    one.parent.mkdir()
    two.parent.mkdir()
    sample_capture(one)
    sample_capture(two)
    assert main(["export", "--pcap", str(one), "--pcap", str(two),
                 "--out", str(tmp_path / "flows")]) == 1
    assert "a" in capsys.readouterr().err


def test_export_jobs_do_not_change_outputs(tmp_path):
    sample_capture(tmp_path / "a.pcap")
    sample_capture(tmp_path / "b.pcap", base_us=5 * SEC)
    slow_udp_capture(tmp_path / "c.pcap")
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    pcaps = str(tmp_path / "*.pcap")
    assert main(["export", "--pcap", pcaps, "--out", str(serial)]) == 0
    assert main(["export", "--pcap", pcaps, "--out", str(parallel),
                 "--jobs", "2"]) == 0
    assert tree(serial) == tree(parallel)
    for name in tree(serial):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


# -- dataset ------------------------------------------------------------------


def exported(tmp_path, maker=sample_capture, name="a.pcap", extra=()):
    pcap = maker(tmp_path / name)
    flows = tmp_path / "flows"
    assert main(["export", "--pcap", str(pcap), "--out", str(flows),
                 *extra]) == 0
    return flows / (pcap.stem + ".hera")


def test_dataset_default_features(tmp_path):
    hera = exported(tmp_path)
    out = tmp_path / "csv"
    assert main(["dataset", "--in", str(hera), "--out", str(out)]) == 0
    assert tree(out) == ["a.csv", "a.stats.txt"]
    header, rows = read_csv(out / "a.csv")
    assert header == list(DEFAULT_FEATURES)
    assert len(header) == 22
    assert len(rows) == 2  # management dropped by default


def test_dataset_single_feature_gets_always_on_columns(tmp_path):
    hera = exported(tmp_path)
    out = tmp_path / "csv"
    assert main(["dataset", "--in", str(hera), "--out", str(out),
                 "--features", "dur"]) == 0
    header, _ = read_csv(out / "a.csv")
    assert len(header) == 9
    assert header[-1] == "dur"


def test_dataset_preset_name_normalization(tmp_path):
    hera = exported(tmp_path)
    out = tmp_path / "csv"
    assert main(["dataset", "--in", str(hera), "--out", str(out),
                 "--features", "unsw-nb15"]) == 0
    header, _ = read_csv(out / "a.csv")
    assert header == select_feature_set("unsw_nb15")
    assert len(header) == 35


def test_dataset_unknown_feature_is_usage_error(tmp_path, capsys):
    hera = exported(tmp_path)
    assert main(["dataset", "--in", str(hera), "--out", str(tmp_path / "csv"),
                 "--features", "dur,nope"]) == 1
    assert capsys.readouterr().err == "hera: unknown feature 'nope'\n"


def test_dataset_racluster_merges_sliced_flow(tmp_path):
    hera = exported(tmp_path, maker=slow_udp_capture, name="u.pcap")
    out = tmp_path / "csv"
    assert main(["dataset", "--in", str(hera), "--out", str(out),
                 "--mode", "racluster"]) == 0
    _, rows = read_csv(out / "u.csv")
    assert len(rows) == 1
    ra_out = tmp_path / "csv_ra"
    assert main(["dataset", "--in", str(hera), "--out", str(ra_out)]) == 0
    _, ra_rows = read_csv(ra_out / "u.csv")
    assert len(ra_rows) == 3


@pytest.mark.parametrize("mode", ["ra", "racluster"])
def test_dataset_skips_unknown_header_lines_and_record_fields(tmp_path, mode):
    hera = exported(tmp_path, maker=pipeline_capture, name="p.pcap")
    lines = hera.read_text(encoding="utf-8").splitlines()
    lines[1:1] = ["#annotator=bench 3", "#note"]
    edited = tmp_path / "edited" / "p.hera"
    edited.parent.mkdir()
    edited.write_text("".join(line + ("\n" if line.startswith("#") else " zz=1 note=x\n")
                              for line in lines), encoding="utf-8")
    outputs = []
    for flows in (hera, edited):
        out = flows.parent / "csv"
        assert main(["dataset", "--in", str(flows), "--out", str(out), "--mode", mode,
                     "--features", "all", "--keep-management"]) == 0
        outputs.append({name: (out / name).read_bytes() for name in tree(out)})
    assert outputs[0] == outputs[1]


def idle_split_udp_capture(path):
    """One UDP key, split by the idle timeout into two records whose
    within-record gaps (1 s) are smaller than the gap between them (68 s)."""
    frames = [(t * SEC, pb.udp4_frame(CLIENT, SERVER, 9000, 53, b"p" * 8))
              for t in (0, 1, 2, 70, 71, 72)]
    pb.write(path, [pb.record(ts, frame) for ts, frame in frames])
    return path


def test_dataset_racluster_folds_a_record_with_one_gap_extreme(tmp_path):
    hera = exported(tmp_path, maker=idle_split_udp_capture, name="u.pcap", extra=["--no-management"])
    text = hera.read_text(encoding="utf-8")
    assert "sipmin=1.000000 sipmax=1.000000" in text
    hera.write_text(text.replace("sipmin=1.000000 sipmax=1.000000",
                                 "sipmin=100.000000 sipmax=", 1), encoding="utf-8")
    out = tmp_path / "csv"
    assert main(["dataset", "--in", str(hera), "--out", str(out), "--mode", "racluster",
                 "--features", "sminipt,smaxipt,totipt"]) == 0
    header, rows = read_csv(out / "u.csv")
    cells = dict(zip(header, rows[0]))
    assert len(rows) == 1
    # The 68 s gap between the records is the largest: sipmax must not
    # stay unset because the gap was below the first record's sipmin.
    assert (cells["sminipt"], cells["smaxipt"], cells["totipt"]) == (
        "1.000000", "68.000000", "72.000000")


def test_dataset_keep_management(tmp_path):
    hera = exported(tmp_path)
    out = tmp_path / "csv"
    assert main(["dataset", "--in", str(hera), "--out", str(out),
                 "--keep-management"]) == 0
    _, rows = read_csv(out / "a.csv")
    assert len(rows) == 3


def test_dataset_corrupt_flow_file_is_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.hera"
    bad.write_text("#NOTHERA v1\n", encoding="utf-8")
    assert main(["dataset", "--in", str(bad), "--out", str(tmp_path / "csv")]) == 2


def test_dataset_names_crlf_line_endings(capture, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--pcap", str(capture)]) == 0
    hera = tmp_path / "flows" / "a.hera"
    hera.write_bytes(hera.read_bytes().replace(b"\n", b"\r\n"))
    out = tmp_path / "crlf"
    assert main(["dataset", "--in", str(hera), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{hera}: line 1: CRLF" in err and "line ending" in err
    assert not out.exists()


@pytest.mark.parametrize("old, new, reason", [
    (b"#interval=60.000000", b"#interval=0.000000",
     "interval must be a positive number of seconds"),
    (b"proto=udp", b"proto=ud\xffp", "bytes are not UTF-8"),
    (b" sfin=0 ", " sfin=\u0660 ".encode(), "invalid literal for int() with base 10: '\u0660'"),
], ids=["zero-interval", "not-utf8", "non-ascii-digit"])
def test_dataset_unreadable_flow_file_line_is_format_error(
        tmp_path, capsys, old, new, reason):
    hera = exported(tmp_path)
    data = hera.read_bytes()
    line = data[:data.index(old)].count(b"\n") + 1
    hera.write_bytes(data.replace(old, new, 1))
    out = tmp_path / "csv"
    assert main(["dataset", "--in", str(hera), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"line {line}" in err and reason in err
    assert not out.exists()


@pytest.mark.parametrize("command, old, new, reason", [
    ("dataset", b"proto=udp", b"proto=udp proto=udp", "line {}: duplicate field 'proto'"),
    ("dataset", b"#HERA v1", b"#HERA v9", "unsupported flow file version 'v9'"),
    ("dataset", b"#HERA v1", b"#HERE v1", "not a flow file (missing '#HERA v1')"),
    ("dataset", b"#emit_management=true", b"#emit_management=yes",
     "line {}: emit_management must be true or false, got 'yes'"),
    ("label", b",80,", b",eighty,", "line {}, column 'dport': bad value 'eighty'"),
], ids=["corrupt-record", "unsupported-version", "not-a-flow-file", "emit-management",
        "malformed-cell"])
def test_bad_second_input_is_named(tmp_path, capsys, command, old, new, reason):
    for name, base in (("a.pcap", 0), ("b.pcap", 3 * SEC)):
        sample_capture(tmp_path / name, base_us=base)
    assert main(["run", "--pcap", str(tmp_path / "*.pcap"),
                 "--flows-dir", str(tmp_path / "flows"),
                 "--csv-dir", str(tmp_path / "csv")]) == 0
    folder, suffix = ("flows", ".hera") if command == "dataset" else ("csv", ".csv")
    inputs = [tmp_path / folder / (stem + suffix) for stem in ("a", "b")]
    data = inputs[1].read_bytes()
    reason = reason.format(data[:data.index(old)].count(b"\n") + 1)
    inputs[1].write_bytes(data.replace(old, new, 1))
    argv = [command, "--in", str(inputs[0]), "--in", str(inputs[1]),
            "--out", str(tmp_path / "out")]
    if command == "label":
        argv += ["--gt", str(write_gt(tmp_path / "gt.csv"))]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"hera: {inputs[1]}: {reason}\n"
    assert not (tmp_path / "out").exists()


# A NUL ends in exit 2 naming the file and line, on every Python:
# csv.reader refuses a line holding one before 3.11 and passes it on
# after, and a .hera value may not hold one either.
@pytest.mark.parametrize("command, path, old, new", [
    ("dataset", "flows/a.hera", b" sport=", b"\x00 sport="),
    ("dataset", "flows/a.hera", b"#source=a", b"#source=\x00a"),
    ("label", "csv/a.csv", b"\n", b"\n\x00"),
    ("label", "gt.csv", b"Probe", b"Pro\x00be"),
], ids=["hera-record", "hera-header", "dataset-csv", "ground-truth"])
def test_a_nul_in_an_input_line_is_a_format_error_naming_the_line(
        capture, tmp_path, capsys, monkeypatch, command, path, old, new):
    monkeypatch.chdir(tmp_path)
    write_gt(tmp_path / "gt.csv")
    assert main(["run", "--pcap", str(capture)]) == 0
    data = (tmp_path / path).read_bytes()
    line = data[:data.index(old)].count(b"\n") + 1 + old.startswith(b"\n")
    (tmp_path / path).write_bytes(data.replace(old, new, 1))
    argv = {"dataset": ["dataset", "--in", "flows/a.hera"],
            "label": ["label", "--in", "csv/a.csv", "--gt", "gt.csv"]}[command]
    assert main([*argv, "--out", "out"]) == 2
    assert f"hera: {path}: line {line}: line contains NUL" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# A record's integers and times (in microseconds) hold at most 40 digits,
# more than any capture yields. A wider one, which would overflow a
# feature's float arithmetic, or Python's int-to-text limit in a sum, is
# refused on reading, naming its own line, also when a later record of
# the same flow is the latest of its racluster cluster, and also past
# the 4,300 digits int() converts.
@pytest.mark.parametrize("mode", ["ra", "racluster"])
@pytest.mark.parametrize("edits, features", [
    ({"sbytes": "9" * 4000}, "all"),
    ({"ltime": "9" * 4000 + ".000000"}, "all"),
    ({"sbytes": "1" + "0" * 40}, "all"),
    ({"ipmin": "-1" + "0" * 34 + ".000000"}, "all"),
    ({"sbytes": "9" * 4300, "dbytes": "9" * 4300}, "bytes"),
    ({"sbytes": "9" * 5000}, "all"),
    ({"ltime": "9" * 5000 + ".000000"}, "all"),
], ids=["sbytes", "ltime", "41-digits", "41-digit-time", "bytes-sum", "past-int-digit-limit",
        "time-past-int-digit-limit"])
def test_a_record_value_over_40_digits_is_a_format_error_naming_its_line(
        tmp_path, capsys, mode, edits, features):
    hera = exported(tmp_path)
    lines = hera.read_text(encoding="utf-8").split("\n")
    index = next(i for i, line in enumerate(lines) if " proto=tcp " in line)
    later = lines[index].replace(" stime=0.000000 ltime=0.400000 ",
                                 " stime=1.000000 ltime=1.400000 ")
    assert later != lines[index]
    for field, value in edits.items():
        lines[index] = re.sub(f" {field}=[0-9.]* ", f" {field}={value} ", lines[index])
    lines.insert(index + 1, later)
    hera.write_text("\n".join(lines), encoding="utf-8")
    out = tmp_path / "csv"
    assert main(["dataset", "--in", str(hera), "--out", str(out), "--features", features,
                 "--mode", mode]) == 2
    first = next(iter(edits.values()))
    assert capsys.readouterr().err.startswith(
        f"hera: {hera}: line {index + 1}: value over 40 digits {first[:200]!r}")
    assert not out.exists()


# A header time is bounded as a record's time is, and its leading zeros
# do not count: the same time padded with them past the 4,300 digits
# int() converts reads as the time.
@pytest.mark.parametrize("key, value", [
    *[pytest.param(key, "9" * 5000, id=key) for key in
      ("interval", "idle_timeout", "reorder_slack", "capture_start", "capture_end")],
    pytest.param("interval", "1" + "0" * 34 + ".000000", id="interval-41-digits"),
    pytest.param("capture_end", "-0001" + "0" * 34, id="capture_end-41-digits"),
])
def test_a_header_time_over_40_digits_is_a_format_error_naming_its_line(tmp_path, capsys, key,
                                                                         value):
    hera = exported(tmp_path)
    header = read_hera(hera).header
    lines = hera.read_text(encoding="utf-8").split("\n")
    index = next(i for i, line in enumerate(lines) if line.startswith(f"#{key}="))
    written = lines[index]
    lines[index] = f"#{key}={value}"
    hera.write_text("\n".join(lines), encoding="utf-8")
    out = tmp_path / "csv"
    assert main(["dataset", "--in", str(hera), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"hera: {hera}: line {index + 1}: value over 40 digits "
                                       f"{excerpt(value)}\n")
    assert not out.exists()
    lines[index] = written.replace("=", "=" + "0" * 5000, 1)
    hera.write_text("\n".join(lines), encoding="utf-8")
    assert read_hera(hera).header == header


# Every integer and time field at 40 digits, of either sign, in every
# record, with many records of one flow to merge: each feature and the
# stats are computed.
@pytest.mark.parametrize("mode", ["ra", "racluster"])
@pytest.mark.parametrize("sign", ["", "-"])
def test_record_values_of_40_digits_make_a_dataset(tmp_path, mode, sign):
    from hera.herafile import _LINE
    widest = {"int": "9" * 40, "time": "9" * 34 + ".999999"}
    hera = exported(tmp_path)
    lines = hera.read_text(encoding="utf-8").split("\n")
    for i, line in enumerate(lines):
        if line and not line.startswith("#"):
            for name, kind, *_ in _LINE:
                if kind.lstrip("o") in widest:
                    value = sign + widest[kind.lstrip("o")]
                    line, count = re.subn(f"(^| ){name}=[^ ]*( |$)",
                                          f"\\g<1>{name}={value}\\2", line)
                    assert count == 1
            lines[i] = line
    lines += [lines[-2]] * 50
    hera.write_text("\n".join(lines), encoding="utf-8")
    assert main(["dataset", "--in", str(hera), "--out", str(tmp_path / "csv"), "--features",
                 "all", "--mode", mode, "--keep-management"]) == 0


LONG = 200_000  # characters in the cell or token an error message is about


# Each message quotes the first EXCERPT_CHARS characters of what it is
# about and states the full length, so stderr stays small.
@pytest.mark.parametrize("command, path, old, new, reason", [
    ("dataset", "flows/a.hera", b" sport=", b" " + b"t" * LONG + b" sport=",
     "malformed token 'ttt"),
    ("dataset", "flows/a.hera", b" sport=",
     b" " + b"n" * LONG + b"=1 " + b"n" * LONG + b"=1 sport=", "duplicate field 'nnn"),
    ("dataset", "flows/a.hera", b"#HERA v1", b"#HERA v" + b"9" * LONG,
     "unsupported flow file version 'v999"),
    ("label", "csv/a.csv", b",80,", b"," + b"x" * (LONG // 2) + b",",
     "column 'dport': bad value 'xxx"),
    ("label", "gt.csv", b"SrcAddr,Label", b"SrcAddr," + b"h" * (LONG // 2),
     "no Label column in ['SrcAddr', 'hhh"),
    ("label", "gt.csv", b"SrcAddr,Label\n",
     b"StartTime,Label\n" + b"t" * (LONG // 2) + b",Probe\n",
     "line 2, column 'StartTime': bad value 'ttt"),
    ("label", "gt.csv", b"SrcAddr,Label\n", b"Sport,Label\n" + b"p" * (LONG // 2) + b",Probe\n",
     "line 2, column 'Sport': bad value 'ppp"),
], ids=["malformed-token", "duplicate-field", "unsupported-version", "dataset-cell",
        "missing-label-column", "gt-timestamp", "gt-port"])
def test_an_error_message_quotes_a_bounded_excerpt_of_a_long_input(
        capture, tmp_path, capsys, monkeypatch, command, path, old, new, reason):
    monkeypatch.chdir(tmp_path)
    write_gt(tmp_path / "gt.csv")
    assert main(["run", "--pcap", str(capture)]) == 0
    data = (tmp_path / path).read_bytes()
    assert old in data
    (tmp_path / path).write_bytes(data.replace(old, new, 1))
    argv = {"dataset": ["dataset", "--in", "flows/a.hera"],
            "label": ["label", "--in", "csv/a.csv", "--gt", "gt.csv"]}[command]
    assert main([*argv, "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"hera: {path}: ") and reason in err
    assert " characters)" in err or " items)" in err
    assert len(err) < 1_000
    assert not (tmp_path / "out").exists()


def test_dataset_bad_count_window(tmp_path):
    hera = exported(tmp_path)
    assert main(["dataset", "--in", str(hera), "--out", str(tmp_path / "csv"),
                 "--count-window", "0"]) == 1


def test_bad_mode_is_usage_error(tmp_path, capsys):
    assert main(["dataset", "--in", "x.hera", "--mode", "rasort"]) == 1
    assert capsys.readouterr().err == "hera: --mode must be one of ra/racluster\n"


def child_env() -> dict[str, str]:
    """The environment of a child interpreter that imports this hera, with
    no workspace file in effect."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("HERA_WORKSPACE", None)
    return env


def modules_loaded_by(code: str) -> list[str]:
    """The modules a fresh interpreter holds after running `code`."""
    code = f"import sys; {code}; print(' '.join(sorted(sys.modules)))"
    return subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                          capture_output=True, text=True).stdout.split()


def test_building_the_parser_imports_no_stage_module():
    loaded = modules_loaded_by("from hera.cli import build_parser; build_parser()")
    assert "hera.cli" in loaded
    stages = ("pcap", "flows", "herafile", "dataset", "features", "labelling")
    assert [name for name in stages if f"hera.{name}" in loaded] == []


def test_export_and_label_do_not_load_the_feature_catalog(tmp_path):
    dataset, gt = labelled_setup(tmp_path)
    for argv in (["export", "--pcap", str(tmp_path / "a.pcap"),
                  "--out", str(tmp_path / "again")],
                 ["label", "--in", str(dataset), "--gt", str(gt)]):
        loaded = modules_loaded_by(
            f"from hera.cli import main; assert main({argv!r}) == 0")
        assert "hera.dataset" in loaded
        assert "hera.features" not in loaded
    assert "hera.labelling" in loaded
    assert "hera.flows" not in loaded  # label never loads the flow engine


# Standard-library modules that no command needs: each weighs a few
# milliseconds and a few hundred kilobytes, with what it imports in turn.
UNNEEDED = ("dataclasses", "inspect", "logging", "concurrent.futures", "tokenize")


@pytest.mark.parametrize("command", ["build_parser", "export", "dataset", "label", "run"])
def test_no_command_loads_dataclasses_inspect_logging_or_futures(tmp_path, command):
    dataset, gt = labelled_setup(tmp_path)
    pcap, out = tmp_path / "a.pcap", str(tmp_path / "out")
    argv = {
        "export": ["export", "--pcap", str(pcap), "--out", out],
        "dataset": ["dataset", "--in", str(tmp_path / "flows" / "a.hera"), "--out", out,
                    "--features", "all", "--mode", "racluster"],
        "label": ["label", "--in", str(dataset), "--gt", str(gt), "--out", out],
        "run": ["run", "--pcap", str(pcap), "--gt", str(gt), "--flows-dir", out,
                "--csv-dir", str(tmp_path / "run-csv"), "--jobs", "1"],
    }.get(command)
    code = ("from hera.cli import build_parser; build_parser()" if argv is None else
            f"from hera.cli import main; assert main({['--verbose', *argv]!r}) == 0")
    loaded = modules_loaded_by(code)
    assert "hera.cli" in loaded
    assert [name for name in UNNEEDED if name in loaded] == []


def test_no_command_prints_usage(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


# -- label --------------------------------------------------------------------


def labelled_setup(tmp_path, gt_text=None):
    hera = exported(tmp_path)
    csv_dir = tmp_path / "csv"
    assert main(["dataset", "--in", str(hera), "--out", str(csv_dir)]) == 0
    gt = write_gt(tmp_path / "gt.csv", gt_text) if gt_text else write_gt(tmp_path / "gt.csv")
    return csv_dir / "a.csv", gt


def test_label_naming_and_matching(tmp_path):
    dataset, gt = labelled_setup(tmp_path)
    assert main(["label", "--in", str(dataset), "--gt", str(gt)]) == 0
    header, rows = read_csv(dataset.parent / "a.labelled.csv")
    assert header[-1] == "Label"
    assert header[:-1] == list(DEFAULT_FEATURES)
    assert [row[-1] for row in rows] == ["Probe", "Probe"]
    labels_text = (dataset.parent / "a.labels.txt").read_text(encoding="utf-8")
    assert "total_flows: 2" in labels_text
    assert "Probe: 2" in labels_text


def test_label_no_matches_is_all_benign(tmp_path):
    dataset, gt = labelled_setup(
        tmp_path, gt_text="SrcAddr,Label\n10.9.9.9,Probe\n")
    assert main(["label", "--in", str(dataset), "--gt", str(gt)]) == 0
    _, rows = read_csv(dataset.parent / "a.labelled.csv")
    assert [row[-1] for row in rows] == ["Benign", "Benign"]


def test_label_custom_benign_and_out_dir(tmp_path):
    dataset, gt = labelled_setup(
        tmp_path, gt_text="SrcAddr,Label\n10.9.9.9,Probe\n")
    out = tmp_path / "labelled"
    assert main(["label", "--in", str(dataset), "--gt", str(gt),
                 "--out", str(out), "--benign-label", "normal"]) == 0
    assert tree(out) == ["a.labelled.csv", "a.labels.txt"]
    _, rows = read_csv(out / "a.labelled.csv")
    assert {row[-1] for row in rows} == {"normal"}


def test_label_missing_gt_flag(tmp_path, capsys):
    dataset, _ = labelled_setup(tmp_path)
    assert main(["label", "--in", str(dataset)]) == 1
    assert "--gt" in capsys.readouterr().err


def test_label_bad_ground_truth_is_format_error(tmp_path):
    dataset, _ = labelled_setup(tmp_path)
    gt = tmp_path / "bad_gt.csv"
    gt.write_text("Proto\ntcp\n", encoding="utf-8")
    assert main(["label", "--in", str(dataset), "--gt", str(gt)]) == 2


def test_label_dataset_without_match_columns_is_format_error(tmp_path, capsys):
    dataset, gt = labelled_setup(tmp_path)
    partial = tmp_path / "partial.csv"
    partial.write_text("stime,ltime,proto\n1.000000,2.000000,tcp\n",
                       encoding="utf-8")
    assert main(["label", "--in", str(dataset), "--in", str(partial), "--gt", str(gt)]) == 2
    assert capsys.readouterr().err == (
        f"hera: {partial}: dataset is missing required column 'saddr'\n")
    assert not (tmp_path / "csv" / "a.labelled.csv").exists()


def test_label_ground_truth_with_a_byte_order_mark_labels_as_without_it(tmp_path):
    # Without its StartTime, the first entry's window would take in the
    # rows before it.
    dataset, _ = labelled_setup(tmp_path)
    text = ("StartTime,LastTime,SrcAddr,Label\n100.0,200.0,192.168.1.10,DoS\n"
            "0.0,1.0,192.168.1.10,Probe\n")
    outputs = []
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        gt = tmp_path / f"{name}.csv"
        gt.write_text(text, encoding=encoding)
        out = tmp_path / name
        assert main(["label", "--in", str(dataset), "--gt", str(gt), "--out", str(out)]) == 0
        outputs.append({file: (out / file).read_bytes() for file in tree(out)})
    assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    assert outputs[0] == outputs[1]
    assert b"Probe: 2" in outputs[0]["a.labels.txt"]


MATCH_HEADER = "stime,ltime,proto,saddr,sport,daddr,dport\n"
GOOD_ROW = "1.000000,2.000000,tcp,10.0.0.1,1234,10.0.0.2,80\n"


@pytest.mark.parametrize("bad_row, message", [
    ("1.000000,2.000000,tcp,10.0.0.1,http,10.0.0.2,80\n",
     "line 3, column 'sport': bad value 'http'"),
    ("1.000000,2.000000,tcp,10.0.0.1,1234,10.0.0.2,8.0\n",
     "line 3, column 'dport': bad value '8.0'"),
    ("1.000000,noon,tcp,10.0.0.1,1234,10.0.0.2,80\n",
     "line 3, column 'ltime': bad value 'noon'"),
    ("1.0.0,2.000000,tcp,10.0.0.1,1234,10.0.0.2,80\n",
     "line 3, column 'stime': bad value '1.0.0'"),
    ("1.000000,2.000000,tcp,10.0.0.1,1234\n", "line 3, column 'daddr': missing cell"),
    ("1.000000,2.000000,tcp,10.0.0.1,8_0,10.0.0.2,80\n",
     "line 3, column 'sport': bad value '8_0'"),
    ("1.000000,2.000000,tcp,10.0.0.1,1234,10.0.0.2,\u0665\u0663\n",
     "line 3, column 'dport': bad value '\u0665\u0663'"),
    ("\u0661.0,2.000000,tcp,10.0.0.1,1234,10.0.0.2,80\n",
     "line 3, column 'stime': bad value '\u0661.0'"),
    ("1.000000,2.000000,tcp,10.0.0.1," + "1" + "0" * 40 + ",10.0.0.2,80\n",
     "line 3, column 'sport': bad value '1" + "0" * 40 + "'"),
    ("1" + "0" * 34 + ".000000,2.000000,tcp,10.0.0.1,1234,10.0.0.2,80\n",
     "line 3, column 'stime': bad value '1" + "0" * 34 + ".000000'"),
], ids=["sport", "dport", "ltime", "stime", "short-row",
        "sport-underscore", "dport-non-ascii", "stime-non-ascii", "sport-41-digits",
        "stime-41-digits"])
def test_label_unreadable_dataset_cell_is_format_error(tmp_path, capsys, bad_row, message):
    dataset = tmp_path / "d.csv"
    dataset.write_text(MATCH_HEADER + GOOD_ROW + bad_row, encoding="utf-8")
    gt = write_gt(tmp_path / "gt.csv")
    assert main(["label", "--in", str(dataset), "--gt", str(gt)]) == 2
    assert capsys.readouterr().err == f"hera: {dataset}: {message}\n"
    assert tree(tmp_path) == ["d.csv", "gt.csv"]


@pytest.mark.parametrize("line_break", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_label_unreadable_dataset_cell_names_the_line_after_a_quoted_line_break(
        tmp_path, capsys, line_break):
    """Row 2 spans lines 2 and 3, so the bad sport of row 3 is on line 4,
    as the file's lines are counted by an unreadable line's error too."""
    dataset = tmp_path / "d.csv"
    dataset.write_text(
        MATCH_HEADER.replace("\n", ",note\n") + GOOD_ROW.replace("\n", f',"two{line_break}lines"\n')
        + "1.000000,2.000000,tcp,10.0.0.1,x,10.0.0.2,80,\n", encoding="utf-8", newline="")
    gt = write_gt(tmp_path / "gt.csv")
    assert main(["label", "--in", str(dataset), "--gt", str(gt)]) == 2
    assert capsys.readouterr().err == f"hera: {dataset}: line 4, column 'sport': bad value 'x'\n"
    assert tree(tmp_path) == ["d.csv", "gt.csv"]


def test_label_ground_truth_not_utf8_is_format_error(tmp_path, capsys):
    dataset = tmp_path / "d.csv"
    dataset.write_text(MATCH_HEADER + GOOD_ROW, encoding="utf-8")
    gt = tmp_path / "gt.csv"
    gt.write_bytes(b"SrcAddr,Label\n10.0.0.1,Probe\n10.0.0.2,Sc\xe4n\n")
    assert main(["label", "--in", str(dataset), "--gt", str(gt)]) == 2
    assert "line 3, column 12: bytes are not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("gt_text, reason", [
    ("", "empty ground-truth file"),
    ("SrcAddr\n192.168.1.10\n", "no Label column in ['SrcAddr']"),
    ("SrcAddr,Label\n192.168.1.10,Probe\n192.168.1.11, \n", "line 3: empty label cell"),
    ("StartTime,Label\nnoon,Probe\n", "line 2, column 'StartTime': bad value 'noon'"),
    ("Sport,Label\n8_0,Probe\n", "line 2, column 'Sport': bad value '8_0'"),
    ("Dport,Label\nhttp,Probe\n", "line 2, column 'Dport': bad value 'http'"),
    ("Sport,Label\n80,\"Two\nlines\"\n8_0,Probe\n", "line 4, column 'Sport': bad value '8_0'"),
    (" SPORT ,Label\n 8_0 ,Probe\n", "line 2, column ' SPORT ': bad value ' 8_0 '"),
], ids=["empty-file", "no-label-column", "empty-label", "timestamp", "sport", "dport",
        "after-a-quoted-line-break", "header-and-cell-as-written"])
def test_label_malformed_ground_truth_is_format_error(tmp_path, capsys, gt_text, reason):
    dataset = tmp_path / "d.csv"
    dataset.write_text(MATCH_HEADER + GOOD_ROW, encoding="utf-8")
    gt = write_gt(tmp_path / "gt.csv", gt_text)
    assert main(["label", "--in", str(dataset), "--gt", str(gt)]) == 2
    assert capsys.readouterr().err == f"hera: {gt}: {reason}\n"
    assert tree(tmp_path) == ["d.csv", "gt.csv"]


LONG_CELL = "x" * 200_000  # over the csv module's 131,072-character field limit


@pytest.mark.parametrize("dataset_text, gt_text, where", [
    (MATCH_HEADER.encode() + GOOD_ROW.encode()
     + b"1.000000,2.000000,tcp,10.0.0.1,1234,10.0.\xff.2,80\n",
     b"SrcAddr,Label\n10.0.0.1,Probe\n",
     "d.csv: line 3, column 42: bytes are not UTF-8"),
    (MATCH_HEADER.encode() + GOOD_ROW.encode(),
     f"SrcAddr,Label\n10.0.0.1,Probe\n10.0.0.2,{LONG_CELL}\n".encode(),
     "gt.csv: line 3: field larger than field limit"),
    ((MATCH_HEADER + GOOD_ROW + GOOD_ROW.replace("tcp", LONG_CELL)).encode(),
     b"SrcAddr,Label\n10.0.0.1,Probe\n",
     "d.csv: line 3: field larger than field limit"),
], ids=["dataset-not-utf8", "gt-cell-too-long", "dataset-cell-too-long"])
def test_label_unreadable_line_is_format_error(
        tmp_path, capsys, dataset_text, gt_text, where):
    dataset = tmp_path / "d.csv"
    dataset.write_bytes(dataset_text)
    gt = tmp_path / "gt.csv"
    gt.write_bytes(gt_text)
    assert main(["label", "--in", str(dataset), "--gt", str(gt)]) == 2
    assert where in capsys.readouterr().err
    assert tree(tmp_path) == ["d.csv", "gt.csv"]


# -- run ----------------------------------------------------------------------


def test_run_without_ground_truth(capture, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--pcap", str(capture)]) == 0
    assert tree(tmp_path / "flows") == ["a.hera", "a.stats.txt"]
    assert tree(tmp_path / "csv") == ["a.csv", "a.stats.txt"]


def stage_by_stage(pcaps, gt, out, flags, common=()):
    """The outputs of `export`, `dataset` and `label` run one after another,
    each with the `common` flags first."""
    export_flags, dataset_flags, label_flags = flags
    assert main([*common, "export", *[f"--pcap={p}" for p in pcaps],
                 "--out", str(out / "flows"), *export_flags]) == 0
    assert main([*common, "dataset", "--in", str(out / "flows" / "*.hera"),
                 "--out", str(out / "csv"), *dataset_flags]) == 0
    assert main([*common, "label", "--in", str(out / "csv" / "*.csv"), "--gt", str(gt),
                 *label_flags]) == 0


def assert_same_tree(one, two):
    assert tree(one) == tree(two)
    for name in tree(one):
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


def csv_writer_bytes(path) -> bytes:
    """What csv.writer writes for the header and rows read back from path."""
    header, rows = read_csv(path)
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


# Labels that need quoting; the first entry also names a source address
# that needs quoting, which only a hand-edited .hera file can hold.
QUOTING_GT = ('SrcAddr,Proto,Label\n'
              '"192.168.1.10,""x""",,"Probe, ""quoted"""\n'
              ',udp,"say ""hi"""\n')


def test_cells_and_labels_that_need_quoting_are_written_as_csv_writer_writes_them(tmp_path):
    capture = sample_capture(tmp_path / "a.pcap")
    gt = write_gt(tmp_path / "gt.csv", QUOTING_GT)
    out = tmp_path / "run"
    assert main(["run", "--pcap", str(capture), "--gt", str(gt), "--features", "all",
                 "--flows-dir", str(out / "flows"), "--csv-dir", str(out / "csv")]) == 0
    hera = out / "flows" / "a.hera"
    text = hera.read_text(encoding="utf-8")
    assert f"saddr={CLIENT} " in text
    hera.write_text(text.replace(f"saddr={CLIENT} ", f'saddr={CLIENT},"x" '), encoding="utf-8")
    edited = tmp_path / "edited"
    assert main(["dataset", "--in", str(hera), "--out", str(edited), "--features", "all"]) == 0
    assert main(["label", "--in", str(edited / "a.csv"), "--gt", str(gt)]) == 0
    for path in (out / "csv" / "a.labelled.csv", edited / "a.csv", edited / "a.labelled.csv"):
        assert path.read_bytes() == csv_writer_bytes(path), path
    assert '"say ""hi"""' in (out / "csv" / "a.labelled.csv").read_text(encoding="utf-8")
    labelled = (edited / "a.labelled.csv").read_text(encoding="utf-8")
    assert '"192.168.1.10,""x"""' in labelled and '"Probe, ""quoted"""' in labelled


@pytest.mark.parametrize("bidirectional", [[], ["--bidirectional"]], ids=["oneway", "bidi"])
@pytest.mark.parametrize("management", [[], ["--keep-management"]], ids=["nomgmt", "mgmt"])
@pytest.mark.parametrize("features", ["default", "all"])
@pytest.mark.parametrize("mode", ["ra", "racluster"])
def test_run_full_pipeline_matches_separate_stages(
        tmp_path, mode, features, management, bidirectional):
    capture = pipeline_capture(tmp_path / "a.pcap")
    gt = write_gt(tmp_path / "gt.csv", PIPELINE_GT)
    flags = ([], ["--mode", mode, "--features", features, *management], bidirectional)
    combined = tmp_path / "combined"
    assert main(["run", "--pcap", str(capture), "--gt", str(gt),
                 "--flows-dir", str(combined / "flows"),
                 "--csv-dir", str(combined / "csv"), *flags[1], *flags[2]]) == 0
    assert tree(combined) == [
        "csv/a.csv", "csv/a.labelled.csv", "csv/a.labels.txt",
        "csv/a.stats.txt", "flows/a.hera", "flows/a.stats.txt",
    ]
    staged = tmp_path / "staged"
    stage_by_stage([capture], gt, staged, flags)
    assert_same_tree(staged, combined)
    labels = (combined / "csv" / "a.labels.txt").read_text(encoding="utf-8")
    assert ("Slow:" in labels) == bool(bidirectional)


def test_run_jobs_match_serial_run(tmp_path):
    pcaps = [pipeline_capture(tmp_path / "a.pcap"),
             sample_capture(tmp_path / "b.pcap", base_us=5 * SEC),
             slow_udp_capture(tmp_path / "c.pcap")]
    gt = write_gt(tmp_path / "gt.csv", PIPELINE_GT)
    for name, jobs in (("serial", "1"), ("parallel", "2")):
        assert main(["run", "--pcap", str(tmp_path / "*.pcap"), "--gt", str(gt),
                     "--flows-dir", str(tmp_path / name / "flows"),
                     "--csv-dir", str(tmp_path / name / "csv"),
                     "--mode", "racluster", "--bidirectional", "--jobs", jobs]) == 0
    assert len(tree(tmp_path / "serial")) == 6 * len(pcaps)
    assert_same_tree(tmp_path / "serial", tmp_path / "parallel")
    staged = tmp_path / "staged"
    stage_by_stage(pcaps, gt, staged, ([], ["--mode", "racluster"], ["--bidirectional"]))
    assert_same_tree(staged, tmp_path / "serial")


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the counting wrapper reaches the workers only through fork")
def test_ground_truth_is_indexed_once_per_command_not_per_worker(tmp_path, monkeypatch):
    """The parent indexes the ground truth as it parses it, and the
    workers of `--jobs` inherit the index. A worker would build in its
    own process, so each build is counted as one line, its builder's
    pid, appended to a file."""
    builds = tmp_path / "builds.txt"
    index_entries = labelling._index_entries

    def counted(into, entries):
        with open(builds, "a", encoding="utf-8") as fp:
            fp.write(f"{os.getpid()}\n")
        return index_entries(into, entries)

    monkeypatch.setattr(labelling, "_index_entries", counted)
    (tmp_path / "pcaps").mkdir()
    for i in range(4):
        sample_capture(tmp_path / "pcaps" / f"{i}.pcap", base_us=i * SEC)
    gt = write_gt(tmp_path / "gt.csv")

    def run(name, jobs):
        assert main(["run", "--pcap", str(tmp_path / "pcaps" / "*.pcap"), "--gt", str(gt),
                     "--flows-dir", str(tmp_path / name / "flows"),
                     "--csv-dir", str(tmp_path / name / "csv"), "--jobs", jobs]) == 0
        return builds.read_text(encoding="utf-8").split()

    assert run("parallel", "2") == [str(os.getpid())]
    builds.unlink()
    assert run("serial-1", "1") == [str(os.getpid())]
    assert run("serial-2", "1") == [str(os.getpid())] * 2  # one build per command


def test_run_hands_records_and_rows_over_in_memory(capture, tmp_path, monkeypatch):
    def reread(path):
        raise AssertionError(f"run read back {path}")

    monkeypatch.setattr("hera.herafile.read_hera", reread)
    monkeypatch.setattr("hera.dataset.read_csv", reread)
    gt = write_gt(tmp_path / "gt.csv")
    assert main(["run", "--pcap", str(capture), "--gt", str(gt),
                 "--flows-dir", str(tmp_path / "flows"),
                 "--csv-dir", str(tmp_path / "csv")]) == 0
    assert "Probe: 2" in (tmp_path / "csv" / "a.labels.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_with_bad_ground_truth_leaves_nothing(tmp_path, capsys, monkeypatch, jobs):
    """The ground truth is parsed before the first capture, in the parent
    process: no capture is exported, and the error names the file."""
    def no_export(*args):
        raise AssertionError("a capture was exported")

    monkeypatch.setattr(cli, "export_capture", no_export)
    for name, base in (("a.pcap", 0), ("b.pcap", 3 * SEC)):
        sample_capture(tmp_path / name, base_us=base)
    gt = write_gt(tmp_path / "gt.csv", "StartTime,Label\nnot-a-time,Probe\n")
    flows, csv_dir = tmp_path / "out" / "flows", tmp_path / "out" / "csv"
    assert main(["run", "--pcap", str(tmp_path / "*.pcap"), "--gt", str(gt),
                 "--flows-dir", str(flows), "--csv-dir", str(csv_dir),
                 "--jobs", jobs]) == 2
    assert capsys.readouterr().err == (
        f"hera: {gt}: line 2, column 'StartTime': bad value 'not-a-time'\n")
    assert not (tmp_path / "out").exists()


def test_run_with_existing_labelled_output_does_no_work(capture, tmp_path, capsys):
    gt = write_gt(tmp_path / "gt.csv")
    csv_dir = tmp_path / "csv"
    csv_dir.mkdir()
    (csv_dir / "a.labelled.csv").write_text("kept\n", encoding="utf-8")
    assert main(["run", "--pcap", str(capture), "--gt", str(gt),
                 "--flows-dir", str(tmp_path / "flows"), "--csv-dir", str(csv_dir)]) == 3
    assert "--force" in capsys.readouterr().err
    assert not (tmp_path / "flows").exists()
    assert tree(csv_dir) == ["a.labelled.csv"]
    assert (csv_dir / "a.labelled.csv").read_text(encoding="utf-8") == "kept\n"


def test_run_refuses_one_directory_for_both_stats_files(capture, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--pcap", str(capture), "--flows-dir", str(out),
                 "--csv-dir", str(out)]) == 1
    assert "two outputs would be written to" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["", "force"])
def test_an_output_path_that_is_a_directory_is_refused_before_any_work(
        capture, tmp_path, capsys, force):
    csv_dir = tmp_path / "csv"
    (csv_dir / "a.csv").mkdir(parents=True)
    assert main(["run", "--pcap", str(capture), "--flows-dir", str(tmp_path / "flows"),
                 "--csv-dir", str(csv_dir), *force]) == 3
    assert capsys.readouterr().err == (
        f"hera: {csv_dir / 'a.csv'} is a directory; an output file cannot replace it\n")
    assert not (tmp_path / "flows").exists()
    assert tree(csv_dir) == []


def refuse_csv_renames(monkeypatch):
    """Make every rename onto a `.csv` path fail, as a full or read-only
    disk would; the flow files are renamed into place before it."""
    replace = os.replace

    def refuse_csv(src, dst):
        if str(dst).endswith(".csv"):
            raise PermissionError(13, "Permission denied", str(dst))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse_csv)


def test_a_failed_commit_reports_its_own_error_and_removes_what_it_renamed(
        capture, tmp_path, capsys, monkeypatch):
    """The flow files are renamed into place before the CSV, whose rename
    fails: that error is reported, and the flow files and the directory
    made for them are removed, so the command leaves nothing behind."""
    refuse_csv_renames(monkeypatch)
    flows, csv_dir = tmp_path / "flows", tmp_path / "csv"
    assert main(["run", "--pcap", str(capture), "--flows-dir", str(flows),
                 "--csv-dir", str(csv_dir)]) == 3
    assert capsys.readouterr().err == (
        f"hera: [Errno 13] Permission denied: '{csv_dir / 'a.csv'}'\n")
    assert tree(tmp_path) == ["a.pcap"]
    assert not flows.exists() and not csv_dir.exists()


def test_a_failed_commit_under_force_keeps_only_the_files_it_replaced(
        capture, tmp_path, capsys, monkeypatch):
    """Under --force, an output renamed over an old file before a later
    rename failed stays in its place, as the old file is gone; an output
    that was new is removed."""
    flows, csv_dir = tmp_path / "flows", tmp_path / "csv"
    flows.mkdir()
    (flows / "a.hera").write_text("old\n", encoding="utf-8")
    refuse_csv_renames(monkeypatch)
    assert main(["run", "--pcap", str(capture), "--flows-dir", str(flows),
                 "--csv-dir", str(csv_dir), "--force"]) == 3
    assert capsys.readouterr().err == (
        f"hera: [Errno 13] Permission denied: '{csv_dir / 'a.csv'}'\n")
    assert tree(flows) == ["a.hera"]
    assert (flows / "a.hera").read_bytes().startswith(b"#HERA v1\n")
    assert not csv_dir.exists()


@pytest.mark.parametrize("flag, value", [
    ("--interval", "inf"), ("--interval", "nan"), ("--idle-timeout", "nan"),
    ("--slack", "inf"), ("--count-window", "inf"), ("--jobs", "inf"),
])
def test_non_finite_number_is_usage_error(capture, tmp_path, capsys, flag, value):
    assert main(["run", "--pcap", str(capture), flag, value,
                 "--flows-dir", str(tmp_path / "flows"),
                 "--csv-dir", str(tmp_path / "csv")]) == 1
    # The flag named is the one typed, whatever the setting is called.
    assert capsys.readouterr().err == f"hera: {flag} expects a finite number, got {value!r}\n"
    assert tree(tmp_path) == ["a.pcap"]


def test_non_finite_workspace_number_names_the_key(capture, tmp_path, monkeypatch, capsys):
    conf = tmp_path / "ws.conf"
    conf.write_text("reorder_slack = inf\n", encoding="utf-8")
    monkeypatch.setenv("HERA_WORKSPACE", str(conf))
    assert main(["export", "--pcap", str(capture), "--out", str(tmp_path / "flows")]) == 1
    assert capsys.readouterr().err == (
        "hera: config key reorder_slack expects a finite number, got 'inf'\n")
    assert tree(tmp_path) == ["a.pcap", "ws.conf"]


def _stage_outputs(command: str, tmp_path) -> list[str]:
    if command == "export":
        return ["--out", str(tmp_path / "flows")]
    return ["--flows-dir", str(tmp_path / "flows"), "--csv-dir", str(tmp_path / "csv")]


# 10^35 s is 10^41 us, 42 digits: more than a .hera header's time holds,
# so the file written would not read back.
@pytest.mark.parametrize("command", ["export", "run"])
@pytest.mark.parametrize("flag", ["--interval", "--idle-timeout", "--slack"])
def test_a_time_past_what_a_flow_file_holds_is_usage_error(capture, tmp_path, capsys, command,
                                                           flag):
    assert main([command, "--pcap", str(capture), flag, "1e35",
                 *_stage_outputs(command, tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"hera: {flag} must be under 10^34 seconds, the most a .hera file holds\n")
    assert tree(tmp_path) == ["a.pcap"]


@pytest.mark.parametrize("command", ["export", "run"])
def test_a_workspace_time_past_what_a_flow_file_holds_names_the_key(capture, tmp_path,
                                                                    monkeypatch, capsys, command):
    conf = tmp_path / "ws.conf"
    conf.write_text("reorder_slack = 1e40\n", encoding="utf-8")
    monkeypatch.setenv("HERA_WORKSPACE", str(conf))
    assert main([command, "--pcap", str(capture), *_stage_outputs(command, tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "hera: config key reorder_slack must be under 10^34 seconds, "
        "the most a .hera file holds\n")
    assert tree(tmp_path) == ["a.pcap", "ws.conf"]


def test_the_longest_times_a_flow_file_holds_are_exported_and_read_back(capture, tmp_path):
    flows = tmp_path / "flows"
    assert main(["export", "--pcap", str(capture), "--out", str(flows),
                 "--interval", "9e33", "--idle-timeout", "9e33", "--slack", "9e33"]) == 0
    assert main(["dataset", "--in", str(flows / "a.hera"), "--out", str(tmp_path / "csv")]) == 0
    assert read_hera(flows / "a.hera").header.config.reorder_slack_us == seconds_to_us(9e33)


def test_workspace_file_with_a_byte_order_mark_keeps_its_first_key(capture, tmp_path,
                                                                   monkeypatch):
    conf = tmp_path / "ws.conf"
    conf.write_text("interval = 30\n", encoding="utf-8-sig")
    monkeypatch.setenv("HERA_WORKSPACE", str(conf))
    assert main(["export", "--pcap", str(capture), "--out", str(tmp_path / "flows")]) == 0
    assert b"#interval=30.000000\n" in (tmp_path / "flows" / "a.hera").read_bytes()


def test_workspace_file_that_is_not_utf8_is_usage_error(capture, tmp_path, monkeypatch,
                                                        capsys):
    conf = tmp_path / "ws.conf"
    conf.write_bytes(b"interval = 30\nbenign_label = \xff\n")
    monkeypatch.setenv("HERA_WORKSPACE", str(conf))
    assert main(["export", "--pcap", str(capture), "--out", str(tmp_path / "flows")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"hera: cannot read workspace file {str(conf)!r}: ")
    assert "can't decode byte 0xff" in err
    assert tree(tmp_path) == ["a.pcap", "ws.conf"]


@pytest.mark.parametrize("line, message", [
    pytest.param("interval = 0", "interval must be a positive number of seconds, "
                 "at least one microsecond", id="interval"),
    pytest.param("idle_timeout = 1e-9", "idle_timeout must be a positive number of seconds, "
                 "at least one microsecond", id="idle_timeout"),
    pytest.param("idle_timeout = 0", "idle_timeout must be a positive number of seconds, "
                 "at least one microsecond", id="idle_timeout-0"),
    pytest.param("reorder_slack = -1", "reorder_slack must not be negative", id="reorder_slack"),
    # past a float's range in microseconds
    pytest.param("idle_timeout = 1e303", "idle_timeout must be under 10^34 seconds, the most a "
                 ".hera file holds", id="idle_timeout-1e303"),
    pytest.param("reorder_slack = -1e303", "reorder_slack must not be negative",
                 id="reorder_slack-minus-1e303"),
    pytest.param("count_window = 0", "count_window must be at least 1", id="count_window"),
    pytest.param("jobs = 0", "jobs must be at least 1", id="jobs"),
    pytest.param("count_window = 100.5", "count_window expects a whole number, got '100.5'",
                 id="count_window-fraction"),
    pytest.param("jobs = 2.25", "jobs expects a whole number, got '2.25'", id="jobs-fraction"),
    pytest.param("mode = bogus", "mode must be one of ra/racluster", id="mode"),
])
def test_workspace_range_error_names_the_key(capture, tmp_path, monkeypatch, capsys,
                                             line, message):
    conf = tmp_path / "ws.conf"
    conf.write_text(line + "\n", encoding="utf-8")
    monkeypatch.setenv("HERA_WORKSPACE", str(conf))
    assert main(["run", "--pcap", str(capture), "--flows-dir", str(tmp_path / "flows"),
                 "--csv-dir", str(tmp_path / "csv")]) == 1
    assert capsys.readouterr().err == f"hera: config key {message}\n"
    assert tree(tmp_path) == ["a.pcap", "ws.conf"]


@pytest.mark.parametrize("flag, value", [("--count-window", "2.5"), ("--jobs", "1.9")])
def test_fractional_count_is_usage_error(capture, tmp_path, capsys, flag, value):
    assert main(["run", "--pcap", str(capture), flag, value,
                 "--flows-dir", str(tmp_path / "flows"),
                 "--csv-dir", str(tmp_path / "csv")]) == 1
    assert capsys.readouterr().err == f"hera: {flag} expects a whole number, got {value!r}\n"
    assert tree(tmp_path) == ["a.pcap"]


def test_whole_number_written_as_a_float_is_accepted(tmp_path):
    hera = exported(tmp_path)
    assert main(["dataset", "--in", str(hera), "--out", str(tmp_path / "csv"),
                 "--count-window", "3.0"]) == 0


def test_export_jobs_report_worker_errors_intact(tmp_path, capsys):
    sample_capture(tmp_path / "a.pcap")
    data = (tmp_path / "a.pcap").read_bytes()
    (tmp_path / "b.pcap").write_bytes(data[:-5])  # the last record is cut short
    assert main(["export", "--pcap", str(tmp_path / "*.pcap"),
                 "--out", str(tmp_path / "flows"), "--jobs", "2"]) == 2
    assert capsys.readouterr().err == (
        f"hera: {tmp_path / 'b.pcap'}: record 6 truncated at end of file\n")


def test_run_is_idempotent_with_force(capture, tmp_path):
    gt = write_gt(tmp_path / "gt.csv")
    argv = ["run", "--pcap", str(capture), "--gt", str(gt),
            "--flows-dir", str(tmp_path / "flows"),
            "--csv-dir", str(tmp_path / "csv")]
    assert main(argv) == 0
    first = {name: (tmp_path / name).read_bytes()
             for name in tree(tmp_path) if not name.endswith(("pcap", "gt.csv"))}
    assert main(argv + ["--force"]) == 0
    second = {name: (tmp_path / name).read_bytes() for name in first}
    assert second == first


def test_run_applies_one_ground_truth_to_many_captures(tmp_path):
    for name, base in (("a.pcap", 0), ("b.pcap", 3 * SEC), ("c.pcap", 6 * SEC)):
        sample_capture(tmp_path / name, base_us=base)
    gt = write_gt(tmp_path / "gt.csv")
    assert main(["run", "--pcap", str(tmp_path / "*.pcap"), "--gt", str(gt),
                 "--flows-dir", str(tmp_path / "flows"),
                 "--csv-dir", str(tmp_path / "csv")]) == 0
    produced = tree(tmp_path / "csv")
    for stem in ("a", "b", "c"):
        assert f"{stem}.labelled.csv" in produced
        labels = (tmp_path / "csv" / f"{stem}.labels.txt").read_text("utf-8")
        assert "Probe: 2" in labels


def test_ground_truth_is_indexed_once_per_command(tmp_path, monkeypatch):
    """A serial `run` over two captures and a `label` over two datasets
    each build the ground truth's match index once."""
    from hera import labelling
    index_entries, built = labelling._index_entries, []

    def counted(into, entries):
        index = index_entries(into, entries)
        built.append(len(into))
        return index

    monkeypatch.setattr(labelling, "_index_entries", counted)
    for name, base in (("a.pcap", 0), ("b.pcap", 3 * SEC)):
        sample_capture(tmp_path / name, base_us=base)
    gt = write_gt(tmp_path / "gt.csv")
    assert main(["run", "--pcap", str(tmp_path / "*.pcap"), "--gt", str(gt),
                 "--flows-dir", str(tmp_path / "flows"),
                 "--csv-dir", str(tmp_path / "csv")]) == 0
    assert built == [1]
    built.clear()
    assert main(["label", "--in", str(tmp_path / "csv" / "?.csv"), "--gt", str(gt),
                 "--out", str(tmp_path / "relabelled")]) == 0
    assert built == [1]
    for stem in ("a", "b"):
        assert ((tmp_path / "relabelled" / f"{stem}.labelled.csv").read_bytes()
                == (tmp_path / "csv" / f"{stem}.labelled.csv").read_bytes())


# -- --verbose ----------------------------------------------------------------


def accounted_capture(path):
    """The pipeline capture plus a frame too short to decode and a packet
    beyond the reorder slack, so that every export count is non-zero."""
    frames = sample_frames() + [
        (200 * SEC, b"\x00" * 5),
        (210 * SEC, pb.udp4_frame(CLIENT, SERVER, 7000, 53, b"late")),
        (205 * SEC, pb.udp4_frame(CLIENT, SERVER, 7000, 53, b"later")),
    ]
    pb.write(path, [pb.record(ts, frame) for ts, frame in frames])
    return path


STEP_LINES = (
    r"export (?P<name>\S+): (?P<decoded>\d+) packets decoded, (?P<skipped>\d+) skipped"
    r" \(truncated-frame (?P=skipped)\), (?P<late>\d+) non-monotonic,"
    r" (?P<records>\d+) records, \d+\.\d{3} s",
    r"dataset (?P<name>\S+): (?P<records>\d+) records in, (?P<rows>\d+) rows out, \d+\.\d{3} s",
    r"label (?P<name>\S+): (?P<rows>\d+) rows, (?P<malicious>\d+) malicious, \d+\.\d{3} s",
)


def step_counts(lines) -> list[dict]:
    """The fields of each step line, which must come in STEP_LINES' order."""
    steps = [line for line in lines if not line.startswith("INFO wrote ")]
    assert len(steps) == len(STEP_LINES), steps
    matches = [re.fullmatch("INFO " + pattern, line) for pattern, line in zip(STEP_LINES, steps)]
    assert all(matches), steps
    return [match.groupdict() for match in matches]


def assert_counts_of(counts, out, csv_dir):
    export, dataset, label = counts
    records = read_hera(out / "flows" / "a.hera").records
    header, rows = read_csv(csv_dir / "a.csv")
    labels = (csv_dir / "a.labels.txt").read_text(encoding="utf-8")
    # 7 sample frames and 2 late UDP packets; the short frame is skipped
    assert (export["decoded"], export["skipped"], export["late"]) == ("9", "1", "1")
    assert export["records"] == dataset["records"] == str(len(records))
    assert dataset["rows"] == label["rows"] == str(len(rows))
    assert f"malicious_flows: {label['malicious']}\n" in labels
    assert int(label["malicious"]) > 0


def test_verbose_run_logs_one_line_per_step_to_stderr_and_changes_no_output(tmp_path):
    capture = accounted_capture(tmp_path / "a.pcap")
    gt = write_gt(tmp_path / "gt.csv", PIPELINE_GT)

    def argv(out):
        return ["run", "--pcap", str(capture), "--gt", str(gt), "--bidirectional",
                "--flows-dir", str(out / "flows"), "--csv-dir", str(out / "csv")]

    assert main(argv(tmp_path / "quiet")) == 0
    loud = subprocess.run([sys.executable, "-m", "hera.cli", "--verbose",
                           *argv(tmp_path / "loud")], env=child_env(), capture_output=True,
                          text=True)
    assert loud.returncode == 0, loud.stderr
    assert loud.stdout == ""
    assert_same_tree(tmp_path / "quiet", tmp_path / "loud")
    counts = step_counts(loud.stderr.splitlines())
    assert {step["name"] for step in counts} == {str(capture)}
    assert_counts_of(counts, tmp_path / "loud", tmp_path / "loud" / "csv")


def test_verbose_stand_alone_steps_log_their_counts(tmp_path, capsys):
    capture = accounted_capture(tmp_path / "a.pcap")
    gt = write_gt(tmp_path / "gt.csv", PIPELINE_GT)
    out = tmp_path / "out"
    stage_by_stage([capture], gt, out, ([], [], ["--bidirectional"]), common=["--verbose"])
    printed = capsys.readouterr()
    assert printed.out == ""
    lines = printed.err.splitlines()
    counts = step_counts(lines)
    assert [step["name"] for step in counts] == [
        str(capture), str(out / "flows" / "a.hera"), str(out / "csv" / "a.csv")]
    assert_counts_of(counts, out, out / "csv")
    assert sorted(line for line in lines if line.startswith("INFO wrote ")) == sorted(
        f"INFO wrote {out / name}" for name in tree(out))
    quiet = tmp_path / "quiet"
    stage_by_stage([capture], gt, quiet, ([], [], ["--bidirectional"]))
    assert capsys.readouterr().err == ""
    assert_same_tree(out, quiet)


@pytest.mark.parametrize("method", [method for method in ("fork", "spawn")
                                    if method in multiprocessing.get_all_start_methods()])
def test_verbose_jobs_workers_log_each_capture_once(tmp_path, method):
    # The workers print their own lines, under either start method, and in
    # any order; the parent prints the `wrote` lines.
    pcaps = [accounted_capture(tmp_path / "a.pcap"), sample_capture(tmp_path / "b.pcap")]
    gt = write_gt(tmp_path / "gt.csv", PIPELINE_GT)

    def logged(name, jobs):
        out = tmp_path / name
        argv = ["--verbose", "run", "--pcap", str(tmp_path / "*.pcap"), "--gt", str(gt),
                "--flows-dir", str(out / "flows"), "--csv-dir", str(out / "csv"), "--jobs", jobs]
        code = (f"import multiprocessing, sys; multiprocessing.set_start_method({method!r}); "
                f"from hera.cli import main; sys.exit(main({argv!r}))")
        done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return [re.sub(r", \d+\.\d{3} s$", "", line).replace(str(out), "OUT")
                for line in done.stderr.splitlines()]

    parallel, serial = logged("parallel", "2"), logged("serial", "1")
    assert_same_tree(tmp_path / "serial", tmp_path / "parallel")
    outputs = {f"INFO wrote OUT/{name}" for name in tree(tmp_path / "serial")}
    exports = {f"INFO export {pcap}" for pcap in pcaps}
    for lines in (parallel, serial):
        assert len(lines) == len(set(lines)) == len(outputs) + 3 * len(pcaps), lines
        assert {line for line in lines if line.startswith("INFO wrote ")} == outputs
        assert {line.split(":")[0] for line in lines if line.startswith("INFO export ")} == exports
    assert set(parallel) == set(serial)


def test_run_dataset_features_all_with_management(capture, tmp_path):
    assert main(["run", "--pcap", str(capture), "--features", "all", "--keep-management",
                 "--flows-dir", str(tmp_path / "flows"),
                 "--csv-dir", str(tmp_path / "csv")]) == 0
    header, rows = read_csv(tmp_path / "csv" / "a.csv")
    sdur = [row[header.index("sdur")] for row in rows]
    assert sdur.count("") == 1  # the management row's
    assert main(["dataset", "--in", str(tmp_path / "flows" / "a.hera"), "--features", "sdur",
                 "--keep-management", "--out", str(tmp_path / "sdur")]) == 0


def test_run_validates_features_before_any_io(capture, tmp_path, capsys):
    flows = tmp_path / "flows"
    assert main(["run", "--pcap", str(capture), "--features", "bogus,dur",
                 "--flows-dir", str(flows),
                 "--csv-dir", str(tmp_path / "csv")]) == 1
    assert "bogus" in capsys.readouterr().err
    assert not flows.exists()


# -- workspace config ---------------------------------------------------------


def test_workspace_config_supplies_defaults(capture, tmp_path, monkeypatch):
    conf = tmp_path / "ws.conf"
    conf.write_text(
        f"interval = 30\npcap = {capture}\n", encoding="utf-8")
    monkeypatch.setenv("HERA_WORKSPACE", str(conf))
    out = tmp_path / "flows"
    assert main(["export", "--out", str(out)]) == 0
    assert read_hera(out / "a.hera").header.config.interval_us == 30 * SEC


@pytest.mark.parametrize("command", ["export", "run"])
def test_workspace_no_management_drops_management_records(capture, tmp_path, monkeypatch,
                                                           command):
    conf = tmp_path / "ws.conf"
    conf.write_text("no_management = true\n", encoding="utf-8")
    monkeypatch.setenv("HERA_WORKSPACE", str(conf))
    flows = tmp_path / "flows"
    outputs = {"export": ["--out", str(flows)],
               "run": ["--flows-dir", str(flows), "--csv-dir", str(tmp_path / "csv")]}
    assert main([command, "--pcap", str(capture), *outputs[command]]) == 0
    flowfile = read_hera(flows / "a.hera")
    assert not flowfile.header.config.emit_management
    assert [r for r in flowfile.records if r.is_management] == []


@pytest.mark.parametrize("line", ["intervall = 30", "emit_management = false",
                                  "verbose = true"])
def test_a_workspace_key_that_is_no_flags_key_is_usage_error(capture, tmp_path, monkeypatch,
                                                            capsys, line):
    conf = tmp_path / "ws.conf"
    conf.write_text(line + "\n", encoding="utf-8")
    monkeypatch.setenv("HERA_WORKSPACE", str(conf))
    assert main(["export", "--pcap", str(capture), "--out", str(tmp_path / "flows")]) == 1
    key = line.split(" = ")[0]
    assert capsys.readouterr().err == f"hera: unknown config key {key!r}\n"
    assert tree(tmp_path) == ["a.pcap", "ws.conf"]


def test_a_workspace_with_other_commands_keys_still_exports(capture, tmp_path, monkeypatch):
    conf = tmp_path / "ws.conf"
    conf.write_text(f"features = unsw-nb15\nground_truth = {tmp_path / 'gt.csv'}\n"
                    "csv_dir = csv\n", encoding="utf-8")
    monkeypatch.setenv("HERA_WORKSPACE", str(conf))
    assert main(["export", "--pcap", str(capture), "--out", str(tmp_path / "flows")]) == 0
    assert tree(tmp_path / "flows") == ["a.hera", "a.stats.txt"]


def test_flags_beat_workspace_config(capture, tmp_path, monkeypatch):
    conf = tmp_path / "ws.conf"
    conf.write_text("interval = 30\n", encoding="utf-8")
    monkeypatch.setenv("HERA_WORKSPACE", str(conf))
    out = tmp_path / "flows"
    assert main(["export", "--pcap", str(capture), "--interval", "45",
                 "--out", str(out)]) == 0
    assert read_hera(out / "a.hera").header.config.interval_us == 45 * SEC


def test_broken_workspace_config_is_usage_error(capture, tmp_path, monkeypatch):
    conf = tmp_path / "ws.conf"
    conf.write_text("interval 30\n", encoding="utf-8")
    monkeypatch.setenv("HERA_WORKSPACE", str(conf))
    assert main(["export", "--pcap", str(capture),
                 "--out", str(tmp_path / "flows")]) == 1


LONG_VALUE = "z" * 100_000


# A usage error quotes at most the first 200 characters of a bad value.
@pytest.mark.parametrize("config, flags", [
    (f"features = {LONG_VALUE}", []),
    (LONG_VALUE, []),
    ("", ["--count-window", LONG_VALUE]),
    (f"keep_management = {LONG_VALUE}", []),
    ("", ["--count-window", "1.5" + "0" * 100_000]),
], ids=["unknown-feature", "config-line-without-equals", "not-a-number", "not-a-boolean",
        "not-a-whole-number"])
def test_a_long_bad_setting_is_a_usage_error_quoted_in_short(
        tmp_path, monkeypatch, capsys, config, flags):
    hera = exported(tmp_path)
    conf = tmp_path / "ws.conf"
    conf.write_text(config + "\n", encoding="utf-8")
    monkeypatch.setenv("HERA_WORKSPACE", str(conf))
    assert main(["dataset", "--in", str(hera), "--out", str(tmp_path / "csv"), *flags]) == 1
    err = capsys.readouterr().err
    assert len(err.encode()) < 400 and "characters)" in err, err


# -- the cyclic garbage collector ----------------------------------------------


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collecting(request):
    """The collector enabled or disabled for the test, as it was after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_commands_leave_the_collector_as_they_found_it(tmp_path, collecting):
    """`export`, `dataset` and `run` pause the collector while they build
    flow records, and re-enable it only if it was enabled, on success and
    on malformed input alike."""
    capture = sample_capture(tmp_path / "a.pcap")
    (tmp_path / "cut.pcap").write_bytes(capture.read_bytes()[:-5])
    gt = write_gt(tmp_path / "gt.csv")
    flows = tmp_path / "flows"
    corrupt = tmp_path / "corrupt.hera"
    commands = [
        (["export", "--pcap", str(capture), "--out", str(flows)], 0),
        (["dataset", "--in", str(flows / "a.hera"), "--out", str(tmp_path / "csv")], 0),
        (["run", "--pcap", str(capture), "--gt", str(gt), "--flows-dir", str(tmp_path / "f"),
          "--csv-dir", str(tmp_path / "c")], 0),
        (["export", "--pcap", str(tmp_path / "cut.pcap"), "--out", str(tmp_path / "x")], 2),
        (["dataset", "--in", str(corrupt), "--out", str(tmp_path / "x")], 2),
        (["run", "--pcap", str(tmp_path / "cut.pcap"), "--flows-dir", str(tmp_path / "x"),
          "--csv-dir", str(tmp_path / "y")], 2),
    ]
    for argv, code in commands:
        if argv[0] == "dataset" and code:  # a field repeated on its last line
            corrupt.write_text((flows / "a.hera").read_text(encoding="utf-8")[:-1]
                               + " frag=0\n", encoding="utf-8")
        assert main(argv) == code, argv
        assert gc.isenabled() is collecting, argv


def test_library_functions_leave_the_collector_alone(tmp_path, monkeypatch):
    capture = sample_capture(tmp_path / "a.pcap")
    hera = exported(tmp_path)
    calls = []
    for name in ("disable", "enable", "freeze", "unfreeze", "collect"):
        monkeypatch.setattr(gc, name, lambda *args, name=name: calls.append(name))
    _, records, _ = cli.export_capture(capture, ExportConfig())
    assert read_hera(hera).records and records
    assert calls == []
