"""Command-line interface.

Four subcommands cover the pipeline: `export` turns PCAPs into .hera
flow files, `dataset` turns flow files into CSV datasets, `label`
applies a ground truth to datasets, and `run` chains all three. Outputs
are staged to temporary files and renamed into place only when the
command succeeds, so a failure never leaves half-written artifacts, and
nothing is overwritten without --force.

Exit codes: 0 success, 1 usage error, 2 malformed input, 3 IO error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import glob
import logging
import os
import sys
from pathlib import Path

from .dataset import (
    DEFAULT_COUNT_WINDOW,
    MODES,
    build_dataset,
    compute_stats,
    read_csv,
    write_csv,
    write_stats,
)
from .errors import HeraError, UnknownFeature, UsageError
from .features import PRESETS, select_feature_set
from .flows import ExportConfig, FlowTable
from .herafile import HeraHeader, read_hera, write_hera
from .labelling import (
    DEFAULT_BENIGN_LABEL,
    label_dataset,
    parse_ground_truth,
    write_label_summary,
)
from .pcap import open_capture
from .timefmt import seconds_to_us
from .workspace import Settings, load_workspace

log = logging.getLogger("hera")


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems through our exit-code map."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="hera", description=__doc__.split("\n\n")[0])
    parser.add_argument("--verbose", action="store_true", help="log progress")
    sub = parser.add_subparsers(dest="command")

    export = sub.add_parser("export", help="PCAP -> .hera flow files")
    _add_export_flags(export)
    export.add_argument("--out", help="directory for .hera and stats files")

    dataset = sub.add_parser("dataset", help=".hera -> CSV dataset")
    dataset.add_argument("--in", dest="inputs", action="append",
                         help="flow file or glob (repeatable)")
    dataset.add_argument("--out", help="directory for CSV and stats files")
    _add_dataset_flags(dataset)

    label = sub.add_parser("label", help="apply a ground truth to CSV datasets")
    label.add_argument("--in", dest="inputs", action="append",
                       help="dataset CSV or glob (repeatable)")
    label.add_argument("--out", help="directory for labelled outputs "
                                     "(default: alongside each input)")
    _add_label_flags(label)

    run = sub.add_parser("run", help="export + dataset [+ label] in one go")
    _add_export_flags(run)
    run.add_argument("--flows-dir", dest="flows_dir", help="directory for .hera files")
    run.add_argument("--csv-dir", dest="csv_dir", help="directory for CSV files")
    _add_dataset_flags(run)
    _add_label_flags(run)

    for cmd in (export, dataset, label, run):
        cmd.add_argument("--force", action="store_true", default=None,
                         help="overwrite existing output files")
    return parser


def _add_export_flags(cmd) -> None:
    cmd.add_argument("--pcap", action="append", help="capture file or glob (repeatable)")
    cmd.add_argument("--interval", help="flow slicing interval in seconds (default 60)")
    cmd.add_argument("--idle-timeout", dest="idle_timeout",
                     help="idle seconds before a flow is closed (default: interval)")
    cmd.add_argument("--slack", dest="reorder_slack",
                     help="tolerated backwards timestamp jitter in seconds (default 1)")
    cmd.add_argument("--no-management", dest="no_management", action="store_true",
                     default=None, help="do not emit management records")
    cmd.add_argument("--jobs", help="process up to N input files concurrently")


def _add_dataset_flags(cmd) -> None:
    cmd.add_argument("--features",
                     help="default|all|unsw-nb15|bot-iot|cic-ids2017 or name,name,...")
    cmd.add_argument("--mode", choices=MODES, default=None,
                     help="ra: one row per record; racluster: merge per flow key")
    cmd.add_argument("--keep-management", dest="keep_management", action="store_true",
                     default=None, help="keep management records in the dataset")
    cmd.add_argument("--count-window", dest="count_window",
                     help=f"window for Ssaddr/Sdaddr (default {DEFAULT_COUNT_WINDOW})")


def _add_label_flags(cmd) -> None:
    cmd.add_argument("--gt", dest="ground_truth", help="ground-truth CSV")
    cmd.add_argument("--benign-label", dest="benign_label",
                     help=f"label for unmatched rows (default {DEFAULT_BENIGN_LABEL!r})")
    cmd.add_argument("--bidirectional", action="store_true", default=None,
                     help="match ground-truth entries in either direction")


# -- staged output -----------------------------------------------------


class OutputStage:
    """Write to .part files, rename into place only on commit."""

    def __init__(self, force: bool):
        self.force = force
        self._pairs: list[tuple[Path, Path]] = []

    def target(self, final: Path) -> Path:
        if final.exists() and not self.force:
            raise FileExistsError(
                f"{final} already exists; pass --force to overwrite")
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = final.with_name(final.name + ".part")
        self._pairs.append((tmp, final))
        return tmp

    def commit(self) -> list[Path]:
        for tmp, final in self._pairs:
            os.replace(tmp, final)
        finals = [final for _, final in self._pairs]
        self._pairs.clear()
        return finals

    def abort(self) -> None:
        for tmp, _ in self._pairs:
            try:
                tmp.unlink()
            except FileNotFoundError:
                pass
        self._pairs.clear()


# -- shared helpers ----------------------------------------------------


def _expand_inputs(patterns, flag: str) -> list[Path]:
    if not patterns:
        raise UsageError(f"no input files: pass {flag} at least once")
    paths: list[Path] = []
    for pattern in patterns:
        matches = sorted(glob.glob(pattern))
        if matches:
            paths.extend(Path(m) for m in matches)
        else:
            paths.append(Path(pattern))
    stems = {}
    for path in paths:
        other = stems.setdefault(path.stem, path)
        if other != path:
            raise UsageError(
                f"inputs {other} and {path} would both produce outputs "
                f"named {path.stem!r}")
    return paths


def _positive_seconds(value: float, flag: str) -> int:
    if value <= 0:
        raise UsageError(f"{flag} must be a positive number of seconds")
    return seconds_to_us(value)


def _export_config(settings: Settings, args) -> ExportConfig:
    interval_us = _positive_seconds(settings.number("interval", 60.0), "--interval")
    idle = settings.number("idle_timeout", 0.0)
    idle_us = _positive_seconds(idle, "--idle-timeout") if idle else None
    slack = settings.number("reorder_slack", 1.0)
    if slack < 0:
        raise UsageError("--slack must not be negative")
    if getattr(args, "no_management", None):
        emit_management = False
    else:
        emit_management = settings.flag("emit_management", True)
    return ExportConfig(
        interval_us=interval_us,
        idle_timeout_us=idle_us,
        emit_management=emit_management,
        reorder_slack_us=seconds_to_us(slack),
    )


def _feature_selection(text: str | None):
    if text is None:
        return "default"
    cleaned = text.strip()
    preset_key = cleaned.lower().replace("-", "_")
    if preset_key in PRESETS:
        return preset_key
    return [name.strip() for name in cleaned.split(",") if name.strip()]


def _dataset_options(settings: Settings) -> tuple[list[str], str, int, bool]:
    """The validated (feature names, mode, count window, keep management)."""
    feature_names = select_feature_set(_feature_selection(settings.text("features")))
    mode = settings.text("mode") or "ra"
    if mode not in MODES:
        raise UsageError(f"--mode must be one of {'/'.join(MODES)}")
    count_window = int(settings.number("count_window", DEFAULT_COUNT_WINDOW))
    if count_window < 1:
        raise UsageError("--count-window must be at least 1")
    return feature_names, mode, count_window, settings.flag("keep_management", False)


def _label_options(settings: Settings) -> tuple[str, bool]:
    """The (benign label, bidirectional) pair."""
    benign = settings.text("benign_label") or DEFAULT_BENIGN_LABEL
    return benign, settings.flag("bidirectional", False)


def _jobs(settings: Settings) -> int:
    jobs = int(settings.number("jobs", 1))
    if jobs < 1:
        raise UsageError("--jobs must be at least 1")
    return jobs


def export_capture(pcap_path, config: ExportConfig):
    """Run the flow engine over one capture; returns (header, records, table)."""
    with open_capture(pcap_path) as reader:
        table = FlowTable(config)
        for packet in reader:
            table.assign(packet)
        records = table.flush()
        skipped = sum(reader.skipped.values())
    if skipped or table.skipped_non_monotonic:
        log.info("%s: skipped %d undecodable and %d non-monotonic records",
                 pcap_path, skipped, table.skipped_non_monotonic)
    header = HeraHeader(
        sources=[Path(pcap_path).name],
        config=config,
        capture_start_us=table.first_ts_us,
        capture_end_us=table.last_ts_us,
    )
    return header, records, table


def _export_one(pcap_path: str, hera_tmp: str, stats_tmp: str,
                config: ExportConfig) -> None:
    header, records, _ = export_capture(pcap_path, config)
    write_hera(hera_tmp, header, records)
    write_stats(stats_tmp, compute_stats(records))


def _run_export(pcap_paths, out_dir: Path, config: ExportConfig,
                force: bool, jobs: int) -> list[Path]:
    stage = OutputStage(force)
    try:
        work = []
        for pcap in pcap_paths:
            hera_final = out_dir / (pcap.stem + ".hera")
            stats_final = out_dir / (pcap.stem + ".stats.txt")
            work.append((str(pcap), str(stage.target(hera_final)),
                         str(stage.target(stats_final))))
        if jobs > 1 and len(work) > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = [pool.submit(_export_one, *item, config) for item in work]
                for future in futures:
                    future.result()
        else:
            for item in work:
                _export_one(*item, config)
        finals = stage.commit()
    except BaseException:
        stage.abort()
        raise
    for final in finals:
        log.info("wrote %s", final)
    return [p for p in finals if p.suffix == ".hera"]


def _run_dataset(hera_paths, out_dir: Path, options, force: bool) -> list[Path]:
    feature_names, mode, count_window, keep_management = options
    stage = OutputStage(force)
    try:
        for path in hera_paths:
            flowfile = read_hera(path)
            header, rows, stats = build_dataset(
                flowfile.records, feature_names, mode=mode,
                keep_management=keep_management, count_window=count_window,
            )
            csv_tmp = stage.target(out_dir / (Path(path).stem + ".csv"))
            stats_tmp = stage.target(out_dir / (Path(path).stem + ".stats.txt"))
            write_csv(csv_tmp, header, rows)
            write_stats(stats_tmp, stats)
        finals = stage.commit()
    except BaseException:
        stage.abort()
        raise
    for final in finals:
        log.info("wrote %s", final)
    return [p for p in finals if p.suffix == ".csv"]


def _run_label(csv_paths, gt_path, out_dir, options, force: bool) -> None:
    benign_label, bidirectional = options
    entries = parse_ground_truth(gt_path)
    stage = OutputStage(force)
    try:
        for path in csv_paths:
            path = Path(path)
            header, rows = read_csv(path)
            labelled_header, labelled_rows, summary = label_dataset(
                header, rows, entries, benign_label=benign_label,
                bidirectional=bidirectional,
            )
            target_dir = out_dir if out_dir is not None else path.parent
            csv_tmp = stage.target(target_dir / (path.stem + ".labelled.csv"))
            summary_tmp = stage.target(target_dir / (path.stem + ".labels.txt"))
            write_csv(csv_tmp, labelled_header, labelled_rows)
            write_label_summary(summary_tmp, summary)
        finals = stage.commit()
    except BaseException:
        stage.abort()
        raise
    for final in finals:
        log.info("wrote %s", final)


# -- subcommands -------------------------------------------------------


def cmd_export(args, config) -> None:
    settings = Settings(args, config)
    export_config = _export_config(settings, args)  # validated before any IO
    jobs = _jobs(settings)
    force = settings.flag("force", False)
    pcaps = _expand_inputs(settings.paths("pcap"), "--pcap")
    out_dir = Path(settings.text("out") or settings.text("flows_dir") or ".")
    _run_export(pcaps, out_dir, export_config, force, jobs)


def cmd_dataset(args, config) -> None:
    settings = Settings(args, config)
    options = _dataset_options(settings)
    force = settings.flag("force", False)
    inputs = _expand_inputs(settings.paths("inputs"), "--in")
    out_dir = Path(settings.text("out") or settings.text("csv_dir") or ".")
    _run_dataset(inputs, out_dir, options, force)


def cmd_label(args, config) -> None:
    settings = Settings(args, config)
    gt = settings.text("ground_truth")
    if not gt:
        raise UsageError("no ground truth: pass --gt")
    options = _label_options(settings)
    force = settings.flag("force", False)
    inputs = _expand_inputs(settings.paths("inputs"), "--in")
    out = settings.text("out")
    _run_label(inputs, gt, Path(out) if out else None, options, force)


def cmd_run(args, config) -> None:
    settings = Settings(args, config)
    export_config = _export_config(settings, args)
    dataset_options = _dataset_options(settings)
    label_options = _label_options(settings)
    force = settings.flag("force", False)
    jobs = _jobs(settings)
    pcaps = _expand_inputs(settings.paths("pcap"), "--pcap")
    flows_dir = Path(settings.text("flows_dir") or "flows")
    csv_dir = Path(settings.text("csv_dir") or "csv")
    gt = settings.text("ground_truth")

    hera_paths = _run_export(pcaps, flows_dir, export_config, force, jobs)
    csv_paths = _run_dataset(hera_paths, csv_dir, dataset_options, force)
    if gt:
        _run_label(csv_paths, gt, csv_dir, label_options, force)


COMMANDS = {
    "export": cmd_export,
    "dataset": cmd_dataset,
    "label": cmd_label,
    "run": cmd_run,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(message)s",
        )
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        config = load_workspace()
        COMMANDS[args.command](args, config)
        return 0
    except (UsageError, UnknownFeature) as exc:
        print(f"hera: {exc}", file=sys.stderr)
        return 1
    except HeraError as exc:
        print(f"hera: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"hera: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
