"""Command-line interface.

Four subcommands cover the pipeline: `export` turns PCAPs into .hera
flow files, `dataset` turns flow files into CSV datasets, `label`
applies a ground truth to datasets, and `run` chains all three. Each
stage is one step per file that writes the stage's outputs and hands
on what the next step takes: the stand-alone commands read it back from
the files, `run` hands it over in memory, the records whole and the
dataset rows one at a time. A command claims all of its
outputs before any work, stages them to temporary files and renames
them into place only when it succeeds: a failure, even of a rename,
leaves nothing behind but an output that replaced an old file under
--force, and nothing is overwritten without --force.

Each command imports only the modules it runs, stage modules and
standard library alike: building the parser loads no stage module, and
no command loads `dataclasses`, `logging` or `concurrent.futures` (the
last only for --jobs over several inputs). Under --verbose each per-file
step prints one `INFO` line to stderr with its wall seconds and counts,
and each output renamed into place one `INFO wrote` line; no output
file changes.

Exit codes: 0 success, 1 usage error, 2 malformed input, 3 IO error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import glob
import os
import sys
import time
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import HeraError, UsageError, excerpt
from .timefmt import seconds_to_us
from .workspace import DEFAULT_BENIGN_LABEL, DEFAULT_COUNT_WINDOW, Settings, load_workspace

if TYPE_CHECKING:
    from .flows import ExportConfig
    from .labelling import LabelSummary

class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems through our exit-code map and
    records each option's flag by its destination in `flags`, a dict it
    shares with its subcommands' parsers."""

    def __init__(self, *args, flags: dict[str, str] | None = None, **kwargs):
        self.flags = {} if flags is None else flags
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.option_strings:
            self.flags.setdefault(action.dest, action.option_strings[0])
        return action

    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="hera", description=__doc__.split("\n\n")[0])
    parser.add_argument("--verbose", action="store_true", help="log progress")
    sub = parser.add_subparsers(
        dest="command", parser_class=functools.partial(_Parser, flags=parser.flags))

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
    cmd.add_argument("--mode",
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
    """Claim output paths up front, have them written as .part files, and
    rename them all into place when the `with` block ends without an
    error, logging each under `verbose`. On an error, even a rename's,
    delete the .part files, the outputs renamed that were new when
    claimed and the directories made for them that are left empty. A
    cleanup that fails leaves its path as it is, so that the error that
    ended the block is the one reported."""

    def __init__(self, force: bool, verbose: bool):
        self.force = force
        self.verbose = verbose
        self._pairs: dict[Path, Path] = {}
        self._new: set[Path] = set()  # outputs that did not exist when claimed
        self._made: list[Path] = []

    def claim(self, directory: Path, stem: str, *suffixes: str) -> list[Path]:
        """The .part paths standing in for `stem + suffix` in `directory`."""
        for suffix in suffixes:
            final = directory / (stem + suffix)
            if final.is_dir():
                raise IsADirectoryError(f"{final} is a directory; an output file cannot "
                                        "replace it")
            if not final.exists():
                self._new.add(final)
            elif not self.force:
                raise FileExistsError(f"{final} already exists; pass --force to overwrite")
            if final in self._pairs:
                raise UsageError(f"two outputs would be written to {final}")
            self._pairs[final] = final.with_name(final.name + ".part")
        self._made += [d for d in (directory, *directory.parents) if not d.exists()]
        directory.mkdir(parents=True, exist_ok=True)
        return [self._pairs[directory / (stem + suffix)] for suffix in suffixes]

    def __enter__(self) -> "OutputStage":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        renamed = []
        try:
            if exc_type is None:
                for final, tmp in self._pairs.items():
                    os.replace(tmp, final)
                    renamed.append(final)
                for final in renamed:
                    _log(self.verbose, f"wrote {final}")
                renamed.clear()
                self._made.clear()
        finally:  # undo whatever a failure left
            for path in (*self._pairs.values(), *self._new.intersection(renamed)):
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
            for directory in sorted(self._made, key=lambda d: len(d.parts), reverse=True):
                try:
                    directory.rmdir()
                except OSError:  # not empty: a file it holds could not be removed
                    pass


# -- shared helpers ----------------------------------------------------


def _expand_inputs(patterns, flag: str) -> list[Path]:
    if not patterns:
        raise UsageError(f"no input files: pass {flag} at least once")
    # A pattern that matches no file is its own path, for the open to report.
    paths = [Path(p) for pattern in patterns for p in sorted(glob.glob(pattern)) or [pattern]]
    stems = {}
    for path in paths:
        other = stems.setdefault(path.stem, path)
        if other != path:
            raise UsageError(f"inputs {other} and {path} would both produce outputs "
                             f"named {path.stem!r}")
    return paths


def _export_config(settings: Settings) -> ExportConfig:
    """The export settings; a time that no flag or workspace key sets
    keeps ExportConfig's default. ExportConfig checks each time, and its
    error names the flag or workspace key that set it."""
    from .flows import ExportConfig
    times = {f"{name}_us": seconds_to_us(seconds)
             for name in ("idle_timeout", "interval", "reorder_slack")
             if (seconds := settings.number(name, None)) is not None}
    try:
        return ExportConfig(emit_management=not settings.flag("no_management", False), **times)
    except ValueError as exc:
        name, _, reason = str(exc).partition(" ")
        raise UsageError(f"{settings.origin(name)} {reason}") from None


def _dataset_options(settings: Settings) -> dict:
    """The validated keyword arguments of `dataset_rows`. The selection's
    row kernel is compiled here, before any record is read or made, so
    the compile's own peak does not add to the records' (`dataset_rows`
    takes it from `row_kernel`'s cache)."""
    from .dataset import MODES
    from .features import row_kernel, select_feature_set
    feature_names = select_feature_set(settings.text("features", "default"))
    mode = settings.text("mode") or "ra"
    if mode not in MODES:
        raise UsageError(f"{settings.origin('mode')} must be one of {'/'.join(MODES)}")
    count_window = _count(settings, "count_window", DEFAULT_COUNT_WINDOW)
    row_kernel(tuple(feature_names))
    return dict(feature_names=feature_names, mode=mode, count_window=count_window,
                keep_management=settings.flag("keep_management", False))


def _label_options(settings: Settings) -> dict:
    """The keyword arguments of `labelled_rows` that settings give."""
    return dict(benign_label=settings.text("benign_label") or DEFAULT_BENIGN_LABEL,
                bidirectional=settings.flag("bidirectional", False))


def _count(settings: Settings, name: str, default: int) -> int:
    """A setting that must be a whole number of at least 1."""
    number = settings.number(name, default)
    if number != int(number):
        raise UsageError(f"{settings.origin(name)} expects a whole number, "
                         f"got {excerpt(settings.text(name))}")
    if number < 1:
        raise UsageError(f"{settings.origin(name)} must be at least 1")
    return int(number)


def export_capture(pcap_path, config: ExportConfig, skipped: Counter | None = None):
    """Run the flow engine over one capture; returns (header, records, table).
    `skipped`, if given, is updated with the capture's undecodable records
    by reason."""
    from .flows import FlowTable
    from .herafile import HeraHeader
    from .pcap import open_capture
    with open_capture(pcap_path) as reader:
        table = FlowTable(config)
        for packet in reader:
            table.assign(packet)
        records = table.flush()
        if skipped is not None:
            skipped.update(reader.skipped)
    header = HeraHeader(
        sources=[Path(pcap_path).name],
        config=config,
        capture_start_us=table.first_ts_us,
        capture_end_us=table.last_ts_us,
    )
    return header, records, table


# -- per-file steps: each writes its stage's two outputs and, under
# `verbose`, logs one line; given a ground truth, the dataset step runs
# the label step in the same pass. Export returns the records; rows go
# from step to step as iterators and are written as they come. `name` is
# the file the step works on; `started` is when it began, before its
# input was read if it reads one.


def _log(verbose: bool, message: str) -> None:
    """Under --verbose, the message as one `INFO` line on stderr, in one
    write: stderr is unbuffered, and print() would write the line feed
    apart, so a `--jobs` worker's line could be split by another's."""
    if verbose:
        sys.stderr.write(f"INFO {message}\n")
        sys.stderr.flush()


def _log_step(verbose: bool, step: str, name, started: float, counts: str) -> None:
    _log(verbose, f"{step} {name}: {counts}, {time.perf_counter() - started:.3f} s")


def _export_step(pcap, config: ExportConfig, hera_path, stats_path, verbose: bool) -> list:
    from .dataset import compute_stats, write_stats
    from .herafile import write_hera
    started = time.perf_counter()
    skipped = Counter()
    header, records, table = _kept(export_capture, pcap, config, skipped)
    write_hera(hera_path, header, records)
    write_stats(stats_path, compute_stats(records))
    reasons = ", ".join(f"{reason} {count}" for reason, count in sorted(skipped.items()))
    _log_step(verbose, "export", pcap, started,
              f"{table.accepted_packets + table.skipped_non_monotonic} packets decoded, "
              f"{sum(skipped.values())} skipped{f' ({reasons})' if reasons else ''}, "
              f"{table.skipped_non_monotonic} non-monotonic, {len(records)} records")
    return records


def _dataset_step(name, started, records, options, paths, verbose: bool,
                  ground_truth=None, label_options=None) -> None:
    """Build the rows and write each to the CSV as it comes. Given a
    ground truth, each written row goes on to `_label_step` in the same
    pass with the line just written, so both log lines give that pass's
    time. `paths` are the CSV and stats paths, then with a ground truth
    the labelled CSV and summary."""
    from .dataset import csv_rows, dataset_rows, write_stats
    csv_path, stats_path, *label_paths = paths
    header, rows, stats = dataset_rows(records, **options)
    with csv_rows(csv_path, header) as write_row:
        # No record value holds a line break, so each row is one line.
        rows = ((row, write_row(row), number) for number, row in enumerate(rows, start=2))
        if ground_truth is None:
            count = sum(1 for _ in rows)
        else:
            summary = _label_step(csv_path, header, rows, ground_truth, label_options,
                                  *label_paths)
            count = summary.total
    write_stats(stats_path, stats)
    _log_step(verbose, "dataset", name, started, f"{len(records)} records in, {count} rows out")
    if ground_truth is not None:
        _log_label_step(verbose, name, started, summary)


def _label_step(source, header, rows, ground_truth, options, csv_path,
                summary_path) -> LabelSummary:
    """Label the rows, (cells, line, line number) from the CSV at
    `source`, and write each line with its label as it comes; returns
    the summary, which it writes too, for the caller to log."""
    from .labelling import write_label_summary, write_labelled
    summary = write_labelled(csv_path, header, rows, ground_truth, source=source, **options)
    write_label_summary(summary_path, summary)
    return summary


def _log_label_step(verbose: bool, name, started, summary) -> None:
    _log_step(verbose, "label", name, started,
              f"{summary.total} rows, {summary.malicious} malicious")


def _capture_chain(pcap, paths, export_config, dataset_options=None,
                   label_options=None, ground_truth=None, verbose=False) -> None:
    """Export one capture and, given dataset options, go on to the dataset
    step, and the label step with it, in memory. Returns nothing: a worker
    sends no records or rows back, and logs its own lines."""
    records = _export_step(pcap, export_config, *paths[:2], verbose)
    if dataset_options is not None:
        _dataset_step(pcap, time.perf_counter(), records, dataset_options, paths[2:],
                      verbose, ground_truth, label_options)


_worker_chain = None  # in a worker process: the chain its pool was started with


def _start_worker(chain) -> None:
    global _worker_chain
    _worker_chain = chain


def _run_in_worker(pcap, paths) -> None:
    _worker_chain(pcap, paths)


def _for_each_capture(jobs: int, chain, pcaps, paths) -> None:
    """chain(pcap, its paths) for each capture, in up to `jobs` processes.
    Each worker gets the chain, with its options, verbosity and indexed
    ground truth, once, when it starts."""
    if jobs > 1 and len(pcaps) > 1:
        from concurrent.futures import ProcessPoolExecutor
        workers = min(jobs, len(pcaps))
        with ProcessPoolExecutor(
                max_workers=workers, initializer=_start_worker, initargs=(chain,)) as pool:
            list(pool.map(_run_in_worker, pcaps, paths))
    else:
        list(map(chain, pcaps, paths))


def _kept(build, *args):
    """build(*args), kept out of the cyclic garbage collector's work for
    the rest of the process. What a command builds this way (flow
    records, an indexed ground truth) holds no reference cycle and lives
    until its step or the command ends, so the collector is paused while
    it is built, then left as it was found, and everything alive is
    frozen (`gc.freeze`): no later collection scans it, not even the one
    at exit, nor writes to its pages in a forked `--jobs` worker."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        built = build(*args)
    finally:
        if collecting:
            gc.enable()
    gc.freeze()
    return built


# -- subcommands -------------------------------------------------------


def cmd_export(args, settings: Settings) -> None:
    export_config = _export_config(settings)  # validated before any IO
    jobs = _count(settings, "jobs", 1)
    pcaps = _expand_inputs(settings.paths("pcap"), "--pcap")
    out_dir = Path(settings.text("out") or settings.text("flows_dir") or ".")
    with OutputStage(settings.flag("force", False), args.verbose) as stage:
        paths = [stage.claim(out_dir, pcap.stem, ".hera", ".stats.txt") for pcap in pcaps]
        chain = functools.partial(_capture_chain, export_config=export_config,
                                  verbose=args.verbose)
        _for_each_capture(jobs, chain, pcaps, paths)


def cmd_dataset(args, settings: Settings) -> None:
    from .herafile import read_hera
    options = _dataset_options(settings)
    inputs = _expand_inputs(settings.paths("inputs"), "--in")
    out_dir = Path(settings.text("out") or settings.text("csv_dir") or ".")
    with OutputStage(settings.flag("force", False), args.verbose) as stage:
        paths = [stage.claim(out_dir, path.stem, ".csv", ".stats.txt") for path in inputs]
        for path, targets in zip(inputs, paths):
            started = time.perf_counter()
            _dataset_step(path, started, _kept(read_hera, path).records, options, targets,
                          args.verbose)


def cmd_label(args, settings: Settings) -> None:
    from .dataset import iter_csv
    from .labelling import match_width, parse_ground_truth
    gt = settings.text("ground_truth")
    if not gt:
        raise UsageError("no ground truth: pass --gt")
    options = _label_options(settings)
    inputs = _expand_inputs(settings.paths("inputs"), "--in")
    out = settings.text("out")
    with OutputStage(settings.flag("force", False), args.verbose) as stage:
        paths = [stage.claim(Path(out) if out else path.parent, path.stem,
                             ".labelled.csv", ".labels.txt") for path in inputs]
        ground_truth = _kept(parse_ground_truth, gt)
        for path, targets in zip(inputs, paths):
            started = time.perf_counter()
            rows = iter_csv(path, match_width)
            header = next(rows, ([],))[0]
            summary = _label_step(path, header, rows, ground_truth, options, *targets)
            _log_label_step(args.verbose, path, started, summary)


def cmd_run(args, settings: Settings) -> None:
    gt = settings.text("ground_truth")
    chain_options = dict(export_config=_export_config(settings),
                         dataset_options=_dataset_options(settings),
                         label_options=_label_options(settings), verbose=args.verbose)
    jobs = _count(settings, "jobs", 1)
    pcaps = _expand_inputs(settings.paths("pcap"), "--pcap")
    flows_dir = Path(settings.text("flows_dir") or "flows")
    csv_dir = Path(settings.text("csv_dir") or "csv")
    csv_suffixes = (".csv", ".stats.txt") + ((".labelled.csv", ".labels.txt") if gt else ())
    # One stage for all captures' outputs
    with OutputStage(settings.flag("force", False), args.verbose) as stage:
        paths = [stage.claim(flows_dir, pcap.stem, ".hera", ".stats.txt")
                 + stage.claim(csv_dir, pcap.stem, *csv_suffixes) for pcap in pcaps]
        if gt:  # parsed once, before the first capture
            from .labelling import parse_ground_truth
            chain_options["ground_truth"] = _kept(parse_ground_truth, gt)
        _for_each_capture(jobs, functools.partial(_capture_chain, **chain_options), pcaps, paths)


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
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        config = load_workspace()
        for key in config:  # a workspace key is a flag's key, and sets no other
            if key not in parser.flags or key in ("help", "verbose"):
                raise UsageError(f"unknown config key {excerpt(key)}")
        settings = Settings(args, config, parser.flags)
        COMMANDS[args.command](args, settings)
        return 0
    except UsageError as exc:
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
