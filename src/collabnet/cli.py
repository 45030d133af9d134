"""Command-line driver: synth, ingest, stats and build subcommands.

build runs the whole pipeline on one input file: parse, aggregate, optional
type filter, linkage table, threshold sweep, per-layer metric reports,
layer exports, feature statistics and a manifest with content hashes.
Outputs are deterministic: the same input bytes and flags always produce a
byte-identical artifact set. Each artifact is handed to a writer thread as
soon as it is made, which writes it to a temporary file and hashes it while
the main thread measures and renders the next layer, so at most two
documents are held at a time, the one being written and the one being
built; the files are renamed into place together, manifest last, once all
are written, and any failure removes the temporary files instead. Every
command that reads a table parses and aggregates it the same way: ingest,
stats and build report each over-limit project as one stderr line, and
ingest and build under ``--lenient`` each skipped row.
Exit codes: 0 success, 1 input/data error (an input too large for memory
too), 2 configuration error, 130 interrupted (SIGINT, Ctrl-C), 143
terminated (SIGTERM); a signal is reported as one stderr line, once the
run's temporary files and the directories it made are removed.

The ``collabnet`` script and ``python -m collabnet.cli`` run :func:`entry`,
which freezes the import-time objects out of the cyclic collector
(``gc.freeze``) before :func:`main`, so no collection walks them, the one at
exit included, and turns SIGTERM into an exception, as Python does SIGINT;
:func:`main` in process leaves the collector and the signal handlers alone.
Only the synth command imports :mod:`collabnet.synth`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import signal
import sys
import threading
from dataclasses import dataclass, fields
from itertools import takewhile
from pathlib import Path

from . import __version__
from . import export, ingest, layers, linkage, metrics, stats
from .ingest import IngestError, ProjectType

__all__ = ["RunConfig", "ConfigError", "run_pipeline", "main", "entry"]

OUTPUT_DIR_ENV = "COLLABNET_OUT"
EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_INTERRUPTED = 128 + signal.SIGINT
EXIT_TERMINATED = 128 + signal.SIGTERM
# the largest --bins value and layer count accepted: each bin is a histogram
# row and each --thresholds value or --linspace point a layer, all held or
# written by one run
MAX_BINS = 10_000
MAX_LAYERS = 1_000


class ConfigError(Exception):
    """Invalid flag combination or option value."""


class _Terminated(BaseException):
    """The SIGTERM that :func:`entry` raises in the main thread; like
    ``KeyboardInterrupt``, no ``except Exception`` catches it."""


@dataclass
class RunConfig:
    """Everything one build run needs; exactly one threshold source is set.
    Every value is checked when the config is made, before any input is read;
    ``thresholds`` must form a sweep and is kept as the sweep normalizes it."""

    input_path: str
    output_dir: Path
    thresholds: tuple[float, ...] | None = None
    linspace: int | None = None
    type_filter: frozenset[ProjectType] | None = None
    export_format: export.ExportFormat = export.ExportFormat.GRAPHML
    include_isolated: bool = True
    strict: bool = False
    lenient: bool = False
    delimiter: str = ","
    n_bins: int = stats.DEFAULT_BINS
    dump_linkage: bool = False

    def __post_init__(self) -> None:
        if (self.thresholds is None) == (self.linspace is None):
            raise ConfigError("exactly one of thresholds or linspace must be given")
        if self.thresholds is not None:
            if len(self.thresholds) > MAX_LAYERS:
                raise ConfigError(
                    f"thresholds must list at most {MAX_LAYERS} values, got {len(self.thresholds)}"
                )
            try:
                self.thresholds = layers.make_sweep_explicit(self.thresholds).thresholds
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if self.linspace is not None and self.linspace < 2:
            raise ConfigError("linspace needs at least 2 points")
        if self.linspace is not None and self.linspace > MAX_LAYERS:
            raise ConfigError(f"linspace must be at most {MAX_LAYERS} points, got {self.linspace}")
        if not 1 <= self.n_bins <= MAX_BINS:
            raise ConfigError(f"n_bins must be from 1 to {MAX_BINS}, got {self.n_bins}")
        if self.type_filter is not None and not self.type_filter:
            raise ConfigError("type filter must name at least one project type")


def _read_input_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _load(data: bytes, delimiter: str, lenient: bool, strict: bool) -> ingest.RecordTable:
    """Parse and aggregate the input. Under ``lenient``, report each skipped
    row on stderr; unless ``strict``, report each project whose
    contributions sum above the limit there too, instead of failing."""
    skipped: list[ingest.RowError] | None = [] if lenient else None
    records = ingest.parse_records(data, delimiter=delimiter, skipped=skipped)
    for err in skipped or ():
        print(f"skipped {err}", file=sys.stderr)
    if not records:
        raise IngestError("input contains no data rows")
    over: list[ingest.ContributionSumError] | None = None if strict else []
    records = ingest.aggregate(records, over=over)
    for err in over or ():
        print(f"warning: {err}", file=sys.stderr)
    return records


def _stats_artifacts(records: ingest.RecordTable, n_bins: int) -> dict[str, bytes]:
    artifacts: dict[str, bytes] = {}
    notes: dict[str, str] = {}
    contribution = stats.summarize(records, stats.Feature.CONTRIBUTION_PCT, n_bins)
    summaries = [contribution]
    artifacts["stats_contribution_pct.csv"] = stats.histogram_csv_bytes(contribution)
    try:
        ic = stats.summarize(records, stats.Feature.IC_SCORE, n_bins)
    except stats.FeatureAbsentError:
        notes["ic_score"] = "absent from dataset; summary skipped"
    else:
        summaries.append(ic)
        artifacts["stats_ic_score.csv"] = stats.histogram_csv_bytes(ic)
        broader = stats.select_linkage_feature(contribution, ic)
        notes["broader_range_feature"] = broader.value
        notes["linkage_feature"] = stats.Feature.CONTRIBUTION_PCT.value
    artifacts["stats_summary.json"] = stats.summaries_to_json_bytes(summaries, notes=notes)
    return artifacts


def _layer_filename(index: int, layer: layers.NetworkLayer, fmt: export.ExportFormat) -> str:
    return f"layer_{index:02d}_t{layers.threshold_label(layer.threshold)}.{fmt.value}"


class _Artifacts:
    """Writes artifacts to temporary files in ``out_dir`` as they are made,
    keeping only each one's sha256, then renames them into place; owns the
    directory's manifest.

    Making it checks that ``out_dir`` can be a directory, so make it before
    any work; then use it as a context manager. The directory, and any
    missing parent, is made at the first write.
    Each write hands its bytes to a writer thread, which writes the
    temporary file and hashes it while the caller goes on; a write first
    waits for the one before it, so one is in flight at a time, and a
    writer's failure is raised on the calling thread at that wait, or at
    :meth:`digests` or the exit.
    The exit waits for the writer on every path, then a clean exit renames
    every file in name order, ``manifest.json`` last, and removes the files
    the earlier manifest listed and this one does not. A run without a
    manifest refuses, before renaming anything, to replace a file the
    earlier manifest lists, as that would leave it wrong.
    Any exception removes every temporary file, so no earlier output changes,
    and then each directory the run made, deepest first, while it is empty.
    A file or directory that cannot be removed stays and keeps no other
    from going, and the run's own exception is the one raised.
    """

    MANIFEST = "manifest.json"

    def __init__(self, out_dir: Path) -> None:
        # the nearest of out_dir and its parents that exists must be a directory
        existing = next(p for p in (out_dir, *out_dir.parents) if os.path.lexists(p))
        if not existing.is_dir():
            raise ConfigError(f"output directory {out_dir}: {existing} is not a directory")
        self.out_dir = out_dir
        self._hashes: dict[str, str] = {}
        self._temps: dict[str, Path] = {}
        self._made: list[Path] = []  # the directories write made, parents first
        self._writer: threading.Thread | None = None
        self._failure: Exception | None = None  # the writer's, until _wait raises it
        self.paths: list[Path] = []
        self._listed: set[str] = set()  # what the directory's collabnet manifest lists
        try:
            manifest = json.loads((out_dir / self.MANIFEST).read_bytes())
            listed = manifest["artifacts"]  # collabnet writes a name -> sha256 object
            if manifest["tool"]["name"] == "collabnet" and isinstance(listed, dict):
                self._listed = {name for name in listed if Path(name).name == name}
        except (OSError, ValueError, TypeError, KeyError):
            pass

    def write(self, name: str, blob: bytes) -> None:
        missing = takewhile(lambda p: not os.path.lexists(p), (self.out_dir, *self.out_dir.parents))
        for directory in reversed(list(missing)):
            directory.mkdir()
            self._made.append(directory)
        temp = self._temps[name] = self.out_dir / f".{name}.{os.getpid()}.tmp"
        self._wait()
        self._writer = threading.Thread(target=self._store, args=(name, temp, blob))
        self._writer.start()

    def _store(self, name: str, temp: Path, blob: bytes) -> None:
        """The writer thread's work: one temporary file and its hash."""
        try:
            temp.write_bytes(blob)
            self._hashes[name] = hashlib.sha256(blob).hexdigest()
        except Exception as exc:  # OSError, MemoryError: the calling thread raises it
            self._failure = exc

    def _wait(self) -> None:
        """Wait for the write in flight, and raise its failure here."""
        if self._writer is not None:
            self._writer.join()
        failure, self._failure = self._failure, None
        if failure is not None:
            raise failure

    def digests(self) -> dict[str, str]:
        """Each artifact's sha256 by name, once every write so far is done."""
        self._wait()
        return dict(self._hashes)

    def __enter__(self) -> _Artifacts:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self._wait()
                self._commit()
        finally:  # a renamed file has left its temporary name: this removes the rest
            if self._writer is not None:  # an exception in flight outranks a write's
                self._writer.join()
            for temp in self._temps.values():
                with contextlib.suppress(OSError):  # one that stays keeps no other
                    temp.unlink(missing_ok=True)
            for directory in reversed(self._made):  # only a failed run leaves one empty
                with contextlib.suppress(OSError):  # not empty
                    directory.rmdir()

    def _commit(self) -> None:
        with_manifest = self.MANIFEST in self._temps
        replaced = sorted(self._listed & self._temps.keys())
        if replaced and not with_manifest:
            raise ConfigError(
                f"{self.out_dir} holds a build whose manifest lists {replaced[0]}; "
                "choose another --output-dir"
            )
        for name in sorted(self._temps, key=lambda n: (n == self.MANIFEST, n)):
            os.replace(self._temps[name], self.out_dir / name)
            self.paths.append(self.out_dir / name)
        if with_manifest:  # remove what the earlier build listed and this one did not write
            for name in sorted(self._listed - self._temps.keys()):
                if (self.out_dir / name).is_file():
                    (self.out_dir / name).unlink()


def run_pipeline(config: RunConfig) -> list[Path]:
    """Run build end to end; returns the paths written (manifest last).

    Each artifact goes to the writer thread as soon as it is made, and only
    its hash is kept (see :class:`_Artifacts`); the manifest is written
    last, from those hashes, once the last of them is in.
    """
    out = _Artifacts(config.output_dir)
    input_bytes = _read_input_bytes(config.input_path)
    records = _load(input_bytes, config.delimiter, config.lenient, config.strict)
    if config.type_filter is not None:
        records = ingest.filter_by_type(records, config.type_filter)
        if not records.n_projects:
            raise IngestError("type filter removed every project")

    table = linkage.build_linkage_table(records)
    if config.thresholds is not None:
        sweep = layers.ThresholdSweep(config.thresholds)
    else:
        sweep = layers.make_sweep_linspace(table, config.linspace)
    stack = layers.build_layer_stack(records, table, sweep)

    with out:
        if config.dump_linkage:  # first, before export's per-stack lines take memory
            out.write("linkage.csv", linkage.table_to_csv_bytes(table))
        reports = []
        for i, layer in enumerate(stack):
            reports.append(metrics.report(layer))
            _, membership = metrics.components(layer)
            visuals = export.assign_visuals(layer, membership)
            out.write(
                _layer_filename(i, layer, config.export_format),
                export.export_layer(
                    layer,
                    visuals,
                    config.export_format,
                    include_isolated=config.include_isolated,
                ),
            )
        out.write("metrics.csv", metrics.reports_to_csv_bytes(reports))
        out.write("metrics.json", metrics.reports_to_json_bytes(reports))
        for name, blob in _stats_artifacts(records, config.n_bins).items():
            out.write(name, blob)

        manifest = {
            "tool": {"name": "collabnet", "version": __version__},
            "input": {
                "path": config.input_path,
                "sha256": hashlib.sha256(input_bytes).hexdigest(),
            },
            "config": {
                "thresholds": list(sweep.thresholds) if config.thresholds else None,
                "linspace": config.linspace,
                "types": sorted(t.value for t in config.type_filter)
                if config.type_filter
                else None,
                "format": config.export_format.value,
                "include_isolated": config.include_isolated,
                "strict": config.strict,
                "lenient": config.lenient,
                "delimiter": config.delimiter,
                "n_bins": config.n_bins,
            },
            "dataset_fingerprint": stack[0].provenance.dataset_fingerprint,
            "artifacts": out.digests(),
        }
        out.write(
            out.MANIFEST,
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )
    return out.paths


def _parse_types(text: str) -> frozenset[ProjectType]:
    try:
        return frozenset(ProjectType.parse(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_thresholds(text: str) -> tuple[float, ...]:
    """The listed numbers, at most ``MAX_LAYERS``; :class:`RunConfig` checks
    that they form a sweep."""
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"unparseable threshold list: {text!r}") from None
    if len(values) > MAX_LAYERS:
        raise ConfigError(f"--thresholds must list at most {MAX_LAYERS} values, got {len(values)}")
    return values


def _parse_count(option: str, text: str, low: int, high: int) -> int:
    """An integer option value from ``low`` to ``high``, checked before
    anything is made from it."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if not low <= value <= high:
        raise ConfigError(f"{option} must be an integer from {low} to {high}, got {text!r}")
    return value


def _parse_bins(text: str) -> int:
    return _parse_count("--bins", text, 1, MAX_BINS)


def _parse_linspace(text: str) -> int:
    return _parse_count("--linspace", text, 2, MAX_LAYERS)


def _parse_delimiter(text: str) -> str:
    if len(text) != 1 or text in '"\r\n':
        raise ConfigError(
            f"--delimiter must be one character, not the quote or a line break, got {text!r}"
        )
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collabnet",
        description="Build and analyze threshold-layered collaboration networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out_dir = Path(os.environ.get(OUTPUT_DIR_ENV, "collabnet_out"))
    # options shared by subcommands, each declared once; dests are RunConfig field names
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("input_path", metavar="input", help="input CSV path, - for stdin")
    source.add_argument("--delimiter", type=_parse_delimiter, default=",")
    checks = argparse.ArgumentParser(add_help=False)
    checks.add_argument("--strict", action="store_true")
    checks.add_argument("--lenient", action="store_true")
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument(
        "--bins",
        dest="n_bins",
        metavar="BINS",
        type=_parse_bins,
        default=stats.DEFAULT_BINS,
        help=f"histogram bins per feature, 1 to {MAX_BINS} (default {stats.DEFAULT_BINS})",
    )
    outputs.add_argument("--output-dir", type=Path, default=out_dir)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--projects", type=int, default=2300)
    p_synth.add_argument("--members", type=int, default=1000)
    p_synth.add_argument("--out", default="-", help="output file, - for stdout")
    p_synth.set_defaults(handler=_cmd_synth)

    p_ingest = sub.add_parser(
        "ingest", parents=[source, checks], help="parse and validate an input CSV"
    )
    p_ingest.set_defaults(handler=_cmd_ingest)
    p_stats = sub.add_parser(
        "stats", parents=[source, outputs], help="write feature statistics files"
    )
    p_stats.set_defaults(handler=_cmd_stats)

    p_build = sub.add_parser(
        "build", parents=[source, checks, outputs], help="run the full layer pipeline"
    )
    p_build.set_defaults(handler=_cmd_build)
    group = p_build.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--thresholds",
        type=_parse_thresholds,
        help=f"comma-separated increasing list of 1 to {MAX_LAYERS} values",
    )
    group.add_argument(
        "--linspace",
        type=_parse_linspace,
        help=f"evenly spaced point count, 2 to {MAX_LAYERS}",
    )
    p_build.add_argument(
        "--types",
        dest="type_filter",
        metavar="TYPES",
        type=_parse_types,
        help="comma-separated project types to keep",
    )
    p_build.add_argument(
        "--format",
        dest="export_format",
        choices=[f.value for f in export.ExportFormat],
        default=export.ExportFormat.GRAPHML.value,
    )
    p_build.add_argument(
        "--include-isolated",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="keep degree-0 nodes in layer exports",
    )
    p_build.add_argument("--dump-linkage", action="store_true")
    return parser


def _cmd_synth(args: argparse.Namespace) -> int:
    from . import synth

    config = synth.SynthConfig(
        seed=args.seed, n_projects=args.projects, n_members=args.members
    )
    try:
        data = synth.generate_csv_bytes(config)
    except ValueError as exc:  # synth reads no data, so only its options can be bad
        raise ConfigError(str(exc)) from None
    if args.out == "-":
        sys.stdout.buffer.write(data)
    else:
        Path(args.out).write_bytes(data)
    return EXIT_OK


def _cmd_ingest(args: argparse.Namespace) -> int:
    data = _read_input_bytes(args.input_path)
    records = _load(data, args.delimiter, args.lenient, args.strict)
    print(f"records: {len(records)}")
    print(f"projects: {records.n_projects}")
    print(f"members: {records.n_members}")
    for name, count in records.type_counts().items():
        print(f"projects[{name}]: {count}")
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    out = _Artifacts(args.output_dir)
    records = _load(_read_input_bytes(args.input_path), args.delimiter, lenient=False, strict=False)
    with out:
        for name, blob in _stats_artifacts(records, args.n_bins).items():
            out.write(name, blob)
    for path in out.paths:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_build(args: argparse.Namespace) -> int:
    values = vars(args) | {"export_format": export.ExportFormat(args.export_format)}
    config = RunConfig(**{field.name: values[field.name] for field in fields(RunConfig)})
    for path in run_pipeline(config):
        print(f"wrote {path}")
    return EXIT_OK


def _join_threshold_values(argv: list[str]) -> list[str]:
    """``--thresholds -5,20`` as ``--thresholds=-5,20``, abbreviated option
    names too: argparse reads a separate value that starts with a minus
    sign, other than a plain negative number, as an option and would
    reject the list."""
    out: list[str] = []
    for arg in argv:
        option = out[-1] if out else ""
        threshold_option = len(option) > 2 and "--thresholds".startswith(option)
        if threshold_option and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    try:
        # option values go through the _parse_* converters, whose
        # ConfigError argparse lets through to here
        argv = _join_threshold_values(sys.argv[1:] if argv is None else argv)
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IngestError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:  # the input is too large for this machine; _Artifacts wrote nothing
        print("error: out of memory while building the output", file=sys.stderr)
        return EXIT_INPUT
    except KeyboardInterrupt:  # _Artifacts removed what the run made
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except _Terminated:
        print("error: terminated", file=sys.stderr)
        return EXIT_TERMINATED


def _terminate(signum, frame) -> None:
    signal.signal(signal.SIGTERM, signal.SIG_IGN)  # a second one waits for the cleanup
    raise _Terminated


def entry() -> None:
    """The process entry: freeze the import-time heap, turn SIGTERM into an
    exception unless the parent ignores it, run :func:`main`, exit."""
    gc.freeze()
    if signal.getsignal(signal.SIGTERM) == signal.SIG_DFL:
        signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())


if __name__ == "__main__":
    entry()
