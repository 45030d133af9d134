"""Command-line driver: synth, ingest, stats and build subcommands.

build runs the whole pipeline on one input file: parse, aggregate, optional
type filter, linkage table, threshold sweep, per-layer metric reports,
layer exports, feature statistics and a manifest with content hashes.
Outputs are deterministic: the same input bytes and flags always produce a
byte-identical artifact set. Each artifact is written into the run's one
staging directory in the output directory and hashed as soon as it is made,
so a process holds at most one document at a time; the files are renamed
into place together, manifest last, once all are written, and any failure
removes the staging directory instead. Every
command that reads a table parses and aggregates it the same way: ingest,
stats and build report each over-limit project as one stderr line, and
ingest and build under ``--lenient`` each skipped row.
Exit codes: 0 success, 1 input/data error (an input too large for memory
too), 2 configuration error, 130 interrupted (SIGINT, Ctrl-C), 143
terminated (SIGTERM); a signal is reported as one stderr line, once the
run's staging directory and the directories it made are removed.

The ``collabnet`` script and ``python -m collabnet.cli`` run this module as
``__main__``, which, before numpy loads, sets ``OPENBLAS_NUM_THREADS=1`` in
the process environment unless the caller set it, so that numpy's OpenBLAS
starts no thread pool that build would never use: its threads exist, at
exit or at a fork, only when the caller asked for them. It then runs
:func:`entry`, which freezes the import-time objects out of the cyclic
collector (``gc.freeze``) before :func:`main`, so no collection walks
them, the one at exit included; turns SIGTERM into an exception, and SIGINT
into one that a second SIGINT does not repeat while the cleanup runs; and,
when the process may run on two or more CPUs, lets a build use a second
one. Such a build, once its layer stack is made, puts its layer indices in
one queue and forks one worker process when its layers are enough work
(:class:`_LayerQueue`).
The parent then pins itself to the first half of its affinity mask and the
worker to the rest: a forked process starts on its parent's CPU, and the
scheduler may keep both there for the whole build. Each process takes the
next layer from the queue as soon as it is free, and
measures, exports, writes and hashes it, the worker into the parent's
staging directory; the parent collects the worker's reports and hashes
through a pipe and writes the rest. A worker's failure is raised in the
parent at its next layer, and any failure or signal there kills and reaps
the worker before the cleanup removes the staging directory, the worker's
files too; a later run sweeps a killed run's (see :class:`_Artifacts`).
:func:`main` in process, like any import of this module, leaves the
environment, the collector and the signal handlers alone, never forks,
and takes the layers in order. Only the synth command imports
:mod:`collabnet.synth`.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import gc
import hashlib
import json
import os
import pickle
import re
import shutil
import signal
import sys
import tempfile
import warnings
from dataclasses import dataclass, fields
from itertools import takewhile
from pathlib import Path
from typing import BinaryIO

# The CLI process asks for one OpenBLAS thread before numpy loads, unless its
# caller chose a count: build calls no BLAS routine. A library import does not.
if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
_NAME_MAX = 255  # NAME_MAX: the longest file name most file systems take, in bytes


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
            # linspace thresholds lie in [0, 100], so only explicit ones can be too long
            for i, t in enumerate(self.thresholds):
                name = _layer_filename(i, t, self.export_format)
                if len(name) > _NAME_MAX:  # ASCII: a byte a character
                    raise ConfigError(
                        f"threshold {t!r} is too large to name a file: its layer file"
                        f" name would be {len(name)} bytes, over {_NAME_MAX}"
                    )
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


def _layer_filename(index: int, threshold: float, fmt: export.ExportFormat) -> str:
    return f"layer_{index:02d}_t{layers.threshold_label(threshold)}.{fmt.value}"


class _Artifacts:
    """Writes artifacts into this run's staging directory in ``out_dir`` as
    they are made, keeping only each one's sha256, then renames them into
    place; owns the directory's manifest.

    Making it checks that ``out_dir`` can be a directory, so make it before
    any work; then use it as a context manager. The directory, and any
    missing parent, is made at the first write, or at :meth:`open`, which
    then opens it, holds a shared ``flock`` on it until the exit, and makes
    a staging directory in it, named ``.collabnet.XXXXXXXX.tmp`` by
    :func:`tempfile.mkdtemp`, so no two runs share one, whatever process,
    container or host they run in: every run that writes there holds the
    lock while it does. A worker forked after :meth:`open` (see
    :class:`_LayerQueue`) writes into the same staging directory and holds
    the lock through the descriptor it inherits; :meth:`adopt` takes the
    worker's hashes.
    Each write writes the staged file and hashes it before it returns,
    and a failed write raises there. A clean exit renames
    every file in name order, ``manifest.json`` last, and removes the files
    the earlier manifest listed and this one does not. A run without a
    manifest refuses, before renaming anything, to replace a file the
    earlier manifest lists, as that would leave it wrong.
    Any exception removes the staging directory, so no earlier output
    changes. Then, on every path, the exit removes every other run's
    staging directory, which only a killed run leaves, if it can take the
    lock exclusively, so that no other run, in any process, container or
    host that shares the directory, is writing there; it never touches
    another name, and where the file system refuses the lock it removes
    nothing. Last, it removes each directory the run made, deepest first,
    while it is empty. A file or directory that cannot be removed stays and
    keeps no other from going, and the run's own exception is the one raised.
    """

    MANIFEST = "manifest.json"

    def __init__(self, out_dir: Path) -> None:
        # the nearest of out_dir and its parents that exists must be a directory
        existing = next(p for p in (out_dir, *out_dir.parents) if os.path.lexists(p))
        if not existing.is_dir():
            raise ConfigError(f"output directory {out_dir}: {existing} is not a directory")
        self.out_dir = out_dir
        self._stage: Path | None = None  # made by open; a forked worker's too
        self._hashes: dict[str, str] = {}
        self._made: list[Path] = []  # the directories open made, parents first
        self._lock: int | None = None  # out_dir, opened and share-locked by open
        self.paths: list[Path] = []
        self._listed: set[str] = set()  # what the directory's collabnet manifest lists
        try:
            manifest = json.loads((out_dir / self.MANIFEST).read_bytes())
            listed = manifest["artifacts"]  # collabnet writes a name -> sha256 object
            if manifest["tool"]["name"] == "collabnet" and isinstance(listed, dict):
                self._listed = {name for name in listed if Path(name).name == name}
        except (OSError, ValueError, TypeError, KeyError):
            pass

    def open(self) -> None:
        """Make the directory, lock it and make the staging directory in it,
        unless this run has done so already."""
        if self._lock is not None:
            return
        missing = takewhile(lambda p: not os.path.lexists(p), (self.out_dir, *self.out_dir.parents))
        for directory in reversed(list(missing)):
            directory.mkdir()
            self._made.append(directory)
        self._lock = os.open(self.out_dir, os.O_RDONLY | os.O_DIRECTORY)
        with contextlib.suppress(OSError):  # no lock here: nobody sweeps the directory
            fcntl.flock(self._lock, fcntl.LOCK_SH)  # waits out another run's sweep
        self._stage = Path(tempfile.mkdtemp(prefix=".collabnet.", suffix=".tmp", dir=self.out_dir))

    def adopt(self, hashes: dict[str, str]) -> None:
        """The hashes of the files a forked worker wrote."""
        self._hashes |= hashes

    def write(self, name: str, blob: bytes) -> None:
        self.open()
        (self._stage / name).write_bytes(blob)
        self._hashes[name] = hashlib.sha256(blob).hexdigest()

    def digests(self) -> dict[str, str]:
        """Each artifact's sha256 by name."""
        return dict(self._hashes)

    def __enter__(self) -> _Artifacts:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self._commit()
        finally:  # a renamed file has left the staging directory: this removes the rest
            if self._stage is not None:
                shutil.rmtree(self._stage, ignore_errors=True)  # one that stays keeps no other
            if self._lock is not None:
                try:
                    self._sweep()
                finally:
                    os.close(self._lock)
            for directory in reversed(self._made):  # only a failed run leaves one empty
                with contextlib.suppress(OSError):  # not empty
                    directory.rmdir()

    def _sweep(self) -> None:
        """Remove every other run's staging directory, unless another run
        holds the directory."""
        try:
            fcntl.flock(self._lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:  # another run is writing here, or the file system has no locks
            return
        own = self._stage.name if self._stage else None  # the exit could not remove it
        with contextlib.suppress(OSError), os.scandir(self.out_dir) as entries:
            for entry in entries:
                if (
                    re.fullmatch(r"\.collabnet\..+\.tmp", entry.name)
                    and entry.name != own
                    and entry.is_dir(follow_symlinks=False)
                ):
                    shutil.rmtree(entry.path, ignore_errors=True)

    def _commit(self) -> None:
        with_manifest = self.MANIFEST in self._hashes
        replaced = sorted(self._listed & self._hashes.keys())
        if replaced and not with_manifest:
            raise ConfigError(
                f"{self.out_dir} holds a build whose manifest lists {replaced[0]}; "
                "choose another --output-dir"
            )
        for name in sorted(self._hashes, key=lambda n: (n == self.MANIFEST, n)):
            os.replace(self._stage / name, self.out_dir / name)
            self.paths.append(self.out_dir / name)
        if with_manifest:  # remove what the earlier build listed and this one did not write
            for name in sorted(self._listed - self._hashes.keys()):
                if (self.out_dir / name).is_file():
                    (self.out_dir / name).unlink()


# A layer's work is about 0.5 us per edge (bench inputs, 2 vCPU), so a
# worker pays for its fork, whose fork and pipe take 2 ms, only from
# _FORK_UNITS edges each (about 25 ms of work), and from one edge per pair
# of the stack each: forking and the copy-on-write faults after it grow with
# the memory the stack holds, and cost a hub input of 2.6M pairs about 100 ms.
_FORK_UNITS = 50_000
_fork = False  # whether a build may fork a layer worker; entry() sets it on 2+ CPUs


def _forks(stack: list[layers.NetworkLayer]) -> bool:
    """Whether a build forks a layer worker: only where :func:`entry` let
    it, and when its layers' edges are worth the fork for both processes."""
    worth = max(_FORK_UNITS, stack[0].pairs.a.size)
    return _fork and sum(layer.n_edges for layer in stack) >= 2 * worth


def _pin(cpus: list[int]) -> None:
    """Run the calling thread on ``cpus`` only; a refused change keeps its mask."""
    with contextlib.suppress(OSError, ValueError):
        os.sched_setaffinity(0, cpus)


class _LayerQueue:
    """Reports, exports, writes and hashes a stack's layers, in one process
    or in two that take them from one queue.

    Entering it puts every layer index in the queue, a pipe: at most
    ``MAX_LAYERS`` two-byte indices, under PIPE_BUF, so one write puts them
    all and each two-byte read takes one. When :func:`_forks` allows, it
    then opens the run's staging directory (:meth:`_Artifacts.open`),
    reads the sorted affinity mask, and forks one worker, which renders
    the stack's edge lines for itself at its first export, as the parent
    does; no Python thread is alive at the fork, as the CLI starts none.
    The parent pins itself to the first half of the mask and the worker,
    as its first act, to the rest (:func:`_pin`), so that the two never
    share a CPU, whichever one each starts on; a refused change keeps that
    process's mask. The pin sets only the calling thread's mask, so any
    OpenBLAS thread the caller asked for keeps its own. Each process takes
    the next index as soon as it is free; a stack's layers nest, so
    index order puts the most edges first. The worker sends its reports and
    hashes, or its exception, pickled through a second pipe. A parent whose
    worker has ended, or a worker whose parent is gone, takes no further
    layer. The worker ignores SIGINT, which a terminal sends the whole
    process group; takes SIGTERM's default action; and always ends with
    ``os._exit``. The exit kills and reaps a worker that :meth:`reports` has
    not reaped, so none outlives the run or writes after it.
    """

    def __init__(
        self, stack: list[layers.NetworkLayer], out: _Artifacts, config: RunConfig
    ) -> None:
        self._stack, self._out, self._config = stack, out, config
        self._parent = os.getpid()
        self._pid = 0  # the worker's, from the fork until reports has reaped it
        self._queue = self._results = None  # the read ends of the two pipes

    def __enter__(self) -> _LayerQueue:
        try:
            read, write = os.pipe()
            self._queue = open(read, "rb", buffering=0)  # unbuffered: one read, one index
            with open(write, "wb", buffering=0) as queue:  # one write call
                queue.write(b"".join(i.to_bytes(2, "big") for i in range(len(self._stack))))
            if _forks(self._stack):
                cpus = sorted(os.sched_getaffinity(0))
                half = len(cpus) // 2  # the parent's share: the first half, one CPU of two
                self._out.open()  # the worker writes into the parent's staging directory
                read, write = os.pipe()
                self._results = open(read, "rb")
                with open(write, "wb") as results:  # the parent's copy closes here
                    with warnings.catch_warnings():
                        # Python 3.12+ warns when a process with other OS threads forks.
                        # No Python thread is alive here; any other is OpenBLAS's, alive
                        # only when the caller asked for more than one BLAS thread; it
                        # installs pthread_atfork handlers, and no worker calls BLAS.
                        warnings.filterwarnings(
                            "ignore", r"This process .* is multi-threaded", DeprecationWarning
                        )
                        self._pid = os.fork()
                    if not self._pid:
                        self._work(results, cpus[half:])
                _pin(cpus[:half])
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _work(self, results: BinaryIO, cpus: list[int]) -> None:
        """The worker's whole life: pin itself to ``cpus``, the half of the
        mask its parent leaves, take layers, send what came of it, exit. A
        forked child starts on its parent's CPU, and the scheduler may leave
        it there for the whole build, which then runs its two processes on
        one CPU, slower than one process alone."""
        status = 1
        try:
            _pin(cpus)
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            self._results.close()
            try:
                message = (self._measure(), self._out.digests())
            except BaseException as exc:  # the parent raises it
                message = exc
            pickle.dump(message, results)
            results.close()
            status = 0
        finally:
            os._exit(status)

    def _measure(self) -> dict[int, metrics.LayerMetricsReport]:
        """Report, export and write each layer this process takes from the
        queue, while the other process, if any, runs; their reports by index."""
        reports, fmt, isolated = {}, self._config.export_format, self._config.include_isolated
        while not self._other_ended() and (taken := self._queue.read(2)):
            i = int.from_bytes(taken, "big")
            layer = self._stack[i]
            reports[i] = metrics.report(layer)
            _, membership = metrics.components(layer)
            visuals = export.assign_visuals(layer, membership)
            # no name holds the document, so it is freed once written, before the next report
            self._out.write(
                _layer_filename(i, layer.threshold, fmt),
                export.export_layer(layer, visuals, fmt, include_isolated=isolated),
            )
        return reports

    def _other_ended(self) -> bool:
        """In the worker, whether its parent is gone; in the parent, whether
        its worker has ended, which leaves it to be reaped."""
        if not self._pid:
            return os.getpid() != self._parent and os.getppid() != self._parent
        return os.waitid(os.P_PID, self._pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None

    def reports(self) -> list[metrics.LayerMetricsReport]:
        """Every layer's report, in layer order, once this process has taken
        layers until the queue is empty and the worker has sent its own; the
        worker's exception is raised here."""
        by_index = self._measure()
        if self._pid:
            payload = self._results.read()  # to the end: the worker has sent all or died
            pid, self._pid = self._pid, 0  # exiting: the exit must not kill a reaped pid
            _, status = os.waitpid(pid, 0)
            try:
                message = pickle.loads(payload)
            except Exception:  # nothing or a part: the worker died
                code = os.waitstatus_to_exitcode(status)
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise ChildProcessError(
                    f"a layer worker process {how} before it sent its results"
                ) from None
            if isinstance(message, BaseException):
                raise message
            measured, hashes = message
            by_index |= measured
            self._out.adopt(hashes)
        return [by_index[i] for i in range(len(self._stack))]

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._pid:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
        for pipe in (self._queue, self._results):
            if pipe is not None:
                pipe.close()


def run_pipeline(config: RunConfig) -> list[Path]:
    """Run build end to end; returns the paths written (manifest last).

    Each artifact is written into the staging directory and hashed as soon
    as it is made, and only its hash is kept (see :class:`_Artifacts`); the
    manifest is written last, from those hashes. The layers' reports come
    from a :class:`_LayerQueue`, which under :func:`entry` may share them
    with a forked worker.
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

    with out, _LayerQueue(stack, out, config) as queue:
        if config.dump_linkage:  # first, before this process's documents take memory
            out.write("linkage.csv", linkage.table_to_csv_bytes(table))
        for name, blob in _stats_artifacts(records, config.n_bins).items():
            out.write(name, blob)  # no layer needs them: a worker takes layers meanwhile
        reports = queue.reports()
        out.write("metrics.csv", metrics.reports_to_csv_bytes(reports))
        out.write("metrics.json", metrics.reports_to_json_bytes(reports))

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


def _interrupt(signum, frame) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # a second Ctrl-C waits for the cleanup
    raise KeyboardInterrupt


def entry() -> None:
    """The process entry: freeze the import-time heap, turn SIGTERM into an
    exception unless the parent ignores it, and SIGINT into one that a second
    SIGINT does not repeat, let a build fork a layer worker on a host of two
    or more CPUs, run :func:`main`, exit."""
    global _fork
    gc.freeze()
    if signal.getsignal(signal.SIGTERM) == signal.SIG_DFL:
        signal.signal(signal.SIGTERM, _terminate)
    if signal.getsignal(signal.SIGINT) is signal.default_int_handler:
        signal.signal(signal.SIGINT, _interrupt)
    if hasattr(os, "sched_getaffinity"):  # Linux; elsewhere a build stays in one process
        _fork = len(os.sched_getaffinity(0)) >= 2
    sys.exit(main())


if __name__ == "__main__":
    entry()
