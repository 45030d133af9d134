"""Command-line driver: synth, ingest, stats and build subcommands.

build runs the whole pipeline on one input file: parse, aggregate, optional
type filter, linkage table, threshold sweep, per-layer metric reports,
layer exports, feature statistics and a manifest with content hashes.
Outputs are deterministic: the same input bytes and flags always produce a
byte-identical artifact set. Exit codes: 0 success, 1 input/data error,
2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from . import export, ingest, layers, linkage, metrics, stats, synth
from .ingest import IngestError, ProjectType

__all__ = ["RunConfig", "ConfigError", "run_pipeline", "main"]

OUTPUT_DIR_ENV = "COLLABNET_OUT"
EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    """Invalid flag combination or option value."""


@dataclass
class RunConfig:
    """Everything one build run needs; exactly one threshold source is set."""

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
        if self.linspace is not None and self.linspace < 2:
            raise ConfigError("linspace needs at least 2 points")
        if self.type_filter is not None and not self.type_filter:
            raise ConfigError("type filter must name at least one project type")


def _read_input_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _parse(data: bytes, delimiter: str, lenient: bool = False) -> list:
    """Parse input rows; under ``lenient``, report each skipped row on stderr."""
    row_errors: list[ingest.RowError] = []
    records = ingest.parse_records(
        data,
        delimiter=delimiter,
        lenient=lenient,
        errors_out=row_errors if lenient else None,
    )
    for err in row_errors:
        print(f"skipped {err}", file=sys.stderr)
    if not records:
        raise IngestError("input contains no data rows")
    return records


def _parse_and_aggregate(data: bytes, config: RunConfig) -> tuple[list, ingest.Dataset]:
    records = _parse(data, config.delimiter, config.lenient)
    dataset = ingest.aggregate(records, strict=config.strict)
    if config.type_filter is not None:
        records = [r for r in records if r.project_type in config.type_filter]
        dataset = ingest.filter_by_type(dataset, config.type_filter)
        if not dataset.projects:
            raise IngestError("type filter removed every project")
    return records, dataset


def _stats_artifacts(records: list, n_bins: int) -> dict[str, bytes]:
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
    return f"layer_{index:02d}_t{export.threshold_label(layer.threshold)}.{fmt.value}"


def _listed_artifacts(out_dir: Path) -> set[str]:
    """File names the collabnet manifest in ``out_dir`` lists, if it has one."""
    try:
        manifest = json.loads((out_dir / "manifest.json").read_bytes())
        if manifest["tool"]["name"] == "collabnet":
            return {name for name in manifest["artifacts"] if Path(name).name == name}
    except (OSError, ValueError, TypeError, KeyError):
        pass
    return set()


def run_pipeline(config: RunConfig) -> list[Path]:
    """Run build end to end; returns the paths written (manifest last).

    Artifacts are assembled in memory and written to temporary files in the
    output directory, then renamed into place, manifest last; a failing
    write removes only the temporary files. Then the files that an earlier
    run's manifest in the directory listed and this run did not write are
    removed; no other file is touched.
    """
    input_bytes = _read_input_bytes(config.input_path)
    records, dataset = _parse_and_aggregate(input_bytes, config)

    table = linkage.build_linkage_table(dataset)
    if config.thresholds is not None:
        sweep = layers.make_sweep_explicit(config.thresholds)
    else:
        sweep = layers.make_sweep_linspace(table, config.linspace)
    stack = layers.build_layer_stack(dataset, table, sweep)

    artifacts: dict[str, bytes] = {}
    reports = []
    for i, layer in enumerate(stack):
        reports.append(metrics.report(layer))
        _, membership = metrics.components(layer)
        visuals = export.assign_visuals(layer, membership)
        artifacts[_layer_filename(i, layer, config.export_format)] = export.export_layer(
            layer,
            visuals,
            config.export_format,
            include_isolated=config.include_isolated,
        )
    artifacts["metrics.csv"] = metrics.reports_to_csv_bytes(reports)
    artifacts["metrics.json"] = metrics.reports_to_json_bytes(reports)
    artifacts.update(_stats_artifacts(records, config.n_bins))
    if config.dump_linkage:
        artifacts["linkage.csv"] = linkage.table_to_csv_bytes(table)

    manifest = {
        "tool": {"name": "collabnet", "version": __version__},
        "input": {
            "path": config.input_path,
            "sha256": hashlib.sha256(input_bytes).hexdigest(),
        },
        "config": {
            "thresholds": list(config.thresholds) if config.thresholds else None,
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
        "artifacts": {
            name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()
        },
    }
    artifacts["manifest.json"] = (
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")

    stale = _listed_artifacts(config.output_dir) - artifacts.keys()
    config.output_dir.mkdir(parents=True, exist_ok=True)
    names = sorted(artifacts, key=lambda name: (name == "manifest.json", name))
    written = [config.output_dir / name for name in names]
    temps = [config.output_dir / f".{name}.{os.getpid()}.tmp" for name in names]
    try:
        for temp, name in zip(temps, names):
            temp.write_bytes(artifacts[name])
        for temp, path in zip(temps, written):
            os.replace(temp, path)
    except OSError:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise
    for name in sorted(stale):
        path = config.output_dir / name
        if path.is_file():
            path.unlink()
    return written


def _parse_types(text: str) -> frozenset[ProjectType]:
    try:
        return frozenset(ProjectType.parse(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_thresholds(text: str) -> tuple[float, ...]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"unparseable threshold list: {text!r}") from None
    try:
        return layers.make_sweep_explicit(values).thresholds
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_bins(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigError(f"--bins must be a positive integer, got {text!r}")
    return value


def _parse_delimiter(text: str) -> str:
    if len(text) != 1:
        raise ConfigError(f"--delimiter must be a single character, got {text!r}")
    return text


def _default_output_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "collabnet_out"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collabnet",
        description="Build and analyze threshold-layered collaboration networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--projects", type=int, default=2300)
    p_synth.add_argument("--members", type=int, default=1000)
    p_synth.add_argument("--out", default="-", help="output file, - for stdout")

    p_ingest = sub.add_parser("ingest", help="parse and validate an input CSV")
    p_ingest.add_argument("input", help="input CSV path, - for stdin")
    p_ingest.add_argument("--delimiter", type=_parse_delimiter, default=",")
    p_ingest.add_argument("--strict", action="store_true")
    p_ingest.add_argument("--lenient", action="store_true")

    p_stats = sub.add_parser("stats", help="write feature statistics files")
    p_stats.add_argument("input", help="input CSV path, - for stdin")
    p_stats.add_argument("--delimiter", type=_parse_delimiter, default=",")
    p_stats.add_argument("--bins", type=_parse_bins, default=stats.DEFAULT_BINS)
    p_stats.add_argument("--output-dir", default=None)

    p_build = sub.add_parser("build", help="run the full layer pipeline")
    p_build.add_argument("input", help="input CSV path, - for stdin")
    group = p_build.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--thresholds", type=_parse_thresholds, help="comma-separated increasing list"
    )
    group.add_argument("--linspace", type=int, help="evenly spaced point count")
    p_build.add_argument(
        "--types", type=_parse_types, help="comma-separated project types to keep"
    )
    p_build.add_argument(
        "--format",
        choices=[f.value for f in export.ExportFormat],
        default=export.ExportFormat.GRAPHML.value,
    )
    p_build.add_argument(
        "--include-isolated",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="keep degree-0 nodes in layer exports",
    )
    p_build.add_argument("--strict", action="store_true")
    p_build.add_argument("--lenient", action="store_true")
    p_build.add_argument("--delimiter", type=_parse_delimiter, default=",")
    p_build.add_argument("--bins", type=_parse_bins, default=stats.DEFAULT_BINS)
    p_build.add_argument("--dump-linkage", action="store_true")
    p_build.add_argument("--output-dir", default=None)
    return parser


def _cmd_synth(args: argparse.Namespace) -> int:
    config = synth.SynthConfig(
        seed=args.seed, n_projects=args.projects, n_members=args.members
    )
    data = synth.generate_csv_bytes(config)
    if args.out == "-":
        sys.stdout.buffer.write(data)
    else:
        Path(args.out).write_bytes(data)
    return EXIT_OK


def _cmd_ingest(args: argparse.Namespace) -> int:
    records = _parse(_read_input_bytes(args.input), args.delimiter, args.lenient)
    dataset = ingest.aggregate(records, strict=args.strict)
    print(f"records: {len(records)}")
    print(f"projects: {dataset.n_projects}")
    print(f"members: {len(dataset.member_index)}")
    by_type: dict[str, int] = {}
    for p in dataset.projects.values():
        by_type[p.project_type.value] = by_type.get(p.project_type.value, 0) + 1
    for name in sorted(by_type):
        print(f"projects[{name}]: {by_type[name]}")
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    records = _parse(_read_input_bytes(args.input), args.delimiter)
    out_dir = Path(args.output_dir) if args.output_dir else _default_output_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, blob in _stats_artifacts(records, args.bins).items():
        path = out_dir / name
        path.write_bytes(blob)
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_build(args: argparse.Namespace) -> int:
    config = RunConfig(
        input_path=args.input,
        output_dir=Path(args.output_dir) if args.output_dir else _default_output_dir(),
        thresholds=args.thresholds,
        linspace=args.linspace,
        type_filter=args.types,
        export_format=export.ExportFormat(args.format),
        include_isolated=args.include_isolated,
        strict=args.strict,
        lenient=args.lenient,
        delimiter=args.delimiter,
        n_bins=args.bins,
        dump_linkage=args.dump_linkage,
    )
    for path in run_pipeline(config):
        print(f"wrote {path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "synth": _cmd_synth,
        "ingest": _cmd_ingest,
        "stats": _cmd_stats,
        "build": _cmd_build,
    }
    try:
        # option values go through the _parse_* converters, whose
        # ConfigError argparse lets through to here
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IngestError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
