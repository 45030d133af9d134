"""collabnet benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload default_sweep --seed 1 --seconds 35 --trace 0

Run from the repository root. With ``--trace 0`` it times a closed loop of
CLI operations, one fresh ``python -m collabnet.cli`` child at a time, each
between two runs of the fixed host-speed kernel ``calibrate.py``, and
reports the end-to-end metrics scaled to the reference host speed. With
``--trace 1`` it runs one CLI operation for the process counters, then the
CLI's own pipeline in-process with spans around its calls into the
collabnet modules (``spans.py``), and reports the per-layer metrics
(unscaled). Either way the outputs are checked by
``oracle.py`` and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Scratch files go to
``.bench_work/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import oracle
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5  # at least this many import-only children per run
# CPU seconds of calibrate.py on the reference host (2-vCPU Xeon VM,
# Python 3.11.7) in a fast phase; timings are scaled to this host speed.
CAL_REF_S = 1.6
OP_TIMEOUT_S = 150
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
LAYER_SLOTS = max(len(w.thresholds) for w in WORKLOADS.values())

END_TO_END = {
    "norm_wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit. A metric
    a workload does not exercise (a layer index past its sweep, the scale
    probe off ``default_sweep``) reads 0."""
    units = {
        "ingest.parse_s": "s",
        "ingest.aggregate_s": "s",
        "ingest.records": "count",
        "ingest.projects": "count",
        "ingest.members": "count",
        "linkage.build_s": "s",
        "linkage.dump_s": "s",
        "linkage.pairs": "count",
        "linkage.candidate_visits": "count",
        "linkage.useful_ratio": "ratio",
        "layers.stack_s": "s",
        "layers.edges_total": "count",
        "metrics.report_s": "s",
        "metrics.centrality_s": "s",
        "metrics.report_rest_s": "s",
        "metrics.components_s": "s",
        "export.visuals_s": "s",
        "export.serialize_s": "s",
        "export.bytes": "bytes",
        "stats.summarize_s": "s",
        "cli.pipeline_s": "s",
        "cli.residual_s": "s",
        "trace.pipeline_s": "s",
        "trace.overhead_ratio": "ratio",
        "proc.cpu_s": "s",
        "proc.cpu_util": "ratio",
        "scale.l00_report_s.half": "s",
        "scale.l00_report_s.full": "s",
        "scale.l00_exponent": "ratio",
    }
    for i in range(LAYER_SLOTS):
        units[f"metrics.report_s.l{i:02d}"] = "s"
    for count in ("edges", "retained_nodes", "n_components", "giant_nodes"):
        for i in range(LAYER_SLOTS):
            units[f"metrics.{count}.l{i:02d}"] = "count"
    return units


@dataclass
class Sample:
    """One child process as the OS saw it: wall, peak RSS, CPU and exit code."""

    wall: float
    rss_mb: float
    cpu: float
    code: int


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(argv: list[str], stdout, stderr) -> Sample:
    """Run one Python child to exit; rusage comes from wait4 on that child
    alone, so its peak RSS is not mixed with the benchmark's own."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], stdout=stdout, stderr=stderr, env=child_env(), cwd=ROOT
    )
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime, proc.returncode)


def setup_probe(log_dir: Path) -> float:
    """Wall time of a child that only imports ``collabnet.cli``."""
    with open(log_dir / "setup.err", "ab") as err:
        sample = spawn(["-c", "import collabnet.cli"], subprocess.DEVNULL, err)
    if sample.code:
        raise RuntimeError("importing collabnet.cli failed; see setup.err")
    return sample.wall


def calibrate(log_dir: Path) -> Sample:
    """One run of the fixed host-speed kernel."""
    with open(log_dir / "calibrate.err", "ab") as err:
        sample = spawn([str(HERE / "calibrate.py")], subprocess.DEVNULL, err)
    if sample.code:
        raise RuntimeError("calibrate.py failed; see calibrate.err")
    return sample


def run_op(w: Workload, input_csv: Path, out_dir: Path, log_dir: Path) -> Sample:
    """One operation: one ``collabnet build`` child."""
    with open(log_dir / "build.out", "wb") as out, open(log_dir / "build.err", "ab") as err:
        return spawn(["-m", "collabnet.cli", *w.command(input_csv, out_dir)], out, err)


def signature(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}


@dataclass
class Input:
    """The run's synth dataset, with its oracle built before timing."""

    seed: int
    path: Path
    sha256: str
    table: oracle.InputTable
    links: oracle.PairLinkage

    def problems(
        self, w: Workload, out_dir: Path, cross_check: bool, counts_out: dict | None = None
    ) -> list[str]:
        """What the output check finds wrong; ``counts_out`` receives the
        input-determined counts it verified, under per-layer metric names."""
        try:
            return oracle.check_build(
                out_dir,
                self.table,
                self.links,
                w.thresholds,
                w.export_format,
                cross_check,
                counts_out,
            )
        except Exception as exc:  # a malformed output must count as a failure
            return [f"output check raised {exc!r}"]


def make_input(w: Workload, seed: int, run_dir: Path, shrink: int = 1) -> Input:
    """The run's synth dataset, written as the CSV file the CLI reads."""
    from collabnet import synth

    projects, members = w.synth_size(shrink)
    data = synth.generate_csv_bytes(
        synth.SynthConfig(seed=seed, n_projects=projects, n_members=members)
    )
    path = run_dir / "input.csv"
    path.write_bytes(data)
    table = oracle.InputTable.parse(data)
    return Input(seed, path, hashlib.sha256(data).hexdigest(), table, oracle.PairLinkage(table))


@dataclass
class LoopResult:
    samples: list[Sample]
    setup: list[float]  # wall seconds of import-only children
    cal: list[Sample]  # calibrate.py runs
    failed: int
    problems: list[str]

    def norm(self, walls: list[float]) -> list[float]:
        """Slot ``i``'s time scaled to the reference host speed by the two
        kernel runs around it, ``cal[i]`` and ``cal[i + 1]``. The kernel's
        CPU time is used, because the host also takes the CPU away in
        bursts of a second or so, which a 1.6 s kernel catches unevenly in
        its wall time while an operation's wall time averages them."""
        return [
            t * 2 * CAL_REF_S / (before.cpu + after.cpu)
            for t, before, after in zip(walls, self.cal, self.cal[1:])
        ]


def closed_loop(w: Workload, inp: Input, seconds: float, run_dir: Path) -> LoopResult:
    """Slots back to back until ``seconds`` have passed (at least one). A
    slot is one operation, one import-only child and one run of the
    host-speed kernel; one more kernel run goes first. Topped up to
    ``SETUP_PROBES`` import-only children, each with its kernel run, after
    the loop.

    An operation fails when it exits non-zero, when its output bytes differ
    from the first successful operation's, or when that output is wrong.
    Outputs are checked after the loop, outside the timing.
    """
    setup_probe(run_dir)  # unmeasured: fills the bytecode cache
    samples, setup, sigs = [], [], []
    cal = [calibrate(run_dir)]
    reference = None
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        out_dir = run_dir / f"out{len(samples)}"
        samples.append(run_op(w, inp.path, out_dir, run_dir))
        sigs.append(signature(out_dir) if samples[-1].code == 0 else None)
        if reference is None and sigs[-1] is not None:
            reference = out_dir
        else:
            shutil.rmtree(out_dir, ignore_errors=True)
        setup.append(setup_probe(run_dir))
        cal.append(calibrate(run_dir))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(run_dir))
        cal.append(calibrate(run_dir))
    if reference is None:
        problems = ["no operation exited 0; see build.err"]
        return LoopResult(samples, setup, cal, len(samples), problems)
    ref_sig = signature(reference)
    problems = inp.problems(w, reference, cross_check=True)
    wrong = bool(problems)  # then every operation wrote the wrong bytes
    if any(sig is not None and sig != ref_sig for sig in sigs):
        problems.append("output bytes differ between repeats")
    failed = sum(1 for sig in sigs if sig != ref_sig or wrong)
    return LoopResult(samples, setup, cal, failed, problems)


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def run_untraced(w: Workload, seed: int, seconds: float, run_dir: Path, shrink: int = 1) -> dict:
    inp = make_input(w, seed, run_dir, shrink)
    loop = closed_loop(w, inp, seconds, run_dir)
    walls = [s.wall for s in loop.samples]
    norm_walls = loop.norm(walls)
    metrics = {
        "norm_wall_s": statistics.median(norm_walls),
        "peak_rss_mb": statistics.median(s.rss_mb for s in loop.samples),
        "setup_s": statistics.median(loop.norm(loop.setup)),
    }
    top = tail(norm_walls)
    attempted = len(walls)
    notes = [
        f"norm_wall_s: median of {attempted} operations, each x {CAL_REF_S} s / "
        "the mean CPU time of the calibrate.py runs before and after it "
        f"(median kernel CPU time {statistics.median(c.cpu for c in loop.cal):.4f} s)",
        "norm_wall_s_tail: "
        + (f"p{top[0]:.1f} {top[1]:.4f} s" if top else
           f"n/a ({attempted} samples; a tail percentile needs at least 11)"),
        f"wall_s (unscaled): median {statistics.median(walls):.4f} s",
        f"rows_per_s: {inp.table.rows / metrics['norm_wall_s']:.6g} rows/s "
        f"({inp.table.rows} input rows / norm_wall_s)",
        "peak_rss_mb: median of per-operation max RSS",
        f"setup_s: median of {len(loop.setup)} import-only children, scaled like "
        f"norm_wall_s (unscaled median {statistics.median(loop.setup):.4f} s)",
        f"error_rate: {loop.failed / attempted:.4f} ({loop.failed} of {attempted})",
        f"proc.cpu_s: median {statistics.median(s.cpu for s in loop.samples):.4f}",
    ]
    res = result(w, seed, 0, inp, attempted, loop.failed, loop.problems, metrics, notes)
    res["samples"] = [asdict(s) for s in loop.samples]
    res["setup_samples"] = loop.setup
    res["calibrate_samples"] = [asdict(c) for c in loop.cal]
    return res


def run_traced(w: Workload, seed: int, seconds: float, run_dir: Path, shrink: int = 1) -> dict:
    import spans
    from collabnet import cli, export, synth

    inp = make_input(w, seed, run_dir, shrink)
    setup_probe(run_dir)  # unmeasured: fills the bytecode cache
    setup = statistics.median(setup_probe(run_dir) for _ in range(3))
    cli_out = run_dir / "cli_out"
    sample = run_op(w, inp.path, cli_out, run_dir)
    expected: dict[str, float] = {}
    problems = (
        inp.problems(w, cli_out, cross_check=True, counts_out=expected)
        if sample.code == 0
        else ["the CLI operation exited non-zero; see build.err"]
    )

    config = cli.RunConfig(
        input_path=str(inp.path),
        output_dir=run_dir / "pass",
        thresholds=tuple(float(t) for t in w.thresholds),
        export_format=export.ExportFormat(w.export_format),
        dump_linkage=w.dump_linkage,
    )
    t0 = time.perf_counter()
    cli.run_pipeline(config)
    pipeline_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(tracer.next_op())
        with spans.traced_cli(tracer) as seen:
            cli.run_pipeline(config)
    if sample.code == 0 and dir_bytes(run_dir / "pass") != dir_bytes(cli_out):
        problems.append("the traced pass wrote other output than the CLI")

    counts = spans.counts(seen)
    problems += [
        f"{name} {counts.get(name)} != {value} from the output check"
        for name, value in expected.items()
        if counts.get(name) != value
    ]
    probe_op = tracer.next_op()
    spans.centrality_probe(tracer, seen["layers.build_layer_stack"][-1])
    scale_op = None
    if w.name == "default_sweep":
        half = w.synth_size(2 * shrink)
        records = synth.generate(
            synth.SynthConfig(seed=inp.seed, n_projects=half[0], n_members=half[1])
        )
        scale_op = tracer.next_op()
        spans.scale_probe(tracer, records)
    del seen

    # the pass with the median total, so that its layers still add up
    per_pass = sorted(
        (span_metrics(tracer.self_seconds(op), pipeline_s) for op in passes),
        key=lambda p: p["trace.pipeline_s"],
    )
    metrics = {name: 0.0 for name in per_layer_units()}
    metrics.update(per_pass[len(per_pass) // 2])
    metrics.update(counts)
    metrics["metrics.centrality_s"] = sum(tracer.self_seconds(probe_op).values())
    metrics["metrics.report_rest_s"] = metrics["metrics.report_s"] - metrics["metrics.centrality_s"]
    if scale_op is not None:
        half_s = tracer.self_seconds(scale_op)["probe.scale.l00"]
        full_s = metrics["metrics.report_s.l00"]
        metrics["scale.l00_report_s.half"] = half_s
        metrics["scale.l00_report_s.full"] = full_s
        metrics["scale.l00_exponent"] = math.log2(full_s / half_s)
    metrics["proc.cpu_s"] = sample.cpu
    metrics["proc.cpu_util"] = sample.cpu / sample.wall
    metrics["trace.overhead_ratio"] = metrics["trace.pipeline_s"] / (sample.wall - setup)
    tracer.write(WORK / f"spans-{w.name}-seed{seed}.json")
    notes = [
        f"traced passes: {len(passes)}; CLI operation {sample.wall:.4f} s wall, "
        f"setup {setup:.4f} s",
        "layer spans + cli.residual_s = trace.pipeline_s: "
        f"{metrics['trace.pipeline_s']:.4f} s (untraced cli.pipeline_s "
        f"{metrics['cli.pipeline_s']:.4f} s)",
        f"{len(expected)} counts checked against the output check's values",
    ]
    failed = 1 if problems else 0
    res = result(w, seed, 1, inp, 1, failed, problems, metrics, notes)
    res["checked_counts"] = sorted(expected)
    return res


def dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in path.iterdir()}


def span_metrics(selfs: dict[str, float], pipeline_s: float) -> dict[str, float]:
    """Per-layer times of one traced pass from span self times.

    ``cli.residual_s`` is the root span's self time: the work between traced
    calls (hashing, manifest, report tables, writes). The layer spans plus
    it add up to ``trace.pipeline_s`` exactly; ``pipeline_s`` is the
    untraced in-process call, timed separately."""
    import spans

    out = {metric: 0.0 for metric in spans.SPAN_METRIC.values()}
    for name, seconds in selfs.items():
        if name == spans.ROOT_SPAN:
            continue
        function, _, layer = name.rpartition(".")  # "metrics.report", "l00"
        if function not in spans.SPAN_METRIC:
            function, layer = name, ""
        out[spans.SPAN_METRIC[function]] += seconds
        if function == "metrics.report":
            out[f"metrics.report_s.{layer}"] = seconds
    out["trace.pipeline_s"] = sum(selfs.values())
    out["cli.pipeline_s"] = pipeline_s
    out["cli.residual_s"] = selfs[spans.ROOT_SPAN]
    return out


def run_context(w: Workload, seed: int, inp: Input) -> dict:
    import networkx
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        commit = ref_file.read_text().strip() if ref.startswith("ref: ") and ref_file.is_file() else ref
    return {
        "workload": w.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": commit,
        "synth_size": w.synth_size(),
        "input": {"synth_seed": inp.seed, "rows": inp.table.rows, "sha256": inp.sha256},
    }


def result(w, seed, trace, inp, attempted, failed, problems, metrics, notes) -> dict:
    units = per_layer_units() if trace else END_TO_END
    return {
        "context": run_context(w, seed, inp),
        "notes": notes,
        "problems": problems,
        "summary": {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like an exception, so the running child is killed
    # and the run directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "collabnet" / "cli.py").is_file():
        print(f"error: no collabnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    run_dir = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        runner = run_traced if args.trace else run_untraced
        res = runner(w, args.seed, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    (WORK / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1) + "\n"
    )
    print(f"{w.name} seed={args.seed} trace={args.trace}")
    for note in res["notes"]:
        print("  " + note)
    for problem in res["problems"]:
        print("  PROBLEM " + problem)
    for name, m in res["summary"]["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print("context: " + json.dumps(res["context"], sort_keys=True))
    print(json.dumps(res["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
