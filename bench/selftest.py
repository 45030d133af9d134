"""Fast self-test of the benchmark itself, on tiny synth inputs.

    python3 bench/selftest.py

For every workload it runs one untraced operation and one traced pass
through the same code as ``run.py``, checks that a corrupted ``metrics.csv``
value and a corrupted stats value are each caught by the output check, and
checks that the metric names the runs print are exactly the ones declared in
``BENCHMARK.json``. Exits 0 when all pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

SHRINK = 20  # default_sweep becomes 115 projects and 50 members
SEED = 7


def _refresh_manifest(out_dir: Path, name: str) -> None:
    """Make the manifest agree with a corrupted file, so that only the
    value check can catch the corruption."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    manifest["artifacts"][name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def bump_components(out_dir: Path) -> str:
    lines = (out_dir / "metrics.csv").read_text().splitlines()
    header, row = lines[0].split(","), lines[1].split(",")
    col = header.index("n_components")
    row[col] = str(int(row[col]) + 1)
    lines[1] = ",".join(row)
    (out_dir / "metrics.csv").write_text("\n".join(lines) + "\n")
    return "metrics.csv"


def nudge_stats_mean(out_dir: Path) -> str:
    summary = json.loads((out_dir / "stats_summary.json").read_text())
    summary["contribution_pct"]["mean"] *= 1 + 1e-9
    (out_dir / "stats_summary.json").write_text(json.dumps(summary))
    return "stats_summary.json"


def corruption_caught(w, inp, out_dir: Path, scratch: Path, corrupt, column: str) -> bool:
    """Corrupt one value in a copy of a good output, with the manifest made
    to agree, and report whether the output check objects."""
    bad = scratch / "corrupted"
    shutil.copytree(out_dir, bad)
    _refresh_manifest(bad, corrupt(bad))
    problems = inp.problems(w, bad, cross_check=False)
    shutil.rmtree(bad)
    return any(column in p for p in problems)


def main() -> int:
    if not (run.SRC / "collabnet" / "cli.py").is_file():
        print(f"error: no collabnet sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import spans
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    expect(
        sorted(w["name"] for w in declared["workloads"]) == sorted(WORKLOADS),
        "BENCHMARK.json declares exactly the workloads in workloads.py",
    )
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    expect(e2e == run.END_TO_END, "end_to_end names and units match run.py")
    expect(per_layer == run.per_layer_units(), "per_layer names and units match run.py")

    for w in WORKLOADS.values():
        scratch = run.WORK / f"selftest-{w.name}-{os.getpid()}"
        scratch.mkdir(parents=True)
        try:
            res = run.run_untraced(w, SEED, 0, scratch, shrink=SHRINK)
            summary = res["summary"]
            expect(
                summary["correct"] and summary["attempted"] == 1,
                f"{w.name}: one untraced operation passes the output check {res['problems']}",
            )
            expect(set(summary["metrics"]) == set(e2e), f"{w.name}: untraced metric names")
            inp = run.make_input(w, SEED, scratch, shrink=SHRINK)
            for corrupt, column in ((bump_components, "n_components"), (nudge_stats_mean, "mean")):
                expect(
                    corruption_caught(w, inp, scratch / "out0", scratch, corrupt, column),
                    f"{w.name}: a corrupted {column} value is reported as an error",
                )
            traced = run.run_traced(w, SEED, 0, scratch, shrink=SHRINK)
            metrics = traced["summary"]["metrics"]
            expect(traced["summary"]["correct"], f"{w.name}: traced run passes {traced['problems']}")
            expect(set(metrics) == set(per_layer), f"{w.name}: traced metric names")
            layer_sum = sum(
                metrics[k]["value"] for k in {*spans.SPAN_METRIC.values(), "cli.residual_s"}
            )
            unchecked = [
                k for k, m in metrics.items()
                if m["unit"] == "count" and m["value"] and k not in traced["checked_counts"]
            ]
            expect(not unchecked, f"{w.name}: every count is checked by the oracle {unchecked}")
            expect(
                abs(layer_sum - metrics["trace.pipeline_s"]["value"]) < 1e-9,
                f"{w.name}: layer spans + cli.residual_s add up to trace.pipeline_s",
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
