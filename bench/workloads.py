"""The benchmark's two workloads: inputs, CLI operation and why each exists.

Every workload runs as a closed loop with one client: an operation is one
fresh ``python -m collabnet.cli build`` child process, and the next
operation starts only after the previous one has exited. The input is one
``collabnet.synth`` dataset drawn with the workload seed, written as CSV
outside the timed region, so the program only ever sees the generated CSV.
Every operation of a run builds from that one dataset, so every sample of a
run measures the same work and repeats are checked for identical bytes.

Why these two (see README.md for the per-layer -> end-to-end map):

* ``default_sweep`` is the ROADMAP headline: ``build`` at the default
  synthetic size with thresholds 0,20,...,100 and GraphML export. Most of
  its time is ``metrics.report`` on the threshold-0 layer, whose one giant
  component (~2,270 nodes) makes the centrality kernel dominate.
* ``fine_sweep_2x`` is ``build`` on a 2x dataset with 17 thresholds from 20
  up, JSON export and the linkage dump. No layer has a giant component, so
  its time spreads over the per-threshold layer rescans, many small
  component reports, JSON serialization and linkage, and it holds tens of
  MB of artifacts. It moves where ``default_sweep`` does not, and it shows a
  centrality change that slows the small-component path.

Both builds run every collabnet module: ingest, linkage, layers, metrics,
export and stats (the build writes the stats summaries too), so the traced
run measures each of them on both workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DEFAULT_PROJECTS = 2300
DEFAULT_MEMBERS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: int  # multiple of the default synth size
    thresholds: tuple[int, ...]
    export_format: str = "graphml"
    dump_linkage: bool = False

    def synth_size(self, shrink: int = 1) -> tuple[int, int]:
        """(projects, members) of the input; ``shrink`` divides both for
        the self-test's tiny inputs."""
        return (
            DEFAULT_PROJECTS * self.scale // shrink,
            DEFAULT_MEMBERS * self.scale // shrink,
        )

    def command(self, input_csv: Path, out_dir: Path) -> list[str]:
        """CLI arguments of one operation."""
        args = [
            "build",
            str(input_csv),
            "--thresholds",
            ",".join(str(t) for t in self.thresholds),
            "--format",
            self.export_format,
            "--output-dir",
            str(out_dir),
        ]
        if self.dump_linkage:
            args.append("--dump-linkage")
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="default_sweep",
            why="default-size build, 6 thresholds from 0, GraphML; one giant "
            "component makes the centrality kernel dominate",
            scale=1,
            thresholds=(0, 20, 40, 60, 80, 100),
        ),
        Workload(
            name="fine_sweep_2x",
            why="2x build, 17 thresholds from 20, JSON and linkage dump; many small "
            "components, so layer rescans, serialization and linkage dominate",
            scale=2,
            thresholds=tuple(range(20, 101, 5)),
            export_format="json",
            dump_linkage=True,
        ),
    )
}
