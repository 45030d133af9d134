"""Spans and the traced in-process run that gives the per-layer numbers.

A traced pass calls ``cli.run_pipeline`` itself, under a root span. For the pass,
``cli``'s references to the collabnet modules are swapped for proxies that
put a span around every call of the functions in ``SPAN_METRIC``, so the
spans follow the CLI's own calls in its own order and the pass runs the
CLI's code, not a copy of it. Calls the modules make among themselves (say,
``metrics.report`` calling ``components``) are not traced. Nothing inside
``src/collabnet`` is instrumented or changed on disk.

A span records its name, start, end, parent span and operation id; spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

from collabnet import cli, ingest, layers, linkage, metrics

# Traced functions, by the name ``cli`` calls them with, and the per-layer
# metric their self time adds to. Any other call is left to the root span.
SPAN_METRIC = {
    "ingest.parse_records": "ingest.parse_s",
    "ingest.aggregate": "ingest.aggregate_s",
    "linkage.build_linkage_table": "linkage.build_s",
    "linkage.table_to_csv_bytes": "linkage.dump_s",
    "layers.make_sweep_explicit": "layers.stack_s",
    "layers.build_layer_stack": "layers.stack_s",
    "metrics.report": "metrics.report_s",
    "metrics.components": "metrics.components_s",
    "export.assign_visuals": "export.visuals_s",
    "export.export_layer": "export.serialize_s",
    "stats.summarize": "stats.summarize_s",
}
# Called once per layer; their spans carry the layer index as ``.lNN``.
PER_LAYER = {"metrics.report", "metrics.components", "export.assign_visuals", "export.export_layer"}
ROOT_SPAN = "cli.pipeline"


@dataclass
class Span:
    name: str
    op: int
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = float("nan")

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one operation id per traced pass or probe."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._open: list[int] = []

    def next_op(self) -> int:
        self.op += 1
        return self.op

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.op, parent, time.perf_counter()))
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._open.pop()].end = time.perf_counter()

    def self_seconds(self, op: int) -> dict[str, float]:
        """Self time per span name in one operation: a span's duration minus
        the time its child spans cover."""
        child_time = Counter()
        for s in self.spans:
            if s.op == op and s.parent is not None:
                child_time[s.parent] += s.seconds
        out: Counter = Counter()
        for i, s in enumerate(self.spans):
            if s.op == op:
                out[s.name] += s.seconds - child_time[i]
        return dict(out)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


class _TracedModule:
    """Stands in for a collabnet module in ``cli``'s namespace: traced
    functions run under a span and their results are kept in ``seen``;
    every other attribute is the module's own."""

    def __init__(self, module, tracer: Tracer, seen: dict[str, list]) -> None:
        self._module = module
        self._prefix = module.__name__.rsplit(".", 1)[-1] + "."
        self._tracer = tracer
        self._seen = seen

    def __getattr__(self, name: str):
        attr = getattr(self._module, name)
        key = self._prefix + name
        if key not in SPAN_METRIC:
            return attr

        def traced(*args, **kwargs):
            results = self._seen.setdefault(key, [])
            label = f"{key}.l{len(results):02d}" if key in PER_LAYER else key
            with self._tracer.span(label):
                out = attr(*args, **kwargs)
            results.append(out)
            return out

        return traced


@contextlib.contextmanager
def traced_cli(tracer: Tracer):
    """For the ``with`` body, trace the CLI's calls into its modules and
    wrap the body in the root span. Yields ``seen``: every traced
    function's return values, in call order."""
    seen: dict[str, list] = {}
    names = sorted({key.split(".")[0] for key in SPAN_METRIC})
    originals = {name: getattr(cli, name) for name in names}
    for name, module in originals.items():
        setattr(cli, name, _TracedModule(module, tracer, seen))
    try:
        with tracer.span(ROOT_SPAN):
            yield seen
    finally:
        for name, module in originals.items():
            setattr(cli, name, module)


def counts(seen: dict[str, list]) -> dict[str, float]:
    """The input-determined counts of one traced pass, from what its traced
    calls returned."""
    records = seen["ingest.parse_records"][-1]
    dataset: ingest.Dataset = seen["ingest.aggregate"][-1]
    out: dict[str, float] = {
        "ingest.records": len(records),
        "ingest.projects": dataset.n_projects,
        "ingest.members": len(dataset.member_index),
    }
    table: linkage.LinkageTable = seen["linkage.build_linkage_table"][-1]
    stack: list[layers.NetworkLayer] = seen["layers.build_layer_stack"][-1]
    visits = sum(len(p) * (len(p) - 1) // 2 for p in dataset.member_index.values())
    out |= {
        "linkage.pairs": len(table),
        "linkage.candidate_visits": visits,
        "linkage.useful_ratio": len(table) / visits if visits else 0.0,
        "layers.edges_total": sum(layer.n_edges for layer in stack),
        "export.bytes": sum(len(blob) for blob in seen["export.export_layer"]),
    }
    for i, (rep, (_, membership)) in enumerate(
        zip(seen["metrics.report"], seen["metrics.components"])
    ):
        out[f"metrics.edges.l{i:02d}"] = rep.n_edges
        out[f"metrics.retained_nodes.l{i:02d}"] = rep.n_nodes_retained
        out[f"metrics.n_components.l{i:02d}"] = rep.n_components
        out[f"metrics.giant_nodes.l{i:02d}"] = max(Counter(membership.values()).values(), default=0)
    return out


def centrality_probe(tracer: Tracer, stack: list) -> None:
    """Betweenness alone on each retained layer, outside the pipeline span."""
    for i, layer in enumerate(stack):
        with tracer.span(f"probe.centrality.l{i:02d}"):
            metrics.betweenness(metrics.remove_isolated(layer))


def scale_probe(tracer: Tracer, records: list) -> None:
    """``metrics.report`` of the threshold-0 layer on the given records."""
    dataset = ingest.aggregate(records)
    layer = layers.build_layer(dataset, linkage.build_linkage_table(dataset), 0.0)
    with tracer.span("probe.scale.l00"):
        metrics.report(layer)
