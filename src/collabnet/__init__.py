"""collabnet: threshold-layered network analysis of collaboration records.

Pipeline: parse and check contribution records into one
:class:`~collabnet.ingest.RecordTable` (:mod:`collabnet.ingest`), score
co-membered project pairs (:mod:`collabnet.linkage`), sweep thresholds into
network layers (:mod:`collabnet.layers`), measure each layer
(:mod:`collabnet.metrics`), and serialize for viewers
(:mod:`collabnet.export`). :mod:`collabnet.synth` generates calibrated
synthetic datasets and :mod:`collabnet.cli` drives everything from the
command line. Importing the package loads none of them, and so no numpy:
each name below, and each submodule, loads on first use, so that the CLI
process can limit numpy's threads before numpy loads, and a build never
compiles or runs :mod:`collabnet.synth`.
"""

import importlib

__version__ = "0.1.0"

# each public name, and the submodule it is loaded from on first use
_EXPORTS = {
    "ProjectType": "ingest",
    "RecordTable": "ingest",
    "aggregate": "ingest",
    "filter_by_type": "ingest",
    "parse_records": "ingest",
    "LinkageTable": "linkage",
    "build_linkage_table": "linkage",
    "NetworkLayer": "layers",
    "ThresholdSweep": "layers",
    "build_layer": "layers",
    "build_layer_stack": "layers",
    "make_sweep_explicit": "layers",
    "make_sweep_linspace": "layers",
    "LayerMetricsReport": "metrics",
    "report": "metrics",
    "Feature": "stats",
    "FeatureSummary": "stats",
    "summarize": "stats",
    "SynthConfig": "synth",
    "generate": "synth",
}
_MODULES = ("cli", "export", "ingest", "layers", "linkage", "metrics", "render", "stats", "synth")

__all__ = [*_EXPORTS, "synth"]


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
