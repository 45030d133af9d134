"""collabnet: threshold-layered network analysis of collaboration records.

Pipeline: parse and check contribution records into one
:class:`~collabnet.ingest.RecordTable` (:mod:`collabnet.ingest`), score
co-membered project pairs (:mod:`collabnet.linkage`), sweep thresholds into
network layers (:mod:`collabnet.layers`), measure each layer
(:mod:`collabnet.metrics`), and serialize for viewers
(:mod:`collabnet.export`). :mod:`collabnet.synth` generates calibrated
synthetic datasets and :mod:`collabnet.cli` drives everything from the
command line. :mod:`collabnet.synth` loads on first use, so a build never
compiles or runs it.
"""

import importlib

__version__ = "0.1.0"

from .ingest import (  # noqa: F401
    ProjectType,
    RecordTable,
    aggregate,
    filter_by_type,
    parse_records,
)
from .linkage import LinkageTable, build_linkage_table  # noqa: F401
from .layers import (  # noqa: F401
    NetworkLayer,
    ThresholdSweep,
    build_layer,
    build_layer_stack,
    make_sweep_explicit,
    make_sweep_linspace,
)
from .metrics import LayerMetricsReport, report  # noqa: F401
from .stats import Feature, FeatureSummary, summarize  # noqa: F401


def __getattr__(name: str):
    if name in ("synth", "SynthConfig", "generate"):
        synth = importlib.import_module(".synth", __name__)
        return synth if name == "synth" else getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
