"""Threshold sweeps and network layer construction.

A layer is the graph obtained at one threshold: every project is a node and
every pair whose linkage meets the threshold is an undirected weighted edge.
Sweeping an increasing list of thresholds yields a stack of nested layers
that share one node tuple and one edge tuple: each layer keeps the edges
whose weight meets its threshold. A layer builds its CSR adjacency and
degree array once, on first use; metrics and export read only these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from .ingest import Dataset
from .linkage import LinkageTable

__all__ = [
    "Edge",
    "Provenance",
    "NetworkLayer",
    "ThresholdSweep",
    "make_sweep_explicit",
    "make_sweep_linspace",
    "build_layer",
    "build_layer_stack",
]


class Edge(NamedTuple):
    a: str
    b: str
    weight: float


@dataclass(frozen=True)
class Provenance:
    """Where a layer came from: dataset hash and the type labels it holds."""

    dataset_fingerprint: str
    project_types: tuple[str, ...]


@dataclass(frozen=True)
class NetworkLayer:
    """One generated graph at a single threshold.

    nodes is the full project id set of the source dataset (isolated nodes
    are kept; metric reporting drops them separately). Both tuples are in
    canonical sorted order so serialization is byte-stable.
    """

    threshold: float
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    provenance: Provenance

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """Symmetric 0/1 adjacency in CSR form; row i is ``nodes[i]``."""
        index = {v: i for i, v in enumerate(self.nodes)}
        m = self.n_edges
        a = np.fromiter((index[e.a] for e in self.edges), np.int64, m)
        b = np.fromiter((index[e.b] for e in self.edges), np.int64, m)
        return sp.csr_matrix(
            (np.ones(2 * m), (np.concatenate([a, b]), np.concatenate([b, a]))),
            shape=(self.n_nodes, self.n_nodes),
        )

    @cached_property
    def degrees(self) -> np.ndarray:
        """Number of incident edges of each node, in ``nodes`` order."""
        return np.diff(self.adjacency.indptr)


@dataclass(frozen=True)
class ThresholdSweep:
    """A strictly increasing list of thresholds, explicit or linspace-derived."""

    thresholds: tuple[float, ...]
    source: str  # "explicit" | "linspace"

    def __post_init__(self) -> None:
        if not self.thresholds:
            raise ValueError("sweep needs at least one threshold")
        for t in self.thresholds:
            if not math.isfinite(t):
                raise ValueError(f"threshold {t!r} is not finite")
        for lo, hi in zip(self.thresholds, self.thresholds[1:]):
            if not lo < hi:
                raise ValueError(
                    f"thresholds must be strictly increasing, got {lo} before {hi}"
                )


def make_sweep_explicit(values: Sequence[float]) -> ThresholdSweep:
    """Sweep from user-chosen threshold values."""
    return ThresholdSweep(tuple(float(v) for v in values), "explicit")


def make_sweep_linspace(table: LinkageTable, n_points: int) -> ThresholdSweep:
    """n_points evenly spaced thresholds from min to max observed linkage."""
    if n_points < 2:
        raise ValueError("linspace sweep needs at least 2 points")
    if table.min_linkage is None or table.max_linkage is None:
        raise ValueError("no co-membered pairs: linkage range is undefined")
    lo, hi = table.min_linkage, table.max_linkage
    if lo == hi:
        raise ValueError(f"degenerate linkage range [{lo}, {hi}]")
    step = (hi - lo) / (n_points - 1)
    values = [lo + i * step for i in range(n_points - 1)]
    values.append(hi)  # endpoint exact regardless of float stepping
    return ThresholdSweep(tuple(values), "linspace")


def build_layer_stack(
    dataset: Dataset, table: LinkageTable, sweep: ThresholdSweep
) -> list[NetworkLayer]:
    """One layer per sweep threshold, in sweep order: all projects as nodes,
    pairs with linkage >= threshold as weighted edges."""
    nodes = tuple(sorted(dataset.projects))
    edges = tuple(Edge(pa, pb, link.linkage) for (pa, pb), link in table.pairs.items())
    weights = np.fromiter((e.weight for e in edges), float, len(edges))
    provenance = Provenance(dataset.fingerprint(), dataset.project_types())
    return [
        NetworkLayer(t, nodes, tuple(compress(edges, weights >= t)), provenance)
        for t in sweep.thresholds
    ]


def build_layer(dataset: Dataset, table: LinkageTable, threshold: float) -> NetworkLayer:
    """The stack of one threshold: the graph at ``threshold`` alone."""
    return build_layer_stack(dataset, table, make_sweep_explicit([threshold]))[0]
