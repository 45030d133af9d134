"""Threshold sweeps and network layer construction.

A layer is the graph obtained at one threshold: every project is a node and
every pair whose linkage meets the threshold is an undirected weighted edge.
Sweeping an increasing list of thresholds yields a stack of nested layers.
Every layer of a stack shares one :class:`Pairs`, the table's sorted project
ids and its node-index arrays, and keeps the pairs whose linkage meets its
threshold; its edges are the parallel arrays ``a``, ``b`` and ``weight`` cut
from them. The shared pairs are the table's pairs that meet the stack's
lowest threshold. What is derived per pair, such as export's rendered edge
lines, is kept in the shared ``Pairs`` and so made once per stack. A layer
that keeps every pair of the table is the one-mode projection of the
project-member incidence, and the stack gives it the table's member teams,
which :mod:`collabnet.metrics` walks instead of its edges. A layer builds
its adjacency (a numpy CSR pair ``(indptr, indices)``), degree array and
component ranks from its arrays once, on first use; metrics and export read
only these, so each layer is numbered into components once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .ingest import Dataset
from .linkage import LinkageTable

__all__ = [
    "Edge",
    "Provenance",
    "Pairs",
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


@dataclass(frozen=True, eq=False)
class Pairs:
    """Weighted node pairs that layers take their edges from.

    Pair i joins ``nodes[a[i]]`` and ``nodes[b[i]]``, a[i] < b[i], with
    weight[i]; pairs are in canonical (a, b) order so serialization is
    byte-stable. ``cache`` holds what callers derive per pair once for every
    layer cut from these pairs: export keeps there, per format, its quoted-id
    table and every pair's edge line as one byte buffer with int64 line
    ends, no object per pair.
    """

    nodes: tuple[str, ...]
    a: np.ndarray
    b: np.ndarray
    weight: np.ndarray
    cache: dict = field(default_factory=dict, repr=False)


@dataclass(frozen=True, eq=False)
class NetworkLayer:
    """One generated graph at a single threshold.

    nodes is the full project id set of the source dataset, sorted (isolated
    nodes are kept; metric reports leave them out of their averages). The
    edges are the pairs that ``keep`` marks, every pair when keep is None:
    edge i joins ``nodes[a[i]]`` and ``nodes[b[i]]``, a[i] < b[i], with
    weight[i], in the canonical order of ``pairs``. ``teams``, when given,
    is a member -> node CSR ``(indptr, indices)`` whose rows each list two
    or more nodes, and the edges are exactly the node pairs that share a
    row.
    """

    threshold: float
    pairs: Pairs
    provenance: Provenance
    keep: np.ndarray | None = None
    teams: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.pairs.nodes

    @cached_property
    def a(self) -> np.ndarray:
        return self._cut(self.pairs.a)

    @cached_property
    def b(self) -> np.ndarray:
        return self._cut(self.pairs.b)

    @cached_property
    def weight(self) -> np.ndarray:
        return self._cut(self.pairs.weight)

    def _cut(self, column: np.ndarray) -> np.ndarray:
        return column if self.keep is None else column[self.keep]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return self.a.size

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as (id, id, weight) tuples, for callers that want names."""
        ids = self.nodes
        columns = zip(self.a.tolist(), self.b.tolist(), self.weight.tolist())
        return tuple(Edge(ids[a], ids[b], w) for a, b, w in columns)

    @cached_property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric adjacency in CSR form, the pair ``(indptr, indices)``:
        the neighbours of ``nodes[i]`` are ``indices[indptr[i]:indptr[i + 1]]``.

        Each edge is listed from both ends, the ``b`` ends first; a stable
        sort by row then keeps each row's neighbours ascending, since the
        pairs are in canonical (a, b) order.
        """
        rows = np.concatenate([self.b, self.a])
        indices = np.concatenate([self.a, self.b])[np.argsort(rows, kind="stable")]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=self.n_nodes))])
        return indptr, indices

    @cached_property
    def degrees(self) -> np.ndarray:
        """Number of incident edges of each node, in ``nodes`` order."""
        return np.diff(self.adjacency[0])

    @cached_property
    def component_rank(self) -> np.ndarray:
        """Each node's component, numbered by decreasing size, then smallest
        node index: min-label hooking with pointer jumping finds that index,
        each node's root. Each pass hangs the larger of two adjacent roots
        under the smaller, then points every node straight at its root, until
        no edge joins two different roots."""
        root = np.arange(self.n_nodes)
        while True:
            a, b = root[self.a], root[self.b]
            if np.array_equal(a, b):
                break
            np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
            while not np.array_equal(root, root[root]):
                root = root[root]
        order = np.argsort(-np.bincount(root, minlength=self.n_nodes), kind="stable")
        return np.argsort(order)[root]  # order's inverse; tied sizes keep root order


@dataclass(frozen=True)
class ThresholdSweep:
    """A strictly increasing list of thresholds, explicit or linspace-derived."""

    thresholds: tuple[float, ...]

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
    """Sweep from user-chosen threshold values; -0.0 becomes 0.0, the same
    layer, so both give the same file names and bytes."""
    return ThresholdSweep(tuple(float(v) + 0.0 for v in values))


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
    return ThresholdSweep(tuple(values))


def build_layer_stack(
    dataset: Dataset, table: LinkageTable, sweep: ThresholdSweep
) -> list[NetworkLayer]:
    """One layer per sweep threshold, in sweep order: all projects of the
    table as nodes, pairs with linkage >= threshold as weighted edges.

    The layers share the pairs that meet the first (lowest) threshold, so
    nothing is derived for pairs that no layer keeps. A layer whose
    threshold is at most the table's minimum linkage keeps every pair of
    the table, and it carries the table's member teams."""
    provenance = Provenance(dataset.fingerprint(), dataset.project_types())
    low = table.linkage >= sweep.thresholds[0]
    pairs = Pairs(table.projects, table.a[low], table.b[low], table.linkage[low])
    stack = []
    for t in sweep.thresholds:
        keep = pairs.weight >= t
        teams = table.teams if low.all() and keep.all() else None
        stack.append(NetworkLayer(t, pairs, provenance, keep, teams))
    return stack


def build_layer(dataset: Dataset, table: LinkageTable, threshold: float) -> NetworkLayer:
    """The stack of one threshold: the graph at ``threshold`` alone."""
    return build_layer_stack(dataset, table, make_sweep_explicit([threshold]))[0]
