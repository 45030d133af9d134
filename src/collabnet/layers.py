"""Threshold sweeps and network layer construction.

A layer is the graph obtained at one threshold: every project is a node and
every pair whose linkage meets the threshold is an undirected weighted edge.
Sweeping an increasing list of thresholds yields a stack of nested layers.
Every layer of a stack shares one :class:`Pairs`, the table's sorted project
ids and its node-index arrays, and keeps the pairs whose linkage meets its
threshold as a mask; its edges are the parallel arrays ``a``, ``b`` and
``weight``. The shared pairs are the table's pairs that meet the stack's
lowest threshold, and the table's own arrays when that is all of them. A
layer's edges exist once, in the shared pairs: a layer that keeps every
pair reads the shared arrays themselves, with no mask, and any other layer
cuts them on each read, so a caller that reads an edge array more than
once reads it into a local. What is derived per pair, such as export's
rendered edge lines, is kept in the shared ``Pairs`` and so made once per
stack. A layer that keeps every pair of the table is the one-mode
projection of the project-member incidence, and the stack gives it the
table's member teams, which :mod:`collabnet.metrics` walks instead of its
edges. A layer holds no adjacency of its own and caches only per-node
arrays: it counts its degrees and numbers its components from its edges
once, on first use, and metrics builds each BFS pass group's CSR from that
group's edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .ingest import RecordTable
from .linkage import LinkageTable

__all__ = [
    "Provenance",
    "Pairs",
    "NetworkLayer",
    "ThresholdSweep",
    "make_sweep_explicit",
    "make_sweep_linspace",
    "threshold_label",
    "build_layer",
    "build_layer_stack",
]


@dataclass(frozen=True)
class Provenance:
    """Where a layer came from: its records' hash and the type labels they hold."""

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

    nodes is the full project id set of the source records, sorted (isolated
    nodes are kept; metric reports leave them out of their averages). The
    edges are the pairs that ``keep`` marks, every pair when keep is None:
    edge i joins ``nodes[a[i]]`` and ``nodes[b[i]]``, a[i] < b[i], with
    weight[i], in the canonical order of ``pairs``. With keep None, ``a``,
    ``b`` and ``weight`` are the pairs' own arrays; otherwise each read cuts
    a new copy, which the layer does not keep. Only the per-node
    ``degrees`` and ``component_rank`` are cached. ``teams``, when given,
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

    @property
    def a(self) -> np.ndarray:
        return self._cut(self.pairs.a)

    @property
    def b(self) -> np.ndarray:
        return self._cut(self.pairs.b)

    @property
    def weight(self) -> np.ndarray:
        return self._cut(self.pairs.weight)

    def _cut(self, column: np.ndarray) -> np.ndarray:
        return column if self.keep is None else column[self.keep]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return self.pairs.a.size if self.keep is None else int(np.count_nonzero(self.keep))

    @cached_property
    def degrees(self) -> np.ndarray:
        """Number of incident edges of each node, in ``nodes`` order."""
        n = self.n_nodes
        return np.bincount(self.a, minlength=n) + np.bincount(self.b, minlength=n)

    @cached_property
    def component_rank(self) -> np.ndarray:
        """Each node's component, numbered by decreasing size, then smallest
        node index: min-label hooking with pointer jumping finds that index,
        each node's root. Each pass hangs the larger of two adjacent roots
        under the smaller, then points every node straight at its root, until
        no edge joins two different roots."""
        a, b = self.a, self.b
        root = np.arange(self.n_nodes)
        while True:
            ra, rb = root[a], root[b]
            if np.array_equal(ra, rb):
                break
            np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
            while not np.array_equal(root, root[root]):
                root = root[root]
        size = np.bincount(root, minlength=self.n_nodes)
        order = _stable_order(size.max(initial=0) - size)  # tied sizes keep root order
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return rank[root]


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of non-negative integer keys, cast
    first to the narrowest unsigned type that holds the largest: numpy sorts
    keys of 16 bits or fewer by a radix sort, in linear time."""
    dtype = np.min_scalar_type(int(keys.max(initial=0)))
    return np.argsort(keys.astype(dtype, copy=False), kind="stable")


def threshold_label(threshold: float) -> str:
    """The threshold to 6 decimals, trailing zeros trimmed: 35.0 -> "35",
    and "0" for any that rounds to zero, -0.0000001 too. It names a layer's
    file and graph, so no sweep repeats one."""
    label = f"{threshold:.6f}".rstrip("0").rstrip(".")
    return "0" if label == "-0" else label


@dataclass(frozen=True)
class ThresholdSweep:
    """A strictly increasing list of thresholds, explicit or linspace-derived,
    each with its own :func:`threshold_label`."""

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
            if threshold_label(lo) == threshold_label(hi):  # labels round monotonically
                raise ValueError(f"thresholds {lo} and {hi} share the label t{threshold_label(lo)}")


def make_sweep_explicit(values: Sequence[float]) -> ThresholdSweep:
    """Sweep from user-chosen threshold values; -0.0 becomes 0.0, the same
    layer, so both give the same file names and bytes."""
    return ThresholdSweep(tuple(float(v) + 0.0 for v in values))


def make_sweep_linspace(table: LinkageTable, n_points: int) -> ThresholdSweep:
    """n_points evenly spaced thresholds from min to max observed linkage;
    a range too narrow for n_points distinct labels is rejected."""
    if n_points < 2:
        raise ValueError("linspace sweep needs at least 2 points")
    if table.min_linkage is None or table.max_linkage is None:
        raise ValueError("no co-membered pairs: linkage range is undefined")
    lo, hi = table.min_linkage, table.max_linkage
    step = (hi - lo) / (n_points - 1)
    values = [lo + i * step for i in range(n_points - 1)]
    values.append(hi)  # endpoint exact regardless of float stepping
    if len(set(map(threshold_label, values))) < n_points:
        raise ValueError(f"linkage range [{lo}, {hi}] is too narrow for {n_points} thresholds")
    return ThresholdSweep(tuple(values))


def build_layer_stack(
    records: RecordTable, table: LinkageTable, sweep: ThresholdSweep
) -> list[NetworkLayer]:
    """One layer per sweep threshold, in sweep order: all projects of the
    table as nodes, pairs with linkage >= threshold as weighted edges.

    The layers share the pairs that meet the first (lowest) threshold, so
    nothing is derived for pairs that no layer keeps; when that is every
    pair of the table, they are the table's own arrays. Each layer holds
    only its mask of the shared pairs, and none (``keep=None``) when it
    keeps them all. A layer whose threshold is at most the table's minimum
    linkage keeps every pair of the table, and it carries the table's
    member teams."""
    provenance = Provenance(records.fingerprint(), records.project_types())
    low = table.linkage >= sweep.thresholds[0]
    whole = bool(low.all())
    cut = slice(None) if whole else low  # a slice is a view, a mask a copy
    pairs = Pairs(table.projects, table.a[cut], table.b[cut], table.linkage[cut])
    stack = []
    for t in sweep.thresholds:
        keep = pairs.weight >= t
        keep = None if keep.all() else keep
        teams = table.teams if whole and keep is None else None
        stack.append(NetworkLayer(t, pairs, provenance, keep, teams))
    return stack


def build_layer(records: RecordTable, table: LinkageTable, threshold: float) -> NetworkLayer:
    """The stack of one threshold: the graph at ``threshold`` alone."""
    return build_layer_stack(records, table, make_sweep_explicit([threshold]))[0]
