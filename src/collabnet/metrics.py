"""Per-layer network metric suite.

Local metrics (closeness, betweenness, degree, clustering) are defined per
node and averaged over the layer; global metrics (density, connected
components) describe the whole graph. Reporting removes isolated nodes
before measuring, so the numbers describe the connected part of a layer.
Every kernel reads the layer's one CSR adjacency (``layer.adjacency``), and
each per-node function returns the values of all nodes at once, as a
node -> value map, from the same kernel :func:`report` averages.

Closeness here is the reciprocal-distance form: sum over other nodes of
1/d(v, u), with unreachable nodes contributing 0. Many graph libraries call
this "harmonic centrality" and reserve "closeness" for 1/sum(d); this module
deliberately uses the reciprocal-distance definition throughout.

Betweenness is unnormalized and counts each unordered {s, t} pair once;
pairs with no connecting path contribute 0.

:func:`report` needs only layer averages, and both centrality averages
follow from one integer histogram. With c_d the number of ordered node
pairs at hop distance d, the closeness values sum to sum(c_d / d) and the
betweenness values to sum(c_d * (d - 1)) / 2: a pair d hops apart has d - 1
interior nodes on each of its shortest paths (Brandes 2008, "On variants
of shortest-path betweenness centrality"). So the report runs only a
batched forward BFS and counts hop distances; the Brandes backward
(dependency) pass runs only behind :func:`betweenness`, the one function
that needs shortest-path counts. Clustering comes from triangle counts, the
row sums of (A·A)∘A, for :func:`clustering` and :func:`report` alike.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from itertools import compress
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .layers import NetworkLayer

__all__ = [
    "LayerMetricsReport",
    "remove_isolated",
    "degree",
    "closeness",
    "betweenness",
    "clustering",
    "density",
    "components",
    "report",
    "reports_to_csv_bytes",
    "reports_to_json_bytes",
]

_BATCH_SIZE = 48  # BFS source columns per pass; sized for cache-friendly arrays


@dataclass(frozen=True)
class LayerMetricsReport:
    """The six-metric summary of one layer, after isolated-node removal."""

    threshold: float
    n_nodes_retained: int
    n_edges: int
    n_isolated_removed: int
    avg_closeness: float
    avg_betweenness: float
    avg_degree: float
    avg_clustering: float
    density: float
    n_components: int


def remove_isolated(layer: NetworkLayer) -> NetworkLayer:
    """Drop degree-0 nodes; edges, threshold and provenance are unchanged."""
    nodes = tuple(compress(layer.nodes, layer.degrees > 0))
    return NetworkLayer(layer.threshold, nodes, layer.edges, layer.provenance)


def degree(layer: NetworkLayer) -> dict[str, int]:
    """Number of edges incident to each node."""
    return dict(zip(layer.nodes, layer.degrees.tolist()))


def closeness(layer: NetworkLayer) -> dict[str, float]:
    """Sum of reciprocal shortest-path distances from each node to every
    other node. Distances are unweighted hop counts; unreachable nodes add 0."""
    values = np.zeros(layer.n_nodes)
    for sources, dist, _, _ in _bfs_batches(layer.adjacency):
        reciprocal = np.divide(1.0, dist, out=np.zeros(dist.shape), where=dist > 0)
        values[sources] = reciprocal.sum(axis=0)
    return dict(zip(layer.nodes, values.tolist()))


def _local_clustering(adj: sp.csr_matrix) -> np.ndarray:
    """Each node's 2*T(v) / (deg*(deg-1)), with T(v) from the triangle
    counts in the row sums of (A·A)∘A; 0 for degree < 2, where there are no
    triangles to count."""
    deg = np.diff(adj.indptr)
    links = np.asarray(adj.multiply(adj @ adj).sum(axis=1)).ravel()  # 2 * triangles at v
    return np.divide(links, deg * (deg - 1), out=np.zeros(deg.size), where=deg > 1)


def clustering(layer: NetworkLayer) -> dict[str, float]:
    """Fraction of possible triangles through each node."""
    return dict(zip(layer.nodes, _local_clustering(layer.adjacency).tolist()))


def density(layer: NetworkLayer) -> float:
    """2m / (n * (n - 1)); 0 for graphs with fewer than two nodes."""
    n = layer.n_nodes
    if n < 2:
        return 0.0
    return 2.0 * layer.n_edges / (n * (n - 1))


def _component_roots(adj: sp.csr_matrix) -> np.ndarray:
    """Each node's component root: the smallest node index in its component.

    Min-label hooking with pointer jumping: each pass hangs the larger of
    two adjacent roots under the smaller, then points every node straight
    at its root, until no edge joins two different roots.
    """
    n = adj.shape[0]
    tails = np.repeat(np.arange(n), np.diff(adj.indptr))
    root = np.arange(n)
    while True:
        a, b = root[tails], root[adj.indices]
        if np.array_equal(a, b):
            return root
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(root, root[root]):
            root = root[root]


def components(layer: NetworkLayer) -> tuple[int, dict[str, int]]:
    """Connected components; ids ordered by decreasing size, then smallest
    contained node id (``layer.nodes`` is sorted, so that id is the root's)."""
    root = _component_roots(layer.adjacency)
    roots, sizes = np.unique(root, return_counts=True)
    rank = np.empty(layer.n_nodes, np.int64)
    rank[roots[np.lexsort((roots, -sizes))]] = np.arange(roots.size)
    return roots.size, dict(zip(layer.nodes, rank[root].tolist()))


def _component_blocks(adj: sp.csr_matrix, root: np.ndarray):
    """Yield (node indices, adjacency) for groups of whole components.

    Components are packed in root order into groups of at most _BATCH_SIZE
    nodes, a larger component forming a group of its own. No shortest path
    crosses a group, and small components share one BFS batch.
    """
    order = np.argsort(root, kind="stable")
    adj = adj[order][:, order]
    ends = np.append(np.flatnonzero(np.diff(root[order])) + 1, order.size)
    start = 0
    for i, end in enumerate(ends):
        if i + 1 == ends.size or ends[i + 1] - start > _BATCH_SIZE:
            yield order[start:end], adj[start:end, start:end]
            start = end


def _bfs_batches(adj: sp.csr_matrix):
    """Level-synchronous BFS from every node, _BATCH_SIZE sources at a time.

    Yields (sources, dist, sigma, levels) per batch: int32 hop distances
    (-1 where unreached), shortest-path counts, and for each level the
    source columns that reached it. Columns drop out of the per-level
    sparse products once their BFS finishes, so a few high-eccentricity
    sources do not stall the whole batch.
    """
    n = adj.shape[0]
    for start in range(0, n, _BATCH_SIZE):
        sources = np.arange(start, min(start + _BATCH_SIZE, n))
        col = np.arange(sources.size)
        dist = np.full((n, sources.size), -1, np.int32)
        dist[sources, col] = 0
        sigma = np.zeros((n, sources.size))
        sigma[sources, col] = 1.0
        frontier = sigma.copy()
        active = col
        levels: list[np.ndarray] = []
        while True:
            paths = adj @ frontier
            new = (paths > 0.0) & (dist[:, active] < 0)
            alive = np.flatnonzero(new.any(axis=0))
            if alive.size == 0:
                break
            active, new, paths = active[alive], new[:, alive], paths[:, alive]
            rows, cols = np.nonzero(new)
            dist[rows, active[cols]] = len(levels) + 1
            sigma[rows, active[cols]] = paths[rows, cols]
            frontier = np.where(new, paths, 0.0)
            levels.append(active)
        yield sources, dist, sigma, levels


def _dependencies(adj: sp.csr_matrix, sources, dist, sigma, levels) -> np.ndarray:
    """Brandes backward pass over one BFS batch: each node's dependency
    summed over the batch's sources. Deepest level first; only the columns
    that reached a level take part in its product."""
    delta = np.zeros(dist.shape)
    for lvl in range(len(levels), 0, -1):
        act = levels[lvl - 1]
        dist_c, sigma_c, delta_c = dist[:, act], sigma[:, act], delta[:, act]
        coeff = np.zeros_like(sigma_c)
        np.divide(1.0 + delta_c, sigma_c, out=coeff, where=dist_c == lvl)
        delta_c += np.where(dist_c == lvl - 1, sigma_c * (adj @ coeff), 0.0)
        delta[:, act] = delta_c
    delta[sources, np.arange(sources.size)] = 0.0  # a source never sits between its own pairs
    return delta.sum(axis=1)


def betweenness(layer: NetworkLayer) -> dict[str, float]:
    """Unnormalized betweenness for every node, over unordered node pairs."""
    adj = layer.adjacency
    bc = np.zeros(layer.n_nodes)
    for nodes, block in _component_blocks(adj, _component_roots(adj)):
        for batch in _bfs_batches(block):
            bc[nodes] += _dependencies(block, *batch)
    return dict(zip(layer.nodes, (bc / 2.0).tolist()))  # ordered (s, t) -> unordered


def report(layer: NetworkLayer) -> LayerMetricsReport:
    """Remove isolated nodes, then average the local metrics and compute the
    global ones on the retained graph. An empty retained graph yields a
    zeroed report with the removal count preserved."""
    retained = remove_isolated(layer)
    keep = layer.degrees > 0
    adj = layer.adjacency[keep][:, keep]
    n = retained.n_nodes
    per_node = max(n, 1)  # with no nodes every sum below is 0, so the report is zeros
    root = _component_roots(adj)
    pairs_at = np.zeros(n, np.int64)  # pairs_at[d]: ordered node pairs d hops apart
    for _, block in _component_blocks(adj, root):
        for _, dist, _, _ in _bfs_batches(block):
            counts = np.bincount(dist[dist > 0])
            pairs_at[: counts.size] += counts
    hops = np.arange(1, n)

    return LayerMetricsReport(
        threshold=layer.threshold,
        n_nodes_retained=n,
        n_edges=retained.n_edges,
        n_isolated_removed=layer.n_nodes - n,
        avg_closeness=math.fsum(pairs_at[1:] / hops) / per_node,
        avg_betweenness=int(pairs_at[1:] @ (hops - 1)) / (2 * per_node),
        avg_degree=2 * retained.n_edges / per_node,
        avg_clustering=math.fsum(_local_clustering(adj)) / per_node,
        density=density(retained),
        n_components=int(np.count_nonzero(root == np.arange(n))),
    )


_REPORT_FIELDS = (
    "threshold",
    "n_nodes_retained",
    "n_edges",
    "n_isolated_removed",
    "avg_closeness",
    "avg_betweenness",
    "avg_degree",
    "avg_clustering",
    "density",
    "n_components",
)


def reports_to_csv_bytes(reports: Sequence[LayerMetricsReport]) -> bytes:
    """One CSV row per layer, columns named after the report fields."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_REPORT_FIELDS)
    for rep in reports:
        row = asdict(rep)
        writer.writerow([repr(row[f]) if isinstance(row[f], float) else row[f] for f in _REPORT_FIELDS])
    return buf.getvalue().encode("utf-8")


def reports_to_json_bytes(reports: Iterable[LayerMetricsReport]) -> bytes:
    """JSON array with one object per layer, keys exactly the report fields."""
    payload = [asdict(rep) for rep in reports]
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
