"""Per-layer network metric suite.

Local metrics (closeness, betweenness, degree, clustering) are defined per
node and averaged over the layer; global metrics (density, connected
components) describe the whole graph. Reports describe the connected part
of a layer but measure the layer in place: an isolated node is a one-node
component with no distances and no triangles, so it adds to no sum. Every
kernel reads the layer's CSR adjacency and component roots, each built
once per layer, and each per-node function returns the values of all nodes
at once, as a node -> value map, from the same kernel :func:`report` averages.

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
of shortest-path betweenness centrality"). So one batched forward BFS,
run over groups of whole components, yields hop distances only: the report
counts them, closeness sums their reciprocals, and :func:`betweenness`
rebuilds the shortest-path counts σ from them inside its Brandes pass, the
only place σ exists. Clustering comes from triangle counts, the
row sums of (A·A)∘A, for :func:`clustering` and :func:`report` alike.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, astuple, dataclass, fields
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
    for nodes, _, sources, dist in _bfs_batches(layer):
        reciprocal = np.divide(1.0, dist, out=np.zeros(dist.shape), where=dist > 0)
        values[nodes[sources]] = reciprocal.sum(axis=0)
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


def components(layer: NetworkLayer) -> tuple[int, dict[str, int]]:
    """Connected components; ids ordered by decreasing size, then smallest
    contained node id (``layer.nodes`` is sorted, so that id is the root's)."""
    roots, sizes = np.unique(layer.roots, return_counts=True)
    rank = np.empty(layer.n_nodes, np.int64)
    rank[roots[np.lexsort((roots, -sizes))]] = np.arange(roots.size)
    return roots.size, dict(zip(layer.nodes, rank[layer.roots].tolist()))


def _component_blocks(layer: NetworkLayer):
    """Yield (node indices, adjacency) for groups of whole components.

    Components with an edge are packed in root order into groups of at most
    _BATCH_SIZE nodes, a larger component forming a group of its own; an
    isolated node has no distances and joins no group. No shortest path
    crosses a group, and small components share one BFS batch.
    """
    order = np.argsort(layer.roots, kind="stable")
    order = order[layer.degrees[order] > 0]
    adj = layer.adjacency[order][:, order]
    ends = np.append(np.flatnonzero(np.diff(layer.roots[order])) + 1, order.size)
    start = 0
    for i, end in enumerate(ends):
        if i + 1 == ends.size or ends[i + 1] - start > _BATCH_SIZE:
            yield order[start:end], adj[start:end, start:end]
            start = end


def _bfs_batches(layer: NetworkLayer):
    """Level-synchronous BFS from every node with an edge, group by group
    and _BATCH_SIZE sources at a time.

    Yields (nodes, block, sources, dist) per batch: the group's node
    indices, its adjacency, the batch's source rows in it, and int32 hop
    distances (-1 where unreached).
    """
    for nodes, block in _component_blocks(layer):
        n = nodes.size
        for start in range(0, n, _BATCH_SIZE):
            sources = np.arange(start, min(start + _BATCH_SIZE, n))
            dist = np.full((n, sources.size), -1, np.int32)
            dist[sources, np.arange(sources.size)] = 0
            frontier, level = dist == 0, 0
            while frontier.any():
                level += 1
                frontier = (block @ frontier > 0) & (dist < 0)
                dist[frontier] = level
            yield nodes, block, sources, dist


def _dependencies(block: sp.csr_matrix, sources, dist) -> np.ndarray:
    """Brandes over one BFS batch: each node's dependency summed over the
    batch's sources. The shortest-path counts σ of each level are rebuilt
    from the hop distances, then the backward pass runs deepest level first."""
    depth = dist.max(initial=0)
    sigma = (dist == 0).astype(float)
    for lvl in range(1, depth + 1):
        sigma += np.where(dist == lvl, block @ np.where(dist == lvl - 1, sigma, 0.0), 0.0)
    delta = np.zeros(dist.shape)
    for lvl in range(depth, 0, -1):
        coeff = np.divide(1.0 + delta, sigma, out=np.zeros(dist.shape), where=dist == lvl)
        delta += np.where(dist == lvl - 1, sigma * (block @ coeff), 0.0)
    delta[sources, np.arange(sources.size)] = 0.0  # a source never sits between its own pairs
    return delta.sum(axis=1)


def betweenness(layer: NetworkLayer) -> dict[str, float]:
    """Unnormalized betweenness for every node, over unordered node pairs."""
    bc = np.zeros(layer.n_nodes)
    for nodes, block, sources, dist in _bfs_batches(layer):
        bc[nodes] += _dependencies(block, sources, dist)
    return dict(zip(layer.nodes, (bc / 2.0).tolist()))  # ordered (s, t) -> unordered


def report(layer: NetworkLayer) -> LayerMetricsReport:
    """Average the local metrics and compute the global ones over the nodes
    that have an edge. The layer is measured in place: an isolated node is a
    one-node component with no distances and no triangles, so it adds
    nothing to any sum. An empty retained graph yields a zeroed report with
    the removal count preserved."""
    retained = remove_isolated(layer)
    n = retained.n_nodes
    per_node = max(n, 1)  # with no nodes every sum below is 0, so the report is zeros
    pairs_at = np.zeros(n, np.int64)  # pairs_at[d]: ordered node pairs d hops apart
    for *_, dist in _bfs_batches(layer):
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
        avg_clustering=math.fsum(_local_clustering(layer.adjacency)) / per_node,
        density=density(retained),
        n_components=np.unique(layer.roots[layer.degrees > 0]).size,
    )


def reports_to_csv_bytes(reports: Sequence[LayerMetricsReport]) -> bytes:
    """One CSV row per layer, columns named after the report fields."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(field.name for field in fields(LayerMetricsReport))
    for rep in reports:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in astuple(rep)])
    return buf.getvalue().encode("utf-8")


def reports_to_json_bytes(reports: Iterable[LayerMetricsReport]) -> bytes:
    """JSON array with one object per layer, keys exactly the report fields."""
    payload = [asdict(rep) for rep in reports]
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
