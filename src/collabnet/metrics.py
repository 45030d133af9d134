"""Per-layer network metric suite.

Local metrics (closeness, betweenness, degree, clustering) are defined per
node and averaged over the layer; global metrics (density, connected
components) describe the whole graph. Reports describe the connected part
of a layer but measure the layer in place: an isolated node is a one-node
component with no distances and no triangles, so it adds to no sum. Every
kernel reads the layer's edge arrays, degrees and component ranks, and
builds each BFS pass group's CSR adjacency from that group's own edges;
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
of shortest-path betweenness centrality"). One bit-parallel BFS (Then et
al. 2015, "The More the Merrier: Efficient Multi-Source Graph Traversal")
keeps one bit per source in uint64 words, so a level is an OR over each
node's neighbours and c_d is its popcount; a row's count is an integer sum
of its words' bit counts, with no float product and no BLAS. Each step
gathers padded columns of length-sorted rows plus a tail of the longest
rows' excess (Bell & Garland 2009's hybrid ELLPACK layout, sorted as in
Kreutzer et al. 2014's SELL-C-σ). One walk over every pass and level
tallies a layer, and only counts: each row's popcount goes into one
integer hop table, at[d - 1, v] the nodes d hops from v, whose row sums are
the histogram; triangles are counted off each pass's first level, each
node's neighbours among the pass's sources: each edge (u, v) of the pass
closes popcount(level1[u] & level1[v]) triangles whose third corner is a
source, and the passes of a component cover all of its nodes. A node's
closeness sums at[d - 1, v] / d in hop order, however the passes fall.
:func:`report`, :func:`closeness` and :func:`clustering` all read that
tally, so :func:`clustering` alone also walks every level.
:func:`betweenness` rebuilds the shortest-path counts σ from the levels in
its own Brandes pass, the only place σ exists.

A layer that keeps every co-membered pair is the one-mode projection of the
project-member incidence: two projects are adjacent when they share a
member (Newman 2001, "Scientific collaboration networks"; Latapy, Magnien
& Del Vecchio 2008, "Basic notions for the analysis of large two-mode
networks"). When the layer carries the member teams, every level is two
half-steps over them instead of one OR over the projected edges: each
member's word is the OR of its projects' frontier words, then each
project's next level is the OR of its members' words, minus the bits
already seen. The teams list far fewer entries than the projected CSR, and
the levels are the same bits.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, astuple, dataclass, fields
from itertools import chain, compress
from typing import Iterable, Sequence

import numpy as np

from .layers import NetworkLayer, Pairs, _stable_order

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

_WORDS = 8  # uint64 words per BFS pass over a component of more than 64 nodes
_COLUMNS = 8  # padded columns per BFS step; entries past them go to a reduceat tail
_SOURCES = 16  # sources per Brandes run in betweenness()
_BLOCK_BYTES = 1 << 22  # gathered words per block of the triangle count, as render.lines


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
    """Drop degree-0 nodes and renumber the edge ends to the kept nodes;
    edges, threshold and provenance are unchanged."""
    keep = layer.degrees > 0
    index = np.cumsum(keep) - 1  # a kept node's index among the kept nodes
    nodes = tuple(compress(layer.nodes, keep))
    pairs = Pairs(nodes, index[layer.a], index[layer.b], layer.weight)
    return NetworkLayer(layer.threshold, pairs, layer.provenance)


def degree(layer: NetworkLayer) -> dict[str, int]:
    """Number of edges incident to each node."""
    return dict(zip(layer.nodes, layer.degrees.tolist()))


def closeness(layer: NetworkLayer) -> dict[str, float]:
    """Sum of reciprocal shortest-path distances from each node to every
    other node. Distances are unweighted hop counts; unreachable nodes add 0.
    Each node sums its count of nodes d hops away over d, nearest first."""
    reach = np.zeros(layer.n_nodes)
    for d, count in enumerate(_tally(layer)[0], 1):
        reach += count / d
    return dict(zip(layer.nodes, reach.tolist()))


def clustering(layer: NetworkLayer) -> dict[str, float]:
    """Fraction of possible triangles through each node."""
    return dict(zip(layer.nodes, _tally(layer)[1].tolist()))


def density(layer: NetworkLayer) -> float:
    """2m / (n * (n - 1)); 0 for graphs with fewer than two nodes."""
    n = layer.n_nodes
    if n < 2:
        return 0.0
    return 2.0 * layer.n_edges / (n * (n - 1))


def components(layer: NetworkLayer) -> tuple[int, dict[str, int]]:
    """Connected components: their count and each node's component id, by
    decreasing size, then smallest node id (``layer.component_rank``)."""
    rank = layer.component_rank
    return int(rank.max(initial=-1)) + 1, dict(zip(layer.nodes, rank.tolist()))


def _passes(layer: NetworkLayer):
    """Yield (nodes, ends, steps, frontiers) per group of BFS passes: node
    indices, the group's edges as the arrays (u, v) of their ends'
    positions in nodes, the :func:`_columns` of the CSRs one BFS step
    gathers through (see :func:`_levels`) and an iterator over the
    group's passes, each a (node, word) uint64 array with one bit per
    source. Every step is a :func:`_grouped` CSR: the group's adjacency,
    or, when the layer carries teams, two half-steps from the group's team
    entries, team -> nodes and node -> teams, the largest team first; nodes
    come by decreasing team count or degree, stably, so every step's rows
    are sorted by length. No row is empty: a team holds two or more nodes.

    A node's bit is its rank inside its own component. A group holds the
    components that need the same number of words, ceil(size / 64), and
    each window of 64 * _WORDS ranks is one pass over it: no path crosses
    a component, so their bits never meet, and an edge has both ends in a
    group or neither. Every component of a group reaches into each of its
    windows, and a node's windows come in rank order. Components of one
    node take no part, so every node of a group has an edge.
    """
    component = layer.component_rank
    counts = np.bincount(component)
    first = np.cumsum(counts) - counts  # where each component starts in component order
    order = _stable_order(component)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    rank -= first[component]  # each node's rank inside its own component
    size = counts[component]
    words = np.where(size > 1, -(-size // 64), 0)  # 0 for a one-node component
    teams = layer.teams
    length = layer.degrees if teams is None else np.bincount(teams[1], minlength=layer.n_nodes)
    if teams is not None:  # each team entry's team, numbered by decreasing size, stably
        team_size = np.diff(teams[0])
        team = np.empty_like(team_size)
        team[_stable_order(team_size.max(initial=0) - team_size)] = np.arange(team_size.size)
        team = np.repeat(team, team_size)
    longest = length.max(initial=0)
    a, b = layer.a, layer.b  # each read of a cut layer's edges is a copy
    position = np.empty(layer.n_nodes, np.int64)  # a group node's index among the group's
    for w in (np.flatnonzero(np.bincount(words)[1:]) + 1).tolist():
        inside = words == w
        nodes = np.flatnonzero(inside)
        nodes = nodes[_stable_order(longest - length[nodes])]
        position[nodes] = np.arange(nodes.size)
        cut = inside[a]  # the group's edges
        u, v = position[a[cut]], position[b[cut]]
        if teams is None:
            steps = (_grouped(np.concatenate([v, u]), np.concatenate([u, v]), nodes.size),)
        else:  # the group's team entries: a team lies wholly inside the group or out
            entry = inside[teams[1]]
            member, number = position[teams[1][entry]], team[entry]
            present = np.zeros(team_size.size, bool)
            present[number] = True
            local = (np.cumsum(present) - 1)[number]  # the group's teams, renumbered in order
            n_teams = np.count_nonzero(present)
            steps = _grouped(local, member, n_teams), _grouped(member, local, nodes.size)
        steps = tuple(_columns(*csr) for csr in steps)
        yield nodes, (u, v), steps, _frontiers(rank[nodes], w)


def _frontiers(rank: np.ndarray, words: int):
    """The source bits of each window of 64 * _WORDS of the ``rank``s, which
    all lie below 64 * ``words``: one (node, word) uint64 array per window."""
    for start in range(0, 64 * words, 64 * _WORDS):
        window = rank - start
        sources = np.flatnonzero((window >= 0) & (window < 64 * _WORDS))
        yield _bits(sources, window[sources], rank.size)


def _grouped(keys: np.ndarray, values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The CSR ``(indptr, indices)`` whose row k lists the ``values`` of
    key k, in their given order, for keys below ``n``.

    Given a group's edge ends (u, v), keys v then u and values u then v
    list each node's neighbours once per edge; the edges are in canonical
    (a, b) order, so each row's neighbours come in ascending node index."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys, minlength=n))])
    return indptr, values[_stable_order(keys)]


def _rows(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut the CSR rows ``rows``: their own indptr ``sub`` and, per entry,
    its position in the full CSR's indices (entry k of the cut, in row i,
    is entry k + indptr[rows[i]] - sub[i] there)."""
    size = indptr[rows + 1] - indptr[rows]
    sub = np.concatenate([[0], np.cumsum(size)])
    return sub, np.repeat(indptr[rows] - sub[:-1], size) + np.arange(sub[-1])


def _bits(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """An (n, words) uint64 array with bit cols[i] set in row rows[i]."""
    bits = np.zeros((n, cols.max() // 64 + 1), np.uint64)
    bits[rows, cols // 64] = np.uint64(1) << (cols % 64).astype(np.uint64)
    return bits


def _columns(indptr: np.ndarray, indices: np.ndarray):
    """Split a CSR whose rows are sorted by decreasing length: column j <
    _COLUMNS lists entry j of each row that has one, a prefix of the rows,
    and a tail CSR the entries past _COLUMNS of the rows longer than that."""
    size = np.diff(indptr)
    columns = [indices[indptr[: np.count_nonzero(size > j)] + j] for j in range(_COLUMNS)]
    over = size[size > _COLUMNS] - _COLUMNS
    place = np.arange(indices.size) - np.repeat(indptr[:-1], size)  # within its row
    tail = np.concatenate([[0], np.cumsum(over)]), indices[place >= _COLUMNS]
    return [column for column in columns if column.size], tail


def _step(step, frontier: np.ndarray) -> np.ndarray:
    """Row i of the result is the OR of the ``frontier`` rows that row i of
    a :func:`_columns` step lists: one gather per column, each ORed into
    the rows it reaches, then one reduceat over the gathered tail."""
    columns, (indptr, indices) = step
    out = frontier.take(columns[0], axis=0)
    for column in columns[1:]:
        out[: column.size] |= frontier.take(column, axis=0)
    if indices.size:
        gathered = frontier.take(indices, axis=0)
        out[: indptr.size - 1] |= np.bitwise_or.reduceat(gathered, indptr[:-1], axis=0)
    return out


def _levels(steps, frontier: np.ndarray):
    """Bit-parallel BFS from every source bit at once: yield, hop 1 first,
    each level's (node, word) bits of the pairs first reached at that hop.

    A step gathers through each CSR of ``steps`` in turn (:func:`_step`),
    row i taking the OR of the bits of its entries. Over the pass's
    adjacency, one CSR, that reaches each node's neighbours. Over its
    teams, two half-steps, each team ORs its nodes' bits and then each node
    its teams': that reaches the node's neighbours and the node itself,
    which ``seen`` holds. Every row needs an entry: column 0 sizes the
    result, and reduceat gives a[i], not 0, for an empty tail row."""
    seen = frontier.copy()
    while True:
        for step in steps:
            frontier = _step(step, frontier)
        frontier &= ~seen
        if not frontier.any():
            return
        seen |= frontier
        yield frontier


def _tally(layer: NetworkLayer) -> tuple[np.ndarray, np.ndarray]:
    """One walk over every pass and level: (at, clustering).

    at[d - 1, v] counts the nodes d hops from v: row v of a level holds
    the sources d hops from v, and d(s, v) = d(v, s). At hop 1 the level
    holds each node's neighbours among the sources, so each edge (u, v) of
    the pass closes popcount(level[u] & level[v]) triangles at both ends,
    counted a block of about _BLOCK_BYTES of gathered words at a time. Each
    count is an integer sum of a row's word bit counts (no BLAS), so the
    table is the same whatever the pass plan. A node's clustering is
    2*T(v) / (deg*(deg-1)), 0 below degree 2."""
    at = []  # one row per hop, appended as the walk first goes that deep
    links = np.zeros(layer.n_nodes)  # 2 * triangles at each node
    for nodes, (u, v), steps, frontiers in _passes(layer):
        for frontier in frontiers:
            block = _BLOCK_BYTES // frontier[0].nbytes  # edges per block of the triangle count
            for d, level in enumerate(_levels(steps, frontier), 1):
                if d == 1:
                    for lo in range(0, u.size, block):
                        ends = u[lo : lo + block], v[lo : lo + block]
                        both = level.take(ends[0], axis=0)
                        both &= level.take(ends[1], axis=0)
                        shared = np.einsum("ij->i", np.bitwise_count(both), dtype=np.uint16)
                        for end in ends:
                            links[nodes] += np.bincount(end, shared, nodes.size)
                if d > len(at):
                    at.append(np.zeros(layer.n_nodes, np.int64))
                at[d - 1][nodes] += np.einsum("ij->i", np.bitwise_count(level), dtype=np.uint16)
    deg = layer.degrees
    local = np.divide(links, deg * (deg - 1), out=np.zeros(deg.size), where=deg > 1)
    return np.array(at, np.int64).reshape(len(at), layer.n_nodes), local


def _dependencies(block: tuple[np.ndarray, np.ndarray], dist: np.ndarray) -> np.ndarray:
    """Brandes over some sources of one BFS pass: each node's dependency
    summed over the sources, the rows of ``dist``, their (source, node) hop
    distances. σ is rebuilt level by level, then the backward pass runs
    deepest level first; each (source, node) cell sums over its neighbours
    once per pass. A neighbour is at most one level away and levels are
    filled in order, so only the neighbours on the level a cell reads from
    hold a value yet: the sums need no mask."""
    indptr, indices = block
    n = dist.shape[1]
    dist = dist.ravel()  # cell s * n + v: node v seen from source s
    depth = dist.max(initial=0)
    cells = [np.flatnonzero(dist == lvl) for lvl in range(depth + 1)]
    around = {}  # level -> its cells' neighbour cells, and where each cell's run starts
    for lvl in range(1, depth + 1):
        source, node = np.divmod(cells[lvl], n)
        sub, entries = _rows(indptr, node)
        around[lvl] = np.repeat(source * n, np.diff(sub)) + indices[entries], sub[:-1]

    sigma = (dist == 0).astype(float)
    for lvl in range(1, depth + 1):
        nbr, starts = around[lvl]
        sigma[cells[lvl]] = np.add.reduceat(sigma[nbr], starts)
    coeff = np.zeros(dist.size)  # (1 + δ) / σ
    delta = np.zeros(dist.size)  # a source's own cell keeps 0
    for lvl in range(depth, 1, -1):
        here, below = cells[lvl], cells[lvl - 1]
        coeff[here] = (1.0 + delta[here]) / sigma[here]
        nbr, starts = around[lvl - 1]
        delta[below] = sigma[below] * np.add.reduceat(coeff[nbr], starts)
    return delta.reshape(-1, n).sum(axis=0)


def betweenness(layer: NetworkLayer) -> dict[str, float]:
    """Unnormalized betweenness for every node, over unordered node pairs.

    Brandes runs _SOURCES sources of a pass at a time: it holds one
    neighbour cell per adjacency entry and source, so a 512-source pass
    over a component of 77,000 entries would hold 316 MB at once."""
    bc = np.zeros(layer.n_nodes)
    for nodes, (u, v), steps, frontiers in _passes(layer):
        block = _grouped(np.concatenate([v, u]), np.concatenate([u, v]), nodes.size)
        for frontier in frontiers:
            dist = np.full((64 * frontier.shape[1], nodes.size), -1, np.int32)
            for d, level in enumerate(chain([frontier], _levels(steps, frontier))):
                dist[np.unpackbits(level.view(np.uint8), axis=1, bitorder="little").T > 0] = d
            for start in range(0, dist.shape[0], _SOURCES):
                bc[nodes] += _dependencies(block, dist[start : start + _SOURCES])
    return dict(zip(layer.nodes, (bc / 2.0).tolist()))  # ordered (s, t) -> unordered


def report(layer: NetworkLayer) -> LayerMetricsReport:
    """Average the local metrics and compute the global ones over the nodes
    that have an edge. The layer is measured in place: an isolated node is a
    one-node component with no distances and no triangles, so it adds
    nothing to any sum. An empty retained graph yields a zeroed report with
    the removal count preserved."""
    n = int(np.count_nonzero(layer.degrees))
    m = layer.n_edges
    per_node = max(n, 1)  # with no nodes every sum below is 0, so the report is zeros
    at, local_clustering = _tally(layer)
    pairs_at = at.sum(axis=1)  # the ordered node pairs at each hop distance
    hops = np.arange(1, len(at) + 1)

    return LayerMetricsReport(
        threshold=layer.threshold,
        n_nodes_retained=n,
        n_edges=m,
        n_isolated_removed=layer.n_nodes - n,
        avg_closeness=math.fsum((pairs_at / hops).tolist()) / per_node,
        avg_betweenness=int(pairs_at @ (hops - 1)) / (2 * per_node),
        avg_degree=2 * m / per_node,
        avg_clustering=math.fsum(local_clustering.tolist()) / per_node,
        density=2.0 * m / (n * (n - 1)) if n > 1 else 0.0,
        n_components=int(np.count_nonzero(np.bincount(layer.component_rank) > 1)),
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
