"""Output check that does not use collabnet's code.

Everything here is recomputed from the generated CSV with the csv module,
numpy, scipy.sparse.csgraph and networkx:

* pair linkage in exact integer arithmetic from sparse products: with B the
  project x member 0/1 pattern and U the contributions in units of 1e-4
  percent, a pair's common-member count is (B.Bt)[a, b] and twice its
  linkage numerator is (U.Bt + B.Ut)[a, b]. The pair set comes from B.Bt,
  because a sparse product drops exact-zero sums and 0% is legal input.
* a pair whose exact linkage equals a threshold is a tie: the program
  computes linkage in floating point, so a tie whose contributions are not
  exact in binary may land on either side. The exported edge set must hold
  every pair above the threshold and every tie computed exactly, and no
  pair below the threshold. Every count and average is then recomputed
  from that verified edge set.
* the two centrality averages come from the hop-distance histogram c_d of
  ordered connected pairs (``csgraph.shortest_path``):
  avg_closeness = sum(c_d / d) / n and avg_betweenness =
  sum(c_d * (d - 1)) / (2 n). Clustering comes from sparse triangle
  counts, cross-checked against ``networkx.average_clustering``, and
  components from ``csgraph.connected_components``.

The acceptance suite compares per-node values with absolute tolerances
(1e-9 betweenness, 1e-12 closeness, exact clustering). Averages summed in
another order differ in the last digits, so those tolerances apply here
relative to max(1, |value|).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

PCT_UNITS = 10_000
TOLERANCE = {
    "avg_closeness": 1e-12,
    "avg_betweenness": 1e-9,
    "avg_clustering": 1e-12,
    "avg_degree": 1e-12,
    "density": 1e-12,
}
INT_COLUMNS = ("n_nodes_retained", "n_edges", "n_isolated_removed", "n_components")
_SOURCE_CHUNK = 256  # sources per shortest_path call, bounds the dense block
_BATCH_NODES = 1024  # small components are measured together up to this size


def _close(value: float, expected: float, tol: float) -> bool:
    return abs(value - expected) <= tol * max(1.0, abs(expected))


@dataclass(frozen=True)
class InputTable:
    """The generated CSV, parsed by the benchmark itself."""

    rows: int
    project_ids: list[str]  # sorted
    member_ids: list[str]  # sorted
    row_project: np.ndarray
    row_member: np.ndarray
    pct: np.ndarray  # as float, in input order
    pct_units: np.ndarray
    ic: np.ndarray  # present values only, in input order

    @classmethod
    def parse(cls, data: bytes) -> "InputTable":
        reader = csv.DictReader(io.StringIO(data.decode("utf-8-sig")))
        pids, mids, pct, ic = [], [], [], []
        for row in reader:
            pids.append(row["project_id"])
            mids.append(row["member_id"])
            pct.append(float(row["contribution_pct"]))
            if row["ic_score"]:
                ic.append(float(row["ic_score"]))
        project_ids, row_project = np.unique(np.array(pids), return_inverse=True)
        member_ids, row_member = np.unique(np.array(mids), return_inverse=True)
        pct_arr = np.array(pct)
        return cls(
            rows=len(pids),
            project_ids=project_ids.tolist(),
            member_ids=member_ids.tolist(),
            row_project=row_project,
            row_member=row_member,
            pct=pct_arr,
            pct_units=np.rint(pct_arr * PCT_UNITS).astype(np.int64),
            ic=np.array(ic),
        )


class PairLinkage:
    """Every co-membered pair with its exact linkage as a ratio of integers."""

    def __init__(self, table: InputTable):
        shape = (len(table.project_ids), len(table.member_ids))
        ones = np.ones(table.rows, dtype=np.int64)
        pattern = sp.csr_matrix((ones, (table.row_project, table.row_member)), shape=shape)
        units = sp.csr_matrix((table.pct_units, (table.row_project, table.row_member)), shape=shape)
        common = sp.triu(pattern @ pattern.T, k=1).tocoo()
        self.n_nodes = shape[0]
        self.a = common.row.astype(np.int64)
        self.b = common.col.astype(np.int64)
        self.n_common = common.data.astype(np.int64)
        side_a = (units @ pattern.T).tocsr()
        self.numerator = (  # 2 * n_common * linkage, in PCT_UNITS
            np.asarray(side_a[self.a, self.b]).ravel()
            + np.asarray(side_a[self.b, self.a]).ravel()
        ).astype(np.int64)
        # A contribution that is a multiple of 1/16 is exact in binary, and so
        # is every sum and halving of such values; when all of a pair's common
        # contributions are, floating point computes its linkage exactly.
        inexact = sp.csr_matrix(
            ((table.pct_units % 625 != 0).astype(np.int64), (table.row_project, table.row_member)),
            shape=shape,
        )
        side_inexact = (inexact @ pattern.T).tocsr()
        self.exact = (
            np.asarray(side_inexact[self.a, self.b]).ravel()
            + np.asarray(side_inexact[self.b, self.a]).ravel()
        ) == 0
        self.keys = self.a * self.n_nodes + self.b
        order = np.argsort(self.keys)
        self.keys, self.a, self.b = self.keys[order], self.a[order], self.b[order]
        self.n_common, self.numerator = self.n_common[order], self.numerator[order]
        self.exact = self.exact[order]

    def __len__(self) -> int:
        return len(self.keys)

    def side_of(self, threshold: int) -> np.ndarray:
        """+1 above the threshold, 0 tie, -1 below, per pair."""
        return np.sign(self.numerator - 2 * self.n_common * threshold * PCT_UNITS)


def _export_edges(data: bytes, fmt: str) -> list[tuple[str, str]]:
    if fmt == "json":
        return [(e["source"], e["target"]) for e in json.loads(data)["graph"]["edges"]]
    if fmt == "graphml":
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        root = ET.fromstring(data)
        return [(e.get("source"), e.get("target")) for e in root.iter(ns + "edge")]
    raise ValueError(f"no edge reader for format {fmt!r}")


def hop_histogram(adj: sp.csr_matrix) -> np.ndarray:
    """c_d: ordered pairs of distinct, connected nodes at hop distance d."""
    n_comp, labels = csgraph.connected_components(adj, directed=False)
    order = np.argsort(labels, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=n_comp))))
    hist = np.zeros(2, dtype=np.int64)
    start = 0
    for c in range(1, n_comp + 1):
        if c < n_comp and bounds[c + 1] - bounds[start] <= _BATCH_NODES:
            continue
        nodes = order[bounds[start] : bounds[c]]
        sub = adj[nodes][:, nodes]
        for lo in range(0, len(nodes), _SOURCE_CHUNK):
            dist = csgraph.shortest_path(
                sub,
                directed=False,
                unweighted=True,
                indices=np.arange(lo, min(lo + _SOURCE_CHUNK, len(nodes))),
            )
            hops = dist[np.isfinite(dist) & (dist > 0)].astype(np.int64)
            counts = np.bincount(hops)
            if len(counts) > len(hist):
                hist = np.concatenate((hist, np.zeros(len(counts) - len(hist), np.int64)))
            hist[: len(counts)] += counts
        start = c
    return hist


def layer_metrics(n_nodes: int, a: np.ndarray, b: np.ndarray, cross_check: bool) -> dict:
    """The report columns of one layer from its edge list (node indices),
    plus ``giant_nodes``, the largest component's size (isolated nodes are
    components of one).

    Clustering comes from triangle counts, diag(A^3) as row sums of
    (A.A) * A; with ``cross_check`` it is also taken from networkx, under
    the key ``avg_clustering_networkx``.
    """
    degree = np.bincount(np.concatenate((a, b)), minlength=n_nodes)
    retained = np.flatnonzero(degree)
    n = len(retained)
    m = len(a)
    out: dict[str, float] = {
        "n_nodes_retained": n,
        "n_edges": m,
        "n_isolated_removed": n_nodes - n,
    }
    if n == 0:
        return out | {k: 0.0 for k in TOLERANCE} | {"n_components": 0, "giant_nodes": 1}
    local = np.full(n_nodes, -1, dtype=np.int64)
    local[retained] = np.arange(n)
    la, lb = local[a], local[b]
    adj = sp.csr_matrix((np.ones(m), (la, lb)), shape=(n, n))
    adj = (adj + adj.T).tocsr()
    hist = hop_histogram(adj)
    d = np.arange(len(hist), dtype=float)
    k = degree[retained].astype(float)
    links = np.asarray((adj @ adj).multiply(adj).sum(axis=1)).ravel()  # 2 * triangles
    pairs = k * (k - 1)
    clustering = np.divide(links, pairs, out=np.zeros(n), where=pairs > 0)
    n_comp, labels = csgraph.connected_components(adj, directed=False)
    out |= {
        "n_components": n_comp,
        "giant_nodes": int(np.bincount(labels).max()),
        "avg_closeness": float((hist[1:] / d[1:]).sum()) / n,
        "avg_betweenness": float((hist[1:] * (d[1:] - 1)).sum()) / (2 * n),
        "avg_clustering": float(clustering.sum()) / n,
        "avg_degree": 2 * m / n,
        "density": 2 * m / (n * (n - 1)) if n > 1 else 0.0,
    }
    if cross_check:
        graph = nx.Graph()
        graph.add_edges_from(zip(la.tolist(), lb.tolist()))
        out["avg_clustering_networkx"] = nx.average_clustering(graph)
    return out


def check_manifest(hashes: dict[str, str], manifest_bytes: bytes) -> list[str]:
    """Every output file is listed in the manifest with a matching sha256."""
    listed = json.loads(manifest_bytes)["artifacts"]
    files = set(hashes) - {"manifest.json"}
    problems = [f"{name}: not in manifest" for name in sorted(files - set(listed))]
    problems += [f"{name}: listed but missing" for name in sorted(set(listed) - files)]
    problems += [
        f"{name}: sha256 differs from manifest"
        for name in sorted(files & set(listed))
        if listed[name] != hashes[name]
    ]
    return problems


def check_build(
    out_dir: Path,
    table: InputTable,
    links: PairLinkage,
    thresholds,
    fmt: str,
    cross_check: bool = False,
    counts_out: dict | None = None,
) -> list[str]:
    """All problems found in one build's output directory; empty when correct.

    ``cross_check`` also compares the first layer's clustering with
    networkx, which is slow at full size, so a run does it once.
    ``counts_out`` receives the input's counts and each layer's verified
    counts, under the benchmark's per-layer metric names."""
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    if "manifest.json" not in files or "metrics.csv" not in files:
        return ["manifest.json or metrics.csv missing"]
    hashes = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    problems = check_manifest(hashes, files["manifest.json"])
    layer_files = sorted(name for name in files if name.startswith("layer_"))
    if len(layer_files) != len(thresholds):
        return problems + [f"{len(layer_files)} layer files for {len(thresholds)} thresholds"]
    rows = list(csv.DictReader(io.StringIO(files["metrics.csv"].decode())))
    if len(rows) != len(thresholds):
        return problems + [f"metrics.csv has {len(rows)} rows for {len(thresholds)} layers"]
    edges = [int(r["n_edges"]) for r in rows]
    if any(later > earlier for earlier, later in zip(edges, edges[1:])):
        problems.append(f"n_edges increases across layers: {edges}")

    index = {pid: i for i, pid in enumerate(table.project_ids)}
    counts = input_counts(table) | {
        "linkage.pairs": len(links),
        "export.bytes": sum(len(files[name]) for name in layer_files),
    }
    projects_per_member = np.bincount(table.row_member).astype(np.int64)
    visits = int((projects_per_member * (projects_per_member - 1) // 2).sum())
    counts["linkage.candidate_visits"] = visits
    counts["linkage.useful_ratio"] = len(links) / visits if visits else 0.0
    for i, (t, name, row) in enumerate(zip(thresholds, layer_files, rows)):
        if float(row["threshold"]) != t:
            problems.append(f"{name}: threshold {row['threshold']} != {t}")
        pairs = _export_edges(files[name], fmt)
        ea = np.array([index[min(p)] for p in pairs], dtype=np.int64)
        eb = np.array([index[max(p)] for p in pairs], dtype=np.int64)
        pos = np.searchsorted(links.keys, ea * links.n_nodes + eb)
        pos = np.minimum(pos, len(links) - 1)
        known = links.keys[pos] == ea * links.n_nodes + eb
        side = links.side_of(t)
        in_layer = np.zeros(len(links), dtype=bool)
        in_layer[pos[known]] = True
        if not known.all() or len(np.unique(pos)) != len(pos):
            problems.append(f"{name}: edges that are not distinct co-membered pairs")
        required = (side > 0) | ((side == 0) & links.exact)
        if (side[in_layer] < 0).any() or not in_layer[required].all():
            problems.append(f"{name}: edge set differs from exact linkage >= {t}")
        expected = layer_metrics(links.n_nodes, ea, eb, cross_check and name == layer_files[0])
        counts[f"metrics.edges.l{i:02d}"] = expected["n_edges"]
        counts[f"metrics.retained_nodes.l{i:02d}"] = expected["n_nodes_retained"]
        counts[f"metrics.n_components.l{i:02d}"] = expected["n_components"]
        counts[f"metrics.giant_nodes.l{i:02d}"] = expected["giant_nodes"]
        for col in INT_COLUMNS:
            if int(row[col]) != expected[col]:
                problems.append(f"{name}: {col} {row[col]} != {expected[col]}")
        for col, tol in TOLERANCE.items():
            if not _close(float(row[col]), expected[col], tol):
                problems.append(f"{name}: {col} {row[col]} != {expected[col]!r}")
        nx_value = expected.get("avg_clustering_networkx")
        if nx_value is not None and not _close(float(row["avg_clustering"]), nx_value, 1e-12):
            problems.append(f"{name}: avg_clustering {row['avg_clustering']} != networkx {nx_value!r}")
    problems += check_stats(files, table)
    counts["layers.edges_total"] = sum(
        counts[f"metrics.edges.l{i:02d}"] for i in range(len(thresholds))
    )
    if counts_out is not None:
        counts_out.update(counts)
    return problems


def input_counts(table: InputTable) -> dict[str, int]:
    return {
        "ingest.records": table.rows,
        "ingest.projects": len(table.project_ids),
        "ingest.members": len(table.member_ids),
    }


def check_stats(files: dict[str, bytes], table: InputTable) -> list[str]:
    """Problems in the build's stats summaries and histograms, recomputed
    from the CSV."""
    wanted = {"stats_contribution_pct.csv", "stats_ic_score.csv", "stats_summary.json"}
    if not wanted <= set(files):
        return [f"stats files missing: {sorted(wanted - set(files))}"]
    summary = json.loads(files["stats_summary.json"])
    problems = []
    for feature, values in (("contribution_pct", table.pct), ("ic_score", table.ic)):
        got = summary[feature]
        counts, _ = np.histogram(values, bins=got["n_bins"])
        want = {
            "count": len(values),
            "mean": values.mean(),
            "std_dev": values.std(),
            "min": values.min(),
            "max": values.max(),
        }
        problems += [
            f"stats {feature} {key}: {got[key]!r} != {value!r}"
            for key, value in want.items()
            if not _close(got[key], value, 1e-12)
        ]
        hist = list(csv.DictReader(io.StringIO(files[f"stats_{feature}.csv"].decode())))
        if [int(r["count"]) for r in hist] != counts.tolist():
            problems.append(f"stats {feature}: histogram counts differ")
    return problems
