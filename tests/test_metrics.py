from __future__ import annotations

import dataclasses
import json
import random
from itertools import combinations

import pytest

from collabnet import metrics
from collabnet.metrics import (
    LayerMetricsReport,
    betweenness,
    closeness,
    clustering,
    components,
    degree,
    density,
    remove_isolated,
    report,
    reports_to_csv_bytes,
    reports_to_json_bytes,
)
from oracles import (
    adjacency_of,
    betweenness_oracle,
    closeness_oracle,
    clustering_oracle,
    components_oracle,
    make_layer,
    random_layer,
)

PATH3 = make_layer("abc", [("a", "b"), ("b", "c")])
TRIANGLE = make_layer("abc", [("a", "b"), ("b", "c"), ("a", "c")])
STAR3 = make_layer("cxyz", [("c", "x"), ("c", "y"), ("c", "z")])
TWO_EDGES = make_layer("abcd", [("a", "b"), ("c", "d")])


def test_remove_isolated():
    layer = make_layer("abcde", [("a", "b"), ("b", "c"), ("a", "c")])
    kept = remove_isolated(layer)
    assert kept.nodes == ("a", "b", "c")
    assert kept.edges == layer.edges

    edgeless = make_layer("ab", [])
    assert remove_isolated(edgeless).nodes == ()

    assert remove_isolated(TRIANGLE).nodes == TRIANGLE.nodes


def test_closeness_path():
    assert closeness(PATH3) == {"a": 1.5, "b": 2.0, "c": 1.5}


def test_closeness_unreachable_contributes_zero():
    assert closeness(TWO_EDGES) == dict.fromkeys(TWO_EDGES.nodes, 1.0)


def test_betweenness_path():
    assert betweenness(PATH3) == {"a": 0.0, "b": 1.0, "c": 0.0}


def test_betweenness_triangle():
    assert betweenness(TRIANGLE) == {"a": 0.0, "b": 0.0, "c": 0.0}


def test_betweenness_star():
    values = betweenness(STAR3)
    assert values["c"] == 3.0
    assert values["x"] == values["y"] == values["z"] == 0.0


def test_degree():
    assert degree(TRIANGLE) == {"a": 2, "b": 2, "c": 2}
    assert degree(make_layer("ab", [])) == {"a": 0, "b": 0}
    assert degree(STAR3) == {"c": 3, "x": 1, "y": 1, "z": 1}


def test_clustering():
    assert clustering(TRIANGLE) == {"a": 1.0, "b": 1.0, "c": 1.0}
    assert clustering(STAR3) == {"c": 0.0, "x": 0.0, "y": 0.0, "z": 0.0}
    hub = make_layer("vabc", [("v", "a"), ("v", "b"), ("v", "c"), ("a", "b")])
    assert clustering(hub)["v"] == pytest.approx(1.0 / 3.0)
    assert clustering(PATH3)["a"] == 0.0  # degree < 2 convention


def test_density():
    assert density(TRIANGLE) == 1.0
    assert density(PATH3) == pytest.approx(2.0 / 3.0)
    assert density(make_layer("a", [])) == 0.0


def test_density_at_reported_scale():
    # 626 nodes with 5220 edges: 2*5220 / (626*625)
    nodes = [f"n{i:03d}" for i in range(626)]
    edges = []
    for a, b in combinations(nodes, 2):
        edges.append((a, b))
        if len(edges) == 5220:
            break
    layer = make_layer(nodes, edges)
    assert density(layer) == pytest.approx(2 * 5220 / (626 * 625), rel=1e-12)
    assert round(density(layer), 4) == 0.0267


def test_components_basic():
    count, membership = components(TWO_EDGES)
    assert count == 2
    assert membership["a"] == membership["b"]
    assert membership["c"] == membership["d"]

    assert components(TRIANGLE)[0] == 1


def test_components_ordered_by_size_then_id():
    layer = make_layer("abcde", [("a", "b"), ("a", "c"), ("d", "e")])
    count, membership = components(layer)
    assert count == 2
    assert membership["a"] == membership["b"] == membership["c"] == 0
    assert membership["d"] == membership["e"] == 1

    tied = make_layer("abcd", [("c", "d"), ("a", "b")])
    _, members = components(tied)
    assert members["a"] == 0  # equal sizes: smallest contained id first
    assert members["c"] == 1


def test_report_triangle():
    rep = report(TRIANGLE)
    assert rep.n_nodes_retained == 3
    assert rep.avg_degree == 2.0
    assert rep.avg_clustering == 1.0
    assert rep.density == 1.0
    assert rep.n_components == 1
    assert rep.avg_betweenness == 0.0


def test_report_path_closeness():
    assert report(PATH3).avg_closeness == pytest.approx(5.0 / 3.0)


def test_report_isolated_only():
    layer = make_layer("abc", [])
    rep = report(layer)
    assert rep.n_nodes_retained == 0
    assert rep.n_isolated_removed == 3
    assert rep.avg_closeness == rep.avg_betweenness == rep.avg_degree == 0.0
    assert rep.avg_clustering == rep.density == 0.0
    assert rep.n_components == 0


def test_report_removes_isolated_before_metrics():
    with_isolated = make_layer("abcz", [("a", "b"), ("b", "c")])
    rep = report(with_isolated)
    assert rep.n_isolated_removed == 1
    assert rep.n_nodes_retained == 3
    assert rep.avg_closeness == pytest.approx(5.0 / 3.0)
    assert rep.density == pytest.approx(2.0 / 3.0)


def _without_removal_count(rep: LayerMetricsReport) -> LayerMetricsReport:
    return dataclasses.replace(rep, n_isolated_removed=0)


def test_metrics_match_oracles_on_random_graphs():
    rng = random.Random(42)
    for _ in range(60):
        layer = random_layer(rng)
        adj = adjacency_of(layer)
        bc, cl, cc = betweenness(layer), closeness(layer), clustering(layer)
        oracle_bc = betweenness_oracle(adj)
        assert list(bc) == list(cl) == list(cc) == list(layer.nodes)
        for v in layer.nodes:
            assert bc[v] == pytest.approx(oracle_bc[v], abs=1e-9)
            assert cl[v] == pytest.approx(closeness_oracle(adj, v), abs=1e-12)
            assert cc[v] == clustering_oracle(adj, v)
        assert components(layer)[0] == components_oracle(adj)

        rep = report(layer)
        assert _without_removal_count(rep) == _without_removal_count(report(remove_isolated(layer)))
        retained = remove_isolated(layer).nodes
        assert rep.n_nodes_retained == len(retained)
        assert rep.n_components == components_oracle(adjacency_of(remove_isolated(layer)))
        if not retained:
            continue
        n = len(retained)
        assert rep.avg_betweenness == pytest.approx(
            sum(oracle_bc[v] for v in retained) / n, abs=1e-9
        )
        for field, oracle in (
            ("avg_closeness", closeness_oracle),
            ("avg_clustering", clustering_oracle),
            ("avg_degree", lambda adj, v: len(adj[v])),
        ):
            expected = sum(oracle(adj, v) for v in retained) / n
            assert getattr(rep, field) == pytest.approx(expected, abs=1e-12)


def _layer_with_components(rng: random.Random) -> tuple:
    """300-600 nodes in components of sizes 1 to ~300, each a random
    spanning tree plus a few chords, so BFS runs many levels deep; node
    ids are shuffled so no component is a contiguous id range."""
    n = rng.randint(300, 600)
    nodes = [f"n{i:03d}" for i in range(n)]
    shuffled = rng.sample(nodes, n)
    edges, start = [], 0
    while start < n:
        size = min(n - start, rng.choice((1, 2, 3, 5, 8, 13, 40, 60, n // 2)))
        part = shuffled[start : start + size]
        start += size
        for i in range(1, size):
            edges.append((part[i], part[rng.randrange(i)]))
        for _ in range(size // 4):
            a, b = rng.sample(part, 2)
            if (a, b) not in edges and (b, a) not in edges:
                edges.append((a, b))
    return make_layer(nodes, edges)


def test_metrics_match_networkx_on_multi_batch_layers():
    nx = pytest.importorskip("networkx")
    rng = random.Random(7)
    for _ in range(3):
        layer = _layer_with_components(rng)
        graph = nx.Graph()
        graph.add_nodes_from(layer.nodes)
        graph.add_edges_from((a, b) for a, b, _ in layer.edges)
        retained = graph.subgraph(v for v in graph if graph.degree(v) > 0)
        n = retained.number_of_nodes()
        assert n > 2 * metrics._BATCH_SIZE

        bc, cl = betweenness(layer), closeness(layer)
        expected_bc = nx.betweenness_centrality(graph, normalized=False)
        expected_cl = nx.harmonic_centrality(graph)
        for v in layer.nodes:
            assert bc[v] == pytest.approx(expected_bc[v], rel=1e-9, abs=1e-9)
            assert cl[v] == pytest.approx(expected_cl[v], rel=1e-12)
        assert components(layer)[0] == nx.number_connected_components(graph)

        rep = report(layer)
        assert _without_removal_count(rep) == _without_removal_count(report(remove_isolated(layer)))
        harmonic = nx.harmonic_centrality(retained)
        assert rep.n_nodes_retained == n
        assert rep.n_components == nx.number_connected_components(retained)
        assert rep.avg_betweenness == pytest.approx(sum(expected_bc.values()) / n, rel=1e-9)
        assert rep.avg_closeness == pytest.approx(sum(harmonic.values()) / n, rel=1e-12)
        assert rep.avg_clustering == pytest.approx(nx.average_clustering(retained), rel=1e-12)


def test_handshake_identity():
    rng = random.Random(17)
    for _ in range(30):
        layer = random_layer(rng)
        total = sum(degree(layer).values())
        assert total == 2 * layer.n_edges


def test_avg_degree_identity():
    rng = random.Random(23)
    for _ in range(20):
        layer = remove_isolated(random_layer(rng))
        if not layer.nodes:
            continue
        rep = report(layer)
        assert rep.avg_degree == pytest.approx(2 * rep.n_edges / rep.n_nodes_retained)


def test_relabeling_invariance():
    rng = random.Random(31)
    for _ in range(15):
        layer = random_layer(rng)
        mapping = {v: f"x{ord(v[1]) * 7 % 97:02d}{v}" for v in layer.nodes}
        relabeled = make_layer(
            [mapping[v] for v in layer.nodes],
            [(mapping[a], mapping[b], w) for a, b, w in layer.edges],
        )
        one, two = report(layer), report(relabeled)
        assert one.n_nodes_retained == two.n_nodes_retained
        assert one.n_edges == two.n_edges
        assert one.n_components == two.n_components
        assert one.avg_closeness == pytest.approx(two.avg_closeness, rel=1e-9)
        assert one.avg_betweenness == pytest.approx(two.avg_betweenness, rel=1e-9)
        assert one.avg_clustering == pytest.approx(two.avg_clustering, rel=1e-9)
        assert one.density == pytest.approx(two.density, rel=1e-9)


def test_clique_union_clustering_and_density_extremes():
    two_cliques = make_layer(
        "abcdef",
        [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")],
    )
    rep = report(two_cliques)
    assert rep.avg_clustering == 1.0
    assert rep.density < 1.0
    assert rep.n_components == 2

    assert report(TRIANGLE).density == 1.0


def test_report_field_serialization():
    reps = [report(TRIANGLE), report(PATH3)]
    text = reports_to_csv_bytes(reps).decode()
    lines = text.strip().split("\n")
    assert lines[0] == (
        "threshold,n_nodes_retained,n_edges,n_isolated_removed,avg_closeness,"
        "avg_betweenness,avg_degree,avg_clustering,density,n_components"
    )
    assert len(lines) == 3

    payload = json.loads(reports_to_json_bytes(reps))
    assert [sorted(entry) for entry in payload] == [
        sorted(lines[0].split(","))
    ] * 2
    assert payload[0]["density"] == 1.0


def test_empty_layer_report():
    rep = report(make_layer([], []))
    assert rep == LayerMetricsReport(0.0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
