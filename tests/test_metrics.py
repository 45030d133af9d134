from __future__ import annotations

import dataclasses
import json
import math
import random
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from collabnet import ingest, metrics
from collabnet.layers import NetworkLayer, Pairs, build_layer_stack, make_sweep_explicit
from collabnet.linkage import build_linkage_table
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
from collabnet.synth import SynthConfig, generate_csv_bytes
from oracles import (
    adjacency_of,
    betweenness_oracle,
    closeness_oracle,
    clustering_oracle,
    components_oracle,
    edges_of,
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
    assert edges_of(kept) == edges_of(layer)

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
    for per_node in degree, closeness, clustering, betweenness:
        assert per_node(layer) == {"a": 0, "b": 0, "c": 0}


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
    spanning tree plus a few chords (:func:`_add_component`), so BFS runs
    many levels deep; node
    ids are shuffled so no component is a contiguous id range."""
    n = rng.randint(300, 600)
    nodes = [f"n{i:03d}" for i in range(n)]
    shuffled = rng.sample(nodes, n)
    edges, start = [], 0
    while start < n:
        size = min(n - start, rng.choice((1, 2, 3, 5, 8, 13, 40, 60, n // 2)))
        _add_component(rng, shuffled[start : start + size], edges)
        start += size
    return make_layer(nodes, edges)


def _add_component(rng: random.Random, part: list, edges: list) -> None:
    """Join ``part`` by a random spanning tree plus a few chords, every
    other one closing a triangle with a node's parent and grandparent."""
    parent = [0] * len(part)
    for i in range(1, len(part)):
        parent[i] = rng.randrange(i)
        edges.append((part[i], part[parent[i]]))
    for k in range(len(part) // 4):
        i = rng.randrange(1, len(part))
        if k % 2 and parent[i]:
            a, b = part[i], part[parent[parent[i]]]
        else:
            a, b = rng.sample(part, 2)
        if (a, b) not in edges and (b, a) not in edges:
            edges.append((a, b))


def _layer_of_sizes(rng: random.Random, sizes: tuple) -> tuple:
    """One component per entry of ``sizes`` (1 is an isolated node), with
    node ids shuffled so no component is a contiguous id range."""
    nodes = [f"n{i:04d}" for i in range(sum(sizes))]
    shuffled = rng.sample(nodes, len(nodes))
    edges, start = [], 0
    for size in sizes:
        _add_component(rng, shuffled[start : start + size], edges)
        start += size
    return make_layer(nodes, edges)


def test_metrics_match_networkx_on_multi_batch_layers():
    nx = pytest.importorskip("networkx")
    rng = random.Random(7)
    for _ in range(3):
        layer = _layer_with_components(rng)
        graph = nx.Graph()
        graph.add_nodes_from(layer.nodes)
        graph.add_edges_from((a, b) for a, b, _ in edges_of(layer))
        retained = graph.subgraph(v for v in graph if graph.degree(v) > 0)
        n = retained.number_of_nodes()
        assert max(map(len, nx.connected_components(graph))) > 64  # a multi-word pass

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


# The BFS gives each node the bit of its rank inside its own component and
# runs 512 ranks per window; the components that need the same number of
# 64-bit words share one pass per window.
PACKING_EDGES = {
    "64_and_65_nodes": (1, 64, 1, 65, 1, 1, 65, 64, 1),
    "over_512_nodes": (1, 1030, 1, 3, 1),
    "two_over_512_of_different_words": (2, 520, 1, 700, 3, 1, 64, 12),
    "many_small_sharing_a_word": tuple(
        random.Random(3).choices((1, 1, 2, 3, 4, 7, 12, 30, 63, 64), k=60)
    ),
    "65_to_128_sharing_two_words": (1, 65, 100, 3, 128, 1, 77, 64),
    "one_per_word_count": (64, 128, 192, 256, 320, 384, 448, 512),
}


def _assert_matches_oracles(layer, sizes: tuple) -> None:
    """Every metric of ``layer``, whose components have ``sizes``, matches
    networkx and the brute-force oracles."""
    nx = pytest.importorskip("networkx")
    assert sorted(Counter(components(layer)[1].values()).values()) == sorted(sizes)
    adj = adjacency_of(layer)
    graph = nx.Graph(adj)

    bc, cl, cc = betweenness(layer), closeness(layer), clustering(layer)
    expected_bc = nx.betweenness_centrality(graph, normalized=False)
    expected_cl = nx.harmonic_centrality(graph)
    oracle_cl = {v: closeness_oracle(adj, v) for v in layer.nodes}
    oracle_cc = {v: clustering_oracle(adj, v) for v in layer.nodes}
    for v in layer.nodes:
        assert bc[v] == pytest.approx(expected_bc[v], rel=1e-9, abs=1e-9)
        assert cl[v] == pytest.approx(oracle_cl[v], abs=1e-12)
        assert cl[v] == pytest.approx(expected_cl[v], rel=1e-12)
        # triangles are counted per 512-source window, so a component of
        # more than 512 nodes sums its count over several passes
        assert cc[v] == oracle_cc[v]
    assert any(0.0 < value < 1.0 for value in cc.values())

    rep = report(layer)
    assert _without_removal_count(rep) == _without_removal_count(report(remove_isolated(layer)))
    retained = remove_isolated(layer).nodes
    n = len(retained)
    assert rep.n_nodes_retained == n == sum(size for size in sizes if size > 1)
    assert rep.n_components == components_oracle(adjacency_of(remove_isolated(layer)))
    assert rep.avg_betweenness == pytest.approx(sum(expected_bc.values()) / n, rel=1e-9)
    for field, oracle in (
        ("avg_closeness", oracle_cl),
        ("avg_clustering", oracle_cc),
        ("avg_degree", {v: len(adj[v]) for v in adj}),
    ):
        expected = sum(oracle[v] for v in retained) / n
        assert getattr(rep, field) == pytest.approx(expected, abs=1e-12)
    assert math.fsum(cc.values()) / n == rep.avg_clustering  # both read one array


@pytest.mark.parametrize("sizes", PACKING_EDGES.values(), ids=PACKING_EDGES.keys())
def test_metrics_match_oracles_at_packing_edges(sizes):
    _assert_matches_oracles(_layer_of_sizes(random.Random(11), sizes), sizes)


def test_components_of_different_word_counts_get_their_own_passes():
    """Components of 520 and 700 nodes need 9 and 11 words: each is its own
    group, planned once, with one pass per 512-rank window; the small
    components share the one-word group."""
    layer = _layer_of_sizes(random.Random(11), PACKING_EDGES["two_over_512_of_different_words"])
    groups = [
        (nodes.size, [frontier.shape[1] for frontier in frontiers])
        for nodes, _, _, frontiers in metrics._passes(layer)
    ]
    assert groups == [(2 + 64 + 3 + 12, [1]), (520, [8, 1]), (700, [8, 3])]


def _contributions_of_sizes(rng: random.Random, sizes: tuple) -> bytes:
    """A contribution table whose co-membership projection has one
    component per entry of ``sizes``. A component's projects, in shuffled id
    order, form a chain joined by two-project members; more two-project
    members join random pairs of them, and every eighth project starts a
    member of three or four chain neighbours, which closes triangles. A
    one-project component is a project with a member of its own."""
    projects = [f"P{i:04d}" for i in range(sum(sizes))]
    shuffled = rng.sample(projects, len(projects))
    teams, start = [], 0
    for size in sizes:
        part = shuffled[start : start + size]
        start += size
        teams += [part[i : i + 2] for i in range(max(size - 1, 1))]
        teams += [rng.sample(part, 2) for _ in range(size // 8)]
        teams += [part[i : i + rng.choice((3, 4))] for i in range(0, size - 2, 8)]
    rows = [f"{p},M{m:05d},1,paper\n" for m, team in enumerate(teams) for p in team]
    return ("project_id,member_id,contribution_pct,project_type\n" + "".join(rows)).encode()


def _threshold_stack(data: bytes, thresholds) -> tuple:
    """The linkage table of a contribution table and its layer stack."""
    dataset = ingest.aggregate(ingest.parse_records(data, delimiter=","))
    table = build_linkage_table(dataset)
    return table, build_layer_stack(dataset, table, make_sweep_explicit(thresholds))


def _team_steps(layer) -> list[bool]:
    """Per BFS pass, whether it walks member teams: two half-step CSRs."""
    return [len(steps) == 2 for _, _, steps, _ in metrics._passes(layer)]


@pytest.mark.parametrize("sizes", PACKING_EDGES.values(), ids=PACKING_EDGES.keys())
def test_team_built_layers_match_oracles_at_packing_edges(sizes):
    _, stack = _threshold_stack(_contributions_of_sizes(random.Random(11), sizes), [0])
    assert all(_team_steps(stack[0]))
    _assert_matches_oracles(stack[0], sizes)


def _assert_equals_csr_twin(layer) -> None:
    """The same edges as a standalone layer walk the projected CSR; every
    metric is the same float."""
    projected = Pairs(layer.nodes, layer.a, layer.b, layer.weight)
    plain = NetworkLayer(layer.threshold, projected, layer.provenance)
    assert not any(_team_steps(plain))
    assert report(layer) == report(plain)
    for kernel in (closeness, clustering, betweenness):
        assert kernel(layer) == kernel(plain)


@pytest.mark.parametrize("seed", [0, 1])
def test_team_step_equals_csr_step(seed):
    """A layer that keeps every co-membered pair walks member teams, and
    only such a layer does, in any stack."""
    data = generate_csv_bytes(SynthConfig(seed=seed, n_projects=600, n_members=260))
    table, _ = _threshold_stack(data, [0])
    for lowest in (0.0, -5.0, table.min_linkage):
        layer, higher = _threshold_stack(data, [lowest, 20])[1]
        assert higher.teams is None  # it keeps some of the pairs
        assert not any(_team_steps(higher))
        assert layer.n_edges == len(table)
        assert np.bincount(layer.component_rank).max() > 512  # a pass per window
        steps = _team_steps(layer)
        assert len(steps) > 1 and all(steps)
        _assert_equals_csr_twin(layer)

    above = _threshold_stack(data, [np.nextafter(table.min_linkage, np.inf), 20])[1]
    assert above[0].teams is None
    assert not any(_team_steps(above[0]) + _team_steps(above[1]))

    # min_linkage + 1e-6 keeps the pairs nextafter keeps, under a label of its own
    mixed = [-5, table.min_linkage, table.min_linkage + 1e-6, 20]
    stack = _threshold_stack(data, mixed)[1]
    assert np.array_equal(stack[2].keep, table.linkage > table.min_linkage)
    whole = [layer.n_edges == len(table) for layer in stack]
    assert whole == [True, True, False, False]
    for layer, every_pair in zip(stack, whole):
        assert (layer.teams is not None) == every_pair
        assert set(_team_steps(layer)) == {every_pair}
        if every_pair:
            _assert_equals_csr_twin(layer)


def _hub_input(n_projects: int) -> bytes:
    """A synth table of ``n_projects`` projects plus a member HUB at 0% in
    every one of them, and one more project PX tied to the first by a member
    of their own, also at 0%. A pair that shares only HUB has linkage 0, so
    the threshold-0 layer is a clique of the synth projects, one team of
    them all, and PX keeps some clustering values strictly between 0 and 1."""
    data = generate_csv_bytes(SynthConfig(seed=0, n_projects=n_projects, n_members=n_projects // 2))
    rows = [line.split(",") for line in data.decode().splitlines()[1:]]
    types = {row[0]: row[-1] for row in rows}
    hub = "".join(f"{project},HUB,0,,{kind}\n" for project, kind in types.items())
    first, kind = rows[0][0], rows[0][-1]
    return data + f"{hub}{first},MPX,0,,{kind}\nPX,MPX,0,,{kind}\n".encode()


def _tails(layer) -> list[bool]:
    """Per BFS step of every pass, whether it has rows past the columns."""
    return [indices.size > 0 for *_, steps, _ in metrics._passes(layer) for _, (_, indices) in steps]


@pytest.mark.parametrize("threshold", [0, 10])
def test_hub_layers_match_oracles(threshold):
    """At 0 a team-walked pass has a team of every synth project; at 10 the
    projected CSR has rows longer than the padded columns."""
    nx = pytest.importorskip("networkx")
    _, (layer,) = _threshold_stack(_hub_input(200), [threshold])
    assert all(_team_steps(layer)) == (threshold == 0)
    assert any(_tails(layer))
    sizes = tuple(map(len, nx.connected_components(nx.Graph(adjacency_of(layer)))))
    _assert_matches_oracles(layer, sizes)


def test_star_layer_matches_oracles():
    """Three stars, of 63, 100 and 512 leaves, each with one edge between
    two leaves: a one-word, a two-word and a nine-word pass group, each with
    a CSR tail. The last hub's id sorts last, so its rank is 512 and the
    first window's sources are its leaves: its hop-1 row holds all 512 bits,
    the largest count a row of 8 words gives."""
    nodes = [f"n{i:03d}" for i in range(678)]
    edges = [(nodes[0], leaf) for leaf in nodes[1:64]] + [(nodes[1], nodes[2])]
    edges += [(nodes[64], leaf) for leaf in nodes[65:165]] + [(nodes[65], nodes[66])]
    edges += [(nodes[-1], leaf) for leaf in nodes[165:-1]] + [(nodes[165], nodes[166])]
    layer = make_layer(nodes, edges)
    words = [frontier.shape[1] for *_, frontiers in metrics._passes(layer) for frontier in frontiers]
    assert words == [1, 2, 8, 1]
    assert all(_tails(layer))
    _assert_matches_oracles(layer, (64, 101, 513))


def test_hub_report_memory_is_bounded_by_blocks():
    """The triangle count gathers its edges' words a block at a time: on
    the threshold-0 layer of 800 projects and a hub, each pass's 319,600
    edges hold 20 MB of words per gathered copy, and ``report`` stays under
    eight blocks."""
    _, (layer,) = _threshold_stack(_hub_input(800), [0])
    layer.degrees, layer.component_rank  # cached per layer, outside the walk
    tracemalloc.start()
    try:
        report(layer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * metrics._BLOCK_BYTES


def test_hub_degrees_count_the_edge_arrays_in_place():
    """A layer's degrees are two counts over its edge arrays, with no copy
    of its edges: the threshold-0 layer of 800 projects and a hub has
    319,601 edges, a CSR of them peaks near 20 MB to build, and counting
    its degrees stays under 1 MB."""
    _, (layer,) = _threshold_stack(_hub_input(800), [0])
    layer.a, layer.b  # cut from the stack's pairs, cached per layer
    tracemalloc.start()
    try:
        layer.degrees
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
            [(mapping[a], mapping[b], w) for a, b, w in edges_of(layer)],
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
    layer = make_layer([], [])
    assert report(layer) == LayerMetricsReport(0.0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
    for per_node in degree, closeness, clustering, betweenness:
        assert per_node(layer) == {}
