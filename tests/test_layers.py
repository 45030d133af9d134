from __future__ import annotations

import random

import pytest

from collabnet.export import ExportFormat, assign_visuals, export_layer
from collabnet.ingest import ContributionRecord, ProjectType, aggregate
from collabnet.layers import (
    ThresholdSweep,
    build_layer,
    build_layer_stack,
    make_sweep_explicit,
    make_sweep_linspace,
)
from collabnet.linkage import LinkageTable, build_linkage_table
from collabnet.metrics import components
from oracles import random_records


def dataset(rows):
    return aggregate(
        [ContributionRecord(p, m, c, None, ProjectType.IP) for p, m, c in rows]
    )


WORKED = dataset(
    [
        ("A", "M1", 50.0),
        ("A", "M2", 20.0),
        ("B", "M1", 30.0),
        ("B", "M2", 40.0),
        ("C", "M3", 100.0),
    ]
)  # one A-B pair at linkage 35.0, C isolated


def fake_table(lo, hi):
    return LinkageTable({}, lo, hi)


def test_linspace_paper_span():
    sweep = make_sweep_linspace(fake_table(0.0, 100.0), 6)
    assert sweep.thresholds == (0.0, 20.0, 40.0, 60.0, 80.0, 100.0)


def test_linspace_simple():
    assert make_sweep_linspace(fake_table(0.0, 50.0), 3).thresholds == (0.0, 25.0, 50.0)


def test_linspace_degenerate_range_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        make_sweep_linspace(fake_table(10.0, 10.0), 2)


def test_linspace_empty_table_rejected():
    with pytest.raises(ValueError, match="no co-membered pairs"):
        make_sweep_linspace(fake_table(None, None), 6)


def test_linspace_needs_two_points():
    with pytest.raises(ValueError):
        make_sweep_linspace(fake_table(0.0, 100.0), 1)


def test_explicit_sweep_validation():
    assert make_sweep_explicit([1, 2, 3]).thresholds == (1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        make_sweep_explicit([1, 1, 2])
    with pytest.raises(ValueError, match="finite"):
        make_sweep_explicit([0.0, float("inf")])
    with pytest.raises(ValueError):
        ThresholdSweep(())


def test_build_layer_nodes_and_threshold_zero():
    table = build_linkage_table(WORKED)
    layer = build_layer(WORKED, table, 0.0)
    assert layer.nodes == ("A", "B", "C")  # isolated C retained
    assert [(e.a, e.b) for e in layer.edges] == [("A", "B")]
    assert layer.edges[0].weight == 35.0


def test_build_layer_boundary():
    table = build_linkage_table(WORKED)
    at_threshold = build_layer(WORKED, table, 35.0)
    assert len(at_threshold.edges) == 1
    just_above = build_layer(WORKED, table, 35.000001)
    assert len(just_above.edges) == 0


def test_build_layer_threshold_100_exact_only():
    ds = dataset(
        [
            ("A", "M1", 100.0),
            ("B", "M1", 100.0),
            ("C", "M1", 99.0),
            ("C", "M2", 1.0),
        ]
    )
    table = build_linkage_table(ds)
    layer = build_layer(ds, table, 100.0)
    assert [(e.a, e.b) for e in layer.edges] == [("A", "B")]


def test_stack_order_and_singleton():
    table = build_linkage_table(WORKED)
    sweep = make_sweep_explicit([0, 20, 40, 60, 80, 100])
    stack = build_layer_stack(WORKED, table, sweep)
    assert len(stack) == 6
    assert [layer.threshold for layer in stack] == list(sweep.thresholds)

    single = build_layer_stack(WORKED, table, make_sweep_explicit([35.0]))
    assert single == [build_layer(WORKED, table, 35.0)]


def test_stack_nesting_and_monotone_counts():
    rng = random.Random(5)
    for _ in range(20):
        ds = aggregate(random_records(rng))
        table = build_linkage_table(ds)
        if len(table) == 0:
            continue
        stack = build_layer_stack(ds, table, make_sweep_explicit([0, 25, 50, 75, 100]))
        for low, high in zip(stack, stack[1:]):
            assert low.nodes == high.nodes
            low_pairs = {(e.a, e.b) for e in low.edges}
            assert {(e.a, e.b) for e in high.edges} <= low_pairs
            assert high.n_edges <= low.n_edges


def test_isolated_count_nondecreasing():
    rng = random.Random(6)
    for _ in range(10):
        ds = aggregate(random_records(rng))
        table = build_linkage_table(ds)
        if len(table) == 0:
            continue
        stack = build_layer_stack(ds, table, make_sweep_explicit([0, 30, 60, 90]))
        isolated = []
        for layer in stack:
            touched = {v for e in layer.edges for v in (e.a, e.b)}
            isolated.append(len(layer.nodes) - len(touched))
        assert isolated == sorted(isolated)


def test_rebuild_is_deterministic_and_serializes_identically():
    table = build_linkage_table(WORKED)
    sweep = make_sweep_explicit([0, 20, 40])
    first = build_layer_stack(WORKED, table, sweep)
    second = build_layer_stack(WORKED, build_linkage_table(WORKED), sweep)
    assert first == second
    for one, two in zip(first, second):
        _, membership = components(one)
        visuals = assign_visuals(one, membership)
        blob_one = export_layer(one, visuals, ExportFormat.JSONGRAPH)
        blob_two = export_layer(two, assign_visuals(two, components(two)[1]), ExportFormat.JSONGRAPH)
        assert blob_one == blob_two


def test_provenance_carries_fingerprint_and_types():
    table = build_linkage_table(WORKED)
    layer = build_layer(WORKED, table, 0.0)
    assert layer.provenance.dataset_fingerprint == WORKED.fingerprint()
    assert layer.provenance.project_types == ("IP",)


def test_stack_layers_match_naive_filter():
    rng = random.Random(8)
    for _ in range(40):
        ds = aggregate(random_records(rng))
        table = build_linkage_table(ds)
        ties = {link.linkage for link in table}  # a threshold equal to a value keeps it
        thresholds = sorted(ties | {0.0} | {rng.uniform(0.0, 100.0) for _ in range(4)})
        stack = build_layer_stack(ds, table, make_sweep_explicit(thresholds))
        for layer in stack:
            t = layer.threshold
            naive = [(a, b, l.linkage) for (a, b), l in table.pairs.items() if l.linkage >= t]
            assert [tuple(e) for e in layer.edges] == naive
            assert layer.edges == build_layer(ds, table, t).edges
