from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest

from collabnet.export import ExportFormat, assign_visuals, export_layer, parse_jsongraph
from collabnet.ingest import aggregate, parse_records
from collabnet.layers import (
    ThresholdSweep,
    build_layer,
    build_layer_stack,
    make_sweep_explicit,
    make_sweep_linspace,
    threshold_label,
)
from collabnet.linkage import LinkageTable, build_linkage_table, table_to_csv_bytes
from collabnet.metrics import (
    LayerMetricsReport,
    betweenness,
    closeness,
    clustering,
    components,
    remove_isolated,
    report,
)
from oracles import (
    assert_same_layer,
    dataset_of,
    edges_of,
    linkage_rows,
    random_dataset,
    reference_export,
)

WORKED = dataset_of(
    [
        ("A", "M1", 50.0),
        ("A", "M2", 20.0),
        ("B", "M1", 30.0),
        ("B", "M2", 40.0),
        ("C", "M3", 100.0),
    ]
)  # one A-B pair at linkage 35.0, C isolated
# one A-B pair of two common members at linkage exactly 50; the CI runtime job
# builds the same file
EXACT_TIE = aggregate(parse_records((Path(__file__).parent / "data" / "exact_tie.csv").read_bytes()))
# one P1-P2 pair of one common member at linkage exactly 36.65935
ONE_MEMBER_TIE = dataset_of([("P1", "m1", 68.2555), ("P2", "m1", 5.0632)])


def fake_table(lo, hi):
    """A table whose linkage range is [lo, hi], empty when both are None."""
    values = np.array([] if lo is None else [lo, hi])
    ends = np.zeros(values.size, np.int64)
    return LinkageTable((), ends, ends, ends, values)


def test_linspace_paper_span():
    sweep = make_sweep_linspace(fake_table(0.0, 100.0), 6)
    assert sweep.thresholds == (0.0, 20.0, 40.0, 60.0, 80.0, 100.0)


def test_linspace_simple():
    assert make_sweep_linspace(fake_table(0.0, 50.0), 3).thresholds == (0.0, 25.0, 50.0)


def test_linspace_degenerate_range_rejected():
    with pytest.raises(ValueError, match="too narrow"):
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
    # a label names a layer's file and graph, so no two layers share one
    with pytest.raises(ValueError, match=r"^thresholds 50.0 and 50.0000001 share the label t50$"):
        make_sweep_explicit([0, 50, 50.0000001, 60])
    with pytest.raises(ValueError, match="share the label t0$"):
        ThresholdSweep((0.0, 5e-324))
    assert make_sweep_explicit([50, 50.000001]).thresholds == (50.0, 50.000001)
    # a negative threshold that rounds to zero is labelled t0, so it meets a positive one
    with pytest.raises(ValueError, match=r"^thresholds -1e-07 and 1e-07 share the label t0$"):
        make_sweep_explicit([-0.0000001, 0.0000001])


@pytest.mark.parametrize(
    "threshold, label",
    [(0.0, "0"), (-0.0, "0"), (-1e-7, "0"), (-4.9e-7, "0"), (4.9e-7, "0"), (-5.1e-7, "-0.000001"),
     (-5.0, "-5"), (35.0, "35"), (35.000001, "35.000001"), (50.0000001, "50")],
)
def test_threshold_label_rounds_to_six_decimals_without_a_negative_zero(threshold, label):
    assert threshold_label(threshold) == label


@pytest.mark.parametrize("lo, hi, n", [(50.0, 50.00000000000001, 2), (0.0, 1e-5, 12)])
def test_linspace_rejects_a_range_too_narrow_for_distinct_labels(lo, hi, n):
    """Two points one ulp apart are distinct floats with one label, and so
    are two of twelve points 1e-5 wide, which lie under 1e-6 apart."""
    with pytest.raises(ValueError) as err:
        make_sweep_linspace(fake_table(lo, hi), n)
    assert str(err.value) == f"linkage range [{lo}, {hi}] is too narrow for {n} thresholds"
    assert len(make_sweep_linspace(fake_table(lo, lo + 1.0), n).thresholds) == n


def test_build_layer_nodes_and_threshold_zero():
    table = build_linkage_table(WORKED)
    layer = build_layer(WORKED, table, 0.0)
    assert layer.nodes == ("A", "B", "C")  # isolated C retained
    assert edges_of(layer) == [("A", "B", 35.0)]


def test_build_layer_boundary():
    """A pair whose exact linkage is the threshold is in that layer: a float
    sum of the two ties' cells gives 49.99999999999999 and
    36.659349999999996."""
    for ds, value in ((WORKED, 35.0), (EXACT_TIE, 50.0), (ONE_MEMBER_TIE, 36.65935)):
        table = build_linkage_table(ds)
        assert table.linkage.tolist() == [value]
        at_threshold = build_layer(ds, table, value)
        assert at_threshold.n_edges == 1
        just_above = build_layer(ds, table, value + 0.000001)
        assert just_above.n_edges == 0


def test_build_layer_threshold_100_exact_only():
    ds = dataset_of(
        [
            ("A", "M1", 100.0),
            ("B", "M1", 100.0),
            ("C", "M1", 99.0),
            ("C", "M2", 1.0),
        ]
    )
    table = build_linkage_table(ds)
    layer = build_layer(ds, table, 100.0)
    assert [edge[:2] for edge in edges_of(layer)] == [("A", "B")]


def test_stack_order_and_singleton():
    table = build_linkage_table(WORKED)
    sweep = make_sweep_explicit([0, 20, 40, 60, 80, 100])
    stack = build_layer_stack(WORKED, table, sweep)
    assert len(stack) == 6
    assert [layer.threshold for layer in stack] == list(sweep.thresholds)

    single = build_layer_stack(WORKED, table, make_sweep_explicit([35.0]))
    assert len(single) == 1
    assert_same_layer(single[0], build_layer(WORKED, table, 35.0))


def test_stack_nesting_and_monotone_counts():
    rng = random.Random(5)
    for _ in range(20):
        ds = random_dataset(rng)
        table = build_linkage_table(ds)
        if len(table) == 0:
            continue
        stack = build_layer_stack(ds, table, make_sweep_explicit([0, 25, 50, 75, 100]))
        for low, high in zip(stack, stack[1:]):
            assert low.nodes == high.nodes
            low_pairs = {edge[:2] for edge in edges_of(low)}
            assert {edge[:2] for edge in edges_of(high)} <= low_pairs
            assert high.n_edges <= low.n_edges


def test_isolated_count_nondecreasing():
    rng = random.Random(6)
    for _ in range(10):
        ds = random_dataset(rng)
        table = build_linkage_table(ds)
        if len(table) == 0:
            continue
        stack = build_layer_stack(ds, table, make_sweep_explicit([0, 30, 60, 90]))
        isolated = []
        for layer in stack:
            touched = {v for edge in edges_of(layer) for v in edge[:2]}
            isolated.append(len(layer.nodes) - len(touched))
        assert isolated == sorted(isolated)


def test_rebuild_is_deterministic_and_serializes_identically():
    table = build_linkage_table(WORKED)
    sweep = make_sweep_explicit([0, 20, 40])
    first = build_layer_stack(WORKED, table, sweep)
    second = build_layer_stack(WORKED, build_linkage_table(WORKED), sweep)
    assert len(first) == len(second) == 3
    for one, two in zip(first, second):
        assert_same_layer(one, two)
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
        ds = random_dataset(rng)
        table = build_linkage_table(ds)
        ties = set(table.linkage.tolist())  # a threshold equal to a value keeps it
        by_label: dict[str, list[float]] = {}
        for t in sorted(ties | {0.0} | {rng.uniform(0.0, 100.0) for _ in range(4)}):
            by_label.setdefault(threshold_label(t), []).append(t)
        # a sweep takes one value per label, so values an ulp apart go to different sweeps
        for k in range(max(map(len, by_label.values()))):
            thresholds = [same[min(k, len(same) - 1)] for same in by_label.values()]
            for layer in build_layer_stack(ds, table, make_sweep_explicit(thresholds)):
                t = layer.threshold
                naive = [(a, b, v) for a, b, _, v in linkage_rows(table) if v >= t]
                assert edges_of(layer) == naive
                assert edges_of(layer) == edges_of(build_layer(ds, table, t))


def test_stack_shares_only_the_pairs_of_its_lowest_threshold():
    rng = random.Random(9)
    for _ in range(20):
        ds = random_dataset(rng)
        table = build_linkage_table(ds)
        thresholds = sorted({rng.uniform(0.0, 100.0) for _ in range(3)})
        stack = build_layer_stack(ds, table, make_sweep_explicit(thresholds))
        low = table.linkage >= thresholds[0]
        assert all(layer.pairs is stack[0].pairs for layer in stack)
        assert np.array_equal(stack[0].pairs.weight, table.linkage[low])
        assert np.array_equal(stack[0].pairs.a, table.a[low])
        for layer in stack:
            t = layer.threshold
            assert edges_of(layer) == [(a, b, v) for a, b, _, v in linkage_rows(table) if v >= t]


def assert_exports_match_reference(layer):
    visuals = assign_visuals(layer, components(layer)[1])
    for fmt in ExportFormat:
        for include_isolated in (True, False):
            assert export_layer(
                layer, visuals, fmt, include_isolated=include_isolated
            ) == reference_export(layer, visuals, fmt, include_isolated=include_isolated)


DEGENERATE = {
    "empty dataset": [],
    "teams sharing no member": [("A", "M1", 60.0), ("A", "M2", 40.0), ("B", "M3", 100.0)],
    "a member on only one project": [("A", "M1", 100.0)],
    "a member on every project": [("A", "M1", 70.0), ("A", "M2", 30.0)],  # of one project
}


@pytest.mark.parametrize("rows", DEGENERATE.values(), ids=DEGENERATE.keys())
def test_degenerate_inputs_give_empty_arrays_layers_and_exports(rows):
    ds = dataset_of(rows)
    table = build_linkage_table(ds)
    assert [column.size for column in (table.a, table.b, table.n_common, table.linkage)] == [0] * 4
    assert len(table) == 0
    assert table.min_linkage is None and table.max_linkage is None
    assert table_to_csv_bytes(table) == b"project_a,project_b,n_common,linkage\n"
    for layer in build_layer_stack(ds, table, make_sweep_explicit([0, 50, 100])):
        assert layer.nodes == ds.project_ids
        assert layer.n_edges == 0 and edges_of(layer) == []
        n = layer.n_nodes
        zeros = LayerMetricsReport(layer.threshold, 0, 0, n, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
        assert report(layer) == zeros
        for values in (closeness(layer), betweenness(layer), clustering(layer)):
            assert values == dict.fromkeys(layer.nodes, 0.0)
        assert remove_isolated(layer).nodes == ()
        assert_exports_match_reference(layer)
        visuals = assign_visuals(layer, components(layer)[1])
        back, _ = parse_jsongraph(export_layer(layer, visuals, ExportFormat.JSONGRAPH))
        assert_same_layer(back, layer)


def test_member_on_every_project_links_every_pair():
    ds = dataset_of([(p, "M0", 40.0) for p in "ABCD"] + [(p, "M" + p, 60.0) for p in "ABCD"])
    table = build_linkage_table(ds)
    assert (table.a.tolist(), table.b.tolist()) == ([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])
    assert table.n_common.tolist() == [1] * 6 and table.linkage.tolist() == [40.0] * 6
    complete, empty = build_layer_stack(ds, table, make_sweep_explicit([40.0, 40.000001]))
    assert report(complete).density == 1.0 and report(complete).avg_clustering == 1.0
    assert empty.n_edges == 0
    for layer in (complete, empty):
        assert_exports_match_reference(layer)
