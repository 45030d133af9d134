"""Acceptance suite: end-to-end checks at fixed tolerances.

Each test prints one `[criterion N] PASS/FAIL` line (visible with -s or in
captured output) and asserts the same condition, so the suite doubles as a
human-readable report.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import combinations

from collabnet import cli, export, ingest, layers, linkage, metrics, stats, synth
from oracles import (
    adjacency_of,
    betweenness_oracle,
    closeness_oracle,
    clustering_oracle,
    components_oracle,
    dataset_of,
    edges_of,
    linkage_rows,
    naive_linkage_table,
    random_dataset,
    random_layer,
    visuals_of,
)

THRESHOLDS = (0.0, 20.0, 40.0, 60.0, 80.0, 100.0)


def _criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_linkage_oracle_200_datasets():
    rng = random.Random(20_001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        dataset = random_dataset(rng, max_projects=20, max_members=10)
        table = linkage.build_linkage_table(dataset)
        naive = naive_linkage_table(dataset)
        rows = linkage_rows(table)
        assert [row[:2] for row in rows] == sorted(naive)
        for a, b, n, value in rows:
            n_common, expected = naive[(a, b)]
            assert n == n_common
            rel = abs(value - expected) / max(abs(expected), 1e-300)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        "inverted-index linkage equals naive all-pairs scan on 200 seeded datasets",
        worst <= 1e-12 and elapsed < 1.0,
        f"max rel diff {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_worked_linkage_value():
    rows = (("A", "M1", 50.0), ("A", "M2", 20.0), ("B", "M1", 30.0), ("B", "M2", 40.0))
    dataset = dataset_of(rows)
    values = linkage.build_linkage_table(dataset).linkage.tolist()
    _criterion(
        2, "two-common-member example evaluates to exactly 35.0", values == [35.0], repr(values)
    )


def test_criterion_3_metric_oracles_200_graphs():
    rng = random.Random(30_003)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        layer = random_layer(rng, max_nodes=8)
        adj = adjacency_of(layer)
        bc, cl, cc = metrics.betweenness(layer), metrics.closeness(layer), metrics.clustering(layer)
        oracle_bc = betweenness_oracle(adj)
        for v in layer.nodes:
            ok &= abs(bc[v] - oracle_bc[v]) <= 1e-9
            ok &= abs(cl[v] - closeness_oracle(adj, v)) <= 1e-12
            ok &= cc[v] == clustering_oracle(adj, v)
        ok &= metrics.components(layer)[0] == components_oracle(adj)
        n, m = layer.n_nodes, layer.n_edges
        expected_density = 2 * m / (n * (n - 1)) if n >= 2 else 0.0
        ok &= metrics.density(layer) == expected_density
    elapsed = time.perf_counter() - start
    _criterion(
        3,
        "betweenness/closeness/clustering/components/density match oracles on 200 graphs",
        ok and elapsed < 5.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_4_layer_nesting_100_runs():
    rng = random.Random(40_004)
    runs = passes = 0
    while runs < 100:
        dataset = random_dataset(rng)
        table = linkage.build_linkage_table(dataset)
        if len(table) == 0:
            continue
        runs += 1
        if table.min_linkage < table.max_linkage:
            sweep = layers.make_sweep_linspace(table, rng.randint(2, 7))
        else:
            sweep = layers.make_sweep_explicit(sorted({0.0, table.max_linkage}))
        stack = layers.build_layer_stack(dataset, table, sweep)
        good = True
        prev_pairs = None
        prev_isolated = -1
        for layer in stack:
            pairs = {edge[:2] for edge in edges_of(layer)}
            touched = {v for pair in pairs for v in pair}
            isolated = len(layer.nodes) - len(touched)
            if prev_pairs is not None:
                good &= pairs <= prev_pairs
                good &= len(pairs) <= len(prev_pairs)
            good &= isolated >= prev_isolated
            prev_pairs, prev_isolated = pairs, isolated
        passes += good
    _criterion(4, "edge nesting and monotone counts on 100 seeded sweeps", passes == 100, f"{passes}/100")


def test_criterion_5_trend_reproduction_20_seeds():
    def nonincreasing(seq):
        return all(a >= b - 1e-9 for a, b in zip(seq, seq[1:]))

    mono = peak = 0
    for seed in range(20):
        records = synth.generate(synth.SynthConfig(seed=seed))
        dataset = ingest.aggregate(records)
        table = linkage.build_linkage_table(dataset)
        stack = layers.build_layer_stack(
            dataset, table, layers.make_sweep_explicit(THRESHOLDS)
        )
        reports = [metrics.report(layer) for layer in stack]
        first_four = slice(0, 4)  # thresholds 0..60
        mono += (
            nonincreasing([r.avg_degree for r in reports][first_four])
            and nonincreasing([r.n_edges for r in reports][first_four])
            and nonincreasing([r.avg_closeness for r in reports][first_four])
            and nonincreasing([r.avg_betweenness for r in reports][first_four])
        )
        comps = [r.n_components for r in reports]
        peak += max(comps[1:5]) > comps[0] and max(comps[1:5]) > comps[5]
    _criterion(
        5,
        "monotone decay to threshold 60 in >= 18/20 seeds and component peak in >= 10/20",
        mono >= 18 and peak >= 10,
        f"monotone {mono}/20, peak {peak}/20",
    )


def test_criterion_6_scale_and_enumeration(tmp_path):
    data = synth.generate_csv_bytes(synth.SynthConfig(seed=0))
    source = tmp_path / "default.csv"
    source.write_bytes(data)

    # the table holds exactly the co-membered pairs of the member -> projects
    # index, each with the number of members the index gives it
    dataset = ingest.aggregate(ingest.parse_records(data))
    table = linkage.build_linkage_table(dataset)
    shared = Counter(
        pair for pids in dataset.member_index.values() for pair in combinations(sorted(pids), 2)
    )
    pairs = {(a, b): n for a, b, n, _ in linkage_rows(table)}
    enumeration_ok = len(pairs) == len(table) and pairs == shared

    config = cli.RunConfig(
        input_path=str(source),
        output_dir=tmp_path / "out",
        thresholds=THRESHOLDS,
    )
    start = time.perf_counter()
    written = cli.run_pipeline(config)
    elapsed = time.perf_counter() - start
    layer_count = sum(1 for p in written if p.name.startswith("layer_"))
    _criterion(
        6,
        "full pipeline on the default dataset under 10 s; the table is the co-membered pair set",
        elapsed < 10.0 and enumeration_ok and layer_count == 6,
        f"{elapsed:.2f}s, {len(table)} pairs, {len(shared)} co-membered",
    )


def test_criterion_7_statistics_calibration():
    records = synth.generate(synth.SynthConfig(seed=0))
    contribution = stats.summarize(records, stats.Feature.CONTRIBUTION_PCT)
    ic = stats.summarize(records, stats.Feature.IC_SCORE)
    mean_ok = abs(contribution.mean - 23.30) <= 0.10 * 23.30
    var_ok = all(
        abs(s.variance - s.std_dev**2) <= 1e-9 * max(s.variance, 1e-300)
        for s in (contribution, ic)
    )
    _criterion(
        7,
        "synthetic contribution mean within 23.30 +/- 10% and variance == std^2",
        mean_ok and var_ok,
        f"mean {contribution.mean:.2f}",
    )


def test_criterion_8_export_integrity_20_runs():
    ok = True
    for seed in range(20):
        config = synth.SynthConfig(seed=700 + seed, n_projects=80, n_members=64)
        dataset = ingest.aggregate(synth.generate(config))
        table = linkage.build_linkage_table(dataset)
        stack = layers.build_layer_stack(
            dataset, table, layers.make_sweep_explicit(THRESHOLDS)
        )
        for layer in stack:
            count, membership = metrics.components(layer)
            visuals = export.assign_visuals(layer, membership)
            blob = export.export_layer(layer, visuals, export.ExportFormat.JSONGRAPH)
            ok &= blob == export.export_layer(layer, visuals, export.ExportFormat.JSONGRAPH)
            back_layer, back_visuals = export.parse_jsongraph(blob)
            ok &= back_layer.nodes == layer.nodes
            back_edges, edges = edges_of(back_layer), edges_of(layer)
            ok &= [edge[:2] for edge in back_edges] == [edge[:2] for edge in edges]
            ok &= all(back[2] == round(orig[2], 6) for back, orig in zip(back_edges, edges))
            by_node = visuals_of(layer, visuals)
            ok &= visuals_of(back_layer, back_visuals) == by_node
            sizes: dict[int, int] = {}
            for v in layer.nodes:
                sizes[membership[v]] = sizes.get(membership[v], 0) + 1
            if sizes:
                top = max(sizes.values())
                ok &= all(
                    (by_node[v].color == export.ComponentColor.BLUE)
                    == (sizes[membership[v]] == top)
                    for v in layer.nodes
                )
    _criterion(8, "JSON round-trip, repeat-export stability and blue-on-largest over 20 runs", ok)


def test_criterion_9_end_to_end_determinism(tmp_path):
    data = synth.generate_csv_bytes(synth.SynthConfig(seed=42, n_projects=120, n_members=96))
    source = tmp_path / "input.csv"
    source.write_bytes(data)
    outputs = []
    for run in ("one", "two"):
        out_dir = tmp_path / run
        cli.run_pipeline(
            cli.RunConfig(
                input_path=str(source),
                output_dir=out_dir,
                thresholds=THRESHOLDS,
                export_format=export.ExportFormat.GRAPHML,
            )
        )
        outputs.append(
            {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        )
    same_names = outputs[0].keys() == outputs[1].keys()
    same_bytes = same_names and all(
        outputs[0][name] == outputs[1][name] for name in outputs[0]
    )
    relevant = [n for n in outputs[0] if n.startswith("layer_") or n == "metrics.csv"]
    _criterion(
        9,
        "identical seed and config produce byte-identical metrics CSV and layer files",
        same_bytes and len(relevant) == 7,
        f"{len(relevant)} compared files",
    )
