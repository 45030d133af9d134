from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from collections import Counter
from xml.sax.saxutils import quoteattr

import numpy as np
import pytest

from collabnet import cli, export, ingest, layers, linkage, synth
from collabnet.export import (
    ComponentColor,
    ExportFormat,
    VisualAttributes,
    assign_visuals,
    export_layer,
    parse_jsongraph,
)
from collabnet.metrics import components, remove_isolated
from oracles import make_layer, random_layer, reference_export, reference_visuals


def visuals_for(layer):
    _, membership = components(layer)
    return assign_visuals(layer, membership)


def color_of(visuals, node):
    return visuals[node].component_color


def test_single_component_all_blue():
    layer = make_layer("abc", [("a", "b"), ("b", "c")])
    visuals = visuals_for(layer)
    assert {v.component_color for v in visuals.values()} == {ComponentColor.BLUE}


def test_two_size_classes_blue_and_gray():
    layer = make_layer(
        "abcdefz", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")]
    )
    visuals = visuals_for(layer)
    assert color_of(visuals, "a") == ComponentColor.BLUE
    assert color_of(visuals, "z") == ComponentColor.GRAY


def test_four_size_classes_full_banding():
    # component sizes 10, 6, 3, 1
    nodes, edges = [], []
    for size, prefix in ((10, "a"), (6, "b"), (3, "c"), (1, "d")):
        chain = [f"{prefix}{i}" for i in range(size)]
        nodes.extend(chain)
        edges.extend(zip(chain, chain[1:]))
    layer = make_layer(nodes, edges)
    visuals = visuals_for(layer)
    assert color_of(visuals, "a0") == ComponentColor.BLUE
    assert color_of(visuals, "b0") == ComponentColor.GREEN
    assert color_of(visuals, "c0") == ComponentColor.RED
    assert color_of(visuals, "d0") == ComponentColor.GRAY


def test_three_size_classes_upper_middle_green():
    nodes, edges = [], []
    for size, prefix in ((5, "a"), (3, "b"), (1, "c")):
        chain = [f"{prefix}{i}" for i in range(size)]
        nodes.extend(chain)
        edges.extend(zip(chain, chain[1:]))
    visuals = visuals_for(make_layer(nodes, edges))
    assert color_of(visuals, "a0") == ComponentColor.BLUE
    assert color_of(visuals, "b0") == ComponentColor.GREEN
    assert color_of(visuals, "c0") == ComponentColor.GRAY


def test_equal_size_components_share_color():
    layer = make_layer("abcd", [("a", "b"), ("c", "d")])
    visuals = visuals_for(layer)
    assert {v.component_color for v in visuals.values()} == {ComponentColor.BLUE}


def test_blue_always_on_a_maximum_component():
    rng = random.Random(13)
    for _ in range(40):
        layer = random_layer(rng)
        count, membership = components(layer)
        if count == 0:
            continue
        visuals = assign_visuals(layer, membership)
        sizes: dict[int, int] = {}
        for v in layer.nodes:
            sizes[membership[v]] = sizes.get(membership[v], 0) + 1
        max_size = max(sizes.values())
        for v in layer.nodes:
            if sizes[membership[v]] == max_size:
                assert visuals[v].component_color == ComponentColor.BLUE
            assert (visuals[v].component_color == ComponentColor.BLUE) == (
                sizes[membership[v]] == max_size
            )


def test_visuals_carry_degree_and_rank():
    layer = make_layer("abc", [("a", "b"), ("b", "c")])
    _, membership = components(layer)
    visuals = assign_visuals(layer, membership)
    assert visuals["b"].node_size_key == 2
    assert visuals["a"].component_rank == membership["a"]
    assert len(visuals) == layer.n_nodes


def test_visuals_require_full_membership():
    layer = make_layer("ab", [("a", "b")])
    with pytest.raises(ValueError, match=r"^membership does not cover nodes: \['b'\]$"):
        assign_visuals(layer, {"a": 0})


LAYER = make_layer("ab", [("a", "b", 35.0)], threshold=20.0)


def test_dot_minimal_document():
    visuals = visuals_for(LAYER)
    text = export_layer(LAYER, visuals, ExportFormat.DOT).decode()
    assert text.startswith('graph "t20"')
    assert '"a" [degree=1, component=0, color=blue];' in text
    assert '"a" -- "b" [weight=35.000000];' in text


def test_dot_escapes_quotes():
    layer = make_layer(['he said "hi"', "b"], [('he said "hi"', "b", 1.0)])
    text = export_layer(layer, visuals_for(layer), ExportFormat.DOT).decode()
    assert '"he said \\"hi\\""' in text


def test_graphml_well_formed_and_attributed():
    visuals = visuals_for(LAYER)
    blob = export_layer(LAYER, visuals, ExportFormat.GRAPHML)
    root = ET.fromstring(blob)
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    keys = {k.get("attr.name") for k in root.findall(f"{ns}key")}
    assert keys == {"degree", "component", "color", "weight"}
    graph = root.find(f"{ns}graph")
    assert graph.get("edgedefault") == "undirected"
    nodes = graph.findall(f"{ns}node")
    assert [n.get("id") for n in nodes] == ["a", "b"]
    edge = graph.find(f"{ns}edge")
    assert (edge.get("source"), edge.get("target")) == ("a", "b")
    weight = edge.find(f"{ns}data")
    assert weight.text == "35.000000"


def test_jsongraph_roundtrip():
    visuals = visuals_for(LAYER)
    blob = export_layer(LAYER, visuals, ExportFormat.JSONGRAPH)
    parsed_layer, parsed_visuals = parse_jsongraph(blob)
    assert parsed_layer.nodes == LAYER.nodes
    assert parsed_layer.threshold == LAYER.threshold
    assert [(e.a, e.b) for e in parsed_layer.edges] == [("a", "b")]
    assert parsed_layer.edges[0].weight == 35.0
    assert parsed_visuals == visuals
    assert parsed_layer.provenance == LAYER.provenance


def test_repeated_export_byte_identical():
    visuals = visuals_for(LAYER)
    for fmt in ExportFormat:
        assert export_layer(LAYER, visuals, fmt) == export_layer(LAYER, visuals, fmt)


def test_include_isolated_flag():
    layer = make_layer("abz", [("a", "b", 50.0)])
    visuals = visuals_for(layer)
    with_iso = export_layer(layer, visuals, ExportFormat.DOT, include_isolated=True)
    without = export_layer(layer, visuals, ExportFormat.DOT, include_isolated=False)
    assert b'"z"' in with_iso
    assert b'"z"' not in without


def test_unsupported_format_rejected():
    visuals = visuals_for(LAYER)
    with pytest.raises(ValueError):
        export_layer(LAYER, visuals, "graphml")  # not an ExportFormat member


def test_missing_visuals_rejected():
    with pytest.raises(ValueError, match="visuals"):
        export_layer(LAYER, {}, ExportFormat.DOT)


def test_threshold_label_trimming():
    layer = make_layer("ab", [("a", "b", 1.0)], threshold=35.000001)
    text = export_layer(layer, visuals_for(layer), ExportFormat.DOT).decode()
    assert text.startswith('graph "t35.000001"')
    plain = make_layer("ab", [("a", "b", 1.0)], threshold=0.0)
    assert export_layer(plain, visuals_for(plain), ExportFormat.DOT).decode().startswith(
        'graph "t0"'
    )


def assert_matches_reference(layer):
    visuals = visuals_for(layer)
    for fmt in ExportFormat:
        for include_isolated in (True, False):
            assert export_layer(
                layer, visuals, fmt, include_isolated=include_isolated
            ) == reference_export(layer, visuals, fmt, include_isolated=include_isolated)


def test_export_matches_reference_on_default_synth_layers():
    dataset = ingest.aggregate(synth.generate(synth.SynthConfig(seed=0)))
    table = linkage.build_linkage_table(dataset)
    stack = layers.build_layer_stack(dataset, table, layers.make_sweep_explicit([0, 20]))
    assert stack[0].n_edges > 30_000 and (stack[1].degrees == 0).any()
    assert dataset.project_types()
    for layer in stack:
        assert_matches_reference(layer)


QUOTED_IDS = [
    "plain",
    "caf\u00e9 \u4e2d\u6587",  # non-ASCII
    "\U0001d518\U0001f600",  # astral: surrogate-pair escapes in JSON
    'he said "hi"',
    "it's",
    "both \"'",
    "a&b<c>d",
    "back\\slash\\",
    "&amp; \\u0041",  # already looks escaped
    "nul\x00id",  # a zero byte: the mask, not the byte, tells an id from its padding
]


def test_export_matches_reference_on_quoted_ids():
    edges = [(a, b, 10.0 * i) for i, (a, b) in enumerate(zip(QUOTED_IDS, QUOTED_IDS[1:-1]))]
    assert_matches_reference(make_layer(QUOTED_IDS, edges, threshold=5.0))


@pytest.mark.parametrize(
    "text",
    ["plain", "", "a&b<c>d", 'say "hi"', "it's", """both " and '""", "&quot;&amp;",
     "line\nbreak\rreturn\ttab", "naïve 协作 \u2028 \U0001f600", "'\"&<>\n\r\t\"'"],
)
def test_xml_quote_matches_stdlib_quoteattr(text):
    assert export._xml_quote(text) == quoteattr(text)


def test_export_matches_reference_without_edges():
    assert_matches_reference(make_layer(["a", "b", 'q"'], []))


@pytest.mark.filterwarnings("error")  # a numpy cast warning on inf, nan or 1e22 fails
def test_export_matches_reference_on_number_types():
    weights = [35, 35.0, 1 / 3, 2.5e-7, 1e22, np.float64(2 / 3), np.float64(40)]
    weights += [float("inf"), float("nan"), -0.0, 5e-7, 0.0078125, 1e9]
    for threshold in (20, 20.5, 1e-7, np.float64(35.000001)):
        for weight in weights:
            layer = make_layer("abc", [("a", "b", weight), ("b", "c", 7)], threshold)
            assert_matches_reference(layer)


KEEPS = {  # which of the five pairs a layer keeps
    "none": [False] * 5,
    "every": [True] * 5,
    "first": [True, False, False, False, False],
    "last": [False, False, False, False, True],
    "alternate": [True, False, True, False, True],
}


@pytest.mark.parametrize("fmt", list(ExportFormat))
def test_edge_blocks_of_layers_that_share_pairs(fmt):
    """Layers cut from one Pairs take their edge blocks from one rendered
    buffer: each block equals the reference, whichever lines it keeps."""
    edges = [("a", "b", 35.5), ("a", "c", 0.0078125), ("b", "d", 1e-5)]
    edges += [("c", "e", 20.0), ("e", "f", 99.999999)]
    full = make_layer("abcdef", edges, threshold=5.0)
    for name, keep in KEEPS.items():
        layer = layers.NetworkLayer(5.0, full.pairs, full.provenance, np.array(keep))
        for include_isolated in (True, False):
            blob = export_layer(layer, visuals_for(layer), fmt, include_isolated=include_isolated)
            assert blob == reference_export(
                layer, visuals_for(layer), fmt, include_isolated=include_isolated
            ), name
            if fmt is ExportFormat.JSONGRAPH:
                assert b",\n    ]" not in blob
    assert list(full.pairs.cache) == [fmt]  # every layer's block came from one buffer


def assert_matches_reference_visuals(layer):
    """Exports with the layer's own visuals equal the reference export with
    the flood-fill visuals, in every format, with and without isolated nodes."""
    visuals = visuals_for(layer)
    expected = reference_visuals(layer)
    for fmt in ExportFormat:
        for include_isolated in (True, False):
            assert export_layer(
                layer, visuals, fmt, include_isolated=include_isolated
            ) == reference_export(layer, expected, fmt, include_isolated=include_isolated)


SWEEP = (0.0, 30.0, 50.0, 70.0)  # one component at 0; tied component sizes at 30 and 70


def small_stack():
    data = synth.generate_csv_bytes(synth.SynthConfig(seed=11, n_projects=50, n_members=48))
    dataset = ingest.aggregate(ingest.parse_records(data))
    table = linkage.build_linkage_table(dataset)
    return data, layers.build_layer_stack(dataset, table, layers.make_sweep_explicit(SWEEP))


def test_pipeline_layer_files_match_reference(tmp_path):
    data, stack = small_stack()
    sizes = [sorted(Counter(components(layer)[1].values()).values()) for layer in stack]
    assert any(a == b > 1 for s in sizes for a, b in zip(s, s[1:]))  # ranks decided by id
    source = tmp_path / "input.csv"
    source.write_bytes(data)
    for fmt in ExportFormat:
        for include_isolated in (True, False):
            out_dir = tmp_path / f"{fmt.value}_{include_isolated}"
            config = cli.RunConfig(
                input_path=str(source),
                output_dir=out_dir,
                thresholds=SWEEP,
                export_format=fmt,
                include_isolated=include_isolated,
            )
            cli.run_pipeline(config)
            for i, layer in enumerate(stack):
                name = f"layer_{i:02d}_t{int(layer.threshold)}.{fmt.value}"
                assert (out_dir / name).read_bytes() == reference_export(
                    layer, reference_visuals(layer), fmt, include_isolated=include_isolated
                )


def test_standalone_layers_match_reference():
    _, stack = small_stack()
    for layer in stack:
        assert_matches_reference_visuals(remove_isolated(layer))
        blob = export_layer(layer, visuals_for(layer), ExportFormat.JSONGRAPH)
        back, back_visuals = parse_jsongraph(blob)
        assert export_layer(back, back_visuals, ExportFormat.JSONGRAPH) == blob
        assert_matches_reference_visuals(back)
    for nodes, edges in (("abz", [("a", "b")]), ("abcdef", [("a", "b"), ("c", "d"), ("e", "f")])):
        assert_matches_reference_visuals(make_layer(nodes, edges, threshold=5.0))
