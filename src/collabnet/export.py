"""Layer serialization for external graph viewers.

Visual conventions: node size carries the degree, node color carries the
size class of the node's connected component. Distinct component sizes are
ranked descending and banded into four colors: blue for the largest class,
gray for the smallest, and the intermediate classes split between green
(upper half) and red (lower half). Fewer distinct sizes use fewer colors,
extremes first.

Supported formats: GraphML, DOT and a JSON node/edge document. Output is
deterministic: elements are emitted in canonical id order and edge weights
are fixed to 6 decimals.

The JSON document is ``{"graph": {"directed": false, "metadata":
{"threshold", "dataset_fingerprint", "project_types"}, "nodes": [{"id",
"degree", "component", "color"}, ...], "edges": [{"source", "target",
"weight"}, ...]}}`` with each weight ``round(weight, 6)``. Its bytes equal
``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` of that document.
Each writer escapes every id once per layer and renders each node and edge
from one fixed template; the standard encoder is not used, because with
``indent`` set it runs in pure Python.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_quote
from typing import Mapping
from xml.sax.saxutils import quoteattr

import numpy as np

from .layers import NetworkLayer, Provenance

__all__ = [
    "ComponentColor",
    "ExportFormat",
    "VisualAttributes",
    "assign_visuals",
    "export_layer",
    "parse_jsongraph",
    "threshold_label",
]


class ComponentColor(Enum):
    BLUE = "blue"
    GREEN = "green"
    RED = "red"
    GRAY = "gray"


class ExportFormat(Enum):
    GRAPHML = "graphml"
    DOT = "dot"
    JSONGRAPH = "json"  # each value doubles as the file extension


@dataclass(frozen=True)
class VisualAttributes:
    node_size_key: int  # node degree; the viewer scales it
    component_color: ComponentColor
    component_rank: int


def _color_bands(n_classes: int) -> list[ComponentColor]:
    """Colors for n distinct component sizes, largest class first."""
    if n_classes == 1:
        return [ComponentColor.BLUE]
    if n_classes == 2:
        return [ComponentColor.BLUE, ComponentColor.GRAY]
    middles = n_classes - 2
    greens = math.ceil(middles / 2)
    return (
        [ComponentColor.BLUE]
        + [ComponentColor.GREEN] * greens
        + [ComponentColor.RED] * (middles - greens)
        + [ComponentColor.GRAY]
    )


def assign_visuals(
    layer: NetworkLayer, membership: Mapping[str, int]
) -> dict[str, VisualAttributes]:
    """Per-node visual attributes from a component membership map.

    ``membership`` must cover every node of the layer (as produced by
    :func:`collabnet.metrics.components` on the same layer).
    """
    missing = [v for v in layer.nodes if v not in membership]
    if missing:
        raise ValueError(f"membership does not cover nodes: {missing[:5]}")

    sizes = Counter(membership[v] for v in layer.nodes)
    distinct = sorted(set(sizes.values()), reverse=True)
    bands = _color_bands(len(distinct))
    color_of_size = {size: bands[rank] for rank, size in enumerate(distinct)}
    return {
        v: VisualAttributes(
            node_size_key=k,
            component_color=color_of_size[sizes[membership[v]]],
            component_rank=membership[v],
        )
        for v, k in zip(layer.nodes, layer.degrees.tolist())
    }


def export_layer(
    layer: NetworkLayer,
    visuals: Mapping[str, VisualAttributes],
    fmt: ExportFormat,
    *,
    include_isolated: bool = True,
) -> bytes:
    """Serialize a layer with its visual attributes to the chosen format.

    Every id is quoted once; a writer gets the shown nodes as (quoted id,
    visuals) and the edges as (quoted id, quoted id, weight)."""
    writers = {
        ExportFormat.GRAPHML: (_to_graphml, quoteattr),
        ExportFormat.DOT: (_to_dot, _dot_quote),
        ExportFormat.JSONGRAPH: (_to_jsongraph, _json_quote),
    }
    if fmt not in writers:
        raise ValueError(f"unsupported export format: {fmt!r}")
    shown = np.flatnonzero((layer.degrees > 0) | include_isolated).tolist()
    missing = [layer.nodes[i] for i in shown if layer.nodes[i] not in visuals]
    if missing:
        raise ValueError(f"visuals do not cover nodes: {missing[:5]}")
    write, quote = writers[fmt]
    ids = [quote(v) for v in layer.nodes]
    nodes = [(ids[i], visuals[layer.nodes[i]]) for i in shown]
    ends = ([ids[i] for i in end.tolist()] for end in (layer.a, layer.b))
    return write(layer, nodes, zip(*ends, layer.weight.tolist()))


def threshold_label(threshold: float) -> str:
    """The threshold to 6 decimals, trailing zeros trimmed: 35.0 -> "35"."""
    return f"{threshold:.6f}".rstrip("0").rstrip(".") or "0"


def _to_graphml(layer: NetworkLayer, nodes: list, edges: zip) -> bytes:
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="degree" for="node" attr.name="degree" attr.type="int"/>',
        '  <key id="component" for="node" attr.name="component" attr.type="int"/>',
        '  <key id="color" for="node" attr.name="color" attr.type="string"/>',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>',
        f'  <graph id={quoteattr("t" + threshold_label(layer.threshold))}'
        ' edgedefault="undirected">',
    ]
    out += (
        f"    <node id={v}>\n"
        f'      <data key="degree">{vis.node_size_key}</data>\n'
        f'      <data key="component">{vis.component_rank}</data>\n'
        f'      <data key="color">{vis.component_color.value}</data>\n'
        "    </node>"
        for v, vis in nodes
    )
    out += (
        f"    <edge source={a} target={b}>\n"
        f'      <data key="weight">{weight:.6f}</data>\n'
        "    </edge>"
        for a, b, weight in edges
    )
    out.append("  </graph>\n</graphml>\n")
    return "\n".join(out).encode("utf-8")


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _to_dot(layer: NetworkLayer, nodes: list, edges: zip) -> bytes:
    out = [f"graph {_dot_quote('t' + threshold_label(layer.threshold))} {{"]
    out += (
        f"  {v} [degree={vis.node_size_key}, "
        f"component={vis.component_rank}, color={vis.component_color.value}];"
        for v, vis in nodes
    )
    out += (f"  {a} -- {b} [weight={weight:.6f}];" for a, b, weight in edges)
    out.append("}\n")
    return "\n".join(out).encode("utf-8")


def _json_number(x: float) -> str:
    """A number as ``json.dumps`` writes it: an int as an int, a finite float
    (np.float64 too, whose own repr is ``np.float64(...)``) by ``float.__repr__``,
    and NaN and the infinities by their JavaScript names."""
    if not isinstance(x, float):
        return int.__repr__(x)
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _json_array(items: list[str], indent: str) -> str:
    """Rendered items as an indented JSON array closed at ``indent``."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def _to_jsongraph(layer: NetworkLayer, nodes: list, edges: zip) -> bytes:
    edge_items = [
        f'      {{\n        "source": {a},\n        "target": {b},\n'
        f'        "weight": {_json_number(round(weight, 6))}\n      }}'
        for a, b, weight in edges
    ]
    node_items = [
        f'      {{\n        "color": "{vis.component_color.value}",\n'
        f'        "component": {vis.component_rank},\n'
        f'        "degree": {vis.node_size_key},\n'
        f'        "id": {v}\n      }}'
        for v, vis in nodes
    ]
    provenance = layer.provenance
    types = [f"        {_json_quote(t)}" for t in provenance.project_types]
    return (
        '{\n  "graph": {\n    "directed": false,\n'
        f'    "edges": {_json_array(edge_items, "    ")},\n'
        '    "metadata": {\n'
        f'      "dataset_fingerprint": {_json_quote(provenance.dataset_fingerprint)},\n'
        f'      "project_types": {_json_array(types, "      ")},\n'
        f'      "threshold": {_json_number(layer.threshold)}\n'
        "    },\n"
        f'    "nodes": {_json_array(node_items, "    ")}\n'
        "  }\n}\n"
    ).encode("utf-8")


def parse_jsongraph(data: bytes) -> tuple[NetworkLayer, dict[str, VisualAttributes]]:
    """Rebuild a layer and its visual attributes from a JSON graph document.

    Inverse of the JSON export: restores threshold, provenance, nodes,
    weighted edges and the per-node visual attributes. Edge weights come
    back as written, rounded to 6 decimals.
    """
    doc = json.loads(data.decode("utf-8"))
    graph = doc["graph"]
    meta = graph["metadata"]
    nodes = tuple(sorted(node["id"] for node in graph["nodes"]))
    index = {v: i for i, v in enumerate(nodes)}
    edges = sorted(  # (a, b, weight) with a < b, in canonical order
        (*sorted((index[e["source"]], index[e["target"]])), float(e["weight"]))
        for e in graph["edges"]
    )
    a, b, weight = np.array(edges).reshape(-1, 3).T
    provenance = Provenance(meta["dataset_fingerprint"], tuple(meta["project_types"]))
    ends = a.astype(np.int64), b.astype(np.int64)
    layer = NetworkLayer(float(meta["threshold"]), nodes, *ends, weight, provenance)
    visuals = {
        node["id"]: VisualAttributes(
            node_size_key=int(node["degree"]),
            component_color=ComponentColor(node["color"]),
            component_rank=int(node["component"]),
        )
        for node in graph["nodes"]
    }
    return layer, visuals
