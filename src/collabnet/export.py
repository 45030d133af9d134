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
from itertools import compress
from json.encoder import encode_basestring_ascii as _json_quote
from typing import Mapping
from xml.sax.saxutils import quoteattr

from .layers import Edge, NetworkLayer

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
    """Serialize a layer with its visual attributes to the chosen format."""
    nodes = list(compress(layer.nodes, (layer.degrees > 0) | include_isolated))
    missing = [v for v in nodes if v not in visuals]
    if missing:
        raise ValueError(f"visuals do not cover nodes: {missing[:5]}")
    if fmt is ExportFormat.GRAPHML:
        return _to_graphml(layer, visuals, nodes)
    if fmt is ExportFormat.DOT:
        return _to_dot(layer, visuals, nodes)
    if fmt is ExportFormat.JSONGRAPH:
        return _to_jsongraph(layer, visuals, nodes)
    raise ValueError(f"unsupported export format: {fmt!r}")


def threshold_label(threshold: float) -> str:
    """The threshold to 6 decimals, trailing zeros trimmed: 35.0 -> "35"."""
    return f"{threshold:.6f}".rstrip("0").rstrip(".") or "0"


def _to_graphml(
    layer: NetworkLayer, visuals: Mapping[str, VisualAttributes], nodes: list[str]
) -> bytes:
    ids = {v: quoteattr(v) for v in nodes}
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
        f"    <node id={ids[v]}>\n"
        f'      <data key="degree">{visuals[v].node_size_key}</data>\n'
        f'      <data key="component">{visuals[v].component_rank}</data>\n'
        f'      <data key="color">{visuals[v].component_color.value}</data>\n'
        "    </node>"
        for v in nodes
    )
    out += (
        f"    <edge source={ids[a]} target={ids[b]}>\n"
        f'      <data key="weight">{weight:.6f}</data>\n'
        "    </edge>"
        for a, b, weight in layer.edges
    )
    out.append("  </graph>\n</graphml>\n")
    return "\n".join(out).encode("utf-8")


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _to_dot(
    layer: NetworkLayer, visuals: Mapping[str, VisualAttributes], nodes: list[str]
) -> bytes:
    ids = {v: _dot_quote(v) for v in nodes}
    out = [f"graph {_dot_quote('t' + threshold_label(layer.threshold))} {{"]
    out += (
        f"  {ids[v]} [degree={visuals[v].node_size_key}, "
        f"component={visuals[v].component_rank}, color={visuals[v].component_color.value}];"
        for v in nodes
    )
    out += (f"  {ids[a]} -- {ids[b]} [weight={weight:.6f}];" for a, b, weight in layer.edges)
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


def _to_jsongraph(
    layer: NetworkLayer, visuals: Mapping[str, VisualAttributes], nodes: list[str]
) -> bytes:
    ids = {v: _json_quote(v) for v in nodes}
    edges = [
        f'      {{\n        "source": {ids[a]},\n        "target": {ids[b]},\n'
        f'        "weight": {_json_number(round(weight, 6))}\n      }}'
        for a, b, weight in layer.edges
    ]
    node_items = [
        f'      {{\n        "color": "{visuals[v].component_color.value}",\n'
        f'        "component": {visuals[v].component_rank},\n'
        f'        "degree": {visuals[v].node_size_key},\n'
        f'        "id": {ids[v]}\n      }}'
        for v in nodes
    ]
    provenance = layer.provenance
    types = [f"        {_json_quote(t)}" for t in provenance.project_types]
    return (
        '{\n  "graph": {\n    "directed": false,\n'
        f'    "edges": {_json_array(edges, "    ")},\n'
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
    from .layers import Provenance

    doc = json.loads(data.decode("utf-8"))
    graph = doc["graph"]
    meta = graph["metadata"]
    nodes = tuple(sorted(node["id"] for node in graph["nodes"]))
    edges = tuple(
        sorted(
            Edge(
                min(e["source"], e["target"]),
                max(e["source"], e["target"]),
                float(e["weight"]),
            )
            for e in graph["edges"]
        )
    )
    provenance = Provenance(meta["dataset_fingerprint"], tuple(meta["project_types"]))
    layer = NetworkLayer(float(meta["threshold"]), nodes, edges, provenance)
    visuals = {
        node["id"]: VisualAttributes(
            node_size_key=int(node["degree"]),
            component_color=ComponentColor(node["color"]),
            component_rank=int(node["component"]),
        )
        for node in graph["nodes"]
    }
    return layer, visuals
