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
Each format renders from one node template and one edge template; the
standard encoder is not used, because with ``indent`` set it runs in pure
Python. Every id is quoted, and every pair's edge line rendered, once per
format for all the layers that share the pairs (the layers of a stack), so
a layer's edge block is the lines its ``keep`` mask selects. Node lines are
rendered from the degree, component-rank and color-index arrays of a
:class:`LayerVisuals`.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress
from json.encoder import encode_basestring_ascii as _json_quote

import numpy as np

from .layers import NetworkLayer, Pairs, Provenance

__all__ = [
    "ComponentColor",
    "ExportFormat",
    "LayerVisuals",
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


_COLORS = tuple(ComponentColor)  # a color index points into this
_COLOR_NAMES = np.array([color.value for color in _COLORS])


@dataclass(frozen=True, eq=False)
class LayerVisuals(Mapping):
    """Every node's visual attributes, held as arrays in ``nodes`` order: the
    degree, the component rank and the color index. Reads as a node ->
    :class:`VisualAttributes` mapping."""

    nodes: tuple[str, ...]
    degree: np.ndarray
    rank: np.ndarray
    color: np.ndarray

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.nodes)}

    def __getitem__(self, node: str) -> VisualAttributes:
        i = self._index[node]
        return VisualAttributes(int(self.degree[i]), _COLORS[self.color[i]], int(self.rank[i]))

    def __iter__(self) -> Iterator[str]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


def _color_bands(n_classes: int) -> list[int]:
    """Color indices for n distinct component sizes, largest class first."""
    middles = max(n_classes - 2, 0)
    greens = math.ceil(middles / 2)
    return ([0] + [1] * greens + [2] * (middles - greens) + [3])[:n_classes]


def assign_visuals(layer: NetworkLayer, membership: Mapping[str, int]) -> LayerVisuals:
    """Per-node visual attributes from a component membership map.

    ``membership`` must cover every node of the layer (as produced by
    :func:`collabnet.metrics.components` on the same layer).
    """
    try:
        rank = np.array([membership[v] for v in layer.nodes], np.int64)
    except KeyError:
        missing = [v for v in layer.nodes if v not in membership]
        raise ValueError(f"membership does not cover nodes: {missing[:5]}") from None
    _, component, size = np.unique(rank, return_inverse=True, return_counts=True)
    sizes, size_class = np.unique(-size, return_inverse=True)  # class 0: the largest
    color = np.array(_color_bands(sizes.size), np.int64)[size_class[component]]
    return LayerVisuals(layer.nodes, layer.degrees, rank, color)


def export_layer(
    layer: NetworkLayer,
    visuals: LayerVisuals,
    fmt: ExportFormat,
    *,
    include_isolated: bool = True,
) -> bytes:
    """Serialize a layer with its visual attributes to the chosen format.

    ``visuals`` must be the :class:`LayerVisuals` of this layer's nodes, as
    :func:`assign_visuals` or :func:`parse_jsongraph` make it. Node lines are
    rendered from the shown nodes' degree, rank and color columns. Edge lines
    come from the layer's pairs, where each pair's line is rendered once per
    format for every layer that shares the pairs; a layer keeps the lines of
    its own edges."""
    if fmt not in _FORMATS:
        raise ValueError(f"unsupported export format: {fmt!r}")
    if not (isinstance(visuals, LayerVisuals) and visuals.nodes == layer.nodes):
        raise ValueError("visuals do not cover nodes: pass the LayerVisuals of this layer")
    shown = np.flatnonzero((layer.degrees > 0) | include_isolated)
    columns = visuals.degree[shown], visuals.rank[shown], _COLOR_NAMES[visuals.color[shown]]
    ids, lines = _rendered(layer.pairs, fmt)
    nodes = zip([ids[i] for i in shown.tolist()], *(column.tolist() for column in columns))
    edges = lines if layer.keep is None else list(compress(lines, layer.keep.tolist()))
    return _FORMATS[fmt][2](layer, nodes, edges)


def _rendered(pairs: Pairs, fmt: ExportFormat) -> tuple[list[str], list[str]]:
    """The quoted ids and the edge line of every pair in ``fmt``, made on
    first use and kept in the pairs' cache."""
    if fmt not in pairs.cache:
        quote, edge_lines, _ = _FORMATS[fmt]
        ids = [quote(v) for v in pairs.nodes]
        columns = (pairs.a.tolist(), pairs.b.tolist(), pairs.weight.tolist())
        pairs.cache[fmt] = ids, edge_lines(ids, *columns)
    return pairs.cache[fmt]


def threshold_label(threshold: float) -> str:
    """The threshold to 6 decimals, trailing zeros trimmed: 35.0 -> "35"."""
    return f"{threshold:.6f}".rstrip("0").rstrip(".") or "0"


def _xml_quote(text: str) -> str:
    """``xml.sax.saxutils.quoteattr(text)``: the text escaped and quoted as
    an XML attribute value, in double quotes unless it holds a double quote
    and no single one. Importing that module loads ``urllib.request``."""
    text = text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    text = text.replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def _graphml_edges(ids: list[str], a: list, b: list, weight: list) -> list[str]:
    return [
        f"    <edge source={ids[i]} target={ids[j]}>\n"
        f'      <data key="weight">{w:.6f}</data>\n'
        "    </edge>"
        for i, j, w in zip(a, b, weight)
    ]


def _to_graphml(layer: NetworkLayer, nodes: Iterable, edges: list[str]) -> bytes:
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="degree" for="node" attr.name="degree" attr.type="int"/>',
        '  <key id="component" for="node" attr.name="component" attr.type="int"/>',
        '  <key id="color" for="node" attr.name="color" attr.type="string"/>',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>',
        f'  <graph id={_xml_quote("t" + threshold_label(layer.threshold))}'
        ' edgedefault="undirected">',
    ]
    out += (
        f"    <node id={v}>\n"
        f'      <data key="degree">{degree}</data>\n'
        f'      <data key="component">{rank}</data>\n'
        f'      <data key="color">{color}</data>\n'
        "    </node>"
        for v, degree, rank, color in nodes
    )
    out += edges
    out.append("  </graph>\n</graphml>\n")
    return "\n".join(out).encode("utf-8")


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_edges(ids: list[str], a: list, b: list, weight: list) -> list[str]:
    return [f"  {ids[i]} -- {ids[j]} [weight={w:.6f}];" for i, j, w in zip(a, b, weight)]


def _to_dot(layer: NetworkLayer, nodes: Iterable, edges: list[str]) -> bytes:
    out = [f"graph {_dot_quote('t' + threshold_label(layer.threshold))} {{"]
    out += (
        f"  {v} [degree={degree}, component={rank}, color={color}];"
        for v, degree, rank, color in nodes
    )
    out += edges
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


def _json_edges(ids: list[str], a: list, b: list, weight: list) -> list[str]:
    return [
        f'      {{\n        "source": {ids[i]},\n        "target": {ids[j]},\n'
        f'        "weight": {_json_number(round(w, 6))}\n      }}'
        for i, j, w in zip(a, b, weight)
    ]


def _to_jsongraph(layer: NetworkLayer, nodes: Iterable, edges: list[str]) -> bytes:
    node_items = [
        f'      {{\n        "color": "{color}",\n'
        f'        "component": {rank},\n'
        f'        "degree": {degree},\n'
        f'        "id": {v}\n      }}'
        for v, degree, rank, color in nodes
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


# per format: the id quoting, the edge lines of a pair list, the document
_FORMATS = {
    ExportFormat.GRAPHML: (_xml_quote, _graphml_edges, _to_graphml),
    ExportFormat.DOT: (_dot_quote, _dot_edges, _to_dot),
    ExportFormat.JSONGRAPH: (_json_quote, _json_edges, _to_jsongraph),
}


def parse_jsongraph(data: bytes) -> tuple[NetworkLayer, LayerVisuals]:
    """Rebuild a layer and its visual attributes from a JSON graph document.

    Inverse of the JSON export: restores threshold, provenance, nodes,
    weighted edges and the per-node visual attributes. Edge weights come
    back as written, rounded to 6 decimals.
    """
    doc = json.loads(data.decode("utf-8"))
    graph = doc["graph"]
    meta = graph["metadata"]
    shown = sorted(graph["nodes"], key=lambda node: node["id"])
    nodes = tuple(node["id"] for node in shown)
    index = {v: i for i, v in enumerate(nodes)}
    edges = sorted(  # (a, b, weight) with a < b, in canonical order
        (*sorted((index[e["source"]], index[e["target"]])), float(e["weight"]))
        for e in graph["edges"]
    )
    a, b, weight = np.array(edges).reshape(-1, 3).T
    pairs = Pairs(nodes, a.astype(np.int64), b.astype(np.int64), weight)
    provenance = Provenance(meta["dataset_fingerprint"], tuple(meta["project_types"]))
    layer = NetworkLayer(float(meta["threshold"]), pairs, provenance)
    columns = ([node[key] for node in shown] for key in ("degree", "component"))
    color = [_COLORS.index(ComponentColor(node["color"])) for node in shown]
    visuals = LayerVisuals(nodes, *(np.array(c, np.int64) for c in (*columns, color)))
    return layer, visuals
