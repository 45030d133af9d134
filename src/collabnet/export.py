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
Each format has one node line template and one edge line template, rendered
for all rows at once by :mod:`collabnet.render`; the standard encoder is not
used for them, because with ``indent`` set it runs in pure Python. Every id
is quoted, and every pair's edge line rendered, once per format for all the
layers that share the pairs (the layers of a stack): the lines are one
buffer with int64 line ends, and a layer's edge block is the buffer runs
its ``keep`` mask selects, joined. Node lines are rendered per layer from
the layer's degrees and component ranks (``NetworkLayer.degrees`` and
``component_rank``) and the color indices of :func:`assign_visuals`.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_quote

import numpy as np

from . import render
from .layers import NetworkLayer, Pairs, Provenance, threshold_label

__all__ = [
    "ComponentColor",
    "ExportFormat",
    "assign_visuals",
    "export_layer",
    "parse_jsongraph",
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


_COLORS = tuple(ComponentColor)  # a color index points into this
_COLOR_TEXTS = render.texts([color.value for color in _COLORS])


def _color_bands(n_classes: int) -> list[int]:
    """Color indices for n distinct component sizes, largest class first."""
    middles = max(n_classes - 2, 0)
    greens = math.ceil(middles / 2)
    return ([0] + [1] * greens + [2] * (middles - greens) + [3])[:n_classes]


def assign_visuals(layer: NetworkLayer, membership: Mapping[str, int]) -> np.ndarray:
    """Each node's color, an int64 index into ``tuple(ComponentColor)`` in
    the layer's ``nodes`` order: the size class of its component in
    ``membership``, which must cover every node of the layer (as
    :func:`collabnet.metrics.components` makes it)."""
    try:
        rank = np.array([membership[v] for v in layer.nodes], np.int64)
    except KeyError:
        missing = [v for v in layer.nodes if v not in membership]
        raise ValueError(f"membership does not cover nodes: {missing[:5]}") from None
    _, component, size = np.unique(rank, return_inverse=True, return_counts=True)
    sizes, size_class = np.unique(-size, return_inverse=True)  # class 0: the largest
    return np.array(_color_bands(sizes.size), np.int64)[size_class[component]]


def export_layer(
    layer: NetworkLayer,
    visuals: np.ndarray,
    fmt: ExportFormat,
    *,
    include_isolated: bool = True,
) -> bytes:
    """Serialize a layer with its visual attributes to the chosen format.

    ``visuals`` must be the color indices of this layer's nodes, as
    :func:`assign_visuals` or :func:`parse_jsongraph` make them. Node lines
    are rendered from the shown nodes' degrees and component ranks, which the
    layer holds, and their colors. Edge lines come from the layer's pairs,
    where every pair's line is rendered once per format for all the layers
    that share the pairs; a layer keeps the lines of its own edges."""
    if fmt not in _FORMATS:
        raise ValueError(f"unsupported export format: {fmt!r}")
    if not (isinstance(visuals, np.ndarray) and visuals.shape == (layer.n_nodes,)):
        raise ValueError("visuals do not cover nodes: pass the colors of this layer's nodes")
    _, node_template, _, document = _FORMATS[fmt]
    ids, edge_text, edge_ends = _rendered(layer.pairs, fmt)
    shown = np.flatnonzero((layer.degrees > 0) | include_isolated)
    columns = (
        render.gather(ids, shown),
        render.integers(layer.degrees[shown]),
        render.integers(layer.component_rank[shown]),
        render.gather(_COLOR_TEXTS, visuals[shown]),
    )
    nodes = render.lines(shown.size, node_template(*columns))
    return b"".join(document(layer, _runs(*nodes), _runs(edge_text, edge_ends, layer.keep)))


def _rendered(pairs: Pairs, fmt: ExportFormat) -> tuple[tuple, bytearray, np.ndarray]:
    """The quoted ids' table and the edge lines of every pair in ``fmt``,
    as one text and its line ends, made on first use and kept in the pairs'
    cache."""
    if fmt not in pairs.cache:
        quote, _, edge_template, _ = _FORMATS[fmt]
        ids = render.texts([quote(v) for v in pairs.nodes])
        a, b = render.gather(ids, pairs.a), render.gather(ids, pairs.b)
        pairs.cache[fmt] = ids, *render.lines(pairs.a.size, edge_template(a, b, pairs.weight))
    return pairs.cache[fmt]


def _runs(text: bytearray, ends: np.ndarray, keep: np.ndarray | None = None) -> list:
    """The text of the kept lines (every line when keep is None), as one
    memoryview per run of consecutive kept lines."""
    keep = np.ones(ends.size, bool) if keep is None else keep
    bounds = np.concatenate([[0], ends])
    edges = np.flatnonzero(np.diff(keep, prepend=False, append=False))  # run starts, stops
    view = memoryview(text)
    return [view[i:j] for i, j in zip(bounds[edges[::2]].tolist(), bounds[edges[1::2]].tolist())]


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


def _graphml_nodes(v, degree, rank, color) -> list:
    return [
        b"    <node id=", v, b'>\n      <data key="degree">', degree,
        b'</data>\n      <data key="component">', rank,
        b'</data>\n      <data key="color">', color, b"</data>\n    </node>\n",
    ]


def _graphml_edges(a, b, weight) -> list:
    return [
        b"    <edge source=", a, b" target=", b, b'>\n      <data key="weight">',
        render.decimals(weight), b"</data>\n    </edge>\n",
    ]


_GRAPHML_HEAD = b"""<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="degree" for="node" attr.name="degree" attr.type="int"/>
  <key id="component" for="node" attr.name="component" attr.type="int"/>
  <key id="color" for="node" attr.name="color" attr.type="string"/>
  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>
"""


def _graphml(layer: NetworkLayer, nodes: list, edges: list) -> list:
    graph_id = _xml_quote("t" + threshold_label(layer.threshold))
    head = _GRAPHML_HEAD + f'  <graph id={graph_id} edgedefault="undirected">\n'.encode()
    return [head, *nodes, *edges, b"  </graph>\n</graphml>\n"]


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_nodes(v, degree, rank, color) -> list:
    return [b"  ", v, b" [degree=", degree, b", component=", rank, b", color=", color, b"];\n"]


def _dot_edges(a, b, weight) -> list:
    return [b"  ", a, b" -- ", b, b" [weight=", render.decimals(weight), b"];\n"]


def _dot(layer: NetworkLayer, nodes: list, edges: list) -> list:
    name = _dot_quote("t" + threshold_label(layer.threshold))
    return [f"graph {name} {{\n".encode(), *nodes, *edges, b"}\n"]


def _json_nodes(v, degree, rank, color) -> list:
    return [
        b'      {\n        "color": "', color, b'",\n        "component": ', rank,
        b',\n        "degree": ', degree, b',\n        "id": ', v, b"\n      },\n",
    ]


def _json_edges(a, b, weight) -> list:
    return [
        b'      {\n        "source": ', a, b',\n        "target": ', b,
        b',\n        "weight": ', render.json_decimals(weight), b"\n      },\n",
    ]


def _json_array(runs: list) -> list:
    """Item runs, each item ending ",\\n", as an indented JSON array."""
    if not runs:
        return [b"[]"]
    return [b"[\n", *runs[:-1], runs[-1][:-2], b"\n    ]"]


def _jsongraph(layer: NetworkLayer, nodes: list, edges: list) -> list:
    provenance = layer.provenance
    metadata = {
        "dataset_fingerprint": provenance.dataset_fingerprint,
        "project_types": list(provenance.project_types),
        "threshold": layer.threshold,
    }
    metadata_text = json.dumps(metadata, indent=2, sort_keys=True).replace("\n", "\n    ")
    return [
        b'{\n  "graph": {\n    "directed": false,\n    "edges": ', *_json_array(edges),
        f',\n    "metadata": {metadata_text},\n    "nodes": '.encode(), *_json_array(nodes),
        b"\n  }\n}\n",
    ]


# per format: the id quoting; the node line template of the id, degree, rank
# and color columns; the edge line template of the two id columns and the
# weights; the document around the node and edge blocks
_FORMATS = {
    ExportFormat.GRAPHML: (_xml_quote, _graphml_nodes, _graphml_edges, _graphml),
    ExportFormat.DOT: (_dot_quote, _dot_nodes, _dot_edges, _dot),
    ExportFormat.JSONGRAPH: (_json_quote, _json_nodes, _json_edges, _jsongraph),
}


def parse_jsongraph(data: bytes) -> tuple[NetworkLayer, np.ndarray]:
    """Rebuild a layer and its nodes' color indices from a JSON graph
    document; edge weights come back as written, to 6 decimals. The layer's
    degrees and component ranks equal the document's: every edge is written,
    and the one-node components a document may leave out rank last."""
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
    colors = [_COLORS.index(ComponentColor(node["color"])) for node in shown]
    return layer, np.array(colors, np.int64)
