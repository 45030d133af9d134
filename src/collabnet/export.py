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
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Mapping
from xml.sax.saxutils import escape, quoteattr

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
    for v in nodes:
        vis = visuals[v]
        out.append(f"    <node id={quoteattr(v)}>")
        out.append(f'      <data key="degree">{vis.node_size_key}</data>')
        out.append(f'      <data key="component">{vis.component_rank}</data>')
        out.append(f'      <data key="color">{escape(vis.component_color.value)}</data>')
        out.append("    </node>")
    for a, b, weight in layer.edges:
        out.append(f"    <edge source={quoteattr(a)} target={quoteattr(b)}>")
        out.append(f'      <data key="weight">{weight:.6f}</data>')
        out.append("    </edge>")
    out.append("  </graph>")
    out.append("</graphml>")
    return ("\n".join(out) + "\n").encode("utf-8")


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _to_dot(
    layer: NetworkLayer, visuals: Mapping[str, VisualAttributes], nodes: list[str]
) -> bytes:
    out = [f"graph {_dot_quote('t' + threshold_label(layer.threshold))} {{"]
    for v in nodes:
        vis = visuals[v]
        out.append(
            f"  {_dot_quote(v)} [degree={vis.node_size_key}, "
            f"component={vis.component_rank}, color={vis.component_color.value}];"
        )
    for a, b, weight in layer.edges:
        out.append(f"  {_dot_quote(a)} -- {_dot_quote(b)} [weight={weight:.6f}];")
    out.append("}")
    return ("\n".join(out) + "\n").encode("utf-8")


def _to_jsongraph(
    layer: NetworkLayer, visuals: Mapping[str, VisualAttributes], nodes: list[str]
) -> bytes:
    doc = {
        "graph": {
            "directed": False,
            "metadata": {
                "threshold": layer.threshold,
                "dataset_fingerprint": layer.provenance.dataset_fingerprint,
                "project_types": list(layer.provenance.project_types),
            },
            "nodes": [
                {
                    "id": v,
                    "degree": visuals[v].node_size_key,
                    "component": visuals[v].component_rank,
                    "color": visuals[v].component_color.value,
                }
                for v in nodes
            ],
            "edges": [
                {"source": a, "target": b, "weight": round(weight, 6)}
                for a, b, weight in layer.edges
            ],
        }
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def parse_jsongraph(data: bytes) -> tuple[NetworkLayer, dict[str, VisualAttributes]]:
    """Rebuild a layer and its visual attributes from a JSON graph document.

    Inverse of the JSON export: restores threshold, provenance, nodes,
    weighted edges and the per-node visual attributes.
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
