"""Serialize layers for graph viewers, with size and color conventions.

Exports carry a degree attribute per node (viewers scale node size by it)
and a color per node that ranks its component's size: blue for the largest
components, gray for the smallest, green and red for the upper and lower
middle classes. Formats: GraphML, DOT and a JSON node/edge document that
round-trips losslessly.
"""

from pathlib import Path

import numpy as np

from collabnet.export import (
    ComponentColor,
    ExportFormat,
    assign_visuals,
    export_layer,
    parse_jsongraph,
)
from collabnet.ingest import aggregate, parse_records
from collabnet.layers import build_layer
from collabnet.linkage import build_linkage_table
from collabnet.metrics import components
from collabnet.synth import SynthConfig, generate_csv_bytes

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

data = generate_csv_bytes(SynthConfig(seed=9, n_projects=100, n_members=80))
dataset = aggregate(parse_records(data))
table = build_linkage_table(dataset)
layer = build_layer(dataset, table, 20.0)

count, membership = components(layer)
visuals = assign_visuals(layer, membership)  # color indices, in node order
counts = np.bincount(visuals, minlength=len(ComponentColor)).tolist()
palette = {color.value: n for color, n in zip(ComponentColor, counts) if n}
print(f"layer t=20: {layer.n_edges} edges, {count} components, colors {palette}")

for fmt in ExportFormat:
    blob = export_layer(layer, visuals, fmt)
    path = out_dir / f"layer_t20.{fmt.value}"
    path.write_bytes(blob)
    print(f"wrote {path} ({len(blob)} bytes)")

# the JSON document parses back into an identical layer + colors
back_layer, back_visuals = parse_jsongraph((out_dir / "layer_t20.json").read_bytes())
assert back_layer.nodes == layer.nodes
assert np.array_equal(back_layer.degrees, layer.degrees)
assert np.array_equal(back_layer.component_rank, layer.component_rank)
assert np.array_equal(back_visuals, visuals)
print("JSON round-trip: ok")

# a peek at the DOT output
dot = (out_dir / "layer_t20.dot").read_text().splitlines()
print("\nDOT preview:")
for line in dot[:4] + ["  ..."] + dot[-3:]:
    print(line)
