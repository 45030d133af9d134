"""Sweep linkage thresholds into a stack of nested network layers.

Each layer keeps every project as a node and only the pairs whose linkage
meets that layer's threshold as edges. Raising the threshold can only
remove edges, so the stack is nested: a high layer shows the strongly held
collaborations, a low layer shows everything. A layer's edges are the
arrays ``a``, ``b`` (indices into ``nodes``) and ``weight``.
"""

from collabnet.ingest import aggregate, parse_records
from collabnet.layers import build_layer_stack, make_sweep_explicit, make_sweep_linspace
from collabnet.linkage import build_linkage_table
from collabnet.synth import SynthConfig, generate_csv_bytes

data = generate_csv_bytes(SynthConfig(seed=3, n_projects=150, n_members=96))
dataset = aggregate(parse_records(data))
table = build_linkage_table(dataset)

# the classic six-step sweep
sweep = make_sweep_explicit([0, 20, 40, 60, 80, 100])
stack = build_layer_stack(dataset, table, sweep)
print("threshold  edges  isolated")
for layer in stack:
    isolated = layer.n_nodes - int((layer.degrees > 0).sum())
    print(f"{layer.threshold:9.0f}  {layer.n_edges:5d}  {isolated:8d}")

# nesting: every higher layer's edges are a subset of every lower layer's
# (the layers share their nodes, so the index pairs compare directly)
for low, high in zip(stack, stack[1:]):
    assert set(zip(high.a.tolist(), high.b.tolist())) <= set(zip(low.a.tolist(), low.b.tolist()))
print("nesting holds across the stack")

# an edge's ends are indices into the layer's sorted project ids
top = stack[-1]
if top.n_edges:
    a, b = top.nodes[top.a[0]], top.nodes[top.b[0]]
    print(f"first edge at {top.threshold:.0f}: {a}-{b}, weight {top.weight[0]:.2f}")

# alternatively, derive thresholds from the observed linkage range
auto = make_sweep_linspace(table, 6)
print(f"linspace sweep over [{table.min_linkage:.2f}, {table.max_linkage:.2f}]: "
      f"{[round(t, 2) for t in auto.thresholds]}")

# layers carry provenance: which dataset and which project types they saw
print(f"provenance: types={stack[0].provenance.project_types}, "
      f"fingerprint={stack[0].provenance.dataset_fingerprint[:16]}...")
