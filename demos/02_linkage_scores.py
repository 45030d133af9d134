"""Score project pairs by their shared members' contributions.

Two projects are linked when their teams intersect. The link strength is
the mean, over common members, of the member's average contribution in the
two projects: a pair held together by people who carried both projects
scores near 100, a pair sharing only marginal helpers scores near 0. The
table holds its pairs as parallel arrays.
"""

import numpy as np

from collabnet.ingest import aggregate, parse_records
from collabnet.linkage import build_linkage_table, table_to_csv_bytes
from collabnet.synth import SynthConfig, generate_csv_bytes

# hand-worked pair: members M1 (50 vs 30) and M2 (20 vs 40)
#   M1 averages (50+30)/2 = 40, M2 averages (20+40)/2 = 30, mean = 35
# C shares no member with A or B
text = """project_id,member_id,contribution_pct,project_type
A,M1,50,IP
A,M2,20,IP
B,M1,30,IP
B,M2,40,IP
C,M9,100,IP
"""
small = build_linkage_table(aggregate(parse_records(text.encode())))
ids = small.projects
for a, b, n, value in zip(*(c.tolist() for c in (small.a, small.b, small.n_common, small.linkage))):
    print(f"{ids[a]}-{ids[b]} linkage: {value} via {n} common members")

# disjoint teams produce no entry at all rather than a zero: the table holds
# one array entry per co-membered pair, as indices into the sorted project ids
print(f"{len(small)} pair over projects {small.projects}: a={small.a}, b={small.b}")

# the full table for a synthetic dataset
data = generate_csv_bytes(SynthConfig(seed=7, n_projects=150, n_members=96))
dataset = aggregate(parse_records(data))
table = build_linkage_table(dataset)
print(f"\n{dataset.n_projects} projects -> {len(table)} co-membered pairs")
print(f"linkage range: [{table.min_linkage:.2f}, {table.max_linkage:.2f}]")

# a quick histogram of the scores, ten buckets of width 10
buckets = np.bincount(np.minimum(table.linkage // 10, 9).astype(int), minlength=10).tolist()
for i, count in enumerate(buckets):
    print(f"  {i*10:3d}-{i*10+10:3d}  {'#' * (60 * count // max(buckets))} {count}")

# the debug dump is a plain CSV, handy for spreadsheets
dump = table_to_csv_bytes(table).decode().splitlines()
print(f"\ndump header: {dump[0]}")
print(f"first row:   {dump[1]}")
