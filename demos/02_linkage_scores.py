"""Score project pairs by their shared members' contributions.

Two projects are linked when their teams intersect. The link strength is
the mean, over common members, of the member's average contribution in the
two projects: a pair held together by people who carried both projects
scores near 100, a pair sharing only marginal helpers scores near 0.
"""

from collabnet.ingest import Project, ProjectType, aggregate, parse_records
from collabnet.linkage import (
    build_linkage_table,
    common_members,
    pair_linkage,
    table_to_csv_bytes,
)
from collabnet.synth import SynthConfig, generate_csv_bytes

# hand-worked pair: members M1 (50 vs 30) and M2 (20 vs 40)
#   M1 averages (50+30)/2 = 40, M2 averages (20+40)/2 = 30, mean = 35
a = Project("A", ProjectType.IP, {"M1": 50.0, "M2": 20.0})
b = Project("B", ProjectType.IP, {"M1": 30.0, "M2": 40.0})
link = pair_linkage(a, b)
print(f"A-B linkage: {link.linkage} via {sorted(common_members(a, b))}")

# disjoint teams produce no entry at all rather than a zero
c = Project("C", ProjectType.IP, {"M9": 100.0})
print(f"A-C linkage: {pair_linkage(a, c)}")

# the full table for a synthetic dataset
data = generate_csv_bytes(SynthConfig(seed=7, n_projects=150, n_members=96))
dataset = aggregate(parse_records(data))
table = build_linkage_table(dataset)
print(f"\n{dataset.n_projects} projects -> {len(table)} co-membered pairs")
print(f"linkage range: [{table.min_linkage:.2f}, {table.max_linkage:.2f}]")

# a quick histogram of the scores, ten buckets of width 10
buckets = [0] * 10
for pair in table:
    buckets[min(int(pair.linkage // 10), 9)] += 1
for i, count in enumerate(buckets):
    print(f"  {i*10:3d}-{i*10+10:3d}  {'#' * (60 * count // max(buckets))} {count}")

# the debug dump is a plain CSV, handy for spreadsheets
dump = table_to_csv_bytes(table).decode().splitlines()
print(f"\ndump header: {dump[0]}")
print(f"first row:   {dump[1]}")
