"""Generate a synthetic collaboration dataset and look at its shape.

The generator draws projects with teams from a pool of members organized
into lab-like groups. Every run is fully determined by the seed, so the
same config always produces the same CSV, byte for byte.
"""

from collabnet.ingest import aggregate, parse_records
from collabnet.synth import SynthConfig, generate, generate_csv_bytes, type_counts

# A small config keeps this demo instant; drop the overrides to get the
# full-size default dataset (2300 projects, 1000 members).
config = SynthConfig(seed=42, n_projects=120, n_members=96)

records = generate(config)
print(f"records: {len(records)}")
print(f"planned type counts: { {t.value: n for t, n in type_counts(config).items()} }")

# every project's contributions add up to exactly 100
by_project: dict[str, list] = {}
for rec in records:
    by_project.setdefault(rec.project_id, []).append(rec)
sums = {pid: sum(r.contribution_pct for r in recs) for pid, recs in by_project.items()}
print(f"projects: {len(by_project)}, min/max contribution sum: "
      f"{min(sums.values()):.4f} / {max(sums.values()):.4f}")

mean = sum(r.contribution_pct for r in records) / len(records)
print(f"mean contribution per record: {mean:.2f}")

# the CSV emitted here is exactly what the ingest stage consumes
csv_bytes = generate_csv_bytes(config)
print(f"CSV size: {len(csv_bytes)} bytes")
print(csv_bytes.decode().splitlines()[0])   # header
print(csv_bytes.decode().splitlines()[1])   # first data row

# round trip: parse + aggregate never complains about generated data
# (parse_records raises on a malformed row, aggregate on a project whose
# contributions sum above 100.5)
dataset = aggregate(parse_records(csv_bytes))
print(f"aggregated {dataset.n_projects} projects, "
      f"{len(dataset.member_index)} distinct members")

# reproducibility: the same seed gives identical bytes
assert generate_csv_bytes(config) == csv_bytes
print("same seed, same bytes: ok")
