"""Generate a synthetic collaboration dataset and look at its shape.

The generator draws projects with teams from a pool of members organized
into lab-like groups. Every run is fully determined by the seed, so the
same config always produces the same CSV, byte for byte. The records come
back as one table of columns: ids coded as indices into sorted id tuples,
contributions and IC scores as float arrays.
"""

import numpy as np

from collabnet.ingest import aggregate, parse_records
from collabnet.synth import SynthConfig, generate, generate_csv_bytes, type_counts

# A small config keeps this demo instant; drop the overrides to get the
# full-size default dataset (2300 projects, 1000 members).
config = SynthConfig(seed=42, n_projects=120, n_members=96)

records = generate(config)
print(f"records: {len(records)}")
print(f"planned type counts: { {t.value: n for t, n in type_counts(config).items()} }")

# every project's contributions add up to exactly 100: sum the contribution
# column by each row's project code
sums = np.bincount(records.project, weights=records.contribution_pct)
print(f"projects: {len(records.project_ids)}, min/max contribution sum: "
      f"{sums.min():.4f} / {sums.max():.4f}")

print(f"mean contribution per record: {records.contribution_pct.mean():.2f}")
print(f"records without an IC score: {np.isnan(records.ic_score).sum()}")

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
      f"{dataset.n_members} distinct members")

# reproducibility: the same seed gives identical bytes
assert generate_csv_bytes(config) == csv_bytes
print("same seed, same bytes: ok")
