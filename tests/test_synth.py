from __future__ import annotations

import hashlib

import pytest

from collabnet import ingest
from collabnet.ingest import ProjectType
from collabnet.synth import (
    CONTRIBUTION_MEAN_TARGET,
    SynthConfig,
    generate,
    generate_csv_bytes,
    type_counts,
)
from oracles import rows_of

SMALL = SynthConfig(seed=5, n_projects=60, n_members=64)


def group_by_project(records):
    projects: dict[str, list] = {}
    for rec in rows_of(records):
        projects.setdefault(rec.project_id, []).append(rec)
    return projects


# the bench's two inputs: each side of a before/after pair draws its dataset
# with its own synth, so these bytes must not move
PINNED_CSV = [
    (
        SynthConfig(seed=0),
        "02ab510b74d95fb65b5d5f53d55cf48c3b54b7074b14a5ef19bcbb9cdd00741e",
        316_959,
    ),
    (
        SynthConfig(seed=1, n_projects=4600, n_members=2000),
        "d0dbc431691eece4a9a7b2502eb398769755a39c8702c888df33e405afb13fe1",
        620_806,
    ),
]


@pytest.mark.parametrize("config, sha256, size", PINNED_CSV, ids=["default", "2x_seed1"])
def test_generated_csv_bytes_are_pinned(config, sha256, size):
    data = generate_csv_bytes(config)
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (sha256, size)


def test_same_seed_reproduces_exactly():
    assert rows_of(generate(SMALL)) == rows_of(generate(SMALL))
    assert generate_csv_bytes(SMALL) == generate_csv_bytes(SMALL)


def test_distinct_seeds_differ():
    other = SynthConfig(seed=6, n_projects=60, n_members=64)
    assert rows_of(generate(SMALL)) != rows_of(generate(other))


def test_default_counts_and_type_mix():
    config = SynthConfig(seed=1)
    counts = type_counts(config)
    assert sum(counts.values()) == 2300
    total_weight = 630 + 1717 + 539
    for ptype, weight in ((ProjectType.IP, 630), (ProjectType.PAPER, 1717), (ProjectType.PROTOTYPE, 539)):
        exact = 2300 * weight / total_weight
        assert abs(counts[ptype] - exact) <= 1.0

    records = generate(config)
    projects = group_by_project(records)
    assert len(projects) == 2300
    observed: dict[ProjectType, int] = {}
    for recs in projects.values():
        observed[recs[0].project_type] = observed.get(recs[0].project_type, 0) + 1
    assert observed == counts

    # 10 x (630, 1717, 539) / 2886 = (2.18, 5.95, 1.87): the two spare
    # projects go to the largest remainders, paper and prototype
    assert type_counts(SynthConfig(n_projects=10)) == {
        ProjectType.IP: 2,
        ProjectType.PAPER: 6,
        ProjectType.PROTOTYPE: 2,
    }


def test_contribution_sums_exactly_100_decimal():
    records = generate(SMALL)
    for recs in group_by_project(records).values():
        units = sum(round(r.contribution_pct * 10_000) for r in recs)
        assert units == 1_000_000
        assert sum(r.contribution_pct for r in recs) == pytest.approx(100.0, abs=1e-9)


def test_generated_data_passes_strict_ingest():
    data = generate_csv_bytes(SMALL)
    records = ingest.parse_records(data)
    dataset = ingest.aggregate(records)  # raises on a sum above the limit
    assert dataset.n_projects == 60


def test_contribution_mean_near_target():
    config = SynthConfig(seed=3)
    records = generate(config)
    mean = records.contribution_pct.sum() / len(records)
    assert abs(mean - CONTRIBUTION_MEAN_TARGET) <= 0.1 * CONTRIBUTION_MEAN_TARGET


def test_team_sizes_respect_cap():
    config = SynthConfig(seed=9, n_projects=80, n_members=5)
    for recs in group_by_project(generate(config)).values():
        assert 1 <= len(recs) <= 5


def test_ic_scores_present_and_apportioned():
    records = generate(SynthConfig(seed=2, n_projects=150, n_members=64))
    with_ic = [r for r in rows_of(records) if r.ic_score is not None]
    without = [r for r in rows_of(records) if r.ic_score is None]
    assert with_ic and without  # missing-rate leaves some projects unscored
    assert all(r.ic_score >= 0 for r in with_ic)
    # within a project, IC is apportioned by contribution share
    for recs in group_by_project(records).values():
        if any(r.ic_score is None for r in recs):
            continue
        total = sum(r.ic_score for r in recs)  # shares sum to 100
        for r in recs:
            assert r.ic_score == pytest.approx(total * r.contribution_pct / 100.0, abs=1e-3)


def test_member_pool_respected():
    members = generate(SMALL).member_ids
    assert len(members) <= 64
    assert all(m.startswith("M") for m in members)


def test_infeasible_configs_rejected():
    with pytest.raises(ValueError):
        generate(SynthConfig(seed=0, n_projects=0))
    with pytest.raises(ValueError):
        generate(SynthConfig(seed=0, n_members=0))
    # a mean team of 100 / 23.3 = 4.292 distinct members needs 5
    with pytest.raises(ValueError, match=r"^n_members must be from 5 to 100000, got 4$"):
        generate(SynthConfig(seed=0, n_members=4))
    assert generate(SynthConfig(seed=0, n_projects=20, n_members=5)).n_projects == 20
