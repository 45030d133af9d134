from __future__ import annotations

import random

import pytest

from collabnet.ingest import Project, ProjectType, aggregate
from collabnet.linkage import (
    build_linkage_table,
    common_members,
    pair_linkage,
    table_to_csv_bytes,
)
from oracles import naive_linkage_table, random_dataset


def project(pid: str, members: dict[str, float]) -> Project:
    return Project(pid, ProjectType.IP, members)


def test_common_members():
    a = project("A", {"M1": 50, "M2": 50})
    b = project("B", {"M2": 60, "M3": 40})
    assert common_members(a, b) == frozenset({"M2"})

    disjoint = project("C", {"M9": 100})
    assert common_members(a, disjoint) == frozenset()

    twin = project("D", dict(a.members))
    assert common_members(a, twin) == frozenset({"M1", "M2"})


def test_common_members_same_project_rejected():
    a = project("A", {"M1": 100})
    with pytest.raises(ValueError):
        common_members(a, a)


def test_pair_linkage_worked_example():
    # two common members: (50+30)/2 = 40 and (20+40)/2 = 30, mean = 35
    a = project("A", {"M1": 50.0, "M2": 20.0})
    b = project("B", {"M1": 30.0, "M2": 40.0})
    link = pair_linkage(a, b)
    assert link is not None
    assert link.linkage == 35.0
    assert link.n_common == 2


def test_pair_linkage_maximal():
    a = project("A", {"M1": 100.0})
    b = project("B", {"M1": 100.0})
    assert pair_linkage(a, b).linkage == 100.0


def test_pair_linkage_disjoint_absent():
    a = project("A", {"M1": 100.0})
    b = project("B", {"M2": 100.0})
    assert pair_linkage(a, b) is None


def test_pair_linkage_symmetric_canonical():
    a = project("Z", {"M1": 80.0, "M2": 20.0})
    b = project("B", {"M1": 10.0})
    ab, ba = pair_linkage(a, b), pair_linkage(b, a)
    assert ab == ba
    assert ab.project_a == "B" and ab.project_b == "Z"


def test_pair_linkage_scales_linearly():
    rng = random.Random(3)
    for _ in range(50):
        members = {f"M{i}": rng.uniform(1, 40) for i in range(rng.randint(1, 5))}
        others = {f"M{i}": rng.uniform(1, 40) for i in range(rng.randint(1, 5))}
        a, b = project("A", members), project("B", others)
        base = pair_linkage(a, b)
        if base is None:
            continue
        lam = rng.uniform(0.1, 2.0)
        scaled = pair_linkage(
            project("A", {m: lam * c for m, c in members.items()}),
            project("B", {m: lam * c for m, c in others.items()}),
        )
        assert scaled.linkage == pytest.approx(lam * base.linkage, rel=1e-12)


def test_table_small_cases():
    rows = [
        ("P1", "M1", 60.0),
        ("P1", "M2", 40.0),
        ("P2", "M2", 100.0),
        ("P3", "M1", 100.0),
    ]
    from collabnet.ingest import ContributionRecord

    ds = aggregate(
        [ContributionRecord(p, m, c, None, ProjectType.IP) for p, m, c in rows]
    )
    table = build_linkage_table(ds)
    assert set(table.pairs) == {("P1", "P2"), ("P1", "P3")}
    assert len(table) == 2
    assert table.min_linkage == min(p.linkage for p in table)
    assert table.max_linkage == max(p.linkage for p in table)


def test_table_empty_when_disjoint():
    from collabnet.ingest import ContributionRecord

    ds = aggregate(
        [
            ContributionRecord("P1", "M1", 100.0, None, ProjectType.IP),
            ContributionRecord("P2", "M2", 100.0, None, ProjectType.IP),
        ]
    )
    table = build_linkage_table(ds)
    assert len(table) == 0
    assert table.min_linkage is None and table.max_linkage is None


def test_table_matches_naive_scan():
    rng = random.Random(1234)
    for _ in range(30):
        ds = random_dataset(rng)
        table = build_linkage_table(ds)
        naive = naive_linkage_table(ds)
        assert set(table.pairs) == set(naive)
        for key, link in table.pairs.items():
            n_common, value = naive[key]
            assert link.n_common == n_common
            assert link.linkage == pytest.approx(value, rel=1e-12)


def test_table_bounds():
    rng = random.Random(99)
    for _ in range(20):
        ds = random_dataset(rng)
        for link in build_linkage_table(ds):
            assert 0.0 <= link.linkage <= 100.0
            assert link.project_a < link.project_b
            a, b = ds.projects[link.project_a], ds.projects[link.project_b]
            assert link.n_common == len(common_members(a, b)) >= 1


def test_table_csv_dump():
    a = project("A", {"M1": 50.0, "M2": 20.0})
    b = project("B", {"M1": 30.0, "M2": 40.0})
    from collabnet.ingest import ContributionRecord

    ds = aggregate(
        [
            ContributionRecord("A", "M1", 50.0, None, ProjectType.IP),
            ContributionRecord("A", "M2", 20.0, None, ProjectType.IP),
            ContributionRecord("B", "M1", 30.0, None, ProjectType.IP),
            ContributionRecord("B", "M2", 40.0, None, ProjectType.IP),
        ]
    )
    text = table_to_csv_bytes(build_linkage_table(ds)).decode()
    lines = text.strip().split("\n")
    assert lines[0] == "project_a,project_b,n_common,linkage"
    assert lines[1] == "A,B,2,35.000000"
