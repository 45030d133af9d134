from __future__ import annotations

import csv
import io
import random
from collections import defaultdict
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from collabnet.ingest import aggregate, parse_records
from collabnet.linkage import LinkageTable, build_linkage_table, table_to_csv_bytes
from collabnet.synth import SynthConfig, generate_csv_bytes
from oracles import dataset_of, linkage_rows, naive_linkage_table, random_dataset, teams_of


def teams_dataset(teams: dict[str, dict[str, float]]):
    """The dataset given as project -> {member: pct}."""
    rows = [(pid, m, pct) for pid, team in teams.items() for m, pct in team.items()]
    return dataset_of(rows, over=[])  # scaled teams may exceed 100


def table_of(teams: dict[str, dict[str, float]]):
    """The linkage table of a dataset given as project -> {member: pct}."""
    return build_linkage_table(teams_dataset(teams))


def test_common_members():
    table = table_of(
        {
            "A": {"M1": 50, "M2": 50},
            "B": {"M2": 60, "M3": 40},
            "C": {"M9": 100},
            "D": {"M1": 50, "M2": 50},
        }
    )
    assert {(a, b): n for a, b, n, _ in linkage_rows(table)} == {
        ("A", "B"): 1,
        ("A", "D"): 2,
        ("B", "D"): 1,
    }


def test_pair_linkage_worked_example():
    # two common members: (50+30)/2 = 40 and (20+40)/2 = 30, mean = 35
    table = table_of({"A": {"M1": 50.0, "M2": 20.0}, "B": {"M1": 30.0, "M2": 40.0}})
    assert linkage_rows(table) == [("A", "B", 2, 35.0)]


def test_pair_linkage_maximal():
    table = table_of({"A": {"M1": 100.0}, "B": {"M1": 100.0}})
    assert table.linkage.tolist() == [100.0]


def test_pair_linkage_disjoint_absent():
    table = table_of({"A": {"M1": 100.0}, "B": {"M2": 100.0}, "C": {"M1": 100.0}})
    assert [row[:2] for row in linkage_rows(table)] == [("A", "C")]


def test_pair_linkage_symmetric_canonical():
    table = table_of({"Z": {"M1": 80.0, "M2": 20.0}, "B": {"M1": 10.0}})
    assert table.projects == ("B", "Z")
    assert (table.a.tolist(), table.b.tolist()) == ([0], [1])
    assert linkage_rows(table) == [("B", "Z", 1, 45.0)]


def scaled_pairs(rng, cell, lam):
    """Two A-B datasets, the second with every cell times ``lam``."""
    members = {f"M{i}": cell() for i in range(rng.randint(1, 5))}
    others = {f"M{i}": cell() for i in range(rng.randint(1, 5))}
    base = teams_dataset({"A": members, "B": others})
    scaled = teams_dataset(
        {
            "A": {m: lam * c for m, c in members.items()},
            "B": {m: lam * c for m, c in others.items()},
        }
    )
    return base, scaled


def test_pair_linkage_scales_linearly():
    rng = random.Random(3)
    # cells with about 15 decimals are each rounded to the 1e-9-percent unit,
    # so scaling holds only to a unit per cell; both tables are exact
    for _ in range(50):
        datasets = scaled_pairs(rng, lambda: rng.uniform(1, 40), rng.uniform(0.1, 2.0))
        for ds in datasets:
            assert [(n, value) for *_, n, value in linkage_rows(build_linkage_table(ds))] == [
                naive_linkage_table(ds)[("A", "B")]
            ]
    # cells of 4 decimals times a lam of 2 stay on the unit grid
    for _ in range(50):
        lam = rng.randint(10, 200) / 100
        datasets = scaled_pairs(rng, lambda: rng.randint(10**4, 40 * 10**4) / 10**4, lam)
        base, scaled = map(build_linkage_table, datasets)
        assert len(base) == len(scaled) == 1  # both teams hold M0
        assert scaled.n_common[0] == base.n_common[0]
        assert scaled.linkage[0] == pytest.approx(lam * base.linkage[0], rel=1e-12)


def test_a_cell_past_9_decimals_is_rounded_to_the_unit_for_linkage_and_the_limit():
    """One rule for every contribution sum: a cell is rounded to a whole
    number of 1e-9 percent."""
    over: list = []
    rows = [("P1", "M1", 50.2500000004), ("P1", "M2", 50.25), ("P2", "M1", 50.2500000004)]
    table = build_linkage_table(dataset_of(rows, over=over))
    assert over == []  # the exact total is 100.5000000004
    assert table.linkage.tolist() == [50.25]
    dataset_of([("P1", "M1", 50.2500000006), ("P1", "M2", 50.25)], over=over)
    assert [str(err) for err in over] == ["project P1 contributions sum to 100.5000"]


def test_table_small_cases():
    rows = [
        ("P1", "M1", 60.0),
        ("P1", "M2", 40.0),
        ("P2", "M2", 100.0),
        ("P3", "M1", 100.0),
    ]
    table = build_linkage_table(dataset_of(rows))
    assert [row[:2] for row in linkage_rows(table)] == [("P1", "P2"), ("P1", "P3")]
    assert len(table) == 2
    assert table.min_linkage == min(table.linkage.tolist())
    assert table.max_linkage == max(table.linkage.tolist())


def test_table_empty_when_disjoint():
    table = build_linkage_table(dataset_of([("P1", "M1", 100.0), ("P2", "M2", 100.0)]))
    assert len(table) == 0
    assert table.min_linkage is None and table.max_linkage is None


def test_table_matches_naive_scan():
    rng = random.Random(1234)
    for _ in range(30):
        ds = random_dataset(rng)
        table = build_linkage_table(ds)
        naive = naive_linkage_table(ds)
        rows = linkage_rows(table)
        assert [row[:2] for row in rows] == sorted(naive)
        for a, b, n, value in rows:
            assert (n, value) == naive[(a, b)]


def test_default_synth_linkage_is_the_exact_mean_of_the_cell_text():
    """Every pair of the default dataset is the float nearest the exact mean
    of its cells, read as decimal text: 58 pairs are exactly 50, P0391-P1128
    among them, which a float sum of the cells puts one ulp below."""
    data = generate_csv_bytes(SynthConfig(seed=0))
    cells: dict[str, dict[str, Fraction]] = defaultdict(dict)
    for row in csv.DictReader(io.StringIO(data.decode())):
        cells[row["member_id"]][row["project_id"]] = Fraction(row["contribution_pct"])
    exact: dict[tuple[str, str], list] = defaultdict(list)
    for team in cells.values():
        for pa, pb in combinations(sorted(team), 2):
            exact[pa, pb].append((team[pa] + team[pb]) / 2)
    rows = linkage_rows(build_linkage_table(aggregate(parse_records(data))))
    assert [row[:2] for row in rows] == sorted(exact)
    assert [(n, value) for *_, n, value in rows] == [
        (len(terms), float(sum(terms) / len(terms))) for _, terms in sorted(exact.items())
    ]
    tied = [row[:2] for row in rows if row[3] == 50.0]
    assert len(tied) == 58 and ("P0391", "P1128") in tied


def test_teams_list_each_shared_member_and_cover_every_pair():
    """The table's teams are the members in two or more projects, by member
    id, each row its projects' indices; a pair shares a row exactly when it
    is in the table."""
    rng = random.Random(77)
    for _ in range(20):
        ds = random_dataset(rng)
        table = build_linkage_table(ds)
        index = {pid: i for i, pid in enumerate(table.projects)}
        expected = [
            sorted(index[pid] for pid in projects)
            for _, projects in sorted(ds.member_index.items())
            if len(projects) > 1
        ]
        indptr, indices = table.teams
        teams = [indices[i:j].tolist() for i, j in zip(indptr[:-1], indptr[1:])]
        assert teams == expected
        shared = {pair for team in teams for pair in combinations(team, 2)}
        assert shared == set(zip(table.a.tolist(), table.b.tolist()))


def test_table_bounds():
    rng = random.Random(99)
    for _ in range(20):
        ds = random_dataset(rng)
        projects = teams_of(ds)
        for a, b, n, value in linkage_rows(build_linkage_table(ds)):
            assert 0.0 <= value <= 100.0
            assert a < b
            assert n == len(projects[a].members.keys() & projects[b].members.keys()) >= 1


def test_table_csv_dump():
    table = table_of({"A": {"M1": 50.0, "M2": 20.0}, "B": {"M1": 30.0, "M2": 40.0}})
    text = table_to_csv_bytes(table).decode()
    lines = text.strip().split("\n")
    assert lines[0] == "project_a,project_b,n_common,linkage"
    assert lines[1] == "A,B,2,35.000000"


def test_table_csv_dump_quotes_ids_as_csv_writer_does():
    # ids no parsed input holds (a leading space, a tab) as well: the table is
    # built from its columns, every pair with one common member
    ids = ["plain", "a,b", 'he said "hi"', " lead", "x'y", "caf\u00e9", "semi;colon", "tab\there"]
    ids.sort()
    a, b = np.array(list(combinations(range(len(ids)), 2))).T
    table = LinkageTable(tuple(ids), a, b, np.ones(a.size, np.int64), np.full(a.size, 10.0))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("project_a", "project_b", "n_common", "linkage"))
    writer.writerows((pa, pb, n, f"{v:.6f}") for pa, pb, n, v in linkage_rows(table))
    assert len(table) == len(ids) * (len(ids) - 1) // 2
    assert table_to_csv_bytes(table) == buf.getvalue().encode("utf-8")
