from __future__ import annotations

import hashlib
import random
from dataclasses import fields

import numpy as np
import pytest

from collabnet import ingest, synth
from collabnet.ingest import (
    ContributionRecord,
    ContributionSumError,
    Dataset,
    DuplicateMembershipError,
    IngestError,
    Project,
    ProjectType,
    RowError,
    aggregate,
    filter_by_type,
    parse_records,
    records_to_csv_bytes,
)
from collabnet.linkage import build_linkage_table
from oracles import random_records

HEADER = "project_id,member_id,contribution_pct,ic_score,project_type\n"


def parse(text: str, **kwargs):
    return parse_records(text.encode("utf-8"), **kwargs)


def test_parse_simple_row():
    records = parse(HEADER + "P1,M1,50,3.0,IP\n")
    assert records == [ContributionRecord("P1", "M1", 50.0, 3.0, ProjectType.IP)]


def test_parse_out_of_range_contribution_reports_row():
    with pytest.raises(RowError) as err:
        parse(HEADER + "P1,M1,150,,IP\n")
    assert str(err.value) == "row 2: contribution_pct out of range: 150.0"
    assert err.value.row == 2


def test_parse_missing_ic_is_none():
    records = parse(HEADER + "P1,M1,50,,paper\n")
    assert records[0].ic_score is None
    assert records[0].project_type is ProjectType.PAPER


def test_parse_types_case_insensitive():
    text = HEADER + "P1,M1,10,,ip\nP2,M2,10,,Paper\nP3,M3,10,,PROTOTYPE\n"
    types = [r.project_type for r in parse(text)]
    assert types == [ProjectType.IP, ProjectType.PAPER, ProjectType.PROTOTYPE]


def test_parse_unknown_type_fails():
    with pytest.raises(RowError, match="unknown project type"):
        parse(HEADER + "P1,M1,10,,patent\n")


def test_parse_blank_lines_skipped():
    text = HEADER + "\nP1,M1,60,,IP\n\n   , , , , \nP1,M2,40,,IP\n"
    assert len(parse(text)) == 2


def test_parse_bom_tolerated():
    data = b"\xef\xbb\xbf" + (HEADER + "P1,M1,50,,IP\n").encode()
    assert parse_records(data)[0].project_id == "P1"


def test_parse_custom_delimiter():
    text = HEADER.replace(",", ";") + "P1;M1;50;;IP\n"
    assert parse(text, delimiter=";")[0].contribution_pct == 50.0


def test_parse_header_required():
    with pytest.raises(IngestError, match="missing column"):
        parse("a,b,c\nP1,M1,50\n")
    with pytest.raises(IngestError, match="no header"):
        parse("")


def test_parse_header_order_free():
    text = "project_type,member_id,project_id,contribution_pct\nIP,M1,P1,25\n"
    rec = parse(text)[0]
    assert (rec.project_id, rec.member_id, rec.contribution_pct) == ("P1", "M1", 25.0)
    assert rec.ic_score is None


def test_parse_wrong_column_count():
    with pytest.raises(RowError, match="expected 5 columns"):
        parse(HEADER + "P1,M1,50,IP\n")


def test_parse_header_with_trailing_empty_cells():
    # spreadsheet exports pad the header; rows are held to its cell count
    text = "project_id,member_id,contribution_pct,project_type,,\nP1,M1,50,IP,,\n"
    assert parse(text) == [ContributionRecord("P1", "M1", 50.0, None, ProjectType.IP)]
    with pytest.raises(RowError, match="row 2: expected 6 columns, got 4"):
        parse(text.replace("P1,M1,50,IP,,", "P1,M1,50,IP"))


def test_parse_header_repeating_a_column_rejected():
    for header in (
        "project_id,member_id,contribution_pct,project_type,project_id",
        "project_id,member_id,contribution_pct,project_type,Project_ID ",
    ):
        with pytest.raises(IngestError, match="header repeats column project_id"):
            parse(header + "\nP1,M1,50,IP,P1\n")


def test_parse_unsplittable_row_message():
    # the csv module's advice after " - " differs by Python version and is dropped
    text = "project_id,member_id,contribution_pct,project_type\nP1,M\r1,50,IP\n"
    with pytest.raises(RowError) as exc:
        parse(text)
    assert str(exc.value) == "row 2: unreadable row: new-line character seen in unquoted field"


def test_parse_unsplittable_header_is_never_skipped():
    text = "project_id,member\r_id,contribution_pct,project_type\nP1,M1,50,IP\n"
    for skipped in (None, []):
        with pytest.raises(RowError) as exc:
            parse(text, skipped=skipped)
        assert exc.value.row == 1
        assert not skipped


def test_parse_unparseable_number():
    with pytest.raises(RowError, match="contribution_pct"):
        parse(HEADER + "P1,M1,lots,,IP\n")
    with pytest.raises(RowError, match="ic_score"):
        parse(HEADER + "P1,M1,50,high,IP\n")


def test_parse_negative_ic_rejected():
    with pytest.raises(RowError, match="negative ic_score"):
        parse(HEADER + "P1,M1,50,-1,IP\n")


def test_parse_non_finite_ic_rejected():
    for raw in ("nan", "inf", "-Infinity"):
        with pytest.raises(RowError, match="non-finite ic_score") as exc:
            parse(HEADER + f"P1,M1,50,1,IP\nP2,M1,50,{raw},IP\n")
        assert exc.value.row == 3


def test_parse_empty_ids_rejected():
    with pytest.raises(RowError, match="empty"):
        parse(HEADER + ",M1,50,,IP\n")


def test_parse_control_characters_in_ids_rejected():
    # a quoted line break is a control character too; the row ends on line 4
    for row, line in (
        ("P\x01,M1,50,,IP", 3),
        ("P1,M\x7f1,50,,IP", 3),
        ("P1,M\x851,50,,IP", 3),
        ('"P\n1",M1,50,,IP', 4),
    ):
        with pytest.raises(RowError, match="control character") as exc:
            parse(HEADER + "P0,M0,50,,IP\n" + row + "\n")
        assert exc.value.row == line
    errors: list[RowError] = []
    records = parse(HEADER + "P\x01,M1,50,,IP\nP2,M1,50,,IP\n", skipped=errors)
    assert [r.project_id for r in records] == ["P2"]
    assert [e.row for e in errors] == [2]
    assert parse(HEADER + "Projé-α 項目,Mü,50,,IP\n")[0].project_id == "Projé-α 項目"


def test_parse_lenient_collects_errors():
    text = HEADER + "P1,M1,50,,IP\nP2,M2,150,,IP\nP3,M3,10,,paper\n"
    errors: list[RowError] = []
    records = parse(text, skipped=errors)
    assert [r.project_id for r in records] == ["P1", "P3"]
    assert len(errors) == 1 and errors[0].row == 3


def test_aggregate_single_project():
    records = parse(HEADER + "P1,M1,60,,IP\nP1,M2,40,,IP\n")
    ds = aggregate(records)
    assert ds.n_projects == 1
    assert ds.projects["P1"].members == {"M1": 60.0, "M2": 40.0}
    assert ds.member_index == {"M1": frozenset({"P1"}), "M2": frozenset({"P1"})}


def test_aggregate_duplicate_pair_rejected():
    records = [
        ContributionRecord("P1", "M1", 60.0, None, ProjectType.IP),
        ContributionRecord("P1", "M1", 40.0, None, ProjectType.IP),
    ]
    with pytest.raises(DuplicateMembershipError, match=r"\(P1, M1\)"):
        aggregate(records)


def test_aggregate_shared_member_index():
    records = [
        ContributionRecord("P1", "M1", 50.0, None, ProjectType.IP),
        ContributionRecord("P2", "M1", 30.0, None, ProjectType.IP),
    ]
    ds = aggregate(records)
    assert ds.member_index["M1"] == frozenset({"P1", "P2"})


def test_aggregate_type_conflict_rejected():
    records = [
        ContributionRecord("P1", "M1", 50.0, None, ProjectType.IP),
        ContributionRecord("P1", "M2", 30.0, None, ProjectType.PAPER),
    ]
    with pytest.raises(IngestError, match="conflicting types"):
        aggregate(records)


def test_aggregate_sum_tolerance():
    fine = [
        ContributionRecord("P1", "M1", 60.0, None, ProjectType.IP),
        ContributionRecord("P1", "M2", 40.4, None, ProjectType.IP),
    ]
    collected = []
    aggregate(fine)  # 100.4 inside the tolerance band
    aggregate(fine, over=collected)
    assert collected == []

    over = [
        ContributionRecord("P1", "M1", 60.0, None, ProjectType.IP),
        ContributionRecord("P1", "M2", 41.0, None, ProjectType.IP),
        ContributionRecord("P2", "M1", 100.0, None, ProjectType.IP),
    ]
    with pytest.raises(ContributionSumError, match=r"^project P1 contributions sum to 101\.0000$"):
        aggregate(over)
    dataset = aggregate(over, over=collected)  # the project is kept, its error collected
    assert dataset.projects["P1"].members == {"M1": 60.0, "M2": 41.0}
    assert [str(err) for err in collected] == ["project P1 contributions sum to 101.0000"]
    assert all(isinstance(err, ContributionSumError) for err in collected)


def test_sum_exactly_at_the_limit_is_accepted():
    # the exact total is 100.5; a left-to-right float sum() gives 100.50000000000001
    # on Python 3.11 and 100.5 from 3.12, where sum() is compensated
    records = [
        ContributionRecord("P1", f"M{i}", pct, None, ProjectType.IP)
        for i, pct in enumerate((17.7, 11.9, 34.7, 36.2))
    ]
    collected = []
    dataset = aggregate(records, over=collected)
    assert collected == []
    assert aggregate(records).projects == dataset.projects


def test_member_index_is_exact_inverse():
    rng = random.Random(7)
    for _ in range(25):
        ds = aggregate(random_records(rng))
        for mid, pids in ds.member_index.items():
            for pid in pids:
                assert mid in ds.projects[pid].members
        for pid, project in ds.projects.items():
            for mid in project.members:
                assert pid in ds.member_index[mid]


def test_filter_by_type():
    records = parse(
        HEADER + "P1,M1,100,,IP\nP2,M1,100,,paper\nP3,M2,100,,prototype\n"
    )
    ds = aggregate(records)
    only_ip = filter_by_type(ds, {ProjectType.IP})
    assert set(only_ip.projects) == {"P1"}
    assert only_ip.member_index == {"M1": frozenset({"P1"})}

    all_types = filter_by_type(ds, set(ProjectType))
    assert all_types.projects == ds.projects
    assert all_types.member_index == ds.member_index

    none_left = filter_by_type(ds, {ProjectType.IP}).projects
    assert filter_by_type(ds, {ProjectType.PAPER}).n_projects == 1
    assert none_left  # empty result is valid, non-empty here

    with pytest.raises(ValueError):
        filter_by_type(ds, set())


def test_roundtrip_parse_aggregate_serialize():
    rng = random.Random(11)
    for _ in range(10):
        records = random_records(rng)
        ds = aggregate(records)
        back = [
            (pid, mid, pct, p.project_type.value)
            for pid, p in ds.projects.items()
            for mid, pct in p.members.items()
        ]
        key = lambda r: (r.project_id, r.member_id, r.contribution_pct, r.project_type.value)
        assert sorted(back) == sorted(map(key, records))


def test_csv_write_read_roundtrip():
    records = [
        ContributionRecord("P1", "M1", 33.3333, 1.25, ProjectType.IP),
        ContributionRecord("P1", "M2", 66.6667, None, ProjectType.IP),
        ContributionRecord('P"2', "M,3", 100.0, 0.0, ProjectType.PAPER),
    ]
    parsed = parse_records(records_to_csv_bytes(records))
    assert parsed == records


def test_fingerprint_stability():
    base = parse(HEADER + "P1,M1,60,,IP\nP1,M2,40,,IP\nP2,M1,100,,paper\n")
    reordered = list(reversed(base))
    assert aggregate(base).fingerprint() == aggregate(reordered).fingerprint()

    changed = parse(HEADER + "P1,M1,61,,IP\nP1,M2,39,,IP\nP2,M1,100,,paper\n")
    assert aggregate(base).fingerprint() != aggregate(changed).fingerprint()


def test_fingerprint_hashes_each_field_in_order():
    def field_by_field(dataset):
        h = hashlib.sha256()
        for pid in sorted(dataset.projects):
            p = dataset.projects[pid]
            h.update(pid.encode() + b"\x1f" + p.project_type.value.encode())
            for mid in sorted(p.members):
                h.update(b"\x1e" + mid.encode() + b"\x1f" + repr(p.members[mid]).encode())
            h.update(b"\n")
        return h.hexdigest()

    text = HEADER + "Projé-α 項目,Mü,33.3,,IP\nP2,M1,100,,paper\nP2,協作,0.1,,paper\n"
    for dataset in (aggregate(parse(text)), Dataset({})):
        assert dataset.fingerprint() == field_by_field(dataset)


def test_member_index_is_a_cached_view():
    assert [f.name for f in fields(Dataset)] == ["records"]
    team = Project(ProjectType.IP, {"M1": 50.0})
    ds = Dataset({"P1": team, "P2": team})
    assert "member_index" not in vars(ds) and "projects" not in vars(ds)
    assert ds.member_index == {"M1": frozenset({"P1", "P2"})}
    assert ds.member_index is ds.member_index
    assert ds.projects == {"P1": team, "P2": team}
    assert ds.projects is ds.projects


def test_project_types_listing():
    records = parse(HEADER + "P1,M1,100,,IP\nP2,M2,100,,prototype\n")
    assert aggregate(records).project_types() == ("IP", "prototype")


def test_records_and_their_parsed_csv_give_one_dataset():
    # the calls the benchmark makes: aggregate of synth's record list, and
    # of the parsed CSV of the same records
    records = synth.generate(synth.SynthConfig(seed=3, n_projects=300, n_members=150))
    data = records_to_csv_bytes(records)
    parsed = parse_records(data)
    assert len(parsed) == len(data.splitlines()) - 1 == len(records)
    assert parsed == records
    listed, tabled = aggregate(records), aggregate(parsed)
    assert list(listed.projects.items()) == list(tabled.projects.items())
    assert listed.fingerprint() == tabled.fingerprint()
    assert listed.n_projects == tabled.n_projects == len({r.project_id for r in records})
    assert listed.member_index == tabled.member_index
    one, two = build_linkage_table(listed), build_linkage_table(tabled)
    assert one.projects == two.projects
    for name in ("a", "b", "n_common", "linkage"):
        assert np.array_equal(getattr(one, name), getattr(two, name))
    assert all(map(np.array_equal, one.teams, two.teams))


def test_record_table_reads_as_a_sequence():
    text = HEADER + "P2,M1,60,1.5,IP\nP1,M2,40,,paper\n"
    table = parse(text)
    assert isinstance(table, ingest.RecordTable)
    assert (table.project_ids, table.member_ids) == (("P1", "P2"), ("M1", "M2"))
    assert table.project.tolist() == [1, 0] and table.line.tolist() == [2, 3]
    first = ContributionRecord("P2", "M1", 60.0, 1.5, ProjectType.IP)
    second = ContributionRecord("P1", "M2", 40.0, None, ProjectType.PAPER)
    assert (table[0], table[-1], table[1:]) == (first, second, [second])
    assert list(reversed(table)) == [second, first]
    assert table == (first, second) and table != [first] and table != [second, first]
    with pytest.raises(IndexError):
        table[2]
