from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from collabnet import ingest, layers, synth
from collabnet.ingest import (
    ContributionSumError,
    DuplicateMembershipError,
    IngestError,
    ProjectType,
    RowError,
    aggregate,
    filter_by_type,
    parse_records,
    records_to_csv_bytes,
)
from collabnet.linkage import build_linkage_table
from oracles import Row, random_dataset, rows_of, table_of, teams_of

HEADER = "project_id,member_id,contribution_pct,ic_score,project_type\n"


def parse(text: str, **kwargs):
    return parse_records(text.encode("utf-8"), **kwargs)


def test_parse_simple_row():
    records = parse(HEADER + "P1,M1,50,3.0,IP\n")
    assert rows_of(records) == [Row("P1", "M1", 50.0, 3.0, ProjectType.IP)]


def test_parse_out_of_range_contribution_reports_row():
    with pytest.raises(RowError) as err:
        parse(HEADER + "P1,M1,150,,IP\n")
    assert str(err.value) == "row 2: contribution_pct out of range: 150.0"
    assert err.value.row == 2


def test_parse_missing_ic_is_none():
    records = parse(HEADER + "P1,M1,50,,paper\n")
    assert np.isnan(records.ic_score).tolist() == [True]
    assert rows_of(records)[0].project_type is ProjectType.PAPER


def test_parse_types_case_insensitive():
    text = HEADER + "P1,M1,10,,ip\nP2,M2,10,,Paper\nP3,M3,10,,PROTOTYPE\n"
    types = [r.project_type for r in rows_of(parse(text))]
    assert types == [ProjectType.IP, ProjectType.PAPER, ProjectType.PROTOTYPE]


def test_parse_unknown_type_fails():
    with pytest.raises(RowError, match="unknown project type"):
        parse(HEADER + "P1,M1,10,,patent\n")


def test_parse_blank_lines_skipped():
    text = HEADER + "\nP1,M1,60,,IP\n\n   , , , , \nP1,M2,40,,IP\n"
    assert len(parse(text)) == 2


def test_parse_bom_tolerated():
    data = b"\xef\xbb\xbf" + (HEADER + "P1,M1,50,,IP\n").encode()
    assert parse_records(data).project_ids == ("P1",)


def test_parse_custom_delimiter():
    text = HEADER.replace(",", ";") + "P1;M1;50;;IP\n"
    assert parse(text, delimiter=";").contribution_pct.tolist() == [50.0]


def test_parse_header_required():
    with pytest.raises(IngestError, match="missing column"):
        parse("a,b,c\nP1,M1,50\n")
    with pytest.raises(IngestError, match="no header"):
        parse("")


def test_parse_header_order_free():
    text = "project_type,member_id,project_id,contribution_pct\nIP,M1,P1,25\n"
    assert rows_of(parse(text)) == [Row("P1", "M1", 25.0)]


def test_parse_wrong_column_count():
    with pytest.raises(RowError, match="expected 5 columns"):
        parse(HEADER + "P1,M1,50,IP\n")


def test_parse_header_with_trailing_empty_cells():
    # spreadsheet exports pad the header; rows are held to its cell count
    text = "project_id,member_id,contribution_pct,project_type,,\nP1,M1,50,IP,,\n"
    assert rows_of(parse(text)) == [Row("P1", "M1", 50.0, None, ProjectType.IP)]
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


def test_parse_quote_left_open_at_the_end_is_never_skipped():
    """The csv module ends a quoted field at the end of the data as if it
    were closed; an input that ends inside one fails on its last line,
    under ``skipped`` too, as the rows after the quote are unreadable."""
    cases = [
        (HEADER + 'P1,M1,50,,"paper', 2),  # would read as the type paper
        (HEADER + 'P1,M1,50,,paper\nP2,M1,50,,"paper\n', 3),
        (HEADER + '"P1,M1,50,,paper\nP2,M1,50,,paper\n', 3),  # the rows read as one cell
        (HEADER.rstrip() + ',notes\nP1,M1,50,,paper,"x\n', 2),  # an ignored column
        (HEADER.rstrip() + ',"notes\nP1,M1,50,,paper,x\n', 2),  # in the header
    ]
    for text, row in cases:
        for skipped in (None, []):
            with pytest.raises(RowError, match="unreadable row: unterminated quoted field") as exc:
                parse(text, skipped=skipped)
            assert exc.value.row == row
    assert len(parse(HEADER + 'P1,M1,50,,"paper"')) == 1  # closed at the very end


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
    assert records.project_ids == ("P2",)
    assert [e.row for e in errors] == [2]
    assert parse(HEADER + "Projé-α 項目,Mü,50,,IP\n").project_ids == ("Projé-α 項目",)


def test_parse_lenient_collects_errors():
    text = HEADER + "P1,M1,50,,IP\nP2,M2,150,,IP\nP3,M3,10,,paper\n"
    errors: list[RowError] = []
    records = parse(text, skipped=errors)
    assert [r.project_id for r in rows_of(records)] == ["P1", "P3"]
    assert len(errors) == 1 and errors[0].row == 3


def test_aggregate_single_project():
    records = parse(HEADER + "P1,M1,60,,IP\nP1,M2,40,,IP\n")
    ds = aggregate(records)
    assert ds.n_projects == 1
    assert teams_of(ds)["P1"].members == {"M1": 60.0, "M2": 40.0}
    assert ds.member_index == {"M1": frozenset({"P1"}), "M2": frozenset({"P1"})}


def test_aggregate_duplicate_pair_rejected():
    records = table_of([Row("P1", "M1", 60.0), Row("P1", "M1", 40.0)])
    with pytest.raises(DuplicateMembershipError, match=r"\(P1, M1\)"):
        aggregate(records)


def test_aggregate_shared_member_index():
    ds = aggregate(table_of([Row("P1", "M1", 50.0), Row("P2", "M1", 30.0)]))
    assert ds.member_index["M1"] == frozenset({"P1", "P2"})


def test_aggregate_type_conflict_rejected():
    records = table_of([Row("P1", "M1", 50.0), Row("P1", "M2", 30.0, None, ProjectType.PAPER)])
    with pytest.raises(IngestError, match="conflicting types"):
        aggregate(records)


def test_aggregate_sum_tolerance():
    fine = table_of([Row("P1", "M1", 60.0), Row("P1", "M2", 40.4)])
    collected = []
    aggregate(fine)  # 100.4 inside the tolerance band
    aggregate(fine, over=collected)
    assert collected == []

    over = table_of([Row("P1", "M1", 60.0), Row("P1", "M2", 41.0), Row("P2", "M1", 100.0)])
    with pytest.raises(ContributionSumError, match=r"^project P1 contributions sum to 101\.0000$"):
        aggregate(over)
    dataset = aggregate(over, over=collected)  # the project is kept, its error collected
    assert teams_of(dataset)["P1"].members == {"M1": 60.0, "M2": 41.0}
    assert [str(err) for err in collected] == ["project P1 contributions sum to 101.0000"]
    assert all(isinstance(err, ContributionSumError) for err in collected)


def test_sum_exactly_at_the_limit_is_accepted():
    # the exact total is 100.5; a left-to-right float sum() gives 100.50000000000001
    # on Python 3.11 and 100.5 from 3.12, where sum() is compensated
    records = table_of(Row("P1", f"M{i}", pct) for i, pct in enumerate((17.7, 11.9, 34.7, 36.2)))
    collected = []
    dataset = aggregate(records, over=collected)
    assert collected == []
    assert aggregate(records).fingerprint() == dataset.fingerprint()


def test_member_index_is_exact_inverse():
    rng = random.Random(7)
    for _ in range(25):
        ds = random_dataset(rng)
        projects = teams_of(ds)
        for mid, pids in ds.member_index.items():
            for pid in pids:
                assert mid in projects[pid].members
        for pid, project in projects.items():
            for mid in project.members:
                assert pid in ds.member_index[mid]


def test_filter_by_type():
    records = parse(
        HEADER + "P1,M1,100,,IP\nP2,M1,100,,paper\nP3,M2,100,,prototype\n"
    )
    ds = aggregate(records)
    only_ip = filter_by_type(ds, {ProjectType.IP})
    assert only_ip.project_ids == ("P1",)
    assert only_ip.member_index == {"M1": frozenset({"P1"})}

    # every type kept: the same table, not a copy
    assert filter_by_type(ds, set(ProjectType)) is ds is records
    assert filter_by_type(ds, {ProjectType.PAPER}).n_projects == 1

    with pytest.raises(ValueError):
        filter_by_type(ds, set())


def test_roundtrip_parse_aggregate_serialize():
    rng = random.Random(11)
    for _ in range(10):
        ds = random_dataset(rng)
        data = records_to_csv_bytes(ds)
        assert rows_of(aggregate(parse_records(data))) == rows_of(ds)


def test_csv_write_read_roundtrip():
    rows = [
        Row("P1", "M1", 33.3333, 1.25, ProjectType.IP),
        Row("P1", "M2", 66.6667, None, ProjectType.IP),
        Row('P"2', "M,3", 100.0, 0.0, ProjectType.PAPER),
    ]
    written = records_to_csv_bytes(table_of(rows))
    assert written == (
        b"project_id,member_id,contribution_pct,ic_score,project_type\n"
        b"P1,M1,33.3333,1.25,IP\nP1,M2,66.6667,,IP\n" b'"P""2","M,3",100,0,paper\n'
    )
    assert rows_of(parse_records(written)) == rows


def test_fingerprint_stability():
    base = parse(HEADER + "P1,M1,60,,IP\nP1,M2,40,,IP\nP2,M1,100,,paper\n")
    reordered = table_of(reversed(rows_of(base)))
    assert aggregate(base).fingerprint() == aggregate(reordered).fingerprint()

    changed = parse(HEADER + "P1,M1,61,,IP\nP1,M2,39,,IP\nP2,M1,100,,paper\n")
    assert aggregate(base).fingerprint() != aggregate(changed).fingerprint()


def test_fingerprint_hashes_each_field_in_order():
    def field_by_field(dataset):
        h = hashlib.sha256()
        projects = teams_of(dataset)
        for pid in sorted(projects):
            p = projects[pid]
            h.update(pid.encode() + b"\x1f" + p.project_type.value.encode())
            for mid in sorted(p.members):
                h.update(b"\x1e" + mid.encode() + b"\x1f" + repr(p.members[mid]).encode())
            h.update(b"\n")
        return h.hexdigest()

    text = HEADER + "Projé-α 項目,Mü,33.3,,IP\nP2,M1,100,,paper\nP2,協作,0.1,,paper\n"
    empty = aggregate(parse(HEADER))
    for dataset in (aggregate(parse(text)), empty):
        assert dataset.fingerprint() == field_by_field(dataset)


def test_member_index_is_a_cached_view():
    ds = table_of([Row("P1", "M1", 50.0), Row("P2", "M1", 50.0)])
    assert "member_index" not in vars(ds)
    assert ds.member_index == {"M1": frozenset({"P1", "P2"})}
    assert ds.member_index is ds.member_index


def test_project_types_listing():
    records = parse(HEADER + "P1,M1,100,,IP\nP2,M2,100,,prototype\n")
    assert aggregate(records).project_types() == ("IP", "prototype")


def test_records_and_their_parsed_csv_give_one_dataset():
    # the calls the benchmark makes: aggregate of synth's table, and of the
    # parsed CSV of the same table, then the threshold-0 layer of the result
    records = synth.generate(synth.SynthConfig(seed=3, n_projects=300, n_members=150))
    data = records_to_csv_bytes(records)
    parsed = parse_records(data)
    assert len(parsed) == len(data.splitlines()) - 1 == len(records)
    assert records_to_csv_bytes(parsed) == data
    assert_same_columns(parsed, records)
    drawn, read = aggregate(records), aggregate(parsed)
    assert drawn is records and read is parsed
    assert len(drawn) == len(read) == len(records)
    assert drawn.fingerprint() == read.fingerprint()
    assert drawn.n_projects == read.n_projects == 300
    assert drawn.member_index == read.member_index
    layer = layers.build_layer(read, build_linkage_table(read), 0.0)  # as scale_probe
    assert layer.nodes == read.project_ids
    assert layer.n_edges == len(build_linkage_table(drawn)) > 0


def assert_same_columns(one, two):
    assert (one.project_ids, one.member_ids) == (two.project_ids, two.member_ids)
    for name in ("project", "member", "contribution_pct", "ic_score", "project_type"):
        assert np.array_equal(getattr(one, name), getattr(two, name), equal_nan=True), name


def test_record_table_columns():
    text = HEADER + "P2,M1,60,1.5,IP\nP1,M2,40,,paper\n"
    table = parse(text)
    assert isinstance(table, ingest.RecordTable)
    assert (table.project_ids, table.member_ids) == (("P1", "P2"), ("M1", "M2"))
    assert table.project.tolist() == [1, 0] and table.member.tolist() == [0, 1]
    assert table.contribution_pct.tolist() == [60.0, 40.0]
    assert np.array_equal(table.ic_score, [1.5, np.nan], equal_nan=True)
    assert table.project_type.tolist() == [0, 1]  # indices into tuple(ProjectType)
    assert len(table) == 2
