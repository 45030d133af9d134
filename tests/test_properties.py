"""Property tests for CSV ingest and linkage.

Examples are derived from the test source (``derandomize=True``) and never
time out, so every run checks the same cases.
"""

from __future__ import annotations

import warnings
from xml.dom import minidom

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabnet.export import ExportFormat, assign_visuals, export_layer
from collabnet.ingest import (
    ContributionRecord,
    ProjectType,
    RowError,
    aggregate,
    parse_records,
    records_to_csv_bytes,
)
from collabnet.layers import build_layer
from collabnet.linkage import build_linkage_table, pair_linkage
from collabnet.metrics import components
from oracles import naive_linkage_table

DETERMINISTIC = settings(derandomize=True, deadline=None, database=None, max_examples=150)

# ids: any printable text with no control or separator characters and
# neither U+FFFE nor U+FFFF, since ingest rejects those characters and
# strips surrounding whitespace
ids = st.text(
    st.characters(
        codec="utf-8", exclude_categories=("Cc", "Cs", "Z"), exclude_characters="\ufffe\uffff"
    ),
    min_size=1,
    max_size=6,
)
percents = st.floats(0.0, 100.0)
records = st.lists(
    st.builds(
        ContributionRecord,
        ids,
        ids,
        percents,
        st.none() | st.floats(0.0, 1e6),
        st.sampled_from(ProjectType),
    ),
    min_size=1,
    max_size=12,
)


@DETERMINISTIC
@given(records)
def test_csv_roundtrip(recs):
    assert parse_records(records_to_csv_bytes(recs)) == recs


BAD_CELLS = {
    "project_id": ["", "P\x01", "P\ufffe", "P\r1"],  # csv cannot split a bare \r
    "member_id": [" ", "M\x1f1", "M\uffff"],  # surrounding whitespace, \x1f included, is stripped
    "contribution_pct": ["abc", "150", "-1", "nan"],
    "ic_score": ["x", "-2", "inf"],
    "project_type": ["invoice", ""],
}
COLUMNS = list(BAD_CELLS)


@DETERMINISTIC
@given(
    st.lists(st.tuples(st.sampled_from("PQR"), st.sampled_from("MN"), percents), min_size=1, max_size=8),
    st.data(),
)
def test_malformed_cell_reports_its_line(rows, data):
    recs = [ContributionRecord(p, m, pct, None, ProjectType.IP) for p, m, pct in rows]
    lines = records_to_csv_bytes(recs).decode().splitlines()
    index = data.draw(st.integers(1, len(rows)))  # lines[0] is the header
    column = data.draw(st.sampled_from(COLUMNS))
    cells = lines[index].split(",")
    cells[COLUMNS.index(column)] = data.draw(st.sampled_from(BAD_CELLS[column]))
    lines[index] = ",".join(cells)
    text = "\n".join(lines).encode()

    with pytest.raises(RowError) as exc:
        parse_records(text)
    assert exc.value.row == index + 1
    errors: list[RowError] = []
    kept = parse_records(text, lenient=True, errors_out=errors)
    assert [e.row for e in errors] == [index + 1]
    assert kept == recs[: index - 1] + recs[index:]


@DETERMINISTIC
@given(
    st.lists(
        st.text(st.characters(codec="utf-8"), min_size=1), min_size=1, max_size=4, unique_by=str.strip
    )
)
def test_accepted_ids_survive_graphml(project_ids):
    # ids from any text UTF-8 can encode (all but surrogates): ingest rejects
    # the row, or the GraphML of the built layer parses and gives them back
    recs = [
        ContributionRecord(p, m, 10.0, None, ProjectType.IP)
        for p in project_ids
        for m in ("M1", "M2")
    ]
    try:
        parsed = parse_records(records_to_csv_bytes(recs))
    except RowError:
        return
    dataset = aggregate(parsed)
    layer = build_layer(dataset, build_linkage_table(dataset), 0.0)
    blob = export_layer(layer, assign_visuals(layer, components(layer)[1]), ExportFormat.GRAPHML)
    doc = minidom.parseString(blob)
    assert [node.getAttribute("id") for node in doc.getElementsByTagName("node")] == sorted(
        p.strip() for p in project_ids
    )
    assert len(doc.getElementsByTagName("edge")) == layer.n_edges


teams = st.dictionaries(st.sampled_from([f"M{i}" for i in range(6)]), percents, min_size=1, max_size=4)


@DETERMINISTIC
@given(st.lists(teams, min_size=2, max_size=8))
def test_linkage_symmetric_bounded_and_naive(project_teams):
    recs = [
        ContributionRecord(f"P{i}", m, pct, None, ProjectType.PAPER)
        for i, team in enumerate(project_teams)
        for m, pct in team.items()
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # random teams may sum above 100
        dataset = aggregate(recs)
    table = build_linkage_table(dataset)
    naive = naive_linkage_table(dataset)
    assert set(table.pairs) == set(naive)
    for (pa, pb), link in table.pairs.items():
        a, b = dataset.projects[pa], dataset.projects[pb]
        assert pair_linkage(b, a) == link
        assert 0.0 <= link.linkage <= 100.0
        n_common, value = naive[(pa, pb)]
        assert link.n_common == n_common
        assert link.linkage == pytest.approx(value, rel=1e-12)
