"""Property tests for CSV ingest, linkage, layer export and the BFS CSRs.

Examples are derived from the test source (``derandomize=True``) and never
time out, so every run checks the same cases.
"""

from __future__ import annotations

import json
from fractions import Fraction
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collabnet import metrics
from collabnet.export import ExportFormat, assign_visuals, export_layer
from collabnet.ingest import (
    CSV_COLUMNS,
    IngestError,
    ProjectType,
    RowError,
    aggregate,
    parse_records,
    records_to_csv_bytes,
)
from collabnet.layers import NetworkLayer, Pairs, Provenance, _stable_order, build_layer
from collabnet.linkage import build_linkage_table
from collabnet.metrics import components
from oracles import (
    Row,
    csv_of,
    dataset_of,
    edges_of,
    linkage_rows,
    naive_linkage_table,
    reference_aggregate,
    reference_export,
    reference_fingerprint,
    reference_parse_records,
    rows_of,
    teams_of,
)

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
        Row,
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
    table = parse_records(csv_of(recs))
    assert rows_of(table) == recs
    assert rows_of(parse_records(records_to_csv_bytes(table))) == recs


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
    recs = [Row(p, m, pct) for p, m, pct in rows]
    lines = csv_of(recs).decode().splitlines()
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
    kept = parse_records(text, skipped=errors)
    assert [e.row for e in errors] == [index + 1]
    assert rows_of(kept) == recs[: index - 1] + recs[index:]


# cells for drawn tables: valid ones from small pools, so that memberships
# repeat, types conflict and teams sum above the limit, then one of each fault
VALID_CELLS = {
    "project_id": ["P1", "P2", "P3", " P2 "],
    "member_id": ["M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8"],
    "contribution_pct": ["0", "40", "60", "100", "33.3", " 50 ", "1_0", "\x1c70"],
    "ic_score": ["", "1.5", "0", "-0", "\x1f"],
    "project_type": ["paper"] * 8 + ["IP", " Prototype "],
}
FAULTY_CELLS = {
    "project_id": ["", "P\x01", "P\ufffe"],
    "member_id": [" ", "M\x851", "M\uffff"],
    "contribution_pct": ["abc", "", "150", "-1", "nan"],
    "ic_score": ["x", "-2", "inf", "nan", "-Infinity"],
    "project_type": ["patent", ""],
}
ODD_ROWS = ["", " , ,", "P1,M1", "P1,M1,50,,IP,x,y", "P\r1,M1,50,,IP", '"P\n1",M1,50,,IP']


@st.composite
def tables(draw):
    """CSV text with a drawn column order, ic_score present or not, and rows
    that are mostly valid, some with one or two faulty cells, and some blank,
    short, long or unreadable."""
    names = list(CSV_COLUMNS) if draw(st.booleans()) else [c for c in CSV_COLUMNS if c != "ic_score"]
    names = draw(st.permutations(names))
    lines = [",".join(names)]
    for kind in draw(st.lists(st.sampled_from("vvvvvvfo"), max_size=12)):
        if kind == "o":
            lines.append(draw(st.sampled_from(ODD_ROWS)))
            continue
        cells = {name: draw(st.sampled_from(VALID_CELLS[name])) for name in names}
        if kind == "f":
            for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True)):
                cells[name] = draw(st.sampled_from(FAULTY_CELLS[name]))
        lines.append(",".join(cells[name] for name in names))
    return "\n".join(lines).encode()


def outcome(call, *args, **kwargs):
    """What a call returned, or the type, text and row of what it raised."""
    try:
        return "returned", call(*args, **kwargs)
    except IngestError as exc:
        return "raised", type(exc), str(exc), getattr(exc, "row", None)


@settings(DETERMINISTIC, max_examples=300)
@given(tables())
def test_columnar_ingest_matches_the_row_loop(data):
    for lenient in (False, True):
        skipped, expected_skipped = ([], []) if lenient else (None, None)
        got = outcome(parse_records, data, skipped=skipped)
        expected = outcome(reference_parse_records, data, skipped=expected_skipped)
        assert got[0] == expected[0]
        if got[0] == "returned":
            assert rows_of(got[1]) == expected[1]
        else:
            assert got[1:] == expected[1:]
        assert [str(e) for e in skipped or ()] == [str(e) for e in expected_skipped or ()]
    if got[0] == "raised":
        return
    records, expected_records = got[1], expected[1]

    for strict in (True, False):
        over, expected_over = (None, None) if strict else ([], [])
        dataset = outcome(aggregate, records, over=over)
        reference = outcome(reference_aggregate, expected_records, over=expected_over)
        assert dataset[0] == reference[0]
        if dataset[0] == "raised":
            assert dataset[1:] == reference[1:]
            continue
        assert [str(e) for e in over or ()] == [str(e) for e in expected_over or ()]
        dataset, projects = dataset[1], reference[1]
        assert list(teams_of(dataset).items()) == list(projects.items())  # first appearance order
        assert [list(p.members) for p in teams_of(dataset).values()] == [
            list(p.members) for p in projects.values()
        ]
        assert dataset.fingerprint() == reference_fingerprint(projects)
        assert dataset.member_index == {
            mid: frozenset(pid for pid, p in projects.items() if mid in p.members)
            for p in projects.values()
            for mid in p.members
        }


@st.composite
def teams_near_the_limit(draw):
    """One team's contribution cells: 2 to 6 of them, each in [0, 100] with
    the same 1 to 9 decimals, whose exact total is 100.5 or one unit of the
    last decimal either side."""
    places = draw(st.integers(1, 9))
    unit = 10**places
    left = 1005 * unit // 10 + draw(st.sampled_from([-1, 0, 1]))
    size = draw(st.integers(2, 6))
    cells = []
    for rest in range(size - 1, 0, -1):  # rest: the cells still to draw after this one
        cells.append(draw(st.integers(max(0, left - rest * 100 * unit), min(100 * unit, left))))
        left -= cells[-1]
    cells.append(left)
    return [f"{c // unit}.{c % unit:0{places}d}" for c in cells]


@settings(DETERMINISTIC, max_examples=500)
@given(teams_near_the_limit())
@example(["9.4198", "16.4079", "74.6723"])  # a float sum of these is above 100.5
def test_over_limit_check_is_exact(cells):
    text = "project_id,member_id,contribution_pct,project_type\n" + "".join(
        f"P1,M{i},{cell},paper\n" for i, cell in enumerate(cells)
    )
    over: list[IngestError] = []
    aggregate(parse_records(text.encode()), over=over)
    assert bool(over) == (sum(map(Fraction, cells)) > Fraction("100.5"))


any_ids = st.lists(
    st.text(st.characters(codec="utf-8"), min_size=1), min_size=1, max_size=4, unique_by=str.strip
)


def built_layer(project_ids):
    """The threshold-0 layer and visuals of projects sharing two members, or
    None when ingest rejects an id."""
    recs = [Row(p, m, 10.0) for p in project_ids for m in ("M1", "M2")]
    try:
        parsed = parse_records(csv_of(recs))
    except RowError:
        return None
    dataset = aggregate(parsed)
    layer = build_layer(dataset, build_linkage_table(dataset), 0.0)
    return layer, assign_visuals(layer, components(layer)[1])


@DETERMINISTIC
@given(any_ids)
def test_accepted_ids_survive_graphml(project_ids):
    # ids from any text UTF-8 can encode (all but surrogates): ingest rejects
    # the row, or the GraphML of the built layer parses and gives them back
    built = built_layer(project_ids)
    if built is None:
        return
    layer, visuals = built
    blob = export_layer(layer, visuals, ExportFormat.GRAPHML)
    assert blob == reference_export(layer, visuals, ExportFormat.GRAPHML)
    doc = minidom.parseString(blob)
    assert [node.getAttribute("id") for node in doc.getElementsByTagName("node")] == sorted(
        p.strip() for p in project_ids
    )
    assert len(doc.getElementsByTagName("edge")) == layer.n_edges


@DETERMINISTIC
@given(any_ids)
def test_accepted_ids_survive_json(project_ids):
    built = built_layer(project_ids)
    if built is None:
        return
    layer, visuals = built
    blob = export_layer(layer, visuals, ExportFormat.JSONGRAPH)
    assert blob == reference_export(layer, visuals, ExportFormat.JSONGRAPH)
    graph = json.loads(blob)["graph"]
    assert [node["id"] for node in graph["nodes"]] == sorted(p.strip() for p in project_ids)
    assert [(e["source"], e["target"]) for e in graph["edges"]] == [e[:2] for e in edges_of(layer)]


teams = st.dictionaries(st.sampled_from([f"M{i}" for i in range(6)]), percents, min_size=1, max_size=4)


@DETERMINISTIC
@given(st.lists(teams, min_size=2, max_size=8))
# linkage exactly 50, which a float sum of the cells puts one ulp below
@example([{"M1": 76.6677, "M2": 23.3323}, {"M1": 73.5568, "M2": 26.4432}])
def test_linkage_symmetric_bounded_and_naive(project_teams):
    def dataset_named(name):
        recs = [
            Row(name(i), m, pct, None, ProjectType.PAPER)
            for i, team in enumerate(project_teams)
            for m, pct in team.items()
        ]
        return dataset_of(recs, over=[])  # random teams may sum above 100

    dataset = dataset_named(lambda i: f"P{i}")
    rows = linkage_rows(build_linkage_table(dataset))
    # ids in reverse order swap the two sides of every pair
    flipped = linkage_rows(build_linkage_table(dataset_named(lambda i: f"Q{9 - i}")))
    flipped = {(b, a): (n, value) for a, b, n, value in flipped}
    naive = naive_linkage_table(dataset)
    assert [row[:2] for row in rows] == sorted(naive)
    for pa, pb, n, value in rows:
        assert flipped[(f"Q{9 - int(pa[1:])}", f"Q{9 - int(pb[1:])}")] == (n, value)
        assert 0.0 <= value <= 100.0
        n_common, expected = naive[(pa, pb)]
        assert n == n_common
        assert value == expected


# row lengths at the column edges, short rows, and a hub row far past them
row_lengths = st.one_of(
    st.sampled_from([1, metrics._COLUMNS, metrics._COLUMNS + 1]),
    st.integers(1, 3 * metrics._COLUMNS),
    st.integers(200, 600),
)


@settings(DETERMINISTIC, max_examples=200)
@given(
    st.lists(row_lengths, min_size=1, max_size=12),
    st.integers(1, 40),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_column_step_equals_reduceat(lengths, n_nodes, words, seed):
    """A BFS step through padded columns and a tail ORs the same frontier
    rows as one reduceat over each row's gathered entries."""
    rng = np.random.default_rng(seed)
    size = np.array(sorted(lengths, reverse=True))
    indptr = np.concatenate([[0], np.cumsum(size)])
    indices = rng.integers(0, n_nodes, indptr[-1])
    frontier = rng.integers(0, 2**64, (n_nodes, words), dtype=np.uint64)
    expected = np.bitwise_or.reduceat(frontier[indices], indptr[:-1], axis=0)
    got = metrics._step(metrics._columns(indptr, indices), frontier)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)


@settings(DETERMINISTIC, max_examples=200)
@given(
    st.sampled_from([1, 255, 256, 2**16 - 1, 2**16, 2**32, 2**40]),
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
)
def test_stable_order_equals_a_stable_argsort(top, n, seed):
    """Keys cast to the narrowest unsigned type that holds them sort into
    the same permutation as the int64 keys: equal keys keep their order,
    at every width boundary."""
    keys = np.random.default_rng(seed).integers(0, top, n, endpoint=True)
    keys[: n // 3] = keys[n // 3 : 2 * (n // 3)]  # repeated keys
    assert np.array_equal(_stable_order(keys), np.argsort(keys, kind="stable"))


@st.composite
def canonical_edges(draw):
    """A node count and an edge list over it in canonical (a, b) order: some
    nodes isolated, some at the end of many edges, some pairs repeated."""
    n = draw(st.integers(1, 40))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=80))
    return n, sorted((min(e), max(e)) for e in pairs if e[0] != e[1])


@settings(DETERMINISTIC, max_examples=200)
@given(canonical_edges())
def test_grouped_csr_lists_neighbours_ascending_once_per_edge(graph):
    """The CSR of edge ends (u, v), v ends first, lists each node's
    neighbours once per edge in ascending node index, over the whole layer
    and over each BFS pass group, whose rows are its nodes' positions."""
    n, edges = graph
    a = np.array([e[0] for e in edges], np.int64)
    b = np.array([e[1] for e in edges], np.int64)
    nodes = tuple(f"n{i:02d}" for i in range(n))
    layer = NetworkLayer(0.0, Pairs(nodes, a, b, np.ones(a.size)), Provenance("f", ()))
    around = [sorted([j for i, j in edges if i == k] + [i for i, j in edges if j == k]) for k in range(n)]

    indptr, indices = metrics._grouped(np.concatenate([b, a]), np.concatenate([a, b]), n)
    assert np.array_equal(np.diff(indptr), layer.degrees)
    assert [indices[indptr[k] : indptr[k + 1]].tolist() for k in range(n)] == around
    for group, (u, v), _, _ in metrics._passes(layer):
        indptr, indices = metrics._grouped(np.concatenate([v, u]), np.concatenate([u, v]), group.size)
        assert np.array_equal(np.diff(indptr), layer.degrees[group])
        rows = [group[indices[indptr[r] : indptr[r + 1]]].tolist() for r in range(group.size)]
        assert rows == [around[k] for k in group.tolist()]
