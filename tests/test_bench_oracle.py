"""Builds of drawn inputs, checked by the benchmark's own oracle.

``bench/oracle.py`` recomputes a build's linkage, layer edge sets, metrics
and stats from the input CSV without collabnet's code (scipy and
networkx), the check every benchmark run makes at full size. Here it
checks in-process builds of small drawn tables: quoted and non-ASCII ids,
contributions down to 0.0001 and up to 100, and the shapes that make
empty, disjoint or repeated teams. Integer thresholds keep the oracle's
tie rule exact.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collabnet import cli
from collabnet.export import ExportFormat, export_layer, parse_jsongraph
from collabnet.ingest import CSV_COLUMNS, ProjectType

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import oracle  # noqa: E402  (bench/oracle.py, read only)

UNITS = 10**4  # oracle.PCT_UNITS: contributions are whole ten-thousandths
TYPES = [t.value for t in ProjectType]

# ids: the characters that CSV, XML and JSON quote, or any printable
# character but separators and U+FFFE/U+FFFF, which ingest strips or rejects
ids = st.text(
    st.sampled_from('",&<>')
    | st.characters(
        codec="utf-8", exclude_categories=("Cc", "Cs", "Z"), exclude_characters="\ufffe\uffff"
    ),
    min_size=1,
    max_size=4,
)
shares = st.sampled_from([0, 1, 100 * UNITS]) | st.integers(0, 100 * UNITS)
ic_values = st.integers(0, 100).map(str) | st.floats(0, 1000).map(repr)
ic_scores = st.none() | ic_values


@st.composite
def tables(draw):
    """Rows (project, member, contribution units, ic_score or None, type):
    one type per project, no repeated member in a project, project totals
    at most 100 and at least one ic_score."""
    members = draw(st.lists(ids, min_size=1, max_size=5, unique=True))
    projects = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    rows = []
    for p in projects:
        kind = draw(st.sampled_from(TYPES))
        team = draw(st.lists(st.sampled_from(members), min_size=1, unique=True))
        left = 100 * UNITS
        for m in team:
            share = min(draw(shares), left)
            left -= share
            rows.append((p, m, share, draw(ic_scores), kind))
    if all(ic is None for _, _, _, ic, _ in rows):
        p, m, share, _, kind = rows[0]
        rows[0] = (p, m, share, draw(ic_values), kind)
    return rows


# 0 first (its layer walks member teams), then integers that walk edges
sweeps = st.lists(st.integers(1, 100), min_size=1, max_size=2, unique=True).map(
    lambda ts: (0, *sorted(ts))
)


def csv_bytes(rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for p, m, share, ic, kind in rows:
        writer.writerow((p, m, f"{share // UNITS}.{share % UNITS:04d}", ic or "", kind))
    return buf.getvalue().encode("utf-8")


def team(project, members, share=None, ic="1"):
    """A project's rows, its members splitting 100% evenly unless ``share``."""
    share = 100 * UNITS // len(members) if share is None else share
    return [(project, m, share, ic, "paper") for m in members]


def problems(out: Path, table: oracle.InputTable, thresholds, fmt: str) -> list[str]:
    """The oracle's check of a build. ``oracle.PairLinkage`` cannot be built
    for a table where no member is in two projects (scipy gives its empty
    pair lookups as a sparse matrix), so such a build is held to the
    oracle's manifest and stats checks, and to edgeless layers."""
    if (np.bincount(table.row_member) > 1).any():
        return oracle.check_build(out, table, oracle.PairLinkage(table), thresholds, fmt)
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    hashes = {name: hashlib.sha256(blob).hexdigest() for name, blob in files.items()}
    rows = list(csv.DictReader(io.StringIO(files["metrics.csv"].decode())))
    edgeless = [row["n_edges"] for row in rows] == ["0"] * len(thresholds)
    return (
        oracle.check_manifest(hashes, files["manifest.json"])
        + oracle.check_stats(files, table)
        + ([] if edgeless else ["edges in a table with no co-membered pair"])
    )


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(tables(), sweeps, st.booleans())
@example(team("P1", "ab") + team("P2", "b"), (0, 50), True)  # a member in one project
@example(team("P1", "a") + team("P2", "a") + team("P3", "b") + team("P4", "b"), (0, 100), False)
@example(team("P1", ['"x,y"', "&<>"], ic=None) + team("P2", ['"x,y"']), (0, 1, 75), True)
@example(team("P1", "ab", share=1), (0, 1), False)  # one project, no pair
@example(team("P1", "ab") + team("P2", "ab") + team("P3", "ab"), (0, 50, 51), True)
@example(
    team("P1", "hx") + team("P2", "hy") + team("P3", "hz") + team("P4", "h", share=1)
    + team("P5", "h", share=0) + team("P6", "yz"),
    (0, 25, 50),
    False,
)  # one member in most projects; P4 and P5 link at 0.00005
def test_builds_of_drawn_inputs_pass_the_bench_oracle(rows, thresholds, include_isolated):
    data = csv_bytes(rows)
    table = oracle.InputTable.parse(data)
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "input.csv"
        source.write_bytes(data)
        for fmt in ("json", "graphml"):
            out = Path(tmp) / fmt
            argv = ["build", str(source), "--thresholds", ",".join(map(str, thresholds))]
            argv += ["--format", fmt, "--output-dir", str(out)]
            argv += [] if include_isolated else ["--no-include-isolated"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            assert problems(out, table, thresholds, fmt) == []
        for path in sorted((Path(tmp) / "json").glob("layer_*.json")):
            blob = path.read_bytes()
            assert export_layer(*parse_jsongraph(blob), ExportFormat.JSONGRAPH) == blob, path.name
