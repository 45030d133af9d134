"""Drawn invalid inputs fail every command cleanly.

Each example is a small valid table with one defect: a wrong cell count,
a bad contribution or IC score, an unknown type, an empty id or one with a
control character or noncharacter, a missing or repeated header column, a
repeated membership, conflicting types, a quote left open, a second BOM,
bare CR line ends, or a bad ``--delimiter``. The table is written with a
drawn delimiter, line end and leading BOM, and ``cli.main`` runs it as
ingest, stats and build: each exits 1 (2 for the option), writes one
``error:`` line and nothing else but ``warning:`` or ``skipped`` lines,
prints nothing on stdout and leaves no output directory behind.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabnet import cli
from collabnet.ingest import CSV_COLUMNS, ProjectType

TYPES = [t.value for t in ProjectType]
ids = st.from_regex(r"[A-Za-z0-9]{1,4}", fullmatch=True)


@st.composite
def tables(draw) -> list[list[str]]:
    """The header and rows of a valid table: one type per project, no
    member twice in a project, each project's contributions at most 100."""
    projects = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    members = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    rows = [list(CSV_COLUMNS)]
    for p in projects:
        kind = draw(st.sampled_from(TYPES))
        team = draw(st.lists(st.sampled_from(members), min_size=1, unique=True))
        for m in team:
            ic = draw(st.sampled_from(["", "0", "3.5"]))
            rows.append([p, m, f"{100 / len(team):.4f}", ic, kind])
    return rows


def _cell(column: int, values):
    """A defect that sets one data row's cell of ``column`` to a drawn value."""

    def defect(draw, rows):
        row = draw(st.sampled_from(rows[1:]))
        row[column] = draw(values(row[column]) if callable(values) else values)

    return defect


def _cell_count(draw, rows):
    row = draw(st.sampled_from(rows[1:]))
    if draw(st.booleans()):
        row.append(draw(st.sampled_from(["x", "", "0"])))
    else:
        del row[draw(st.integers(0, len(row) - 1))]


def _header_missing(draw, rows):
    column = draw(st.sampled_from([0, 1, 2, 4]))  # the required ones
    for row in rows:
        del row[column]


def _header_repeated(draw, rows):
    rows[0].append(draw(st.sampled_from(["project_id", "MEMBER_ID", " Project_Type ", "ic_score"])))
    for row in rows[1:]:
        row.append("0")


def _repeated_membership(draw, rows):
    row = draw(st.sampled_from(rows[1:]))
    rows.append([*row[:2], "0", "", row[4]])


def _conflicting_types(draw, rows):
    row = draw(st.sampled_from(rows[1:]))
    other = draw(st.sampled_from([t for t in TYPES if t != row[4]]))
    rows.append([row[0], "m-new", "0", "", other])


def _open_quote(draw, rows):
    row = draw(st.sampled_from(rows[1:]))
    column = draw(st.integers(0, len(row) - 1))
    row[column] = '"' + row[column]


bad_ids = st.sampled_from(["", "  "])
bad_characters = st.characters(categories=["Cc"]) | st.sampled_from("\ufffe\uffff")
DEFECTS = {
    "cell_count": _cell_count,
    "contribution": _cell(
        2, st.sampled_from(["", "abc", "1e", "--5", "-0.5", "100.01", "nan", "inf"])
    ),
    "ic_score": _cell(3, st.sampled_from(["-1", "-0.001", "nan", "inf", "-inf", "x"])),
    "type": _cell(4, st.sampled_from(["", "patent", "ipp", "paper2", "proto"])),
    "empty_project": _cell(0, bad_ids),
    "empty_member": _cell(1, bad_ids),
    "character_in_project": _cell(0, lambda id_: bad_characters.map(lambda c: f"{id_}{c}x")),
    "character_in_member": _cell(1, lambda id_: bad_characters.map(lambda c: f"{id_}{c}x")),
    "header_missing": _header_missing,
    "header_repeated": _header_repeated,
    "repeated_membership": _repeated_membership,
    "conflicting_types": _conflicting_types,
    "open_quote": _open_quote,
    "second_bom": None,
    "cr_line_ends": None,
    "bad_delimiter_option": None,
}


@settings(derandomize=True, deadline=None, database=None, max_examples=10)
@given(data=st.data(), rows=tables())
@pytest.mark.parametrize("defect", DEFECTS)
def test_invalid_inputs_fail_every_command_cleanly(defect, data, rows):
    draw = data.draw
    if DEFECTS[defect] is not None:
        DEFECTS[defect](draw, rows)
    delimiter = draw(st.sampled_from([",", ";", "\t", "|"]))
    end = "\r" if defect == "cr_line_ends" else draw(st.sampled_from(["\n", "\r\n"]))
    bom = "\ufeff" * (2 if defect == "second_bom" else draw(st.integers(0, 1)))
    text = bom + "".join(delimiter.join(row) + end for row in rows)
    option, code = delimiter, 1
    if defect == "bad_delimiter_option":
        option, code = draw(st.sampled_from(['"', "\n", ";;", ""])), 2
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "input.csv"
        source.write_text(text, encoding="utf-8", newline="")
        for command in ("ingest", "stats", "build"):
            argv = [command, str(source), f"--delimiter={option}"]
            out_dir = Path(tmp) / command
            if command != "ingest":
                argv += ["--output-dir", str(out_dir)]
            if command == "build":
                argv += ["--thresholds", "0"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert cli.main(argv) == code, (command, err.getvalue())
            lines = err.getvalue().split("\n")
            assert lines.pop() == "" and out.getvalue() == "", command
            assert [line.startswith("error: ") for line in lines].count(True) == 1, lines
            assert all(line.startswith(("error: ", "warning: ", "skipped ")) for line in lines)
            assert "Traceback" not in err.getvalue()
            assert not out_dir.exists()
