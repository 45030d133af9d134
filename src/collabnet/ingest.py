"""Reading, validating and aggregating collaboration records.

The input is a delimited text table with one row per (project, member)
contribution. :func:`parse_records` reads it once into a
:class:`RecordTable` of columns: project and member ids coded as indices
into their sorted id tuples, contributions and IC scores as float arrays,
and type codes. Each row check runs over whole columns.
:func:`aggregate` checks the memberships on the codes and returns the table
it checked, which linkage, layers, stats and the fingerprint read column by
column; the table's one dict view is its inverted ``member_index``.
A malformed row or an over-limit project raises, unless the caller passes
a list (``skipped``, ``over``) to collect its error in and go on.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "ProjectType",
    "RecordTable",
    "IngestError",
    "RowError",
    "DuplicateMembershipError",
    "ContributionSumError",
    "parse_records",
    "aggregate",
    "filter_by_type",
    "records_to_csv_bytes",
    "CONTRIBUTION_SUM_LIMIT",
]

# Per-project contribution totals are nominally 100; real exports carry
# rounding slop, so sums up to this limit are accepted silently.
CONTRIBUTION_SUM_LIMIT = 100.5
# Contributions are summed as whole numbers of 1e-9 percent (RecordTable.units):
# float64 adds whole numbers below 2**53 exactly, in any order.
_UNITS_PER_PCT = 10**9

# No export format can carry these in an id: Unicode category Cc, and the
# noncharacters U+FFFE and U+FFFF, the only other code points a UTF-8 input
# can hold that XML 1.0's Char production excludes.
_UNWRITABLE_CHAR = re.compile("[\x00-\x1f\x7f-\x9f\ufffe\uffff]")

CSV_COLUMNS = ("project_id", "member_id", "contribution_pct", "ic_score", "project_type")
_REQUIRED_COLUMNS = ("project_id", "member_id", "contribution_pct", "project_type")


class ProjectType(Enum):
    """Deliverable type of a project."""

    IP = "IP"
    PAPER = "paper"
    PROTOTYPE = "prototype"

    @classmethod
    def parse(cls, text: str) -> "ProjectType":
        """Match ``text`` case-insensitively to a project type."""
        try:
            return _TYPES[_TYPE_CODES[text.strip().lower()]]
        except KeyError:
            raise ValueError(f"unknown project type {text!r}") from None


_TYPES = tuple(ProjectType)  # a type code indexes this
_TYPE_CODES = {t.value.lower(): code for code, t in enumerate(_TYPES)}


class IngestError(Exception):
    """Base class for input validation failures."""


class RowError(IngestError):
    """A malformed input row; carries the 1-based line number."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


class DuplicateMembershipError(IngestError):
    """The same (project, member) pair appeared more than once."""


class ContributionSumError(IngestError):
    """A project's contributions sum above ``CONTRIBUTION_SUM_LIMIT``."""


def _coded(values: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct values in Python's sorted order, and each value's index
    among them. (A numpy string array would drop trailing NULs and merge
    "M1\\x00" with "M1".)"""
    ids = sorted(set(values))
    index = dict(zip(ids, range(len(ids))))
    return tuple(ids), np.fromiter(map(index.__getitem__, values), np.intp, len(values))


def _recoded(ids: tuple[str, ...], codes: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The ids ``codes`` use, still sorted, and the codes renumbered to them."""
    used, codes = np.unique(codes, return_inverse=True)
    return tuple(ids[k] for k in used.tolist()), codes.reshape(-1)


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Contribution records as columns, one entry per row in input order.

    ``project`` and ``member`` hold each row's ids as indices into
    ``project_ids`` and ``member_ids``: exactly the ids the rows use, in
    Python's sorted order. ``contribution_pct`` and ``ic_score`` are
    float64, the IC score NaN where its cell was empty; ``project_type``
    indexes ``tuple(ProjectType)``. A table that :func:`aggregate` has
    checked holds one row per (project, member) membership and one type per
    project.

    ``units`` and the inverted ``member_index`` are views built on first use
    and then cached. Treated as immutable after construction; safe to share
    across threads. From Python 3.12 two threads reading a view first at
    once may each build it, and both get equal values.
    """

    project_ids: tuple[str, ...]
    member_ids: tuple[str, ...]
    project: np.ndarray
    member: np.ndarray
    contribution_pct: np.ndarray
    ic_score: np.ndarray
    project_type: np.ndarray

    def __len__(self) -> int:
        return self.project.size

    def _take(self, keep: np.ndarray) -> RecordTable:
        """The rows where ``keep`` is true, ids renumbered to the ones they use."""
        project_ids, project = _recoded(self.project_ids, self.project[keep])
        member_ids, member = _recoded(self.member_ids, self.member[keep])
        rest = (self.contribution_pct, self.ic_score, self.project_type)
        return RecordTable(project_ids, member_ids, project, member, *(c[keep] for c in rest))

    @cached_property
    def _first_rows(self) -> np.ndarray:
        """Each project's first row, by project code."""
        return np.unique(self.project, return_index=True)[1]

    @cached_property
    def units(self) -> np.ndarray:
        """Each row's contribution in whole units of 1e-9 percent, as float64;
        a cell with more than 9 decimals is rounded to the unit."""
        return np.rint(self.contribution_pct * _UNITS_PER_PCT)

    @cached_property
    def member_index(self) -> Mapping[str, frozenset[str]]:
        """Member id -> the ids of the projects it is a member of."""
        ends = np.cumsum(np.bincount(self.member, minlength=self.n_members)).tolist()
        projects = [self.project_ids[p] for p in self.project[np.argsort(self.member)].tolist()]
        return {
            mid: frozenset(projects[start:end])
            for mid, start, end in zip(self.member_ids, [0, *ends], ends)
        }

    @property
    def n_projects(self) -> int:
        return len(self.project_ids)

    @property
    def n_members(self) -> int:
        return len(self.member_ids)

    def type_counts(self) -> dict[str, int]:
        """Project count per type label present, by label."""
        kinds = self.project_type[self._first_rows]
        counts = np.bincount(kinds, minlength=len(_TYPES)).tolist()
        return dict(sorted((t.value, n) for t, n in zip(_TYPES, counts) if n))

    def project_types(self) -> tuple[str, ...]:
        """Sorted distinct type labels present in the table."""
        return tuple(self.type_counts())

    def fingerprint(self) -> str:
        """SHA-256 over a canonical serialization; stable across runs: one
        line per project by id, holding its id, its type and, by member id,
        each member with the repr of its contribution."""
        order = np.lexsort((self.member, self.project))
        mids = self.member_ids
        team = [
            f"\x1e{mids[m]}\x1f{pct!r}"
            for m, pct in zip(self.member[order].tolist(), self.contribution_pct[order].tolist())
        ]
        ends = np.cumsum(np.bincount(self.project, minlength=self.n_projects)).tolist()
        kinds = self.project_type[self._first_rows].tolist()
        lines = [
            f"{pid}\x1f{_TYPES[kind].value}{''.join(team[start:end])}\n"
            for pid, kind, start, end in zip(self.project_ids, kinds, [0, *ends], ends)
        ]
        return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def _unreadable(reader, exc: csv.Error) -> RowError:
    """The error of a row the csv module cannot split (say, a bare carriage
    return in an unquoted field). The csv module's advice after " - ", which
    differs by Python version and names a file mode no CLI user chooses, is
    dropped."""
    return RowError(reader.line_num, f"unreadable row: {str(exc).partition(' - ')[0]}")


def _header(reader) -> list[str]:
    """The first non-blank row; an unreadable row before it is never skipped."""
    while True:
        try:
            row = next(reader)
        except StopIteration:
            raise IngestError("input has no header row") from None
        except csv.Error as exc:
            raise _unreadable(reader, exc) from None
        if any(cell.strip() for cell in row):
            return row


def _split(reader, width: int) -> tuple[list[list[str]], list[int], list[RowError]]:
    """The rest of the rows: those of ``width`` cells with the line each
    ends on, and the error of every other row but a blank one."""
    rows: list[list[str]] = []
    lines: list[int] = []
    errors: list[RowError] = []
    keep, at = rows.append, lines.append
    while True:
        try:
            for row in reader:
                if len(row) == width:
                    keep(row)
                    at(reader.line_num)
                elif any(cell.strip() for cell in row):
                    errors.append(
                        RowError(reader.line_num, f"expected {width} columns, got {len(row)}")
                    )
            return rows, lines, errors
        except csv.Error as exc:  # the reader goes on at the next line
            errors.append(_unreadable(reader, exc))


def _floats(cells: Sequence[str], blank_ok: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``float()`` of each stripped cell, and the mask of cells it rejects,
    which are NaN; under ``blank_ok`` an empty cell is NaN, not rejected."""
    values, rejected = [], []
    for cell in map(str.strip, cells):
        try:
            values.append(float(cell) if cell or not blank_ok else math.nan)
            rejected.append(False)
        except ValueError:
            values.append(math.nan)
            rejected.append(True)
    return np.array(values, float), np.array(rejected, bool)


def _unwritable(ids: tuple[str, ...], codes: np.ndarray) -> np.ndarray:
    """The rows whose id holds a character no export can write."""
    return np.array([_UNWRITABLE_CHAR.search(v) is not None for v in ids], bool)[codes]


def _unwritable_reason(name: str, value: str) -> str:
    bad = _UNWRITABLE_CHAR.search(value).group()
    kind = "noncharacter" if bad in "\ufffe\uffff" else "control character"
    return f"{kind} in {name} {value!r}"


def parse_records(
    data: bytes, *, delimiter: str = ",", skipped: list[RowError] | None = None
) -> RecordTable:
    """Parse a delimited UTF-8 table (a leading BOM is dropped) into one
    :class:`RecordTable`, rows in input order.

    The first non-blank row must be a header naming at least the columns
    project_id, member_id, contribution_pct and project_type (any order,
    matched case-insensitively); ic_score is optional, other named columns
    are ignored, and no name may repeat. Every row must have as many cells
    as the header, empty trailing header cells included. Blank lines are
    skipped. Cells are stripped, and numbers are read with ``float()``.

    The checks run over whole columns, in this order: the cell count (or an
    unreadable row), an empty id, a control character or noncharacter in
    project_id then in member_id, a contribution_pct that does not parse or
    lies outside [0, 100], an ic_score that does not parse, is not finite
    or is negative, and an unknown type. A row's error is its first failed
    check. A malformed row raises :class:`RowError` (the first in row order),
    unless ``skipped`` is a list: then every malformed row is left out and
    its error appended to the list, in row order.
    """
    reader = csv.reader(io.StringIO(data.decode("utf-8-sig")), delimiter=delimiter)
    header = _header(reader)
    columns: dict[str, int] = {}
    for i, cell in enumerate(header):
        name = cell.strip().lower()
        if name in columns:
            raise IngestError(f"header repeats column {name}")
        if name:
            columns[name] = i
    missing = [c for c in _REQUIRED_COLUMNS if c not in columns]
    if missing:
        raise IngestError(f"header is missing columns: {', '.join(missing)}")

    rows, lines, errors = _split(reader, len(header))
    n = len(rows)
    cells = list(zip(*rows)) or [()] * len(header)
    project_ids, project = _coded(list(map(str.strip, cells[columns["project_id"]])))
    member_ids, member = _coded(list(map(str.strip, cells[columns["member_id"]])))
    pct_cells = cells[columns["contribution_pct"]]
    pct, pct_rejected = _floats(pct_cells)
    ic_cells = cells[columns["ic_score"]] if "ic_score" in columns else ("",) * n
    ic, ic_rejected = _floats(ic_cells, blank_ok=True)
    type_cells = cells[columns["project_type"]]
    code_of = {c: _TYPE_CODES.get(c.strip().lower(), -1) for c in set(type_cells)}
    kinds = np.fromiter(map(code_of.__getitem__, type_cells), np.int8, n)

    empty = np.zeros(n, bool)
    for ids, codes in ((project_ids, project), (member_ids, member)):
        if ids[:1] == ("",):  # "" sorts first
            empty |= codes == 0
    # a row of empty cells is a blank line, and only an empty id can start one
    blank = np.zeros(n, bool)
    for i in np.flatnonzero(empty).tolist():
        blank[i] = not any(cell.strip() for cell in rows[i])
    # a NaN IC score is a blank cell, or a "nan" cell that is not finite
    not_finite = ~np.isfinite(ic) & ~ic_rejected
    for i in np.flatnonzero(not_finite).tolist():
        not_finite[i] = bool(ic_cells[i].strip())

    checks: list[tuple[np.ndarray, Callable[[int], str]]] = [
        (empty, lambda i: "empty project_id or member_id"),
        (
            _unwritable(project_ids, project),
            lambda i: _unwritable_reason("project_id", project_ids[project[i]]),
        ),
        (
            _unwritable(member_ids, member),
            lambda i: _unwritable_reason("member_id", member_ids[member[i]]),
        ),
        (pct_rejected, lambda i: f"unparseable contribution_pct {pct_cells[i].strip()!r}"),
        (
            ~((pct >= 0.0) & (pct <= 100.0)),  # NaN included
            lambda i: f"contribution_pct out of range: {pct.item(i)}",
        ),
        (ic_rejected, lambda i: f"unparseable ic_score {ic_cells[i].strip()!r}"),
        (not_finite, lambda i: f"non-finite ic_score {ic_cells[i].strip()!r}"),
        (ic < 0.0, lambda i: f"negative ic_score: {ic.item(i)}"),
        (kinds < 0, lambda i: f"unknown project type {type_cells[i].strip()!r}"),
    ]
    bad = blank
    for failed, reason in checks:
        errors.extend(RowError(lines[i], reason(i)) for i in np.flatnonzero(failed & ~bad).tolist())
        bad = bad | failed
    if errors:
        errors.sort(key=lambda err: err.row)  # rows end on increasing lines
        if skipped is None:
            raise errors[0]
        skipped.extend(errors)
    table = RecordTable(project_ids, member_ids, project, member, pct, ic, kinds)
    return table._take(~bad) if bad.any() else table


def aggregate(
    records: RecordTable, *, over: list[ContributionSumError] | None = None
) -> RecordTable:
    """Check the records' memberships and return the same table.

    Rejects a repeated (project, member) pair and a project with two type
    labels; whichever comes first in row order raises, the repeat first on
    one row. So a table it returns holds one row per (project, member)
    membership and one type per project. Each project's contributions are
    summed in :attr:`RecordTable.units`, exactly; a project whose total is
    above ``CONTRIBUTION_SUM_LIMIT`` raises :class:`ContributionSumError`,
    unless ``over`` is a list: then the project is kept and its error
    appended to the list, projects in order of first appearance.
    """
    t = records
    first = t._first_rows
    repeat = np.ones(len(t), bool)
    repeat[np.unique(t.project * len(t.member_ids) + t.member, return_index=True)[1]] = False
    conflict = t.project_type != t.project_type[first[t.project]]
    bad = np.flatnonzero(repeat | conflict)
    if bad.size:
        i = bad[0]
        pid = t.project_ids[t.project[i]]
        if repeat[i]:
            mid = t.member_ids[t.member[i]]
            raise DuplicateMembershipError(f"duplicate membership ({pid}, {mid})")
        known, other = (_TYPES[t.project_type[row]].value for row in (first[t.project[i]], i))
        raise IngestError(f"project {pid} has conflicting types {known!r} and {other!r}")

    totals = np.bincount(t.project, t.units, len(t.project_ids))
    over_limit = np.flatnonzero(totals > CONTRIBUTION_SUM_LIMIT * _UNITS_PER_PCT).tolist()
    for p in sorted(over_limit, key=first.__getitem__):  # by first appearance
        total = totals[p] / _UNITS_PER_PCT
        err = ContributionSumError(f"project {t.project_ids[p]} contributions sum to {total:.4f}")
        if over is None:
            raise err
        over.append(err)
    return t


def filter_by_type(records: RecordTable, types: Iterable[ProjectType]) -> RecordTable:
    """Restrict a table to projects of the given types: the table itself
    when it holds no other type."""
    wanted = frozenset(types)
    if not wanted:
        raise ValueError("type filter must name at least one project type")
    keep = np.isin(records.project_type, [_TYPES.index(t) for t in wanted])
    return records if keep.all() else records._take(keep)


def _format_number(value: float) -> str:
    # repr() is the shortest round-trip form; integers stay compact.
    return repr(value) if value != int(value) else str(int(value))


def records_to_csv_bytes(records: RecordTable) -> bytes:
    """Write the table's rows, in row order, in the CSV schema consumed by
    :func:`parse_records`; a NaN IC score is an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    t = records
    columns = (t.project, t.member, t.contribution_pct, t.ic_score, t.project_type)
    writer.writerows(
        (
            t.project_ids[p],
            t.member_ids[m],
            _format_number(pct),
            "" if math.isnan(ic) else _format_number(ic),
            _TYPES[kind].value,
        )
        for p, m, pct, ic, kind in zip(*(c.tolist() for c in columns))
    )
    return buf.getvalue().encode("utf-8")
