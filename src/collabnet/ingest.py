"""Reading, validating and aggregating collaboration records.

The input is a delimited text table with one row per (project, member)
contribution. Rows are parsed into :class:`ContributionRecord`, then
aggregated into :class:`Project` entities indexed by a :class:`Dataset`.
All downstream stages (linkage, layers, metrics) consume the Dataset.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "ProjectType",
    "ContributionRecord",
    "Project",
    "Dataset",
    "IngestError",
    "RowError",
    "DuplicateMembershipError",
    "ContributionSumError",
    "ContributionSumWarning",
    "SkippedRowWarning",
    "parse_records",
    "aggregate",
    "filter_by_type",
    "to_records",
    "records_to_csv_bytes",
    "CONTRIBUTION_SUM_LIMIT",
]

# Per-project contribution totals are nominally 100; real exports carry
# rounding slop, so sums up to this limit are accepted silently.
CONTRIBUTION_SUM_LIMIT = 100.5

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
        key = text.strip().lower()
        try:
            return _TYPE_ALIASES[key]
        except KeyError:
            raise ValueError(f"unknown project type {text!r}") from None


_TYPE_ALIASES = {
    "ip": ProjectType.IP,
    "paper": ProjectType.PAPER,
    "prototype": ProjectType.PROTOTYPE,
}


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
    """A project's contributions exceed the accepted total (strict mode)."""


class ContributionSumWarning(UserWarning):
    """A project's contributions exceed the accepted total (lenient mode)."""


class SkippedRowWarning(UserWarning):
    """A malformed row was skipped under the lenient parse flag."""


@dataclass(frozen=True)
class ContributionRecord:
    """One raw input row: a member's contribution to one project."""

    project_id: str
    member_id: str
    contribution_pct: float
    ic_score: float | None
    project_type: ProjectType


@dataclass(frozen=True)
class Project:
    """A project and its team, keyed by member id with contribution percentages."""

    id: str
    project_type: ProjectType
    members: Mapping[str, float]


@dataclass(frozen=True)
class Dataset:
    """Aggregated projects plus the inverted member -> projects index.

    Treated as immutable after construction; safe to share across threads.
    """

    projects: Mapping[str, Project]
    member_index: Mapping[str, frozenset[str]]

    @property
    def n_projects(self) -> int:
        return len(self.projects)

    def project_types(self) -> tuple[str, ...]:
        """Sorted distinct type labels present in the dataset."""
        return tuple(sorted({p.project_type.value for p in self.projects.values()}))

    def fingerprint(self) -> str:
        """SHA-256 over a canonical serialization; stable across runs."""
        h = hashlib.sha256()
        for pid in sorted(self.projects):
            p = self.projects[pid]
            h.update(pid.encode("utf-8"))
            h.update(b"\x1f")
            h.update(p.project_type.value.encode("utf-8"))
            for mid in sorted(p.members):
                h.update(b"\x1e")
                h.update(mid.encode("utf-8"))
                h.update(b"\x1f")
                h.update(repr(p.members[mid]).encode("ascii"))
            h.update(b"\n")
        return h.hexdigest()


def _read_text(source: str | Path | bytes | IO) -> str:
    # BOM-tolerant UTF-8; accepts a path, raw bytes, or an open stream.
    if isinstance(source, bytes):
        return source.decode("utf-8-sig")
    if isinstance(source, (str, Path)):
        return Path(source).read_bytes().decode("utf-8-sig")
    data = source.read()
    if isinstance(data, bytes):
        return data.decode("utf-8-sig")
    return data.lstrip("﻿")


def _parse_row(
    row: Sequence[str], columns: Mapping[str, int], line_num: int
) -> ContributionRecord:
    def cell(name: str) -> str:
        return row[columns[name]].strip()

    project_id = cell("project_id")
    member_id = cell("member_id")
    if not project_id or not member_id:
        raise RowError(line_num, "empty project_id or member_id")
    for name, value in (("project_id", project_id), ("member_id", member_id)):
        bad = _UNWRITABLE_CHAR.search(value)
        if bad:
            kind = "noncharacter" if bad.group() in "\ufffe\uffff" else "control character"
            raise RowError(line_num, f"{kind} in {name} {value!r}")

    raw_pct = cell("contribution_pct")
    try:
        pct = float(raw_pct)
    except ValueError:
        raise RowError(line_num, f"unparseable contribution_pct {raw_pct!r}") from None
    if not 0.0 <= pct <= 100.0:
        raise RowError(line_num, f"contribution_pct out of range at row {line_num}: {pct}")

    ic: float | None = None
    if "ic_score" in columns:
        raw_ic = cell("ic_score")
        if raw_ic:
            try:
                ic = float(raw_ic)
            except ValueError:
                raise RowError(line_num, f"unparseable ic_score {raw_ic!r}") from None
            if not math.isfinite(ic):
                raise RowError(line_num, f"non-finite ic_score {raw_ic!r}")
            if ic < 0.0:
                raise RowError(line_num, f"negative ic_score: {ic}")

    try:
        ptype = ProjectType.parse(cell("project_type"))
    except ValueError as exc:
        raise RowError(line_num, str(exc)) from None

    return ContributionRecord(project_id, member_id, pct, ic, ptype)


def _rows(reader) -> Iterator[list[str] | RowError]:
    """The reader's rows in order; a row the csv module cannot split (say,
    a bare carriage return in an unquoted field) comes as a RowError in its
    place, so lenient parsing can skip it."""
    while True:
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            yield RowError(reader.line_num, f"unreadable row: {exc}")


def parse_records(
    source: str | Path | bytes | IO,
    *,
    delimiter: str = ",",
    lenient: bool = False,
    errors_out: list[RowError] | None = None,
) -> list[ContributionRecord]:
    """Parse a delimited table into contribution records, in input order.

    The first non-blank row must be a header naming at least the columns
    project_id, member_id, contribution_pct and project_type (any order,
    matched case-insensitively); ic_score is optional. Blank lines are
    skipped. Malformed rows raise :class:`RowError` unless ``lenient`` is
    set, in which case they are skipped and reported through ``errors_out``
    (or a :class:`SkippedRowWarning` when no list is supplied).
    """
    text = _read_text(source)
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)

    columns: dict[str, int] | None = None
    records: list[ContributionRecord] = []
    for row in _rows(reader):
        if not isinstance(row, RowError) and not any(cell.strip() for cell in row):
            continue
        if columns is None:
            if isinstance(row, RowError):
                raise row
            columns = {cell.strip().lower(): i for i, cell in enumerate(row)}
            missing = [c for c in _REQUIRED_COLUMNS if c not in columns]
            if missing:
                raise IngestError(f"header is missing columns: {', '.join(missing)}")
            continue
        try:
            if isinstance(row, RowError):
                raise row
            if len(row) != len(columns):
                raise RowError(
                    reader.line_num,
                    f"expected {len(columns)} columns, got {len(row)}",
                )
            records.append(_parse_row(row, columns, reader.line_num))
        except RowError as err:
            if not lenient:
                raise
            if errors_out is not None:
                errors_out.append(err)
            else:
                warnings.warn(str(err), SkippedRowWarning, stacklevel=2)
    if columns is None:
        raise IngestError("input has no header row")
    return records


def aggregate(records: Iterable[ContributionRecord], *, strict: bool = False) -> Dataset:
    """Group validated records into one Project per distinct project_id.

    Rejects duplicate (project, member) pairs and conflicting type labels
    for the same project. Projects whose contributions sum above
    ``CONTRIBUTION_SUM_LIMIT`` raise in strict mode and warn otherwise.
    """
    types: dict[str, ProjectType] = {}
    members: dict[str, dict[str, float]] = {}
    for rec in records:
        team = members.setdefault(rec.project_id, {})
        if rec.member_id in team:
            raise DuplicateMembershipError(
                f"duplicate membership ({rec.project_id}, {rec.member_id})"
            )
        team[rec.member_id] = rec.contribution_pct
        known = types.setdefault(rec.project_id, rec.project_type)
        if known is not rec.project_type:
            raise IngestError(
                f"project {rec.project_id} has conflicting types "
                f"{known.value!r} and {rec.project_type.value!r}"
            )

    for pid, team in members.items():
        total = sum(team.values())
        if total > CONTRIBUTION_SUM_LIMIT:
            msg = f"project {pid} contributions sum to {total:.4f}"
            if strict:
                raise ContributionSumError(msg)
            warnings.warn(msg, ContributionSumWarning, stacklevel=2)
    return _indexed({pid: Project(pid, types[pid], team) for pid, team in members.items()})


def _indexed(projects: dict[str, Project]) -> Dataset:
    """The dataset of ``projects`` with its member -> projects index."""
    index: dict[str, set[str]] = {}
    for pid, p in projects.items():
        for mid in p.members:
            index.setdefault(mid, set()).add(pid)
    return Dataset(projects, {mid: frozenset(pids) for mid, pids in index.items()})


def filter_by_type(dataset: Dataset, types: Iterable[ProjectType]) -> Dataset:
    """Restrict a dataset to projects of the given types; index is rebuilt."""
    wanted = frozenset(types)
    if not wanted:
        raise ValueError("type filter must name at least one project type")
    return _indexed(
        {pid: p for pid, p in dataset.projects.items() if p.project_type in wanted}
    )


def to_records(dataset: Dataset) -> list[ContributionRecord]:
    """Serialize a dataset back to membership rows (ic_score is not retained)."""
    out = []
    for pid in dataset.projects:
        p = dataset.projects[pid]
        for mid, pct in p.members.items():
            out.append(ContributionRecord(pid, mid, pct, None, p.project_type))
    return out


def _format_number(value: float) -> str:
    # repr() is the shortest round-trip form; integers stay compact.
    return repr(value) if value != int(value) else str(int(value))


def records_to_csv_bytes(records: Iterable[ContributionRecord]) -> bytes:
    """Write records in the CSV schema consumed by :func:`parse_records`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(
            (
                rec.project_id,
                rec.member_id,
                _format_number(rec.contribution_pct),
                "" if rec.ic_score is None else _format_number(rec.ic_score),
                rec.project_type.value,
            )
        )
    return buf.getvalue().encode("utf-8")
