"""Reading, validating and aggregating collaboration records.

The input is a delimited text table with one row per (project, member)
contribution. Rows are parsed into :class:`ContributionRecord`, then
aggregated into :class:`Project` entities keyed by id in a :class:`Dataset`.
All downstream stages (linkage, layers, metrics) consume the Dataset.
A malformed row or an over-limit project raises, unless the caller passes
a list (``skipped``, ``over``) to collect its error in and go on.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "ProjectType",
    "ContributionRecord",
    "Project",
    "Dataset",
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
            return _TYPES_BY_NAME[text.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown project type {text!r}") from None


_TYPES_BY_NAME = {t.value.lower(): t for t in ProjectType}


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
    """A project's type and its team, keyed by member id with contribution percentages."""

    project_type: ProjectType
    members: Mapping[str, float]


@dataclass(frozen=True)
class Dataset:
    """Aggregated projects, keyed by project id.

    Treated as immutable after construction; safe to share across threads.
    ``member_index`` is a view built on first use and then cached; from
    Python 3.12 two threads reading it first at once may each build it, and
    both get equal dicts.
    """

    projects: Mapping[str, Project]

    @cached_property
    def member_index(self) -> Mapping[str, frozenset[str]]:
        """The inverted member -> projects index of ``projects``."""
        index: dict[str, set[str]] = {}
        for pid, p in self.projects.items():
            for mid in p.members:
                index.setdefault(mid, set()).add(pid)
        return {mid: frozenset(pids) for mid, pids in index.items()}

    @property
    def n_projects(self) -> int:
        return len(self.projects)

    def project_types(self) -> tuple[str, ...]:
        """Sorted distinct type labels present in the dataset."""
        return tuple(sorted({p.project_type.value for p in self.projects.values()}))

    def fingerprint(self) -> str:
        """SHA-256 over a canonical serialization; stable across runs."""
        lines = []
        for pid in sorted(self.projects):
            p = self.projects[pid]
            team = "".join(f"\x1e{mid}\x1f{p.members[mid]!r}" for mid in sorted(p.members))
            lines.append(f"{pid}\x1f{p.project_type.value}{team}\n")
        return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


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
        raise RowError(line_num, f"contribution_pct out of range: {pct}")

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
    place, so it can be skipped like any other malformed row. The csv
    module's advice after " - ", which differs by Python version and names
    a file mode no CLI user chooses, is dropped."""
    while True:
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            reason = str(exc).partition(" - ")[0]
            yield RowError(reader.line_num, f"unreadable row: {reason}")


def parse_records(
    data: bytes, *, delimiter: str = ",", skipped: list[RowError] | None = None
) -> list[ContributionRecord]:
    """Parse a delimited UTF-8 table (a leading BOM is dropped) into
    contribution records, in input order.

    The first non-blank row must be a header naming at least the columns
    project_id, member_id, contribution_pct and project_type (any order,
    matched case-insensitively); ic_score is optional, other named columns
    are ignored, and no name may repeat. Every row must have as many cells
    as the header, empty trailing header cells included. Blank lines are
    skipped. A malformed row raises :class:`RowError`, unless ``skipped``
    is a list: then the row is left out and its error appended to the list.
    """
    reader = csv.reader(io.StringIO(data.decode("utf-8-sig")), delimiter=delimiter)
    rows = _rows(reader)
    for header in rows:  # an unreadable header is never skipped
        if isinstance(header, RowError):
            raise header
        if any(cell.strip() for cell in header):
            break
    else:
        raise IngestError("input has no header row")
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

    records: list[ContributionRecord] = []
    for row in rows:
        if not isinstance(row, RowError) and not any(cell.strip() for cell in row):
            continue
        try:
            if isinstance(row, RowError):
                raise row
            if len(row) != len(header):
                raise RowError(reader.line_num, f"expected {len(header)} columns, got {len(row)}")
            records.append(_parse_row(row, columns, reader.line_num))
        except RowError as err:
            if skipped is None:
                raise
            skipped.append(err)
    return records


def aggregate(
    records: Iterable[ContributionRecord], *, over: list[ContributionSumError] | None = None
) -> Dataset:
    """Group validated records into one Project per distinct project_id.

    Rejects duplicate (project, member) pairs and conflicting type labels
    for the same project. A project whose contributions sum above
    ``CONTRIBUTION_SUM_LIMIT`` raises :class:`ContributionSumError`, unless
    ``over`` is a list: then the project is kept and its error appended to
    the list.
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
        total = math.fsum(team.values())  # correctly rounded on every Python
        if total > CONTRIBUTION_SUM_LIMIT:
            err = ContributionSumError(f"project {pid} contributions sum to {total:.4f}")
            if over is None:
                raise err
            over.append(err)
    return Dataset({pid: Project(types[pid], team) for pid, team in members.items()})


def filter_by_type(dataset: Dataset, types: Iterable[ProjectType]) -> Dataset:
    """Restrict a dataset to projects of the given types."""
    wanted = frozenset(types)
    if not wanted:
        raise ValueError("type filter must name at least one project type")
    return Dataset({pid: p for pid, p in dataset.projects.items() if p.project_type in wanted})


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
