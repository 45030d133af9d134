"""Pairwise linkage scores between co-membered projects.

Two projects that share at least one member get a linkage value: the mean,
over their common members, of the average of the member's two contribution
percentages, summed exactly in whole units of 1e-9 percent and divided once.
Pairs without common members are not materialized. The table holds the
sorted project ids and, for every pair, parallel arrays of the two project
indices, the common-member count and the linkage; threshold sweeps in
:mod:`collabnet.layers` cut these arrays. It also keeps the member teams
it grouped the pairs by: the project-member incidence whose one-mode
projection is the set of co-membered pairs (Newman, "Scientific
collaboration networks", PRE 2001; Latapy, Magnien & Del Vecchio, "Basic
notions for the analysis of large two-mode networks", Social Networks
2008), so :mod:`collabnet.metrics` can walk the layer that keeps every
pair over teams instead of over its edges.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import render
from .ingest import _UNITS_PER_PCT, RecordTable

__all__ = [
    "LinkageTable",
    "build_linkage_table",
    "table_to_csv_bytes",
]


@dataclass(frozen=True, eq=False)
class LinkageTable:
    """All pair linkages of a record table, one array entry per co-membered pair.

    ``a[i] < b[i]`` index ``projects``, the sorted project ids, and the pairs
    are in canonical (a, b) order. min_linkage/max_linkage are None when no pair shares a member.
    ``teams``, when known, is the CSR ``(indptr, indices)`` of every member
    in two or more projects, by member id: each row lists its projects'
    indices, ascending. Two projects form a pair exactly when one row holds
    both.
    """

    projects: tuple[str, ...]
    a: np.ndarray
    b: np.ndarray
    n_common: np.ndarray
    linkage: np.ndarray
    teams: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def min_linkage(self) -> float | None:
        return float(self.linkage.min()) if self.linkage.size else None

    @property
    def max_linkage(self) -> float | None:
        return float(self.linkage.max()) if self.linkage.size else None

    def __len__(self) -> int:
        return self.linkage.size


def build_linkage_table(records: RecordTable) -> LinkageTable:
    """Compute linkage for every project pair sharing at least one member.

    The value is (1/n) * sum over the n common members of
    (contribution_in_a + contribution_in_b) / 2, in [0, 100], summed in
    ``records.units`` (1e-9 percent): a summand is at most 2e11, so for up
    to 45,035 common members each total is a whole number below 2**53,
    exact in any order, and one division gives the float nearest the exact
    mean. A checked table holds one row per (member, project); grouped by
    member, each member emits the pairs of its projects, so only
    co-membered pairs are touched and the result equals an all-pairs scan.
    """
    t = records
    projects = t.project_ids
    # the rows by member, then by project: member codes follow sorted member
    # ids and project codes sorted project ids
    order = np.lexsort((t.project, t.member))
    member, project, units = t.member[order], t.project[order], t.units[order]
    sizes = np.bincount(member, minlength=len(t.member_ids))
    # row i pairs with the rows after it up to the end of its member's team
    rows = np.arange(project.size)
    partners = np.repeat(np.cumsum(sizes), sizes) - rows - 1
    first = np.repeat(rows, partners)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(partners) - partners, partners)

    n = len(projects)
    keys, pair = np.unique(project[first] * n + project[second], return_inverse=True)
    n_common = np.bincount(pair, minlength=keys.size)
    total = np.bincount(pair, units[first] + units[second], minlength=keys.size)
    linkage = total / (2 * _UNITS_PER_PCT * n_common)
    shared = np.repeat(sizes > 1, sizes)  # rows of members in two or more projects
    teams = np.concatenate([[0], np.cumsum(sizes[sizes > 1])]), project[shared]
    return LinkageTable(projects, *np.divmod(keys, n), n_common, linkage, teams)


def table_to_csv_bytes(table: LinkageTable) -> bytes:
    """Debug dump: project_a, project_b, n_common, linkage (6 decimals).

    Each project id is quoted once, by the csv module as it quotes a field;
    every pair's line is then rendered at once by :mod:`collabnet.render`."""
    # writerow returns what the file's write returns: here, the formatted row
    row = csv.writer(SimpleNamespace(write=lambda text: text), lineterminator="\n").writerow
    # each id beside an empty field, as in a pair row (a lone empty field is
    # written as ""), then that field's ",\n" dropped
    ids = render.texts([row((pid, ""))[:-2] for pid in table.projects])
    text, _ = render.lines(
        table.a.size,
        [render.gather(ids, table.a), b",", render.gather(ids, table.b), b",",
         render.integers(table.n_common), b",", render.decimals(table.linkage), b"\n"],
    )
    return b"project_a,project_b,n_common,linkage\n" + text
