"""Pairwise linkage scores between co-membered projects.

Two projects that share at least one member get a linkage value: the mean,
over their common members, of the average of the member's two contribution
percentages. Pairs without common members are not materialized. The full
table of pair scores feeds threshold sweeps in :mod:`collabnet.layers`.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterator, Mapping

from .ingest import Dataset, Project

__all__ = [
    "PairLinkage",
    "LinkageTable",
    "common_members",
    "pair_linkage",
    "build_linkage_table",
    "table_to_csv_bytes",
]


@dataclass(frozen=True)
class PairLinkage:
    """Linkage between one unordered project pair (project_a < project_b)."""

    project_a: str
    project_b: str
    n_common: int
    linkage: float


@dataclass(frozen=True)
class LinkageTable:
    """All pair linkages of a dataset, keyed by canonical (a, b) id pair.

    min_linkage/max_linkage are None when no pair shares a member.
    """

    pairs: Mapping[tuple[str, str], PairLinkage]
    min_linkage: float | None
    max_linkage: float | None

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[PairLinkage]:
        return iter(self.pairs.values())


def common_members(a: Project, b: Project) -> frozenset[str]:
    """Members present in both project teams."""
    if a.id == b.id:
        raise ValueError(f"common_members needs two distinct projects, got {a.id!r} twice")
    return frozenset(a.members) & frozenset(b.members)


def pair_linkage(a: Project, b: Project) -> PairLinkage | None:
    """Linkage for one pair, or None when the teams are disjoint.

    The value is (1/n) * sum over the n common members of
    (contribution_in_a + contribution_in_b) / 2, so it always lies in
    [0, 100] for percent-scale contributions.
    """
    common = common_members(a, b)
    if not common:
        return None
    # sorted iteration keeps float accumulation order deterministic
    total = sum((a.members[m] + b.members[m]) / 2.0 for m in sorted(common))
    value = total / len(common)
    value = min(max(value, 0.0), 100.0)
    pa, pb = (a.id, b.id) if a.id < b.id else (b.id, a.id)
    return PairLinkage(pa, pb, len(common), value)


def build_linkage_table(dataset: Dataset) -> LinkageTable:
    """Compute linkage for every project pair sharing at least one member.

    Candidate pairs come from the member -> projects inverted index, so the
    scan touches only co-membered pairs instead of all n^2 combinations.
    The result is identical to an exhaustive all-pairs scan.
    """
    candidates: set[tuple[str, str]] = set()
    for pids in dataset.member_index.values():
        if len(pids) < 2:
            continue
        ordered = sorted(pids)
        for i, pa in enumerate(ordered):
            for pb in ordered[i + 1 :]:
                candidates.add((pa, pb))

    pairs: dict[tuple[str, str], PairLinkage] = {}
    for pa, pb in sorted(candidates):
        link = pair_linkage(dataset.projects[pa], dataset.projects[pb])
        assert link is not None  # candidates share >= 1 member by construction
        pairs[(pa, pb)] = link

    if pairs:
        values = [p.linkage for p in pairs.values()]
        lo, hi = min(values), max(values)
    else:
        lo = hi = None
    return LinkageTable(pairs, lo, hi)


def table_to_csv_bytes(table: LinkageTable) -> bytes:
    """Debug dump: project_a, project_b, n_common, linkage (6 decimals)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("project_a", "project_b", "n_common", "linkage"))
    for (pa, pb), link in table.pairs.items():
        writer.writerow((pa, pb, link.n_common, f"{link.linkage:.6f}"))
    return buf.getvalue().encode("utf-8")
