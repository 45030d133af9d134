"""Seeded generator of synthetic collaboration datasets.

Produces the exact CSV schema the ingest module consumes. Only the seed,
the project count and the member pool are settable; the type mix, team
sizes, contribution scale and group structure are module constants
calibrated to mimic a mid-sized research institute. Everything is drawn
from a single seeded generator, so a config reproduces its dataset bit for
bit.

Model choices, all synthetic:

* Team sizes follow a truncated geometric distribution whose mean is tied
  to the target mean contribution (per-record contributions average
  100 / mean_team_size because project totals are fixed at 100).
* Members sit in lab-like groups with roles: a lead who supervises many of
  the group's projects in a minor capacity, liaison members who are the
  only ones working across groups (always minor, shares hard-capped), and
  a venture member who runs the group's single-member projects. A project
  usually carries over part of the previous team, with mid-share members
  the most likely to recur, so crews drift while big contributors rotate.
* Because only capped liaisons cross groups, inter-group edges are weak:
  the co-membership graph is one loosely connected web at low linkage and
  falls apart into per-group and then per-crew structure as the threshold
  grows, the way sparse institutional data behaves.
* Contribution shares are Dirichlet-dispersed (most members minor, one or
  two owners per project) and quantized to 1e-4 percent so every project
  totals exactly 100.00 in decimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .ingest import ProjectType, RecordTable, _recoded, records_to_csv_bytes

__all__ = [
    "SynthConfig",
    "type_counts",
    "generate",
    "generate_csv_bytes",
    "TYPE_MIX",
    "CONTRIBUTION_MEAN_TARGET",
]

TYPE_MIX: Mapping[ProjectType, float] = {
    ProjectType.IP: 630.0,
    ProjectType.PAPER: 1717.0,
    ProjectType.PROTOTYPE: 539.0,
}

# mean contribution per record; project totals are fixed at 100, so the
# mean team size is 100 / this
CONTRIBUTION_MEAN_TARGET = 23.3
_MEAN_TEAM_SIZE = 100.0 / CONTRIBUTION_MEAN_TARGET
_MAX_TEAM_SIZE = 12
# the largest project and member counts accepted, so a draw fits in memory
MAX_PROJECTS = 100_000
MAX_MEMBERS = 100_000

# structure of the synthetic collaboration graph
_GROUP_SIZE = 16  # members per lab-like group
_GROUP_ATTACHMENT = 0.35  # preferential weight gain per project
_CREW_CARRYOVER = 0.6  # chance a project reuses part of the last team
_MEMBER_RETENTION = 0.7  # base keep chance, scaled by share affinity
_LEAD_RATE = 0.5  # chance the group's lead joins a team project
_LIAISONS_PER_GROUP = 2  # members who work across groups
_CROSS_GROUP_RATE = 0.12  # chance one slot goes to a partner liaison
_PARTNERS_PER_GROUP = 2  # groups each group collaborates with
_LIAISON_SHARE_FACTOR = 0.25  # liaisons contribute proportionally less
_LIAISON_SHARE_CAP = 0.28  # hard ceiling on a liaison's share
_LEAD_SHARE_FACTOR = 0.15  # leads supervise rather than contribute
_VENTURE_SHARE_FACTOR = 0.3  # solo-project members help teams modestly
_VENTURE_SHARE_CAP = 0.18  # keeps solo-to-team ties below mid linkage
_CONTRIBUTION_ALPHA = 0.7  # Dirichlet concentration of shares
_IC_MISSING_RATE = 0.08  # share of projects without an IC score

# IC totals per project: right-skewed, concentrated on small values.
_IC_GAMMA_SHAPE = 2.0
_IC_GAMMA_SCALE = 6.8

_PCT_UNITS = 10_000  # contribution quantum: 1e-4 percent


@dataclass(frozen=True)
class SynthConfig:
    """The settable part of a dataset: everything else is a module constant."""

    seed: int = 0
    n_projects: int = 2300
    n_members: int = 1000


def type_counts(config: SynthConfig) -> dict[ProjectType, int]:
    """Apportion n_projects over the type mix (largest remainder, so counts
    stay within one of the exact proportional share)."""
    total = sum(TYPE_MIX.values())
    raw = {t: config.n_projects * w / total for t, w in TYPE_MIX.items()}
    counts = {t: int(r) for t, r in raw.items()}
    left = config.n_projects - sum(counts.values())
    for t in sorted(raw, key=lambda t: raw[t] - counts[t], reverse=True)[:left]:
        counts[t] += 1
    return counts


def _truncated_geometric_p(mean: float, cap: int) -> float:
    """p such that E[min(Geometric(p), cap)] == mean, by bisection; mean > 1."""

    def truncated_mean(p: float) -> float:
        return (1.0 - (1.0 - p) ** cap) / p

    lo, hi = 1e-9, 1.0  # truncated_mean is decreasing on (0, 1]
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if truncated_mean(mid) > mean:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _quantized_shares(
    rng: np.random.Generator, alphas: np.ndarray, caps: np.ndarray
) -> np.ndarray:
    """Positive contribution percentages summing to exactly 100 in units of
    1e-4 percent, with expected share proportional to each alpha and hard
    per-member ceilings from ``caps`` (fractions of 1)."""
    size = len(alphas)
    if size == 1:
        return np.array([100.0])
    shares = rng.dirichlet(alphas)
    shares = np.maximum(shares, 0.0005)  # keep every member visibly positive
    shares = shares / shares.sum()
    if caps.sum() <= 1.0:
        # caps cannot absorb the total: split evenly instead
        shares = np.full(size, 1.0 / size)
    else:
        for _ in range(8):  # push capped members' excess onto the rest
            over = shares > caps
            if not over.any():
                break
            excess = float((shares[over] - caps[over]).sum())
            shares[over] = caps[over]
            free = ~over
            shares[free] += excess * shares[free] / float(shares[free].sum())
    raw = shares * (100 * _PCT_UNITS)
    units = np.floor(raw).astype(np.int64)
    remainder = raw - units
    deficit = int(100 * _PCT_UNITS - units.sum())
    for idx in np.argsort(-remainder, kind="stable")[:deficit]:
        units[idx] += 1
    return units / float(_PCT_UNITS)


def _validate(config: SynthConfig) -> int:
    """The largest team size for ``config``."""
    if config.seed < 0:  # numpy's own message names no option
        raise ValueError(f"seed must be a non-negative integer, got {config.seed}")
    for name, value, low, high in (
        ("n_projects", config.n_projects, 1, MAX_PROJECTS),
        # a team's members are distinct, so the mean team size needs this many
        ("n_members", config.n_members, math.ceil(_MEAN_TEAM_SIZE), MAX_MEMBERS),
    ):
        if not low <= value <= high:
            raise ValueError(f"{name} must be from {low} to {high}, got {value}")
    return min(_MAX_TEAM_SIZE, config.n_members)


def _draw_team(
    rng: np.random.Generator,
    size: int,
    group: np.ndarray,
    partner_pool: np.ndarray,
    last_team: list[tuple[int, float]],
) -> tuple[list[int], int | None]:
    """One project team; returns (member indices, bridging liaison or None)."""
    team: list[int] = []
    if last_team and rng.random() < _CREW_CARRYOVER:
        # mid-share members are the likeliest to stay on for the next
        # project; owners move on and marginal helpers drift away
        kept = []
        for m, share in last_team:
            s = share / 100.0
            affinity = s * (1.0 - s) ** 3 / 0.1055  # peaks near a 25% share
            if rng.random() < _MEMBER_RETENTION * min(affinity, 1.0):
                kept.append(m)
        team = kept[:size]

    fill = size - len(team)
    if fill > 0:
        candidates = np.array([m for m in group if m not in team])
        picks = rng.choice(len(candidates), size=fill, replace=False)
        team.extend(int(candidates[i]) for i in picks)

    outsider = None
    if size >= 3 and len(partner_pool) and rng.random() < _CROSS_GROUP_RATE:
        # a partner liaison bridges the groups, always in a minor role;
        # pairs stay in-group so a capped slot cannot force the other
        # member's share toward 100
        pool = np.array([m for m in partner_pool if m not in team])
        if len(pool):
            outsider = int(pool[rng.choice(len(pool))])
            team[-1] = outsider
    return team, outsider


def generate(config: SynthConfig) -> RecordTable:
    """Draw a full synthetic dataset, reproducible from the seed: one row per
    membership, by project and then member, in the row order of
    :func:`generate_csv_bytes`.

    Per project: a team size from the truncated geometric model, a team from
    the group/crew process (single-member projects go to the group's venture
    member), quantized role-weighted contributions summing to exactly 100,
    and an IC total apportioned by contribution share (a small fraction of
    projects carries no IC score).
    """
    cap = _validate(config)
    counts = type_counts(config)
    rng = np.random.default_rng(config.seed)

    # each project's type, as an index into tuple(ProjectType)
    kinds = np.repeat(np.arange(len(ProjectType), dtype=np.int8), [counts[t] for t in ProjectType])
    rng.shuffle(kinds)

    p_geom = _truncated_geometric_p(_MEAN_TEAM_SIZE, cap)
    pid_width = len(str(config.n_projects))
    mid_width = len(str(config.n_members))
    member_ids = tuple(f"M{i + 1:0{mid_width}d}" for i in range(config.n_members))

    # equal-as-possible groups: no undersized remainder group
    n_groups = max(1, round(config.n_members / _GROUP_SIZE))
    groups = np.array_split(np.arange(config.n_members), n_groups)
    leads = [int(g_members[0]) for g_members in groups]
    lead_set = set(leads)
    venture_set = {int(g_members[-1]) for g_members in groups}
    liaison_set: set[int] = set()
    for g_members in groups:
        for m in g_members[1 : 1 + _LIAISONS_PER_GROUP]:
            liaison_set.add(int(m))

    # fixed partner groups: bridges only reach a partner group's liaisons
    partner_pools: list[np.ndarray] = []
    for g in range(n_groups):
        others = [h for h in range(n_groups) if h != g]
        if others:
            k = min(_PARTNERS_PER_GROUP, len(others))
            chosen = rng.choice(len(others), size=k, replace=False)
            pool = [
                int(m)
                for i in sorted(chosen)
                for m in groups[others[i]][1 : 1 + _LIAISONS_PER_GROUP]
            ]
            partner_pools.append(np.array(pool, dtype=int))
        else:
            partner_pools.append(np.array([], dtype=int))

    group_weights = np.ones(n_groups)
    last_teams: list[list[tuple[int, float]]] = [[] for _ in range(n_groups)]

    project: list[int] = []
    member: list[int] = []
    pct_column: list[float] = []
    ic_column: list[float] = []
    for p in range(config.n_projects):
        g = int(rng.choice(n_groups, p=group_weights / group_weights.sum()))
        group_weights[g] += _GROUP_ATTACHMENT
        # teams come from one group, so its size is a hard ceiling
        size = min(int(rng.geometric(p_geom)), cap, len(groups[g]))

        if size == 1:
            # the group's venture member runs its single-member projects;
            # concentrating the forced 100% shares on one member keeps their
            # strong ties to one bounded star per group
            team, outsider = [int(groups[g][-1])], None
        else:
            team, outsider = _draw_team(
                rng, size, groups[g], partner_pools[g], last_teams[g]
            )
            if leads[g] not in team and rng.random() < _LEAD_RATE:
                slot = int(rng.integers(0, size))
                if team[slot] == outsider:
                    outsider = None
                team[slot] = leads[g]

        team = sorted(team)

        alphas = np.full(len(team), _CONTRIBUTION_ALPHA)
        caps = np.ones(len(team))
        for i, m in enumerate(team):
            if m in liaison_set:
                alphas[i] *= _LIAISON_SHARE_FACTOR
                caps[i] = _LIAISON_SHARE_CAP
            elif m in lead_set:
                alphas[i] *= _LEAD_SHARE_FACTOR
            elif m in venture_set and len(team) > 1:
                alphas[i] *= _VENTURE_SHARE_FACTOR
                caps[i] = _VENTURE_SHARE_CAP
        contributions = _quantized_shares(rng, alphas, caps)

        # outsiders are one-off collaborators: they never join the group's crew
        last_teams[g] = [
            (m, float(c)) for m, c in zip(team, contributions) if m != outsider
        ]

        has_ic = rng.random() >= _IC_MISSING_RATE
        ic_total = float(rng.gamma(_IC_GAMMA_SHAPE, _IC_GAMMA_SCALE)) if has_ic else None

        for idx, pct in zip(team, contributions):
            pct = float(pct)
            project.append(p)
            member.append(idx)
            pct_column.append(pct)
            ic_column.append(round(ic_total * pct / 100.0, 4) if has_ic else math.nan)

    project_ids = tuple(f"P{p + 1:0{pid_width}d}" for p in range(config.n_projects))
    # zero-padded ids sort as their numbers, so the codes are the indices
    used_member_ids, member_codes = _recoded(member_ids, np.array(member, np.intp))
    project_codes = np.array(project, np.intp)
    return RecordTable(
        project_ids,
        used_member_ids,
        project_codes,
        member_codes,
        np.array(pct_column),
        np.array(ic_column),
        kinds[project_codes],
    )


def generate_csv_bytes(config: SynthConfig) -> bytes:
    """Generate and serialize in the ingest CSV schema."""
    return records_to_csv_bytes(generate(config))
