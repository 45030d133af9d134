"""Naive reference implementations used to cross-check the fast paths.

Everything here favors obviousness over speed: a row-by-row parser,
exhaustive double loops, explicit path enumeration, flood fill,
whole-document ``json.dumps``.
Tests compare library results against these on small random instances and,
for the layer export, on layers of the default synthetic dataset.

The library holds records, pairs, edges and visuals only as columns; the
tests read them as rows here (:class:`Row`, :func:`rows_of`,
:func:`teams_of`, :func:`linkage_rows`, :func:`edges_of`,
:func:`visuals_of`) and build inputs from rows by writing their CSV text
(:func:`csv_of`) and parsing it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from collections import deque
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple
from xml.sax.saxutils import escape, quoteattr

import numpy as np

from collabnet.export import ComponentColor, ExportFormat
from collabnet.ingest import (
    _UNWRITABLE_CHAR,
    CONTRIBUTION_SUM_LIMIT,
    CSV_COLUMNS,
    ContributionSumError,
    DuplicateMembershipError,
    IngestError,
    ProjectType,
    RecordTable,
    RowError,
    aggregate,
    parse_records,
)
from collabnet.layers import NetworkLayer, Pairs, Provenance, threshold_label
from collabnet.linkage import LinkageTable


class Row(NamedTuple):
    """One contribution row: a member's contribution to one project."""

    project_id: str
    member_id: str
    contribution_pct: float
    ic_score: float | None = None
    project_type: ProjectType = ProjectType.IP


class Team(NamedTuple):
    """A project's type and its members' contributions, by member id."""

    project_type: ProjectType
    members: dict[str, float]


class Visual(NamedTuple):
    """A node's degree, component color and component rank."""

    degree: int
    color: ComponentColor
    rank: int


def rows_of(table: RecordTable) -> list[Row]:
    """The table's rows, in row order."""
    kinds = tuple(ProjectType)
    return [
        Row(
            table.project_ids[p],
            table.member_ids[m],
            pct,
            None if math.isnan(ic) else ic,
            kinds[kind],
        )
        for p, m, pct, ic, kind in zip(
            table.project.tolist(),
            table.member.tolist(),
            table.contribution_pct.tolist(),
            table.ic_score.tolist(),
            table.project_type.tolist(),
        )
    ]


def csv_of(rows) -> bytes:
    """The input CSV of ``rows``, each a :class:`Row` or a tuple of its first
    three or more fields; numbers are written by ``repr``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        p, m, pct, ic, kind = Row(*row)
        writer.writerow((p, m, repr(pct), "" if ic is None else repr(ic), kind.value))
    return buf.getvalue().encode("utf-8")


def table_of(rows) -> RecordTable:
    """The parsed table of ``rows``' CSV text."""
    return parse_records(csv_of(rows))


def dataset_of(rows, **kwargs) -> RecordTable:
    """The parsed table of ``rows``' CSV text, checked by :func:`aggregate`."""
    return aggregate(table_of(rows), **kwargs)


def teams_of(records: RecordTable) -> dict[str, Team]:
    """Project id -> :class:`Team`, projects in order of first appearance
    and each team in row order, read row by row."""
    teams: dict[str, Team] = {}
    for p, m, pct, _, kind in rows_of(records):
        teams.setdefault(p, Team(kind, {})).members[m] = pct
    return teams


def linkage_rows(table: LinkageTable) -> list[tuple[str, str, int, float]]:
    """Each pair's (project_a, project_b, n_common, linkage), in table order."""
    ids = table.projects
    columns = (table.a, table.b, table.n_common, table.linkage)
    return [(ids[a], ids[b], n, v) for a, b, n, v in zip(*(c.tolist() for c in columns))]


def edges_of(layer: NetworkLayer) -> list[tuple[str, str, float]]:
    """Each edge's (id, id, weight), in canonical order."""
    ids = layer.nodes
    columns = zip(layer.a.tolist(), layer.b.tolist(), layer.weight.tolist())
    return [(ids[a], ids[b], w) for a, b, w in columns]


def visuals_of(layer: NetworkLayer, visuals: np.ndarray) -> dict[str, Visual]:
    """Node -> :class:`Visual`, from the layer's degrees and component ranks
    and the nodes' color indices."""
    colors = tuple(ComponentColor)
    columns = zip(layer.degrees.tolist(), visuals.tolist(), layer.component_rank.tolist())
    return {v: Visual(d, colors[c], r) for v, (d, c, r) in zip(layer.nodes, columns)}


def _reference_row(row, columns, line_num) -> Row:
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

    ic = None
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
    return Row(project_id, member_id, pct, ic, ptype)


def _reference_rows(reader):
    while True:
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            yield RowError(reader.line_num, f"unreadable row: {str(exc).partition(' - ')[0]}")


def reference_parse_records(data: bytes, *, delimiter=",", skipped=None) -> list:
    """``ingest.parse_records`` as a row-by-row loop: each row is split, then
    checked cell by cell in a fixed order, and the first failed check is its
    error."""
    reader = csv.reader(io.StringIO(data.decode("utf-8-sig")), delimiter=delimiter)
    rows = _reference_rows(reader)
    for header in rows:
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
    required = ("project_id", "member_id", "contribution_pct", "project_type")
    missing = [c for c in required if c not in columns]
    if missing:
        raise IngestError(f"header is missing columns: {', '.join(missing)}")

    records = []
    for row in rows:
        if not isinstance(row, RowError) and not any(cell.strip() for cell in row):
            continue
        try:
            if isinstance(row, RowError):
                raise row
            if len(row) != len(header):
                raise RowError(reader.line_num, f"expected {len(header)} columns, got {len(row)}")
            records.append(_reference_row(row, columns, reader.line_num))
        except RowError as err:
            if skipped is None:
                raise
            skipped.append(err)
    return records


def units_of(pct: float) -> int:
    """A contribution in whole units of 1e-9 percent, as ingest rounds it: the
    float nearest pct * 1e9, rounded half to even. For a cell with at most 9
    decimals that is the cell's exact value."""
    return round(pct * 10**9)


def reference_aggregate(records, *, over=None) -> dict[str, Team]:
    """``ingest.aggregate`` as a record loop into per-project dicts: the
    projects by first appearance, each team in row order."""
    types: dict[str, ProjectType] = {}
    members: dict[str, dict[str, float]] = {}
    for rec in records:
        team = members.setdefault(rec.project_id, {})
        if rec.member_id in team:
            pair = f"({rec.project_id}, {rec.member_id})"
            raise DuplicateMembershipError(f"duplicate membership {pair}")
        team[rec.member_id] = rec.contribution_pct
        known = types.setdefault(rec.project_id, rec.project_type)
        if known is not rec.project_type:
            raise IngestError(
                f"project {rec.project_id} has conflicting types "
                f"{known.value!r} and {rec.project_type.value!r}"
            )
    for pid, team in members.items():
        total = Fraction(sum(map(units_of, team.values())), 10**9)
        if total > CONTRIBUTION_SUM_LIMIT:
            err = ContributionSumError(f"project {pid} contributions sum to {float(total):.4f}")
            if over is None:
                raise err
            over.append(err)
    return {pid: Team(types[pid], team) for pid, team in members.items()}


def reference_fingerprint(projects: dict[str, Team]) -> str:
    """``RecordTable.fingerprint`` over per-project dicts."""
    lines = []
    for pid in sorted(projects):
        p = projects[pid]
        team = "".join(f"\x1e{mid}\x1f{p.members[mid]!r}" for mid in sorted(p.members))
        lines.append(f"{pid}\x1f{p.project_type.value}{team}\n")
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def naive_linkage_table(records: RecordTable) -> dict[tuple[str, str], tuple[int, float]]:
    """Exhaustive all-pairs scan in exact arithmetic: each pair's mean is the
    ``Fraction`` of its cells' summed :func:`units_of`, returned as the
    nearest float."""
    out: dict[tuple[str, str], tuple[int, float]] = {}
    projects = teams_of(records)
    for pa, pb in combinations(sorted(projects), 2):
        a, b = projects[pa], projects[pb]
        common = sorted(set(a.members) & set(b.members))
        if not common:
            continue
        units = sum(units_of(team.members[m]) for team in (a, b) for m in common)
        out[(pa, pb)] = (len(common), float(Fraction(units, 2 * 10**9 * len(common))))
    return out


def bfs_distances(adj: dict[str, set[str]], start: str) -> dict[str, int]:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in sorted(adj[u]):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def closeness_oracle(adj: dict[str, set[str]], v: str) -> float:
    dist = bfs_distances(adj, v)
    # fsum rounds once: a plain sum over a 1,000-node component drifts by 3e-12
    return math.fsum(1.0 / d for u, d in dist.items() if u != v)


def _all_simple_paths(adj: dict[str, set[str]], s: str, t: str) -> list[list[str]]:
    paths = []
    stack = [(s, [s])]
    while stack:
        node, path = stack.pop()
        if node == t:
            paths.append(path)
            continue
        for nxt in sorted(adj[node]):
            if nxt not in path:
                stack.append((nxt, path + [nxt]))
    return paths


def betweenness_oracle(adj: dict[str, set[str]]) -> dict[str, float]:
    """Unordered-pair betweenness by enumerating every shortest path."""
    nodes = sorted(adj)
    bc = {v: 0.0 for v in nodes}
    for s, t in combinations(nodes, 2):
        paths = _all_simple_paths(adj, s, t)
        if not paths:
            continue
        shortest_len = min(len(p) for p in paths)
        shortest = [p for p in paths if len(p) == shortest_len]
        for v in nodes:
            if v == s or v == t:
                continue
            through = sum(1 for p in shortest if v in p)
            bc[v] += through / len(shortest)
    return bc


def clustering_oracle(adj: dict[str, set[str]], v: str) -> float:
    neighbors = sorted(adj[v])
    k = len(neighbors)
    if k < 2:
        return 0.0
    triangles = sum(1 for a, b in combinations(neighbors, 2) if b in adj[a])
    return 2.0 * triangles / (k * (k - 1))


def components_oracle(adj: dict[str, set[str]]) -> int:
    seen: set[str] = set()
    count = 0
    for start in sorted(adj):
        if start in seen:
            continue
        count += 1
        queue = deque([start])
        seen.add(start)
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return count


_PROVENANCE = Provenance("test", ())


def make_layer(nodes, edges, threshold: float = 0.0, weight: float = 1.0) -> NetworkLayer:
    """Layer from an edge list; edges may be (a, b) or (a, b, weight)."""
    nodes = tuple(sorted(nodes))
    index = {v: i for i, v in enumerate(nodes)}
    rows = sorted(
        (*sorted((index[e[0]], index[e[1]])), e[2] if len(e) > 2 else weight) for e in edges
    )
    a, b = (np.array([row[k] for row in rows], np.int64) for k in (0, 1))
    w = np.array([row[2] for row in rows], float)
    return NetworkLayer(threshold, Pairs(nodes, a, b, w), _PROVENANCE)


def assert_same_layer(one: NetworkLayer, two: NetworkLayer) -> None:
    """Layers hold arrays, so they are compared field by field."""
    assert one.threshold == two.threshold
    assert one.nodes == two.nodes
    assert edges_of(one) == edges_of(two)
    assert one.provenance == two.provenance


def adjacency_of(layer: NetworkLayer) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in layer.nodes}
    for a, b, _ in edges_of(layer):
        adj[a].add(b)
        adj[b].add(a)
    return adj


def reference_visuals(layer: NetworkLayer) -> dict[str, Visual]:
    """Every node's degree, component rank and color by flood fill: components
    ranked by size, largest first, then by smallest id; the distinct sizes,
    largest first, banded blue, green (upper middle half), red, gray."""
    adj = adjacency_of(layer)
    seen: set[str] = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp, queue = [start], deque([start])
        seen.add(start)
        while queue:
            for w in adj[queue.popleft()] - seen:
                seen.add(w)
                comp.append(w)
                queue.append(w)
        comps.append(comp)
    comps.sort(key=lambda comp: (-len(comp), min(comp)))
    distinct = sorted({len(comp) for comp in comps}, reverse=True)
    middles = max(len(distinct) - 2, 0)
    greens = math.ceil(middles / 2)
    bands = [ComponentColor.GREEN] * greens + [ComponentColor.RED] * (middles - greens)
    bands = ([ComponentColor.BLUE] + bands + [ComponentColor.GRAY])[: len(distinct)]
    color_of = dict(zip(distinct, bands))
    return {
        v: Visual(len(adj[v]), color_of[len(comp)], rank)
        for rank, comp in enumerate(comps)
        for v in comp
    }


def random_layer(rng: random.Random, max_nodes: int = 8) -> NetworkLayer:
    n = rng.randint(1, max_nodes)
    nodes = [f"n{i}" for i in range(n)]
    edges = []
    for a, b in combinations(nodes, 2):
        if rng.random() < rng.choice((0.15, 0.35, 0.6)):
            edges.append((a, b))
    return make_layer(nodes, edges)


def random_records(
    rng: random.Random, max_projects: int = 20, max_members: int = 10
) -> list[Row]:
    n_projects = rng.randint(2, max_projects)
    n_members = rng.randint(2, max_members)
    members = [f"M{i}" for i in range(n_members)]
    records = []
    for p in range(n_projects):
        team = rng.sample(members, rng.randint(1, min(4, n_members)))
        ptype = rng.choice(list(ProjectType))
        left = 100.0
        for i, m in enumerate(team):
            if i == len(team) - 1:
                share = round(left, 4)
            else:
                share = round(rng.uniform(0.1, left / (len(team) - i)), 4)
                left -= share
            records.append(Row(f"P{p}", m, share, None, ptype))
    return records


def random_dataset(rng: random.Random, **kwargs) -> RecordTable:
    return dataset_of(random_records(rng, **kwargs))


def reference_export(layer: NetworkLayer, visuals, fmt: ExportFormat, *, include_isolated=True) -> bytes:
    """Layer export written element by element: JSON through ``json.dumps`` of
    the whole document, GraphML and DOT quoting every id where it is used.
    ``visuals`` is the color index array of the layer's nodes or a node ->
    :class:`Visual` map."""
    edges = edges_of(layer)
    if isinstance(visuals, np.ndarray):
        visuals = visuals_of(layer, visuals)
    touched = {a for a, _, _ in edges} | {b for _, b, _ in edges}
    nodes = [v for v in layer.nodes if include_isolated or v in touched]
    if fmt is ExportFormat.JSONGRAPH:
        doc = {
            "graph": {
                "directed": False,
                "metadata": {
                    "threshold": layer.threshold,
                    "dataset_fingerprint": layer.provenance.dataset_fingerprint,
                    "project_types": list(layer.provenance.project_types),
                },
                "nodes": [
                    {
                        "id": v,
                        "degree": visuals[v].degree,
                        "component": visuals[v].rank,
                        "color": visuals[v].color.value,
                    }
                    for v in nodes
                ],
                "edges": [
                    {"source": a, "target": b, "weight": round(weight, 6)}
                    for a, b, weight in edges
                ],
            }
        }
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    if fmt is ExportFormat.GRAPHML:
        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
            '  <key id="degree" for="node" attr.name="degree" attr.type="int"/>',
            '  <key id="component" for="node" attr.name="component" attr.type="int"/>',
            '  <key id="color" for="node" attr.name="color" attr.type="string"/>',
            '  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>',
            f'  <graph id={quoteattr("t" + threshold_label(layer.threshold))}'
            ' edgedefault="undirected">',
        ]
        for v in nodes:
            vis = visuals[v]
            out.append(f"    <node id={quoteattr(v)}>")
            out.append(f'      <data key="degree">{vis.degree}</data>')
            out.append(f'      <data key="component">{vis.rank}</data>')
            out.append(f'      <data key="color">{escape(vis.color.value)}</data>')
            out.append("    </node>")
        for a, b, weight in edges:
            out.append(f"    <edge source={quoteattr(a)} target={quoteattr(b)}>")
            out.append(f'      <data key="weight">{weight:.6f}</data>')
            out.append("    </edge>")
        out.append("  </graph>")
        out.append("</graphml>")
        return ("\n".join(out) + "\n").encode("utf-8")

    def dot_quote(name: str) -> str:
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    out = [f"graph {dot_quote('t' + threshold_label(layer.threshold))} {{"]
    for v in nodes:
        vis = visuals[v]
        out.append(
            f"  {dot_quote(v)} [degree={vis.degree}, "
            f"component={vis.rank}, color={vis.color.value}];"
        )
    for a, b, weight in edges:
        out.append(f"  {dot_quote(a)} -- {dot_quote(b)} [weight={weight:.6f}];")
    out.append("}")
    return ("\n".join(out) + "\n").encode("utf-8")
