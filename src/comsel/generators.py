"""Instance generators.

Two families: graph reductions that tie committee feasibility to vertex
cover or clique existence (used to cross-check the solvers against plain
graph search), and seeded random instances for equivalence sweeps.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Iterable

from .constraints import ConstraintSet, Dominance, Interval
from .elections import ElectionProfile
from .errors import BudgetExceededError, InputError
from .instances import (
    MODES,
    STRUCTURES,
    ElectionInstance,
    Rule,
    StvRule,
    WeaklySeparableRule,
)

# The most ranking entries plus dominance rows a graph reduction builds;
# 1 000 vertices with one full ranking each (10**6 entries) take about
# 0.6 s and 114 MB.
MAX_REDUCTION_ENTRIES = 10**6


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 0..n-1, edges normalized to u < v."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.num_vertices < 0:
            raise InputError("vertex count cannot be negative")
        seen: set[tuple[int, int]] = set()
        for u, v in self.edges:
            if u == v:
                raise InputError(f"self-loop on vertex {u}")
            for end in (u, v):
                if not 0 <= end < self.num_vertices:
                    raise InputError(
                        f"edge ({u}, {v}) references missing vertex {end}"
                    )
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InputError(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @property
    def num_edges(self) -> int:
        return len(self.edges)


_INTEGER = re.compile(r"-?[0-9]+")


def _two_integers(line: str) -> tuple[int, int] | None:
    """The line's two decimal integers, or None unless it holds just two."""
    parts = line.split()
    if len(parts) != 2 or not all(_INTEGER.fullmatch(part) for part in parts):
        return None
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:  # past Python's integer digit limit
        return None


def parse_graph(text: str) -> Graph:
    """Read the plain edge-list format: a "V E" line, then E "u v" lines."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise InputError("empty graph document", code="invalid-graph")
    head = _two_integers(lines[0])
    if head is None:
        raise InputError(
            f"first line must be 'V E', got {lines[0]!r}", code="invalid-graph"
        )
    num_vertices, num_edges = head
    if len(lines) - 1 != num_edges:
        raise InputError(
            f"header promises {num_edges} edges but {len(lines) - 1} lines follow",
            code="invalid-graph",
        )
    edges = []
    for line in lines[1:]:
        edge = _two_integers(line)
        if edge is None:
            raise InputError(f"bad edge line {line!r}", code="invalid-graph")
        edges.append(edge)
    try:
        return Graph(num_vertices, tuple(edges))
    except InputError as exc:
        raise InputError(str(exc), code="invalid-graph") from None


def _vertex_names(num_vertices: int) -> tuple[str, ...]:
    width = max(1, len(str(num_vertices - 1)))
    return tuple(f"v{i:0{width}d}" for i in range(num_vertices))


def _edge_names(graph: Graph) -> tuple[str, ...]:
    width = max(1, len(str(graph.num_vertices - 1)))
    return tuple(f"e{u:0{width}d}_{v:0{width}d}" for u, v in graph.edges)


def _complete_lex(prefix: Iterable[str], ordered: tuple[str, ...]) -> tuple[str, ...]:
    head = tuple(prefix)
    taken = set(head)
    return head + tuple(c for c in ordered if c not in taken)


def _one_voter_per_candidate(candidates: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    ordered = tuple(sorted(candidates))
    return tuple(_complete_lex((first,), ordered) for first in ordered)


def _check_size(candidates: int, voters: int, dominances: int) -> None:
    """Refuse a reduction past ``MAX_REDUCTION_ENTRIES`` before any of its
    names, edges or rankings is built."""
    entries = candidates * voters + dominances
    if entries > MAX_REDUCTION_ENTRIES:
        raise BudgetExceededError(
            f"the reduction would build {entries} ranking entries and "
            f"dominance rows, over the limit of {MAX_REDUCTION_ENTRIES}"
        )


def _check_cover_args(graph: Graph, cover_size: int) -> None:
    if graph.num_vertices < 1:
        raise InputError("the reduction needs a graph with at least one vertex")
    if not 0 <= cover_size <= graph.num_vertices:
        raise InputError(
            f"cover size {cover_size} outside 0..{graph.num_vertices}"
        )


def gen_vertex_cover_intervals(graph: Graph, cover_size: int) -> ElectionInstance:
    """Committee feasibility mirrors vertex cover via per-edge count bounds.

    One candidate per vertex, one label per edge holding its endpoints, and
    Interval(1, 2) on every edge label: a size-k committee exists exactly
    when the graph has a vertex cover of size k (covers extend upward, so
    also when it has one of size at most k, provided k <= |V|).
    """
    _check_cover_args(graph, cover_size)
    _check_size(graph.num_vertices, graph.num_vertices, 0)
    vertices = _vertex_names(graph.num_vertices)
    edge_labels = _edge_names(graph)
    groups = {
        name: (vertices[u], vertices[v])
        for name, (u, v) in zip(edge_labels, graph.edges)
    }
    intervals = tuple(Interval(name, 1, 2) for name in edge_labels)
    profile = ElectionProfile.build(
        vertices, _one_voter_per_candidate(vertices), cover_size
    )
    constraints = ConstraintSet.build(groups, intervals, ())
    return ElectionInstance(
        profile, constraints, WeaklySeparableRule("sntv"), "score"
    )


def gen_vertex_cover_dominance(graph: Graph, cover_size: int) -> ElectionInstance:
    """Vertex cover again, expressed with dominance rows instead of intervals.

    Each candidate also gets a singleton label, and every edge label must
    dominate every singleton.  Any selected candidate then forces one
    endpoint of every edge into the committee.  With k = 0 the empty
    committee is vacuously feasible, so the cover correspondence holds for
    k >= 1 only.
    """
    _check_cover_args(graph, cover_size)
    n = graph.num_vertices
    _check_size(n, n, graph.num_edges * n)
    vertices = _vertex_names(n)
    edge_labels = _edge_names(graph)
    groups: dict[str, tuple[str, ...]] = {
        name: (vertices[u], vertices[v])
        for name, (u, v) in zip(edge_labels, graph.edges)
    }
    for candidate in vertices:
        groups[candidate] = (candidate,)
    dominances = tuple(
        Dominance(edge, candidate)
        for edge in edge_labels
        for candidate in vertices
    )
    profile = ElectionProfile.build(
        vertices, _one_voter_per_candidate(vertices), cover_size
    )
    constraints = ConstraintSet.build(groups, (), dominances)
    return ElectionInstance(
        profile, constraints, WeaklySeparableRule("sntv"), "score"
    )


def _clique_base(graph: Graph, clique_size: int) -> None:
    if graph.num_vertices < 1:
        raise InputError("the reduction needs a graph with at least one vertex")
    if clique_size < 2:
        raise InputError(
            f"clique size must be at least 2, got {clique_size}"
        )


def gen_clique_sntv(graph: Graph, clique_size: int) -> ElectionInstance:
    """Clique search as committee selection under plurality scores.

    Vertex candidates score nothing, each edge candidate gets exactly one
    first-place vote, and a committee may only take an edge together with
    both endpoints.  A blocked-out reference group of k + C(k, 2) extra
    candidates scores C(k, 2); some feasible committee matches that exactly
    when the graph has a k-clique.  The group is the instance's reference.
    """
    _clique_base(graph, clique_size)
    k = clique_size
    pairs = k * (k - 1) // 2
    total = k + pairs
    n, e = graph.num_vertices, graph.num_edges
    _check_size(n + e + total, e + pairs, 2 * e)
    vertices = _vertex_names(n)
    edges = _edge_names(graph)
    width = max(1, len(str(total - 1)))
    refs = tuple(f"r{i:0{width}d}" for i in range(total))
    candidates = vertices + edges + refs

    voters = []
    ordered = tuple(sorted(candidates))
    for edge in edges:
        voters.append(_complete_lex((edge,), ordered))
    for j in range(pairs):
        voters.append(_complete_lex((refs[j % total],), ordered))

    groups: dict[str, tuple[str, ...]] = {c: (c,) for c in vertices + edges}
    groups["ref"] = refs
    dominances = []
    for name, (u, v) in zip(edges, graph.edges):
        dominances.append(Dominance(vertices[u], name))
        dominances.append(Dominance(vertices[v], name))
    constraints = ConstraintSet.build(
        groups, (Interval("ref", 0, 0),), dominances
    )
    profile = ElectionProfile.build(candidates, voters, total)
    return ElectionInstance(
        profile,
        constraints,
        WeaklySeparableRule("sntv"),
        "score",
        reference=refs,
    )


def _bloc_padding(graph: Graph, clique_size: int) -> int:
    """How many universal vertices ``_pad_for_bloc`` adds: 3|V| when the
    graph could hold more than twice C(k, 2) edges, else none."""
    original = graph.num_vertices
    if 2 * math.comb(clique_size, 2) >= math.comb(original, 2):
        return 0
    return 3 * original


def _pad_for_bloc(graph: Graph, clique_size: int) -> tuple[Graph, int]:
    """Add universal vertices and grow the target accordingly.

    The enlarged instance has a (k + 3|V|)-clique exactly when the original
    has a k-clique, and its edge count fits under the new pair budget.
    """
    added = _bloc_padding(graph, clique_size)
    if not added:
        return graph, clique_size
    original = graph.num_vertices
    grown = original + added
    edges = list(graph.edges)
    for new in range(original, grown):
        for other in range(new):
            edges.append((other, new))
    return Graph(grown, tuple(edges)), clique_size + added


def gen_clique_bloc(graph: Graph, clique_size: int) -> ElectionInstance:
    """Clique search again, under top-K approval with three voters.

    Padding with universal vertices first caps the edge count at twice
    C(k, 2), so two voters can jointly approve every edge candidate exactly
    once.  Blocked dummy candidates sit right behind each voter's intended
    approvals and soak up the rest of the approval window; vertices stay at
    zero.  The blocked reference group scores C(k, 2), matched by a feasible
    committee exactly when a k-clique exists; it is the instance's reference.
    """
    _clique_base(graph, clique_size)
    added = _bloc_padding(graph, clique_size)
    n, k = graph.num_vertices + added, clique_size + added
    e = graph.num_edges + math.comb(n, 2) - math.comb(graph.num_vertices, 2)
    _check_size(n + e + 2 * (k + math.comb(k, 2)), 3, 2 * e)
    padded, k = _pad_for_bloc(graph, clique_size)
    pairs = k * (k - 1) // 2
    total = k + pairs
    vertices = _vertex_names(padded.num_vertices)
    edges = _edge_names(padded)
    width = max(1, len(str(total - 1)))
    refs = tuple(f"r{i:0{width}d}" for i in range(total))
    dummies = tuple(f"d{i:0{width}d}" for i in range(total))
    candidates = vertices + edges + refs + dummies
    ordered = tuple(sorted(candidates))

    split = min(pairs, len(edges))
    voters = (
        _complete_lex(edges[:split] + dummies, ordered),
        _complete_lex(edges[split:] + dummies, ordered),
        _complete_lex(refs[:pairs] + dummies, ordered),
    )

    groups: dict[str, tuple[str, ...]] = {c: (c,) for c in vertices + edges}
    groups["ref"] = refs
    groups["dum"] = dummies
    dominances = []
    for name, (u, v) in zip(edges, padded.edges):
        dominances.append(Dominance(vertices[u], name))
        dominances.append(Dominance(vertices[v], name))
    constraints = ConstraintSet.build(
        groups,
        (Interval("dum", 0, 0), Interval("ref", 0, 0)),
        dominances,
    )
    profile = ElectionProfile.build(candidates, voters, total)
    return ElectionInstance(
        profile,
        constraints,
        WeaklySeparableRule("bloc"),
        "score",
        reference=refs,
    )


def gen_random(
    num_candidates: int,
    num_voters: int,
    k: int,
    num_labels: int,
    mode: str = "disjoint",
    structure: str = "tree_like",
    seed: int = 0,
    *,
    rule: Rule | None = None,
    order_kind: str | None = None,
) -> ElectionInstance:
    """Seeded random instance; identical arguments give identical output.

    Disjoint mode partitions a random subset of the candidates into the
    labels, overlapping mode samples each membership independently.  With
    tree_like structure the dominance edges form a random forest, spiced
    with occasional two-cycles that merge adjacent nodes into one clique;
    arbitrary structure samples directed edges freely.  Interval bounds are
    individually satisfiable (jointly they may well not be).
    """
    if num_candidates < 0:
        raise InputError("candidate count cannot be negative")
    if num_labels < 0:
        raise InputError("label count cannot be negative")
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    if structure not in STRUCTURES:
        raise InputError(
            f"unknown structure {structure!r}; expected one of {', '.join(STRUCTURES)}"
        )
    if mode == "disjoint" and num_labels > num_candidates:
        raise InputError(
            f"cannot split {num_candidates} candidates into {num_labels} "
            f"disjoint nonempty labels"
        )

    rng = random.Random(seed)
    width = max(1, len(str(num_candidates - 1)))
    candidates = tuple(f"c{i:0{width}d}" for i in range(num_candidates))
    voters = [rng.sample(candidates, num_candidates) for _ in range(num_voters)]
    profile = ElectionProfile.build(candidates, voters, k)

    names = tuple(f"g{j}" for j in range(num_labels))
    groups: dict[str, tuple[str, ...]] = {}
    if num_labels:
        if mode == "disjoint":
            pool = list(candidates)
            rng.shuffle(pool)
            used = rng.randint(num_labels, num_candidates)
            cuts = sorted(rng.sample(range(1, used), num_labels - 1))
            bounds = [0, *cuts, used]
            for j, name in enumerate(names):
                groups[name] = tuple(sorted(pool[bounds[j] : bounds[j + 1]]))
        else:
            for name in names:
                members = [c for c in candidates if rng.random() < 0.4]
                if not members:
                    members = [rng.choice(candidates)]
                groups[name] = tuple(sorted(set(members)))

    dominances: list[Dominance] = []
    if num_labels >= 2:
        if structure == "tree_like":
            for j in range(1, num_labels):
                if rng.random() < 0.6:
                    parent = names[rng.randrange(j)]
                    dominances.append(Dominance(parent, names[j]))
                    if rng.random() < 0.15:
                        dominances.append(Dominance(names[j], parent))
        else:
            for a in names:
                for b in names:
                    if a != b and rng.random() < 0.25:
                        dominances.append(Dominance(a, b))

    intervals: list[Interval] = []
    for name in names:
        if rng.random() < 0.5:
            size = len(groups[name])
            lower = rng.randint(0, min(size, k))
            upper = rng.randint(lower, size)
            intervals.append(Interval(name, lower, upper))

    constraints = ConstraintSet.build(groups, intervals, dominances)
    if structure == "tree_like":
        assert constraints.chain_violation is None

    if rule is None:
        rule = WeaklySeparableRule("borda")
    if order_kind is None:
        order_kind = "leximax" if isinstance(rule, StvRule) else "score"
    return ElectionInstance(profile, constraints, rule, order_kind)
