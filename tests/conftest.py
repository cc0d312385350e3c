"""Shared fixtures and reference code the package does not ship: two fixed
four-candidate profiles reused across the regression tests, graph
brute-force helpers for the reduction checks, an oracle feasibility test,
the decision query of the hardness reductions, reference orders and STV
rankings, and a terminal hook that reprints the acceptance verdict lines
after the run."""

from __future__ import annotations

import functools
import itertools

import pytest

from comsel import (
    BudgetExceededError, ElectionProfile, Graph, OracleBudget,
    enumerate_feasible, solve_bruteforce,
)

ACCEPTANCE_LINES: list[str] = []


def has_cover(graph: Graph, size: int) -> bool:
    """Whether some vertex set of the given size touches every edge."""
    if size > graph.num_vertices:
        return False
    for chosen in itertools.combinations(range(graph.num_vertices), size):
        kept = set(chosen)
        if all(u in kept or v in kept for u, v in graph.edges):
            return True
    return False


def has_clique(graph: Graph, size: int) -> bool:
    if size > graph.num_vertices:
        return False
    adjacent = set(graph.edges)
    for chosen in itertools.combinations(range(graph.num_vertices), size):
        if all(pair in adjacent for pair in itertools.combinations(chosen, 2)):
            return True
    return False


def min_cover_size(graph: Graph) -> int:
    for size in range(graph.num_vertices + 1):
        if has_cover(graph, size):
            return size
    return graph.num_vertices


def format_graph(graph: Graph) -> str:
    """The text form ``parse_graph`` reads: a count line, then one edge a line."""
    lines = [f"{graph.num_vertices} {graph.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def feasible(instance, k=None) -> bool:
    """Whether some committee of size ``k`` (the instance's own by default)
    meets the instance's constraints, by oracle enumeration."""
    candidates = instance.profile.candidates
    budget = OracleBudget(max_candidates=max(14, len(candidates)))
    found = enumerate_feasible(
        candidates, instance.k if k is None else k, instance.constraints, budget
    )
    return next(iter(found), None) is not None


def key(weights, committee):
    """A committee's key under an order's weight map: its members' weights
    summed."""
    return sum(weights[c] for c in frozenset(committee))


def compare(weights, left, right) -> int:
    """Positive when committee ``left`` is strictly better than ``right``,
    zero on indifference, negative when it is worse."""
    gap = key(weights, left) - key(weights, right)
    return (gap > 0) - (gap < 0)


def reference_witness(
    candidates, k, constraints, weights, reference, budget=OracleBudget()
):
    """The oracle's optimum when it is at least as good as the reference,
    else None: whether some feasible committee matches the reference is the
    optimum's key compared with the reference's."""
    result = solve_bruteforce(candidates, k, constraints, weights, budget)
    found = key(weights, result.committee)
    return result if result.is_optimal and found >= key(weights, reference) else None


def obligatory_first(weights, obligatory) -> dict:
    """Weights under which committees holding more obligatory candidates
    win and the base weights break balanced comparisons.  An obligatory
    member weighs its base weight plus ``1 + Σ|base weight|``, more than
    any base gap between two committees of one size."""
    chosen = frozenset(obligatory)
    lift = 1 + sum(abs(w) for w in weights.values())
    return {c: w + lift if c in chosen else w for c, w in weights.items()}


def stv_simple_all_rankings(
    profile: ElectionProfile, max_candidates: int = 8
) -> frozenset[tuple[str, ...]]:
    """Every ranking the plain elimination rule can produce when round ties
    are broken arbitrarily instead of lexicographically.

    The worst case explores factorially many elimination orders, so the
    candidate count is capped.
    """
    if profile.num_candidates > max_candidates:
        raise BudgetExceededError(
            f"{profile.num_candidates} candidates exceed the all-rankings cap "
            f"of {max_candidates}"
        )

    @functools.cache
    def suffixes(active: frozenset[str]) -> frozenset[tuple[str, ...]]:
        if len(active) <= 1:
            return frozenset({tuple(sorted(active))})
        tallies = {name: 0 for name in active}
        for ranking in profile.voters:
            for name in ranking:
                if name in active:
                    tallies[name] += 1
                    break
        low = min(tallies.values())
        out: set[tuple[str, ...]] = set()
        for name in sorted(active):
            if tallies[name] == low:
                for suffix in suffixes(active - {name}):
                    out.add(suffix + (name,))
        return frozenset(out)

    return suffixes(frozenset(profile.candidates))

@pytest.fixture
def profile_a() -> ElectionProfile:
    """Five voters over a,b,c,d; every preset picks a different winner."""
    voters = (
        ("a", "c", "b", "d"),
        ("a", "c", "b", "d"),
        ("d", "c", "b", "a"),
        ("d", "b", "c", "a"),
        ("b", "c", "a", "d"),
    )
    return ElectionProfile.build("abcd", voters, 2)


@pytest.fixture
def profile_b() -> ElectionProfile:
    """Six voters over a,b,c,d with a round-two elimination tie."""
    voters = (
        ("a", "b", "d", "c"),
        ("a", "b", "d", "c"),
        ("a", "b", "d", "c"),
        ("a", "c", "d", "b"),
        ("b", "d", "a", "c"),
        ("c", "d", "a", "b"),
    )
    return ElectionProfile.build("abcd", voters, 2)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
