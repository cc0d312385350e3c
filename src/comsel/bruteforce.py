"""Exhaustive reference solver.

Walks every size-k candidate subset in lexicographic order, keeps the
feasible ones, and picks the best under the committee order.  Budgets cap
the pool size and the number of subsets so a stray call cannot hang the
process; exceeding either raises instead of silently truncating.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .constraints import ConstraintSet
from .elections import ElectionProfile, Score
from .errors import BudgetExceededError, InputError
from .orders import WeightOrder
from .result import SolveResult


@dataclass(frozen=True)
class OracleBudget:
    max_candidates: int = 14
    max_committee_enumeration: int = 10**6

    def __post_init__(self) -> None:
        if self.max_candidates < 1 or self.max_committee_enumeration < 1:
            raise InputError("budget limits must be positive")


class _MaskChecker:
    """Constraint test over bitmasks; one popcount per constraint."""

    def __init__(self, pool: Sequence[str], constraints: ConstraintSet):
        index = {name: bit for bit, name in enumerate(pool)}
        labeling = constraints.labeling
        # one mask per label, however many constraints name it
        masks: dict[str, int] = {}
        for label in labeling.names:
            mask = 0
            for name in labeling.members(label):
                bit = index.get(name)
                if bit is not None:
                    mask |= 1 << bit
            masks[label] = mask
        self._intervals = tuple(
            (masks[iv.label], iv.lower, iv.upper) for iv in constraints.intervals
        )
        self._dominances = tuple(
            (masks[d.over], masks[d.under]) for d in constraints.dominances
        )

    def feasible(self, committee_mask: int) -> bool:
        for mask, lower, upper in self._intervals:
            chosen = (committee_mask & mask).bit_count()
            if chosen < lower or chosen > upper:
                return False
        for over, under in self._dominances:
            if (committee_mask & over).bit_count() < (committee_mask & under).bit_count():
                return False
        return True


def enumerate_feasible(
    candidates: Iterable[str],
    k: int,
    constraints: ConstraintSet,
    budget: OracleBudget = OracleBudget(),
) -> Iterator[tuple[str, ...]]:
    """All feasible size-k committees, lexicographically smallest first."""
    pool = sorted(set(candidates))
    if k < 0:
        raise InputError(f"committee size must be nonnegative, got {k}")
    if len(pool) > budget.max_candidates:
        raise BudgetExceededError(
            f"pool of {len(pool)} candidates exceeds the budget of "
            f"{budget.max_candidates}"
        )
    total = math.comb(len(pool), k)
    if total > budget.max_committee_enumeration:
        raise BudgetExceededError(
            f"{total} committees to enumerate exceed the budget of "
            f"{budget.max_committee_enumeration}"
        )
    checker = _MaskChecker(pool, constraints)

    def walk() -> Iterator[tuple[str, ...]]:
        for combo in itertools.combinations(range(len(pool)), k):
            mask = 0
            for bit in combo:
                mask |= 1 << bit
            if checker.feasible(mask):
                yield tuple(pool[bit] for bit in combo)

    return walk()


def existence_query(
    candidates: Iterable[str],
    k: int,
    constraints: ConstraintSet,
    order: WeightOrder,
    reference: Iterable[str],
    budget: OracleBudget = OracleBudget(),
) -> bool:
    """True iff some feasible committee is at least as good as the reference.

    The reference must itself have k members; it need not be feasible.
    """
    ref = tuple(sorted(set(reference)))
    if len(ref) != k:
        raise InputError(
            f"reference committee has {len(ref)} members, expected {k}"
        )
    for committee in enumerate_feasible(candidates, k, constraints, budget):
        if order.compare(committee, ref) >= 0:
            return True
    return False


def solve_bruteforce(
    candidates: Iterable[str],
    k: int,
    constraints: ConstraintSet,
    order: WeightOrder,
    budget: OracleBudget = OracleBudget(),
) -> SolveResult:
    """Optimal feasible committee by complete enumeration.

    Ties go to the lexicographically smallest committee, which is the one
    found first.
    """
    pool = sorted(set(candidates))
    best: tuple[str, ...] | None = None
    best_key: Score = 0
    feasible = 0
    for committee in enumerate_feasible(pool, k, constraints, budget):
        feasible += 1
        key = order.key_of(committee)
        if best is None or key > best_key:
            best, best_key = committee, key
    stats = {"examined": math.comb(len(pool), k), "feasible": feasible}
    if best is None:
        return SolveResult(
            status="infeasible",
            committee=(),
            score=None,
            solver="oracle",
            reason="no size-k committee satisfies the constraints",
            stats=stats,
        )
    return SolveResult(
        status="optimal",
        committee=best,
        score=best_key,
        solver="oracle",
        stats=stats,
    )


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
    memo: dict[frozenset[str], frozenset[tuple[str, ...]]] = {}

    def suffixes(active: frozenset[str]) -> frozenset[tuple[str, ...]]:
        if len(active) <= 1:
            return frozenset({tuple(sorted(active))})
        cached = memo.get(active)
        if cached is not None:
            return cached
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
        result = frozenset(out)
        memo[active] = result
        return result

    return suffixes(frozenset(profile.candidates))
