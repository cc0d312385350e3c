"""Exhaustive reference solver: the oracle.

Walks every size-k candidate subset in lexicographic order, keeps the
feasible ones, and picks the best under the committee order.  Budgets cap
the pool size and the number of subsets so a stray call cannot hang the
process; exceeding either raises instead of silently truncating.  Whether
some feasible committee is at least as good as a reference is this
optimum's key compared with the reference's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .constraints import ConstraintSet
from .elections import Score
from .errors import BudgetExceededError, InputError
from .result import SolveResult, outcome


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


def solve_bruteforce(
    candidates: Iterable[str],
    k: int,
    constraints: ConstraintSet,
    weights: Mapping[str, Score],
    budget: OracleBudget = OracleBudget(),
) -> SolveResult:
    """Feasible committee with the highest sum of ``weights``, by complete
    enumeration.

    Ties go to the lexicographically smallest committee, which is the one
    found first.
    """
    pool = sorted(set(candidates))
    best: tuple[str, ...] | None = None
    best_key: Score = 0
    feasible = 0
    for committee in enumerate_feasible(pool, k, constraints, budget):
        feasible += 1
        key = sum(weights[name] for name in committee)
        if best is None or key > best_key:
            best, best_key = committee, key
    stats = {"examined": math.comb(len(pool), k), "feasible": feasible}
    return outcome("oracle", weights, best, stats)
