"""Committee comparators lifted from singleton orders.

Every order here compares only equal-cardinality committees and satisfies
fixed-cardinality responsiveness: extending both sides with the same
disjoint set of candidates never reverses a comparison.  Each order reduces
a committee to a totally ordered key (larger is better) and exposes a join
on keys so solvers can evaluate disjoint unions without rescanning members.
The score, leximax and leximin orders all key a committee by a sum of
per-candidate weights.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Mapping

from .elections import Score, SingletonRanking
from .errors import ContractViolation, InputError


class CommitteeOrder(ABC):
    """Weak order over equal-size candidate sets.

    ``compare`` returns a positive int when the first committee is strictly
    better, zero on indifference, and a negative int when it is worse.
    """

    @property
    @abstractmethod
    def empty_key(self) -> object:
        """Key of the empty committee."""

    @abstractmethod
    def key_of(self, committee: Iterable[str]) -> object:
        """Totally ordered summary of a committee; larger keys are better."""

    @abstractmethod
    def join(self, left_key: object, right_key: object) -> object:
        """Key of the disjoint union of two committees, from their keys."""

    def compare(self, left: Iterable[str], right: Iterable[str]) -> int:
        first = frozenset(left)
        second = frozenset(right)
        if len(first) != len(second):
            raise ContractViolation(
                f"cannot compare committees of sizes {len(first)} and {len(second)}"
            )
        left_key = self.key_of(first)
        right_key = self.key_of(second)
        if left_key > right_key:
            return 1
        if left_key < right_key:
            return -1
        return 0


class WeightOrder(CommitteeOrder):
    """Committees ranked by the sum of fixed per-candidate weights."""

    def __init__(self, weights: Mapping[str, Score]):
        self.weights = dict(weights)

    @property
    def empty_key(self) -> Score:
        return 0

    def key_of(self, committee: Iterable[str]) -> Score:
        total: Score = 0
        for candidate in committee:
            try:
                total = total + self.weights[candidate]
            except KeyError:
                raise InputError(f"unknown candidate {candidate!r}") from None
        return total

    def join(self, left_key: Score, right_key: Score) -> Score:
        return left_key + right_key


class ScoreOrder(WeightOrder):
    """Committees ranked by the sum of the candidates' scores; a key is the
    committee's score."""


def _mixed_radix(tiers: Iterable[frozenset[str]]) -> dict[str, int]:
    """One weight per candidate, each tier a digit of a mixed-radix number,
    the first tier least significant.  A committee holds 0 to s members
    of a tier of size s, so the next tier weighs s + 1 times as much, and
    weight sums compare as the per-tier counts do."""
    weights: dict[str, int] = {}
    weight = 1
    for tier in tiers:
        weights.update(dict.fromkeys(tier, weight))
        weight *= len(tier) + 1
    return weights


class LeximaxOrder(WeightOrder):
    """Committees ranked by their best members, then the next best, and so on.

    Among equal-size committees that is more members in the best tier,
    then in the next: the best tier is the most significant digit.
    """

    def __init__(self, ranking: SingletonRanking):
        super().__init__(_mixed_radix(reversed(ranking.tiers)))


class LeximinOrder(WeightOrder):
    """Committees ranked by their worst members, then the next worst.

    Among equal-size committees that is fewer members in the worst tier,
    then in the next worst: the worst tier is the most significant digit,
    and the weights are negated.
    """

    def __init__(self, ranking: SingletonRanking):
        super().__init__({c: -w for c, w in _mixed_radix(ranking.tiers).items()})


class ObligatoryFirstOrder(CommitteeOrder):
    """Wraps a base order so committees holding more members of an
    obligatory candidate set always win; the base order breaks balanced
    comparisons."""

    def __init__(self, base: CommitteeOrder, obligatory: Iterable[str]):
        self.base = base
        self.obligatory = frozenset(obligatory)

    @property
    def empty_key(self) -> tuple:
        return (0, self.base.empty_key)

    def key_of(self, committee: Iterable[str]) -> tuple:
        members = frozenset(committee)
        return (len(members & self.obligatory), self.base.key_of(members))

    def join(self, left_key: tuple, right_key: tuple) -> tuple:
        return (
            left_key[0] + right_key[0],
            self.base.join(left_key[1], right_key[1]),
        )


def best_singletons(
    order: CommitteeOrder, pool: Iterable[str], count: int
) -> tuple[str, ...]:
    """The ``count`` best candidates of the pool under singleton comparisons.

    Returned best first; ties are broken toward the lexicographically
    smallest identifier, so no excluded candidate beats an included one.
    """
    items = sorted(set(pool))
    if not 0 <= count <= len(items):
        raise InputError(f"cannot pick {count} candidates from a pool of {len(items)}")
    # a stable sort keeps equal keys in name order
    ranked = sorted(items, key=lambda c: order.key_of((c,)), reverse=True)
    return tuple(ranked[:count])


def score_if_score_based(
    order: CommitteeOrder, committee: Iterable[str]
) -> Score | None:
    """The committee's score when the order is built on per-candidate scores."""
    base = order.base if isinstance(order, ObligatoryFirstOrder) else order
    if isinstance(base, ScoreOrder):
        return base.key_of(committee)
    return None
