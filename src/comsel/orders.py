"""Committee comparators lifted from singleton orders.

Every order here compares only equal-cardinality committees and satisfies
fixed-cardinality responsiveness: extending both sides with the same
disjoint set of candidates never reverses a comparison.  Each order reduces
a committee to a totally ordered key (larger is better) and exposes a join
on keys so solvers can evaluate disjoint unions without rescanning members.
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


class ScoreOrder(CommitteeOrder):
    """Committees ranked by the sum of fixed per-candidate scores."""

    def __init__(self, scores: Mapping[str, Score]):
        self._scores = dict(scores)

    @property
    def empty_key(self) -> Score:
        return 0

    def key_of(self, committee: Iterable[str]) -> Score:
        total: Score = 0
        for candidate in committee:
            try:
                total = total + self._scores[candidate]
            except KeyError:
                raise InputError(f"unknown candidate {candidate!r}") from None
        return total

    def join(self, left_key: Score, right_key: Score) -> Score:
        return left_key + right_key


class LeximaxOrder(CommitteeOrder):
    """Committees ranked by their best members, then the next best, and so on.

    Members map to the index of their ranking tier; committees compare by
    the multiset of those indices, examining the smallest indices first.
    """

    def __init__(self, ranking: SingletonRanking):
        self.ranking = ranking

    @property
    def empty_key(self) -> tuple:
        return ()

    def key_of(self, committee: Iterable[str]) -> tuple:
        levels = [-self.ranking.tier_of(c) for c in committee]
        return tuple(sorted(levels, reverse=True))

    def join(self, left_key: tuple, right_key: tuple) -> tuple:
        return tuple(sorted(left_key + right_key, reverse=True))


class LeximinOrder(CommitteeOrder):
    """Committees ranked by their worst members, then the next worst.

    The comparison mirrors the leximax rule but examines the largest tier
    indices first, so a committee wins by having a less objectionable tail.
    """

    def __init__(self, ranking: SingletonRanking):
        self.ranking = ranking

    @property
    def empty_key(self) -> tuple:
        return ()

    def key_of(self, committee: Iterable[str]) -> tuple:
        levels = [-self.ranking.tier_of(c) for c in committee]
        return tuple(sorted(levels))

    def join(self, left_key: tuple, right_key: tuple) -> tuple:
        return tuple(sorted(left_key + right_key))


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
