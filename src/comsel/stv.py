"""Single transferable vote ranking functions.

Both counting variants rank every candidate: quota winners come first in
order of election, the last candidate left standing follows, and the
eliminated candidates trail in reverse order of elimination.  The bare
"simple" variant never elects, so its output is purely reverse elimination
order.  All tallies are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .elections import ElectionProfile, SingletonRanking
from .errors import InputError

VARIANTS = ("simple", "droop_gregory")


@dataclass(frozen=True)
class StvRound:
    """Tallies observed at the start of one round and the action taken."""

    tallies: Mapping[str, Fraction]
    action: str  # "elect" or "eliminate"
    candidate: str


class _Ballot:
    __slots__ = ("ranking", "weight")

    def __init__(self, ranking: tuple[str, ...]):
        self.ranking = ranking
        # an int until a surplus transfer splits it
        self.weight: int | Fraction = 1


def _as_fractions(tallies: Mapping[str, int | Fraction]) -> dict[str, Fraction]:
    return {c: Fraction(v) for c, v in tallies.items()}


def _count(
    profile: ElectionProfile, variant: str
) -> tuple[list[StvRound], tuple[str, ...]]:
    if variant not in VARIANTS:
        raise InputError(f"unknown stv variant {variant!r}", code="invalid-rule")
    active = set(profile.candidates)
    ballots = [_Ballot(r) for r in profile.voters]
    quota = profile.num_voters // (profile.k + 1) + 1
    rounds: list[StvRound] = []
    elected: list[str] = []
    eliminated: list[str] = []
    while len(active) > 1:
        tallies: dict[str, int | Fraction] = dict.fromkeys(sorted(active), 0)
        support: dict[str, list[_Ballot]] = {c: [] for c in tallies}
        for ballot in ballots:
            if ballot.weight == 0:
                continue
            for candidate in ballot.ranking:
                if candidate in active:
                    tallies[candidate] += ballot.weight
                    support[candidate].append(ballot)
                    break
        if variant == "droop_gregory":
            winner = None
            for candidate in sorted(active):
                if tallies[candidate] >= quota and (
                    winner is None or tallies[candidate] > tallies[winner]
                ):
                    winner = candidate
            if winner is not None:
                rounds.append(StvRound(_as_fractions(tallies), "elect", winner))
                # every supporting ballot keeps the surplus fraction of its
                # weight; Fraction(), since int / int would give a float
                factor = Fraction(tallies[winner] - quota, tallies[winner])
                for ballot in support[winner]:
                    ballot.weight *= factor
                active.remove(winner)
                elected.append(winner)
                continue
        loser = None
        for candidate in sorted(active):
            if loser is None or tallies[candidate] < tallies[loser]:
                loser = candidate
        rounds.append(StvRound(_as_fractions(tallies), "eliminate", loser))
        active.remove(loser)
        eliminated.append(loser)
    order = tuple(elected) + tuple(sorted(active)) + tuple(reversed(eliminated))
    return rounds, order


def stv_rounds(profile: ElectionProfile, variant: str = "simple") -> list[StvRound]:
    """Round-by-round trace of the count, for inspection and tests."""
    return _count(profile, variant)[0]


def stv_ranking(
    profile: ElectionProfile, variant: str = "simple"
) -> SingletonRanking:
    """Strict ranking of all candidates produced by the chosen count.

    Ties on tallies are always broken toward the lexicographically smallest
    candidate identifier, so the result is deterministic.
    """
    return SingletonRanking.from_order(_count(profile, variant)[1])
