"""Single transferable vote ranking functions.

Both counting variants rank every candidate: quota winners come first in
order of election, the last candidate left standing follows, and the
eliminated candidates trail in reverse order of elimination.  The bare
"simple" variant never elects, so its output is purely reverse elimination
order.  Rankings are plain tuples; all tallies are exact rationals.

The count keeps one invariant: each hopeful candidate holds a pile
``{weight: [(ranking, position), ...]}`` of the ballots whose first hopeful
preference, at ``ranking[position]``, it is.  A round pops only the elected
or eliminated candidate's pile and moves each of its ballots on to its next
hopeful preference, at the Gregory surplus factor on election and at full
weight on elimination.  The moved ballots of one weight are grouped by
destination first, so each pile receives a weight once per group, not once
per ballot.  Tallies are re-summed from the piles every round, one product
per distinct weight: after a few Gregory transfers a running tally's
denominator grows with every add, so re-summing is cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .elections import ElectionProfile
from .errors import InputError

VARIANTS = ("simple", "droop_gregory")


@dataclass(frozen=True)
class StvRound:
    """Tallies observed at the start of one round and the action taken."""

    tallies: Mapping[str, Fraction]
    action: str  # "elect" or "eliminate"
    candidate: str


def _count(
    profile: ElectionProfile, variant: str
) -> tuple[list[StvRound], tuple[str, ...]]:
    if variant not in VARIANTS:
        raise InputError(f"unknown stv variant {variant!r}", code="invalid-rule")
    quota = profile.num_voters // (profile.k + 1) + 1
    # in name order, so the first largest or smallest tally wins a tie
    piles: dict[str, dict[int | Fraction, list[tuple[tuple[str, ...], int]]]] = {
        c: {} for c in sorted(profile.candidates)
    }
    for ranking in profile.voters:
        piles[ranking[0]].setdefault(1, []).append((ranking, 0))
    rounds: list[StvRound] = []
    elected: list[str] = []
    eliminated: list[str] = []
    while len(piles) > 1:
        tallies = {
            c: Fraction(sum(weight * len(group) for weight, group in pile.items()))
            for c, pile in piles.items()
        }
        action, chosen, factor = "eliminate", min(tallies, key=tallies.get), 1
        if variant == "droop_gregory":
            top = max(tallies, key=tallies.get)
            if tallies[top] >= quota:
                action, chosen = "elect", top
                factor = (tallies[top] - quota) / tallies[top]
        rounds.append(StvRound(tallies, action, chosen))
        (elected if action == "elect" else eliminated).append(chosen)
        for weight, group in piles.pop(chosen).items():
            weight *= factor
            if weight == 0:
                continue
            moved: dict[str, list[tuple[tuple[str, ...], int]]] = {}
            for ranking, position in group:
                # rankings are full permutations and a hopeful candidate
                # remains after the pop, so this stops inside the ranking
                position += 1
                while ranking[position] not in piles:
                    position += 1
                moved.setdefault(ranking[position], []).append((ranking, position))
            for candidate, ballots in moved.items():
                piles[candidate].setdefault(weight, []).extend(ballots)
    order = tuple(elected) + tuple(piles) + tuple(reversed(eliminated))
    return rounds, order


def stv_rounds(profile: ElectionProfile, variant: str = "simple") -> list[StvRound]:
    """Round-by-round trace of the count, for inspection and tests."""
    return _count(profile, variant)[0]


def stv_ranking(
    profile: ElectionProfile, variant: str = "simple"
) -> tuple[str, ...]:
    """Every candidate, best first, in the chosen count's strict ranking.

    Ties on tallies are always broken toward the lexicographically smallest
    candidate identifier, so the result is deterministic.
    """
    return _count(profile, variant)[1]
