"""Single transferable vote ranking functions.

Both counting variants rank every candidate: quota winners come first in
order of election, the last candidate left standing follows, and the
eliminated candidates trail in reverse order of elimination.  The bare
"simple" variant never elects, so its output is purely reverse elimination
order.  Rankings are plain tuples; all tallies are exact rationals.
``StvRule`` names a variant, which its constructor checks, and scores
each candidate by its negated place in the ranking (``scores``).

The count keeps one invariant: each hopeful candidate holds a pile
``{weight: [ranking, ...]}`` of the ballots whose first hopeful preference
it is, each ranking an iterator over the ballot's codes (``ElectionProfile``)
left just past that preference.  A round pops only the elected or
eliminated candidate's pile and moves each of its ballots on to its next
hopeful preference, at the Gregory surplus factor on election and at full
weight on elimination.  The moved ballots of one weight are grouped by
destination first, so each pile receives a weight once per group, not once
per ballot.  Tallies are re-summed from the piles every round, one product
per distinct weight: after a few Gregory transfers a running tally's
denominator grows with every add, so re-summing is cheaper.  Piles are
keyed by code; the round log and the result name candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .elections import ElectionProfile
from .errors import InputError

VARIANTS = ("simple", "droop_gregory")


@dataclass(frozen=True)
class StvRule:
    variant: str = "simple"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise InputError(
                f"unknown stv variant {self.variant!r}; "
                f"expected one of {', '.join(VARIANTS)}",
                code="invalid-rule",
            )

    def scores(self, profile: ElectionProfile) -> dict[str, int]:
        """Each candidate's place in the count's ranking, negated."""
        return {c: -p for p, c in enumerate(stv_ranking(profile, self.variant))}


@dataclass(frozen=True)
class StvRound:
    """Tallies observed at the start of one round and the action taken."""

    tallies: Mapping[str, Fraction]
    action: str  # "elect" or "eliminate"
    candidate: str


def _count(
    profile: ElectionProfile, variant: str
) -> tuple[list[StvRound], tuple[str, ...]]:
    StvRule(variant)  # checks the variant
    quota = profile.num_voters // (profile.k + 1) + 1
    m = profile.num_candidates
    # codes in name order, so the first largest or smallest tally wins a tie
    names = dict(sorted(zip(map(chr, range(m)), profile.candidates), key=lambda p: p[1]))
    piles: dict[str, dict[int | Fraction, list[Iterator[str]]]] = {c: {} for c in names}
    for start in range(0, len(profile.ballots), m):
        ranking = iter(profile.ballots[start:start + m])  # one ballot's codes
        piles[next(ranking)].setdefault(1, []).append(ranking)
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
        named = {names[c]: tally for c, tally in tallies.items()}
        rounds.append(StvRound(named, action, names[chosen]))
        (elected if action == "elect" else eliminated).append(names[chosen])
        for weight, group in piles.pop(chosen).items():
            weight *= factor
            if weight == 0:
                continue
            moved: dict[str, list[Iterator[str]]] = {}
            for ranking in group:
                # rankings are full permutations and a hopeful candidate
                # remains after the pop, so this stops inside the ranking
                for code in ranking:
                    if code in piles:
                        break
                moved.setdefault(code, []).append(ranking)
            for code, ballots in moved.items():
                piles[code].setdefault(weight, []).extend(ballots)
    return rounds, (*elected, *map(names.get, piles), *reversed(eliminated))


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
