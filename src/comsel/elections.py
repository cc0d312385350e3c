"""Election data model and positional scoring.

``intern_ranking`` is the one ranking check.  ``ElectionProfile`` runs it
on every ranking it is given; the document decoder in ``comsel.cli`` runs
it on each ranking as it reads it, and hands the profile the accepted
tuples as ``_Interned`` rankings, which it keeps without a second check.

``score_all`` scores every candidate under a ``WeaklySeparableRule``, whose
``vector(profile)`` (in ``comsel.instances``) sizes and checks the vector.
A profile with fewer voters than scored positions is counted one ballot at
a time; otherwise one ``Counter`` per position counts the column, whose
set-up cost pays off only when many voters repeat names in it.  A lexi
order's tiers are the groups of equal scores (``comsel.orders``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import InputError

if TYPE_CHECKING:  # instances imports this module
    from .instances import WeaklySeparableRule

# an int whenever the value is integral, an exact Fraction otherwise
Score = int | Fraction


def as_score(value: object) -> Score:
    """Coerce a number to an exact score: an int when integral, a Fraction
    otherwise.  A float becomes the decimal it prints as, so ``0.1`` is
    exactly 1/10, the value a JSON document's ``0.1`` is read as."""
    if isinstance(value, bool):
        raise InputError("scores must be numbers, got a boolean", code="invalid-gamma")
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InputError(
                f"scores must be finite, got {value!r}", code="invalid-gamma"
            )
        value = Fraction(repr(value))
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise InputError(f"unsupported score value {value!r}", code="invalid-gamma")


def intern_ranking(canon: dict[str, str], ranking: Sequence) -> tuple[str, ...] | None:
    """``ranking`` as a tuple of ``canon``'s own name objects, or None when
    it is not a permutation of ``canon``'s keys.  ``canon`` maps each
    candidate to itself.  An unhashable entry raises TypeError whatever
    the ranking's length, since the lookup comes first."""
    try:
        if len(ranking) > 1:
            interned = itemgetter(*ranking)(canon)
        else:  # itemgetter needs a key, and returns a single one bare
            interned = tuple(canon[c] for c in ranking)
    except KeyError:
        set(ranking)  # raises TypeError on an unhashable entry
        return None
    m = len(canon)
    if len(interned) != m or len(set(interned)) != m:
        return None
    return interned


class _Interned(tuple):
    """Rankings ``intern_ranking`` has already accepted against the
    candidates of the profile they are given to, which keeps them as they
    are.  Private: the public constructor checks every ranking."""


@dataclass(frozen=True)
class ElectionProfile:
    """Candidates, strict voter rankings (best first), and the committee size.

    Every ranking must be a permutation of the full candidate set.  The
    rankings are validated once, by ``intern_ranking``, and stored as
    tuples of the candidates' own name objects, so scoring and counting
    compare names by identity with cached hashes.  The committee size may
    be zero; an empty committee is a legal outcome.
    """

    candidates: tuple[str, ...]
    voters: tuple[tuple[str, ...], ...]
    k: int

    def __post_init__(self) -> None:
        if not self.candidates:
            raise InputError(
                "a profile needs at least one candidate", code="empty-profile"
            )
        canon = {c: c for c in self.candidates}
        if len(canon) != len(self.candidates):
            dupe = next(c for c in self.candidates if self.candidates.count(c) > 1)
            raise InputError(
                f"candidate identifiers must be distinct; {dupe!r} repeats",
                code="duplicate-candidate",
            )
        if not self.voters:
            raise InputError("a profile needs at least one voter", code="empty-profile")
        if isinstance(self.voters, _Interned):
            rankings = list(self.voters)
        else:
            rankings = []
            for index, ranking in enumerate(self.voters):
                interned = intern_ranking(canon, ranking)
                if interned is None:
                    raise InputError(
                        f"voter {index}: ranking is not a permutation of the "
                        f"candidate set (voter index {index}, counting from 0)",
                        code="non-permutation-ranking",
                    )
                rankings.append(interned)
        object.__setattr__(self, "voters", tuple(rankings))
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            shown = repr(self.k)
            if isinstance(self.k, Fraction):  # a document's decimal, as written
                shown = Decimal(self.k.numerator) / self.k.denominator + Decimal("0.0")
            raise InputError(
                f"committee size must be an integer, got {shown}", code="invalid-k"
            )
        if not 0 <= self.k <= len(self.candidates):
            raise InputError(
                f"committee size {self.k} outside 0..{len(self.candidates)}",
                code="invalid-k",
            )

    @classmethod
    def build(
        cls,
        candidates: Iterable[str],
        voters: Iterable[Sequence[str]],
        k: int,
    ) -> "ElectionProfile":
        return cls(tuple(candidates), tuple(voters), k)

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    @property
    def num_voters(self) -> int:
        return len(self.voters)


def score_all(profile: ElectionProfile, rule: WeaklySeparableRule) -> dict[str, Score]:
    """Positional score of every candidate under the rule's vector, scaled
    to ints by the least common multiple of its denominators and divided by
    that scale once at the end.  Positions past the last nonzero entry are
    not read.  With at least as many voters as scored positions, each
    position's column is counted by one ``Counter`` and the counts are
    weighted; with fewer, each ballot is walked once, adding its positions'
    weights.  A ``Counter`` has a fixed set-up cost per column, which pays
    off only when the column repeats names, that is with many voters."""
    gamma = rule.vector(profile)
    scale = math.lcm(*(v.denominator for v in gamma))
    weights = [int(v * scale) for v in gamma]
    while weights and not weights[-1]:
        weights.pop()
    totals = dict.fromkeys(profile.candidates, 0)
    if len(profile.voters) < len(weights):
        for ranking in profile.voters:
            for candidate, weight in zip(ranking, weights):
                totals[candidate] += weight
    else:
        for weight, column in zip(weights, zip(*profile.voters)):
            if weight:
                for candidate, count in Counter(column).items():
                    totals[candidate] += weight * count
    if scale == 1:
        return totals
    return {c: as_score(Fraction(total, scale)) for c, total in totals.items()}
