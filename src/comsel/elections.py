"""Election data model and positional scoring.

``intern_ranking`` is the one ranking check; it codes a ranking as one
code point per entry.  ``RankingCoder`` is the one builder of a profile's
code string: ``ElectionProfile`` feeds its rankings to one, or keeps the
string of one the document decoder or ``gen_random`` filled.

``WeaklySeparableRule`` is the one positional rule type: its constructor
checks a preset name or coerces each explicit entry, and ``vector(profile)``
sizes a preset, or checks an explicit vector's length, for a profile.
``score_all`` scores every candidate under such a rule (``scores``).
A profile with fewer voters than scored positions is counted one ballot at
a time; otherwise one ``Counter`` per position counts the column, whose
set-up cost pays off only when many voters repeat codes in it.  A lexi
order's tiers are the groups of equal scores (``comsel.orders``).
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from operator import itemgetter
from typing import Any, Iterable, Sequence

from .errors import InputError

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


_BATCH = 256  # rankings coded between appends to a coder's string


def intern_ranking(codes: dict[str, str], ranking: Sequence) -> str | None:
    """``ranking`` as a string of its entries' codes, or None when it is
    not a permutation of ``codes``' keys.  ``codes`` maps each candidate
    to ``chr`` of its index.  An unhashable entry raises TypeError whatever
    the ranking's length, since the lookup comes first."""
    try:
        if len(ranking) > 1:
            coded = itemgetter(*ranking)(codes)
        else:  # itemgetter needs a key, and returns a single one bare
            coded = tuple(codes[c] for c in ranking)
    except KeyError:
        set(ranking)  # raises TypeError on an unhashable entry
        return None
    m = len(codes)
    if len(coded) != m or len(set(coded)) != m:
        return None
    return "".join(coded)


def _code_points(ballots: str, m: int) -> Sequence[int]:
    """``ballots``' codes as ints: its latin-1 bytes, or its utf-32 past the BOM."""
    if m <= 256:
        return ballots.encode("latin-1")
    return memoryview(ballots.encode("utf-32", "surrogatepass"))[4:].cast("I")


class RankingCoder:
    """Builds a profile's code string; ``codes`` maps candidate j to ``chr(j)``."""

    def __init__(self, candidates: Sequence[str]) -> None:
        self.check_count(len(candidates))
        self.codes = {c: chr(j) for j, c in enumerate(candidates)}
        self._coded, self._batch = "", []

    @staticmethod
    def check_count(m: int) -> None:
        """Refuse more candidates than there are code points to stand for them."""
        if m > sys.maxunicode + 1:
            message = f"a profile holds at most {sys.maxunicode + 1} candidates"
            raise InputError(message, code="too-many-candidates")

    def add(self, ranking: Sequence) -> bool:
        """Append ``ranking``'s codes, unless ``intern_ranking`` refuses it."""
        coded = intern_ranking(self.codes, ranking)
        if coded is not None:
            self._append(coded)
        return coded is not None

    def sample(self, rng: Any, count: int) -> None:
        """Append ``count`` rankings drawn by ``random.Random.sample`` of the codes."""
        codes = "".join(self.codes.values())
        for _ in range(count):
            self._append("".join(rng.sample(codes, len(codes))))

    def _append(self, coded: str) -> None:
        self._batch.append(coded)
        if len(self._batch) == _BATCH:
            self.joined()

    def joined(self) -> str:
        """The codes of every ranking so far.  ``coded += part`` grows the
        string in place while the local is its only reference, so the codes
        are never held twice; a second reference would make it a copy."""
        coded, self._coded = self._coded, ""
        coded += "".join(self._batch)
        self._batch.clear()
        self._coded = coded
        return coded


@dataclass(frozen=True, init=False)
class ElectionProfile:
    """Candidates, strict voter rankings (best first), and the committee size.

    Every ranking must be a permutation of the candidates.  The rankings,
    or a ``RankingCoder`` over the candidates that coded them, are checked
    once and stored as one string ``ballots``: voter i's ranking is
    ``ballots[i*m:(i+1)*m]``, and ``chr(j)`` stands for ``candidates[j]``,
    one byte per entry up to m = 256.  The committee size may be zero.
    """

    candidates: tuple[str, ...]
    ballots: str
    k: int

    def __init__(self, candidates: tuple[str, ...],
                 voters: Sequence | RankingCoder, k: int) -> None:
        if not candidates:
            raise InputError(
                "a profile needs at least one candidate", code="empty-profile"
            )
        coder = voters if isinstance(voters, RankingCoder) else RankingCoder(candidates)
        if len(set(candidates)) != len(candidates):
            dupe = next(c for c in candidates if candidates.count(c) > 1)
            raise InputError(
                f"candidate identifiers must be distinct; {dupe!r} repeats",
                code="duplicate-candidate",
            )
        if coder is not voters:
            for index, ranking in enumerate(voters or ()):  # None: no voter
                if not coder.add(ranking):
                    raise InputError(
                        f"voter {index}: ranking is not a permutation of the "
                        f"candidate set (voter index {index}, counting from 0)",
                        code="non-permutation-ranking",
                    )
        elif tuple(coder.codes) != tuple(candidates):
            raise InputError("the coder codes other candidates than the profile's")
        ballots = coder.joined()
        if not ballots:
            raise InputError("a profile needs at least one voter", code="empty-profile")
        if not isinstance(k, int) or isinstance(k, bool):
            shown = repr(k)
            if isinstance(k, Fraction):  # a document's decimal, as written
                shown = Decimal(k.numerator) / k.denominator + Decimal("0.0")
            raise InputError(
                f"committee size must be an integer, got {shown}", code="invalid-k"
            )
        if not 0 <= k <= len(candidates):
            raise InputError(
                f"committee size {k} outside 0..{len(candidates)}",
                code="invalid-k",
            )
        vars(self).update(candidates=candidates, ballots=ballots, k=k)

    @classmethod
    def build(
        cls,
        candidates: Iterable[str],
        voters: Iterable[Sequence[str]],
        k: int,
    ) -> "ElectionProfile":
        return cls(tuple(candidates), tuple(voters), k)

    @property
    def voters(self) -> tuple[tuple[str, ...], ...]:
        """The rankings as tuples of the candidates' own name objects."""
        names, ballots, m = self.candidates, self.ballots, len(self.candidates)
        if m == 1:  # itemgetter returns a single entry bare
            return ((names[0],),) * len(ballots)
        codes = _code_points(ballots, m)
        return tuple(itemgetter(*codes[i:i + m])(names) for i in range(0, len(codes), m))

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    @property
    def num_voters(self) -> int:
        return len(self.ballots) // len(self.candidates)


# each preset's vector for m candidates and committee size k, 0 <= k <= m
_PRESETS = {
    "sntv": lambda m, k: (1,) + (0,) * (m - 1),
    "borda": lambda m, k: tuple(range(m - 1, -1, -1)),
    "bloc": lambda m, k: (1,) * k + (0,) * (m - k),
}
PRESET_NAMES = tuple(_PRESETS)


@dataclass(frozen=True)
class WeaklySeparableRule:
    """Positional scoring rule named by preset or given as an explicit vector.

    Entry 0 of a vector is the value of a voter's top position.  An
    explicit vector must have one entry per candidate; presets are sized
    when the profile is known.
    """

    gamma: str | tuple[Score, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.gamma, (tuple, list)):
            if self.gamma not in PRESET_NAMES:
                raise InputError(
                    f"unknown scoring preset {self.gamma!r}; expected one of "
                    f"{', '.join(PRESET_NAMES)} or a list of numbers",
                    code="invalid-gamma",
                )
            return
        values = tuple(as_score(v) for v in self.gamma)
        if not values:
            raise InputError(
                "an explicit scoring vector needs at least one entry",
                code="invalid-gamma",
            )
        object.__setattr__(self, "gamma", values)

    def vector(self, profile: ElectionProfile) -> tuple[Score, ...]:
        """The vector sized for the profile: one entry per candidate."""
        m = profile.num_candidates
        if isinstance(self.gamma, str):
            return _PRESETS[self.gamma](m, profile.k)
        if len(self.gamma) != m:
            raise InputError(
                f"scoring vector has {len(self.gamma)} entries for {m} candidates",
                code="invalid-gamma",
            )
        return self.gamma

    def scores(self, profile: ElectionProfile) -> dict[str, Score]:
        """Every candidate's score under this rule (``score_all``)."""
        return score_all(profile, self)


def score_all(profile: ElectionProfile, rule: WeaklySeparableRule) -> dict[str, Score]:
    """Positional score of every candidate under the rule's vector, scaled
    to ints by the least common multiple of its denominators and divided by
    that scale once at the end.  Positions past the last nonzero entry are
    not read.  With at least as many voters as scored positions, each
    position's column is counted by one ``Counter`` and the counts are
    weighted; with fewer, each ballot is walked once, adding its positions'
    weights.  A ``Counter`` has a fixed set-up cost per column, which pays
    off only when the column repeats codes, that is with many voters."""
    gamma = rule.vector(profile)
    scale = math.lcm(*(v.denominator for v in gamma))
    weights = [int(v * scale) for v in gamma]
    while weights and not weights[-1]:
        weights.pop()
    m, ballots = profile.num_candidates, profile.ballots
    by_code = [0] * m  # in the candidates' order
    if len(ballots) < m * len(weights):
        codes = _code_points(ballots, m)
        for start in range(0, len(codes), m):
            for code, weight in zip(codes[start:start + m], weights):
                by_code[code] += weight
    else:
        for j, weight in enumerate(weights):
            if weight:  # column j holds every voter's j-th preference
                for code, count in Counter(ballots[j::m]).items():
                    by_code[ord(code)] += weight * count
    totals = dict(zip(profile.candidates, by_code))
    if scale == 1:
        return totals
    return {c: as_score(Fraction(total, scale)) for c, total in totals.items()}
