"""Committee orders, each a map of per-candidate weights.

A committee's key is the sum of its members' weights (larger is better),
so solvers add the keys of disjoint parts instead of rescanning members.
Keys rank equal-size committees only, and extending both sides with the
same candidates never reverses a comparison.  Every order is built from
one score per candidate: score orders weigh a candidate by its score, and
the lexi orders by a mixed-radix digit of its tier of equal scores.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from .elections import Score
from .errors import InputError


def pack(weights: Mapping[str, Score]) -> dict[str, int]:
    """One int per candidate, ``(key << m) + bit``, whose sums rank
    equal-size committees by key, ties toward the smallest sorted committee.

    The key is the weight scaled to an int by the LCM of the weights'
    denominators; the i-th smallest of the m names gets the bit
    ``1 << (m - 1 - i)``.  Distinct members' bits never carry, so a sum's
    low m bits are its members' mask, and a larger mask is a
    lexicographically smaller committee, for negative keys too.
    """
    names = sorted(weights)
    m = len(names)
    scale = math.lcm(*(weights[name].denominator for name in names))
    return {
        name: (int(weights[name] * scale) << m) + (1 << (m - 1 - i))
        for i, name in enumerate(names)
    }


def unpack(cell: int, packed: Mapping[str, int]) -> tuple[str, ...]:
    """The members of ``cell``, a sum of distinct ``packed`` values, sorted."""
    mask = cell & ((1 << len(packed)) - 1)
    return tuple(sorted(name for name, value in packed.items() if value & mask))


def _mixed_radix(scores: Mapping[str, Score], reverse: bool) -> dict[str, int]:
    """One weight per candidate, each tier of equal scores a digit of a
    mixed-radix number, from the least significant in ascending score order
    (descending if ``reverse``).  A committee holds 0 to s members of a tier
    of size s, so the next tier weighs s + 1 times as much, and weight sums
    compare as the per-tier counts do."""
    tiers: dict[Score, list[str]] = {}
    for candidate, score in scores.items():
        tiers.setdefault(score, []).append(candidate)
    weights: dict[str, int] = {}
    weight = 1
    for score in sorted(tiers, reverse=reverse):
        weights.update(dict.fromkeys(tiers[score], weight))
        weight *= len(tiers[score]) + 1
    return weights


def leximax_weights(scores: Mapping[str, Score]) -> dict[str, int]:
    """Weights that rank committees by their best members, then the next
    best, and so on; a larger score is better.

    Among equal-size committees that is more members in the best tier,
    then in the next: the best tier is the most significant digit.
    """
    return _mixed_radix(scores, reverse=False)


def leximin_weights(scores: Mapping[str, Score]) -> dict[str, int]:
    """Weights that rank committees by their worst members, then the next
    worst; a larger score is better.

    Among equal-size committees that is fewer members in the worst tier,
    then in the next worst: the worst tier is the most significant digit,
    and the weights are negated.
    """
    return {c: -w for c, w in _mixed_radix(scores, reverse=True).items()}


def best_singletons(
    packed: Mapping[str, int], pool: Iterable[str], count: int
) -> tuple[str, ...]:
    """The ``count`` best candidates of the pool under singleton comparisons
    of their ``pack``-ed weights.

    Returned best first; ties are broken toward the lexicographically
    smallest identifier, so no excluded candidate beats an included one.
    """
    items = set(pool)
    if not 0 <= count <= len(items):
        raise InputError(f"cannot pick {count} candidates from a pool of {len(items)}")
    try:
        ranked = sorted(items, key=packed.__getitem__, reverse=True)
    except KeyError as missing:
        raise InputError(f"unknown candidate {missing.args[0]!r}") from None
    return tuple(ranked[:count])
