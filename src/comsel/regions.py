"""Branch-and-bound solver for weight-sum orders under arbitrary constraints.

Candidates sharing the same set of labels are interchangeable up to score,
so the search runs over how many seats each such region gets, not over
individual candidates.  Interval and dominance constraints become rows
over the region counts, each kept as its non-zero coefficients, all -1
or 1, plus one row that pins the committee size.  Committees are ranked
by their ``orders.pack`` sums, which are distinct, so a node is abandoned
when even the most generous completion cannot exceed the incumbent's.
Labels may overlap and dominance may form any digraph; the price is
exponential worst-case search, kept in check by the bounds.

Every row in turn tightens a node's count bounds from its floor and
ceiling, in passes over all rows until no bound moves.  Then the node
meets up to three Lagrangian bounds, each from one int multiplier per row:
the greedy bound, which prices only the size row and so fills the seats
with the best members the box allows; the multipliers the node inherits
from its parent; and those of a fresh LP relaxation (``lp``).  Each bound
is computed exactly with its maximising counts.  It prunes the node when
it cannot beat the incumbent, and when the LP is infeasible its Farkas
certificate, the same sum with every gain 0, prunes the node when
negative.  Counts that meet every row and beat the incumbent become the
incumbent, and close the node when they score the bound.  Floats only
choose the LP's multipliers: they are rounded to ints, so a float error
can weaken a bound but never make it wrong.

A node that stays open branches on the first open region in best-gain
order, one child per count, the count nearest the LP's point first and the
others outward from it.  Floats choose only the order, never a prune.  The
greedy count takes the LP's place when no LP above the node was feasible,
and when the keys are wider than a float's 53 bits: the LP then sees them
cut, without the low tiers and the ties, and its point misleads.

A search builds its LP once, over the whole box, on its first LP solve
(``_LagrangianBound.base``), and every LP restarts from a state: the final
state of the last feasible LP above the node, which the search carries
down and siblings share, or else the base.  The base puts each count
where its gains stop being positive.  So the LP sees every key less one
constant, the midpoint of the k-th and (k+1)-th largest keys, which
leaves about k of them positive and the start close to the size row.
That row pins the sum of the counts at k, so the shift moves every
objective value by the same amount and only the size row's multiplier,
which gets the constant back before rounding.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Mapping, NamedTuple, Sequence

from .constraints import ConstraintSet
from .elections import Score
from .lp import Simplex
from .orders import pack, unpack
from .result import SolveResult, outcome

# LP multipliers are rounded to multiples of 2**-_FRACTION_BITS
_FRACTION_BITS = 30


@dataclass(frozen=True)
class Region:
    """All candidates carrying exactly the same labels."""

    signature: tuple[str, ...]
    members: tuple[str, ...]
    gains: tuple[Score, ...]  # the members' scores, best first

    @property
    def size(self) -> int:
        return len(self.members)


class Row(NamedTuple):
    terms: tuple[tuple[int, int], ...]  # (region index, non-zero coefficient)
    low: int
    high: int | None


def compute_regions(
    candidates: Iterable[str],
    constraints: ConstraintSet,
    scores: Mapping[str, Score],
) -> tuple[Region, ...]:
    """Regions sorted by signature; members best first, ties to the
    lexicographically smaller name.  A signature keeps only the labels
    some constraint names: the others cannot tell two candidates apart."""
    used = {interval.label for interval in constraints.intervals}
    for dominance in constraints.dominances:
        used.update((dominance.over, dominance.under))
    signatures: dict[str, list[str]] = {name: [] for name in sorted(set(candidates))}
    for label in sorted(used):
        for name in constraints.labeling.members(label):
            if name in signatures:
                signatures[name].append(label)
    buckets: dict[tuple[str, ...], list[str]] = {}
    for name, signature in signatures.items():
        buckets.setdefault(tuple(signature), []).append(name)
    regions = []
    for signature in sorted(buckets):
        # a stable sort keeps equal scores in name order
        members = sorted(buckets[signature], key=scores.__getitem__, reverse=True)
        gains = tuple(scores[name] for name in members)
        regions.append(Region(signature, tuple(members), gains))
    return tuple(regions)


def build_rows(
    regions: tuple[Region, ...], k: int, constraints: ConstraintSet
) -> tuple[Row, ...]:
    rows = [Row(tuple((i, 1) for i in range(len(regions))), k, k)]
    for interval in constraints.intervals:
        terms = tuple(
            (i, 1)
            for i, region in enumerate(regions)
            if interval.label in region.signature
        )
        rows.append(Row(terms, interval.lower, interval.upper))
    for dominance in constraints.dominances:
        coeffs = (
            (dominance.over in region.signature) - (dominance.under in region.signature)
            for region in regions
        )
        rows.append(Row(tuple((i, c) for i, c in enumerate(coeffs) if c), 0, None))
    return tuple(rows)


def _propagate(rows: tuple[Row, ...], lows: list[int], highs: list[int]) -> bool:
    """Tighten count bounds to a fixpoint; False when a row is impossible."""
    changed = True
    while changed:
        changed = False
        for row in rows:
            floor = ceiling = 0
            for index, coeff in row.terms:
                if coeff > 0:
                    floor += lows[index]
                    ceiling += highs[index]
                else:
                    floor -= highs[index]
                    ceiling -= lows[index]
            # how far the row's sum may fall from its ceiling, and rise
            # from its floor; both non-negative, so no low passes its high
            room_low = ceiling - row.low
            room_high = None if row.high is None else row.high - floor
            if room_low < 0 or (room_high is not None and room_high < 0):
                return False
            for index, coeff in row.terms:
                width = highs[index] - lows[index]
                if coeff > 0:
                    if room_high is not None and width > room_high:
                        highs[index] = lows[index] + room_high
                    if highs[index] - lows[index] > room_low:
                        lows[index] = highs[index] - room_low
                else:
                    if room_high is not None and width > room_high:
                        lows[index] = highs[index] - room_high
                    if highs[index] - lows[index] > room_low:
                        highs[index] = lows[index] + room_low
                if highs[index] - lows[index] < width:
                    changed = True
    return True


def _satisfies(rows: tuple[Row, ...], counts: list[int]) -> bool:
    """Whether the counts meet every row."""
    for row in rows:
        total = sum(c * counts[i] for i, c in row.terms)
        if total < row.low or (row.high is not None and total > row.high):
            return False
    return True


class _LagrangianBound:
    """Exact Lagrangian bounds and infeasibility proofs over a node's box.

    Every bound comes from one int multiplier per row: the greedy fill's,
    which price only the size row, or the LP's, whose floats are rounded
    to ints.  The bound they give is then computed exactly, so a float
    error can make a bound weaker but never wrong."""

    def __init__(self, regions: tuple[Region, ...], rows: tuple[Row, ...], m: int):
        self.regions = regions
        self.rows = rows
        self.m = m
        self.negated = [tuple(-g for g in region.gains) for region in regions]
        # with every gain 0, for the Farkas check, one table serves as both
        self.zeros = [(0,) * (region.size + 1) for region in regions]

    @cached_property
    def prefixes(self) -> list[tuple[int, ...]]:
        return [tuple(accumulate(region.gains, initial=0)) for region in self.regions]

    @cached_property
    def keys(self) -> tuple[int, list[list[float]]]:
        """``(bits, gains)``: each region's keys as floats, ``key / 2**bits``,
        all within [-1, 1]."""
        keys = [[g >> self.m for g in region.gains] for region in self.regions]
        bits = max((abs(key).bit_length() for row in keys for key in row), default=0)
        cut = max(bits - 53, 0)
        scale = 2.0 ** (bits - cut)
        return bits, [[(key >> cut) / scale for key in row] for row in keys]

    @cached_property
    def shifted(self) -> tuple[float, list[list[float]]]:
        """``(λ, gains)``: the float keys less ``λ``, the midpoint of the
        k-th and (k+1)-th largest, which the LP sees in their place."""
        k = self.rows[0].low
        ordered = sorted((key for row in self.keys[1] for key in row), reverse=True)
        shift = (ordered[k - 1] + ordered[k]) / 2 if 0 < k < len(ordered) else 0.0
        return shift, [[key - shift for key in row] for row in self.keys[1]]

    @cached_property
    def base(self) -> Simplex:
        """The LP over the whole box on the shifted keys, not yet solved:
        built on a search's first LP solve, then shared by all of them."""
        return Simplex(self.rows, self.shifted[1])

    def greedy(self, lows: list[int], highs: list[int]) -> tuple[bool, list[int]]:
        """The size row's multiplier alone, one below the last gain a greedy
        fill of the free seats takes.  Packed gains are distinct, so over a
        propagated box its Lagrangian is the best sum with only the size
        enforced, and its counts are that fill."""
        seats = self.rows[0].low - sum(lows)
        extras: list[int] = []
        for region, low, high in zip(self.regions, lows, highs):
            extras.extend(region.gains[low:high])
        extras.sort(reverse=True)
        # no seat free: the propagated box is one point, and any price will do
        return True, [extras[seats - 1] - 1 if seats else 0]

    def multipliers(
        self, lows: list[int], highs: list[int], start: Simplex
    ) -> tuple[bool, list[int], Simplex | None] | None:
        """Rounded LP multipliers over the box: ``(True, μ, lp)`` in packed
        units when the LP is feasible, ``lp`` its final state, ``(False, μ,
        None)`` from a certificate of infeasibility when it is not, and None
        when the LP gives up.  The LP restarts from ``start``: ``base``, or
        the final state of an LP over a box that holds this one."""
        found = start.solve(lows, highs)
        if found is None:
            return None
        feasible, duals, state = found
        if feasible:
            duals[0] += self.shifted[0]  # the size row prices the shift
        mu = []
        for dual, row in zip(duals, self.rows):
            scaled = round(dual * (1 << _FRACTION_BITS))
            if scaled > 0 and row.high is None:
                scaled = 0  # the row has no upper bound to price
            # a certificate holds at any scale; a bound needs packed units
            if feasible:
                scaled = (scaled << self.keys[0] + self.m) >> _FRACTION_BITS
            mu.append(scaled)
        return feasible, mu, state

    def lagrangian(
        self, mu: tuple[bool, Sequence[int]], lows: list[int], highs: list[int]
    ) -> tuple[int, list[int]]:
        """``(bound, counts)`` for ``mu = (priced, multipliers)``, rows past
        the last multiplier unpriced: ``bound = Σ μ_i·rhs_i + Σ_r max over
        lows[r] <= n <= highs[r] of (prefix_r(n) + n·c_r)``, where ``c_r =
        -Σ_i μ_i·coeff_ir``, ``rhs_i`` is the row's upper bound where ``μ_i
        > 0`` and its lower bound where ``μ_i < 0``, and ``counts`` holds
        each region's maximising n.  No count vector in the box that meets
        the rows scores more.  ``prefix_r(n)`` sums region r's best n gains
        when ``priced``; unpriced, every gain is 0, and a negative bound
        proves that no such vector exists."""
        priced, multipliers = mu
        prefixes, negated = (
            (self.prefixes, self.negated) if priced else (self.zeros, self.zeros)
        )
        prices = [0] * len(lows)
        total = 0
        for value, row in zip(multipliers, self.rows):
            if value:
                total += value * (row.high if value > 0 else row.low)
                for index, coeff in row.terms:
                    prices[index] -= coeff * value
        counts = []
        for price, low, high, prefix, neg in zip(
            prices, lows, highs, prefixes, negated
        ):
            # every gain above -price pays for its seat
            n = bisect_left(neg, price, low, high)
            counts.append(n)
            total += prefix[n] + n * price
        return total, counts


def solve_region_ip(
    candidates: Iterable[str],
    k: int,
    constraints: ConstraintSet,
    weights: Mapping[str, Score],
) -> SolveResult:
    """Feasible committee with the highest sum of ``weights``, such as a
    candidate's score or a leximax order's tier digit; ties go to the
    lexicographically smallest committee.

    The committee is not re-checked here: ``solve_instance`` verifies every
    optimal result once, so direct callers get it unverified."""
    packed = pack(weights)
    regions = compute_regions(candidates, constraints, packed)
    rows = build_rows(regions, k, constraints)
    count = len(regions)
    order = sorted(range(count), key=lambda i: regions[i].gains[0], reverse=True)
    stats = {"regions": count, "nodes": 0, "leaves": 0, "lp_solves": 0}
    best: int | None = None
    bounds = _LagrangianBound(regions, rows, len(packed))

    def settle(mu: tuple[bool, Sequence[int]]) -> list[int] | None:
        """The counts of ``mu``'s bound over the node's box, or None when
        the bound closes the node: the box is empty, the bound cannot beat
        the incumbent, or its counts meet every row and score it.  Counts
        that meet every row and beat the incumbent become the incumbent."""
        nonlocal best
        bound, counts = bounds.lagrangian(mu, lows, highs)
        if not mu[0]:
            return None if bound < 0 else counts
        if best is not None and bound <= best:
            return None
        if _satisfies(rows, counts):
            score = sum(prefix[n] for prefix, n in zip(bounds.prefixes, counts))
            if best is None or score > best:
                stats["leaves"] += 1
                best = score
            if score == bound:  # as the greedy bound is once all counts are fixed
                return None
        return counts

    # depth-first; a node waits with its parent's bounds, the count it
    # fixes, and its parent's multipliers and last LP state, and copies the
    # bounds when reached
    pending = [([0] * count, [r.size for r in regions], None, 0, None, None)]
    while pending:
        lows, highs, fixed, value, mu, lp = pending.pop()
        if fixed is not None:
            lows, highs = lows.copy(), highs.copy()
            lows[fixed] = highs[fixed] = value
        stats["nodes"] += 1
        if not _propagate(rows, lows, highs):
            continue
        # the greedy bound, then the parent's multipliers, then a fresh LP
        # solve, from the last feasible LP above the node or the base
        counts = settle(bounds.greedy(lows, highs))
        if counts is None or mu is not None and settle(mu) is None:
            continue
        stats["lp_solves"] += 1
        solved = bounds.multipliers(lows, highs, lp or bounds.base)
        if solved is not None:
            # an infeasible LP leaves no state: the nodes below keep
            # restarting from the last feasible one
            mu, lp = solved[:2], solved[2] or lp
            if settle(mu) is None:
                continue
        # branch on the first open region in best-gain order; a point box
        # always closes in settle, so there is one
        index = next(i for i in order if lows[i] < highs[i])
        # the child nearest the LP's count comes first, then the others
        # outward from it, the higher of two equally far first; the greedy
        # count stands in with no feasible LP above the node, or with keys
        # cut to a float's 53 bits, whose LP misses the low tiers and ties
        guess = counts[index]
        if lp is not None and bounds.keys[0] <= 53:
            guess = min(max(round(lp.value[index]), lows[index]), highs[index])
        values = sorted(
            range(lows[index], highs[index] + 1),
            key=lambda v: (abs(v - guess), -v),
            reverse=True,
        )
        pending.extend((lows, highs, index, v, mu, lp) for v in values)

    committee = None if best is None else unpack(best, packed)
    return outcome("region", weights, committee, stats)
