"""Branch-and-bound solver for weight-sum orders under arbitrary constraints.

Candidates sharing the same set of labels are interchangeable up to score,
so the search runs over how many seats each such region gets, not over
individual candidates.  Interval and dominance constraints become rows
with coefficients in {-1, 0, 1} over the region counts, plus one row that
pins the committee size.  Bounds on the counts are tightened to a fixpoint
at every search node.  Committees are ranked by their ``orders.pack`` sums,
which are distinct, so a node is abandoned when even the most generous
completion cannot exceed the incumbent's.  Labels may overlap and dominance
may form any digraph; the price is exponential worst-case search, kept in
check by the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter, sub
from typing import Callable, Iterable, Mapping, Sequence

from .constraints import ConstraintSet
from .elections import Score
from .orders import pack, unpack
from .result import SolveResult


@dataclass(frozen=True)
class Region:
    """All candidates carrying exactly the same labels."""

    signature: tuple[str, ...]
    members: tuple[str, ...]
    gains: tuple[Score, ...]  # the members' scores, best first

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Row:
    coeffs: tuple[int, ...]
    low: int
    high: int | None

    @cached_property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """``(index, coefficient)`` for every non-zero coefficient."""
        return tuple((i, c) for i, c in enumerate(self.coeffs) if c)

    @cached_property
    def every(self) -> Callable[[Sequence], tuple]:
        """Picks the items at the non-zero coefficients out of a sequence."""
        return _picker(tuple(i for i, _ in self.terms))

    @cached_property
    def plus(self) -> Callable[[Sequence], tuple]:
        """Picks the items at the +1 coefficients out of a sequence."""
        return _picker(tuple(i for i, c in enumerate(self.coeffs) if c > 0))

    @cached_property
    def minus(self) -> Callable[[Sequence], tuple]:
        """Picks the items at the -1 coefficients out of a sequence."""
        return _picker(tuple(i for i, c in enumerate(self.coeffs) if c < 0))


def _picker(indices: tuple[int, ...]) -> Callable[[Sequence], tuple]:
    """``itemgetter`` that returns a tuple for any number of indices."""
    if len(indices) == 1:
        (index,) = indices
        return lambda seq: (seq[index],)
    return itemgetter(*indices) if indices else lambda seq: ()


def compute_regions(
    candidates: Iterable[str],
    constraints: ConstraintSet,
    scores: Mapping[str, Score],
) -> tuple[Region, ...]:
    """Regions sorted by signature; members best first, ties to the
    lexicographically smaller name.  A signature keeps only the labels
    some constraint names: the others cannot tell two candidates apart."""
    labeling = constraints.labeling
    used = {interval.label for interval in constraints.intervals}
    for dominance in constraints.dominances:
        used.update((dominance.over, dominance.under))
    buckets: dict[tuple[str, ...], list[str]] = {}
    for name in sorted(set(candidates)):
        signature = tuple(g for g in labeling.labels_of(name) if g in used)
        buckets.setdefault(signature, []).append(name)
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
    rows = [Row((1,) * len(regions), k, k)]
    for interval in constraints.intervals:
        coeffs = tuple(
            1 if interval.label in region.signature else 0 for region in regions
        )
        rows.append(Row(coeffs, interval.lower, interval.upper))
    for dominance in constraints.dominances:
        coeffs = tuple(
            (1 if dominance.over in region.signature else 0)
            - (1 if dominance.under in region.signature else 0)
            for region in regions
        )
        rows.append(Row(coeffs, 0, None))
    return tuple(rows)


def _propagate(
    rows: tuple[Row, ...],
    lows: list[int],
    highs: list[int],
    first: tuple[Row, ...] | None = None,
) -> bool:
    """Tighten count bounds to a fixpoint; False when a row is impossible.

    When the bounds were a fixpoint before a few counts changed, ``first``
    may name the rows over those counts: no other row can tighten
    anything until one of them does."""
    pending = rows if first is None else first
    while pending:
        changed = False
        widths = list(map(sub, highs, lows))
        for row in pending:
            spans = row.every(widths)
            floor = sum(row.plus(lows)) - sum(row.minus(highs))
            ceiling = floor + sum(spans)
            # how far the row's sum may fall from its ceiling, and rise
            # from its floor; an index whose range is no wider than both
            # cannot be tightened by this row
            room_low = ceiling - row.low
            if row.high is None:
                room_high = None
                margin = room_low
            else:
                room_high = row.high - floor
                if room_high < 0:
                    return False
                margin = min(room_high, room_low)
            if room_low < 0:
                return False
            if max(spans, default=0) <= margin:
                continue
            # both rooms are non-negative, so no low passes its high
            for index, coeff in row.terms:
                width = highs[index] - lows[index]
                if width <= margin:
                    continue
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
                widths[index] = highs[index] - lows[index]
            changed = True
        pending = rows if changed else ()
    return True


def solve_region_ip(
    candidates: Iterable[str],
    k: int,
    constraints: ConstraintSet,
    scores: Mapping[str, Score],
) -> SolveResult:
    """Feasible committee with the highest sum of ``scores``, which may be
    any per-candidate weights, such as a leximax order's; ties go to the
    lexicographically smallest committee.

    The committee is not re-checked here: ``solve_instance`` verifies every
    optimal result once, so direct callers get it unverified."""
    packed = pack(scores)
    regions = compute_regions(candidates, constraints, packed)
    rows = build_rows(regions, k, constraints)
    count = len(regions)
    order = sorted(range(count), key=lambda i: regions[i].gains[0], reverse=True)
    touching = [tuple(row for row in rows if row.coeffs[i]) for i in range(count)]
    stats = {"regions": count, "nodes": 0, "leaves": 0}
    best: int | None = None

    # depth-first, highest count first; a node waits with its parent's
    # bounds and the count it fixes, and copies the bounds when reached
    pending = [(0, [0] * count, [region.size for region in regions], None, 0)]
    while pending:
        position, lows, highs, fixed, value = pending.pop()
        first = None
        if fixed is not None:
            lows, highs = lows.copy(), highs.copy()
            lows[fixed] = highs[fixed] = value
            first = touching[fixed]
        stats["nodes"] += 1
        if not _propagate(rows, lows, highs, first):
            continue
        # the counts' best members, plus the best of what else fits
        bound = 0
        extras: list[int] = []
        for region, low, high in zip(regions, lows, highs):
            bound += sum(region.gains[:low])
            extras.extend(region.gains[low:high])
        extras.sort(reverse=True)
        bound += sum(extras[: k - sum(lows)])
        if best is not None and bound <= best:
            continue
        if position == count:
            stats["leaves"] += 1
            best = bound
            continue
        index = order[position]
        pending.extend(
            (position + 1, lows, highs, index, value)
            for value in range(lows[index], highs[index] + 1)
        )

    if best is None:
        return SolveResult(
            status="infeasible",
            committee=(),
            score=None,
            solver="region",
            reason="no size-k committee satisfies the constraints",
            stats=dict(stats),
        )
    committee = unpack(best, packed)
    return SolveResult(
        status="optimal",
        committee=committee,
        score=sum(scores[name] for name in committee),
        solver="region",
        stats=dict(stats),
    )
