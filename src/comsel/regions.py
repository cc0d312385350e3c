"""Branch-and-bound solver for score orders under arbitrary constraints.

Candidates sharing the same set of labels are interchangeable up to score,
so the search runs over how many seats each such region gets, not over
individual candidates.  Interval and dominance constraints become rows
with coefficients in {-1, 0, 1} over the region counts, plus one row that
pins the committee size.  Bounds on the counts are tightened to a fixpoint
at every search node, and a node is abandoned when even the most generous
completion cannot beat the incumbent.  Labels may overlap and dominance
may form any digraph; the price is exponential worst-case search, kept in
check by the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .constraints import ConstraintSet
from .elections import Score
from .result import SolveResult


@dataclass(frozen=True)
class Region:
    """All candidates carrying exactly the same labels."""

    signature: tuple[str, ...]
    members: tuple[str, ...]
    prefix: tuple[Score, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def marginal(self, position: int) -> Score:
        """Score gained by the member at a 0-based position."""
        return self.prefix[position + 1] - self.prefix[position]


@dataclass(frozen=True)
class Row:
    coeffs: tuple[int, ...]
    low: int
    high: int | None


def compute_regions(
    candidates: Iterable[str],
    constraints: ConstraintSet,
    scores: Mapping[str, Score],
) -> tuple[Region, ...]:
    """Regions sorted by signature; members best first, ties to the
    lexicographically smaller name."""
    labeling = constraints.labeling
    buckets: dict[tuple[str, ...], list[str]] = {}
    for name in sorted(set(candidates)):
        buckets.setdefault(labeling.labels_of(name), []).append(name)
    regions = []
    for signature in sorted(buckets):
        members = sorted(buckets[signature], key=lambda c: (-scores[c], c))
        running: Score = Fraction(0)
        prefix: list[Score] = [running]
        for name in members:
            running = running + scores[name]
            prefix.append(running)
        regions.append(Region(signature, tuple(members), tuple(prefix)))
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
    rows: tuple[Row, ...], lows: list[int], highs: list[int]
) -> bool:
    """Tighten count bounds to a fixpoint; False when a row is impossible."""
    changed = True
    while changed:
        changed = False
        for row in rows:
            floor = 0
            ceiling = 0
            for coeff, low, high in zip(row.coeffs, lows, highs):
                if coeff > 0:
                    floor += low
                    ceiling += high
                elif coeff < 0:
                    floor -= high
                    ceiling -= low
            if row.high is not None and floor > row.high:
                return False
            if ceiling < row.low:
                return False
            for index, coeff in enumerate(row.coeffs):
                if coeff > 0:
                    if row.high is not None:
                        slack = row.high - floor + lows[index]
                        if slack < highs[index]:
                            highs[index] = slack
                            changed = True
                    need = row.low - ceiling + highs[index]
                    if need > lows[index]:
                        lows[index] = need
                        changed = True
                elif coeff < 0:
                    if row.high is not None:
                        need = floor + highs[index] - row.high
                        if need > lows[index]:
                            lows[index] = need
                            changed = True
                    slack = ceiling + lows[index] - row.low
                    if slack < highs[index]:
                        highs[index] = slack
                        changed = True
                if lows[index] > highs[index]:
                    return False
    return True


def solve_region_ip(
    candidates: Iterable[str],
    k: int,
    constraints: ConstraintSet,
    scores: Mapping[str, Score],
) -> SolveResult:
    """Highest-scoring feasible committee; ties go to the
    lexicographically smallest committee.

    The committee is not re-checked here: ``solve_instance`` verifies every
    optimal result once, so direct callers get it unverified."""
    regions = compute_regions(candidates, constraints, scores)
    rows = build_rows(regions, k, constraints)
    count = len(regions)
    order = sorted(
        range(count),
        key=lambda i: (-regions[i].prefix[1] if regions[i].size else Fraction(0),
                       regions[i].signature),
    )
    stats = {"regions": count, "nodes": 0, "leaves": 0}
    best_committee: tuple[str, ...] | None = None
    best_score: Score | None = None

    def materialise(lows: list[int]) -> tuple[str, ...]:
        chosen: list[str] = []
        for region, taken in zip(regions, lows):
            chosen.extend(region.members[:taken])
        return tuple(sorted(chosen))

    def search(position: int, lows: list[int], highs: list[int]) -> None:
        nonlocal best_committee, best_score
        stats["nodes"] += 1
        if not _propagate(rows, lows, highs):
            return
        forced: Score = Fraction(0)
        for region, low in zip(regions, lows):
            forced = forced + region.prefix[low]
        budget = k - sum(lows)
        if budget > 0:
            extras: list[Score] = []
            for region, low, high in zip(regions, lows, highs):
                extras.extend(
                    region.marginal(slot) for slot in range(low, high)
                )
            extras.sort(reverse=True)
            bound = forced + sum(extras[:budget], Fraction(0))
        else:
            bound = forced
        if best_score is not None and bound < best_score:
            return
        if position == count:
            stats["leaves"] += 1
            score = forced
            if best_score is None or score > best_score:
                best_score, best_committee = score, materialise(lows)
            elif score == best_score:
                committee = materialise(lows)
                if best_committee is None or committee < best_committee:
                    best_committee = committee
            return
        index = order[position]
        for value in range(highs[index], lows[index] - 1, -1):
            next_lows = lows.copy()
            next_highs = highs.copy()
            next_lows[index] = value
            next_highs[index] = value
            search(position + 1, next_lows, next_highs)

    search(0, [0] * count, [region.size for region in regions])
    if best_committee is None:
        return SolveResult(
            status="infeasible",
            committee=(),
            score=None,
            solver="region",
            reason="no size-k committee satisfies the constraints",
            stats=dict(stats),
        )
    return SolveResult(
        status="optimal",
        committee=best_committee,
        score=best_score,
        solver="region",
        stats=dict(stats),
    )
