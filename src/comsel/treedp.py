"""Tree solver for disjoint labels whose dominance relation is tree-like.

Dominance cycles force equal counts, so labels collapse into forest nodes.
Each node gets a table indexed by committee slots used in its subtree and
by the count ceiling its parent imposes.  Interval upper bounds shrink a
label's usable pool to its best members; lower bounds become an obligatory
candidate set whose weights are lifted above any base-key gap, and the
solve is declared infeasible when the winner still leaves an obligatory
candidate out.  A table cell holds a pair ``(key, mask)``: the
committee's weight sum and a bit mask of its members, where the i-th
smallest of m candidate names is bit ``1 << (m - 1 - i)``.  The
committees in one cell all have the same size, and among those a larger
mask is exactly a lexicographically smaller sorted committee, so comparing
cells as tuples breaks ties toward the smallest committee.  The committee
itself is built once, from the winning cell's mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .constraints import ConstraintSet, DominanceForest
from .elections import Score
from .errors import ContractViolation
from .orders import ObligatoryFirstOrder, WeightOrder, best_singletons
from .result import SolveResult

# (weight sum, member mask); None marks a cell no committee reaches
Cell = tuple[Score, int]
Grid = list[list[Cell | None]]


@dataclass(frozen=True)
class Preprocessed:
    """Per-label pools and bounds after folding the interval constraints
    through the dominance closure."""

    pools: dict[str, tuple[str, ...]]
    lows: dict[str, int]
    highs: dict[str, int]
    obligatory: frozenset[str]
    unlabeled: tuple[str, ...]
    reason: str | None = None


def preprocess_intervals(
    candidates: Iterable[str],
    k: int,
    constraints: ConstraintSet,
    order: WeightOrder,
) -> Preprocessed:
    """Fold interval bounds through the dominance closure and prune pools.

    A dominated label can never out-count a dominating one, so upper
    bounds flow down the closure and lower bounds flow up.  Each label
    keeps only its best ``high`` members; its best ``low`` members become
    obligatory.
    """
    labeling = constraints.labeling
    universe = sorted(set(candidates))
    lows = {name: 0 for name in labeling.names}
    highs = {
        name: min(k, len(labeling.members(name))) for name in labeling.names
    }
    for interval in constraints.intervals:
        lows[interval.label] = max(lows[interval.label], interval.lower)
        highs[interval.label] = min(highs[interval.label], interval.upper)
    reach = constraints.reach
    eff_low = dict(lows)
    eff_high = dict(highs)
    for name in labeling.names:
        for below in reach[name]:
            eff_high[below] = min(eff_high[below], highs[name])
            eff_low[name] = max(eff_low[name], lows[below])
    reason = None
    for name in labeling.names:
        if eff_low[name] > eff_high[name]:
            reason = (
                f"label {name!r}: lower bound {eff_low[name]} exceeds "
                f"what the upper bounds allow ({eff_high[name]})"
            )
            break
    pools: dict[str, tuple[str, ...]] = {}
    obligatory: set[str] = set()
    if reason is None:
        for name in labeling.names:
            members = sorted(labeling.members(name) & set(universe))
            kept = best_singletons(order, members, min(eff_high[name], len(members)))
            pools[name] = kept
            if eff_low[name] > len(kept):
                reason = (
                    f"label {name!r}: lower bound {eff_low[name]} exceeds its "
                    f"{len(kept)} usable members"
                )
                break
            obligatory.update(kept[: eff_low[name]])
    spare = sorted(set(universe) - labeling.labeled)
    unlabeled = best_singletons(order, spare, min(k, len(spare)))
    return Preprocessed(
        pools=pools,
        lows=eff_low,
        highs=eff_high,
        obligatory=frozenset(obligatory),
        unlabeled=unlabeled,
        reason=reason,
    )


def _own_prefixes(
    weights: Mapping[str, Score],
    pools: list[tuple[str, ...]],
    limit: int,
    bits: Mapping[str, int],
) -> list[Cell]:
    # cell r holds the best r members of every pool at once
    cells: list[Cell] = [(0, 0)]
    depth = min((len(pool) for pool in pools), default=0)
    for level in range(min(depth, limit)):
        key, mask = cells[-1]
        for pool in pools:
            name = pool[level]
            key += weights[name]
            mask += bits[name]
        cells.append((key, mask))
    return cells


def _new_grid(k: int) -> Grid:
    return [[None] * (k + 1) for _ in range(k + 1)]


def _combine_children(
    tables: list[Grid], k: int, counter: dict[str, int]
) -> Grid:
    """Best joint use of the child subtrees; grid[size][cap] caps every
    child's own count at cap."""
    if not tables:
        grid = _new_grid(k)
        for cap in range(k + 1):
            grid[0][cap] = (0, 0)
        return grid
    grid = [row[:] for row in tables[0]]
    for table in tables[1:]:
        merged = _new_grid(k)
        counter["cells"] += (k + 1) * (k + 1)
        for cap in range(k + 1):
            for size in range(k + 1):
                best: Cell | None = None
                for part in range(size + 1):
                    left = grid[size - part][cap]
                    right = table[part][cap]
                    if left is None or right is None:
                        continue
                    counter["joins"] += 1
                    cell = (left[0] + right[0], left[1] + right[1])
                    if best is None or cell > best:
                        best = cell
                merged[size][cap] = best
        grid = merged
    return grid


def _node_table(
    own: list[Cell],
    width: int,
    combined: Grid,
    k: int,
    counter: dict[str, int],
) -> Grid:
    """grid[size][cap]: best subtree pick using exactly size slots with the
    node's own per-label count at most cap."""
    grid = _new_grid(k)
    counter["tables"] += 1
    counter["cells"] += (k + 1) * (k + 1)
    for cap in range(k + 1):
        top = min(cap, len(own) - 1)
        for size in range(k + 1):
            best: Cell | None = None
            for count in range(min(top, size // width) + 1):
                sub = combined[size - count * width][count]
                if sub is None:
                    continue
                counter["joins"] += 1
                key, mask = own[count]
                cell = (key + sub[0], mask + sub[1])
                if best is None or cell > best:
                    best = cell
            grid[size][cap] = best
    return grid


def solve_tree(
    candidates: Iterable[str],
    k: int,
    constraints: ConstraintSet,
    order: WeightOrder,
) -> SolveResult:
    """Optimal feasible committee, or an infeasibility reason.

    Requires disjoint labels and a tree-like dominance relation; either
    failing raises instead of returning a wrong answer.  The committee is
    not re-checked here: ``solve_instance`` verifies every optimal result
    once, so direct callers get it unverified.
    """
    labeling = constraints.labeling
    if not labeling.is_disjoint:
        raise ContractViolation("the tree solver needs disjoint labels")
    forest = DominanceForest.build(constraints)
    names = sorted(set(candidates))
    bits = {name: 1 << (len(names) - 1 - i) for i, name in enumerate(names)}
    pre = preprocess_intervals(names, k, constraints, order)
    counter = {"joins": 0, "tables": 0, "cells": 0}
    if pre.reason is not None:
        return SolveResult(
            status="infeasible",
            committee=(),
            score=None,
            solver="dp",
            reason=pre.reason,
            stats=dict(counter),
        )
    weights = ObligatoryFirstOrder(order, pre.obligatory).weights

    tables: dict[int, Grid] = {}
    pending = [(root, False) for root in forest.roots]
    while pending:
        node, expanded = pending.pop()
        if not expanded:
            pending.append((node, True))
            pending.extend((child, False) for child in forest.children[node])
            continue
        pools = [pre.pools[name] for name in forest.nodes[node]]
        own = _own_prefixes(weights, pools, k, bits)
        combined = _combine_children(
            [tables.pop(child) for child in forest.children[node]], k, counter
        )
        tables[node] = _node_table(own, len(pools), combined, k, counter)

    top_tables = [tables[root] for root in forest.roots]
    if pre.unlabeled:
        own = _own_prefixes(weights, [pre.unlabeled], k, bits)
        empty = _combine_children([], k, counter)
        top_tables.append(_node_table(own, 1, empty, k, counter))
    final = _combine_children(top_tables, k, counter)
    cell = final[k][k]
    if cell is None:
        return SolveResult(
            status="infeasible",
            committee=(),
            score=None,
            solver="dp",
            reason="no size-k committee satisfies the constraints",
            stats=dict(counter),
        )
    committee = tuple(name for name in names if cell[1] & bits[name])
    if not pre.obligatory <= frozenset(committee):
        return SolveResult(
            status="infeasible",
            committee=(),
            score=None,
            solver="dp",
            reason="interval lower bounds cannot all be met within k seats",
            stats=dict(counter),
        )
    return SolveResult(
        status="optimal",
        committee=committee,
        score=order.key_of(committee),
        solver="dp",
        stats=dict(counter),
    )
