"""Tree solver for disjoint labels whose dominance relation is tree-like.

Dominance cycles force equal counts, so labels collapse into forest nodes.
Each node gets a table indexed by committee slots used in its subtree and
by the count ceiling its parent imposes.  Interval upper bounds shrink a
label's usable pool to its best members, and lower bounds become count
floors: a node's own count runs from its label's effective floor, never
from zero.  Floors flow up the dominance closure, so a parent's count never
caps a child below the child's floor.

A table cell is one int, ``(key << m) + mask``: the committee's weight sum,
scaled to an integer by the LCM of the weights' denominators, shifted past
a bit mask of its members, where the i-th smallest of m candidate names is
bit ``1 << (m - 1 - i)``.  Disjoint committees join by adding their cells,
since their masks share no bit.  The committees in one cell all have the
same size, and among those a larger mask is exactly a lexicographically
smaller sorted committee, so comparing cells as ints compares keys first
and breaks ties toward the smallest committee, for negative keys too.  The
committee itself is built once, from the winning cell's mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .constraints import ConstraintSet, DominanceForest
from .errors import ContractViolation
from .orders import WeightOrder, best_singletons
from .result import SolveResult

# None marks a cell no committee reaches
Grid = list[list[int | None]]


@dataclass(frozen=True)
class Preprocessed:
    """Per-label pools and bounds after folding the interval constraints
    through the dominance closure."""

    pools: dict[str, tuple[str, ...]]
    lows: dict[str, int]
    highs: dict[str, int]
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
    keeps only its best ``high`` members.
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
    spare = sorted(set(universe) - labeling.labeled)
    unlabeled = best_singletons(order, spare, min(k, len(spare)))
    return Preprocessed(
        pools=pools,
        lows=eff_low,
        highs=eff_high,
        unlabeled=unlabeled,
        reason=reason,
    )


def _own_prefixes(
    packed: Mapping[str, int], pools: list[tuple[str, ...]], limit: int
) -> list[int]:
    # cell r holds the best r members of every pool at once
    cells = [0]
    depth = min((len(pool) for pool in pools), default=0)
    for level in range(min(depth, limit)):
        cell = cells[-1]
        for pool in pools:
            cell += packed[pool[level]]
        cells.append(cell)
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
        grid[0] = [0] * (k + 1)
        return grid
    grid = tables[0]
    for table in tables[1:]:
        merged = _new_grid(k)
        counter["cells"] += (k + 1) * (k + 1)
        for cap in range(k + 1):
            for size in range(k + 1):
                best: int | None = None
                for part in range(size + 1):
                    left = grid[size - part][cap]
                    right = table[part][cap]
                    if left is None or right is None:
                        continue
                    counter["joins"] += 1
                    cell = left + right
                    if best is None or cell > best:
                        best = cell
                merged[size][cap] = best
        grid = merged
    return grid


def _node_table(
    own: list[int],
    width: int,
    low: int,
    combined: Grid,
    k: int,
    counter: dict[str, int],
) -> Grid:
    """grid[size][cap]: best subtree pick using exactly size slots with the
    node's own per-label count between low and cap."""
    grid = _new_grid(k)
    counter["tables"] += 1
    counter["cells"] += (k + 1) * (k + 1)
    for cap in range(k + 1):
        top = min(cap, len(own) - 1)
        for size in range(k + 1):
            best: int | None = None
            for count in range(low, min(top, size // width) + 1):
                sub = combined[size - count * width][count]
                if sub is None:
                    continue
                counter["joins"] += 1
                cell = own[count] + sub
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
    m = len(names)
    bits = {name: 1 << (m - 1 - i) for i, name in enumerate(names)}
    weights = order.weights
    scale = math.lcm(*(weights[name].denominator for name in names))
    packed = {name: (int(weights[name] * scale) << m) + bits[name] for name in names}

    tables: dict[int, Grid] = {}
    pending = [(root, False) for root in forest.roots]
    while pending:
        node, expanded = pending.pop()
        if not expanded:
            pending.append((node, True))
            pending.extend((child, False) for child in forest.children[node])
            continue
        labels = forest.nodes[node]
        own = _own_prefixes(packed, [pre.pools[name] for name in labels], k)
        combined = _combine_children(
            [tables.pop(child) for child in forest.children[node]], k, counter
        )
        # a dominance cycle gives all its labels the same floor
        low = pre.lows[labels[0]]
        tables[node] = _node_table(own, len(labels), low, combined, k, counter)

    top_tables = [tables[root] for root in forest.roots]
    if pre.unlabeled:
        own = _own_prefixes(packed, [pre.unlabeled], k)
        empty = _combine_children([], k, counter)
        top_tables.append(_node_table(own, 1, 0, empty, k, counter))
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
    committee = tuple(name for name in names if cell & bits[name])
    return SolveResult(
        status="optimal",
        committee=committee,
        score=order.key_of(committee),
        solver="dp",
        stats=dict(counter),
    )
