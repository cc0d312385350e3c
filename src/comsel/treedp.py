"""Tree solver for disjoint labels whose dominance relation is tree-like.

Dominance cycles force equal counts, so labels collapse into forest nodes.
Each node gets a table indexed by committee slots used in its subtree and
by the count ceiling its parent imposes.  Interval upper bounds shrink a
label's usable pool to its best members; lower bounds become an obligatory
candidate set that the order is rewired to prefer, and the solve is
declared infeasible when the winner still leaves an obligatory candidate
out.  Keys are compared before committees are materialised, so ties fall
to the lexicographically smallest committee without paying for a merge on
every probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .constraints import ConstraintSet, DominanceForest
from .errors import ContractViolation
from .orders import CommitteeOrder, ObligatoryFirstOrder, best_singletons, score_if_score_based
from .result import SolveResult


class _Entry(NamedTuple):
    key: object
    committee: tuple[str, ...]


def _merge_sorted(left: tuple[str, ...], right: tuple[str, ...]) -> tuple[str, ...]:
    if not left:
        return right
    if not right:
        return left
    merged: list[str] = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return tuple(merged)


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
    order: CommitteeOrder,
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
    order: CommitteeOrder, pools: list[tuple[str, ...]], limit: int
) -> list[_Entry]:
    # entry r holds the best r members of every pool at once
    entries = [_Entry(order.empty_key, ())]
    depth = min((len(pool) for pool in pools), default=0)
    for level in range(min(depth, limit)):
        batch = tuple(sorted(pool[level] for pool in pools))
        key = entries[-1].key
        for name in batch:
            key = order.join(key, order.key_of((name,)))
        entries.append(_Entry(key, _merge_sorted(entries[-1].committee, batch)))
    return entries


def _new_grid(k: int) -> list[list[_Entry | None]]:
    return [[None] * (k + 1) for _ in range(k + 1)]


def _combine_children(
    order: CommitteeOrder,
    tables: list[list[list[_Entry | None]]],
    k: int,
    counter: dict[str, int],
) -> list[list[_Entry | None]]:
    """Best joint use of the child subtrees; grid[size][cap] caps every
    child's own count at cap."""
    empty = _Entry(order.empty_key, ())
    if not tables:
        grid = _new_grid(k)
        for cap in range(k + 1):
            grid[0][cap] = empty
        return grid
    grid = [row[:] for row in tables[0]]
    for table in tables[1:]:
        merged = _new_grid(k)
        counter["cells"] += (k + 1) * (k + 1)
        for cap in range(k + 1):
            for size in range(k + 1):
                best: _Entry | None = None
                for part in range(size + 1):
                    left = grid[size - part][cap]
                    right = table[part][cap]
                    if left is None or right is None:
                        continue
                    counter["joins"] += 1
                    key = order.join(left.key, right.key)
                    if best is not None and key < best.key:
                        continue
                    committee = _merge_sorted(left.committee, right.committee)
                    if (
                        best is None
                        or key > best.key
                        or committee < best.committee
                    ):
                        best = _Entry(key, committee)
                merged[size][cap] = best
        grid = merged
    return grid


def _node_table(
    order: CommitteeOrder,
    own: list[_Entry],
    width: int,
    combined: list[list[_Entry | None]],
    k: int,
    counter: dict[str, int],
) -> list[list[_Entry | None]]:
    """grid[size][cap]: best subtree pick using exactly size slots with the
    node's own per-label count at most cap."""
    grid = _new_grid(k)
    counter["tables"] += 1
    counter["cells"] += (k + 1) * (k + 1)
    for cap in range(k + 1):
        top = min(cap, len(own) - 1)
        for size in range(k + 1):
            best: _Entry | None = None
            for count in range(min(top, size // width) + 1):
                sub = combined[size - count * width][count]
                if sub is None:
                    continue
                counter["joins"] += 1
                key = order.join(own[count].key, sub.key)
                if best is not None and key < best.key:
                    continue
                committee = _merge_sorted(own[count].committee, sub.committee)
                if best is None or key > best.key or committee < best.committee:
                    best = _Entry(key, committee)
            grid[size][cap] = best
    return grid


def solve_tree(
    candidates: Iterable[str],
    k: int,
    constraints: ConstraintSet,
    order: CommitteeOrder,
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
    pre = preprocess_intervals(candidates, k, constraints, order)
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
    solve_order: CommitteeOrder = order
    if pre.obligatory:
        solve_order = ObligatoryFirstOrder(order, pre.obligatory)

    tables: dict[int, list[list[_Entry | None]]] = {}
    pending = [(root, False) for root in forest.roots]
    while pending:
        node, expanded = pending.pop()
        if not expanded:
            pending.append((node, True))
            pending.extend((child, False) for child in forest.children[node])
            continue
        pools = [pre.pools[name] for name in forest.nodes[node]]
        own = _own_prefixes(solve_order, pools, k)
        combined = _combine_children(
            solve_order, [tables.pop(child) for child in forest.children[node]], k, counter
        )
        tables[node] = _node_table(
            solve_order, own, len(pools), combined, k, counter
        )

    top_tables = [tables[root] for root in forest.roots]
    if pre.unlabeled:
        own = _own_prefixes(solve_order, [pre.unlabeled], k)
        empty = _combine_children(solve_order, [], k, counter)
        top_tables.append(
            _node_table(solve_order, own, 1, empty, k, counter)
        )
    final = _combine_children(solve_order, top_tables, k, counter)
    entry = final[k][k]
    if entry is None:
        return SolveResult(
            status="infeasible",
            committee=(),
            score=None,
            solver="dp",
            reason="no size-k committee satisfies the constraints",
            stats=dict(counter),
        )
    committee = entry.committee
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
        score=score_if_score_based(order, committee),
        solver="dp",
        stats=dict(counter),
    )
