"""Tree solver for disjoint labels whose dominance relation is tree-like.

Dominance cycles force equal counts, so labels collapse into forest nodes.
Interval upper bounds shrink a label's usable pool to its best members, and
lower bounds become count floors: a node's own count runs from its label's
effective floor, never from zero.  Each node's table holds one column per
own count c, from 0 to its pool depth; column c maps a number of committee
slots used in the subtree to the best pick with the node's own count
between its floor and c.  A parent with own count c reads each child's
column min(c, child depth); floors flow up the dominance closure, so c is
never below a child's floor.  Count c starts from the node's own pick and
folds in each child's column by a max-plus convolution over sizes, so every
merge stops at the seats the own pick leaves.  A leaf (one label, no
children) keeps no table, as its column is concave: a parent merges all its
leaves by one sort of their members, and so does the answer for the leaf
roots and the unlabeled pool before it convolves in every other root's last
column and reads size k.  ``joins`` and ``cells`` count convolutions only.

A cell is one int, the sum of its members' ``orders.pack``-ed weights, so
disjoint committees join by adding their cells and comparing cells as ints
compares keys first and breaks ties toward the smallest committee.  The
committee is decoded once, from the winning cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .constraints import ConstraintSet, DominanceForest
from .elections import Score
from .errors import ContractViolation
from .orders import best_singletons, pack, unpack
from .result import SolveResult, outcome

# size -> best packed cell of that many members; None where none fits
Column = list[int | None]


@dataclass(frozen=True)
class Preprocessed:
    """Per-label pools, cut to their upper bounds, and lower bounds after
    folding the interval constraints through the dominance closure."""

    pools: dict[str, tuple[str, ...]]
    lows: dict[str, int]
    unlabeled: tuple[str, ...]
    reason: str | None = None


def preprocess_intervals(
    candidates: Iterable[str],
    k: int,
    constraints: ConstraintSet,
    packed: Mapping[str, int],
) -> Preprocessed:
    """Fold interval bounds through the dominance closure and prune pools.

    A dominated label can never out-count a dominating one, so upper
    bounds flow down the closure and lower bounds flow up.  Each label
    keeps only its best ``high`` members under the ``pack``-ed weights.
    """
    labeling = constraints.labeling
    universe = set(candidates)
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
            members = labeling.members(name) & universe
            kept = best_singletons(packed, members, min(eff_high[name], len(members)))
            pools[name] = kept
            if eff_low[name] > len(kept):
                reason = (
                    f"label {name!r}: lower bound {eff_low[name]} exceeds its "
                    f"{len(kept)} usable members"
                )
                break
    spare = universe - labeling.labeled
    unlabeled = best_singletons(packed, spare, min(k, len(spare)))
    return Preprocessed(
        pools=pools,
        lows=eff_low,
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


def _convolve(
    left: Column, right: Column, out: Column, k: int, counter: dict[str, int]
) -> Column:
    """Max-plus convolution over sizes up to k: raise out[i + j] to
    left[i] + right[j] wherever both exist, and return out."""
    top = min(k, len(left) + len(right) - 2)
    out.extend([None] * (top + 1 - len(out)))
    joins = 0
    for i, a in enumerate(left[: top + 1]):
        if a is None:
            continue
        for j, b in enumerate(right[: top + 1 - i], i):
            if b is None:
                continue
            joins += 1
            cell = a + b
            best = out[j]
            if best is None or cell > best:
                out[j] = cell
    counter["joins"] += joins
    counter["cells"] += len(out)
    return out


def _leaf_column(leaves: list[tuple[list[int], int]], cap: int, k: int) -> Column:
    """Best picks from several leaves at once, each taking from its floor to
    min(cap, its depth) members, up to size k; [] when the floors pass k.
    Exact as a leaf's packed values are distinct and fall, so any best set
    of further members is a prefix of every leaf's."""
    base = size = 0
    steps: list[int] = []
    for own, low in leaves:
        base += own[low]
        size += low
        steps.extend(b - a for a, b in zip(own[low:cap], own[low + 1 : cap + 1]))
    if size > k:
        return []
    steps.sort(reverse=True)
    column: Column = [None] * size + [base]
    for step in steps[: k - size]:
        base += step
        column.append(base)
    return column


def _node_table(
    own: list[int],
    width: int,
    low: int,
    leaves: list[tuple[list[int], int]],
    children: list[list[Column]],
    k: int,
    counter: dict[str, int],
) -> list[Column]:
    """One column per own count c from 0 to the node's depth, len(own) - 1.

    Column c is column c - 1 raised by the picks whose own count is exactly
    c, a running max over counts from the floor low; columns below it are
    empty.  Count c starts from its own pick and folds in each child's
    column min(c, child depth), then one ``_leaf_column`` of all leaves.
    """
    table: list[Column] = [[]] * low
    column: Column = []
    for count in range(low, len(own)):
        parts = [child[min(count, len(child) - 1)] for child in children]
        if leaves:
            parts.append(_leaf_column(leaves, count, k))
        sub: Column = [None] * (count * width) + [own[count]]
        *rest, last = parts or [[0]]
        for part in rest:
            sub = _convolve(sub, part, [], k, counter)
        column = _convolve(sub, last, list(column), k, counter)
        table.append(column)
    return table


def solve_tree(
    candidates: Iterable[str],
    k: int,
    constraints: ConstraintSet,
    weights: Mapping[str, Score],
) -> SolveResult:
    """Feasible committee with the highest sum of ``weights``, ties to the
    lexicographically smallest, or an infeasibility reason.

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
    packed = pack(weights)
    pre = preprocess_intervals(names, k, constraints, packed)
    counter = {"joins": 0, "tables": 0, "cells": 0}
    if pre.reason is not None:
        return outcome("dp", weights, None, counter, pre.reason)
    tables: dict[int, list[Column]] = {}
    leaves: dict[int, tuple[list[int], int]] = {}
    pending = [(root, False) for root in forest.roots]
    while pending:
        node, expanded = pending.pop()
        if not expanded:
            pending.append((node, True))
            pending.extend((child, False) for child in forest.children[node])
            continue
        counter["tables"] += 1
        labels = forest.nodes[node]
        width = len(labels)
        own = _own_prefixes(packed, [pre.pools[name] for name in labels], k // width)
        # a dominance cycle gives all its labels the same floor
        low = pre.lows[labels[0]]
        kids = forest.children[node]
        if width == 1 and not kids:
            leaves[node] = (own, low)
            continue
        below = [leaves.pop(child) for child in kids if child in leaves]
        inner = [tables.pop(child) for child in kids if child in tables]
        tables[node] = _node_table(own, width, low, below, inner, k, counter)

    tops = list(leaves.values())
    if pre.unlabeled:
        counter["tables"] += 1
        tops.append((_own_prefixes(packed, [pre.unlabeled], k), 0))
    final = _leaf_column(tops, k, k)
    for table in tables.values():
        final = _convolve(final, table[-1], [], k, counter)
    cell = final[k] if len(final) > k else None
    committee = None if cell is None else unpack(cell, packed)
    return outcome("dp", weights, committee, counter)
