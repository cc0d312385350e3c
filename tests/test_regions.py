"""Region decomposition and the bounded count search."""

import bisect
import copy
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

from comsel import (
    ConstraintSet,
    Dominance,
    Interval,
    check_committee,
    gen_random,
    solve_bruteforce,
    solve_region_ip,
)
from comsel.cli import main, parse_instance
from comsel.instances import StvRule, WeaklySeparableRule
from comsel.lp import Simplex
from comsel.orders import pack
from comsel.regions import _LagrangianBound, _propagate, build_rows, compute_regions
from comsel.solve import build_order

SCORES = {"a": 5, "b": 1, "c": 4, "d": 3, "e": 2}


def test_regions_split_on_exact_label_sets():
    constraints = ConstraintSet.build(
        {"l1": "abc", "l2": "cd"},
        intervals=(Interval("l1", 0, 3), Interval("l2", 0, 2)),
    )
    regions = compute_regions("abcde", constraints, SCORES)
    assert [r.signature for r in regions] == [(), ("l1",), ("l1", "l2"), ("l2",)]
    assert [r.members for r in regions] == [("e",), ("a", "b"), ("c",), ("d",)]


def test_members_sorted_by_score_then_name():
    constraints = ConstraintSet.empty()
    scores = {"a": 1, "b": 3, "c": 3, "d": 0}
    (region,) = compute_regions("abcd", constraints, scores)
    assert region.members == ("b", "c", "a", "d")
    assert region.gains == (3, 3, 1, 0)


def test_disjoint_labels_give_one_region_per_label():
    constraints = ConstraintSet.build(
        {"l1": "ab", "l2": "cd"}, dominances=(Dominance("l1", "l2"),)
    )
    regions = compute_regions("abcde", constraints, SCORES)
    assert [r.signature for r in regions] == [(), ("l1",), ("l2",)]


def test_labels_no_constraint_names_do_not_split_regions():
    constraints = ConstraintSet.build({"l1": "abc", "l2": "cd"})
    (region,) = compute_regions("abcde", constraints, SCORES)
    assert region.signature == ()
    result = solve_region_ip("abcde", 2, constraints, SCORES)
    plain = solve_region_ip("abcde", 2, ConstraintSet.empty(), SCORES)
    assert result.stats["regions"] == 1
    assert result.committee == plain.committee == ("a", "c")


def solve_half_labels(tmp_path, capsys, bounds):
    """Solve 1 500 candidates under 12 labels, each a random half of them,
    through the CLI, with the interval ``bounds`` on every label (none when
    None); return the instance document."""
    rng = random.Random(12)
    candidates = [f"c{i:04d}" for i in range(1500)]
    labels = {
        f"u{j:02d}": sorted(c for c in candidates if rng.random() < 0.5)
        for j in range(12)
    }
    doc = {
        "candidates": candidates,
        "voters": [rng.sample(candidates, len(candidates))],
        "k": 10,
        "labels": labels,
        "constraints": [
            {"type": "interval", "label": name, "min": bounds[0], "max": bounds[1]}
            for name in (labels if bounds else ())
        ],
        "rule": {"type": "weakly_separable", "gamma": "borda"},
        "order": "score",
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["solver"] == "region"
    # no constraint binds, so the top 10 of the one ranking win
    assert out["committee"] == sorted(doc["voters"][0][:10])
    return doc


def test_many_unconstrained_overlapping_labels_solve(tmp_path, capsys):
    # the label sets alone would split the candidates into over a thousand
    # regions
    solve_half_labels(tmp_path, capsys, None)


def test_search_depth_is_not_bounded_by_the_call_stack(tmp_path, capsys):
    # constrained, the labels do split them into over a thousand regions,
    # one search level each
    doc = solve_half_labels(tmp_path, capsys, (0, 10))
    constraints = parse_instance(json.dumps(doc)).constraints
    scores = dict.fromkeys(doc["candidates"], 0)
    assert len(compute_regions(doc["candidates"], constraints, scores)) > 1000


def test_rows_encode_size_intervals_and_dominances():
    constraints = ConstraintSet.build(
        {"l1": "ab", "l2": "cd"},
        intervals=(Interval("l1", 1, 2),),
        dominances=(Dominance("l1", "l2"),),
    )
    rows = build_rows(compute_regions("abcde", constraints, SCORES), 3, constraints)
    size_row, interval_row, dominance_row = rows
    # regions: unlabeled, l1, l2
    assert size_row.terms == ((0, 1), (1, 1), (2, 1))
    assert (size_row.low, size_row.high) == (3, 3)
    assert interval_row.terms == ((1, 1),)
    assert (interval_row.low, interval_row.high) == (1, 2)
    assert dominance_row.terms == ((1, 1), (2, -1))
    assert (dominance_row.low, dominance_row.high) == (0, None)



def _propagated(intervals, k=3):
    constraints = ConstraintSet.build(
        {"l1": "ab", "l2": "cd"},
        intervals=intervals,
        dominances=(Dominance("l1", "l2"),),
    )
    regions = compute_regions("abcde", constraints, SCORES)
    rows = build_rows(regions, k, constraints)
    lows, highs = [0] * len(regions), [r.size for r in regions]
    return _propagate(rows, lows, highs), lows, highs


def test_propagation_chains_interval_dominance_and_size():
    # l1 <= 1 caps l2 through the dominance; the size then fixes every count
    feasible, lows, highs = _propagated((Interval("l1", 0, 1),))
    assert feasible
    assert lows == highs == [1, 1, 1]


def test_propagation_detects_an_impossible_row():
    # l1 = 0 forces l2 = 0, and the unlabeled region alone cannot seat 3
    feasible, _, _ = _propagated((Interval("l1", 0, 0),))
    assert not feasible


def test_propagation_keeps_every_solution_and_stops_at_a_fixpoint():
    # against enumeration of the count vectors in the root box and in every
    # box with one count fixed: a False return leaves no solution behind,
    # a True one leaves a non-empty box that holds every solution, and a
    # second pass moves nothing
    outcomes = set()
    for seed in range(24):
        instance = gen_random(9, 3, 4, 3, "overlapping", "arbitrary", seed=seed)
        scores = dict.fromkeys(instance.profile.candidates, 0)
        regions = compute_regions(
            instance.profile.candidates, instance.constraints, scores
        )
        rows = build_rows(regions, instance.k, instance.constraints)
        sizes = [r.size for r in regions]
        boxes = [([0] * len(regions), sizes)]
        for index, size in enumerate(sizes):
            for value in range(size + 1):
                lows, highs = [0] * len(regions), sizes.copy()
                lows[index] = highs[index] = value
                boxes.append((lows, highs))
        for box_lows, box_highs in boxes:
            solutions = [
                counts
                for counts in itertools.product(
                    *(range(a, b + 1) for a, b in zip(box_lows, box_highs))
                )
                if all(
                    row.low
                    <= sum(c * counts[i] for i, c in row.terms)
                    <= (math.inf if row.high is None else row.high)
                    for row in rows
                )
            ]
            lows, highs = box_lows.copy(), box_highs.copy()
            feasible = _propagate(rows, lows, highs)
            outcomes.add(feasible)
            if not feasible:
                assert solutions == [], (seed, box_lows, box_highs)
                continue
            assert all(a <= b for a, b in zip(lows, highs))
            for counts in solutions:
                assert all(a <= n <= b for n, a, b in zip(counts, lows, highs))
            again = lows.copy(), highs.copy()
            assert _propagate(rows, *again)
            assert again == (lows, highs), (seed, box_lows, box_highs)
    assert outcomes == {True, False}


def test_propagation_caps_counts_at_the_committee_size():
    feasible, lows, highs = _propagated((Interval("l1", 0, 2),), k=1)
    assert feasible
    assert (lows, highs) == ([0, 0, 0], [1, 1, 1])

class TestSolve:
    def test_unconstrained_top_scorers(self):
        result = solve_region_ip("abcde", 2, ConstraintSet.empty(), SCORES)
        assert result.status == "optimal"
        assert result.committee == ("a", "c")
        assert result.score == 9
        assert result.solver == "region"

    def test_overlapping_labels_handled(self):
        constraints = ConstraintSet.build(
            {"l1": "abc", "l2": "cd"},
            intervals=(Interval("l1", 0, 1),),
            dominances=(Dominance("l2", "l1"),),
        )
        result = solve_region_ip("abcde", 2, constraints, SCORES)
        oracle = solve_bruteforce(
            "abcde", 2, constraints, SCORES
        )
        assert result.committee == ("a", "d")
        assert result.committee == oracle.committee
        assert result.score == oracle.score == 8

    def test_lexicographic_tie_breaking(self):
        scores = dict.fromkeys("abcd", 1)
        result = solve_region_ip("abcd", 2, ConstraintSet.empty(), scores)
        assert result.committee == ("a", "b")

    def test_tie_breaking_across_regions(self):
        # both labels offer score-2 members; the lex-smallest mix must win
        constraints = ConstraintSet.build(
            {"x": ("p", "q"), "y": ("m", "n")},
            intervals=(Interval("x", 0, 2), Interval("y", 0, 2)),
        )
        scores = {"p": 2, "q": 2, "m": 2, "n": 2}
        result = solve_region_ip(("p", "q", "m", "n"), 2, constraints, scores)
        oracle = solve_bruteforce(
            ("p", "q", "m", "n"), 2, constraints, scores
        )
        assert result.stats["regions"] == 2
        assert result.committee == oracle.committee == ("m", "n")

    def test_equal_scores_reach_one_leaf(self):
        # every committee of one member from each of three labels ties on
        # score; packed keys still rank them, so the first committee the
        # search completes, the lexicographically smallest, is the last
        names = [f"c{i}" for i in range(12)]
        labels = {f"g{j}": names[2 * j : 2 * j + 2] for j in range(6)}
        constraints = ConstraintSet.build(
            labels, intervals=tuple(Interval(g, 0, 1) for g in labels)
        )
        scores = dict.fromkeys(names, 1)
        result = solve_region_ip(names, 3, constraints, scores)
        oracle = solve_bruteforce(names, 3, constraints, scores)
        assert result.committee == oracle.committee == ("c0", "c10", "c2")
        assert result.stats["leaves"] == 1

    def test_infeasible_when_lower_bounds_exceed_k(self):
        constraints = ConstraintSet.build(
            {"l1": "ab", "l2": "cd"},
            intervals=(Interval("l1", 2, 2), Interval("l2", 2, 2)),
        )
        result = solve_region_ip("abcde", 3, constraints, SCORES)
        assert result.status == "infeasible"
        assert "no size-k committee" in result.reason

    def test_fractional_scores(self):
        scores = {"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(2, 3)}
        result = solve_region_ip("abc", 2, ConstraintSet.empty(), scores)
        assert result.committee == ("a", "c")
        assert result.score == Fraction(7, 6)

    def test_zero_committee(self):
        result = solve_region_ip("abc", 0, ConstraintSet.empty(), SCORES)
        assert result.status == "optimal"
        assert result.committee == ()
        assert result.score == 0

    def test_stats_counters(self):
        result = solve_region_ip("abcde", 2, ConstraintSet.empty(), SCORES)
        assert set(result.stats) == {"regions", "nodes", "leaves", "lp_solves"}
        assert result.stats["regions"] == 1

    def test_agrees_with_oracle_on_overlapping_instances(self):
        from comsel import build_order

        for seed in range(40):
            instance = gen_random(
                num_candidates=9,
                num_voters=5,
                k=3,
                num_labels=3,
                mode="overlapping",
                structure="arbitrary",
                seed=seed,
            )
            scores = build_order(instance)
            result = solve_region_ip(
                instance.profile.candidates,
                instance.profile.k,
                instance.constraints,
                scores,
            )
            oracle = solve_bruteforce(
                instance.profile.candidates,
                instance.profile.k,
                instance.constraints,
                scores,
            )
            assert result.status == oracle.status
            if result.status == "optimal":
                assert result.score == oracle.score
                assert result.committee == oracle.committee


def test_root_lp_proves_infeasibility_in_one_node():
    # propagation and the greedy counts leave the root open; the root
    # LP's certificate of infeasibility, checked exactly, closes it
    instance = gen_random(12, 5, 6, 5, "overlapping", "arbitrary", seed=176)
    candidates, constraints = instance.profile.candidates, instance.constraints
    regions = compute_regions(candidates, constraints, dict.fromkeys(candidates, 0))
    rows = build_rows(regions, instance.k, constraints)
    assert _propagate(rows, [0] * len(regions), [r.size for r in regions])
    order = build_order(instance)
    result = solve_region_ip(candidates, instance.k, constraints, order)
    assert result.status == "infeasible"
    assert result.stats["nodes"] == 1
    assert result.stats["lp_solves"] == 1
    assert solve_bruteforce(candidates, instance.k, constraints, order).status == (
        "infeasible"
    )


def test_lp_counts_that_meet_every_row_become_the_incumbent():
    # the greedy counts break a row, so the root runs its LP (no LP solve
    # would run otherwise); the counts of the LP's Lagrangian meet every row
    # and score its bound, so they become the one incumbent, counted as a
    # leaf, and close the search at the root
    instance = gen_random(12, 5, 5, 5, "overlapping", "arbitrary", seed=384)
    order = build_order(instance)
    args = (instance.profile.candidates, instance.k, instance.constraints)
    result = solve_region_ip(*args, order)
    assert result.stats == {"regions": 12, "nodes": 1, "leaves": 1, "lp_solves": 1}
    assert result.committee == solve_bruteforce(*args, order).committee


def test_lp_at_every_node_agrees_with_the_oracle():
    rules = (
        WeaklySeparableRule("borda"),
        WeaklySeparableRule("sntv"),
        StvRule("simple"),
    )
    solved = 0
    for seed in range(90):
        rule = rules[seed % 3]
        # STV gives a ranking only, so no score order
        kind = ("leximax", "leximin", "score")[seed // 3 % (2 if seed % 3 == 2 else 3)]
        m = 9 + seed % 4
        instance = gen_random(
            m, 5, m // 2, 3 + seed % 2, "overlapping", "arbitrary",
            seed=seed, rule=rule, order_kind=kind,
        )
        order = build_order(instance)
        args = (instance.profile.candidates, instance.k, instance.constraints)
        result = solve_region_ip(*args, order)
        oracle = solve_bruteforce(*args, order)
        assert result.status == oracle.status, seed
        assert result.committee == oracle.committee, seed
        solved += result.stats["lp_solves"]
        # keys past a float's 53 bits reach the LP shifted down
        scaled = {c: w << 80 for c, w in order.items()}
        assert solve_region_ip(*args, scaled).committee == oracle.committee, seed
    assert solved > 90


def test_cut_keys_leave_the_child_order_to_the_greedy_count(monkeypatch):
    # keys past a float's 53 bits reach the LP cut, without their low
    # tiers and ties, so the LP's point must not order the children: no
    # search over such keys reads it, while searches over the same
    # documents' own keys do
    reads = []

    class Watched(list):
        def __getitem__(self, index):
            reads.append(index)
            return super().__getitem__(index)

    solve = Simplex.solve

    def watched(self, lows, highs):
        found = solve(self, lows, highs)
        if found is not None and found[2] is not None:
            found[2].value = Watched(found[2].value)
        return found

    monkeypatch.setattr(Simplex, "solve", watched)
    plain = cut = 0
    for seed in range(30):
        kind = ("leximax", "leximin", "score")[seed % 3]
        instance = gen_random(
            12, 5, 6, 4, "overlapping", "arbitrary", seed=seed, order_kind=kind
        )
        order = build_order(instance)
        args = (instance.profile.candidates, instance.k, instance.constraints)
        reads.clear()
        solve_region_ip(*args, order)
        plain += len(reads)
        reads.clear()
        solve_region_ip(*args, {c: w << 80 for c, w in order.items()})
        cut += len(reads)
    assert plain > 0
    assert cut == 0


class TestLagrangian:
    """The exact Lagrangian bound and Farkas check against the oracle, on
    random boxes over small overlapping pools."""

    @staticmethod
    def pool(seed, sizes=(4, 10), labels=(2, 4), order_kind=None):
        """A random small overlapping pool: its rng, its
        ``_LagrangianBound``, and ``(counts, key)`` for every feasible
        committee, by the oracle."""
        rng = random.Random(seed)
        m = rng.randint(*sizes)
        instance = gen_random(
            m, 5, rng.randint(1, m - 1), rng.randint(*labels), "overlapping",
            "arbitrary", seed=seed, order_kind=order_kind,
        )
        candidates, k = instance.profile.candidates, instance.k
        packed = pack(build_order(instance))
        regions = compute_regions(candidates, instance.constraints, packed)
        rows = build_rows(regions, k, instance.constraints)
        region_of = {name: i for i, r in enumerate(regions) for name in r.members}
        feasible = []
        for committee in itertools.combinations(candidates, k):
            if not check_committee(committee, k, instance.constraints):
                counts = [0] * len(regions)
                for name in committee:
                    counts[region_of[name]] += 1
                feasible.append((counts, sum(packed[name] for name in committee)))
        return rng, _LagrangianBound(regions, rows, len(packed)), feasible

    @staticmethod
    def best_in(feasible, lows, highs):
        """The highest packed sum over the feasible committees whose counts
        lie in the box, or None when there is none."""
        inside = [
            key for counts, key in feasible
            if all(a <= c <= b for c, a, b in zip(counts, lows, highs))
        ]
        return max(inside, default=None)

    @classmethod
    def boxes(cls, seed):
        """The pool's ``_LagrangianBound``, then ``(lows, highs, best)``
        for random boxes, ``best`` the oracle's highest packed sum over
        the feasible committees whose counts lie in the box."""
        rng, bounds, feasible = cls.pool(seed)
        regions = bounds.regions
        boxes = []
        for _ in range(8):
            limits = [sorted(rng.randint(0, r.size) for _ in "ab") for r in regions]
            lows, highs = [a for a, _ in limits], [b for _, b in limits]
            boxes.append((lows, highs, cls.best_in(feasible, lows, highs)))
        return rng, bounds, boxes

    @staticmethod
    def random_multipliers(rng, rows, unit):
        """Integer multipliers of valid sign: at most 0 on rows without an
        upper bound, any sign elsewhere."""
        values = []
        for row in rows:
            value = rng.randint(-3 * unit, 3 * unit)
            values.append(-abs(value) if row.high is None else value)
        return values

    def test_bound_never_cuts_off_the_best_committee(self):
        for seed in range(40):
            rng, bounds, boxes = self.boxes(seed)
            unit = 1 << bounds.m
            for lows, highs, best in boxes:
                if best is None:
                    continue
                for scale in (0, unit, 40 * unit):
                    mu = self.random_multipliers(rng, bounds.rows, scale)
                    assert bounds.lagrangian((True, mu), lows, highs)[0] >= best
                found = bounds.multipliers(lows, highs, bounds.base)
                if found is not None and found[0]:
                    assert bounds.lagrangian(found[:2], lows, highs)[0] >= best

    def test_farkas_check_fires_only_on_empty_boxes(self):
        fired = lp_fired = 0
        for seed in range(40):
            rng, bounds, boxes = self.boxes(seed)
            for lows, highs, best in boxes:
                for scale in (0, 3, 3, 3, 3, 3):
                    mu = self.random_multipliers(rng, bounds.rows, scale)
                    if bounds.lagrangian((False, mu), lows, highs)[0] < 0:
                        assert best is None, seed
                        fired += 1
                found = bounds.multipliers(lows, highs, bounds.base)
                if found is not None and not found[0]:
                    if bounds.lagrangian(found[:2], lows, highs)[0] < 0:
                        assert best is None, seed
                        lp_fired += 1
        assert fired and lp_fired

    @staticmethod
    def lagrangian_at(bounds, mu, counts):
        """The Lagrangian of ``mu = (priced, multipliers)`` at one count
        vector, term by term."""
        priced, values = mu
        total = 0
        if priced:
            total = sum(sum(r.gains[:n]) for r, n in zip(bounds.regions, counts))
        for value, row in zip(values, bounds.rows):
            rhs = row.high if value > 0 else row.low
            total += value * (rhs - sum(c * counts[i] for i, c in row.terms))
        return total

    @staticmethod
    def greedy(regions, lows, highs, k):
        """The reference greedy bound: the best sum over a propagated box
        with only the committee size enforced, and its counts: each
        region's best ``lows`` members, plus the best of what else fits."""
        negated = [tuple(-g for g in region.gains) for region in regions]
        bound = 0
        extras = []
        for region, low, high in zip(regions, lows, highs):
            bound += sum(region.gains[:low])
            extras.extend(region.gains[low:high])
        seats = k - sum(lows)
        if not seats:
            return bound, lows
        extras.sort(reverse=True)
        bound += sum(extras[:seats])
        # packed gains are distinct: a region's count is its gains >= the last taken
        last = -extras[seats - 1]
        return bound, [
            min(max(bisect.bisect_right(neg, last), low), high)
            for neg, low, high in zip(negated, lows, highs)
        ]

    def test_counts_maximise_the_lagrangian_and_the_size_row_is_the_greedy(self):
        # every bound's counts reach its value, and no count vector in the
        # box goes past it; the multipliers of ``greedy`` give the
        # reference greedy bound and counts on every propagated box, the
        # root's among them
        free = 0
        for seed in range(40):
            rng, bounds, boxes = self.boxes(seed)
            unit = 1 << bounds.m
            for lows, highs, _ in boxes:
                box = [range(a, b + 1) for a, b in zip(lows, highs)]
                for priced, scale in ((True, 0), (True, unit), (True, 40 * unit),
                                      (False, 3)):
                    mu = priced, self.random_multipliers(rng, bounds.rows, scale)
                    bound, counts = bounds.lagrangian(mu, lows, highs)
                    assert self.lagrangian_at(bounds, mu, counts) == bound, seed
                    assert all(
                        self.lagrangian_at(bounds, mu, vector) <= bound
                        for vector in itertools.product(*box)
                    ), seed
            root = [0] * len(bounds.regions), [r.size for r in bounds.regions]
            for lows, highs, _ in [(*root, None), *boxes]:
                if not _propagate(bounds.rows, lows, highs):
                    continue
                k = bounds.rows[0].low
                greedy = bounds.lagrangian(bounds.greedy(lows, highs), lows, highs)
                assert greedy == self.greedy(bounds.regions, lows, highs, k), seed
                free += k > sum(lows)
        assert free >= 30

    @staticmethod
    def lp_objective(state, gains):
        """The LP objective at a final state: each count's gains, the last
        unit pro rata."""
        total = 0.0
        for x, row in zip(state.value, gains):
            n = math.floor(x + 1e-9)
            total += sum(row[:n]) + (x - n) * (row[n] if n < len(row) else 0.0)
        return total

    @classmethod
    def walk(cls, seed, order_kind=None):
        """``(bounds, feasible, box, warm, rebased)`` for every child of a
        box, one count fixed and then propagated, solved warm from the box's
        final LP state and from the base; the walk then descends into one
        random feasible child, three levels deep."""
        rng, bounds, feasible = cls.pool(seed, (8, 12), (3, 5), order_kind)
        lows, highs = [0] * len(bounds.regions), [r.size for r in bounds.regions]
        if not _propagate(bounds.rows, lows, highs):
            return
        found = bounds.multipliers(lows, highs, bounds.base)
        level = [] if found is None or not found[0] else [(lows, highs, found[2])]
        for _ in range(3):
            children = []
            for lows, highs, state in level:
                for index, low in enumerate(lows):
                    for value in range(low, highs[index] + 1):
                        box = lows.copy(), highs.copy()
                        box[0][index] = box[1][index] = value
                        if not _propagate(bounds.rows, *box):
                            continue
                        warm = bounds.multipliers(*box, state)
                        rebased = bounds.multipliers(*box, bounds.base)
                        yield bounds, feasible, box, warm, rebased
                        if warm is not None and warm[0]:
                            children.append((*box, warm[2]))
            level = rng.sample(children, min(1, len(children)))

    def test_warm_start_agrees_with_a_solve_from_the_base(self):
        outcomes = []
        for seed in range(60):
            for bounds, feasible, box, warm, rebased in self.walk(seed):
                assert warm is not None and rebased is not None, seed
                assert warm[0] == rebased[0], (seed, box)
                outcomes.append(warm[0])
                if warm[0]:
                    objectives = [
                        self.lp_objective(lp, bounds.keys[1])
                        for lp in (warm[2], rebased[2])
                    ]
                    assert math.isclose(*objectives, abs_tol=1e-6), seed
                    continue
                assert bounds.lagrangian(warm[:2], *box)[0] < 0, seed
                assert self.best_in(feasible, *box) is None, seed
        assert outcomes.count(False) >= 20 and outcomes.count(True) >= 500

    def test_a_restart_leaves_its_state_unchanged(self):
        # a propagated root box solved twice from the base, and one child
        # of it solved twice from the root's final state: the same rounded
        # multipliers both times, and neither state moved
        children = 0
        for seed in range(60):
            _, bounds, _ = self.pool(seed, (8, 12), (3, 5))
            lows, highs = [0] * len(bounds.regions), [r.size for r in bounds.regions]
            if not _propagate(bounds.rows, lows, highs):
                continue
            base = bounds.base
            before = copy.deepcopy(vars(base))
            first, second = (bounds.multipliers(lows, highs, base) for _ in "ab")
            assert first is not None and first[:2] == second[:2], seed
            # the tableau, the values and the basis among the rest
            assert vars(base) == before, seed
            if not first[0]:
                continue
            state = first[2]
            boxes = (
                (index, value)
                for index, low in enumerate(lows)
                for value in range(low, highs[index] + 1)
            )
            for index, value in boxes:
                box = lows.copy(), highs.copy()
                box[0][index] = box[1][index] = value
                if _propagate(bounds.rows, *box) and box != (lows, highs):
                    break
            else:
                continue
            before = copy.deepcopy(vars(state))
            first, second = (bounds.multipliers(*box, state) for _ in "ab")
            assert first is not None and first[:2] == second[:2], seed
            assert vars(state) == before, seed
            children += 1
        assert children >= 20

    @staticmethod
    def dual_objective(duals, rows, lows, highs, gains):
        """The LP's dual objective at the float row multipliers ``duals``:
        ``Σ π_i·rhs_i + Σ_r max over lows[r] <= n <= highs[r] of (G_r(n) -
        (π·A)_r·n)``, ``G_r(n)`` the sum of column r's first n gains."""
        total = 0.0
        prices = [0.0] * len(lows)
        for dual, row in zip(duals, rows):
            if row.high is None:
                if dual > 1e-9:
                    return math.inf  # the row has no upper bound to price
                dual = min(dual, 0.0)
            total += dual * (row.high if dual > 0 else row.low)
            for index, coeff in row.terms:
                prices[index] += coeff * dual
        for price, low, high, row in zip(prices, lows, highs, gains):
            prefix = list(itertools.accumulate(row, initial=0.0))
            total += max(prefix[n] - price * n for n in range(low, high + 1))
        return total

    def test_feasible_solves_end_with_optimal_duals(self):
        # weak duality makes the dual objective at least the LP's value at
        # any feasible point; equality proves both optimal.  The duals are
        # those of the unshifted keys, and the rounded multipliers are
        # them in packed units.  Score pools and leximin pools, whose keys
        # are all negative, put the base's start columns both below and
        # above the boxes it restarts into
        solves = 0
        for order_kind in ("score", "leximin"):
            for seed in range(60):
                for bounds, _, box, warm, rebased in self.walk(seed, order_kind):
                    for found in (warm, rebased):
                        if found is None or not found[0]:
                            continue
                        state = found[2]
                        duals = state.duals()
                        duals[0] += bounds.shifted[0]
                        dual = self.dual_objective(
                            duals, bounds.rows, *box, bounds.keys[1]
                        )
                        primal = self.lp_objective(state, bounds.keys[1])
                        assert math.isclose(dual, primal, abs_tol=1e-6), seed
                        # rounded to 2**-30, then floored to packed units
                        unit = 2 ** (bounds.keys[0] + bounds.m)
                        for mu, pi in zip(found[1], duals):
                            assert abs(mu - pi * unit) <= 1 + unit / 2**30, seed
                        solves += 1
        assert solves >= 1000


def test_a_region_solve_imports_no_numeric_library():
    # the LP is plain Python: scipy or numpy must never become a dependency
    script = (
        "import sys, comsel\n"
        "instance = comsel.gen_random(\n"
        "    12, 5, 6, 5, 'overlapping', 'arbitrary', seed=176)\n"
        "result = comsel.solve_instance(instance, solver='region')\n"
        "assert result.stats['lp_solves'] == 1\n"
        "loaded = sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy'))\n"
        "print(' '.join(loaded))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=60, check=True,
    )
    assert done.stdout.strip() == ""
