"""Tree solver: interval preprocessing and the forest dynamic program."""

import pytest

from comsel import (
    ConstraintSet,
    ContractViolation,
    Dominance,
    Interval,
    OracleBudget,
    StvRule,
    WeaklySeparableRule,
    gen_random,
    leximin_weights,
    solve_bruteforce,
    solve_instance,
    solve_tree,
)
from comsel.orders import pack
from comsel.treedp import preprocess_intervals

SCORES = {"a": 5, "b": 1, "c": 4, "d": 3}
CHAIN = ConstraintSet.build(
    {"l1": "ab", "l2": "cd"}, dominances=(Dominance("l1", "l2"),)
)
CLIQUE = ConstraintSet.build(
    {"l1": "ab", "l2": "cd"},
    dominances=(Dominance("l1", "l2"), Dominance("l2", "l1")),
)


class TestPreprocess:
    def test_upper_bounds_flow_down_the_dominance_order(self):
        constraints = ConstraintSet.build(
            {"l1": "ab", "l2": "cd"},
            intervals=(Interval("l1", 0, 1),),
            dominances=(Dominance("l1", "l2"),),
        )
        pre = preprocess_intervals("abcd", 2, constraints, pack(SCORES))
        assert pre.reason is None
        # l1's bound of 1 flows down to l2: each pool keeps only its best member
        assert pre.pools == {"l1": ("a",), "l2": ("c",)}

    def test_lower_bounds_flow_up(self):
        constraints = ConstraintSet.build(
            {"l1": "ab", "l2": "cd"},
            intervals=(Interval("l2", 1, 2),),
            dominances=(Dominance("l1", "l2"),),
        )
        pre = preprocess_intervals("abcd", 2, constraints, pack(SCORES))
        assert pre.lows == {"l1": 1, "l2": 1}

    def test_conflicting_bounds_reported(self):
        constraints = ConstraintSet.build(
            {"l": "ab"}, intervals=(Interval("l", 3, 3),)
        )
        pre = preprocess_intervals("abcd", 3, constraints, pack(SCORES))
        assert pre.reason is not None
        assert "lower bound 3" in pre.reason

    def test_without_intervals_pools_cap_at_k(self):
        pre = preprocess_intervals("abcd", 1, CHAIN, pack(SCORES))
        assert pre.pools == {"l1": ("a",), "l2": ("c",)}
        assert pre.lows == {"l1": 0, "l2": 0}

    def test_unlabeled_candidates_form_their_own_pool(self):
        constraints = ConstraintSet.build({"l": "ab"})
        order = {"a": 5, "b": 1, "c": 4, "d": 3, "e": 6}
        pre = preprocess_intervals("abcde", 2, constraints, pack(order))
        assert pre.unlabeled == ("e", "c")


class TestSolveTree:
    def test_chain_dominance(self):
        result = solve_tree("abcd", 2, CHAIN, SCORES)
        assert result.status == "optimal"
        assert result.committee == ("a", "c")
        assert result.score == 9
        assert result.solver == "dp"

    def test_mutual_dominance_forces_equal_counts(self):
        assert solve_tree("abcd", 2, CLIQUE, SCORES).committee == ("a", "c")
        result = solve_tree("abcd", 3, CLIQUE, SCORES)
        assert result.status == "infeasible"
        assert "no size-k committee" in result.reason

    def test_zero_committee(self):
        result = solve_tree("abcd", 0, CLIQUE, SCORES)
        assert result.status == "optimal"
        assert result.committee == ()
        assert result.score == 0

    def test_no_labels_picks_top_scorers(self):
        result = solve_tree("abcd", 2, ConstraintSet.empty(), SCORES)
        assert result.committee == ("a", "c")
        assert result.score == 9

    def test_preprocessing_infeasibility_short_circuits(self):
        constraints = ConstraintSet.build(
            {"l": "ab"}, intervals=(Interval("l", 3, 3),)
        )
        result = solve_tree("abcd", 3, constraints, SCORES)
        assert result.status == "infeasible"
        assert "lower bound" in result.reason

    def test_unmeetable_joint_lower_bounds(self):
        constraints = ConstraintSet.build(
            {"l1": "a", "l2": "b"},
            intervals=(Interval("l1", 1, 1), Interval("l2", 1, 1)),
        )
        result = solve_tree("abcd", 1, constraints, SCORES)
        assert result.status == "infeasible"
        assert "no size-k committee" in result.reason
        oracle = solve_bruteforce("abcd", 1, constraints, SCORES)
        assert oracle.status == "infeasible"

    def test_overlapping_labels_rejected(self):
        bad = ConstraintSet.build({"l1": "ab", "l2": "bc"})
        with pytest.raises(ContractViolation, match="disjoint"):
            solve_tree("abcd", 2, bad, SCORES)

    def test_incomparable_dominators_rejected(self):
        bad = ConstraintSet.build(
            {"l1": "a", "l2": "b", "l3": "c"},
            dominances=(Dominance("l1", "l3"), Dominance("l2", "l3")),
        )
        with pytest.raises(ContractViolation, match="not tree-like"):
            solve_tree("abcd", 2, bad, SCORES)

    def test_counts_fall_along_a_chain(self):
        scores = {
            "t1": 0, "t2": 0,
            "m1": 5, "m2": 5,
            "b1": 10, "b2": 10,
        }
        constraints = ConstraintSet.build(
            {"top": ("t1", "t2"), "mid": ("m1", "m2"), "bot": ("b1", "b2")},
            dominances=(Dominance("top", "mid"), Dominance("mid", "bot")),
        )
        order = scores
        result = solve_tree(sorted(scores), 4, constraints, order)
        assert result.status == "optimal"
        labeling = constraints.labeling
        counts = [labeling.count(result.committee, n) for n in ("top", "mid", "bot")]
        assert counts == sorted(counts, reverse=True)
        oracle = solve_bruteforce(sorted(scores), 4, constraints, order)
        assert result.score == oracle.score == 15

    def test_interval_and_dominance_together(self):
        constraints = ConstraintSet.build(
            {"l1": "ab", "l2": "cd"},
            intervals=(Interval("l1", 0, 1),),
            dominances=(Dominance("l1", "l2"),),
        )
        result = solve_tree("abcd", 2, constraints, SCORES)
        oracle = solve_bruteforce("abcd", 2, constraints, SCORES)
        assert result.committee == oracle.committee == ("a", "c")

    def test_stats_counters_present(self):
        result = solve_tree("abcd", 2, CHAIN, SCORES)
        assert set(result.stats) == {"joins", "tables", "cells"}
        assert all(v >= 0 for v in result.stats.values())

    def test_grid_budget_is_quadratic_in_k(self):
        # a node builds at most k+1 columns, one per own count, each from
        # one convolution per child (one when it has none) of at most k+1
        # cells; with the unlabeled pool's table and the top-level
        # convolutions that stays within the (k+1)^2 multiple below, by a
        # wide margin (test_tables_are_columns_not_full_grids is the tight
        # check)
        from comsel import gen_random

        for seed in range(12):
            instance = gen_random(
                num_candidates=10,
                num_voters=4,
                k=4,
                num_labels=3,
                mode="disjoint",
                structure="tree_like",
                seed=seed,
            )
            scores = dict.fromkeys(instance.profile.candidates, 0)
            result = solve_tree(
                instance.profile.candidates,
                instance.profile.k,
                instance.constraints,
                scores,
            )
            k = instance.profile.k
            bound = (2 * len(instance.constraints.labeling) + 3) * (k + 1) ** 2
            assert result.stats["cells"] <= bound

    def test_tables_are_columns_not_full_grids(self):
        # a node holds one column per count it can take, here 0 to 2, so
        # ten labels of two members each stay far below ten (k+1)^2 grids
        k = 20
        groups = {f"l{i}": (f"c{i}a", f"c{i}b") for i in range(10)}
        chain = ConstraintSet.build(
            groups,
            dominances=tuple(Dominance(f"l{i}", f"l{i + 1}") for i in range(9)),
        )
        names = [name for pair in groups.values() for name in pair]
        result = solve_tree(names, k, chain, dict.fromkeys(names, 1))
        assert result.status == "optimal"
        assert result.stats["tables"] == 10
        assert result.stats["cells"] < result.stats["tables"] * (k + 1) ** 2

    @pytest.mark.parametrize("leaves", [4, 8, 16])
    def test_star_joins_do_not_grow_with_its_leaves(self, leaves):
        # a node merges all its leaf children by one sort of their members,
        # so each own count of the root costs one convolution whatever the
        # number of leaves
        k = 6
        groups = {"r": ("r1", "r2", "r3")}
        for i in range(leaves):
            groups[f"l{i:02d}"] = (f"l{i:02d}a", f"l{i:02d}b")
        star = ConstraintSet.build(
            groups,
            intervals=(Interval("l00", 1, 2),),
            dominances=tuple(Dominance("r", label) for label in groups if label != "r"),
        )
        names = sorted(name for members in groups.values() for name in members)
        scores = {name: 7 * i % 11 for i, name in enumerate(names)}
        result = solve_tree(names, k, star, scores)
        oracle = solve_bruteforce(
            names, k, star, scores, OracleBudget(len(names), 2 * 10**6)
        )
        assert result.committee == oracle.committee
        assert result.stats["joins"] <= (3 + 1) * (k + 1)


def test_ties_fall_to_the_oracles_committee():
    # few voters and coarse rules leave many committees equally good; the
    # dp must pick the oracle's one, the lexicographically smallest
    cases = (
        (WeaklySeparableRule("sntv"), "score"),
        (WeaklySeparableRule("bloc"), "leximax"),
        (WeaklySeparableRule("sntv"), "leximin"),
        (StvRule("simple"), "leximax"),
    )
    for seed in range(300):
        rule, order_kind = cases[seed % len(cases)]
        m = 4 + seed % 7
        instance = gen_random(
            m,
            1 + seed % 3,
            1 + seed % min(4, m),
            1 + seed % 3,
            "disjoint",
            "tree_like",
            20_000 + seed,
            rule=rule,
            order_kind=order_kind,
        )
        dp = solve_instance(instance, "dp")
        oracle = solve_instance(instance, "oracle")
        assert dp.status == oracle.status, seed
        assert dp.committee == oracle.committee, seed


# (labels, intervals, dominances over "r", k); u1-u3 are unlabeled
LEAF_CASES = {
    "leaf floors": (
        {"r": "abc", "l1": "de", "l2": "fgh", "l3": "ij"},
        (("l1", 1), ("l2", 2)),
        ("l1", "l2", "l3"),
        5,
    ),
    "leaf floors past k": (
        {"r": "abc", "l1": "de", "l2": "fg", "l3": "hi"},
        (("l1", 2), ("l2", 2)),
        ("l1", "l2", "l3"),
        3,
    ),
    "root leaf floors past k": (
        {"s": "ab", "t": "cd", "r": "ef", "l1": "gh"},
        (("s", 2), ("t", 2)),
        ("l1",),
        3,
    ),
    "root leaf beside a star": (
        {"r": "abc", "l1": "de", "l2": "fg", "s": "hij"},
        (("s", 1),),
        ("l1", "l2"),
        5,
    ),
    "two-label cycle as a leaf": (
        {"r": "abc", "c1": "de", "c2": "fg", "l1": "hi"},
        (("l1", 1),),
        ("c1", "c2", "l1"),
        5,
    ),
}


@pytest.mark.parametrize("order_kind", ["score", "leximin"])
@pytest.mark.parametrize("case", sorted(LEAF_CASES))
def test_leaf_merges_agree_with_the_oracle(case, order_kind):
    groups, floors, under, k = LEAF_CASES[case]
    dominances = [Dominance("r", label) for label in under]
    if "c1" in groups:
        dominances += [Dominance("c1", "c2"), Dominance("c2", "c1")]
    constraints = ConstraintSet.build(
        groups,
        intervals=tuple(Interval(label, low, k) for label, low in floors),
        dominances=tuple(dominances),
    )
    names = sorted("".join(groups.values())) + ["u1", "u2", "u3"]
    scores = {name: 5 * i % 7 for i, name in enumerate(names)}
    if order_kind == "leximin":
        # negative weights, so the leaves' packed cells are negative too
        scores = leximin_weights(scores)
    dp = solve_tree(names, k, constraints, scores)
    oracle = solve_bruteforce(names, k, constraints, scores)
    assert (dp.status, dp.committee, dp.score, dp.reason) == (
        oracle.status,
        oracle.committee,
        oracle.score,
        oracle.reason,
    )
