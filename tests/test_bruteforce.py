"""Exhaustive oracle: enumeration, optimization, existence queries."""

import pytest

from comsel import (
    BudgetExceededError,
    ConstraintSet,
    Dominance,
    InputError,
    Interval,
    OracleBudget,
    enumerate_feasible,
    solve_bruteforce,
)
from conftest import key, reference_witness

PAIRED = ConstraintSet.build(
    {"l1": "ab", "l2": "cd"}, dominances=(Dominance("l1", "l2"),)
)


def test_budget_validation():
    with pytest.raises(InputError, match="positive"):
        OracleBudget(max_candidates=0)
    with pytest.raises(InputError, match="positive"):
        OracleBudget(max_committee_enumeration=0)


class TestEnumerateFeasible:
    def test_dominance_filter_in_lexicographic_order(self):
        committees = list(enumerate_feasible("abcd", 2, PAIRED))
        assert committees == [
            ("a", "b"),
            ("a", "c"),
            ("a", "d"),
            ("b", "c"),
            ("b", "d"),
        ]

    def test_unconstrained_full_committee(self):
        assert list(enumerate_feasible("cab", 3, ConstraintSet.empty())) == [
            ("a", "b", "c")
        ]

    def test_unsatisfiable_interval_yields_nothing(self):
        tight = ConstraintSet.build({"l": "ab"}, intervals=(Interval("l", 3, 3),))
        assert list(enumerate_feasible("abcde", 3, tight)) == []

    def test_zero_committee(self):
        assert list(enumerate_feasible("ab", 0, ConstraintSet.empty())) == [()]
        needy = ConstraintSet.build({"l": "a"}, intervals=(Interval("l", 1, 1),))
        assert list(enumerate_feasible("ab", 0, needy)) == []

    def test_negative_committee_size(self):
        with pytest.raises(InputError, match="nonnegative"):
            enumerate_feasible("ab", -1, ConstraintSet.empty())

    def test_pool_budget(self):
        names = [f"c{i:02d}" for i in range(15)]
        with pytest.raises(BudgetExceededError, match="pool of 15"):
            enumerate_feasible(names, 2, ConstraintSet.empty())
        # a wider budget admits the same pool
        wide = OracleBudget(max_candidates=15)
        assert sum(1 for _ in enumerate_feasible(names, 1, ConstraintSet.empty(), wide)) == 15

    def test_enumeration_budget(self):
        tiny = OracleBudget(max_committee_enumeration=5)
        with pytest.raises(BudgetExceededError, match="exceed"):
            enumerate_feasible("abcd", 2, ConstraintSet.empty(), tiny)


class TestSolveBruteforce:
    def test_picks_the_best_feasible_committee(self):
        scores = {"a": 5, "b": 1, "c": 4, "d": 3}
        result = solve_bruteforce("abcd", 2, PAIRED, scores)
        assert result.status == "optimal"
        assert result.committee == ("a", "c")
        assert result.score == 9
        assert result.solver == "oracle"
        assert result.stats == {"examined": 6, "feasible": 5}

    def test_ties_go_to_the_lexicographically_smallest(self):
        order = {"a": 1, "b": 1, "c": 1}
        result = solve_bruteforce("abc", 2, ConstraintSet.empty(), order)
        assert result.committee == ("a", "b")

    def test_infeasible_instance(self):
        tight = ConstraintSet.build({"l": "ab"}, intervals=(Interval("l", 3, 3),))
        result = solve_bruteforce("abcd", 2, tight, dict.fromkeys("abcd", 0))
        assert result.status == "infeasible"
        assert result.committee == ()
        assert result.score is None
        assert "no size-k committee" in result.reason

    def test_score_filled_only_for_score_orders(self):
        from comsel import leximax_weights

        order = leximax_weights({"a": 3, "b": 2, "c": 1})
        result = solve_bruteforce("abc", 2, ConstraintSet.empty(), order)
        assert result.committee == ("a", "b")
        assert result.score == key(order, result.committee)


class TestExistenceQuery:
    ORDER = {"a": 5, "b": 1, "c": 4, "d": 3}

    def test_feasible_reference_is_its_own_witness(self):
        assert reference_witness("abcd", 2, PAIRED, self.ORDER, ("a", "c"))

    def test_unreachable_reference(self):
        # with a and c both barred the only feasible committee is {b,d},
        # which falls short of the reference score
        blocked = ConstraintSet.build(
            {"best": "ac"}, intervals=(Interval("best", 0, 0),)
        )
        assert not reference_witness("abcd", 2, blocked, self.ORDER, ("a", "c"))
        assert reference_witness("abcd", 2, blocked, self.ORDER, ("b", "d"))

    def test_infeasible_reference_may_still_be_matched(self):
        # the reference violates the constraints, yet feasible committees
        # outscore it
        tied = {"a": 4, "b": 1, "c": 5, "d": 0}
        constraints = ConstraintSet.build(
            {"l": "cd"}, intervals=(Interval("l", 0, 1),)
        )
        assert reference_witness("abcd", 2, constraints, tied, ("c", "d"))
