"""Profiles, positional rule vectors and scores."""

from fractions import Fraction

import pytest

from comsel import (
    ElectionProfile,
    InputError,
    WeaklySeparableRule,
    score_all,
)


class TestProfileValidation:
    def test_empty_candidate_set_rejected(self):
        with pytest.raises(InputError, match="at least one candidate"):
            ElectionProfile.build((), (), 0)

    def test_duplicate_candidates_rejected(self):
        with pytest.raises(InputError, match="distinct"):
            ElectionProfile.build(("a", "a"), (("a", "a"),), 1)

    def test_empty_voter_list_rejected(self):
        with pytest.raises(InputError, match="at least one voter"):
            ElectionProfile.build("ab", (), 1)

    def test_non_permutation_ranking_names_the_voter(self):
        with pytest.raises(InputError, match="voter 1"):
            ElectionProfile.build("abc", (("a", "b", "c"), ("a", "b", "b")), 1)

    def test_short_ranking_rejected(self):
        with pytest.raises(InputError, match="permutation"):
            ElectionProfile.build("abc", (("a", "b"),), 1)

    def test_committee_size_bounds(self):
        for bad in (-1, 3, "1", True):
            with pytest.raises(InputError, match="committee size"):
                ElectionProfile.build("ab", (("a", "b"),), bad)
        # decimals, which documents read as Fractions, read as written
        for bad, shown in ((Fraction("1.5"), "1.5"), (Fraction("2.0"), "2.0")):
            with pytest.raises(InputError, match=f"an integer, got {shown}$"):
                ElectionProfile.build("ab", (("a", "b"),), bad)
        # both endpoints are legal
        ElectionProfile.build("ab", (("a", "b"),), 0)
        ElectionProfile.build("ab", (("a", "b"),), 2)


class TestProfileRankings:
    def test_rankings_hold_the_candidates_own_names(self):
        candidates = ("c1", "c2", "c3")
        # equal names that are distinct objects, as a JSON parser makes them
        voters = [
            ["".join(["c", str(i)]) for i in order] for order in ((3, 1, 2), (1, 2, 3))
        ]
        assert voters[0][1] == "c1" and voters[0][1] is not candidates[0]
        profile = ElectionProfile(candidates, voters, 1)
        assert profile.voters == (("c3", "c1", "c2"), ("c1", "c2", "c3"))
        assert all(type(ranking) is tuple for ranking in profile.voters)
        by_name = {c: c for c in candidates}
        assert all(
            entry is by_name[entry] for ranking in profile.voters for entry in ranking
        )

    def test_one_candidate(self):
        profile = ElectionProfile(("a",), [["a"], ["a"]], 1)
        assert profile.voters == (("a",), ("a",))
        with pytest.raises(InputError, match="permutation"):
            ElectionProfile(("a",), [["b"]], 1)
        # a single entry that is a name of another length is still refused
        with pytest.raises(InputError, match="permutation"):
            ElectionProfile(("ab", "c"), [["ab"]], 1)

    def test_build_equals_the_constructor(self):
        voters = [["b", "a", "c"], ("c", "b", "a")]
        built = ElectionProfile.build(iter("abc"), iter(voters), 2)
        assert built == ElectionProfile(("a", "b", "c"), voters, 2)
        assert built.voters == (("b", "a", "c"), ("c", "b", "a"))


def sized(gamma, m, k=1):
    """The rule's vector for ``m`` candidates and committee size ``k``."""
    profile = ElectionProfile.build(
        [f"c{i}" for i in range(m)], [[f"c{i}" for i in range(m)]], k
    )
    return WeaklySeparableRule(gamma).vector(profile)


class TestRuleVector:
    """A positional rule's vector, sized to a profile."""

    def test_sntv_vector(self):
        assert sized("sntv", 4) == (1, 0, 0, 0)

    def test_borda_vector(self):
        assert sized("borda", 4) == (3, 2, 1, 0)

    def test_bloc_vector_uses_committee_size(self):
        assert sized("bloc", 5, 2) == (1, 1, 0, 0, 0)
        assert sized("bloc", 3, 0) == (0, 0, 0)

    def test_preset_dispatch(self):
        assert sized("sntv", 3, 1) == (1, 0, 0)
        assert sized("bloc", 3, 2) == (1, 1, 0)

    def test_values_coerced_to_rationals(self):
        rule = WeaklySeparableRule((Fraction(1, 2), 1, 0))
        assert rule.gamma == (Fraction(1, 2), Fraction(1), Fraction(0))
        with pytest.raises(InputError):
            WeaklySeparableRule((True, 0))
        # a float is read as the decimal it prints as; integral values are ints
        rule = WeaklySeparableRule((0.1, 0.25, 2.0, 0))
        assert rule.gamma == (Fraction(1, 10), Fraction(1, 4), 2, 0)
        assert [type(v) for v in rule.gamma] == [Fraction, Fraction, int, int]
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InputError, match="finite") as info:
                WeaklySeparableRule((bad, 0))
            assert info.value.code == "invalid-gamma"


class TestScoring:
    def test_sntv_counts_first_places(self, profile_a):
        scores = score_all(profile_a, WeaklySeparableRule("sntv"))
        assert scores == {"a": 2, "b": 1, "c": 0, "d": 2}

    def test_borda_scores(self, profile_a):
        scores = score_all(profile_a, WeaklySeparableRule("borda"))
        assert scores == {"a": 7, "b": 8, "c": 9, "d": 6}

    def test_single_voter_sntv_scores_runner_up_zero(self):
        profile = ElectionProfile.build("ab", (("a", "b"),), 1)
        assert score_all(profile, WeaklySeparableRule("sntv"))["b"] == 0

    def test_vector_length_must_match(self, profile_a):
        with pytest.raises(InputError, match="entries"):
            score_all(profile_a, WeaklySeparableRule((2, 1, 0)))

    @pytest.mark.parametrize(
        "gamma",
        ["borda", "sntv", "bloc", (Fraction(1, 2), Fraction(1, 3), 0, 0, 0),
         (3, 0, -2, 1, 0)],
        ids=["borda", "sntv", "bloc", "fractional", "negative"],
    )
    def test_scores_match_a_per_voter_sum_on_either_side_of_the_switch(self, gamma):
        # fewer voters than scored positions walks each ballot, otherwise
        # each position's column is counted; both must give the same sums
        rankings = ("abcde", "ecbda", "badce", "deacb", "cdeab", "bcaed")
        rule = WeaklySeparableRule(gamma)
        for n in range(1, 13):
            voters = [tuple(rankings[i % len(rankings)]) for i in range(n)]
            profile = ElectionProfile.build("abcde", voters, 2)
            vector = rule.vector(profile)
            expected = dict.fromkeys("abcde", Fraction(0))
            for ranking in voters:
                for candidate, value in zip(ranking, vector):
                    expected[candidate] += Fraction(value)
            scores = score_all(profile, rule)
            assert scores == expected, n
            # an integral score is an int, so an integral vector gives only ints
            for candidate, score in scores.items():
                integral = expected[candidate].denominator == 1
                assert type(score) is (int if integral else Fraction), (n, candidate)
            # repeated past the scored positions, a ballot-walked profile is
            # counted by columns
            scored = max((i + 1 for i, v in enumerate(vector) if v), default=0)
            r = scored // n + 1
            repeated = ElectionProfile.build("abcde", voters * r, 2)
            assert score_all(repeated, rule) == {c: r * s for c, s in scores.items()}

