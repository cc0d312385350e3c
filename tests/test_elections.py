"""Profiles, positional rule vectors and scores."""

import json
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from comsel import (
    ElectionProfile,
    InputError,
    WeaklySeparableRule,
    gen_random,
    score_all,
)
from comsel import document
from comsel.document import read_instance
from comsel.elections import RankingCoder


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

    def test_more_candidates_than_codes_rejected(self):
        # a range has a length without a million names behind it
        too_many = sys.maxunicode + 2
        for refuse in (
            lambda: ElectionProfile(range(too_many), [[0]], 1),
            lambda: gen_random(too_many, 1, 1, 0),
        ):
            tracemalloc.start()
            try:
                with pytest.raises(InputError, match="at most 1114112") as caught:
                    refuse()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert caught.value.code == "too-many-candidates"
            # refused before a name is built: the names took 94 MB
            assert peak < 1 << 20

    def test_a_coder_over_other_candidates_rejected(self):
        coder = RankingCoder(("a", "b"))
        assert coder.add(("b", "a")) and not coder.add(("b", "c"))
        with pytest.raises(InputError, match="other candidates"):
            ElectionProfile(("a", "c"), coder, 1)
        # a coder over the profile's candidates gives its string as it is
        assert ElectionProfile(("a", "b"), coder, 1).ballots == "\x01\x00"

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


@st.composite
def coded_profiles(draw, m):
    """Candidates, rankings and k over ``m`` candidates.  Names are drawn
    in a shuffled order, so code order and name order differ."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    candidates = tuple(rng.sample([f"c{i:03d}" for i in range(m)], m))
    pool = [rng.sample(candidates, m) for _ in range(draw(st.integers(1, 3)))]
    voters = [rng.choice(pool) for _ in range(draw(st.integers(1, 12)))]
    k = draw(st.integers(0, m))
    return candidates, voters, k


class TestCodedProfile:
    """The rankings held as one code string, read the way tuples were."""

    # one- and two-byte codes, on both sides of the edge; test_stv.py
    # checks the STV count on such profiles
    @pytest.mark.parametrize("m", [1, 2, 255, 256, 300])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_codes_read_as_the_rankings(self, m, data):
        candidates, voters, k = data.draw(coded_profiles(m))
        # equal names that are distinct objects, as a JSON parser makes them
        copies = [["".join(list(name)) for name in ranking] for ranking in voters]
        profile = ElectionProfile(candidates, copies, k)
        m, n = len(candidates), len(voters)
        assert len(profile.ballots) == n * m and profile.num_voters == n
        assert profile.voters == tuple(map(tuple, voters))
        by_name = {c: c for c in candidates}
        assert all(
            type(ranking) is tuple
            and all(entry is by_name[entry] for entry in ranking)
            for ranking in profile.voters
        )
        # equality and hashing follow (candidates, voters, k)
        same = ElectionProfile(candidates, voters, k)
        assert same == profile and hash(same) == hash(profile)
        others = [ElectionProfile(candidates, voters, (k + 1) % (m + 1))]
        if m > 1:
            swapped = [list(ranking) for ranking in voters]
            swapped[-1][:2] = swapped[-1][1::-1]
            others.append(ElectionProfile(candidates, swapped, k))
            others.append(ElectionProfile(candidates[::-1], voters, k))
        for other in others:
            equal = (other.candidates, other.voters, other.k) == (
                profile.candidates, profile.voters, profile.k
            )
            assert (other == profile) is equal
        # scores equal a count over the decoded rankings
        for gamma in ("borda", "sntv", "bloc"):
            rule = WeaklySeparableRule(gamma)
            vector = rule.vector(profile)
            expected = dict.fromkeys(candidates, 0)
            for ranking in profile.voters:
                for candidate, value in zip(ranking, vector):
                    expected[candidate] += value
            assert score_all(profile, rule) == expected

    # CPython appends to a string in place only when no tracer is set
    @pytest.mark.untraced
    def test_a_parsed_profile_holds_about_a_byte_per_entry(self, tmp_path):
        m, n = 200, 5000
        names = [f"candidate-{i:03d}" for i in range(m)]
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({
            "candidates": names,
            "voters": [names[i % m:] + names[:i % m] for i in range(n)],
            "k": 3,
            "rule": {"type": "weakly_separable", "gamma": "borda"},
        }))
        tracemalloc.start()
        try:
            instance = read_instance(str(path))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert instance.profile.num_voters == n
        # the names and the rest of the instance come to about 1.5% of this;
        # a tuple per ranking held 8 B per entry
        assert held <= 1.2 * n * m
        # the code string grows in place, so the parse peaks near it and the
        # read window (at a refill, the reader's last chunk, the bytes read
        # and their text: 0.3 MB here); a string per ranking, joined at the
        # end, peaked at 2.5 B per entry
        assert peak <= 1.3 * n * m + 4 * document._CHUNK

    # CPython appends to a string in place only when no tracer is set
    @pytest.mark.untraced
    def test_a_profile_built_from_rankings_peaks_near_its_codes(self):
        # the path of ElectionProfile.build and of a document that lists
        # its voters first: each ranking is checked and coded in turn
        m, n = 200, 5000
        names = [f"candidate-{i:03d}" for i in range(m)]
        voters = [names[i % m:] + names[:i % m] for i in range(n)]
        tracemalloc.start()
        try:
            profile = ElectionProfile.build(names, voters, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert profile.voters == tuple(map(tuple, voters))
        # a string per ranking, joined at the end, peaked at 2.4 B per entry
        assert peak <= 1.3 * n * m

    # CPython appends to a string in place only when no tracer is set
    @pytest.mark.untraced
    def test_a_random_profile_peaks_near_its_codes(self):
        # gen_random draws each ranking's codes into a RankingCoder; joined
        # once at the end, the drawn strings peaked at 2.42 B per entry
        m, n = 200, 5000
        tracemalloc.start()
        try:
            instance = gen_random(m, n, 10, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert instance.profile.num_voters == n
        assert peak <= 1.3 * n * m
