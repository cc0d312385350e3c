"""Transfer-based rankings: plain elimination and quota counting."""

import random
from fractions import Fraction

import pytest

from comsel import (
    BudgetExceededError,
    ElectionProfile,
    InputError,
    stv_ranking,
    stv_rounds,
)
from conftest import stv_simple_all_rankings


def test_unknown_variant(profile_b):
    with pytest.raises(InputError, match="unknown stv variant"):
        stv_ranking(profile_b, "meek")


def test_simple_elimination_order(profile_b):
    assert stv_ranking(profile_b, "simple") == ("a", "c", "b", "d")


def test_simple_rounds_trace(profile_b):
    rounds = stv_rounds(profile_b, "simple")
    assert [(r.action, r.candidate) for r in rounds] == [
        ("eliminate", "d"),
        ("eliminate", "b"),
        ("eliminate", "c"),
    ]
    assert rounds[0].tallies == {"a": 4, "b": 1, "c": 1, "d": 0}
    # d had no first places, so removing it moves no ballot
    assert rounds[1].tallies == {"a": 4, "b": 1, "c": 1}


def test_droop_quota_round_trace(profile_b):
    rounds = stv_rounds(profile_b, "droop_gregory")
    assert (rounds[0].action, rounds[0].candidate) == ("elect", "a")
    assert rounds[0].tallies == {"a": 4, "b": 1, "c": 1, "d": 0}
    # quota is 3, so a's four supporters each keep weight 1/4
    assert rounds[1].tallies == {
        "b": Fraction(7, 4),
        "c": Fraction(5, 4),
        "d": Fraction(0),
    }
    assert (rounds[1].action, rounds[1].candidate) == ("eliminate", "d")
    assert (rounds[2].action, rounds[2].candidate) == ("eliminate", "c")


def test_droop_transfer_in_thirds():
    # quota 2; a's three supporters keep weight 1/3 each, a factor with no
    # exact binary value, so a float factor would miss every tally below
    profile = ElectionProfile.build(
        "abcd",
        (("a", "b", "c", "d"), ("a", "b", "c", "d"), ("a", "c", "b", "d"),
         ("d", "c", "b", "a")),
        2,
    )
    rounds = stv_rounds(profile, "droop_gregory")
    assert [(r.action, r.candidate) for r in rounds] == [
        ("elect", "a"),
        ("eliminate", "c"),
        ("eliminate", "b"),
    ]
    assert rounds[1].tallies == {
        "b": Fraction(2, 3),
        "c": Fraction(1, 3),
        "d": Fraction(1),
    }
    # c's ballot passes its third on to b
    assert rounds[2].tallies == {"b": Fraction(1), "d": Fraction(1)}
    assert all(
        type(value) is Fraction for r in rounds for value in r.tallies.values()
    )


def test_droop_full_order(profile_b):
    assert stv_ranking(profile_b, "droop_gregory") == ("a", "b", "c", "d")


def test_droop_on_landslide_elects_repeatedly():
    # nine identical voters, k=2: quota 4, a then b clear it in turn
    profile = ElectionProfile.build("abc", (("a", "b", "c"),) * 9, 2)
    rounds = stv_rounds(profile, "droop_gregory")
    assert [(r.action, r.candidate) for r in rounds] == [
        ("elect", "a"),
        ("elect", "b"),
    ]
    assert stv_ranking(profile, "droop_gregory") == ("a", "b", "c")


def test_single_candidate_profile():
    profile = ElectionProfile.build("a", (("a",),), 1)
    assert stv_ranking(profile, "simple") == ("a",)
    assert stv_rounds(profile, "simple") == []


def test_tie_breaks_toward_smaller_identifier():
    # b and c tie at zero first places; b must go first
    profile = ElectionProfile.build("abc", (("a", "b", "c"), ("a", "c", "b")), 1)
    assert stv_ranking(profile, "simple") == ("a", "c", "b")


def test_all_rankings_enumerates_tie_branches(profile_b):
    worlds = stv_simple_all_rankings(profile_b)
    assert worlds == frozenset({("a", "b", "c", "d"), ("a", "c", "b", "d")})
    # the deterministic count picks one of the possible worlds
    assert stv_ranking(profile_b, "simple") in worlds


def test_all_rankings_without_ties_is_singleton():
    profile = ElectionProfile.build(
        "abc", (("a", "b", "c"), ("a", "b", "c"), ("b", "a", "c")), 1
    )
    assert stv_simple_all_rankings(profile) == frozenset({("a", "b", "c")})


def test_all_rankings_candidate_cap():
    names = [f"c{i}" for i in range(9)]
    profile = ElectionProfile.build(names, (tuple(names),), 1)
    with pytest.raises(BudgetExceededError, match="cap"):
        stv_simple_all_rankings(profile)


def recount(profile, variant):
    """The count done plainly: every ballot carries its own weight, and
    every round rescans every ballot for its first hopeful preference."""
    quota = profile.num_voters // (profile.k + 1) + 1
    ballots = [[ranking, Fraction(1)] for ranking in profile.voters]
    hopeful = sorted(profile.candidates)
    rounds = []
    while len(hopeful) > 1:
        tops = [next(c for c in ranking if c in hopeful) for ranking, _ in ballots]
        tallies = {c: Fraction(0) for c in hopeful}
        for top, (_, weight) in zip(tops, ballots):
            tallies[top] += weight
        action, chosen, factor = "eliminate", min(tallies, key=tallies.get), 1
        best = max(tallies, key=tallies.get)
        if variant == "droop_gregory" and tallies[best] >= quota:
            action, chosen = "elect", best
            factor = (tallies[best] - quota) / tallies[best]
        for top, ballot in zip(tops, ballots):
            if top == chosen:
                ballot[1] *= factor
        rounds.append((action, chosen, tallies))
        hopeful.remove(chosen)
    return rounds


def random_profiles(count, seed):
    """Small profiles drawn from a few distinct rankings, so that many
    ballots repeat and share a pile."""
    rng = random.Random(seed)
    for _ in range(count):
        names = [f"c{i}" for i in range(rng.randint(1, 6))]
        pool = [rng.sample(names, len(names)) for _ in range(rng.randint(1, 4))]
        voters = [rng.choice(pool) for _ in range(rng.randint(1, 30))]
        yield ElectionProfile.build(names, voters, rng.randint(0, len(names)))


@pytest.mark.parametrize("variant", ["simple", "droop_gregory"])
def test_rounds_match_a_per_ballot_recount(variant):
    for profile in random_profiles(300, seed=11):
        rounds = stv_rounds(profile, variant)
        expected = recount(profile, variant)
        assert [(r.action, r.candidate, r.tallies) for r in rounds] == expected
        assert all(
            type(value) is Fraction for r in rounds for value in r.tallies.values()
        )


@pytest.mark.parametrize("variant", ["simple", "droop_gregory"])
def test_rounds_ignore_voter_order(variant):
    rng = random.Random(12)
    for profile in random_profiles(150, seed=13):
        voters = list(profile.voters)
        rng.shuffle(voters)
        shuffled = ElectionProfile(profile.candidates, voters, profile.k)
        assert stv_rounds(shuffled, variant) == stv_rounds(profile, variant)
