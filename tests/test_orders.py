"""Committee comparators and their keys."""

import itertools
import random
from fractions import Fraction

import pytest

from comsel import (
    InputError,
    leximax_weights,
    leximin_weights,
)
from comsel.orders import best_singletons, pack, unpack
from conftest import compare, key, obligatory_first

FIVE = dict(zip("abcde", range(5, 0, -1)))  # a > b > c > d > e


def test_score_order_compares_sums():
    order = {"a": 5, "b": 1, "c": 4, "d": 3}
    assert compare(order, ("a", "b"), ("c", "d")) < 0
    assert compare(order, ("a", "c"), ("b", "d")) > 0
    assert compare(order, ("a", "b"), ("b", "a")) == 0
    # equal sums from different members are indifferent
    flat = {"a": 2, "b": 1, "c": 1, "d": 2}
    assert compare(flat, ("a", "b"), ("c", "d")) == 0


def test_score_order_key_join():
    order = {"a": 2, "b": 3}
    assert key(order, ("a",)) + key(order, ("b",)) == key(order, ("a", "b"))
    assert key(order, ()) == 0


def test_leximax_prefers_the_best_member():
    order = leximax_weights(FIVE)
    # {c,d} against {a,e}: a is the single best member anywhere, so it wins
    assert compare(order, ("c", "d"), ("a", "e")) < 0
    assert compare(order, ("a", "e"), ("c", "d")) > 0
    assert compare(order, ("b", "c"), ("b", "c")) == 0


def test_leximax_falls_through_on_shared_best():
    order = leximax_weights(FIVE)
    assert compare(order, ("a", "c"), ("a", "d")) > 0


def test_leximin_prefers_the_better_worst_member():
    order = leximin_weights(FIVE)
    # worst members: d against e, and d sits higher
    assert compare(order, ("c", "d"), ("a", "e")) > 0
    assert compare(order, ("a", "d"), ("b", "c")) < 0


def test_lexi_orders_respect_ties():
    scores = {"a": 1, "b": 1, "c": 0, "d": 0}
    for order in (leximax_weights(scores), leximin_weights(scores)):
        assert compare(order, ("a", "c"), ("b", "d")) == 0
        assert compare(order, ("a", "b"), ("b", "c")) > 0


def test_lexi_key_join_matches_union():
    order = leximax_weights(FIVE)
    left = key(order, ("a", "d"))
    right = key(order, ("b",))
    assert left + right == key(order, ("a", "b", "d"))
    assert key(order, ()) == 0


def tuple_key(scores, kind, committee):
    """The lexicographic definition: members' negated tier indices, sorted
    best first for leximax and worst first for leximin."""
    levels = sorted(set(scores.values()), reverse=True)
    tier_of = {c: levels.index(score) for c, score in scores.items()}
    levels = [-tier_of[c] for c in committee]
    return tuple(sorted(levels, reverse=kind == "leximax"))


def test_integer_keys_compare_as_the_tuple_definition():
    rng = random.Random(7)
    for _ in range(400):
        names = [f"c{i}" for i in range(rng.randint(1, 9))]
        rng.shuffle(names)
        # cut the shuffled names into tiers, many of them tied
        cuts = sorted(rng.sample(range(1, len(names)), rng.randint(0, len(names) - 1)))
        tiers = [names[a:b] for a, b in zip([0, *cuts], [*cuts, len(names)])]
        # each tier one score, best first, at random distinct levels
        levels = sorted(rng.sample(range(-20, 20), len(tiers)), reverse=True)
        scores = {c: level for level, tier in zip(levels, tiers) for c in tier}
        size = rng.randint(0, len(names))
        for kind, order in (
            ("leximax", leximax_weights(scores)),
            ("leximin", leximin_weights(scores)),
        ):
            for _ in range(10):
                first = rng.sample(names, size)
                second = rng.sample(names, size)
                old = tuple_key(scores, kind, first), tuple_key(scores, kind, second)
                new = key(order, first), key(order, second)
                assert isinstance(new[0], int)
                assert (old[0] > old[1]) - (old[0] < old[1]) == (
                    new[0] > new[1]
                ) - (new[0] < new[1]), (tiers, kind, first, second)


def test_strict_leximax_gives_each_member_a_bit():
    order = leximax_weights(FIVE)
    assert [key(order, (c,)) for c in "abcde"] == [16, 8, 4, 2, 1]
    assert key(order, "abcde") == 2**5 - 1


def test_packed_sums_rank_by_key_then_smallest_committee():
    weights = {
        "b": Fraction(-1, 2), "e": Fraction(-1, 3), "a": -1, "d": Fraction(-1, 2),
        "c": Fraction(1, 6), "f": Fraction(-1, 3),
    }
    packed = pack(weights)
    for size in range(len(weights) + 1):
        committees = list(itertools.combinations(sorted(weights), size))
        for first, second in itertools.product(committees, repeat=2):
            # a larger key wins, and on equal keys the smaller sorted tuple
            left = (key(weights, first), second)
            right = (key(weights, second), first)
            packed_first = sum(packed[c] for c in first)
            packed_second = sum(packed[c] for c in second)
            assert (left > right) == (packed_first > packed_second), (first, second)
            assert (left == right) == (packed_first == packed_second)
        for committee in committees:
            cell = sum(packed[c] for c in committee)
            assert unpack(cell, packed) == committee


def test_obligatory_count_trumps_the_base_order():
    scores = {"a": 0, "b": 100, "c": 1}
    wrapped = obligatory_first(scores, ("c",))
    # b hugely outscores c, but c is obligatory
    assert compare(wrapped, ("a", "c"), ("a", "b")) > 0
    assert compare(wrapped, ("b", "c"), ("a", "c")) > 0  # balanced, base decides


def test_obligatory_members_outrank_everything_under_any_base():
    for scores in ({"a": 5, "b": 1, "c": 4, "d": 3}, {"a": 0, "b": 100, "c": 1, "d": 2}):
        wrapped = obligatory_first(scores, ("a", "c"))
        assert compare(wrapped, ("a", "c"), ("a", "b")) > 0
        assert compare(wrapped, ("c", "d"), ("b", "d")) > 0


def test_obligatory_join():
    wrapped = obligatory_first({"a": 1, "b": 2, "c": 4}, ("a", "b"))
    joined = key(wrapped, ("a",)) + key(wrapped, ("b", "c"))
    assert joined == key(wrapped, ("a", "b", "c"))
    assert key(wrapped, ()) == 0


def obligatory_key(base, obligatory, committee):
    """The lexicographic definition: obligatory members first, then the
    base key."""
    members = frozenset(committee)
    return len(members & obligatory), key(base, members)


def test_obligatory_weights_compare_as_the_tuple_definition():
    rng = random.Random(11)
    for _ in range(300):
        names = [f"c{i}" for i in range(rng.randint(1, 9))]
        base_items = [(c, rng.randint(-4, 4)) for c in names]
        obligatory = frozenset(rng.sample(names, rng.randint(0, len(names))))
        size = rng.randint(0, len(names))
        for base in (
            dict(base_items),
            {c: Fraction(v, rng.randint(1, 7)) for c, v in base_items},
            leximax_weights(dict(base_items)),
            leximin_weights(dict(base_items)),
        ):
            wrapped = obligatory_first(base, obligatory)
            for _ in range(10):
                first = rng.sample(names, size)
                second = rng.sample(names, size)
                old = (
                    obligatory_key(base, obligatory, first),
                    obligatory_key(base, obligatory, second),
                )
                expected = (old[0] > old[1]) - (old[0] < old[1])
                assert compare(wrapped, first, second) == expected, (
                    base, obligatory, first, second
                )


class TestBestSingletons:
    def test_picks_top_scorers_best_first(self, profile_a):
        from comsel import WeaklySeparableRule, score_all

        order = score_all(profile_a, WeaklySeparableRule("borda"))
        assert best_singletons(pack(order), "abcd", 2) == ("c", "b")

    def test_zero_count(self):
        assert best_singletons(pack({"a": 1}), "a", 0) == ()

    def test_ties_resolve_lexicographically(self):
        order = {"a": 0, "b": 0, "c": 0}
        assert best_singletons(pack(order), "cba", 2) == ("a", "b")

    def test_count_out_of_range(self):
        with pytest.raises(InputError, match="cannot pick"):
            best_singletons(pack({"a": 1}), "a", 2)

    def test_unknown_candidate(self):
        with pytest.raises(InputError, match="unknown candidate 'z'"):
            best_singletons(pack({"a": 1}), "az", 1)

    def test_no_excluded_candidate_beats_an_included_one(self):
        order = leximin_weights({"a": 1, "b": 0, "c": 1, "d": 0})
        chosen = best_singletons(pack(order), "abcd", 2)
        left_out = set("abcd") - set(chosen)
        for kept in chosen:
            for dropped in left_out:
                assert compare(order, (dropped,), (kept,)) <= 0
