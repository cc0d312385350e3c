"""Property tests for the order, scoring, and constraint invariants."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from comsel import (
    ConstraintSet,
    ElectionProfile,
    Interval,
    StvRule,
    WeaklySeparableRule,
    build_order,
    enumerate_feasible,
    gen_random,
    leximax_weights,
    leximin_weights,
    score_all,
    solve_bruteforce,
    solve_instance,
    solve_region_ip,
    solve_tree,
    stv_ranking,
    stv_rounds,
)
from comsel.constraints import transitive_closure
from conftest import compare, key, obligatory_first, stv_simple_all_rankings

ORDER_KINDS = ("score", "leximax", "leximin", "wrapped")


@st.composite
def order_and_universe(draw):
    m = draw(st.integers(2, 10))
    names = tuple(f"c{i}" for i in range(m))
    scores = {name: draw(st.integers(0, 5)) for name in names}
    kind = draw(st.sampled_from(ORDER_KINDS))
    if kind == "score":
        order = scores
    elif kind == "leximax":
        order = leximax_weights(scores)
    elif kind == "leximin":
        order = leximin_weights(scores)
    else:
        obligatory = draw(st.sets(st.sampled_from(names)))
        order = obligatory_first(scores, obligatory)
    return order, names


@st.composite
def comparison_case(draw):
    order, names = draw(order_and_universe())
    size = draw(st.integers(0, len(names)))
    first = frozenset(draw(st.permutations(names))[:size])
    second = frozenset(draw(st.permutations(names))[:size])
    rest = sorted(set(names) - first - second)
    extension = frozenset(
        draw(st.permutations(rest))[: draw(st.integers(0, len(rest)))]
        if rest
        else ()
    )
    return order, first, second, extension


@given(comparison_case())
@settings(max_examples=300, deadline=None)
def test_responsiveness_under_shared_extensions(case):
    order, first, second, extension = case
    before = compare(order, first, second)
    after = compare(order, first | extension, second | extension)
    if before > 0:
        assert after >= 0
    elif before == 0:
        assert after == 0


@given(comparison_case())
@settings(max_examples=200, deadline=None)
def test_comparison_is_antisymmetric_and_total(case):
    order, first, second, _ = case
    forward = compare(order, first, second)
    backward = compare(order, second, first)
    assert isinstance(forward, int)
    assert (forward > 0) == (backward < 0)
    assert (forward == 0) == (backward == 0)


@given(order_and_universe(), st.data())
@settings(max_examples=200, deadline=None)
def test_comparison_is_transitive(pair, data):
    order, names = pair
    size = data.draw(st.integers(0, len(names)))
    committees = [
        frozenset(data.draw(st.permutations(names))[:size]) for _ in range(3)
    ]
    a, b, c = committees
    if compare(order, a, b) >= 0 and compare(order, b, c) >= 0:
        assert compare(order, a, c) >= 0


@given(order_and_universe(), st.data())
@settings(max_examples=150, deadline=None)
def test_keys_agree_with_comparisons(pair, data):
    order, names = pair
    size = data.draw(st.integers(0, len(names)))
    first = frozenset(data.draw(st.permutations(names))[:size])
    second = frozenset(data.draw(st.permutations(names))[:size])
    keys = (key(order, first), key(order, second))
    compared = compare(order, first, second)
    assert compared == (keys[0] > keys[1]) - (keys[0] < keys[1])


@st.composite
def profiles(draw, max_candidates=6, max_voters=5):
    m = draw(st.integers(1, max_candidates))
    names = tuple(f"c{i}" for i in range(m))
    n = draw(st.integers(1, max_voters))
    voters = tuple(tuple(draw(st.permutations(names))) for _ in range(n))
    k = draw(st.integers(0, m))
    return ElectionProfile(names, voters, k)


@st.composite
def scoring_rules(draw, m, k):
    """A positional rule for m candidates and committee size k, with the
    exact value of each position: a preset, or an explicit vector of
    integers, Fractions, or decimal floats read as the decimal they print
    as."""
    kind = draw(st.sampled_from(("sntv", "borda", "bloc", "int", "fraction",
                                 "decimal")))
    if kind == "sntv":
        return WeaklySeparableRule(kind), tuple(Fraction(p == 0) for p in range(m))
    if kind == "borda":
        return WeaklySeparableRule(kind), tuple(Fraction(m - 1 - p) for p in range(m))
    if kind == "bloc":
        return WeaklySeparableRule(kind), tuple(Fraction(p < k) for p in range(m))
    numerators = draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m))
    if kind == "int":
        gamma, exact = tuple(numerators), tuple(Fraction(i) for i in numerators)
    elif kind == "fraction":
        denominators = draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
        gamma = exact = tuple(Fraction(i, d) for i, d in zip(numerators, denominators))
    else:
        gamma = tuple(i / 10 for i in numerators)
        exact = tuple(Fraction(i, 10) for i in numerators)
    return WeaklySeparableRule(gamma), exact


@given(profiles(max_voters=8), st.data())
@settings(max_examples=200, deadline=None)
def test_score_all_matches_a_per_voter_sum(profile, data):
    rule, exact = data.draw(scoring_rules(profile.num_candidates, profile.k))
    expected = {c: Fraction(0) for c in profile.candidates}
    for ranking in profile.voters:
        for position, candidate in enumerate(ranking):
            expected[candidate] += exact[position]
    scores = score_all(profile, rule)
    assert scores == expected
    if all(value.denominator == 1 for value in exact):
        # integral vectors give int scores, so every solver key is an int
        assert all(type(value) is int for value in scores.values())


@given(profiles())
@settings(max_examples=150, deadline=None)
def test_scores_ignore_voter_order(profile):
    scoring = WeaklySeparableRule("borda")
    reversed_profile = ElectionProfile(
        profile.candidates, tuple(reversed(profile.voters)), profile.k
    )
    assert score_all(profile, scoring) == score_all(reversed_profile, scoring)


@given(profiles())
@settings(max_examples=100, deadline=None)
def test_score_order_tracks_committee_scores(profile):
    scores = score_all(profile, WeaklySeparableRule("sntv"))
    order = scores
    committees = list(itertools.combinations(profile.candidates, profile.k))
    for first, second in itertools.product(committees, committees):
        difference = sum(scores[c] for c in first) - sum(scores[c] for c in second)
        compared = compare(order, first, second)
        assert compared == (difference > 0) - (difference < 0)


@given(profiles(max_candidates=5), st.sampled_from(("simple", "droop_gregory")))
@settings(max_examples=150, deadline=None)
def test_stv_ranks_every_candidate_exactly_once(profile, variant):
    ranking = stv_ranking(profile, variant)
    assert sorted(ranking) == sorted(profile.candidates)
    # every round holds all the weight not yet spent on a quota; simple
    # never elects, so its rounds all hold n
    quota = profile.num_voters // (profile.k + 1) + 1
    elections = 0
    for stv_round in stv_rounds(profile, variant):
        assert sum(stv_round.tallies.values()) == profile.num_voters - quota * elections
        elections += stv_round.action == "elect"
    if variant == "simple":
        assert ranking in stv_simple_all_rankings(profile)


@st.composite
def label_graphs(draw):
    count = draw(st.integers(1, 7))
    names = [f"g{i}" for i in range(count)]
    graph = {
        name: frozenset(
            other
            for other in names
            if other != name and draw(st.booleans())
        )
        for name in names
    }
    return graph


@given(label_graphs())
@settings(max_examples=200, deadline=None)
def test_closure_is_transitive_and_idempotent(graph):
    reach = transitive_closure(graph)
    for name, targets in graph.items():
        assert targets <= reach[name]
    for a in reach:
        for b in reach[a]:
            assert reach[b] <= reach[a]
    assert transitive_closure(reach) == reach


@given(st.integers(1, 7), st.integers(0, 7))
@settings(max_examples=100, deadline=None)
def test_unconstrained_enumeration_counts_all_subsets(m, k):
    if k > m:
        k = m
    names = [f"c{i}" for i in range(m)]
    found = list(enumerate_feasible(names, k, ConstraintSet.empty()))
    assert len(found) == math.comb(m, k)
    assert found == sorted(found)
    assert all(committee == tuple(sorted(committee)) for committee in found)


@given(profiles(max_candidates=5))
@settings(max_examples=100, deadline=None)
def test_bruteforce_winner_weakly_beats_every_feasible_committee(profile):
    order = score_all(profile, WeaklySeparableRule("borda"))
    constraints = ConstraintSet.empty()
    result = solve_bruteforce(profile.candidates, profile.k, constraints, order)
    assert result.status == "optimal"
    for committee in enumerate_feasible(profile.candidates, profile.k, constraints):
        assert compare(order, result.committee, committee) >= 0
        if compare(order, result.committee, committee) == 0:
            assert result.committee <= committee


def assert_routes_agree(instance, tag):
    constraints = instance.constraints
    solvers = ["auto", "region"]
    if constraints.labeling.is_disjoint and constraints.chain_violation is None:
        solvers.append("dp")
    oracle = solve_instance(instance, "oracle")
    for solver in solvers:
        result = solve_instance(instance, solver)
        assert (result.status, result.committee, result.score) == (
            oracle.status,
            oracle.committee,
            oracle.score,
        ), (tag, solver)
        # Fraction(1) == 1, so the comparison above cannot see an integral
        # score left as a Fraction; the Score type makes it an int
        assert not any(
            isinstance(r.score, Fraction) and r.score.denominator == 1
            for r in (oracle, result)
        ), (tag, solver)


def test_direct_solver_calls_report_an_integral_score_as_int():
    # 3/10 + 7/10 sums to Fraction(1, 1), which the Score type makes 1
    weights = {"a": Fraction(3, 10), "b": Fraction(7, 10), "c": 0}
    constraints = ConstraintSet.build({"l": "ab"})
    for solve in (solve_tree, solve_region_ip, solve_bruteforce):
        result = solve("abc", 2, constraints, weights)
        assert result.committee == ("a", "b"), solve
        assert type(result.score) is int and result.score == 1, solve


def test_every_route_agrees_with_the_oracle():
    # one or two voters and coarse rules leave many committees equally
    # good, so the tie-break is exercised as much as the optimum
    rules = (
        WeaklySeparableRule("sntv"),
        WeaklySeparableRule("borda"),
        WeaklySeparableRule("bloc"),
        StvRule("simple"),
        StvRule("droop_gregory"),
    )
    cases = [
        (rule, kind)
        for rule in rules
        for kind in ("score", "leximax", "leximin")
        if kind != "score" or isinstance(rule, WeaklySeparableRule)
    ]
    for seed in range(600):
        rule, kind = cases[seed % len(cases)]
        m = 5 + seed % 6
        instance = gen_random(
            m,
            1 + seed % 2,
            1 + seed % (m - 1),
            seed % 5,
            ("overlapping", "disjoint")[seed // len(cases) % 2],
            ("arbitrary", "tree_like")[seed // (2 * len(cases)) % 2],
            30_000 + seed,
            rule=rule,
            order_kind=kind,
        )
        assert_routes_agree(instance, seed)
    # fractional and decimal steps put Fraction keys on every route, and
    # scaled keys in the dp's packed cells; the last vector makes them
    # negative
    gammas = (
        lambda m: tuple(Fraction(m - i, 3) for i in range(m)),
        lambda m: tuple(Fraction("0.3") * (m - i) for i in range(m)),
        lambda m: (Fraction("0.3"),) * (m // 2) + (0,) * (m - m // 2),
        lambda m: tuple(Fraction(i - m, 3) for i in range(m)),
    )
    for seed in range(320):
        m = 5 + seed % 6
        instance = gen_random(
            m,
            1 + seed % 3,
            1 + seed % (m - 1),
            1 + seed % 4,
            ("disjoint", "disjoint", "overlapping")[seed % 3],
            ("tree_like", "tree_like", "arbitrary")[seed // 3 % 3],
            40_000 + seed,
            rule=WeaklySeparableRule(gammas[seed // 9 % len(gammas)](m)),
            order_kind=("score", "score", "leximax", "leximin")[seed // 2 % 4],
        )
        assert_routes_agree(instance, ("gamma", seed))


def constrained(instance, intervals, dominances, **groups):
    """``instance`` under other intervals and dominances, with its labels
    and the further ``groups``."""
    labeling = instance.constraints.labeling
    labels = {name: labeling.members(name) for name in labeling.names}
    assert not labels.keys() & groups.keys()
    return replace(instance, constraints=ConstraintSet.build(
        labels | groups, intervals, dominances
    ))


def pinned(instance, candidate, inside):
    """``instance`` with ``candidate`` held in (``inside``) or out of every
    committee by a fresh singleton label and the interval [1, 1] or [0, 0]."""
    constraints = instance.constraints
    seats = Interval("pin", int(inside), int(inside))
    return constrained(
        instance, (*constraints.intervals, seats), constraints.dominances,
        pin=(candidate,),
    )


def test_a_pin_returns_the_answer_or_a_worse_one():
    """The pin relation, a check where no oracle runs.  Pinning a member of
    the answer C in, or a non-member out, allows only committees allowed
    before, C among them, so C comes back.  Pinning it to the other side
    ends infeasible or with a committee C beats: by weight sum, or at an
    equal sum by the tie-break to the lexicographically smallest.  A pin
    on a labeled candidate makes disjoint labels overlap, so on a
    tree-like instance the base solve goes to dp and the pinned one to the
    region search: the paper's two algorithms meet at m = 40 to 120.

    Two relations share the base solves.  Tightening a label's interval to
    C's own count of it narrows the committees allowed, C among them, so
    C comes back.  Dropping a constraint widens them, so the answer's sum
    does not fall, and at an equal sum the answer is C or one before it."""
    routes = set()
    labels = (("disjoint", "tree_like"), ("overlapping", "arbitrary"))
    for seed, (mode, structure), kind in itertools.product(
        range(5), labels, ("score", "leximax", "leximin")
    ):
        # k reaches 24 at m = 120, so an answer may take more than 13
        # members of one region, which no oracle-checked instance can
        m = (40, 80, 120)[seed % 3]
        instance = gen_random(m, 9, m // 5, 4, mode, structure, seed, order_kind=kind)
        base = solve_instance(instance)
        if not base.is_optimal:
            continue
        weights = build_order(instance)
        answer, total = base.committee, sum(weights[c] for c in base.committee)
        outside = [c for c in instance.profile.candidates if c not in answer]
        for candidate in (answer[0], answer[-1], max(outside, key=weights.get)):
            inside, tag = candidate in answer, (seed, mode, kind, candidate)
            same = solve_instance(pinned(instance, candidate, inside))
            assert same.committee == answer, tag
            other = solve_instance(pinned(instance, candidate, not inside))
            routes.add((base.solver, other.solver))
            if other.is_optimal:
                pinned_total = sum(weights[c] for c in other.committee)
                assert pinned_total < total or (
                    pinned_total == total and other.committee > answer
                ), tag
        constraints = instance.constraints
        labeling = constraints.labeling
        for name in labeling.names:
            seats = len(set(labeling.members(name)) & set(answer))
            intervals = [i for i in constraints.intervals if i.label != name]
            tight = constrained(
                instance, (*intervals, Interval(name, seats, seats)),
                constraints.dominances,
            )
            assert solve_instance(tight).committee == answer, (seed, mode, kind, name)
        for dropped in (*constraints.intervals, *constraints.dominances):
            loose = solve_instance(constrained(
                instance, [i for i in constraints.intervals if i is not dropped],
                [d for d in constraints.dominances if d is not dropped],
            ))
            tag = (seed, mode, kind, dropped)
            assert loose.is_optimal, tag
            loose_total = sum(weights[c] for c in loose.committee)
            assert loose_total > total or (
                loose_total == total and loose.committee <= answer
            ), tag
    assert ("dp", "region") in routes
