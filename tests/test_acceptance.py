"""Release gate.

One test per shipping criterion.  Each test appends a PASS or FAIL line to
the scoreboard that conftest prints at the end of the run, then fails
normally if anything is off, so a plain pytest invocation yields both the
usual report and a per-criterion summary.
"""

import functools
import itertools
import random
import time
from fractions import Fraction

import pytest

from comsel import (
    BudgetExceededError,
    ConstraintSet,
    Dominance,
    ElectionInstance,
    ElectionProfile,
    Graph,
    OracleBudget,
    StvRule,
    WeaklySeparableRule,
    build_order,
    check_committee,
    choose_solver,
    gen_clique_bloc,
    gen_clique_sntv,
    gen_random,
    gen_vertex_cover_dominance,
    gen_vertex_cover_intervals,
    leximax_weights,
    leximin_weights,
    solve_instance,
    stv_ranking,
    stv_rounds,
)
from comsel.generators import _pad_for_bloc
from conftest import (
    ACCEPTANCE_LINES, compare, feasible, has_clique, has_cover, key,
    min_cover_size, obligatory_first, reference_witness, stv_simple_all_rankings,
)


def criterion(number, name):
    """Record one scoreboard line per criterion, pass or fail."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                detail = repr(exc)
                if len(detail) > 120:
                    detail = detail[:117] + "..."
                ACCEPTANCE_LINES.append(
                    f"criterion {number} ({name}): FAIL  {detail}"
                )
                raise
            ACCEPTANCE_LINES.append(f"criterion {number} ({name}): PASS")

        return run

    return wrap


def plain_instance(profile, preset, order_kind="score"):
    return ElectionInstance(
        profile, ConstraintSet.empty(), WeaklySeparableRule(preset), order_kind
    )


@criterion(1, "fixed-profile optima")
def test_fixed_profile_regression(profile_a):
    started = time.perf_counter()

    sntv = solve_instance(plain_instance(profile_a, "sntv"))
    assert sntv.status == "optimal"
    assert set(sntv.committee) == {"a", "d"} and sntv.score == 4

    borda = solve_instance(plain_instance(profile_a, "borda"))
    assert borda.status == "optimal"
    assert set(borda.committee) == {"b", "c"} and borda.score == 17

    bloc_instance = plain_instance(profile_a, "bloc")
    bloc = solve_instance(bloc_instance)
    assert bloc.status == "optimal"
    assert bloc.committee == ("a", "c") and bloc.score == 6

    # the bloc winner is one of a three-way tie; enumerate the whole class
    order = build_order(bloc_instance)
    tied = [
        committee
        for committee in itertools.combinations(profile_a.candidates, 2)
        if compare(order, committee, bloc.committee) == 0
    ]
    assert tied == [("a", "c"), ("b", "c"), ("c", "d")]
    for left, right in itertools.combinations(tied, 2):
        assert compare(order, left, right) == 0

    assert time.perf_counter() - started < 1.0


@criterion(2, "transferable-vote trace")
def test_stv_regression(profile_b):
    started = time.perf_counter()

    simple = stv_ranking(profile_b, "simple")
    worlds = stv_simple_all_rankings(profile_b)
    assert simple == ("a", "c", "b", "d")
    assert simple in worlds
    assert {frozenset(world[:2]) for world in worlds} == {
        frozenset("ab"),
        frozenset("ac"),
    }

    rounds = stv_rounds(profile_b, "droop_gregory")
    first, second = rounds[0], rounds[1]
    assert (first.action, first.candidate) == ("elect", "a")
    assert first.tallies == {"a": 4, "b": 1, "c": 1, "d": 0}
    # electing a at quota 3 leaves surplus 1, split 3/4 to b and 1/4 to c
    assert second.tallies["b"] - first.tallies["b"] == Fraction(3, 4)
    assert second.tallies["c"] - first.tallies["c"] == Fraction(1, 4)
    assert all(
        isinstance(value, Fraction)
        for stage in rounds
        for value in stage.tallies.values()
    )
    assert second.tallies == {"b": Fraction(7, 4), "c": Fraction(5, 4), "d": 0}

    droop = stv_ranking(profile_b, "droop_gregory")
    assert droop == ("a", "b", "c", "d")
    assert frozenset(droop[:2]) == frozenset("ab")

    assert time.perf_counter() - started < 1.0


def random_order(kind, scores, rng):
    if kind == "score":
        return scores
    if kind == "leximax":
        return leximax_weights(scores)
    if kind == "leximin":
        return leximin_weights(scores)
    pool = sorted(scores)
    return obligatory_first(scores, rng.sample(pool, rng.randint(0, len(pool))))


@criterion(3, "responsiveness audit")
def test_shared_extensions_never_flip_comparisons():
    rng = random.Random(2026)
    violations = 0
    for kind in ("score", "leximax", "leximin", "wrapped"):
        for _ in range(10_000):
            m = rng.randint(2, 10)
            names = [f"c{i}" for i in range(m)]
            scores = {name: Fraction(rng.randint(0, 5)) for name in names}
            order = random_order(kind, scores, rng)
            size = rng.randint(0, m)
            first = frozenset(rng.sample(names, size))
            second = frozenset(rng.sample(names, size))
            rest = sorted(set(names) - first - second)
            extension = frozenset(rng.sample(rest, rng.randint(0, len(rest))))
            before = compare(order, first, second)
            after = compare(order, first | extension, second | extension)
            if (before > 0 and after < 0) or (before == 0 and after != 0):
                violations += 1
    assert violations == 0

    # ranking by the second-best member alone genuinely lacks the property:
    # with a > b > c > d > e, {c,d} beats {a,e} on second-best members (d
    # over e), yet adding b to both flips the comparison (b over c)
    scores = dict(zip("abcde", range(5, 0, -1)))
    levels = sorted(set(scores.values()), reverse=True)
    tier_of = {c: levels.index(score) for c, score in scores.items()}

    def second_best(committee):
        return sorted(tier_of[c] for c in committee)[1]

    assert second_best("cd") < second_best("ae")
    assert second_best("bcd") > second_best("abe")


RULE_CYCLE = (
    WeaklySeparableRule("borda"),
    WeaklySeparableRule("sntv"),
    WeaklySeparableRule("bloc"),
    StvRule("simple"),
    StvRule("droop_gregory"),
)


@pytest.fixture(scope="session")
def tree_suite():
    """dp and oracle runs over 1,000 random tree-like disjoint instances."""
    cases = []
    started = time.perf_counter()
    for i in range(1000):
        m = 4 + (i % 9)
        k = 1 + (i % min(5, m))
        labels = 1 + (i % min(4, m))
        voters = 2 + (i % 5)
        rule = RULE_CYCLE[i % len(RULE_CYCLE)]
        if isinstance(rule, StvRule):
            order_kind = ("leximax", "leximin")[i % 2]
        else:
            order_kind = ("score", "leximax", "leximin")[i % 3]
        instance = gen_random(
            m,
            voters,
            k,
            labels,
            "disjoint",
            "tree_like",
            10_000 + i,
            rule=rule,
            order_kind=order_kind,
        )
        dp = solve_instance(instance, "dp")
        oracle = solve_instance(instance, "oracle")
        cases.append((instance, dp, oracle))
    return cases, time.perf_counter() - started


@criterion(4, "tree solver agreement")
def test_tree_dp_matches_oracle(tree_suite):
    cases, elapsed = tree_suite
    assert len(cases) == 1000
    for instance, dp, oracle in cases:
        assert dp.status == oracle.status
        if dp.status == "optimal":
            order = build_order(instance)
            assert compare(order, dp.committee, oracle.committee) == 0
    assert elapsed < 60.0


@criterion(5, "region solver agreement")
def test_region_search_matches_oracle():
    started = time.perf_counter()
    presets = RULE_CYCLE[:3]
    for i in range(1000):
        m = 5 + (i % 8)
        k = 1 + (i % min(5, m))
        labels = 1 + (i % 4)
        voters = 2 + (i % 5)
        instance = gen_random(
            m,
            voters,
            k,
            labels,
            "overlapping",
            "arbitrary",
            50_000 + i,
            rule=presets[i % 3],
            order_kind="score",
        )
        region = solve_instance(instance, "region")
        oracle = solve_instance(instance, "oracle")
        assert region.status == oracle.status
        if region.status == "optimal":
            assert region.score == oracle.score
            assert region.committee == oracle.committee
    assert time.perf_counter() - started < 60.0


def all_graphs(num_vertices):
    pairs = list(itertools.combinations(range(num_vertices), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(
            num_vertices,
            tuple(pair for i, pair in enumerate(pairs) if mask >> i & 1),
        )


def random_graph(rng, num_vertices, density=0.5):
    edges = tuple(
        pair
        for pair in itertools.combinations(range(num_vertices), 2)
        if rng.random() < density
    )
    return Graph(num_vertices, edges)


def clique_reachability(generator, graph, clique_size):
    """Solve the generated instance outright and compare with the graph.

    Returns whether some feasible committee matches the blocked reference
    group; also enforces the score ceiling C(k, 2) on the optimum.
    """
    instance = generator(graph, clique_size)
    order = build_order(instance)
    pairs = clique_size * (clique_size - 1) // 2
    assert key(order, instance.reference) == pairs
    budget = OracleBudget(
        max_candidates=max(14, instance.profile.num_candidates),
        max_committee_enumeration=10**6,
    )
    witness = reference_witness(
        instance.profile.candidates,
        instance.k,
        instance.constraints,
        order,
        instance.reference,
        budget,
    )
    # any other optimum scores below the reference, so under the ceiling
    if witness is not None:
        assert witness.score <= pairs
    return witness is not None


@criterion(6, "reduction fidelity")
def test_reductions_mirror_graph_problems():
    # cover reductions, exhaustively on up to five vertices, every size
    for n in range(1, 6):
        for graph in all_graphs(n):
            for k in range(0, n + 1):
                expected = has_cover(graph, k)
                assert feasible(gen_vertex_cover_intervals(graph, k), k) == expected
                if k >= 1:
                    assert (
                        feasible(gen_vertex_cover_dominance(graph, k), k)
                        == expected
                    )

    # six vertices: every graph, probed at the minimum cover size and just
    # below it; the smaller sweeps above establish monotonicity in k, and
    # the constraint sets do not depend on k, so each build is reused
    for graph in all_graphs(6):
        tau = min_cover_size(graph)
        intervals = gen_vertex_cover_intervals(graph, tau)
        assert feasible(intervals, tau)
        if tau >= 1:
            dominance = gen_vertex_cover_dominance(graph, tau)
            assert feasible(dominance, tau)
            assert not feasible(intervals, tau - 1)
            if tau >= 2:
                assert not feasible(dominance, tau - 1)

    # 200 random graphs on up to eight vertices, random cover sizes
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(6, 8)
        graph = random_graph(rng, n)
        k = rng.randint(0, n)
        expected = has_cover(graph, k)
        assert feasible(gen_vertex_cover_intervals(graph, k), k) == expected
        if k >= 1:
            assert feasible(gen_vertex_cover_dominance(graph, k), k) == expected

    # clique reduction under plurality scores: exhaustive where the oracle
    # stays cheap, sampled at the expensive sizes
    for graph in all_graphs(2):
        assert clique_reachability(gen_clique_sntv, graph, 2) == has_clique(graph, 2)
    for n, sizes in ((3, (2, 3)), (4, (2, 3))):
        for graph in all_graphs(n):
            for k in sizes:
                assert clique_reachability(gen_clique_sntv, graph, k) == has_clique(
                    graph, k
                )
    for graph in all_graphs(5):
        assert clique_reachability(gen_clique_sntv, graph, 2) == has_clique(graph, 2)
    rng = random.Random(8)
    for _ in range(15):
        graph = random_graph(rng, 5)
        assert clique_reachability(gen_clique_sntv, graph, 3) == has_clique(graph, 3)
    near_k4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))
    complete = Graph(4, tuple(itertools.combinations(range(4), 2)))
    for graph, k in ((near_k4, 3), (near_k4, 4), (complete, 4)):
        assert clique_reachability(gen_clique_sntv, graph, k) == has_clique(graph, k)
    for _ in range(3):
        graph = random_graph(rng, 4)
        assert clique_reachability(gen_clique_sntv, graph, 4) == has_clique(graph, 4)
    for _ in range(60):
        graph = random_graph(rng, rng.randint(5, 7))
        assert clique_reachability(gen_clique_sntv, graph, 2) == has_clique(graph, 2)

    # clique reduction under top-K approval, on the sizes the padding step
    # leaves alone
    for graph in all_graphs(2):
        assert clique_reachability(gen_clique_bloc, graph, 2) == has_clique(graph, 2)
    for n in (3, 4):
        for graph in all_graphs(n):
            assert _pad_for_bloc(graph, 3)[0] is graph
            assert clique_reachability(gen_clique_bloc, graph, 3) == has_clique(
                graph, 3
            )

    # the padding step itself: universal vertices lift a sparse graph's
    # 2-clique question to a 20-clique question, verified by brute force
    padded, lifted = _pad_for_bloc(Graph(6, ((0, 1),)), 2)
    assert (padded.num_vertices, lifted) == (24, 20)
    assert has_clique(padded, 20)
    empty_padded, lifted_empty = _pad_for_bloc(Graph(6, ()), 2)
    assert lifted_empty == 20
    assert not has_clique(empty_padded, 20)
    instance = gen_clique_bloc(Graph(6, ((0, 1),)), 2)
    assert key(build_order(instance), instance.reference) == 190


@criterion(7, "preprocessing soundness")
def test_tree_dp_outputs_respect_original_constraints(tree_suite):
    cases, _ = tree_suite
    for instance, dp, oracle in cases:
        if dp.status == "optimal":
            assert check_committee(dp.committee, instance.k, instance.constraints) == ()
        else:
            assert oracle.status == "infeasible"


@criterion(8, "tractability gap")
def test_chain_instance_separates_dp_from_oracle():
    groups = {
        f"g{j:02d}": tuple(f"c{j:02d}_{i}" for i in range(10)) for j in range(40)
    }
    candidates = tuple(sorted(c for members in groups.values() for c in members))
    dominances = tuple(
        Dominance(f"g{j:02d}", f"g{j + 1:02d}") for j in range(39)
    )
    profile = ElectionProfile.build(candidates, (candidates,), 20)
    instance = ElectionInstance(
        profile,
        ConstraintSet.build(groups, (), dominances),
        WeaklySeparableRule("borda"),
        "score",
    )
    assert instance.profile.num_candidates == 400
    assert choose_solver(instance) == "dp"

    started = time.perf_counter()
    result = solve_instance(instance)
    elapsed = time.perf_counter() - started
    assert result.status == "optimal" and result.solver == "dp"
    assert elapsed < 10.0

    # the chain is aligned with the score order, so the unconstrained top
    # twenty is feasible and must be the optimum
    scores = build_order(instance)
    assert result.score == sum(sorted(scores.values(), reverse=True)[:20])
    counts = [
        sum(1 for c in result.committee if c in members)
        for members in groups.values()
    ]
    assert all(left >= right for left, right in zip(counts, counts[1:]))

    with pytest.raises(BudgetExceededError):
        solve_instance(instance, "oracle")
