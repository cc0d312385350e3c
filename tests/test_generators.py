"""Graph handling, reduction generators, and random instances."""

import pytest

from comsel import (
    BudgetExceededError,
    Graph,
    InputError,
    Interval,
    OracleBudget,
    StvRule,
    WeaklySeparableRule,
    build_order,
    gen_clique_bloc,
    gen_clique_sntv,
    gen_random,
    gen_vertex_cover_dominance,
    gen_vertex_cover_intervals,
    parse_graph,
)
from comsel import generators
from comsel.generators import _pad_for_bloc
from conftest import (
    feasible, format_graph, has_clique, has_cover, reference_witness,
)

TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))
PATH = Graph(3, ((0, 1), (1, 2)))
SINGLE_EDGE = Graph(2, ((0, 1),))
TWO_EDGES = Graph(4, ((0, 1), (2, 3)))
NEAR_K4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))


def reference_reachable(instance):
    budget = OracleBudget(max_candidates=max(14, instance.profile.num_candidates))
    witness = reference_witness(
        instance.profile.candidates,
        instance.profile.k,
        instance.constraints,
        build_order(instance),
        instance.reference,
        budget,
    )
    return witness is not None


class TestGraph:
    def test_edges_normalized_and_sorted(self):
        graph = Graph(3, ((2, 1), (1, 0)))
        assert graph.edges == ((0, 1), (1, 2))
        assert graph.num_edges == 2

    def test_rejects_loops_duplicates_and_strays(self):
        with pytest.raises(InputError, match="self-loop"):
            Graph(2, ((1, 1),))
        with pytest.raises(InputError, match="duplicate edge"):
            Graph(2, ((0, 1), (1, 0)))
        with pytest.raises(InputError, match="missing vertex"):
            Graph(2, ((0, 2),))

    def test_round_trip(self):
        text = format_graph(TRIANGLE)
        assert text == "3 3\n0 1\n0 2\n1 2\n"
        assert parse_graph(text) == TRIANGLE

    def test_parse_accepts_blank_lines(self):
        assert parse_graph("\n2 1\n\n0 1\n\n") == SINGLE_EDGE

    def test_parse_errors(self):
        cases = (
            "",
            "2\n",
            "2 2\n0 1\n",
            "2 1\nzero one\n",
            "2 1\n0 1 2\n",
            "2 1\n0 3\n",
            "-1 0\n",
            "--3 0\n",
            "2 1\n0 \u00b2\n",
            "2 1\n0 " + "1" * 5000 + "\n",
        )
        for text in cases:
            with pytest.raises(InputError) as info:
                parse_graph(text)
            assert info.value.code == "invalid-graph"


class TestVertexCoverIntervals:
    def test_shape(self):
        instance = gen_vertex_cover_intervals(TRIANGLE, 2)
        assert instance.profile.candidates == ("v0", "v1", "v2")
        assert instance.profile.k == 2
        assert instance.constraints.labeling.names == ("e0_1", "e0_2", "e1_2")
        assert instance.constraints.intervals == (
            Interval("e0_1", 1, 2),
            Interval("e0_2", 1, 2),
            Interval("e1_2", 1, 2),
        )
        assert instance.rule == WeaklySeparableRule("sntv")

    def test_cover_correspondence_on_named_graphs(self):
        assert feasible(gen_vertex_cover_intervals(TRIANGLE, 2))
        assert feasible(gen_vertex_cover_intervals(PATH, 1))
        assert not feasible(gen_vertex_cover_intervals(SINGLE_EDGE, 0))
        assert not feasible(gen_vertex_cover_intervals(TWO_EDGES, 1))

    def test_cover_size_bounds(self):
        with pytest.raises(InputError, match="cover size"):
            gen_vertex_cover_intervals(TRIANGLE, 4)
        with pytest.raises(InputError, match="at least one vertex"):
            gen_vertex_cover_intervals(Graph(0, ()), 0)

    def test_edgeless_graph_is_always_coverable(self):
        assert feasible(gen_vertex_cover_intervals(Graph(3, ()), 0))


class TestVertexCoverDominance:
    def test_shape(self):
        instance = gen_vertex_cover_dominance(PATH, 1)
        labeling = instance.constraints.labeling
        # one label per edge plus one singleton per vertex
        assert len(labeling) == PATH.num_edges + PATH.num_vertices
        assert len(instance.constraints.dominances) == (
            PATH.num_edges * PATH.num_vertices
        )
        assert instance.constraints.intervals == ()

    def test_cover_correspondence_on_named_graphs(self):
        assert feasible(gen_vertex_cover_dominance(TRIANGLE, 2))
        assert feasible(gen_vertex_cover_dominance(PATH, 1))
        assert not feasible(gen_vertex_cover_dominance(TWO_EDGES, 1))

    def test_empty_committee_is_vacuously_feasible(self):
        # the dominance encoding cannot express "pick anything at all"
        assert feasible(gen_vertex_cover_dominance(SINGLE_EDGE, 0))
        assert not feasible(gen_vertex_cover_intervals(SINGLE_EDGE, 0))


class TestCliqueSntv:
    def test_shape(self):
        instance = gen_clique_sntv(TRIANGLE, 3)
        assert len(instance.reference) == 3 + 3
        assert instance.profile.k == 6
        assert Interval("ref", 0, 0) in instance.constraints.intervals
        # picking an edge requires both endpoints
        assert len(instance.constraints.dominances) == 2 * TRIANGLE.num_edges

    def test_scores(self):
        instance = gen_clique_sntv(TRIANGLE, 3)
        scores = build_order(instance)
        for name in ("v0", "v1", "v2"):
            assert scores[name] == 0
        for name in ("e0_1", "e0_2", "e1_2"):
            assert scores[name] == 1
        assert sorted(scores[r] for r in instance.reference) == [0, 0, 0, 1, 1, 1]

    def test_clique_correspondence_on_named_graphs(self):
        triangle = gen_clique_sntv(TRIANGLE, 3)
        assert reference_reachable(triangle)
        path = gen_clique_sntv(PATH, 3)
        assert not reference_reachable(path)
        near = gen_clique_sntv(NEAR_K4, 3)
        assert reference_reachable(near)
        near4 = gen_clique_sntv(NEAR_K4, 4)
        assert not reference_reachable(near4)

    def test_clique_size_must_be_at_least_two(self):
        with pytest.raises(InputError, match="at least 2"):
            gen_clique_sntv(TRIANGLE, 1)


class TestCliqueBloc:
    def test_small_graphs_skip_padding(self):
        assert _pad_for_bloc(TRIANGLE, 3) == (TRIANGLE, 3)

    def test_padding_adds_universal_vertices(self):
        sparse = Graph(6, ((0, 1),))
        padded, target = _pad_for_bloc(sparse, 2)
        assert padded.num_vertices == 24
        assert target == 20
        # every added vertex neighbours everything before it
        assert padded.num_edges == 1 + sum(range(6, 24))
        adjacency = set(padded.edges)
        for new in range(6, 24):
            assert all((old, new) in adjacency for old in range(new))

    def test_shape_without_padding(self):
        instance = gen_clique_bloc(TRIANGLE, 3)
        assert instance.profile.num_voters == 3
        assert instance.rule == WeaklySeparableRule("bloc")
        assert len(instance.reference) == 6
        labeling = instance.constraints.labeling
        assert len(labeling.members("dum")) == 6
        assert Interval("dum", 0, 0) in instance.constraints.intervals
        assert Interval("ref", 0, 0) in instance.constraints.intervals

    def test_scores_every_edge_approved_once(self):
        instance = gen_clique_bloc(TRIANGLE, 3)
        scores = build_order(instance)
        for name in ("v0", "v1", "v2"):
            assert scores[name] == 0
        for name in ("e0_1", "e0_2", "e1_2"):
            assert scores[name] == 1
        assert sorted(scores[r] for r in instance.reference) == [0, 0, 0, 1, 1, 1]

    def test_clique_correspondence_on_named_graphs(self):
        triangle = gen_clique_bloc(TRIANGLE, 3)
        assert reference_reachable(triangle)
        path = gen_clique_bloc(PATH, 3)
        assert not reference_reachable(path)

    def test_padded_scores_stay_structured(self):
        instance = gen_clique_bloc(Graph(6, ((0, 1), (2, 3))), 2)
        scores = build_order(instance)
        for name in instance.profile.candidates:
            if name.startswith("v"):
                assert scores[name] == 0
            elif name.startswith("e"):
                assert scores[name] == 1
        pairs = 20 * 19 // 2
        assert sum(scores[r] for r in instance.reference) == pairs


class TestRandomInstances:
    def test_same_seed_same_instance(self):
        first = gen_random(8, 4, 3, 3, "disjoint", "tree_like", seed=7)
        second = gen_random(8, 4, 3, 3, "disjoint", "tree_like", seed=7)
        assert first == second

    def test_different_seeds_differ(self):
        first = gen_random(8, 4, 3, 3, "disjoint", "tree_like", seed=0)
        second = gen_random(8, 4, 3, 3, "disjoint", "tree_like", seed=1)
        assert first != second

    def test_disjoint_tree_like_matches_the_dp_contract(self):
        for seed in range(25):
            instance = gen_random(10, 3, 4, 3, "disjoint", "tree_like", seed=seed)
            labeling = instance.constraints.labeling
            assert labeling.is_disjoint
            assert instance.constraints.chain_violation is None
            assert len(labeling) == 3

    def test_overlapping_mode_produces_overlaps(self):
        overlapped = False
        for seed in range(20):
            instance = gen_random(10, 3, 4, 4, "overlapping", "arbitrary", seed=seed)
            overlapped = overlapped or not instance.constraints.labeling.is_disjoint
        assert overlapped

    def test_interval_bounds_are_individually_satisfiable(self):
        for seed in range(30):
            instance = gen_random(9, 3, 3, 3, "overlapping", "arbitrary", seed=seed)
            labeling = instance.constraints.labeling
            for interval in instance.constraints.intervals:
                size = len(labeling.members(interval.label))
                assert interval.lower <= min(size, instance.k)
                assert interval.upper <= size

    def test_rule_and_order_overrides(self):
        plain = gen_random(6, 2, 2, 2, seed=3)
        assert plain.rule == WeaklySeparableRule("borda")
        assert plain.order_kind == "score"
        stv = gen_random(6, 2, 2, 2, seed=3, rule=StvRule("simple"))
        assert stv.order_kind == "leximax"
        lexi = gen_random(6, 2, 2, 2, seed=3, order_kind="leximin")
        assert lexi.order_kind == "leximin"

    def test_argument_validation(self):
        with pytest.raises(InputError, match="at least one candidate"):
            gen_random(0, 1, 0, 0)
        with pytest.raises(InputError, match="at least one voter"):
            gen_random(3, 0, 1, 0)
        with pytest.raises(InputError, match="committee size"):
            gen_random(3, 1, 4, 0)
        with pytest.raises(InputError, match="unknown mode"):
            gen_random(3, 1, 1, 1, mode="clustered")
        with pytest.raises(InputError, match="unknown structure"):
            gen_random(3, 1, 1, 1, structure="dag")
        with pytest.raises(InputError, match="disjoint nonempty"):
            gen_random(3, 1, 1, 4, mode="disjoint")

    def test_zero_labels(self):
        instance = gen_random(5, 2, 2, 0, seed=1)
        assert len(instance.constraints.labeling) == 0
        assert instance.constraints.dominances == ()


def test_generated_feasibility_matches_graph_search():
    # small random graphs, both cover encodings and the sntv clique encoding
    import random

    rng = random.Random(99)
    for trial in range(25):
        vertices = rng.randint(2, 6)
        pool = [
            (u, v) for u in range(vertices) for v in range(u + 1, vertices)
        ]
        edges = tuple(e for e in pool if rng.random() < 0.5)
        graph = Graph(vertices, edges)
        k = rng.randint(1, vertices)
        expected = has_cover(graph, k)
        assert feasible(gen_vertex_cover_intervals(graph, k)) == expected
        assert feasible(gen_vertex_cover_dominance(graph, k)) == expected
        instance = gen_clique_sntv(graph, 2)
        assert reference_reachable(instance) == has_clique(graph, 2)


def test_size_cap_counts_what_each_reduction_builds(monkeypatch):
    # the cap is checked from the graph's counts before anything is built;
    # set to what each reduction then builds, it admits the instance, and
    # one entry lower it refuses it
    sparse = Graph(6, ((0, 1),))
    cases = [
        (gen_vertex_cover_intervals, TRIANGLE, 2),
        (gen_vertex_cover_dominance, NEAR_K4, 2),
        (gen_clique_sntv, NEAR_K4, 3),
        (gen_clique_bloc, TRIANGLE, 3),
        (gen_clique_bloc, sparse, 2),
    ]
    for generate, graph, size in cases:
        instance = generate(graph, size)
        profile = instance.profile
        built = profile.num_candidates * profile.num_voters + len(
            instance.constraints.dominances
        )
        monkeypatch.setattr(generators, "MAX_REDUCTION_ENTRIES", built)
        assert generate(graph, size) == instance
        monkeypatch.setattr(generators, "MAX_REDUCTION_ENTRIES", built - 1)
        with pytest.raises(BudgetExceededError):
            generate(graph, size)
        monkeypatch.undo()
