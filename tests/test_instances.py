"""Instance records, rule objects, and solver routing."""

import json
import sys

import pytest

from comsel import (
    ConstraintSet,
    ContractViolation,
    Dominance,
    ElectionInstance,
    ElectionProfile,
    InputError,
    Interval,
    StvRule,
    WeaklySeparableRule,
    build_order,
    choose_solver,
    leximax_weights,
    leximin_weights,
    score_all,
    solve_instance,
)
from comsel.cli import parse_instance


def make(profile, rule=WeaklySeparableRule("borda"), order_kind="score", **kw):
    return ElectionInstance(
        profile, kw.pop("constraints", ConstraintSet.empty()), rule, order_kind, **kw
    )


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` wherever a comsel module binds it; the returned
    list gains one entry per call."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, loaded in list(sys.modules.items()):
        if module_name == "comsel" or module_name.startswith("comsel."):
            for key, value in list(vars(loaded).items()):
                if value is original:
                    monkeypatch.setattr(loaded, key, counting)
    return calls


class TestRules:
    def test_preset_names_checked(self):
        WeaklySeparableRule("sntv")
        for bad in ("approval", 42):
            with pytest.raises(InputError, match="unknown scoring preset"):
                WeaklySeparableRule(bad)

    def test_explicit_vector_coerced(self):
        rule = WeaklySeparableRule((3, 1, 0))
        three = ElectionProfile.build("abc", ("abc",), 1)
        assert rule.vector(three) == (3, 1, 0)
        # the vector coerced once by the constructor is the one scored
        assert rule.vector(three) is rule.gamma
        with pytest.raises(InputError, match="entries"):
            rule.vector(ElectionProfile.build("abcd", ("abcd",), 1))

    def test_empty_vector_rejected(self):
        with pytest.raises(InputError, match="at least one entry"):
            WeaklySeparableRule(())

    def test_bloc_preset_uses_the_committee_size(self):
        rule = WeaklySeparableRule("bloc")
        profile = ElectionProfile.build("abcd", ("abcd",), 2)
        assert rule.vector(profile) == (1, 1, 0, 0)

    def test_stv_variant_checked(self):
        StvRule("droop_gregory")
        with pytest.raises(InputError, match="unknown stv variant"):
            StvRule("warren")


class TestInstanceValidation:
    def test_score_order_requires_scores(self, profile_b):
        with pytest.raises(InputError, match="per-candidate scores"):
            make(profile_b, rule=StvRule("simple"), order_kind="score")
        # lexi orders work fine over the stv ranking
        make(profile_b, rule=StvRule("simple"), order_kind="leximax")

    def test_unknown_rule_object(self, profile_a):
        with pytest.raises(InputError, match="unsupported rule object") as info:
            make(profile_a, rule=object())
        assert info.value.code == "invalid-rule"

    def test_unknown_order_kind(self, profile_a):
        with pytest.raises(InputError, match="unknown order"):
            make(profile_a, order_kind="pareto")

    def test_labels_checked_against_candidates(self, profile_a):
        constraints = ConstraintSet.build({"l": "az"})
        with pytest.raises(InputError, match="unknown candidates: z"):
            make(profile_a, constraints=constraints)

    def test_explicit_vector_length_checked_eagerly(self, profile_a):
        with pytest.raises(InputError, match="entries"):
            make(profile_a, rule=WeaklySeparableRule((1, 0)))

    def test_reference_committee_validation(self, profile_a):
        make(profile_a, reference=("a", "c"))
        with pytest.raises(InputError, match="distinct"):
            make(profile_a, reference=("a", "a"))
        with pytest.raises(InputError, match="unknown candidates"):
            make(profile_a, reference=("a", "z"))
        with pytest.raises(InputError, match="expected 2"):
            make(profile_a, reference=("a", "b", "c"))

    def test_k_property(self, profile_a):
        assert make(profile_a).k == 2


class TestDerivedObjects:
    def test_score_order_weighs_by_the_rules_scores(self, profile_a):
        assert build_order(make(profile_a)) == {"a": 7, "b": 8, "c": 9, "d": 6}

    def test_lexi_orders_of_scored_instance_tie_equal_scores(self, profile_a):
        sntv = WeaklySeparableRule("sntv")  # tiers a=d, then b, then c
        leximax = build_order(make(profile_a, rule=sntv, order_kind="leximax"))
        assert leximax == {"a": 4, "d": 4, "b": 2, "c": 1}
        leximin = build_order(make(profile_a, rule=sntv, order_kind="leximin"))
        assert leximin == {"a": -1, "d": -1, "b": -3, "c": -6}

    def test_lexi_order_of_stv_instance(self, profile_b):
        # the stv ranking a, c, b, d, worst tier most significant
        instance = make(profile_b, rule=StvRule(), order_kind="leximin")
        assert build_order(instance) == {"a": -1, "c": -2, "b": -4, "d": -8}

    def test_build_order_kinds(self, profile_a):
        scores = score_all(profile_a, WeaklySeparableRule("borda"))
        assert build_order(make(profile_a)) == scores
        for kind, weights in (
            ("leximax", leximax_weights), ("leximin", leximin_weights)
        ):
            assert build_order(make(profile_a, order_kind=kind)) == weights(scores)


class TestRouting:
    def test_unlabeled_instances_use_the_region_search(self, profile_a):
        assert choose_solver(make(profile_a)) == "region"

    def test_disjoint_tree_like_labelings_use_dp(self, profile_a):
        constraints = ConstraintSet.build(
            {"l1": "ab", "l2": "cd"}, dominances=(Dominance("l1", "l2"),)
        )
        instance = make(profile_a, constraints=constraints)
        assert choose_solver(instance) == "dp"
        assert solve_instance(instance).solver == "dp"

    def test_dp_applies_to_lexi_orders_too(self, profile_a):
        constraints = ConstraintSet.build({"l1": "ab", "l2": "cd"})
        instance = make(profile_a, constraints=constraints, order_kind="leximax")
        assert choose_solver(instance) == "dp"

    def test_overlapping_labels_fall_back_to_region(self, profile_a):
        overlapping = ConstraintSet.build({"l1": "ab", "l2": "bc"})
        assert choose_solver(make(profile_a, constraints=overlapping)) == "region"
        lexi = make(profile_a, constraints=overlapping, order_kind="leximin")
        assert choose_solver(lexi) == "region"

    def test_non_tree_like_score_instances_use_region(self, profile_a):
        constraints = ConstraintSet.build(
            {"l1": "a", "l2": "b", "l3": "c"},
            dominances=(Dominance("l1", "l3"), Dominance("l2", "l3")),
        )
        assert choose_solver(make(profile_a, constraints=constraints)) == "region"

    def test_stv_instances_route_to_the_region_search_without_labels(
        self, profile_b
    ):
        instance = make(profile_b, rule=StvRule(), order_kind="leximax")
        assert choose_solver(instance) == "region"
        result = solve_instance(instance)
        assert result.solver == "region"
        assert result.committee == ("a", "c")
        assert result.score is None

    def test_unknown_solver_name(self, profile_a):
        with pytest.raises(InputError, match="unknown solver"):
            solve_instance(make(profile_a), solver="ilp")

    def test_forcing_region_solves_lexi_orders(self, profile_b):
        for order_kind in ("leximax", "leximin"):
            instance = make(profile_b, rule=StvRule(), order_kind=order_kind)
            region = solve_instance(instance, solver="region")
            oracle = solve_instance(instance, solver="oracle")
            assert region.solver == "region"
            assert region.committee == oracle.committee
            assert region.score is oracle.score is None
        # a disjoint tree-like instance forced to dp reports no lexi score
        # either, also when a lower bound lifts obligatory weights
        tree = ConstraintSet.build(
            {"l1": "ab", "l2": "cd"},
            intervals=(Interval("l2", 1, 2),),
            dominances=(Dominance("l1", "l2"),),
        )
        instance = make(
            profile_b, rule=StvRule(), order_kind="leximax", constraints=tree
        )
        dp = solve_instance(instance, solver="dp")
        oracle = solve_instance(instance, solver="oracle")
        assert dp.solver == "dp"
        assert dp.committee == oracle.committee
        assert dp.score is oracle.score is None

    def test_forcing_dp_on_non_tree_like_labels_raises(self, profile_a):
        constraints = ConstraintSet.build(
            {"l1": "a", "l2": "b", "l3": "c"},
            dominances=(Dominance("l1", "l3"), Dominance("l2", "l3")),
        )
        with pytest.raises(ContractViolation, match="not tree-like"):
            solve_instance(make(profile_a, constraints=constraints), solver="dp")

    def test_dp_solve_closes_dominance_once_and_verifies_once(
        self, profile_a, monkeypatch
    ):
        import comsel.constraints

        closures = count_calls(monkeypatch, comsel.constraints, "transitive_closure")
        checks = count_calls(monkeypatch, comsel.constraints, "check_committee")
        constraints = ConstraintSet.build(
            {"l1": "a", "l2": "b", "l3": "c"},
            dominances=(Dominance("l1", "l2"), Dominance("l2", "l3")),
        )
        result = solve_instance(make(profile_a, constraints=constraints))
        assert result.solver == "dp"
        assert result.is_optimal
        assert len(closures) == 1
        assert len(checks) == 1

    def test_order_reads_the_rule_through_module_bindings(
        self, profile_a, profile_b, monkeypatch
    ):
        # perfbench's spans time scoring and ranking by wrapping these names
        # wherever a comsel module binds them, as count_calls does
        import comsel.elections
        import comsel.stv

        scored = count_calls(monkeypatch, comsel.elections, "score_all")
        ranked = count_calls(monkeypatch, comsel.stv, "stv_ranking")
        for kind in ("score", "leximax", "leximin"):
            scored.clear()
            assert solve_instance(make(profile_a, order_kind=kind)).is_optimal
            assert len(scored) == 1, kind
        stv = make(profile_b, rule=StvRule(), order_kind="leximax")
        assert solve_instance(stv).is_optimal
        assert len(ranked) == 1
        assert len(scored) == 1

    def test_scoring_function_built_once_per_document(self, monkeypatch):
        original = WeaklySeparableRule.__post_init__
        built = []

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(WeaklySeparableRule, "__post_init__", counting)
        for gamma in ([5, 4, 3, 1], "borda"):
            built.clear()
            doc = {
                "candidates": ["a", "b", "c", "d"],
                "voters": [["a", "c", "d", "b"], ["b", "a", "c", "d"]],
                "k": 2,
                "rule": {"type": "weakly_separable", "gamma": gamma},
            }
            result = solve_instance(parse_instance(json.dumps(doc)))
            assert result.is_optimal
            assert len(built) == 1, gamma

    def test_forced_solvers_agree(self, profile_a):
        constraints = ConstraintSet.build(
            {"l1": "ab", "l2": "cd"}, dominances=(Dominance("l1", "l2"),)
        )
        instance = make(profile_a, constraints=constraints)
        results = {
            name: solve_instance(instance, solver=name)
            for name in ("dp", "region", "oracle")
        }
        assert len({r.committee for r in results.values()}) == 1
        assert len({r.score for r in results.values()}) == 1
