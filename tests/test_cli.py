"""JSON document parsing, serialization, and the command-line verbs."""

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from comsel import (
    InputError, StvRule, WeaklySeparableRule, gen_random, solve_instance,
)
from comsel import cli, generators
from comsel.cli import (
    build_parser,
    instance_to_document,
    main,
    parse_instance,
    result_to_document,
    serialize_instance,
)


def document(**overrides):
    doc = {
        "candidates": ["a", "b", "c", "d"],
        "voters": [
            ["a", "c", "b", "d"],
            ["a", "c", "b", "d"],
            ["d", "c", "b", "a"],
            ["d", "b", "c", "a"],
            ["b", "c", "a", "d"],
        ],
        "k": 2,
        "labels": {},
        "constraints": [],
        "rule": {"type": "weakly_separable", "gamma": "borda"},
        "order": "score",
    }
    doc.update(overrides)
    return doc


def parse(**overrides):
    return parse_instance(json.dumps(document(**overrides)))


def expect_code(code, **overrides):
    with pytest.raises(InputError) as info:
        parse(**overrides)
    assert info.value.code == code, str(info.value)
    return str(info.value)


class TestParseInstance:
    def test_accepts_the_base_document(self):
        instance = parse()
        assert instance.profile.num_candidates == 4
        assert instance.profile.num_voters == 5
        assert instance.k == 2
        assert instance.rule == WeaklySeparableRule("borda")
        assert instance.order_kind == "score"

    def test_labels_constraints_and_order_are_optional(self):
        doc = document()
        for field in ("labels", "constraints", "order"):
            del doc[field]
        instance = parse_instance(json.dumps(doc))
        assert instance.order_kind == "score"
        assert len(instance.constraints.labeling) == 0

    def test_malformed_json(self):
        with pytest.raises(InputError) as info:
            parse_instance("not json {")
        assert info.value.code == "malformed-json"
        with pytest.raises(InputError) as info:
            parse_instance("[1, 2]")
        assert info.value.code == "malformed-json"
        # nesting deeper than the parser's recursion limit
        with pytest.raises(InputError) as info:
            parse_instance("[" * 100_000 + "]" * 100_000)
        assert info.value.code == "malformed-json"

    def test_unknown_top_level_field(self):
        expect_code("unknown-field", seats=3)

    def test_missing_fields(self):
        for field in ("candidates", "voters", "k", "rule"):
            doc = document()
            del doc[field]
            with pytest.raises(InputError) as info:
                parse_instance(json.dumps(doc))
            assert info.value.code == "missing-field"
            assert field in str(info.value)

    def test_profile_diagnostics(self):
        expect_code("malformed-field", candidates="abcd")
        expect_code("empty-profile", candidates=[], voters=[])
        expect_code("empty-profile", voters=[])
        expect_code("duplicate-candidate", candidates=["a", "b", "b", "d"])
        message = expect_code(
            "non-permutation-ranking",
            voters=[["a", "c", "b", "d"], ["a", "b", "c", "c"]],
        )
        assert "voter index 1" in message
        expect_code(
            "malformed-field", voters=[["a", "c", "b", "d"], ["a", ["b"], "c", "d"]]
        )
        expect_code("non-permutation-ranking", voters=[["a", "c", "b", 4]])
        # an unhashable entry is a malformed field whatever the ranking's length
        expect_code("malformed-field", voters=[[["a"]]])
        expect_code("malformed-field", voters=[["a", "b", "c", "d", {"x": 1}]])
        expect_code("malformed-field", voters=[["z", ["a"]]])
        expect_code("invalid-k", k="2")
        expect_code("invalid-k", k=True)
        expect_code("invalid-k", k=7)
        expect_code("invalid-k", k=-1)

    def test_label_diagnostics(self):
        expect_code("malformed-field", labels=[])
        expect_code("empty-label", labels={"": ["a"]})
        expect_code("empty-label", labels={"l": []})
        expect_code("unknown-candidate", labels={"l": ["a", "z"]})
        expect_code("malformed-field", labels={"l": "ab"})

    def test_constraint_diagnostics(self):
        expect_code("malformed-field", constraints={})
        expect_code("invalid-constraint", constraints=["quota"])
        expect_code("invalid-constraint", constraints=[{"type": "quota"}])
        expect_code(
            "invalid-constraint",
            labels={"l": ["a"]},
            constraints=[{"type": "interval", "label": "l", "min": 0}],
        )
        expect_code(
            "invalid-constraint",
            labels={"l": ["a"]},
            constraints=[
                {"type": "interval", "label": "l", "min": 0, "max": 1, "why": "x"}
            ],
        )
        expect_code(
            "unknown-label",
            constraints=[{"type": "interval", "label": "q", "min": 0, "max": 1}],
        )
        expect_code(
            "unknown-label",
            labels={"l": ["a"]},
            constraints=[{"type": "dominance", "over": "l", "under": "q"}],
        )
        message = expect_code(
            "invalid-interval-bounds",
            labels={"l": ["a"]},
            constraints=[{"type": "interval", "label": "l", "min": 2, "max": 1}],
        )
        assert "[2, 1]" in message
        expect_code(
            "invalid-interval-bounds",
            labels={"l": ["a"]},
            constraints=[{"type": "interval", "label": "l", "min": 0.5, "max": 1}],
        )

    def test_rule_diagnostics(self):
        expect_code("malformed-field", rule="borda")
        expect_code("invalid-rule", rule={"type": "plurality"})
        expect_code("invalid-rule", rule={"type": "stv"})
        expect_code("invalid-rule", rule={"type": "stv", "variant": "meek"})
        expect_code(
            "invalid-rule",
            rule={"type": "weakly_separable", "gamma": "borda", "k": 2},
        )
        expect_code("invalid-gamma", rule={"type": "weakly_separable", "gamma": "x"})
        expect_code("invalid-gamma", rule={"type": "weakly_separable", "gamma": 42})
        expect_code(
            "invalid-gamma",
            rule={"type": "weakly_separable", "gamma": [1, 0, "zero", 0]},
        )
        expect_code(
            "invalid-gamma",
            rule={"type": "weakly_separable", "gamma": [True, False, False, False]},
        )
        expect_code(
            "invalid-gamma", rule={"type": "weakly_separable", "gamma": [1, 0]}
        )
        for bad in (float("nan"), float("inf"), float("-inf")):
            expect_code(
                "invalid-gamma",
                rule={"type": "weakly_separable", "gamma": [bad, 1, 0, 0]},
            )

    def test_order_diagnostics(self):
        expect_code("invalid-order", order="lexicographic")
        stv = {"type": "stv", "variant": "simple"}
        expect_code("order-rule-mismatch", rule=stv, order="score")
        # the default order is score, so an stv rule must name one
        doc = document(rule=stv)
        del doc["order"]
        with pytest.raises(InputError) as info:
            parse_instance(json.dumps(doc))
        assert info.value.code == "order-rule-mismatch"
        parse(rule=stv, order="leximax")

    def test_reference_diagnostics(self):
        assert parse(reference=["a", "c"]).reference == ("a", "c")
        expect_code("invalid-reference", reference=["a", "a"])
        expect_code("invalid-reference", reference=["a", "z"])
        expect_code("invalid-reference", reference=["a", "b", "c"])
        expect_code("malformed-field", reference="ac")

    def test_explicit_gamma_accepted(self):
        instance = parse(rule={"type": "weakly_separable", "gamma": [5, 4, 3, 1]})
        assert instance.rule.gamma == (5, 4, 3, 1)


class TestSerialization:
    def test_round_trip_preserves_the_instance(self):
        instance = parse(
            labels={"l1": ["a", "b"], "l2": ["c", "d"]},
            constraints=[
                {"type": "interval", "label": "l1", "min": 0, "max": 1},
                {"type": "dominance", "over": "l1", "under": "l2"},
            ],
            reference=["a", "c"],
        )
        again = parse_instance(serialize_instance(instance))
        assert again == instance

    def test_generated_instances_round_trip(self):
        for seed in range(5):
            instance = gen_random(7, 3, 2, 2, "overlapping", "arbitrary", seed=seed)
            assert parse_instance(serialize_instance(instance)) == instance

    def test_document_key_order_is_stable(self):
        doc = instance_to_document(parse())
        assert list(doc) == [
            "candidates", "voters", "k", "labels", "constraints", "rule", "order",
        ]

    def test_gamma_round_trips_exactly_or_not_at_all(self):
        tenth = parse(rule={"type": "weakly_separable", "gamma": [0.1, 0, 0, 0]})
        assert tenth.rule.gamma[0] == Fraction(1, 10)
        assert parse_instance(serialize_instance(tenth)) == tenth
        third = WeaklySeparableRule([Fraction(1, 3), 0, 0, 0])
        with pytest.raises(InputError, match="gamma entry 0") as info:
            instance_to_document(replace(tenth, rule=third))
        assert info.value.code == "invalid-gamma"

    def test_stv_rule_document(self):
        instance = parse(rule={"type": "stv", "variant": "simple"}, order="leximin")
        doc = instance_to_document(instance)
        assert doc["rule"] == {"type": "stv", "variant": "simple"}
        assert doc["order"] == "leximin"

    def test_result_document_shape(self):
        from comsel import solve_instance

        optimal = result_to_document(solve_instance(parse()))
        assert optimal == {
            "status": "optimal",
            "committee": ["b", "c"],
            "score": 17,
            "solver": "region",
        }
        infeasible_doc = document(
            labels={"l": ["a"]},
            constraints=[{"type": "interval", "label": "l", "min": 2, "max": 2}],
        )
        infeasible = result_to_document(
            solve_instance(parse_instance(json.dumps(infeasible_doc)))
        )
        assert infeasible == {
            "status": "infeasible",
            "committee": None,
            "score": None,
            "solver": "dp",
        }


class TestMain:
    def write(self, tmp_path, doc, name="instance.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_solve_to_stdout(self, tmp_path, capsys):
        code = main(["solve", "--input", self.write(tmp_path, document())])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {
            "status": "optimal",
            "committee": ["b", "c"],
            "score": 17,
            "solver": "region",
        }

    def test_solve_to_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code = main(
            [
                "solve",
                "--input", self.write(tmp_path, document()),
                "--output", str(target),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["committee"] == ["b", "c"]

    def test_solve_from_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(document())))
        assert main(["solve", "--input", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["score"] == 17

    def test_solve_routes_to_dp(self, tmp_path, capsys):
        doc = document(
            candidates=["a", "b", "c", "d"],
            voters=[["a", "c", "d", "b"]],
            rule={"type": "weakly_separable", "gamma": [5, 4, 3, 1]},
            labels={"l1": ["a", "b"], "l2": ["c", "d"]},
            constraints=[{"type": "dominance", "over": "l1", "under": "l2"}],
        )
        code = main(["solve", "--input", self.write(tmp_path, doc)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["solver"] == "dp"
        assert out["committee"] == ["a", "c"]
        assert out["score"] == 9

    def test_solver_can_be_forced(self, tmp_path, capsys):
        # dp included: an unlabeled instance satisfies its preconditions
        # vacuously, even though auto routing would not pick it
        path = self.write(tmp_path, document())
        for solver in ("region", "oracle", "dp"):
            code = main(["solve", "--input", path, "--solver", solver])
            captured = capsys.readouterr()
            assert code == 0
            out = json.loads(captured.out)
            assert out["solver"] == solver
            assert out["committee"] == ["b", "c"]

    def test_forced_dp_contract_error(self, tmp_path, capsys):
        doc = document(
            labels={"l1": ["a"], "l2": ["b"], "l3": ["c"]},
            constraints=[
                {"type": "dominance", "over": "l1", "under": "l3"},
                {"type": "dominance", "over": "l2", "under": "l3"},
            ],
        )
        code = main(
            ["solve", "--input", self.write(tmp_path, doc), "--solver", "dp"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error[contract]")

    def test_infeasible_exit_code_and_note(self, tmp_path, capsys):
        doc = document(
            labels={"l": ["a"]},
            constraints=[{"type": "interval", "label": "l", "min": 2, "max": 2}],
        )
        code = main(["solve", "--input", self.write(tmp_path, doc)])
        assert code == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["status"] == "infeasible"
        assert captured.err.startswith("note:")

    def test_fractional_scores_serialize_as_floats(self, tmp_path, capsys):
        doc = document(
            candidates=["a", "b"],
            voters=[["a", "b"]],
            k=1,
            rule={"type": "weakly_separable", "gamma": [0.5, 0]},
        )
        assert main(["solve", "--input", self.write(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["committee"] == ["a"]
        assert out["score"] == 0.5

    def test_decimal_gamma_is_read_exactly(self, tmp_path, capsys):
        # only {a,b} and {c,d} are feasible; each scores exactly 3/10, so
        # the tie goes to the smaller committee.  Summed as floats, c+d
        # reads 0.30000000000000004 and wins.
        doc = document(
            candidates=["a", "b", "c", "d"],
            voters=[["a", "c", "d", "b"]],
            k=2,
            rule={"type": "weakly_separable", "gamma": [0.3, 0.1, 0.2, 0]},
            labels={
                "x": ["a", "c"],
                "y": ["a", "d"],
                "z": ["b", "c"],
                "w": ["b", "d"],
            },
            constraints=[
                {"type": "interval", "label": name, "min": 0, "max": 1}
                for name in ("x", "y", "z", "w")
            ],
        )
        path = self.write(tmp_path, doc)
        for solver in ("auto", "region", "oracle"):
            code = main(["solve", "--input", path, "--solver", solver])
            assert code == 0
            out = json.loads(capsys.readouterr().out)
            assert out["committee"] == ["a", "b"], solver
            assert out["score"] == 0.3, solver

    def test_budget_guards_the_oracle(self, tmp_path, capsys):
        doc = document(rule={"type": "stv", "variant": "simple"}, order="leximax")
        path = self.write(tmp_path, doc)
        forced = ["solve", "--input", path, "--solver", "oracle"]
        assert main([*forced, "--budget", "1"]) == 2
        assert capsys.readouterr().err.startswith("error[budget]")
        assert main([*forced, "--budget", "100"]) == 0
        capsys.readouterr()

    def test_oracle_default_budget_caps_committees_not_the_pool(
        self, tmp_path, capsys
    ):
        # 20 candidates, k=2: 190 committees, far below the default of 10^6
        instance = gen_random(20, 5, 2, 3, "overlapping", "arbitrary", seed=1)
        path = tmp_path / "twenty.json"
        path.write_text(serialize_instance(instance))
        solve = ["solve", "--input", str(path)]
        answers = []
        for extra in (
            ["--solver", "oracle"],
            ["--solver", "oracle", "--budget", "1000000"],
            ["--solver", "region"],
        ):
            assert main([*solve, *extra]) == 0, extra
            out = json.loads(capsys.readouterr().out)
            answers.append((out["committee"], out["score"]))
        assert answers[0] == answers[1] == answers[2]
        direct = solve_instance(instance, "oracle")
        assert (list(direct.committee), direct.score) == answers[0]

    def test_budget_must_be_positive(self, tmp_path, capsys):
        path = self.write(tmp_path, document())
        assert main(["solve", "--input", path, "--budget", "0"]) == 2
        assert capsys.readouterr().err.startswith("error[invalid-input]")

    def test_parse_errors_show_their_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["solve", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error[malformed-json]")

    def test_unexpected_exceptions_exit_2(self, tmp_path, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("comsel.cli.solve_instance", crash)
        assert main(["solve", "--input", self.write(tmp_path, document())]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[internal]: RuntimeError: boom")
        assert "Traceback" in err

    def test_base_exceptions_propagate(self, tmp_path, monkeypatch):
        class Stop(BaseException):
            pass

        def stop(*args, **kwargs):
            raise Stop

        monkeypatch.setattr("comsel.cli.solve_instance", stop)
        with pytest.raises(Stop):
            main(["solve", "--input", self.write(tmp_path, document())])

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["solve", "--input", str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err.startswith("error[io]")

    def test_oversize_numbers_are_malformed_json(self, tmp_path, capsys):
        # a 5 000-digit integer is over Python's int-string limit, and
        # 1e30000000 would take Fraction minutes to build
        for gamma in ("1" * 5000, "1e30000000", "-2.5E-30000000"):
            path = tmp_path / "huge.json"
            text = json.dumps(document(rule={"type": "weakly_separable",
                                             "gamma": [0, 0, 0, 0]}))
            path.write_text(text.replace("[0, 0, 0, 0]", f"[{gamma}, 0, 0, 0]"))
            started = time.perf_counter()
            assert main(["solve", "--input", str(path)]) == 2, gamma
            assert time.perf_counter() - started < 1
            err = capsys.readouterr().err
            assert err.startswith("error[malformed-json]"), err
            assert "Traceback" not in err
        # exponents within the limit still read exactly
        doc = document(rule={"type": "weakly_separable", "gamma": [0, 0, 0, 0]})
        text = json.dumps(doc).replace("[0, 0, 0, 0]", "[3e2, 2E1, 1e-1, 0]")
        assert parse_instance(text).rule.gamma == (300, 20, Fraction(1, 10), 0)

    def test_unwritable_scores_are_invalid_gamma(self, tmp_path, capsys):
        # a fractional score past the float range has no JSON number, and
        # json.dumps cannot write an int past Python's int-string limit
        cases = (
            ("[1e400, 0.5]", [["a", "b"], ["b", "a"]]),
            ("[1e4299, 0]", [["a", "b"]] * 10),
        )
        for gamma, voters in cases:
            doc = document(candidates=["a", "b"], voters=voters, k=1,
                           rule={"type": "weakly_separable", "gamma": [0, 0]})
            path = tmp_path / "big.json"
            path.write_text(json.dumps(doc).replace("[0, 0]", gamma))
            assert main(["solve", "--input", str(path)]) == 2, gamma
            err = capsys.readouterr().err
            assert err.startswith("error[invalid-gamma]"), err
            assert "Traceback" not in err

    def test_non_utf8_input_is_an_io_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"candidates": ["\xff"]}')
        graph = tmp_path / "graph.txt"
        graph.write_bytes(b"2 1\n0 \xff\n")
        for argv in (
            ["solve", "--input", str(path)],
            ["check", "--input", str(path), "--committee", "a"],
            ["gen", "clique-bloc", "--input", str(graph), "--clique-size", "2"],
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error[io]"), err
            assert "Traceback" not in err

    def test_check_verb(self, tmp_path, capsys):
        doc = document(
            labels={"l1": ["a", "b"], "l2": ["c", "d"]},
            constraints=[{"type": "dominance", "over": "l1", "under": "l2"}],
        )
        path = self.write(tmp_path, doc)
        assert main(["check", "--input", path, "--committee", "a,c"]) == 0
        assert capsys.readouterr().out.strip() == "ok"
        assert main(["check", "--input", path, "--committee", "c,d"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert any(line.startswith("dominance:") for line in lines)
        # repeated names collapse, so the committee ends up undersized
        assert main(["check", "--input", path, "--committee", "a, a"]) == 1
        assert "size:" in capsys.readouterr().out
        assert main(["check", "--input", path, "--committee", "a,z"]) == 2
        assert capsys.readouterr().err.startswith("error[invalid-input]")

    def test_check_prints_intervals_before_dominances(self, tmp_path, capsys):
        doc = document(
            labels={"left": ["a", "b"], "right": ["c", "d"]},
            constraints=[
                {"type": "dominance", "over": "left", "under": "right"},
                {"type": "interval", "label": "left", "min": 1, "max": 2},
            ],
        )
        path = self.write(tmp_path, doc)
        assert main(["check", "--input", path, "--committee", "c,d"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "interval: label 'left': 0 chosen, allowed [1, 2]",
            "dominance: label 'left' gives 0 members but label 'right' gives 2",
        ]

    def test_gen_vertex_cover(self, tmp_path, capsys):
        graph = tmp_path / "graph.txt"
        graph.write_text("3 3\n0 1\n1 2\n0 2\n")
        code = main(
            ["gen", "vertex-cover", "--input", str(graph), "--cover-size", "2"]
        )
        assert code == 0
        instance = parse_instance(capsys.readouterr().out)
        assert instance.profile.candidates == ("v0", "v1", "v2")
        assert len(instance.constraints.intervals) == 3

    def test_gen_vertex_cover_dominance_variant(self, tmp_path, capsys):
        graph = tmp_path / "graph.txt"
        graph.write_text("2 1\n0 1\n")
        code = main(
            [
                "gen", "vertex-cover",
                "--input", str(graph),
                "--cover-size", "1",
                "--variant", "dominance",
            ]
        )
        assert code == 0
        instance = parse_instance(capsys.readouterr().out)
        assert len(instance.constraints.dominances) == 2

    def test_gen_clique_carries_the_reference(self, tmp_path, capsys):
        graph = tmp_path / "graph.txt"
        graph.write_text("3 3\n0 1\n1 2\n0 2\n")
        code = main(
            ["gen", "clique-sntv", "--input", str(graph), "--clique-size", "3"]
        )
        assert code == 0
        instance = parse_instance(capsys.readouterr().out)
        assert len(instance.reference) == 6
        assert instance.k == 6

    def test_gen_bad_graph(self, tmp_path, capsys):
        graph = tmp_path / "graph.txt"
        graph.write_text("2 1\n0 5\n")
        code = main(
            ["gen", "clique-bloc", "--input", str(graph), "--clique-size", "2"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error[invalid-graph]")

    def test_gen_refuses_an_oversized_reduction(self, tmp_path, capsys, monkeypatch):
        # each would build far more than MAX_REDUCTION_ENTRIES ranking
        # entries; each is refused with exit 2 before a name is built
        def unbuilt(*args):
            raise AssertionError("names built past the size cap")

        monkeypatch.setattr(generators, "_vertex_names", unbuilt)
        graph = tmp_path / "graph.txt"
        cases = (
            ("100000 0\n", ["vertex-cover", "--cover-size", "1"]),
            ("1000 1\n0 1\n", ["vertex-cover", "--cover-size", "1",
                                "--variant", "dominance"]),
            ("3 0\n", ["clique-sntv", "--clique-size", "2000"]),
            ("100000 0\n", ["clique-bloc", "--clique-size", "2"]),
        )
        for text, (generator, *args) in cases:
            graph.write_text(text)
            assert main(["gen", generator, "--input", str(graph), *args]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error[budget]"), (generator, err)
            assert "Traceback" not in err

    def test_gen_random_is_deterministic(self, capsys):
        argv = [
            "gen", "random",
            "--candidates", "6",
            "--voters", "3",
            "--committee-size", "2",
            "--labels", "2",
            "--seed", "11",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        instance = parse_instance(first)
        assert instance.rule == WeaklySeparableRule("borda")

    def test_gen_random_stv_rule(self, capsys):
        argv = [
            "gen", "random",
            "--candidates", "5",
            "--voters", "2",
            "--committee-size", "2",
            "--rule", "stv:droop_gregory",
        ]
        assert main(argv) == 0
        instance = parse_instance(capsys.readouterr().out)
        assert instance.rule == StvRule("droop_gregory")
        assert instance.order_kind == "leximax"

    def test_gen_random_refuses_a_negative_candidate_count(self, capsys):
        for mode in ("overlapping", "disjoint"):
            argv = [
                "gen", "random",
                "--candidates", "-2",
                "--voters", "2",
                "--committee-size", "1",
                "--mode", mode,
            ]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error[invalid-input]"), (mode, err)
            assert "candidate count cannot be negative" in err
            assert "Traceback" not in err

    def test_gen_random_rejects_unknown_rules(self, capsys):
        argv = [
            "gen", "random",
            "--candidates", "5",
            "--voters", "2",
            "--committee-size", "2",
            "--rule", "dowdall",
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error[")

    def test_calls_in_one_process_share_one_parser(self, tmp_path, capsys,
                                                   monkeypatch):
        original = argparse.ArgumentParser.__init__
        built = []

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        build_parser()
        one_build = len(built)
        assert one_build > 1  # the root parser and its sub-commands

        cli._parser.cache_clear()
        built.clear()
        path = self.write(tmp_path, document())
        assert main(["solve", "--input", path]) == 0
        assert main(["check", "--input", path, "--committee", "b,c"]) == 0
        assert main(["gen", "random", "--candidates", "4", "--voters", "2",
                     "--committee-size", "2"]) == 0
        assert len(built) == one_build
        assert build_parser() is not build_parser()  # the cache is main's

    def test_usage_errors_leave_the_shared_parser_intact(self, tmp_path,
                                                         capsys):
        argv = ["solve", "--input", self.write(tmp_path, document()),
                "--output", str(tmp_path / "result.json")]
        assert main(argv) == 0
        first = (tmp_path / "result.json").read_text()
        for bad in (["solve"], [*argv, "--budget", "abc"]):
            with pytest.raises(SystemExit) as info:
                main(bad)
            assert info.value.code == 2
            assert capsys.readouterr().err.startswith("usage: comsel solve")
        (tmp_path / "result.json").unlink()
        assert main(argv) == 0
        assert (tmp_path / "result.json").read_text() == first

        helps = []
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(["solve", "--help"])
            assert info.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0].startswith("usage: comsel solve")
        assert helps[0] == helps[1]


def test_a_solve_loads_only_the_modules_it_runs(tmp_path):
    # a fresh interpreter: the generators and traceback stay unloaded,
    # while every module perfbench's tracer wraps is loaded by the solve
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(document()))
    script = (
        "import json, sys\n"
        "from comsel.cli import main\n"
        "code = main(['solve', '--input', sys.argv[1], '--output', sys.argv[2]])\n"
        "loaded = set(sys.modules)\n"
        "sys.path.insert(0, sys.argv[3])\n"
        "from spans import TARGETS\n"
        "print(json.dumps({\n"
        "    'exit': code,\n"
        "    'unused': sorted({'comsel.generators', 'traceback'} & loaded),\n"
        "    'missing': sorted({t[1] for t in TARGETS} - loaded),\n"
        "}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(
        [sys.executable, "-c", script, str(path), str(tmp_path / "result.json"),
         os.path.join(root, "perfbench")],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert json.loads(done.stdout) == {"exit": 0, "unused": [], "missing": []}
