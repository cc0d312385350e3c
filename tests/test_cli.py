"""JSON document parsing, serialization, and the command-line verbs."""

import argparse
import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from comsel import (
    ContractViolation, ElectionProfile, InputError, StvRule, WeaklySeparableRule,
    gen_random, solve_instance,
)
from comsel import cli, generators
from comsel import document as fmt
from comsel.elections import _BATCH, RankingCoder
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
        assert expect_code("unknown-candidate", labels={"l": ["a", "z"]}) == (
            "label 'l' names unknown candidates: z"
        )
        expect_code("malformed-field", labels={"l": "ab"})

    def test_label_members_are_the_candidates_own_names(self):
        # json makes a new string for each name it reads; a label keeps the
        # candidate's own, so a name is held once however many labels list it
        names = [f"candidate-{i}" for i in range(4)]
        instance = parse(
            candidates=names,
            voters=[names, names[::-1]],
            labels={"l1": names[:2], "l2": names[1:]},
        )
        own = {name: name for name in instance.profile.candidates}
        labeling = instance.constraints.labeling
        assert all(
            member is own[member]
            for name in labeling.names for member in labeling.members(name)
        )

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


def _write(members, indent):
    """An object of the given (key, value) members, repeated keys kept, as
    ``json.dumps`` lays it out."""
    if indent is None:
        return "{" + ", ".join(
            f"{json.dumps(key)}: {json.dumps(value)}" for key, value in members
        ) + "}"
    return "{\n" + ",\n".join(
        f"  {json.dumps(key)}: " + json.dumps(value, indent=2).replace("\n", "\n  ")
        for key, value in members
    ) + "\n}"


def _broken_members(rng):
    """The base document's members with up to three of its fields broken:
    unknown or non-string names, repeated names, unhashable entries,
    non-list rankings, bad candidates or k, and repeated candidates or
    voters keys."""
    doc = document()
    voters = doc["voters"]
    for _ in range(rng.randint(0, 3)):
        # a ranking still in the document, or a throwaway one
        lists = [r for r in voters if isinstance(r, list) and r]
        ranking = rng.choice(lists or [["a"]])
        kind = rng.randrange(8)
        if kind == 0:
            ranking[rng.randrange(len(ranking))] = rng.choice(
                ("z", "A", "a ", 1, None, 2.5)
            )
        elif kind == 1:
            ranking[0] = ranking[-1]
        elif kind == 2:
            ranking[rng.randrange(len(ranking))] = rng.choice(([], {}, ["a"]))
        elif kind == 3:
            voters[rng.randrange(len(voters))] = rng.choice(("abcd", None, {}, 4))
        elif kind == 4 and rng.random() < 0.5:
            ranking.append("a")
        elif kind == 4:
            ranking.pop()
        elif kind == 5:
            doc["candidates"] = rng.choice(
                ([], ["a", "b", "b", "d"], ["a", "b", "c"], ["d", "c", "b", "a"],
                 "abcd", [1, 2, 3, 4], ["a", "b", "c", "d", ["e"]])
            )
        elif kind == 6:
            doc["k"] = rng.choice((-1, 5, 1.5, "2", None, True, 2.0))
        else:
            doc["voters"] = rng.choice(([], "x", [[]], {"a": 1}))
    members = list(doc.items())
    repeats = {
        "voters": ([["d", "c", "b", "a"]], [["a", "b"]], [], [list("abcd")] * 2),
        "candidates": (list("abcd"), list("dcba"), ["a", "b"], 4),
    }
    for key, values in repeats.items():
        if rng.random() < 0.15:
            members.insert(rng.randrange(len(members) + 1), (key, rng.choice(values)))
    return members


def _outcome(text, parse=parse_instance):
    """The parsed instance, its rankings checked to hold the candidates' own
    name objects, or the error's code and message."""
    try:
        instance = parse(text)
    except InputError as exc:
        return exc.code, str(exc)
    own = {id(name) for name in instance.profile.candidates}
    assert all(
        type(ranking) is tuple and all(id(name) in own for name in ranking)
        for ranking in instance.profile.voters
    )
    return instance


@pytest.fixture(params=(1, 2, 3, 7))
def parse_file(request, tmp_path, monkeypatch):
    """``parse_instance`` through the CLI's file source: the text is written
    to a file, read back in chunks of 1, 2, 3 or 7 characters, so every
    member, ranking and number of a small document meets the window's edge."""
    monkeypatch.setattr(fmt, "_CHUNK", request.param)
    path = tmp_path / "instance.json"

    def parse(text):
        path.write_bytes(text.encode("utf-8"))
        return fmt.read_instance(str(path))

    return parse


def parse_pipe(text):
    """``parse_instance`` through the CLI's other file source: the text goes
    down a pipe, which cannot seek, so ``read_instance`` reads it whole."""
    read, write = os.pipe()
    try:
        with os.fdopen(write, "w", encoding="utf-8") as pipe:
            pipe.write(text)  # a small document: far below a pipe's buffer
        return fmt.read_instance(f"/dev/fd/{read}")
    finally:
        os.close(read)


class TestDecoding:
    def test_both_member_orders_read_alike(self):
        self.member_orders_read_alike(parse_instance, 2000)

    def test_both_member_orders_read_alike_in_chunks(self, parse_file):
        # the first quarter of the documents, as each is written to a file
        self.member_orders_read_alike(parse_file, 500)

    @staticmethod
    def member_orders_read_alike(parse, rounds):
        # rankings read after the candidates are checked as they are read;
        # read first, they are checked when the profile is built
        rng = random.Random(29)
        parsed = 0
        for _ in range(rounds):
            members = _broken_members(rng)
            outcomes = [
                _outcome(
                    _write(sorted(members, key=lambda m: m[0] != first), indent),
                    parse,
                )
                for first in ("candidates", "voters")
                for indent in (None, 2)
            ]
            assert all(outcome == outcomes[0] for outcome in outcomes), outcomes
            parsed += not isinstance(outcomes[0], tuple)
        assert rounds // 10 < parsed < rounds * 9 // 10

    def test_text_faults_are_json_faults(self):
        self.text_faults_are_json_faults(parse_instance)

    def test_text_faults_are_json_faults_in_chunks(self, parse_file):
        self.text_faults_are_json_faults(parse_file)

    def test_text_faults_are_json_faults_through_a_pipe(self):
        self.text_faults_are_json_faults(parse_pipe)

    @staticmethod
    def text_faults_are_json_faults(parse):
        rng = random.Random(30)
        members = list(document().items())
        for _ in range(1000):
            first = rng.choice(("candidates", "voters"))
            text = _write(
                sorted(members, key=lambda m: m[0] != first), rng.choice((None, 2))
            )
            fault = rng.randrange(5)
            at = rng.randrange(len(text))
            if fault == 0:
                text = text[:at]
            elif fault == 1:
                text = text[:at] + rng.choice(',]}[{":x \n') + text[at:]
            elif fault == 2:
                text = text[:at] + text[at + 1:]
            elif fault == 3:
                text += rng.choice((" x", "{}", ",", "]", " 1"))
            else:
                text = "\ufeff" + text
            try:
                doc = json.loads(text)
            except ValueError as exc:
                with pytest.raises(InputError) as info:
                    parse(text)
                assert info.value.code == "malformed-json"
                assert str(info.value) == f"not valid JSON: {exc}"
            else:
                assert isinstance(doc, dict)
                assert _outcome(text, parse) == _outcome(json.dumps(doc))

    def test_a_well_formed_document_checks_each_ranking_once(self, monkeypatch):
        from comsel import elections

        checked = self.count_checks(monkeypatch)
        for indent in (None, 2):
            checked.clear()
            instance = parse_instance(json.dumps(document(), indent=indent))
            assert len(checked) == instance.profile.num_voters == 5
        checked.clear()
        elections.ElectionProfile(("a", "b"), (("a", "b"), ("b", "a")), 1)
        assert len(checked) == 2

    def test_a_well_formed_document_checks_each_ranking_once_in_chunks(
        self, monkeypatch, parse_file
    ):
        # k's two digits, after whitespace of each width from 0 to 15 and
        # with k written first, meet the window's edge between them at
        # every chunk size, where json's scanner stops as if the number ended
        checked = self.count_checks(monkeypatch)
        rng = random.Random(32)
        names = [f"c{i}" for i in range(12)]
        wide = document(
            candidates=names,
            voters=[rng.sample(names, len(names)) for _ in range(11)],
            k=10,
            rule={"type": "weakly_separable",
                  "gamma": [120, 96.25, 80, 64, 50, 40, 30, 20, 12, 10, 1, 0]},
        )
        for doc in (document(), wide):
            voters_first = {"voters": doc["voters"], **doc}
            k_first = {"k": doc["k"], **doc}
            for layout in (doc, voters_first, k_first):
                for indent, pad in itertools.product((None, 2), range(16)):
                    text = json.dumps(layout, indent=indent)
                    checked.clear()
                    instance = parse_file(text.replace('"k": ', '"k": ' + " " * pad))
                    assert instance.k == doc["k"]
                    assert len(checked) == instance.profile.num_voters
                    assert len(checked) == len(doc["voters"])

    @staticmethod
    def count_checks(monkeypatch):
        """The rankings ``intern_ranking`` checks, listed as it checks them;
        a call to ``json.loads`` fails the test."""
        from comsel import elections

        checked = []
        check = elections.intern_ranking

        def counted(canon, ranking):
            checked.append(ranking)
            return check(canon, ranking)

        def refused(*args, **kwargs):
            raise AssertionError("the whole text went through json.loads")

        monkeypatch.setattr(cli.json, "loads", refused)
        monkeypatch.setattr(elections, "intern_ranking", counted)
        return checked

    @pytest.mark.parametrize("spaced", [False, True])
    @pytest.mark.parametrize(
        "count", [_BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1]
    )
    def test_rankings_decode_across_batch_and_chunk_edges(
        self, count, spaced, tmp_path, monkeypatch
    ):
        # the codes are appended a batch at a time, and a 64-character
        # window puts chunk edges among them: every ranking is read and
        # coded in turn, with or without whitespace around each separator,
        # and none sends the text to json.loads
        rng = random.Random(count)
        names = [f"c{i}" for i in range(6)]
        text = json.dumps(
            document(candidates=names,
                     voters=[rng.sample(names, 6) for _ in range(count)]),
            separators=(",", ":"),
        )
        if spaced:
            for mark in ",:[]{}":
                text = text.replace(mark, f" \n{mark}\t ")
        whole = json.loads(text)
        self.count_checks(monkeypatch)
        monkeypatch.setattr(fmt, "_CHUNK", 64)
        path = tmp_path / "instance.json"
        path.write_text(text)
        with open(path, encoding="utf-8") as handle:
            doc = fmt._decode(fmt._Input(str(path), handle))
        assert isinstance(doc["voters"], RankingCoder)
        assert {**doc, "voters": None} == {**whole, "voters": None}
        profile = ElectionProfile(tuple(doc["candidates"]), doc["voters"], doc["k"])
        assert profile == ElectionProfile.build(
            whole["candidates"], whole["voters"], whole["k"]
        )

    def test_parse_peak_memory_stays_near_the_text(self):
        # the decoded rankings' name strings are dropped as each ranking is
        # interned; decoded whole, they would take about 9x the text
        rng = random.Random(31)
        names = [f"c{i:02d}" for i in range(100)]
        text = json.dumps({
            "candidates": names,
            "voters": [rng.sample(names, len(names)) for _ in range(2000)],
            "k": 3,
            "rule": {"type": "weakly_separable", "gamma": "borda"},
        })
        tracemalloc.start()
        try:
            parse_instance(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(text)

    def test_a_file_parse_peaks_below_its_text(self, tmp_path):
        # read in chunks, the text is never held whole: the peak is the
        # profile and a few chunks, under the text's own size
        rng = random.Random(34)
        names = [f"candidate-{i:02d}-{'x' * 14}" for i in range(100)]
        text = json.dumps({
            "candidates": names,
            "voters": [rng.sample(names, len(names)) for _ in range(600)],
            "k": 3,
            "rule": {"type": "weakly_separable", "gamma": "borda"},
        })
        assert len(text) >= 20 * fmt._CHUNK
        path = tmp_path / "instance.json"
        path.write_text(text)
        tracemalloc.start()
        try:
            instance = fmt.read_instance(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert instance.profile.num_voters == 600
        assert peak < 0.6 * len(text)

    def test_a_chunk_edge_seldom_cuts_what_is_read(self, tmp_path, monkeypatch):
        # a member's value is read once the window holds a chunk ahead of
        # it, a ranking once it holds the last ranking's length (up to a
        # chunk): the labels that cross the first edge are read whole, and
        # across 200 edges only the first ranking, read before any length
        # is known, may be cut
        monkeypatch.setattr(fmt, "_CHUNK", 1000)
        rng = random.Random(36)
        names = [f"c{i:02d}" for i in range(100)]
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({
            "candidates": names,
            "labels": {"g": names},
            "voters": [rng.sample(names, len(names)) for _ in range(300)],
            "k": 3,
            "rule": {"type": "weakly_separable", "gamma": "borda"},
        }))
        assert path.stat().st_size > 200 * fmt._CHUNK
        scan, cut = fmt._DECODER.scan_once, []

        def counted(s, idx):
            try:
                return scan(s, idx)
            except (ValueError, StopIteration):
                cut.append(s[idx])
                raise

        monkeypatch.setattr(fmt._DECODER, "scan_once", counted)
        assert fmt.read_instance(str(path)).profile.num_voters == 300
        assert cut in ([], ["["])

    def test_a_large_file_is_scanned_in_linear_time(self, tmp_path, monkeypatch):
        # voters written first are one value longer than any window, so the
        # window doubles until it holds them; read after the candidates,
        # each ranking meets the edge at most a few times.  Either way the
        # scanner covers each character a few times, not once per chunk.
        monkeypatch.setattr(fmt, "_CHUNK", 7)
        rng = random.Random(33)
        names = [f"c{i:02d}" for i in range(100)]
        voters = [rng.sample(names, len(names)) for _ in range(1500)]
        rest = {"k": 3, "rule": {"type": "weakly_separable", "gamma": "borda"}}
        scan = fmt._DECODER.scan_once
        path = tmp_path / "instance.json"
        for doc in ({"voters": voters, "candidates": names, **rest},
                    {"candidates": names, "voters": voters, **rest}):
            text = json.dumps(doc)
            assert len(text) > 1 << 20
            path.write_text(text)
            covered = 0

            def counted(s, idx):
                nonlocal covered
                try:
                    value, end = scan(s, idx)
                except (ValueError, StopIteration):
                    covered += len(s) - idx  # all a failing scan can cover
                    raise
                else:
                    covered += end - idx
                    return value, end
                finally:  # a quadratic read stops here, not after hours
                    if covered > 4 * len(text):
                        raise AssertionError(f"{covered} characters scanned")

            monkeypatch.setattr(fmt._DECODER, "scan_once", counted)
            assert fmt.read_instance(str(path)).profile.num_voters == 1500
            assert len(text) <= covered <= 4 * len(text)


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

    def test_each_ranking_is_written_on_one_line(self):
        # json's indented layout but for the rankings, one a line; a name
        # that spells the placeholder's line stays a name
        sly = '"voters": null'
        for instance in (
            gen_random(12, 6, 3, 2, seed=3),
            parse(candidates=["a", "b", "c", sly],
                  voters=[["a", "c", "b", sly], [sly, "b", "c", "a"]]),
        ):
            text = serialize_instance(instance)
            assert parse_instance(text) == instance
            doc = instance_to_document(instance)
            assert json.loads(text) == doc
            m, n = instance.profile.num_candidates, instance.profile.num_voters
            lines = text.splitlines()
            start = lines.index('  "voters": [') + 1
            rankings = [f"    {json.dumps(r)}," for r in doc["voters"]]
            rankings[-1] = rankings[-1][:-1]
            assert lines[start:start + n] == rankings
            # under the indent each ranking takes a line per entry and two
            indented = json.dumps(doc, indent=2).splitlines()
            assert lines[:start] == indented[:start]
            assert lines[start + n:] == indented[start + n * (m + 2):]
            assert text.endswith("}\n")

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

    def test_an_invalid_committee_is_a_contract_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # the one verification point: a solver's optimum that breaks an
        # interval is refused, and the CLI says so with exit 2, never 1
        import comsel.solve

        solve_region_ip = comsel.solve.solve_region_ip

        def broken(*args):
            return replace(solve_region_ip(*args), committee=("a", "b"))

        monkeypatch.setattr(comsel.solve, "solve_region_ip", broken)
        doc = document(
            labels={"l": ["a", "b"]},
            constraints=[{"type": "interval", "label": "l", "min": 0, "max": 1}],
        )
        with pytest.raises(ContractViolation, match="invalid committee"):
            solve_instance(parse_instance(json.dumps(doc)), solver="region")
        code = main(
            ["solve", "--input", self.write(tmp_path, doc), "--solver", "region"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error[contract]: solver returned")
        assert captured.out == ""

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

    def test_an_invalid_byte_after_the_first_chunk_is_an_io_error(
        self, tmp_path, capsys
    ):
        # the io layer decodes a read's bytes at once, so the byte sits past
        # two chunks' worth of them
        path = tmp_path / "late.json"
        text = json.dumps(document(voters=[list("abcd")] * 20000))
        assert text.index('"score"') > 2 * fmt._CHUNK
        path.write_bytes(text.replace('"score"', '"sc\xffore"').encode("latin-1"))
        target = tmp_path / "result.json"
        for argv in (
            ["solve", "--input", str(path), "--output", str(target)],
            ["check", "--input", str(path), "--committee", "a,b"],
        ):
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert err.startswith(f"error[io]: {path}: not UTF-8 text"), err
            assert "Traceback" not in err
            assert out == ""
            assert not target.exists()

    def test_stdin_and_pipes_are_read_whole_and_decode_alike(
        self, tmp_path, monkeypatch
    ):
        import io

        sources = []
        parse = fmt.parse_instance

        def traced(source):
            sources.append(source)
            return parse(source)

        monkeypatch.setattr(fmt, "parse_instance", traced)
        doc = document(labels={"l1": ["a", "b"]}, k=3,
                       rule={"type": "weakly_separable", "gamma": [3, 2.5, 1, 0]})
        text = json.dumps(doc, indent=2)
        from_file = fmt.read_instance(self.write(tmp_path, doc))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        from_stdin = fmt.read_instance("-")
        read, write = os.pipe()
        with os.fdopen(write, "w") as pipe:  # far below a pipe's buffer
            pipe.write(text)
        try:
            from_pipe = fmt.read_instance(f"/dev/fd/{read}")
        finally:
            os.close(read)
        assert from_file == from_stdin == from_pipe == parse_instance(text)
        assert [type(source) for source in sources] == [fmt._Input, str, str]
        assert sources[1] == sources[2] == text

    def test_stdin_is_decoded_as_utf8_like_a_file(
        self, tmp_path, capsys, monkeypatch
    ):
        # an interpreter whose stdin encoding is latin-1 still reads stdin's
        # bytes as UTF-8, so both inputs elect the same committee
        import io

        doc = document(candidates=["é", "b"], voters=[["é", "b"]] * 3, k=1)
        data = json.dumps(doc, ensure_ascii=False).encode("utf-8")
        path = tmp_path / "accent.json"
        path.write_bytes(data)
        assert main(["solve", "--input", str(path)]) == 0
        from_file = capsys.readouterr().out
        assert json.loads(from_file)["committee"] == ["é"]
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="latin-1")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["solve", "--input", "-"]) == 0
        assert capsys.readouterr().out == from_file

    def test_non_utf8_stdin_is_an_io_error(self, capsys, monkeypatch):
        # decoded with surrogateescape, the document would elect "\udcff"
        import io

        text = json.dumps(document(candidates=["X", "b"], voters=[["X", "b"]], k=1))
        doc = text.encode().replace(b'"X"', b'"\xff"')
        for data, argv in (
            (doc, ["solve"]),
            (doc, ["check", "--committee", "b"]),
            (b"2 1\n0 \xff\n", ["gen", "clique-bloc", "--clique-size", "2"]),
        ):
            stdin = io.TextIOWrapper(
                io.BytesIO(data), encoding="utf-8", errors="surrogateescape"
            )
            monkeypatch.setattr(sys, "stdin", stdin)
            assert main([*argv, "--input", "-"]) == 2, argv
            out, err = capsys.readouterr()
            assert err.startswith("error[io]: -: not UTF-8 text"), err
            assert "Traceback" not in err
            assert out == ""

    def test_a_closed_stdin_is_an_io_error(self, capsys, monkeypatch):
        # a process started with its stdin closed has sys.stdin None
        monkeypatch.setattr(sys, "stdin", None)
        for argv in (
            ["solve"],
            ["check", "--committee", "a"],
            ["gen", "clique-bloc", "--clique-size", "2"],
        ):
            assert main([*argv, "--input", "-"]) == 2, argv
            out, err = capsys.readouterr()
            assert err == "error[io]: stdin is closed\n", err
            assert out == ""

    def test_a_full_stderr_leaves_the_exit_status(self, tmp_path, capsys,
                                                  monkeypatch):
        # as under ``2>/dev/full``: a diagnostic that cannot be written is
        # dropped, and the error still exits 2, never 1 ("infeasible")
        import errno

        class Full:
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        broken = tmp_path / "broken.json"
        broken.write_text("{")
        monkeypatch.setattr(sys, "stderr", Full())
        assert main(["solve", "--input", str(broken)]) == 2
        assert main(["solve", "--input", str(tmp_path / "nope.json")]) == 2
        monkeypatch.setattr("comsel.cli.solve_instance", crash)
        assert main(["solve", "--input", self.write(tmp_path, document())]) == 2
        assert capsys.readouterr().out == ""

    def test_a_closed_stderr_keeps_stdout_one_document(self, tmp_path, capsys,
                                                       monkeypatch):
        # a process started with its stderr closed has sys.stderr None; the
        # infeasible solve's note must not land on stdout
        doc = document(
            labels={"l": ["a"]},
            constraints=[{"type": "interval", "label": "l", "min": 2, "max": 2}],
        )
        path = self.write(tmp_path, doc)
        expected = result_to_document(solve_instance(parse(**doc)))
        monkeypatch.setattr(sys, "stderr", None)
        assert main(["solve", "--input", path]) == 1
        assert main(["solve", "--input", str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    def test_a_closed_stdout_is_an_io_error(self, tmp_path, capsys, monkeypatch):
        # a process started with its stdout closed has sys.stdout None
        path = self.write(tmp_path, document())
        monkeypatch.setattr(sys, "stdout", None)
        for argv in (
            ["solve", "--input", path],
            ["gen", "random", "--candidates", "4", "--voters", "2",
             "--committee-size", "2"],
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err == "error[io]: stdout is closed\n", err

    def test_solve_and_check_parse_the_file_once_in_chunks(
        self, tmp_path, capsys, monkeypatch
    ):
        # as perfbench's tracer sees it: one parse_instance call per run,
        # whose argument's len() is the file's size in bytes
        sizes = []
        parse = fmt.parse_instance

        def traced(source):
            assert isinstance(source, fmt._Input)
            sizes.append(len(source))
            return parse(source)

        monkeypatch.setattr(fmt, "parse_instance", traced)
        path = self.write(tmp_path, document())
        assert main(["solve", "--input", path]) == 0
        assert json.loads(capsys.readouterr().out)["score"] == 17
        assert main(["check", "--input", path, "--committee", "b,c"]) == 0
        assert capsys.readouterr().out == "ok\n"
        assert sizes == [os.path.getsize(path)] * 2

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

        monkeypatch.setattr(generators, "_names", unbuilt)
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


def test_the_module_runs_as_a_script(monkeypatch, capsys):
    # ``python -m comsel.cli``: runpy executes a fresh copy of the module,
    # so the loaded one leaves sys.modules for the run
    import runpy

    monkeypatch.delitem(sys.modules, "comsel.cli")
    monkeypatch.setattr(sys, "argv", ["comsel", "--help"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("comsel.cli", run_name="__main__")
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: comsel")


def test_the_document_module_loads_no_solver_and_no_argparse(tmp_path):
    # a fresh interpreter reads, writes and reports through comsel.document
    # alone: the format needs neither the commands nor any solver
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(document()))
    script = (
        "import json, sys\n"
        "from comsel import document\n"
        "from comsel.result import SolveResult\n"
        "instance = document.parse_instance(open(sys.argv[1]).read())\n"
        "again = document.parse_instance(document.serialize_instance(instance))\n"
        "result = SolveResult('optimal', ('a', 'b'), 17, 'dp')\n"
        "print(json.dumps({\n"
        "    'same': again == instance,\n"
        "    'result': document.result_to_document(result),\n"
        "    'loaded': sorted({'argparse', 'comsel.cli', 'comsel.solve',\n"
        "                      'comsel.regions', 'comsel.lp', 'comsel.treedp',\n"
        "                      'comsel.bruteforce'} & set(sys.modules)),\n"
        "}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert json.loads(done.stdout) == {
        "same": True,
        "result": {"status": "optimal", "committee": ["a", "b"], "score": 17,
                   "solver": "dp"},
        "loaded": [],
    }


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
