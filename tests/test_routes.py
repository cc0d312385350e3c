"""Whole ``comsel`` runs through ``cli.main``, in process.

Two routes agree on one document: each case writes the document through
``comsel gen random`` (or takes it as written), solves it by two routes,
each exiting 0, and compares the fields it names.  One run through stdin:
each case pipes a document or a graph into one verb, as a shell would, and
checks its exit code, its result and its error line."""

import io
import json
import time

import pytest

from comsel import solve_instance
from comsel.cli import main, parse_instance

OVERLAPPING = ("--mode", "overlapping", "--structure", "arbitrary")

# leaves merge by one sort at the dp's star
STAR = {
    "candidates": ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"],
    "voters": [
        ["h", "j", "a", "e", "b", "g", "i", "f", "d", "c"],
        ["j", "h", "e", "a", "b", "i", "f", "g", "c", "d"],
        ["a", "e", "j", "h", "g", "b", "i", "d", "f", "c"],
    ],
    "k": 4,
    "labels": {
        "top": ["a", "b"], "l1": ["c", "d"], "l2": ["e", "f"],
        "l3": ["g", "h"], "l4": ["i", "j"],
    },
    "constraints": [
        {"type": "interval", "label": "l1", "min": 1, "max": 2},
        {"type": "dominance", "over": "top", "under": "l1"},
        {"type": "dominance", "over": "top", "under": "l2"},
        {"type": "dominance", "over": "top", "under": "l3"},
        {"type": "dominance", "over": "top", "under": "l4"},
    ],
    "rule": {"type": "weakly_separable", "gamma": "borda"},
}


def sizes(candidates, voters, k, labels):
    return (
        "--candidates", str(candidates), "--voters", str(voters),
        "--committee-size", str(k), "--labels", str(labels),
    )


# (document: ``gen random`` arguments or a document, the two routes, the
# fields both results share, the fields the first result must hold, and
# the least LP solves a forced region search must make)
CASES = [
    pytest.param(
        (*sizes(16, 9, 8, 5), *OVERLAPPING, "--order", "leximin", "--seed", "12"),
        ("auto", "oracle"), ("status", "committee"),
        {"solver": "region", "score": None}, 2,
        id="leximin-keys-restart-lps",
    ),
    pytest.param(
        (*sizes(14, 9, 6, 5), *OVERLAPPING, "--seed", "19"),
        ("region", "oracle"), ("status", "committee"), {}, 3,
        id="lp-at-every-open-node",
    ),
    pytest.param(
        (*sizes(12, 30, 4, 4), *OVERLAPPING, "--rule", "stv:droop_gregory",
         "--order", "leximin", "--seed", "6"),
        ("region", "oracle"), ("status", "committee"),
        {"solver": "region", "score": None}, 0,
        id="stv-leximin-place-scores",
    ),
    pytest.param(
        (*sizes(12, 5, 4, 4), *OVERLAPPING, "--seed", "3"),
        ("region", "oracle"), ("committee", "score"), {}, 0,
        id="overlapping-labels",
    ),
    pytest.param(
        (*sizes(16, 9, 8, 5), *OVERLAPPING, "--seed", "30"),
        ("region", "oracle"), ("committee", "score"), {}, 0,
        id="warm-started-child-lps",
    ),
    pytest.param(
        (*sizes(20, 5, 2, 3), *OVERLAPPING, "--seed", "1"),
        ("oracle", "region"), ("committee", "score"), {}, 0,
        id="oracle-default-budget-20-candidates",
    ),
    pytest.param(
        (*sizes(12, 5, 4, 3), "--mode", "disjoint", "--structure", "tree_like",
         "--seed", "1"),
        ("dp", "region"), ("committee", "score"), {}, 0,
        id="disjoint-tree-like",
    ),
    pytest.param(
        (*sizes(60, 3, 8, 4), "--seed", "1"),
        ("auto", "region"), ("status", "committee", "score"), {"solver": "dp"}, 0,
        id="few-voters-one-ballot-at-a-time",
    ),
    pytest.param(
        STAR, ("dp", "oracle"), ("committee", "score"), {}, 0,
        id="star-leaves-merge-by-one-sort",
    ),
]


@pytest.mark.parametrize("source, routes, shared, first, lp_solves", CASES)
def test_two_routes_agree(tmp_path, capsys, source, routes, shared, first, lp_solves):
    if isinstance(source, dict):
        text = json.dumps(source)
    else:
        assert main(["gen", "random", *source]) == 0
        text = capsys.readouterr().out
    path = tmp_path / "instance.json"
    path.write_text(text)
    results = []
    for route in routes:
        assert main(["solve", "--input", str(path), "--solver", route]) == 0
        results.append(json.loads(capsys.readouterr().out))
    a, b = results
    assert {field: a[field] for field in first} == first, a
    assert [a[field] for field in shared] == [b[field] for field in shared], (a, b)
    if lp_solves:
        result = solve_instance(parse_instance(text), solver="region")
        assert result.stats["lp_solves"] >= lp_solves, result.stats


SOLVE = ("solve", "--input", "-")
COVER = ("gen", "vertex-cover", "--input", "-", "--cover-size", "1")

# (stdin: ``gen random`` arguments or the text itself, the verb, its exit
# code, the fields its result must hold, and how its error line starts)
PIPES = [
    pytest.param(
        (*sizes(12, 40, 4, 3), "--rule", "stv:droop_gregory", "--seed", "1"),
        SOLVE, 0, {"status": "optimal"}, "",
        id="droop-gregory-weight-piles",
    ),
    pytest.param(
        (*sizes(40, 3000, 6, 3), "--seed", "1"),
        SOLVE, 0, {"status": "optimal"}, "",
        id="3000-voters-on-stdin",
    ),
    pytest.param(
        (*sizes(12, 5, 6, 5), *OVERLAPPING, "--seed", "176"),
        SOLVE, 1, {"status": "infeasible", "solver": "region"}, "note:",
        id="root-lp-proves-infeasible",
    ),
    pytest.param(
        '{"candidates": ["a", "b", "c"], "voters": [["a", "b", "c"], '
        '["b", "c", "a"], ["c", "a", "b"], ["a", "c", "b"]], "k": 1, '
        '"rule": {"type": "weakly_separable", "gamma": [0.5, 0.25, 0]}}\n',
        SOLVE, 0, {"status": "optimal", "committee": ["a"], "score": 1.25}, "",
        id="fractional-gamma-scaled-to-ints",
    ),
    pytest.param(
        '{"candidates": ["a", "b"], "voters": [["a", "b"]], "k": 1, '
        '"rule": {"type": "weakly_separable", "gamma": [1e30000000, 0]}}\n',
        SOLVE, 2, None, "error[malformed-json]",
        id="exponent-past-the-digit-limit",
    ),
    pytest.param(
        "--3 0\n", COVER, 2, None, "error[invalid-graph]",
        id="non-numeric-graph-token",
    ),
    pytest.param(
        (*sizes(10, 3, 4, 3), "--order", "leximax", "--seed", "1"),
        SOLVE, 0, {"status": "optimal", "solver": "dp"}, "",
        id="leximax-on-the-dp-route",
    ),
    pytest.param(
        "100000 0\n", COVER, 2, None, "error[budget]",
        id="reduction-past-its-size-cap",
    ),
]


@pytest.mark.parametrize("source, argv, status, fields, error", PIPES)
def test_one_run_through_stdin(
    monkeypatch, capsys, source, argv, status, fields, error
):
    if isinstance(source, str):
        text = source
    else:
        assert main(["gen", "random", *source]) == 0
        text = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    started = time.perf_counter()
    code = main(list(argv))
    seconds = time.perf_counter() - started
    out, err = capsys.readouterr()
    assert code == status, err
    assert seconds < 10
    assert err.startswith(error), err
    assert "Traceback" not in err
    if fields is None:
        assert out == ""
    else:
        result = json.loads(out)
        assert {field: result[field] for field in fields} == fields, result


def test_member_order_and_a_truncated_copy(tmp_path, capsys):
    # the voters written after the candidates and before them give
    # byte-identical results; the first 300 bytes are malformed JSON
    assert main(["gen", "random", *sizes(12, 40, 4, 3), "--seed", "2"]) == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert list(doc).index("candidates") < list(doc).index("voters")
    voters = doc.pop("voters")
    last = json.dumps({"voters": voters, **doc}, indent=2) + "\n"
    runs = {}
    for name, text in (("first", first), ("last", last), ("cut", first[:300])):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        runs[name] = (main(["solve", "--input", str(path)]), *capsys.readouterr())
    assert runs["first"][0] == runs["last"][0] == 0
    assert runs["first"][1] == runs["last"][1]
    code, out, err = runs["cut"]
    assert code == 2 and out == ""
    assert err.startswith("error[malformed-json]"), err
