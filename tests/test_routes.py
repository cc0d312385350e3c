"""Two routes agree on one document: each case writes the document through
``comsel gen random`` (or takes it as written), solves it by two routes
through ``cli.main``, each exiting 0, and compares the fields it names."""

import json

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
