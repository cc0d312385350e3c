"""Labelings, interval/dominance constraints, and dominance structure."""

import random

import pytest

from comsel import (
    ConstraintSet,
    ContractViolation,
    Dominance,
    InputError,
    Interval,
    Labeling,
    check_committee,
)
from comsel.constraints import DominanceForest, transitive_closure


class TestLabeling:
    def test_groups_are_frozen_and_sorted(self):
        labeling = Labeling({"right": "cd", "left": "ab"})
        assert labeling.names == ("left", "right")
        assert labeling.members("left") == frozenset("ab")
        assert len(labeling) == 2
        assert "left" in labeling and "middle" not in labeling

    def test_equality_hash_and_repr(self):
        labeling = Labeling({"l": "ab"})
        assert labeling == Labeling({"l": "ba"})
        assert hash(labeling) == hash(Labeling({"l": "ba"}))
        assert labeling != Labeling({"l": "a"})
        assert labeling != {"l": frozenset("ab")}
        # the repr reads back as an equal labeling
        assert eval(repr(labeling)) == labeling

    def test_empty_name_rejected(self):
        with pytest.raises(InputError, match="nonempty strings"):
            Labeling({"": "ab"})

    def test_empty_group_rejected(self):
        with pytest.raises(InputError, match="no members"):
            Labeling({"l": ()})

    def test_unknown_label(self):
        with pytest.raises(InputError, match="unknown label"):
            Labeling({"l": "ab"}).members("q")

    def test_labeled_and_disjoint(self):
        disjoint = Labeling({"l1": "ab", "l2": "cd"})
        overlapping = Labeling({"l1": "ab", "l2": "bc"})
        assert disjoint.is_disjoint
        assert not overlapping.is_disjoint
        assert overlapping.labeled == frozenset("abc")
        assert Labeling({}).is_disjoint

    def test_count(self):
        labeling = Labeling({"l": "abc"})
        assert labeling.count(("a", "c", "x"), "l") == 2

    def test_validate_against(self):
        labeling = Labeling({"l": "abz"})
        with pytest.raises(InputError, match="unknown candidates: z"):
            labeling.validate_against("abc")
        Labeling({"l": "ab"}).validate_against("abc")


class TestConstraintRecords:
    def test_interval_bounds(self):
        Interval("l", 0, 0)
        Interval("l", 2, 2)
        with pytest.raises(InputError, match="0 <= lower <= upper"):
            Interval("l", -1, 2)
        with pytest.raises(InputError, match=r"\[2, 1\]"):
            Interval("l", 2, 1)
        with pytest.raises(InputError, match="integers"):
            Interval("l", True, 2)

    def test_constraint_set_checks_label_references(self):
        with pytest.raises(InputError, match="interval names unknown label"):
            ConstraintSet.build({"l": "ab"}, intervals=(Interval("q", 0, 1),))
        with pytest.raises(InputError, match="dominance names unknown label"):
            ConstraintSet.build({"l": "ab"}, dominances=(Dominance("l", "q"),))

    def test_empty_constraint_set(self):
        empty = ConstraintSet.empty()
        assert len(empty.labeling) == 0
        assert empty.intervals == () and empty.dominances == ()


class TestCheckCommittee:
    def test_no_constraints_only_size_matters(self):
        empty = ConstraintSet.empty()
        assert check_committee(("a", "b"), 2, empty) == ()
        (violation,) = check_committee(("a",), 2, empty)
        assert violation.kind == "size"
        assert "1 members, expected 2" in violation.message

    def test_interval_violation_reports_counts(self):
        constraints = ConstraintSet.build(
            {"l": "abc"}, intervals=(Interval("l", 0, 1),)
        )
        (violation,) = check_committee(("a", "b"), 2, constraints)
        assert violation.kind == "interval"
        assert violation.describe() == "interval: label 'l': 2 chosen, allowed [0, 1]"

    def test_dominance_violation_names_both_labels(self):
        constraints = ConstraintSet.build(
            {"big": "ab", "small": "cd"}, dominances=(Dominance("big", "small"),)
        )
        (violation,) = check_committee(("c", "d"), 2, constraints)
        assert violation.kind == "dominance"
        assert "'big' gives 0" in violation.message
        assert "'small' gives 2" in violation.message

    def test_mutual_dominance_forces_balance(self):
        constraints = ConstraintSet.build(
            {"dem": ("d1", "d2", "d3"), "rep": ("r1", "r2", "r3")},
            dominances=(Dominance("dem", "rep"), Dominance("rep", "dem")),
        )
        balanced = ("d1", "d2", "r1", "r2", "i1")
        assert check_committee(balanced, 5, constraints) == ()
        skewed = ("d1", "d2", "d3", "r1", "i1")
        violations = check_committee(skewed, 5, constraints)
        assert [v.kind for v in violations] == ["dominance"]

    def test_violations_accumulate_in_declaration_order(self):
        constraints = ConstraintSet.build(
            {"l1": "ab", "l2": "cd"},
            intervals=(Interval("l1", 2, 2),),
            dominances=(Dominance("l1", "l2"),),
        )
        violations = check_committee(("a", "c"), 3, constraints)
        assert [v.kind for v in violations] == ["size", "interval"]
        violations = check_committee(("c", "d"), 2, constraints)
        assert [v.kind for v in violations] == ["interval", "dominance"]


def labels(*names):
    return Labeling({name: (f"{name}_member",) for name in names})


class TestDominanceStructure:
    def test_graph_adjacency(self):
        # with no chain, each label reaches exactly the labels it dominates
        constraints = ConstraintSet(
            labels("x", "y", "z"), dominances=(Dominance("x", "y"), Dominance("x", "z"))
        )
        assert constraints.reach == {
            "x": frozenset({"y", "z"}),
            "y": frozenset(),
            "z": frozenset(),
        }

    def test_closure_adds_chain_edge(self):
        graph = {"l1": frozenset({"l2"}), "l2": frozenset({"l3"}), "l3": frozenset()}
        reach = transitive_closure(graph)
        assert reach["l1"] == frozenset({"l2", "l3"})
        assert reach["l2"] == frozenset({"l3"})
        assert reach["l3"] == frozenset()
        chain = (Dominance("l1", "l2"), Dominance("l2", "l3"))
        assert ConstraintSet(labels("l1", "l2", "l3"), dominances=chain).reach == reach

    def test_self_reachability_needs_a_cycle(self):
        cycle = transitive_closure({"p": frozenset("q"), "q": frozenset("p")})
        assert cycle["p"] == frozenset({"p", "q"})
        acyclic = transitive_closure({"p": frozenset("q"), "q": frozenset()})
        assert "p" not in acyclic["p"]

    def test_tree_like_cases(self):
        def tree_like(labeling, dominances):
            return ConstraintSet(labeling, dominances=dominances).chain_violation is None

        chain = labels("l1", "l2", "l3")
        assert tree_like(chain, (Dominance("l1", "l2"), Dominance("l2", "l3")))
        # two incomparable labels dominate l3
        assert not tree_like(chain, (Dominance("l1", "l3"), Dominance("l2", "l3")))
        # a two-cycle collapses to one node, so it stays tree-like
        assert tree_like(chain, (Dominance("l1", "l2"), Dominance("l2", "l1")))
        diamond = labels("a", "b", "c", "d")
        assert not tree_like(
            diamond,
            (
                Dominance("a", "b"),
                Dominance("a", "c"),
                Dominance("b", "d"),
                Dominance("c", "d"),
            ),
        )
        star = labels("hub", "s1", "s2", "s3")
        assert tree_like(
            star,
            (
                Dominance("hub", "s1"),
                Dominance("hub", "s2"),
                Dominance("hub", "s3"),
            ),
        )
        assert tree_like(Labeling({}), ())

    def test_forest_layout_of_a_chain(self):
        labeling = labels("l1", "l2", "l3")
        forest = DominanceForest.build(
            ConstraintSet(
                labeling, dominances=(Dominance("l1", "l2"), Dominance("l2", "l3"))
            )
        )
        assert forest.nodes == (("l1",), ("l2",), ("l3",))
        assert forest.roots == (0,)
        assert forest.children == ((1,), (2,), ())

    def test_forest_collapses_cycles(self):
        labeling = labels("p", "q", "r")
        forest = DominanceForest.build(
            ConstraintSet(
                labeling,
                dominances=(
                    Dominance("p", "q"), Dominance("q", "p"), Dominance("p", "r")
                ),
            )
        )
        assert forest.nodes == (("p", "q"), ("r",))
        assert forest.roots == (0,)
        assert forest.children == ((1,), ())

    def test_forest_skips_transitive_edges(self):
        labeling = labels("top", "mid", "bot")
        forest = DominanceForest.build(
            ConstraintSet(
                labeling,
                dominances=(
                    Dominance("top", "mid"),
                    Dominance("mid", "bot"),
                    Dominance("top", "bot"),
                ),
            )
        )
        # bot hangs off mid, not off top
        index = forest.nodes.index
        assert forest.children[index(("top",))] == (index(("mid",)),)
        assert forest.children[index(("mid",))] == (index(("bot",)),)
        assert forest.roots == (index(("top",)),)

    def test_forest_parent_is_the_closest_cycle(self):
        # A and the cycle {B, C} both reach D; the cycle is closer
        labeling = labels("A", "B", "C", "D")
        forest = DominanceForest.build(
            ConstraintSet(
                labeling,
                dominances=(
                    Dominance("A", "B"),
                    Dominance("B", "C"),
                    Dominance("C", "B"),
                    Dominance("B", "D"),
                ),
            )
        )
        assert forest.nodes == (("A",), ("B", "C"), ("D",))
        # D hangs off the cycle {B, C}, not off A
        assert forest.children == ((1,), (2,), ())
        assert forest.roots == (0,)

    def test_forest_rejects_incomparable_dominators(self):
        labeling = labels("l1", "l2", "l3")
        with pytest.raises(ContractViolation, match="not tree-like"):
            DominanceForest.build(
                ConstraintSet(
                    labeling, dominances=(Dominance("l1", "l3"), Dominance("l2", "l3"))
                )
            )

    def test_isolated_labels_are_roots(self):
        forest = DominanceForest.build(ConstraintSet(labels("a", "b")))
        assert forest.nodes == (("a",), ("b",))
        assert forest.roots == (0, 1)
        assert forest.children == ((), ())


def reference_witness(reach):
    """The tree-likeness scan as it read before the cached dominators:
    each label's dominators rebuilt from the closure."""
    names = sorted(reach)
    for target in names:
        above = [a for a in names if a != target and target in reach[a]]
        for i, first in enumerate(above):
            for second in above[i + 1 :]:
                if second not in reach[first] and first not in reach[second]:
                    return first, second, target
    return None


def reference_forest(names, reach):
    """The forest layout as it read before the cached dominators: every
    label scanned per node, and the parent found by set differences."""
    groups = {}
    for name in names:
        cycle = frozenset(
            {name} | {other for other in reach[name] if name in reach[other]}
        )
        groups.setdefault(cycle, None)
    nodes = tuple(sorted(tuple(sorted(group)) for group in groups))
    index_of = {name: position for position, node in enumerate(nodes) for name in node}
    children = [[] for _ in nodes]
    roots = []
    for position, node in enumerate(nodes):
        representative = node[0]
        above = {
            index_of[name] for name in names if representative in reach[name]
        } - {position}
        up = min(
            above,
            key=lambda i: len(reach[nodes[i][0]] - set(nodes[i])),
            default=None,
        )
        (roots if up is None else children[up]).append(position)
    return nodes, tuple(map(tuple, children)), tuple(roots)


def digraphs():
    """Every digraph without self-loops on up to 4 labels (4 096 on 4),
    then 20 000 seeded random ones on 5-8 labels, self-loops included."""
    names = [f"l{i}" for i in range(8)]
    edges = {(a, b): Dominance(a, b) for a in names for b in names}
    for n in range(5):
        labeling = labels(*names[:n])
        pairs = [edges[a, b] for a in names[:n] for b in names[:n] if a != b]
        for mask in range(1 << len(pairs)):
            chosen = (pair for bit, pair in enumerate(pairs) if mask >> bit & 1)
            yield ConstraintSet(labeling, dominances=tuple(chosen))
    drawn = {
        n: (labels(*names[:n]), [edges[a, b] for a in names[:n] for b in names[:n]])
        for n in range(5, 9)
    }
    rng = random.Random(32)
    for _ in range(20_000):
        n = rng.randint(5, 8)
        labeling, pairs = drawn[n]
        chosen = rng.choices(pairs, k=rng.randint(0, 2 * n))
        yield ConstraintSet(labeling, dominances=tuple(chosen))


def test_one_analysis_matches_the_reference():
    tree_like = cyclic = 0
    for constraints in digraphs():
        reach = constraints.reach
        witness = reference_witness(reach)
        assert constraints.chain_violation == witness, constraints.dominances
        if witness is not None:
            continue
        forest = DominanceForest.build(constraints)
        layout = (forest.nodes, forest.children, forest.roots)
        expected = reference_forest(constraints.labeling.names, reach)
        assert layout == expected, constraints.dominances
        tree_like += 1
        cyclic += any(len(node) > 1 for node in forest.nodes)
    # both outcomes, and forests with cycles, are well represented
    assert tree_like > 10_000 and cyclic > 3_000, (tree_like, cyclic)


def test_a_child_has_more_dominators_than_its_parent():
    # the tree solver builds its tables in one pass, most dominators first,
    # which puts every child before its parent
    edges = 0
    for constraints in digraphs():
        if constraints.chain_violation is not None:
            continue
        forest = DominanceForest.build(constraints)
        count = {name: len(above) for name, above in constraints.dominators.items()}
        for parent, kids in enumerate(forest.children):
            for child in kids:
                first = count[forest.nodes[child][0]]
                assert first > count[forest.nodes[parent][0]], constraints.dominances
                edges += 1
    assert edges > 20_000, edges
