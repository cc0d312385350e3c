"""Label groups, interval and dominance constraints, and their structure.

A labeling names groups of candidates.  An interval constraint bounds how
many committee members a group may contribute.  A dominance constraint
requires one group to contribute at least as many members as another.
Dominance relations form a directed graph over labels, analysed once per
instance: the closure gives each label's dominators.  Dominance is tree-like
when every label's dominators form a chain.  Then each cycle of labels
hangs below its closest dominator outside it, which has the most dominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import ContractViolation, InputError


class Labeling:
    """Named candidate groups.  Names are unique; groups are nonempty."""

    def __init__(self, groups: Mapping[str, Iterable[str]]):
        named: dict[str, frozenset[str]] = {}
        for name, members in groups.items():
            if not isinstance(name, str) or not name:
                raise InputError(
                    "label names must be nonempty strings", code="empty-label"
                )
            group = frozenset(members)
            if not group:
                raise InputError(f"label {name!r} has no members", code="empty-label")
            named[name] = group
        self._groups = dict(sorted(named.items()))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._groups)

    def __len__(self) -> int:
        return len(self._groups)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._groups

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Labeling):
            return NotImplemented
        return self._groups == other._groups

    def __hash__(self) -> int:
        return hash(tuple(self._groups.items()))

    def __repr__(self) -> str:
        return f"Labeling({self._groups!r})"

    def members(self, name: str) -> frozenset[str]:
        try:
            return self._groups[name]
        except KeyError:
            raise InputError(f"unknown label {name!r}", code="unknown-label") from None

    @property
    def labeled(self) -> frozenset[str]:
        """Every candidate that belongs to at least one group."""
        out: set[str] = set()
        for group in self._groups.values():
            out |= group
        return frozenset(out)

    @property
    def is_disjoint(self) -> bool:
        seen: set[str] = set()
        for group in self._groups.values():
            if group & seen:
                return False
            seen |= group
        return True

    def count(self, committee: Iterable[str], name: str) -> int:
        return len(self.members(name) & frozenset(committee))

    def validate_against(self, candidates: Iterable[str]) -> None:
        universe = frozenset(candidates)
        for name, group in self._groups.items():
            stray = group - universe
            if stray:
                shown = ", ".join(sorted(stray))
                raise InputError(
                    f"label {name!r} names unknown candidates: {shown}",
                    code="unknown-candidate",
                )


@dataclass(frozen=True)
class Interval:
    """The committee must pick between lower and upper members of a label."""

    label: str
    lower: int
    upper: int

    def __post_init__(self) -> None:
        for bound in (self.lower, self.upper):
            if not isinstance(bound, int) or isinstance(bound, bool):
                raise InputError(
                    "interval bounds must be integers", code="invalid-interval-bounds"
                )
        if self.lower < 0 or self.upper < self.lower:
            raise InputError(
                f"interval for label {self.label!r} needs 0 <= lower <= upper, "
                f"got [{self.lower}, {self.upper}]",
                code="invalid-interval-bounds",
            )


@dataclass(frozen=True)
class Dominance:
    """The committee must pick at least as many from ``over`` as from ``under``."""

    over: str
    under: str


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str

    def describe(self) -> str:
        return f"{self.kind}: {self.message}"


@dataclass(frozen=True)
class ConstraintSet:
    """A labeling together with the constraints stated over it.

    The dominance analysis (closure, dominators, tree-likeness witness) is
    computed on first use and cached, so every solver stage shares it.
    """

    labeling: Labeling
    intervals: tuple[Interval, ...] = ()
    dominances: tuple[Dominance, ...] = ()

    def __post_init__(self) -> None:
        for interval in self.intervals:
            if interval.label not in self.labeling:
                raise InputError(
                    f"interval names unknown label {interval.label!r}",
                    code="unknown-label",
                )
        for dominance in self.dominances:
            for name in (dominance.over, dominance.under):
                if name not in self.labeling:
                    raise InputError(
                        f"dominance names unknown label {name!r}",
                        code="unknown-label",
                    )

    @classmethod
    def build(
        cls,
        groups: Mapping[str, Iterable[str]],
        intervals: Iterable[Interval] = (),
        dominances: Iterable[Dominance] = (),
    ) -> "ConstraintSet":
        return cls(Labeling(groups), tuple(intervals), tuple(dominances))

    @classmethod
    def empty(cls) -> "ConstraintSet":
        return cls(Labeling({}))

    @cached_property
    def reach(self) -> dict[str, frozenset[str]]:
        """Transitive closure of the dominance graph, whose edges point
        from over to under."""
        graph: dict[str, set[str]] = {name: set() for name in self.labeling.names}
        for dominance in self.dominances:
            graph[dominance.over].add(dominance.under)
        return transitive_closure(graph)

    @cached_property
    def dominators(self) -> dict[str, tuple[str, ...]]:
        """Each label's dominators, the other labels that reach it, in name order."""
        above: dict[str, list[str]] = {name: [] for name in self.reach}
        for name, below in self.reach.items():
            for target in below - {name}:
                above[target].append(name)
        return {name: tuple(names) for name, names in above.items()}

    @cached_property
    def chain_violation(self) -> tuple[str, str, str] | None:
        """Two incomparable labels that both dominate a third, or None when
        the dominance relation is tree-like."""
        reach, dominators = self.reach, self.dominators
        size = {name: len(above) for name, above in dominators.items()}
        for target, above in dominators.items():
            # in order of their own dominator counts, a chain's labels each
            # reach the next; only a label whose dominators fail that is
            # scanned pair by pair for the witness
            chain = sorted(above, key=size.__getitem__)
            for first, second in zip(chain, chain[1:]):
                if second not in reach[first]:
                    break
            else:
                continue
            for i, first in enumerate(above):
                for second in above[i + 1 :]:
                    if second not in reach[first] and first not in reach[second]:
                        return first, second, target
        return None


def check_committee(
    committee: Iterable[str], k: int, constraints: ConstraintSet
) -> tuple[Violation, ...]:
    """Every constraint the committee breaks: a wrong size first, then
    the intervals, then the dominances, each kind in declaration order."""
    members = frozenset(committee)
    found: list[Violation] = []
    if len(members) != k:
        found.append(
            Violation("size", f"committee has {len(members)} members, expected {k}")
        )
    labeling = constraints.labeling
    for interval in constraints.intervals:
        chosen = labeling.count(members, interval.label)
        if not interval.lower <= chosen <= interval.upper:
            found.append(
                Violation(
                    "interval",
                    f"label {interval.label!r}: {chosen} chosen, "
                    f"allowed [{interval.lower}, {interval.upper}]",
                )
            )
    for dominance in constraints.dominances:
        over = labeling.count(members, dominance.over)
        under = labeling.count(members, dominance.under)
        if over < under:
            found.append(
                Violation(
                    "dominance",
                    f"label {dominance.over!r} gives {over} members but "
                    f"label {dominance.under!r} gives {under}",
                )
            )
    return tuple(found)


def transitive_closure(
    graph: Mapping[str, Iterable[str]]
) -> dict[str, frozenset[str]]:
    """Reachability along at least one edge; a node reaches itself only
    through a cycle."""
    closed: dict[str, frozenset[str]] = {}
    for start in graph:
        seen: set[str] = set()
        stack = list(graph[start])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(graph[node])
        closed[start] = frozenset(seen)
    return closed


@dataclass(frozen=True)
class DominanceForest:
    """Forest layout of the dominance relation.

    Each node is a sorted tuple of labels forced to equal counts by a
    dominance cycle.  An edge runs from a dominating node to the closest
    node it dominates, after collapsing cycles and dropping edges implied
    by transitivity.  ``children`` holds each node's edges by node index,
    and ``roots`` the nodes no other node dominates.
    """

    nodes: tuple[tuple[str, ...], ...]
    children: tuple[tuple[int, ...], ...]
    roots: tuple[int, ...]

    @classmethod
    def build(cls, constraints: ConstraintSet) -> "DominanceForest":
        witness = constraints.chain_violation
        if witness is not None:
            first, second, target = witness
            raise ContractViolation(
                f"dominance is not tree-like: labels {first!r} and {second!r} "
                f"both dominate {target!r} but neither dominates the other"
            )
        reach = constraints.reach
        dominators = constraints.dominators
        # a label's node is it with the dominators it reaches back
        cycles = {
            tuple(sorted((name, *(a for a in above if a in reach[name]))))
            for name, above in dominators.items()
        }
        nodes = tuple(sorted(cycles))
        index_of = {
            name: position
            for position, node in enumerate(nodes)
            for name in node
        }
        children: list[list[int]] = [[] for _ in nodes]
        roots: list[int] = []
        for position, node in enumerate(nodes):
            # along the chain outside the cycle, the closest has the most dominators
            up = max(
                (name for name in dominators[node[0]] if index_of[name] != position),
                key=lambda name: len(dominators[name]),
                default=None,
            )
            (roots if up is None else children[index_of[up]]).append(position)
        return cls(nodes, tuple(map(tuple, children)), tuple(roots))
