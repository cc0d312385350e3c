"""Uniform outcome record shared by every solver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .elections import Score, as_score


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve call.

    ``status`` is "optimal" or "infeasible".  ``committee`` is a sorted
    tuple, empty on infeasible instances.  ``score`` is the committee's
    weight sum; ``solve_instance`` keeps it only under a score order and
    reports an integral one as an int.
    ``reason`` explains infeasibility; ``stats`` carries solver counters.
    """

    status: str
    committee: tuple[str, ...]
    score: Score | None
    solver: str
    reason: str | None = None
    stats: Mapping[str, int] | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def outcome(
    solver: str,
    weights: Mapping[str, Score],
    committee: tuple[str, ...] | None,
    stats: Mapping[str, int],
    reason: str = "no size-k committee satisfies the constraints",
) -> SolveResult:
    """A solver's result: ``committee`` as the optimum, scored by its
    ``weights`` sum, or infeasible for ``reason`` when it is None."""
    if committee is None:
        return SolveResult("infeasible", (), None, solver, reason, dict(stats))
    score = as_score(sum(weights[name] for name in committee))
    return SolveResult("optimal", committee, score, solver, stats=dict(stats))
