"""Instance-level dispatch: derive the order, route to a solver, verify."""

from __future__ import annotations

from dataclasses import replace

from .bruteforce import OracleBudget, solve_bruteforce
from .constraints import check_committee
from .elections import Score, score_all
from .errors import ContractViolation, InputError
from .instances import ElectionInstance, StvRule
from .orders import leximax_weights, leximin_weights
from .regions import solve_region_ip
from .result import SolveResult
from .stv import stv_ranking
from .treedp import solve_tree

SOLVERS = ("auto", "dp", "region", "oracle")


def build_order(instance: ElectionInstance) -> dict[str, Score]:
    """The instance's committee order as its per-candidate weights: of two
    equal-size committees, the one with the larger weight sum is better.
    STV scores each candidate by its place in the count's ranking."""
    rule = instance.rule
    if isinstance(rule, StvRule):
        ranking = stv_ranking(instance.profile, rule.variant)
        scores = {c: -place for place, c in enumerate(ranking)}
    else:
        scores = score_all(instance.profile, rule)
        if instance.order_kind == "score":
            return scores
    if instance.order_kind == "leximax":
        return leximax_weights(scores)
    return leximin_weights(scores)


def choose_solver(instance: ElectionInstance) -> str:
    """dp for labeled instances with disjoint labels and tree-like
    dominance; region for everything else, as every order keys committees
    by a weight sum.  Unlabeled instances go to the region search as well,
    which answers them exactly; it is cheaper than dp only at large k.
    The oracle runs only when forced."""
    labeling = instance.constraints.labeling
    if (
        len(labeling) > 0
        and labeling.is_disjoint
        and instance.constraints.chain_violation is None
    ):
        return "dp"
    return "region"


def solve_instance(
    instance: ElectionInstance,
    solver: str = "auto",
    budget: int = OracleBudget.max_committee_enumeration,
) -> SolveResult:
    """Solve and re-verify: an optimal result always passes check_committee.

    ``budget`` caps the committees the oracle may enumerate, whatever the
    pool size; the other solvers ignore it, but every route refuses one
    below 1.  This is the one place where solver output is verified; the
    solvers themselves do not re-check their committees."""
    if solver not in SOLVERS:
        raise InputError(
            f"unknown solver {solver!r}; expected one of {', '.join(SOLVERS)}"
        )
    if budget < 1:
        raise InputError("budget limits must be positive")
    candidates = instance.profile.candidates
    chosen = choose_solver(instance) if solver == "auto" else solver
    k = instance.k
    constraints = instance.constraints
    weights = build_order(instance)
    if chosen == "dp":
        result = solve_tree(candidates, k, constraints, weights)
    elif chosen == "region":
        result = solve_region_ip(candidates, k, constraints, weights)
    else:
        oracle_budget = OracleBudget(len(candidates), budget)
        result = solve_bruteforce(candidates, k, constraints, weights, oracle_budget)
    if instance.order_kind != "score":  # a lexi key is no score
        result = replace(result, score=None)
    if result.is_optimal:
        violations = check_committee(result.committee, k, constraints)
        if violations:
            raise ContractViolation(
                "solver returned an invalid committee: "
                + "; ".join(v.describe() for v in violations)
            )
    return result
