"""Instance-level dispatch: route to a solver, solve, verify.  The order
comes from ``comsel.orders.build_order``, so no rule type is asked here."""

from __future__ import annotations

from dataclasses import replace

from .bruteforce import OracleBudget, solve_bruteforce
from .constraints import check_committee
from .errors import ContractViolation, InputError
from .instances import ElectionInstance
from .orders import build_order
from .regions import solve_region_ip
from .result import SolveResult
from .treedp import solve_tree

SOLVERS = ("auto", "dp", "region", "oracle")


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
    candidates = instance.profile.candidates
    oracle_budget = OracleBudget(len(candidates), budget)  # refuses one below 1
    chosen = choose_solver(instance) if solver == "auto" else solver
    k = instance.k
    constraints = instance.constraints
    weights = build_order(instance)
    if chosen == "dp":
        result = solve_tree(candidates, k, constraints, weights)
    elif chosen == "region":
        result = solve_region_ip(candidates, k, constraints, weights)
    else:
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
