"""Exact committee selection under label-count and dominance constraints.

Every public name imports its module on first use (PEP 562), so a command
loads only the modules it runs: ``comsel solve`` loads no generator code.
A name is looked up in its module on each access and never stored here,
so a patch of the module's binding shows through the package and is
undone with it.
"""

import importlib

__version__ = "0.1.0"

# each module with the public names it defines
_EXPORTS = {
    "bruteforce": ("OracleBudget", "enumerate_feasible", "solve_bruteforce"),
    "constraints": (
        "ConstraintSet", "Dominance", "Interval", "Labeling", "Violation",
        "check_committee",
    ),
    "elections": ("ElectionProfile", "Score", "WeaklySeparableRule", "score_all"),
    "errors": (
        "BudgetExceededError", "ComselError", "ContractViolation", "InputError",
    ),
    "generators": (
        "Graph", "gen_clique_bloc", "gen_clique_sntv", "gen_random",
        "gen_vertex_cover_dominance", "gen_vertex_cover_intervals",
        "parse_graph",
    ),
    "instances": ("ORDER_KINDS", "ElectionInstance", "Rule"),
    "orders": ("build_order", "leximax_weights", "leximin_weights"),
    "regions": ("solve_region_ip",),
    "result": ("SolveResult",),
    "solve": ("SOLVERS", "choose_solver", "solve_instance"),
    "stv": ("StvRound", "StvRule", "stv_ranking", "stv_rounds"),
    "treedp": ("solve_tree",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    # an AttributeError for any other name lets ``from comsel import cli``
    # fall back to importing the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
