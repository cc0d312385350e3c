"""Exact committee selection under label-count and dominance constraints."""

from .bruteforce import (
    OracleBudget,
    enumerate_feasible,
    solve_bruteforce,
)
from .constraints import (
    ConstraintSet,
    Dominance,
    DominanceForest,
    Interval,
    Labeling,
    Violation,
    build_dominance_graph,
    check_committee,
    transitive_closure,
)
from .elections import (
    ElectionProfile,
    Score,
    SingletonRanking,
    score_all,
)
from .errors import (
    BudgetExceededError,
    ComselError,
    ContractViolation,
    InputError,
)
from .generators import (
    Graph,
    gen_clique_bloc,
    gen_clique_sntv,
    gen_random,
    gen_vertex_cover_dominance,
    gen_vertex_cover_intervals,
    parse_graph,
)
from .instances import (
    ORDER_KINDS,
    ElectionInstance,
    Rule,
    StvRule,
    WeaklySeparableRule,
)
from .orders import best_singletons, leximax_weights, leximin_weights
from .regions import solve_region_ip
from .result import SolveResult
from .solve import (
    SOLVERS,
    build_order,
    choose_solver,
    solve_instance,
)
from .stv import StvRound, stv_ranking, stv_rounds
from .treedp import solve_tree

__all__ = [
    "BudgetExceededError",
    "ComselError",
    "ConstraintSet",
    "ContractViolation",
    "Dominance",
    "DominanceForest",
    "ElectionInstance",
    "ElectionProfile",
    "Graph",
    "InputError",
    "Interval",
    "Labeling",
    "ORDER_KINDS",
    "OracleBudget",
    "Rule",
    "SOLVERS",
    "Score",
    "SingletonRanking",
    "SolveResult",
    "StvRound",
    "StvRule",
    "Violation",
    "WeaklySeparableRule",
    "best_singletons",
    "build_dominance_graph",
    "build_order",
    "check_committee",
    "choose_solver",
    "enumerate_feasible",
    "gen_clique_bloc",
    "gen_clique_sntv",
    "gen_random",
    "gen_vertex_cover_dominance",
    "gen_vertex_cover_intervals",
    "leximax_weights",
    "leximin_weights",
    "parse_graph",
    "score_all",
    "solve_bruteforce",
    "solve_instance",
    "solve_region_ip",
    "solve_tree",
    "stv_ranking",
    "stv_rounds",
    "transitive_closure",
    "__version__",
]

__version__ = "0.1.0"
