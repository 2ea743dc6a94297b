"""Game-theoretic patrol planning on the time-unrolled park graph."""

from .external import solve_external, write_lp_file
from .graph import PlanInfeasibleError, PlannerError, TimeUnrolledGraph, build_graph
from .milp import (
    LpResult,
    MilpModel,
    PlanProblem,
    assemble_milp,
    branch_and_bound,
    objective_of_coverage,
    solve_lp,
)
from .solve import (
    PatrolPlan,
    decompose_routes,
    improvement_ratio,
    solve,
    solve_by_enumeration,
    utilities_convex,
)

__all__ = [
    "LpResult",
    "MilpModel",
    "PatrolPlan",
    "PlanInfeasibleError",
    "PlanProblem",
    "PlannerError",
    "TimeUnrolledGraph",
    "assemble_milp",
    "branch_and_bound",
    "build_graph",
    "decompose_routes",
    "improvement_ratio",
    "objective_of_coverage",
    "solve",
    "solve_by_enumeration",
    "solve_external",
    "solve_lp",
    "utilities_convex",
    "write_lp_file",
]
