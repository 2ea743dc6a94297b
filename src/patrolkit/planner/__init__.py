"""Game-theoretic patrol planning on the time-unrolled park graph."""

from .graph import PlannerError, TimeUnrolledGraph, build_graph
from .milp import (
    MilpModel,
    PlanProblem,
    assemble_milp,
    branch_and_bound,
    objective_of_coverage,
    solve_lp,
    write_lp_file,
)
from .solve import (
    PatrolPlan,
    improvement_ratio,
    solve,
    solve_by_enumeration,
    utilities_convex,
)
