"""Plan solving, route decomposition, and the robustness sweep.

``solve`` runs the window branch and bound of ``milp`` (``bnb``). Path
enumeration (``enumerate``) is kept as the exact oracle the tests compare
against: it walks every feasible patrol path, which is exact only when
every cell's utility is convex in coverage (then some optimal mixed
strategy sits at a vertex of the flow polytope, i.e. a single path), and
it refuses nonconvex instances, where mixtures can strictly beat every
pure path.

``improvement_ratio`` solves one problem at every beta of a grid. Its
branch and bounds share one HiGHS instance (``milp.LpSweep``): the beta
grid changes only the costs of the same LP, and each root after the first
restarts from the first root's optimal basis. ``solve`` plans alone, as
the first beta of a sweep of its own.

Both solvers return an edge flow; one function (``_plan``) turns that
flow into a ``PatrolPlan``: coverage, routes and both objectives. Edges
are numbered by tail node, then by head cell, and nodes by time, then by
cell (see ``graph``), so route decomposition walks each node's out-edges
as one range of edge indices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import PlanInfeasibleError, PlannerError, TimeUnrolledGraph
from .milp import LpSweep, PlanProblem, assemble_milp, branch_and_bound, objective_of_coverage

PATH_LIMIT = 100000


@dataclass(frozen=True)
class PatrolPlan:
    """Solved patrol: flow, per-cell coverage, routes, objective values."""

    graph: TimeUnrolledGraph
    K: int
    beta: float
    flow: np.ndarray                 # (n_edges,) in [0, 1]
    coverage: np.ndarray             # (n_cells,) km of expected presence
    routes: tuple                    # ((cell, ...), weight) pairs
    objective: float                 # robust utility U_beta of the plan
    objective_nominal: float         # beta = 0 utility of the same coverage
    solver: str

    def validate(self) -> None:
        g = self.graph
        if g.horizon > 1:
            inflow = np.bincount(g.edge_head, weights=self.flow, minlength=g.num_nodes)
            outflow = np.bincount(g.edge_tail, weights=self.flow, minlength=g.num_nodes)
            excess = inflow - outflow
            excess[g.source] = outflow[g.source] - 1.0
            excess[g.sink] = inflow[g.sink] - 1.0
            bad = np.flatnonzero(np.abs(excess) > 1e-9)
            if bad.size:
                i = int(bad[0])
                if i == g.source:
                    raise PlannerError("source must emit unit flow")
                if i == g.sink:
                    raise PlannerError("sink must absorb unit flow")
                raise PlannerError(f"flow conservation violated at node {i}")
        total = float(self.coverage.sum())
        if abs(total - g.horizon * self.K) > 1e-6:
            raise PlannerError(f"total coverage {total} != T*K = {g.horizon * self.K}")

    def to_dict(self) -> dict:
        return {
            "post": int(self.graph.post),
            "horizon": int(self.graph.horizon),
            "K": int(self.K),
            "beta": float(self.beta),
            "solver": self.solver,
            "objective": float(self.objective),
            "objective_nominal": float(self.objective_nominal),
            "coverage": {str(int(c)): float(v) for c, v in enumerate(self.coverage) if v > 0},
            "routes": [{"cells": [int(c) for c in path], "weight": float(w)}
                       for path, w in self.routes],
        }


def utilities_convex(problem: PlanProblem) -> bool:
    """True when every park cell's utility is convex in coverage (slopes
    non-decreasing up to 1e-12)."""
    u = problem.pwl.utility_values(problem.beta)
    br = problem.pwl.breakpoints
    slopes = np.diff(u[problem.graph.grid.masked_ids()], axis=1) / np.diff(br)[None, :]
    return bool(np.all(np.diff(slopes, axis=1) >= -1e-12))


def solve_by_enumeration(problem: PlanProblem) -> PatrolPlan:
    """Exact oracle over pure paths; only valid for convex utilities."""
    if not utilities_convex(problem):
        raise PlannerError(
            "path enumeration is exact only for convex utilities; "
            "a mixed strategy could beat every single path here")
    g = problem.graph
    best_obj, best_flow = -np.inf, None
    for path in g.enumerate_paths(PATH_LIMIT):
        flow = np.zeros(g.num_edges)
        flow[path] = 1.0
        cov = g.coverage_from_flow(flow, problem.K)
        obj = objective_of_coverage(problem.pwl, g.grid, cov, problem.beta)
        if obj > best_obj:  # paths arrive in lexicographic order; first max kept
            best_obj, best_flow = obj, flow
    if best_flow is None:
        raise PlanInfeasibleError("no feasible path")
    return _plan(problem, best_flow, "enumerate")


def solve(problem: PlanProblem, method: str = "bnb") -> PatrolPlan:
    """Solve one plan problem by branch and bound (``bnb``), or by path
    enumeration (``enumerate``, the convex-only oracle)."""
    if method == "enumerate":
        return solve_by_enumeration(problem)
    if method != "bnb":
        raise PlannerError(f"unknown solve method {method!r}")
    return _solve_bnb(problem)


def _solve_bnb(problem: PlanProblem, sweep: LpSweep | None = None) -> PatrolPlan:
    """Branch and bound, on ``sweep``'s HiGHS instance if one is given."""
    model = assemble_milp(problem)
    x, _ = branch_and_bound(model, sweep)
    flow = np.clip(model.flow_values(x), 0.0, 1.0)
    flow[flow < 1e-12] = 0.0
    return _plan(problem, flow, "bnb")


def _plan(problem: PlanProblem, flow: np.ndarray, solver: str) -> PatrolPlan:
    """The plan a solver's edge flow makes: coverage, routes, objectives."""
    g = problem.graph
    coverage = g.coverage_from_flow(flow, problem.K)
    return PatrolPlan(
        graph=g, K=problem.K, beta=problem.beta, flow=flow, coverage=coverage,
        routes=decompose_flow(g, flow),
        objective=objective_of_coverage(problem.pwl, g.grid, coverage, problem.beta),
        objective_nominal=objective_of_coverage(problem.pwl, g.grid, coverage, 0.0),
        solver=solver,
    )


def decompose_flow(g: TimeUnrolledGraph, flow: np.ndarray) -> tuple:
    """Strip a unit source-sink flow into weighted paths.

    Greedy: follow the largest-flow out-edge (ties to the lowest edge
    index), subtract the bottleneck, repeat. At most one path per edge;
    weights sum to the source outflow (1 for a feasible plan). Residual
    flow at or below 1e-12 counts as none.
    """
    if g.horizon == 1:
        return (((g.post,), 1.0),)
    residual = np.asarray(flow, dtype=float).tolist()
    start, heads, cell = g.out_start.tolist(), g.edge_head.tolist(), g.edge_cell.tolist()
    routes = []
    for _ in range(g.num_edges):
        if sum(residual[start[g.source]:start[g.source + 1]]) <= 1e-12:
            break
        node, cells, taken = g.source, [g.post], []
        while node != g.sink:
            # max keeps the first maximum: the lowest edge index
            e = max(range(start[node], start[node + 1]), key=residual.__getitem__)
            if residual[e] <= 1e-12:
                raise PlannerError("flow does not decompose; conservation violated")
            taken.append(e)
            node = heads[e]
            cells.append(cell[e])
        w = min(residual[e] for e in taken)
        for e in taken:
            residual[e] -= w
        routes.append((tuple(cells), w))
    return tuple(routes)


def improvement_ratio(problem: PlanProblem, beta_grid, method: str = "bnb",
                      return_plans: bool = False):
    """Robustness sweep: for each beta, U_beta(C_beta) / U_beta(C_0).

    The beta = 0 row reuses the baseline plan so its ratio is exactly 1.
    A zero baseline utility yields None (undefined). The whole grid, which
    must not be empty, and ``method`` are checked before the first solve.
    The only method is branch and bound (``bnb``): it solves every beta on
    one ``LpSweep``, beta = 0 first.
    """
    betas = [float(beta) for beta in beta_grid]
    if not betas or not all(0.0 <= beta <= 1.0 for beta in betas):
        raise PlannerError("beta grid must be nonempty and lie in [0, 1]")
    if method != "bnb":
        raise PlannerError(f"unknown sweep method {method!r}; the sweep solves by 'bnb' only")
    sweep = LpSweep()

    def solve_at(beta):
        return _solve_bnb(replace(problem, beta=beta), sweep)

    base_plan = solve_at(0.0)
    table = []
    plans = {}
    for beta in betas:
        if beta == 0.0:
            plans[beta] = base_plan
            table.append((beta, 1.0))
            continue
        plan_b = solve_at(beta)
        plans[beta] = plan_b
        denom = objective_of_coverage(problem.pwl, problem.graph.grid, base_plan.coverage, beta)
        table.append((beta, plan_b.objective / denom if denom != 0.0 else None))
    return (table, base_plan, plans) if return_plans else table
