"""Plan solving, route decomposition, and the robustness sweep.

Three solution routes:

* ``enumerate`` walks every feasible patrol path. It is an exact oracle
  only when every cell's utility is convex in coverage (then some optimal
  mixed strategy sits at a vertex of the flow polytope, i.e. a single
  path); it refuses nonconvex instances, where mixtures can strictly beat
  every pure path.
* ``bnb`` (default) solves the MILP with the internal branch and bound.
* ``external`` solves the full SOS2 model (the one ``write_lp_file``
  exports) in process with scipy's HiGHS MIP.

``auto`` picks enumeration when it is both exact and small enough
(at most ``path_limit`` paths), otherwise branch and bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import PlanInfeasibleError, PlannerError, TimeUnrolledGraph
from .milp import PlanProblem, assemble_milp, branch_and_bound, objective_of_coverage

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

    def validate(self, feas_tol: float = 1e-9) -> None:
        g = self.graph
        if g.horizon > 1:
            inflow = np.bincount(g.edge_head, weights=self.flow, minlength=g.num_nodes)
            outflow = np.bincount(g.edge_tail, weights=self.flow, minlength=g.num_nodes)
            excess = inflow - outflow
            excess[g.source] = outflow[g.source] - 1.0
            excess[g.sink] = inflow[g.sink] - 1.0
            bad = np.flatnonzero(np.abs(excess) > feas_tol)
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


def utilities_convex(problem: PlanProblem, tol: float = 1e-12) -> bool:
    """True when every park cell's utility is convex in coverage."""
    pwl = problem.pwl.extended_to(problem.graph.horizon * problem.K)
    u = pwl.utility_values(problem.beta)
    br = pwl.breakpoints
    slopes = np.diff(u[problem.graph.grid.masked_ids()], axis=1) / np.diff(br)[None, :]
    return bool(np.all(np.diff(slopes, axis=1) >= -tol))


def _plan_from_solution(model: MilpModel, x: np.ndarray, solver: str) -> PatrolPlan:
    problem = model.problem
    g = problem.graph
    flow = np.clip(model.flow_values(x), 0.0, 1.0)
    flow[flow < 1e-12] = 0.0
    coverage = g.coverage_from_flow(flow, problem.K)
    routes = decompose_flow(g, flow)
    return PatrolPlan(
        graph=g, K=problem.K, beta=problem.beta, flow=flow, coverage=coverage,
        routes=routes,
        objective=objective_of_coverage(model.pwl, g.grid, coverage, problem.beta),
        objective_nominal=objective_of_coverage(model.pwl, g.grid, coverage, 0.0),
        solver=solver,
    )


def solve_by_enumeration(problem: PlanProblem, path_limit: int = PATH_LIMIT) -> PatrolPlan:
    """Exact oracle over pure paths; only valid for convex utilities."""
    if not utilities_convex(problem):
        raise PlannerError(
            "path enumeration is exact only for convex utilities; "
            "a mixed strategy could beat every single path here")
    g = problem.graph
    pwl = problem.pwl.extended_to(g.horizon * problem.K)
    best_obj, best_path = -np.inf, None
    for path in g.enumerate_paths(path_limit):
        cov = g.coverage_of_path(path, problem.K)
        obj = objective_of_coverage(pwl, g.grid, cov, problem.beta)
        if obj > best_obj:  # paths arrive in lexicographic order; first max kept
            best_obj, best_path = obj, path
    if best_path is None:
        raise PlanInfeasibleError("no feasible path")
    flow = np.zeros(g.num_edges)
    if g.horizon > 1:
        edge_index = {uv: e for e, uv in enumerate(g.edges)}
        for t, (a, b) in enumerate(zip(best_path, best_path[1:]), start=1):
            flow[edge_index[(g.node_index[(a, t)], g.node_index[(b, t + 1)])]] = 1.0
    coverage = g.coverage_of_path(best_path, problem.K)
    return PatrolPlan(
        graph=g, K=problem.K, beta=problem.beta, flow=flow, coverage=coverage,
        routes=((tuple(best_path), 1.0),),
        objective=best_obj,
        objective_nominal=objective_of_coverage(pwl, g.grid, coverage, 0.0),
        solver="enumerate",
    )


def solve(problem: PlanProblem, method: str = "auto", path_limit: int = PATH_LIMIT) -> PatrolPlan:
    """Solve one plan problem. ``method``: auto | enumerate | bnb | external."""
    if method == "auto":
        if utilities_convex(problem) and problem.graph.count_paths() <= path_limit:
            method = "enumerate"
        else:
            method = "bnb"
    if method == "enumerate":
        return solve_by_enumeration(problem, path_limit)
    if method == "bnb":
        model = assemble_milp(problem)
        x, _ = branch_and_bound(model)
        return _plan_from_solution(model, x, "bnb")
    if method == "external":
        from .external import solve_external

        return solve_external(problem)
    raise PlannerError(f"unknown solve method {method!r}")


def decompose_flow(g: TimeUnrolledGraph, flow: np.ndarray, tol: float = 1e-12) -> tuple:
    """Strip a unit source-sink flow into weighted paths.

    Greedy: follow the largest-flow out-edge (ties to the lowest edge
    index), subtract the bottleneck, repeat. At most one path per edge;
    weights sum to the source outflow (1 for a feasible plan).
    """
    if g.horizon == 1:
        return (((g.post,), 1.0),)
    residual = flow.astype(float).copy()
    routes = []
    for _ in range(g.num_edges):
        out_src = sum(residual[e] for e in g.out_edges(g.source))
        if out_src <= tol:
            break
        node = g.source
        cells = [g.post]
        taken = []
        while node != g.sink:
            candidates = [e for e in g.out_edges(node) if residual[e] > tol]
            if not candidates:
                raise PlannerError("flow does not decompose; conservation violated")
            e = max(candidates, key=lambda e: (residual[e], -e))
            taken.append(e)
            node = g.edges[e][1]
            cells.append(g.nodes[node][0])
        w = min(residual[e] for e in taken)
        for e in taken:
            residual[e] -= w
        routes.append((tuple(cells), float(w)))
    return tuple(routes)


def decompose_routes(plan: PatrolPlan) -> list[tuple[tuple[int, ...], float]]:
    """Route decomposition of a solved plan."""
    return list(decompose_flow(plan.graph, plan.flow))


def improvement_ratio(problem: PlanProblem, beta_grid, method: str = "bnb",
                      return_plans: bool = False):
    """Robustness sweep: for each beta, U_beta(C_beta) / U_beta(C_0).

    The beta = 0 row reuses the baseline plan so its ratio is exactly 1.
    A zero baseline utility yields None (undefined).
    """
    base_plan = solve(replace(problem, beta=0.0), method=method)
    pwl = problem.pwl.extended_to(problem.graph.horizon * problem.K)
    table = []
    plans = {}
    for beta in beta_grid:
        beta = float(beta)
        if not 0.0 <= beta <= 1.0:
            raise PlannerError("beta grid must lie in [0, 1]")
        if beta == 0.0:
            plans[beta] = base_plan
            table.append((beta, 1.0))
            continue
        plan_b = solve(replace(problem, beta=beta), method=method)
        plans[beta] = plan_b
        denom = objective_of_coverage(pwl, problem.graph.grid, base_plan.coverage, beta)
        table.append((beta, plan_b.objective / denom if denom != 0.0 else None))
    return (table, base_plan, plans) if return_plans else table
