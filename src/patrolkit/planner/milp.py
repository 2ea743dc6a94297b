"""Robust patrol MILP: flow polytope + piecewise-linear utilities.

Decision variables are edge flows on the time-unrolled graph (continuous,
a mixed strategy), per-cell convex-combination weights over the utility
breakpoints, and binary segment selectors that force each cell's weights
onto two adjacent breakpoints (the SOS2 condition). The per-cell utility
U(c) = g(c) - beta * g(c) * nu(c) is formed pointwise at the breakpoints
before linearization, so the objective stays linear.

Branch and bound works on per-cell breakpoint windows (SOS2 interval
branching): fixing a window to a contiguous breakpoint range is the same
as zeroing the selectors outside it, but splitting a window halves the
search space where branching a single selector barely tightens it. Inside
a width-one window the weights are forced onto two adjacent breakpoints,
so integrality never needs a separate check. The node relaxations drop
the selector columns entirely and are solved by HiGHS (scipy's linprog);
every relaxation's flow is itself a feasible plan, which supplies
incumbents. A tiny deterministic perturbation (1e-9 times the edge index)
breaks ties among optimal flows so repeated solves return the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from ..riskmap import PwlRiskModel
from .graph import PlanInfeasibleError, PlannerError, TimeUnrolledGraph

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"
FAILED = "failed"
_LINPROG_STATUS = {1: ITERATION_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}
NODE_LIMIT = 100000


@dataclass(frozen=True)
class PlanProblem:
    graph: TimeUnrolledGraph
    pwl: PwlRiskModel
    K: int = 1
    beta: float = 0.0
    mip_gap: float = 1e-6
    perturbation: float = 1e-9

    def __post_init__(self):
        if self.K < 1:
            raise PlannerError("K must be >= 1")
        if not 0.0 <= self.beta <= 1.0:
            raise PlannerError("beta must lie in [0, 1]")


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    objective: float


@dataclass
class MilpModel:
    """LP data for one plan problem.

    The core system (flows + breakpoint weights) is what the internal
    branch and bound solves; the full system additionally carries the
    binary selector columns and their linking rows for the LP-file export
    and the HiGHS MIP route. Constraint matrices are sparse (CSC).
    """

    problem: PlanProblem
    pwl: PwlRiskModel               # domain-extended copy
    cells: list[int]                # cells with PWL terms (appear in graph)
    util: np.ndarray                # (n_cells_total, m+1) breakpoint utilities
    obj_const: float                # utility of cells stuck at zero coverage
    n_flow: int
    n_bp: int
    # core system: columns [flows | lambdas], rows eq-only
    core_obj: np.ndarray
    core_A_eq: sparse.csc_array
    core_b_eq: np.ndarray
    # full system with binary selectors, for export and the HiGHS MIP route
    obj: np.ndarray
    A_eq: sparse.csc_array
    b_eq: np.ndarray
    A_ub: sparse.csc_array
    b_ub: np.ndarray
    z_cols: np.ndarray
    var_names: list[str] = field(repr=False, default_factory=list)

    @property
    def n_vars(self) -> int:
        return self.obj.shape[0]

    @property
    def n_core(self) -> int:
        return self.core_obj.shape[0]

    def lam_slice(self, cell_pos: int) -> slice:
        start = self.n_flow + cell_pos * self.n_bp
        return slice(start, start + self.n_bp)

    def flow_values(self, x: np.ndarray) -> np.ndarray:
        return x[: self.n_flow]

    def flow_incumbent_value(self, x: np.ndarray) -> float:
        """LP-comparable objective of the flow part of a solution.

        Any feasible flow is MILP-feasible: its coverage can always be
        written as a convex combination of two adjacent breakpoints. The
        value is the interpolated utility over graph cells plus the flow
        perturbation, matching the LP objective (which omits obj_const).
        """
        flow = self.flow_values(x)
        g = self.problem.graph
        cov = g.coverage_from_flow(flow, self.problem.K)
        total = float(self.core_obj[: self.n_flow] @ flow)
        for cid in self.cells:
            total += float(np.interp(cov[cid], self.pwl.breakpoints, self.util[cid]))
        return total


def objective_of_coverage(pwl: PwlRiskModel, grid, coverage: np.ndarray, beta: float) -> float:
    """Sum of per-cell PWL utilities over all park cells."""
    util = pwl.utility_values(beta)
    total = 0.0
    for cid in grid.masked_ids():
        total += float(np.interp(coverage[cid], pwl.breakpoints, util[cid]))
    return total


def _csc(rows, cols, vals, shape) -> sparse.csc_array:
    """Sparse matrix from triplet blocks, without stored zeros."""
    r, c, v = (np.concatenate(blocks) for blocks in (rows, cols, vals))
    nz = v != 0
    return sparse.csc_array((v[nz], (r[nz], c[nz])), shape=shape)


def assemble_milp(problem: PlanProblem) -> MilpModel:
    """Build the MILP for one problem instance.

    The PWL domain is flat-extended (with a warning) if the achievable
    coverage T*K exceeds it. Cells pruned from the graph contribute their
    zero-coverage utility as an objective constant.
    """
    g = problem.graph
    pwl = problem.pwl.extended_to(problem.graph.horizon * problem.K)
    cells = g.cells()
    util = pwl.utility_values(problem.beta)
    br = pwl.breakpoints
    n_bp = br.size
    n_seg = n_bp - 1
    n_cells = len(cells)
    n_flow = g.num_edges
    n_core = n_flow + n_cells * n_bp
    n_vars = n_core + n_cells * n_seg

    names = [f"f_{g.nodes[u][1]}_{g.nodes[u][0]}_{g.nodes[v][0]}" for u, v in g.edges]
    names += [f"lam_{cid}_{j}" for cid in cells for j in range(n_bp)]
    names += [f"z_{cid}_{s}" for cid in cells for s in range(1, n_seg + 1)]

    core_obj = np.concatenate([-problem.perturbation * np.arange(n_flow), util[cells].ravel()])
    in_graph = set(cells)
    obj_const = sum((float(util[cid, 0]) for cid in g.grid.masked_ids()
                     if int(cid) not in in_graph), 0.0)

    # column and row indices: lam[pos, j] is breakpoint j of cell pos,
    # z[pos, s - 1] the selector of its segment s
    edge = np.arange(n_flow)
    lam = n_flow + np.arange(n_cells * n_bp).reshape(n_cells, n_bp)
    z = n_core + np.arange(n_cells * n_seg).reshape(n_cells, n_seg)
    cell_row = np.repeat(np.arange(n_cells), n_bp)
    pos_of = np.full(g.grid.n_cells, -1)
    pos_of[cells] = np.arange(n_cells)

    # conservation: inflow minus outflow at every node; the source row
    # counts its outflow and the sink row its inflow, both equal to one
    # (a one-step patrol has no edges and no conservation rows)
    n_nodes = g.num_nodes if g.horizon > 1 else 0
    rows = [g.edge_head, g.edge_tail]
    cols = [edge, edge]
    vals = [np.ones(n_flow), np.where(g.edge_tail == g.source, 1.0, -1.0)]
    node_rhs = np.zeros(n_nodes)
    if n_nodes:
        node_rhs[[g.source, g.sink]] = 1.0
    # coverage linking: sum_j br_j lam_j - K * inflow = K at the post, else 0
    K = float(problem.K)
    rows += [n_nodes + pos_of[g.edge_cell], n_nodes + cell_row]
    cols += [edge, lam.ravel()]
    vals += [np.full(n_flow, -K), np.tile(br, n_cells)]
    link_rhs = np.where(np.asarray(cells) == g.post, K, 0.0)
    # convex-combination weights sum to one
    rows.append(n_nodes + n_cells + cell_row)
    cols.append(lam.ravel())
    vals.append(np.ones(n_cells * n_bp))
    n_rows = n_nodes + 2 * n_cells
    core_A_eq = _csc(rows, cols, vals, (n_rows, n_core))
    core_b_eq = np.concatenate([node_rhs, link_rhs, np.ones(n_cells)])

    # full system: the core rows with zero selector columns, plus the
    # selector conventions (sum to one; weights only next to a chosen segment)
    A_eq = _csc(rows + [n_rows + np.repeat(np.arange(n_cells), n_seg)], cols + [z.ravel()],
                vals + [np.ones(n_cells * n_seg)], (n_rows + n_cells, n_vars))
    ub_row = np.arange(n_cells * n_bp).reshape(n_cells, n_bp)
    A_ub = _csc([ub_row.ravel(), ub_row[:, 1:].ravel(), ub_row[:, :-1].ravel()],
                [lam.ravel(), z.ravel(), z.ravel()],
                [np.ones(n_cells * n_bp), -np.ones(z.size), -np.ones(z.size)],
                (n_cells * n_bp, n_vars))

    return MilpModel(
        problem=problem, pwl=pwl, cells=cells, util=util, obj_const=obj_const,
        n_flow=n_flow, n_bp=n_bp,
        core_obj=core_obj, core_A_eq=core_A_eq, core_b_eq=core_b_eq,
        obj=np.concatenate([core_obj, np.zeros(n_vars - n_core)]),
        A_eq=A_eq, b_eq=np.concatenate([core_b_eq, np.ones(n_cells)]),
        A_ub=A_ub, b_ub=np.zeros(n_cells * n_bp),
        z_cols=z.ravel().astype(np.int64), var_names=names,
    )


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> LpResult:
    """max c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0, by HiGHS."""
    c = np.asarray(c, dtype=float)
    res = linprog(-c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if res.status == 0:
        return LpResult(OPTIMAL, res.x, float(c @ res.x))
    status = _LINPROG_STATUS.get(res.status, FAILED)
    return LpResult(status, None, np.inf if status == UNBOUNDED else -np.inf)


def _solve_window_lp(model: MilpModel, windows: np.ndarray):
    """LP relaxation with each cell's weights confined to its breakpoint
    window. Returns (status, x_core, objective)."""
    j = np.arange(model.n_bp)
    inside = (j >= windows[:, :1]) & (j <= windows[:, 1:])
    cols = np.concatenate([np.arange(model.n_flow), model.n_flow + np.flatnonzero(inside)])
    res = solve_lp(model.core_obj[cols], None, None,
                   model.core_A_eq[:, cols], model.core_b_eq)
    if res.status != OPTIMAL:
        return res.status, None, -np.inf
    x = np.zeros(model.n_core)
    x[cols] = res.x
    return OPTIMAL, x, res.objective


def branch_and_bound(model: MilpModel):
    """Maximize over SOS2-feasible weight assignments.

    Returns (x_core, perturbed_objective). Depth-first over breakpoint
    windows; each relaxation's flow doubles as a primal incumbent, and a
    node is closed once its relaxation value is within the MIP gap of the
    interpolated utility of its own flow.
    """
    gap = model.problem.mip_gap
    n_cells = len(model.cells)
    m = model.n_bp - 1
    br = model.pwl.breakpoints
    best_x, best_obj = None, -np.inf
    root = np.tile(np.array([0, m]), (n_cells, 1))
    stack = [root]
    nodes = 0

    while stack:
        windows = stack.pop()
        nodes += 1
        if nodes > NODE_LIMIT:
            raise PlannerError("branch-and-bound node limit exceeded")
        status, x, ub = _solve_window_lp(model, windows)
        if status != OPTIMAL:
            if status == INFEASIBLE:
                continue
            raise PlannerError(f"LP relaxation failed: {status}")
        if ub <= best_obj + gap:
            continue
        heur = model.flow_incumbent_value(x)
        if heur > best_obj:
            best_obj, best_x = heur, x
            if ub <= best_obj + gap:
                continue

        # branch on the cell whose weights cheat the envelope the most
        best_gap, branch_pos = 0.0, -1
        for pos, cid in enumerate(model.cells):
            lam = x[model.lam_slice(pos)]
            cv = float(lam @ br)
            lam_obj = float(lam @ model.util[cid])
            violation = lam_obj - float(np.interp(cv, br, model.util[cid]))
            if violation > best_gap + 1e-12:
                best_gap, branch_pos = violation, pos
        if branch_pos < 0:
            # relaxation matches its own interpolation: node solved exactly
            continue
        lo, hi = windows[branch_pos]
        lam = x[model.lam_slice(branch_pos)]
        mass = lam[lo:hi + 1]
        cum = np.cumsum(mass)
        r = lo + int(np.searchsorted(cum, 0.5 * cum[-1]))
        r = min(max(r, lo + 1), hi - 1)
        left = windows.copy()
        left[branch_pos] = (lo, r)
        right = windows.copy()
        right[branch_pos] = (r, hi)
        stack.append(left)
        stack.append(right)

    if best_x is None:
        raise PlanInfeasibleError("no feasible patrol plan")
    return best_x, best_obj
