"""Robust patrol MILP: flow polytope + piecewise-linear utilities.

Decision variables are edge flows on the time-unrolled graph (continuous,
a mixed strategy), per-cell convex-combination weights over the utility
breakpoints, and binary segment selectors that force each cell's weights
onto two adjacent breakpoints (the SOS2 condition). The per-cell utility
U(c) = g(c) - beta * g(c) * nu(c) is formed pointwise at the breakpoints
before linearization, so the objective stays linear.

Branch and bound works on per-cell breakpoint windows (SOS2 interval
branching): fixing a window to a contiguous breakpoint range is the same
as zeroing the selectors outside it. A window splits at the first
breakpoint at or above the cell's relaxed coverage, one side of that
coverage to each child, where branching a single selector barely tightens
it. Inside a width-one window the weights are forced onto two adjacent
breakpoints, so integrality never needs a separate check. The node
relaxations drop the selector columns entirely, and every relaxation's
flow is itself a feasible plan, which supplies incumbents.

Each branch and bound loads the relaxation into one HiGHS instance
(scipy's bundled binding). The root is solved cold by primal simplex.
A node only sets the upper bounds of the weights outside its windows to
zero, which keeps the previous node's basis valid, so every later node is
hot-started by dual simplex. Flows of equal coverage are not told apart
by the objective: the route split is whichever optimal basis HiGHS
reaches, which repeats exactly because HiGHS is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core as highs_core  # private: tests check its names

from ..riskmap import PwlRiskModel
from .graph import PlanInfeasibleError, PlannerError, TimeUnrolledGraph

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"
FAILED = "failed"
_MODEL_STATUS = highs_core.HighsModelStatus
_STATUS = {
    _MODEL_STATUS.kOptimal: OPTIMAL,
    _MODEL_STATUS.kInfeasible: INFEASIBLE,
    _MODEL_STATUS.kUnbounded: UNBOUNDED,
    _MODEL_STATUS.kIterationLimit: ITERATION_LIMIT,
    _MODEL_STATUS.kTimeLimit: ITERATION_LIMIT,
}
# a cold solve of the flow system is much faster by primal simplex; after
# a bound change the old basis stays dual feasible, so re-solves use dual.
# Presolve is off: it saves little time on these LPs, and without it the
# root's flows come straight from the simplex basis, as every child's do
# (postsolved flows carried round-off, such as route weights of 1 - 3e-16).
_SIMPLEX = highs_core.simplex_constants.SimplexStrategy
COLD_STRATEGY = _SIMPLEX.kSimplexStrategyPrimal
HOT_STRATEGY = _SIMPLEX.kSimplexStrategyDual
NODE_LIMIT = 100000
MIP_GAP = 1e-6


@dataclass(frozen=True)
class PlanProblem:
    graph: TimeUnrolledGraph
    pwl: PwlRiskModel
    K: int = 1
    beta: float = 0.0

    def __post_init__(self):
        if self.K < 1:
            raise PlannerError("K must be >= 1")
        if not 0.0 <= self.beta <= 1.0:
            raise PlannerError("beta must lie in [0, 1]")
        # coverage reaches T*K: a shorter PWL domain is flat-extended (with a
        # warning) here, once, so every solve and copy shares it
        object.__setattr__(self, "pwl", self.pwl.extended_to(self.graph.horizon * self.K))


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
    binary selector columns and their linking rows, the SOS2 model that
    ``write_lp_file`` exports. Constraint matrices are sparse (CSC).
    """

    problem: PlanProblem
    cells: list[int]                # cells with PWL terms (appear in graph)
    util: np.ndarray                # (n_cells_total, m+1) breakpoint utilities
    n_flow: int
    n_bp: int
    # core system: columns [flows | lambdas], rows eq-only
    core_obj: np.ndarray
    core_A_eq: sparse.csc_array
    core_b_eq: np.ndarray
    # full system with binary selectors, for the LP-file export
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
        value is the interpolated utility over graph cells, matching the LP
        objective.
        """
        cov = self.problem.graph.coverage_from_flow(self.flow_values(x), self.problem.K)
        br = self.problem.pwl.breakpoints
        return sum((float(np.interp(cov[cid], br, self.util[cid])) for cid in self.cells), 0.0)


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

    Only cells in the graph get columns: the utility of the cells pruned
    from it is constant and left out of the objective.
    """
    g = problem.graph
    cells = g.cells()
    util = problem.pwl.utility_values(problem.beta)
    br = problem.pwl.breakpoints
    n_bp = br.size
    n_seg = n_bp - 1
    n_cells = len(cells)
    n_flow = g.num_edges
    n_core = n_flow + n_cells * n_bp
    n_vars = n_core + n_cells * n_seg

    names = [f"f_{g.nodes[u][1]}_{g.nodes[u][0]}_{g.nodes[v][0]}" for u, v in g.edges]
    names += [f"lam_{cid}_{j}" for cid in cells for j in range(n_bp)]
    names += [f"z_{cid}_{s}" for cid in cells for s in range(1, n_seg + 1)]

    core_obj = np.concatenate([np.zeros(n_flow), util[cells].ravel()])

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
        problem=problem, cells=cells, util=util,
        n_flow=n_flow, n_bp=n_bp,
        core_obj=core_obj, core_A_eq=core_A_eq, core_b_eq=core_b_eq,
        obj=np.concatenate([core_obj, np.zeros(n_vars - n_core)]),
        A_eq=A_eq, b_eq=np.concatenate([core_b_eq, np.ones(n_cells)]),
        A_ub=A_ub, b_ub=np.zeros(n_cells * n_bp),
        z_cols=z.ravel().astype(np.int64), var_names=names,
    )


def _terms(cols: np.ndarray, coeffs: np.ndarray, names: list[str]) -> str:
    parts = [f"{'-' if v < 0 else '+'} {abs(v):.17g} {names[j]}" for j, v in zip(cols, coeffs)]
    if not parts:
        return "0 " + names[0]
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else out


def _row_terms(A, names: list[str]) -> list[str]:
    A = A.tocsr()
    return [_terms(A.indices[a:b], A.data[a:b], names) for a, b in zip(A.indptr, A.indptr[1:])]


def write_lp_file(model: MilpModel, path) -> None:
    """CPLEX LP format. Flows are f_t_u_v, breakpoint weights lam_cell_bp,
    selectors z_cell_seg (declared binary). The constant utility of the
    cells outside the graph is left out, as in the LP objective; plan
    objectives are recomputed from coverage over every park cell."""
    names = model.var_names
    nz = np.flatnonzero(model.obj)
    lines = ["\\ patrol plan model", "Maximize", f" obj: {_terms(nz, model.obj[nz], names)}"]
    lines.append("Subject To")
    for i, terms in enumerate(_row_terms(model.A_eq, names)):
        lines.append(f" eq{i}: {terms} = {model.b_eq[i]:.17g}")
    for i, terms in enumerate(_row_terms(model.A_ub, names)):
        lines.append(f" ub{i}: {terms} <= {model.b_ub[i]:.17g}")
    lines.append("Bounds")
    for j in range(model.n_vars):
        lines.append(f" 0 <= {names[j]} <= 1")
    lines.append("Binary")
    for col in model.z_cols:
        lines.append(f" {names[col]}")
    lines.append("End")
    Path(path).write_text("\n".join(lines) + "\n")


def load_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """A HiGHS instance holding  max c.x  s.t.  A_ub x <= b_ub,
    A_eq x = b_eq,  x >= 0, set up for a cold primal solve."""
    c = np.asarray(c, dtype=float)
    none = (np.zeros((0, c.size)), np.zeros(0))
    A_ub, b_ub = none if A_ub is None else (A_ub, np.asarray(b_ub, dtype=float))
    A_eq, b_eq = none if A_eq is None else (A_eq, np.asarray(b_eq, dtype=float))
    A = sparse.csc_array(sparse.vstack([sparse.csc_array(A_ub), sparse.csc_array(A_eq)]))
    lp = highs_core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = c.size
    lp.num_row_ = lp.a_matrix_.num_row_ = A.shape[0]
    lp.col_cost_ = -c
    lp.col_lower_ = np.zeros(c.size)
    lp.col_upper_ = np.full(c.size, highs_core.kHighsInf)
    lp.row_lower_ = np.concatenate([np.full(b_ub.size, -np.inf), b_eq])
    lp.row_upper_ = np.concatenate([b_ub, b_eq])
    lp.a_matrix_.format_ = highs_core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = A.indptr
    lp.a_matrix_.index_ = A.indices
    lp.a_matrix_.value_ = A.data
    highs = highs_core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "off")
    highs.setOptionValue("simplex_strategy", COLD_STRATEGY)
    if highs.passModel(lp) == highs_core.HighsStatus.kError:
        raise PlannerError("HiGHS rejected the LP")
    return highs


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, highs=None) -> LpResult:
    """max c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0, by HiGHS.

    ``highs`` is an instance from ``load_lp`` that already holds this LP,
    perhaps with changed column bounds. Its first solve is cold primal
    simplex; every later one starts from the last basis by dual simplex.
    Without it the LP is loaded into a fresh instance.
    """
    if highs is None:
        highs = load_lp(c, A_ub, b_ub, A_eq, b_eq)
    highs.run()
    highs.setOptionValue("simplex_strategy", HOT_STRATEGY)
    status = _STATUS.get(highs.getModelStatus(), FAILED)
    if status != OPTIMAL:
        return LpResult(status, None, np.inf if status == UNBOUNDED else -np.inf)
    x = np.array(highs.getSolution().col_value)
    return LpResult(OPTIMAL, x, float(np.asarray(c, dtype=float) @ x))


def _solve_window_lp(model: MilpModel, highs, windows: np.ndarray) -> LpResult:
    """Core LP relaxation with each cell's weights confined to its
    breakpoint window, re-solved on ``highs`` (from ``load_lp``)."""
    j = np.arange(model.n_bp)
    inside = (j >= windows[:, :1]) & (j <= windows[:, 1:])
    cols = np.arange(model.n_flow, model.n_core, dtype=np.int32)
    highs.changeColsBounds(cols.size, cols, np.zeros(cols.size),
                           np.where(inside.ravel(), highs_core.kHighsInf, 0.0))
    return solve_lp(model.core_obj, None, None, model.core_A_eq, model.core_b_eq, highs=highs)


def branch_and_bound(model: MilpModel):
    """Maximize over SOS2-feasible weight assignments.

    Returns (x_core, objective). Depth-first over breakpoint
    windows; each relaxation's flow doubles as a primal incumbent, and a
    node is closed once its relaxation value is within the MIP gap of the
    interpolated utility of its own flow.
    """
    gap = MIP_GAP
    n_cells = len(model.cells)
    m = model.n_bp - 1
    br = model.problem.pwl.breakpoints
    best_x, best_obj = None, -np.inf
    root = np.tile(np.array([0, m]), (n_cells, 1))
    stack = [root]
    nodes = 0
    highs = load_lp(model.core_obj, None, None, model.core_A_eq, model.core_b_eq)

    while stack:
        windows = stack.pop()
        nodes += 1
        if nodes > NODE_LIMIT:
            raise PlannerError("branch-and-bound node limit exceeded")
        res = _solve_window_lp(model, highs, windows)
        if res.status != OPTIMAL:
            if res.status == INFEASIBLE:
                continue
            raise PlannerError(f"LP relaxation failed: {res.status}")
        x, ub = res.x, res.objective
        if ub <= best_obj + gap:
            continue
        heur = model.flow_incumbent_value(x)
        if heur > best_obj:
            best_obj, best_x = heur, x
            if ub <= best_obj + gap:
                continue

        # branch on the cell whose weights cheat the envelope the most
        best_gap, branch_pos, branch_cv = 0.0, -1, 0.0
        for pos, cid in enumerate(model.cells):
            lam = x[model.lam_slice(pos)]
            cv = float(lam @ br)
            lam_obj = float(lam @ model.util[cid])
            violation = lam_obj - float(np.interp(cv, br, model.util[cid]))
            if violation > best_gap + 1e-12:
                best_gap, branch_pos, branch_cv = violation, pos, cv
        if branch_pos < 0:
            # relaxation matches its own interpolation: node solved exactly
            continue
        lo, hi = windows[branch_pos]
        r = min(max(lo + int(np.searchsorted(br[lo:hi + 1], branch_cv)), lo + 1), hi - 1)
        left = windows.copy()
        left[branch_pos] = (lo, r)
        right = windows.copy()
        right[branch_pos] = (r, hi)
        stack.append(left)
        stack.append(right)

    if best_x is None:
        raise PlanInfeasibleError("no feasible patrol plan")
    return best_x, best_obj
