"""Robust patrol MILP: flow polytope + piecewise-linear utilities.

Decision variables are edge flows on the time-unrolled graph (continuous,
a mixed strategy) and per-cell convex-combination weights over the utility
breakpoints. The SOS2 condition puts each cell's weights on two adjacent
breakpoints; the MILP states it with binary segment selectors. The
per-cell utility U(c) = g(c) - beta * g(c) * nu(c) is formed pointwise at
the breakpoints before linearization, so the objective stays linear.

``assemble_milp`` builds only the LP relaxation, without selectors.
Branch and bound works on per-cell breakpoint windows (SOS2 interval
branching): fixing a window to a contiguous breakpoint range is the same
as zeroing the selectors outside it. A node branches on the cell whose
weights exceed the interpolated utility of their coverage the most, and
splits its window at the first breakpoint at or above that coverage, one
side of it to each child, where branching a single selector barely
tightens it. Inside a width-one window the weights are forced onto two
adjacent breakpoints, so integrality never needs a separate check. Every
relaxation's flow is itself a feasible plan, which supplies incumbents.
``write_lp_file`` is the one place that writes the selectors out.

The relaxation, max c.x s.t. A_eq x = b_eq, x >= 0, is the only LP the
planner solves. Each branch and bound loads it into one HiGHS instance:
scipy's bundled extension ``scipy.optimize._highspy._core`` (private:
tests check its names), loaded from its file without the rest of scipy
by ``scipyext.load_extension``, given the ``CscMatrix`` arrays as they are.
The root is solved cold by primal simplex. A node only sets the upper
bounds of the weights outside its windows to zero, which keeps the
previous node's basis valid, so every later node is hot-started by dual
simplex. An infeasible node is pruned; any status but optimal or
infeasible raises. Flows of equal coverage are not told apart by the
objective: the route split is whichever optimal basis HiGHS reaches,
which repeats exactly because HiGHS is deterministic.

A beta sweep changes only the costs: every beta has the same flow
polytope. The branch and bounds of one sweep share an ``LpSweep``, one
HiGHS instance and the basis of the first root's optimum; a lone branch
and bound is the first of a sweep of its own. Each later one sets its
costs, restarts its root by primal simplex from that root basis, which
stays primal feasible, and hot-starts its nodes as usual. It restarts
from the root's basis, not the last node's: where a later beta's costs
are a positive multiple of the first's, its root then stops at once on
the first root's optimum, and its search repeats the first one exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..riskmap import PwlRiskModel, interp_rows
from ..scipyext import load_extension
from .graph import PlannerError, TimeUnrolledGraph

# loaded here, not at the first solve, so that no timed solve pays for it
highs_core = load_extension("optimize._highspy._core")

_MODEL_STATUS = highs_core.HighsModelStatus
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


@dataclass(frozen=True)
class CscMatrix:
    """A sparse matrix by columns, in the arrays HiGHS takes. Column j's
    entries are ``data[indptr[j]:indptr[j + 1]]``, in the rows
    ``indices[indptr[j]:indptr[j + 1]]``, ascending. No entry is zero."""

    indptr: np.ndarray              # (cols + 1,) int32
    indices: np.ndarray             # (nonzeros,) int32 row of each entry
    data: np.ndarray                # (nonzeros,) float
    shape: tuple[int, int]


@dataclass
class MilpModel:
    """The LP relaxation that branch and bound solves for one plan problem.

    Columns are the edge flows, then each graph cell's breakpoint weights;
    every row is an equality, and the matrix ``A_eq`` is a ``CscMatrix``.
    The binary segment selectors of the SOS2 model are not part of it:
    branch and bound replaces them by breakpoint windows, and
    ``write_lp_file`` adds them when it exports the model.
    """

    problem: PlanProblem
    cells: list[int]                # cells with PWL terms (appear in graph)
    util: np.ndarray                # (n_cells_total, m+1) breakpoint utilities
    n_flow: int
    n_bp: int
    obj: np.ndarray                 # columns [flows | lambdas]
    A_eq: CscMatrix
    b_eq: np.ndarray

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
        return _sum_in_order(interp_rows(cov[self.cells], br, self.util[self.cells]))


def _sum_in_order(values: np.ndarray) -> float:
    """Left-to-right float sum. ``np.sum`` adds pairwise and ``sum`` adds
    with compensation from Python 3.12 on; either changes the last bits."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total


def objective_of_coverage(pwl: PwlRiskModel, grid, coverage: np.ndarray, beta: float) -> float:
    """Sum of per-cell PWL utilities over all park cells, added one cell
    at a time in ascending cell order."""
    ids = grid.masked_ids()
    return _sum_in_order(interp_rows(coverage[ids], pwl.breakpoints,
                                     pwl.utility_values(beta)[ids]))


def _csc(rows, cols, vals, shape) -> CscMatrix:
    """Sparse matrix from triplet blocks, without stored zeros. No (row,
    column) pair may appear twice."""
    r, c, v = (np.concatenate(blocks) for blocks in (rows, cols, vals))
    nz = np.flatnonzero(v)
    # by column, then row: one integer key sorts far faster than np.lexsort
    order = nz[np.argsort(c[nz] * np.int64(shape[0]) + r[nz], kind="stable")]
    indptr = np.zeros(shape[1] + 1, dtype=np.int32)
    np.cumsum(np.bincount(c[order], minlength=shape[1]), out=indptr[1:])
    return CscMatrix(indptr=indptr, indices=r[order].astype(np.int32),
                     data=v[order].astype(float), shape=shape)


def assemble_milp(problem: PlanProblem) -> MilpModel:
    """Build the LP relaxation (flows and breakpoint weights) for one
    problem instance.

    Only cells in the graph get columns: the utility of the cells pruned
    from it is constant and left out of the objective.
    """
    g = problem.graph
    cells = g.cells()
    util = problem.pwl.utility_values(problem.beta)
    br = problem.pwl.breakpoints
    n_bp = br.size
    n_cells = len(cells)
    n_flow = g.num_edges

    # column and row indices: lam[pos, j] is breakpoint j of cell pos
    edge = np.arange(n_flow)
    lam = n_flow + np.arange(n_cells * n_bp).reshape(n_cells, n_bp)
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

    return MilpModel(
        problem=problem, cells=cells, util=util, n_flow=n_flow, n_bp=n_bp,
        obj=np.concatenate([np.zeros(n_flow), util[cells].ravel()]),
        A_eq=_csc(rows, cols, vals, (n_nodes + 2 * n_cells, n_flow + n_cells * n_bp)),
        b_eq=np.concatenate([node_rhs, link_rhs, np.ones(n_cells)]),
    )


def _terms(cols: np.ndarray, coeffs: np.ndarray, names: list[str]) -> str:
    parts = [f"{'-' if v < 0 else '+'} {abs(v):.17g} {names[j]}" for j, v in zip(cols, coeffs)]
    if not parts:
        return "0 " + names[0]
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else out


def write_lp_file(model: MilpModel, path) -> None:
    """Export the SOS2 model in CPLEX LP format.

    The model's rows and columns come first: flows f_t_u_v and breakpoint
    weights lam_cell_bp. The export adds the binary selectors z_cell_seg,
    one per segment: each cell's selectors sum to one, and a weight may be
    nonzero only next to the chosen segment. The constant utility of the
    cells outside the graph is left out, as in the LP objective; plan
    objectives are recomputed from coverage over every park cell."""
    g = model.problem.graph
    n_seg = model.n_bp - 1
    ends = zip(g.node_time[g.edge_tail].tolist(), g.node_cell[g.edge_tail].tolist(),
               g.edge_cell.tolist())
    names = [f"f_{t}_{u}_{v}" for t, u, v in ends]
    names += [f"lam_{cid}_{j}" for cid in model.cells for j in range(model.n_bp)]
    selectors = [[f"z_{cid}_{s}" for s in range(1, n_seg + 1)] for cid in model.cells]
    nz = np.flatnonzero(model.obj)
    lines = ["\\ patrol plan model", "Maximize", f" obj: {_terms(nz, model.obj[nz], names)}"]
    lines.append("Subject To")
    # the entries by row, then column: a stable sort of the column order
    A = model.A_eq
    by_row = np.argsort(A.indices, kind="stable")
    c, v = np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))[by_row], A.data[by_row]
    ends = np.cumsum(np.bincount(A.indices, minlength=A.shape[0])).tolist()
    for i, (a, b) in enumerate(zip([0] + ends, ends)):
        lines.append(f" eq{i}: {_terms(c[a:b], v[a:b], names)} = {model.b_eq[i]:.17g}")
    for i, z in enumerate(selectors, start=len(model.b_eq)):
        lines.append(f" eq{i}: {' + '.join(f'1 {name}' for name in z)} = 1")
    for i, name in enumerate(names[model.n_flow:]):
        z, j = selectors[i // model.n_bp], i % model.n_bp
        nbrs = "".join(f" - 1 {z[s]}" for s in (j - 1, j) if 0 <= s < n_seg)
        lines.append(f" ub{i}: 1 {name}{nbrs} <= 0")
    lines.append("Bounds")
    names += [name for z in selectors for name in z]
    lines += [f" 0 <= {name} <= 1" for name in names]
    lines.append("Binary")
    lines += [f" {name}" for z in selectors for name in z]
    lines.append("End")
    Path(path).write_text("\n".join(lines) + "\n")


def load_lp(c, A_eq: CscMatrix, b_eq):
    """A HiGHS instance holding  max c.x  s.t.  A_eq x = b_eq,  x >= 0,
    set up for a cold primal solve."""
    c = np.asarray(c, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    if A_eq.shape != (b_eq.size, c.size):
        raise PlannerError(f"A_eq is {A_eq.shape}, but b_eq and c make {(b_eq.size, c.size)}")
    lp = highs_core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = c.size
    lp.num_row_ = lp.a_matrix_.num_row_ = b_eq.size
    lp.col_cost_ = -c
    lp.col_lower_ = np.zeros(c.size)
    lp.col_upper_ = np.full(c.size, highs_core.kHighsInf)
    lp.row_lower_ = lp.row_upper_ = b_eq
    lp.a_matrix_.format_ = highs_core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = A_eq.indptr
    lp.a_matrix_.index_ = A_eq.indices
    lp.a_matrix_.value_ = A_eq.data
    highs = highs_core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "off")
    highs.setOptionValue("simplex_strategy", COLD_STRATEGY)
    if highs.passModel(lp) == highs_core.HighsStatus.kError:
        raise PlannerError("HiGHS rejected the LP")
    return highs


def solve_lp(c, A_eq: CscMatrix, b_eq, highs=None) -> np.ndarray | None:
    """The optimal x of  max c.x  s.t.  A_eq x = b_eq,  x >= 0, by HiGHS,
    or None when the LP is infeasible. Any other outcome raises.

    ``highs`` is an instance from ``load_lp`` that already holds this LP,
    perhaps with changed column bounds. Its first solve is cold primal
    simplex; every later one starts from the last basis by dual simplex.
    Without it the LP is loaded into a fresh instance.
    """
    if highs is None:
        highs = load_lp(c, A_eq, b_eq)
    highs.run()
    highs.setOptionValue("simplex_strategy", HOT_STRATEGY)
    status = highs.getModelStatus()
    if status == _MODEL_STATUS.kInfeasible:
        return None
    if status != _MODEL_STATUS.kOptimal:
        raise PlannerError(f"LP relaxation failed: {highs.modelStatusToString(status)}")
    return np.array(highs.getSolution().col_value)


class LpSweep:
    """The HiGHS instance that the branch and bounds of one beta sweep
    share, and the optimal basis of the first one's root."""

    def __init__(self):
        self.highs = None
        self.root_basis = None

    def root_lp(self, model: MilpModel):
        """The instance, holding ``model``'s costs, set to restart its root
        by primal simplex from the first root's basis; on the first call,
        a fresh instance of ``model``."""
        if self.highs is None:
            self.highs = load_lp(model.obj, model.A_eq, model.b_eq)
            return self.highs
        cols = np.arange(model.obj.size, dtype=np.int32)
        self.highs.changeColsCost(cols.size, cols, -model.obj)
        self.highs.setBasis(self.root_basis)
        self.highs.setOptionValue("simplex_strategy", COLD_STRATEGY)
        return self.highs


def _solve_window_lp(model: MilpModel, highs, windows: np.ndarray) -> np.ndarray | None:
    """The LP relaxation with each cell's weights confined to its
    breakpoint window, re-solved on ``highs`` (from ``load_lp``)."""
    j = np.arange(model.n_bp)
    inside = (j >= windows[:, :1]) & (j <= windows[:, 1:])
    cols = np.arange(model.n_flow, model.obj.size, dtype=np.int32)
    highs.changeColsBounds(cols.size, cols, np.zeros(cols.size),
                           np.where(inside.ravel(), highs_core.kHighsInf, 0.0))
    # A_eq by keyword: profilers that wrap solve_lp read the matrix there
    return solve_lp(model.obj, A_eq=model.A_eq, b_eq=model.b_eq, highs=highs)


def _branch_cell(lam: np.ndarray, br: np.ndarray, U: np.ndarray):
    """(position, coverage) of the first cell whose weights ``lam`` (cells,
    breakpoints) exceed the interpolated utility ``U`` of their coverage the
    most, by over 1e-12, else None. Rows are summed alone: a matrix-vector
    product may round a row by where it lies, and equal cells would not tie."""
    cv = (lam * br).sum(1)
    violation = (lam * U).sum(1) - interp_rows(cv, br, U)
    pos = int(np.argmax(violation))
    return (pos, float(cv[pos])) if violation[pos] > 1e-12 else None


def branch_and_bound(model: MilpModel, sweep: LpSweep | None = None):
    """Maximize over SOS2-feasible weight assignments.

    Returns (x, objective). Depth-first over breakpoint
    windows; each relaxation's flow doubles as a primal incumbent, and a
    node is closed once its relaxation value is within the MIP gap of the
    interpolated utility of its own flow. The search runs on ``sweep``'s
    instance (see ``LpSweep``); a lone search is the first of a new sweep.
    """
    if sweep is None:
        sweep = LpSweep()
    n_cells = len(model.cells)
    br = model.problem.pwl.breakpoints
    U = model.util[model.cells]
    best_x, best_obj = None, -np.inf
    stack = [np.tile(np.array([0, model.n_bp - 1]), (n_cells, 1))]
    nodes = 0
    highs = sweep.root_lp(model)

    while stack:
        windows = stack.pop()
        nodes += 1
        if nodes > NODE_LIMIT:
            raise PlannerError("branch-and-bound node limit exceeded")
        x = _solve_window_lp(model, highs, windows)
        if sweep.root_basis is None:
            sweep.root_basis = highs.getBasis()
        if x is None:
            continue
        ub = float(model.obj @ x)
        if ub <= best_obj + MIP_GAP:
            continue
        heur = model.flow_incumbent_value(x)
        if heur > best_obj:
            best_obj, best_x = heur, x
            if ub <= best_obj + MIP_GAP:
                continue

        # branch on the cell whose weights cheat the envelope the most
        branch = _branch_cell(x[model.n_flow:].reshape(n_cells, model.n_bp), br, U)
        if branch is None:
            # relaxation matches its own interpolation: node solved exactly
            continue
        branch_pos, branch_cv = branch
        lo, hi = windows[branch_pos]
        r = min(max(lo + int(np.searchsorted(br[lo:hi + 1], branch_cv)), lo + 1), hi - 1)
        left = windows.copy()
        left[branch_pos] = (lo, r)
        right = windows.copy()
        right[branch_pos] = (r, hi)
        stack.append(left)
        stack.append(right)

    if best_x is None:
        # the root is feasible (the stay-at-post walk), so HiGHS misjudged it
        raise PlannerError("LP relaxation failed: the root was found infeasible")
    return best_x, best_obj
