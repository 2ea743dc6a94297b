"""The full SOS2 model outside the internal branch and bound.

``write_lp_file`` exports the assembled model in CPLEX LP format for any
LP-file solver; ``solve_external`` hands the same model to scipy's HiGHS
MIP in process and rebuilds a plan from the variable values.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .graph import PlanInfeasibleError, PlannerError
from .milp import MilpModel, PlanProblem, assemble_milp
from .solve import PatrolPlan, _plan_from_solution


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
    selectors z_cell_seg (declared binary). The objective constant from
    coverage-free cells is not representable in the format and is left
    out; plan objectives are recomputed from coverage over every park cell."""
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


def solve_external(problem: PlanProblem) -> PatrolPlan:
    """Solve the full model with scipy's HiGHS MIP. With no relative gap
    HiGHS stops at its absolute gap, 1e-6, the planner's MIP_GAP."""
    model = assemble_milp(problem)
    integrality = np.zeros(model.n_vars)
    integrality[model.z_cols] = 1
    res = milp(-model.obj, integrality=integrality, bounds=Bounds(0, 1),
               constraints=[LinearConstraint(model.A_eq, model.b_eq, model.b_eq),
                            LinearConstraint(model.A_ub, -np.inf, model.b_ub)],
               options={"mip_rel_gap": 0.0})
    if res.status == 2:
        raise PlanInfeasibleError("HiGHS reports the model infeasible")
    if not res.success:
        raise PlannerError(f"HiGHS MIP failed: {res.message}")
    return _plan_from_solution(model, res.x, "external:highs")
