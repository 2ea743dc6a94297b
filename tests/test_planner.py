from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from patrolkit.planner import (
    PlannerError,
    PlanProblem,
    assemble_milp,
    branch_and_bound,
    build_graph,
    decompose_routes,
    improvement_ratio,
    objective_of_coverage,
    solve,
    solve_by_enumeration,
    solve_lp,
    utilities_convex,
    write_lp_file,
)
from patrolkit.planner.solve import decompose_flow
from patrolkit.riskmap import PwlRiskModel

from conftest import flat_grid


def pwl_from_values(grid, breakpoints, prob, var=None):
    prob = np.asarray(prob, float)
    var = np.zeros_like(prob) if var is None else np.asarray(var, float)
    return PwlRiskModel(grid=grid, breakpoints=np.asarray(breakpoints, float),
                        prob_values=prob, var_values=var)


def line_problem(beta=0.0):
    """The 1x3 park A-B-C with post A: g_B = 0.2c, g_C = 0.3c."""
    grid = flat_grid(3, 1, k=1)
    g = build_graph(grid, 0, 3)
    br = np.linspace(0, 3, 7)
    prob = np.stack([0 * br, np.minimum(0.2 * br, 1), np.minimum(0.3 * br, 1)])
    return PlanProblem(graph=g, pwl=pwl_from_values(grid, br, prob), K=1, beta=beta)


def random_convex_problem(seed, max_side=4, max_T=6):
    rng = np.random.default_rng([seed, 77])
    W, H = int(rng.integers(2, max_side + 1)), int(rng.integers(2, max_side + 1))
    n = W * H
    mask = rng.random(n) < 0.85
    post = int(rng.integers(0, n))
    mask[post] = True
    grid = flat_grid(W, H, mask=mask, posts=(post,))
    T = int(rng.integers(2, max_T + 1))
    K = int(rng.integers(1, 4))
    g = build_graph(grid, post, T)
    m_seg = int(rng.integers(2, 6))
    br = np.linspace(0, T * K, m_seg + 1)
    inc = np.sort(rng.random((n, m_seg)), axis=1)
    prob = np.concatenate([np.zeros((n, 1)), np.cumsum(inc, axis=1)], axis=1)
    prob = prob / prob[:, -1:].max() * 0.8
    beta = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
    if beta > 0:
        var = np.tile(rng.random((n, 1)) * 0.9, (1, m_seg + 1))
    else:
        var = rng.random((n, m_seg + 1)) * 0.9
    return PlanProblem(graph=g, pwl=pwl_from_values(grid, br, prob, var), K=K, beta=beta)


def random_nonconvex_problem(seed):
    rng = np.random.default_rng([seed, 991])
    W, H = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    n = W * H
    post = int(rng.integers(0, n))
    grid = flat_grid(W, H, posts=(post,))
    T = int(rng.integers(2, 7))
    K = int(rng.integers(1, 4))
    g = build_graph(grid, post, T)
    m_seg = int(rng.integers(2, 6))
    br = np.linspace(0, T * K, m_seg + 1)
    prob = rng.random((n, m_seg + 1)) * 0.5
    var = rng.random((n, m_seg + 1)) * 0.8
    return PlanProblem(graph=g, pwl=pwl_from_values(grid, br, prob, var),
                       K=K, beta=float(rng.choice([0.0, 0.5, 1.0])))


def scipy_milp_objective(problem):
    """Independent oracle: same model data, solved by HiGHS."""
    m = assemble_milp(problem)
    cons = [LinearConstraint(m.A_eq, m.b_eq, m.b_eq)]
    if m.A_ub.shape[0]:
        cons.append(LinearConstraint(m.A_ub, -np.inf, m.b_ub))
    integrality = np.zeros(m.n_vars)
    integrality[m.z_cols] = 1
    res = milp(c=-m.obj, constraints=cons, integrality=integrality, bounds=Bounds(0, 1))
    assert res.success, res.message
    return -res.fun, m


class TestGraph:
    def test_horizon_one_single_node(self):
        grid = flat_grid(2, 2)
        g = build_graph(grid, 0, 1)
        assert g.nodes == ((0, 1),) and g.num_edges == 0
        assert g.count_paths() == 1
        assert g.coverage_of_path((0,), K=3)[0] == 3.0

    def test_line_of_two_stay_only(self):
        grid = flat_grid(2, 1)
        g = build_graph(grid, 0, 2)
        paths = list(g.enumerate_paths(10))
        assert paths == [(0, 0)]  # moving away leaves no time to return

    def test_line_of_three_pruning(self):
        grid = flat_grid(3, 1)
        g = build_graph(grid, 0, 3)
        assert sorted(g.enumerate_paths(10)) == [(0, 0, 0), (0, 1, 0)]
        assert (2, 2) not in [nt for nt in g.nodes]  # cell C pruned everywhere
        assert g.nodes == ((0, 1), (0, 2), (1, 2), (0, 3))

    def test_invalid_inputs(self):
        grid = flat_grid(2, 2)
        with pytest.raises(PlannerError):
            build_graph(grid, 0, 0)
        with pytest.raises(PlannerError):
            build_graph(grid, 1, 3)  # not a patrol post

    def test_count_paths_matches_enumeration(self):
        grid = flat_grid(3, 3, posts=(4,))
        g = build_graph(grid, 4, 5)
        assert g.count_paths() == len(list(g.enumerate_paths(10**6)))

    def test_coverage_from_flow_matches_edge_loop(self):
        grid = flat_grid(3, 3, posts=(4,))
        g = build_graph(grid, 4, 5)
        flow = np.random.default_rng(0).random(g.num_edges)
        ref = np.zeros(grid.n_cells)
        for e, (_, v) in enumerate(g.edges):
            ref[g.nodes[v][0]] += flow[e]
        ref[g.post] += 1.0
        assert np.array_equal(g.coverage_from_flow(flow, 3), 3 * ref)

    def test_coverage_sums_to_horizon(self):
        grid = flat_grid(3, 2, posts=(1,))
        g = build_graph(grid, 1, 4)
        for path in g.enumerate_paths(10**6):
            assert g.coverage_of_path(path, K=2).sum() == pytest.approx(8.0)


class TestSolve:
    def test_line_example_route(self):
        plan = solve(line_problem(), method="bnb")
        plan.validate()
        assert plan.objective == pytest.approx(0.2, abs=1e-9)
        assert plan.coverage[0] == pytest.approx(2.0)
        assert plan.coverage[1] == pytest.approx(1.0)
        assert decompose_routes(plan) == [((0, 1, 0), 1.0)]

    def test_zero_utilities_feasible(self):
        p = line_problem()
        zero = pwl_from_values(p.graph.grid, p.pwl.breakpoints,
                               np.zeros_like(p.pwl.prob_values))
        plan = solve(PlanProblem(graph=p.graph, pwl=zero, K=1, beta=0.0), method="bnb")
        plan.validate()
        assert plan.objective == pytest.approx(0.0, abs=1e-9)

    def test_auto_uses_enumeration_on_convex(self):
        plan = solve(line_problem(), method="auto")
        assert plan.solver == "enumerate"

    def test_enumeration_refuses_nonconvex(self):
        p = random_nonconvex_problem(3)
        assert not utilities_convex(p)
        with pytest.raises(PlannerError):
            solve_by_enumeration(p)

    def test_enumeration_agrees_with_bnb_on_convex(self):
        for seed in range(25):
            p = random_convex_problem(seed)
            pe = solve_by_enumeration(p)
            pb = solve(p, method="bnb")
            pe.validate()
            pb.validate()
            assert abs(pe.objective - pb.objective) <= 1e-6

    def test_bnb_matches_scipy_on_nonconvex(self):
        for seed in range(12):
            p = random_nonconvex_problem(seed)
            ref, model = scipy_milp_objective(p)
            _, got = branch_and_bound(model)
            assert abs(got - ref) <= 1e-6

    def test_mixed_strategy_beats_pure_paths_when_concave(self):
        # concave plateau utilities: splitting flow across B and C wins
        grid = flat_grid(2, 2, posts=(0,))
        g = build_graph(grid, 0, 3)
        br = np.array([0.0, 0.5, 1.0, 3.0])
        prob = np.array([
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.4, 0.5, 0.5],
            [0.0, 0.4, 0.5, 0.5],
            [0.0, 0.0, 0.0, 0.0],
        ])
        p = PlanProblem(graph=g, pwl=pwl_from_values(grid, br, prob), K=1, beta=0.0)
        plan = solve(p, method="bnb")
        plan.validate()
        best_path = max(
            objective_of_coverage(p.pwl, grid, g.coverage_of_path(path, 1), 0.0)
            for path in g.enumerate_paths(1000))
        assert plan.objective > best_path + 0.25  # 0.8 vs 0.5
        assert len(decompose_routes(plan)) == 2

    def test_infeasible_when_post_missing(self):
        grid = flat_grid(2, 1)
        with pytest.raises(PlannerError):
            build_graph(grid, 1, 2)

    def test_unknown_method(self):
        with pytest.raises(PlannerError):
            solve(line_problem(), method="sorcery")


class TestAssembleMilp:
    def test_beta_zero_reduces_to_nominal(self):
        p0 = line_problem(beta=0.0)
        m = assemble_milp(p0)
        util = m.pwl.utility_values(0.0)
        np.testing.assert_array_equal(util, m.pwl.prob_values)

    def test_zero_variance_makes_beta_irrelevant(self):
        grid = flat_grid(2, 1)
        g = build_graph(grid, 0, 2)
        br = np.array([0.0, 1.0, 2.0])
        prob = np.array([[0.1, 0.5, 0.6], [0.0, 0.2, 0.9]])
        pwl = pwl_from_values(grid, br, prob)  # var = 0
        for beta in (0.0, 0.5, 1.0):
            plan = solve(PlanProblem(graph=g, pwl=pwl, K=1, beta=beta), method="bnb")
            assert plan.objective == pytest.approx(plan.objective_nominal)

    def test_robust_utility_arithmetic(self):
        grid = flat_grid(1, 1)
        br = np.array([0.0, 1.0])
        pwl = pwl_from_values(grid, br, [[0.5, 0.5]], [[0.4, 0.4]])
        u = pwl.utility_values(beta=1.0)
        assert u[0, 0] == pytest.approx(0.5 * (1 - 0.4))

    def test_domain_extension_warns(self):
        grid = flat_grid(2, 1)
        g = build_graph(grid, 0, 4)
        pwl = pwl_from_values(grid, [0.0, 1.0], [[0.1, 0.4], [0.0, 0.3]])
        p = PlanProblem(graph=g, pwl=pwl, K=2, beta=0.0)  # T*K = 8 > 1
        with pytest.warns(UserWarning, match="clamping"):
            m = assemble_milp(p)
        assert m.pwl.c_max == 8.0


class TestValidate:
    def test_rejects_broken_flow_and_coverage(self):
        plan = solve(line_problem(), method="bnb")
        plan.validate()
        g = plan.graph
        edge = {(g.nodes[u], g.nodes[v]): e for e, (u, v) in enumerate(g.edges)}
        stay, out = ((0, 1), (0, 2)), ((0, 1), (1, 2))
        back, home = ((0, 2), (0, 3)), ((1, 2), (0, 3))
        near = 0.5 - 0.9e-9  # every interior node within tolerance, the sink not
        cases = [
            ({out: 0.5, home: 0.5}, "source must emit"),
            ({out: 1.0}, "conservation violated at node 2"),
            ({stay: 0.5, out: 0.5, back: near, home: near}, "sink must absorb"),
        ]
        for weights, message in cases:
            flow = np.zeros(g.num_edges)
            for uv, w in weights.items():
                flow[edge[uv]] = w
            with pytest.raises(PlannerError, match=message):
                replace(plan, flow=flow).validate()
        with pytest.raises(PlannerError, match="total coverage"):
            replace(plan, coverage=plan.coverage * 1.5).validate()


class TestDecompose:
    def test_integral_flow_single_path(self):
        plan = solve(line_problem(), method="enumerate")
        routes = decompose_routes(plan)
        assert routes == [((0, 1, 0), 1.0)]

    def test_stay_path_when_flow_sits_on_loop(self):
        grid = flat_grid(2, 1)
        g = build_graph(grid, 0, 3)
        flow = np.zeros(g.num_edges)
        for e, (u, v) in enumerate(g.edges):
            if g.nodes[u][0] == 0 and g.nodes[v][0] == 0:
                flow[e] = 1.0
        routes = decompose_flow(g, flow)
        assert routes == (((0, 0, 0), 1.0),)

    def test_half_half_split(self):
        grid = flat_grid(2, 2, posts=(0,))
        g = build_graph(grid, 0, 3)
        idx = {(g.nodes[u], g.nodes[v]): e for e, (u, v) in enumerate(g.edges)}
        flow = np.zeros(g.num_edges)
        for a, b, w in [((0, 1), (1, 2), 0.5), ((1, 2), (0, 3), 0.5),
                        ((0, 1), (2, 2), 0.5), ((2, 2), (0, 3), 0.5)]:
            flow[idx[(a, b)]] = w
        routes = decompose_flow(g, flow)
        assert sorted(routes) == [((0, 1, 0), 0.5), ((0, 2, 0), 0.5)]

    def test_weights_sum_to_one_and_bounded_count(self):
        for seed in range(8):
            p = random_nonconvex_problem(seed)
            plan = solve(p, method="bnb")
            routes = decompose_routes(plan)
            assert abs(sum(w for _, w in routes) - 1.0) <= 1e-9
            assert len(routes) <= p.graph.num_edges
            assert all(w > 0 for _, w in routes)


class TestImprovementRatio:
    def test_beta_zero_row_exactly_one(self):
        table = improvement_ratio(line_problem(), [0.0, 0.5])
        assert table[0] == (0.0, 1.0)

    def test_constant_variance_keeps_ratio_one(self):
        grid = flat_grid(2, 2, posts=(0,))
        g = build_graph(grid, 0, 3)
        br = np.array([0.0, 1.0, 2.0, 3.0])
        rng = np.random.default_rng(5)
        prob = rng.random((4, 4)) * 0.6
        var = np.full((4, 4), 0.35)
        p = PlanProblem(graph=g, pwl=pwl_from_values(grid, br, prob, var), K=1, beta=0.0)
        for beta, ratio in improvement_ratio(p, [0.0, 0.25, 0.5, 0.75, 1.0]):
            assert ratio == 1.0

    def test_dominance_and_ratio_at_least_one(self):
        for seed in (0, 1, 2, 3):
            p = random_nonconvex_problem(seed)
            table, base_plan, plans = improvement_ratio(
                p, [0.0, 0.25, 0.5, 0.75, 1.0], return_plans=True)
            for beta, ratio in table:
                assert ratio is None or ratio >= 1.0 - 1e-6
                # robustness can never improve the nominal objective
                assert plans[beta].objective_nominal <= base_plan.objective_nominal + 1e-6

    def test_zero_baseline_gives_none(self):
        grid = flat_grid(2, 1)
        g = build_graph(grid, 0, 2)
        pwl = pwl_from_values(grid, [0.0, 2.0], np.zeros((2, 2)), np.full((2, 2), 0.5))
        table = improvement_ratio(PlanProblem(graph=g, pwl=pwl, K=1, beta=0.0), [0.0, 1.0])
        assert table[1][1] is None


class TestLpInterface:
    def test_lp_file_round_trip_via_scipy(self, tmp_path):
        p = random_nonconvex_problem(4)
        model = assemble_milp(p)
        path = tmp_path / "model.lp"
        write_lp_file(model, path)
        obj_names, A_eq, b_eq, A_ub, b_ub, binaries = _parse_lp(path.read_text(),
                                                                model.var_names)
        cons = [LinearConstraint(A_eq, b_eq, b_eq)]
        if len(b_ub):
            cons.append(LinearConstraint(A_ub, -np.inf, b_ub))
        integrality = np.zeros(model.n_vars)
        integrality[[model.var_names.index(b) for b in binaries]] = 1
        res = milp(c=-obj_names, constraints=cons, integrality=integrality,
                   bounds=Bounds(0, 1))
        assert res.success
        _, internal = branch_and_bound(model)
        assert abs(-res.fun - internal) <= 1e-6

    def test_external_agrees_with_bnb(self):
        for seed in range(8):
            p = random_nonconvex_problem(seed)
            ext = solve(p, method="external")
            internal = solve(p, method="bnb")
            ext.validate()
            assert ext.solver == "external:highs"
            assert abs(ext.objective - internal.objective) <= 1e-6


def _parse_lp(text, var_names):
    """Minimal CPLEX-LP reader for round-trip testing (objective, rows)."""
    import re

    name_to_col = {n: j for j, n in enumerate(var_names)}
    n = len(var_names)
    section = None
    obj = np.zeros(n)
    A_eq, b_eq, A_ub, b_ub, binaries = [], [], [], [], []

    def parse_expr(expr, row):
        for sign, coef, name in re.findall(r"([+-]?)\s*([\d.eE+-]*)\s*([A-Za-z]\w*)", expr):
            c = float(coef) if coef not in ("", "+", "-") else 1.0
            if sign == "-":
                c = -c
            row[name_to_col[name]] += c

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low in ("maximize", "subject to", "bounds", "binary", "end"):
            section = low
            continue
        if section == "maximize":
            parse_expr(line.split(":", 1)[1], obj)
        elif section == "subject to":
            body = line.split(":", 1)[1]
            if "<=" in body:
                lhs, rhs = body.split("<=")
                row = np.zeros(n)
                parse_expr(lhs, row)
                A_ub.append(row)
                b_ub.append(float(rhs))
            else:
                lhs, rhs = body.split("=")
                row = np.zeros(n)
                parse_expr(lhs, row)
                A_eq.append(row)
                b_eq.append(float(rhs))
        elif section == "binary":
            binaries.append(line)
    return (obj, np.asarray(A_eq), np.asarray(b_eq),
            np.asarray(A_ub) if A_ub else np.zeros((0, n)),
            np.asarray(b_ub), binaries)


class TestSolveLp:
    """solve_lp maximizes and maps HiGHS statuses onto the planner's."""

    def test_agrees_with_scipy_on_random_lps(self):
        from scipy.optimize import linprog

        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(60):
            nv = int(rng.integers(2, 8))
            c = rng.normal(size=nv)
            A_ub = np.vstack([rng.normal(size=(int(rng.integers(1, 5)), nv)),
                              np.ones((1, nv))])
            b_ub = np.concatenate([rng.uniform(0.5, 3, size=A_ub.shape[0] - 1), [10.0]])
            A_eq = rng.normal(size=(int(rng.integers(0, 3)), nv))
            b_eq = rng.uniform(-1, 2, size=A_eq.shape[0])
            ref = linprog(-c, A_ub=A_ub, b_ub=b_ub,
                          A_eq=A_eq if len(A_eq) else None,
                          b_eq=b_eq if len(b_eq) else None,
                          bounds=(0, None), method="highs")
            mine = solve_lp(c, A_ub, b_ub, A_eq if len(A_eq) else None,
                            b_eq if len(b_eq) else None)
            seen.add(mine.status)
            if ref.status == 2:
                assert mine.status == "infeasible"
            elif ref.status == 0:
                assert mine.status == "optimal"
                assert abs(mine.objective + ref.fun) <= 1e-7 * (1 + abs(ref.fun))
        assert {"optimal", "infeasible"} <= seen

    def test_degenerate_lp_terminates(self):
        c = np.array([1.0, 1.0, 1.0])
        A_eq = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])  # redundant row
        b_eq = np.array([1.0, 2.0])
        res = solve_lp(c, None, None, A_eq, b_eq)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0)
