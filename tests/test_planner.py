import re
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
    improvement_ratio,
    objective_of_coverage,
    solve,
    solve_by_enumeration,
    solve_lp,
    utilities_convex,
    write_lp_file,
)
from patrolkit.planner.milp import CscMatrix
from patrolkit.planner.solve import decompose_flow
from patrolkit.riskmap import PwlRiskModel, interp_rows

from conftest import flat_grid


def pwl_from_values(grid, breakpoints, prob, var=None):
    prob = np.asarray(prob, float)
    var = np.zeros_like(prob) if var is None else np.asarray(var, float)
    return PwlRiskModel(grid=grid, breakpoints=np.asarray(breakpoints, float),
                        prob_values=prob, var_values=var)


def graph_nodes(g):
    """The graph's nodes as (cell, t) pairs, in node order."""
    return tuple(zip(g.node_cell.tolist(), g.node_time.tolist()))


def graph_edges(g):
    """The graph's edges as (tail, head) node pairs, in edge order."""
    return tuple(zip(g.edge_tail.tolist(), g.edge_head.tolist()))


def edge_of(g):
    """Edge index by its ((cell, t), (cell, t)) end nodes."""
    nodes = graph_nodes(g)
    return {(nodes[u], nodes[v]): e for e, (u, v) in enumerate(graph_edges(g))}


def cell_paths(g, limit):
    """The enumerated paths as the cell sequences they visit."""
    for path in g.enumerate_paths(limit):
        yield (g.post, *g.edge_cell[path].tolist())


def path_coverage(g, path, K):
    """Per-cell coverage of one enumerated path executed K times."""
    flow = np.zeros(g.num_edges)
    flow[path] = 1.0
    return g.coverage_from_flow(flow, K)


def set_and_tuple_graph(grid, post, T):
    """The builder that the array one replaced: reachable and returnable
    cell sets per time step, then (cell, t) nodes and (tail, head) edges as
    tuples. The oracle for build_graph's numbering."""
    if T == 1:
        return ((post, 1),), ()
    moves = {}

    def step(c):
        if c not in moves:
            moves[c] = sorted({c, *grid.neighbors(c)})
        return moves[c]

    reach = [set() for _ in range(T + 1)]
    reach[1] = {post}
    for t in range(1, T):
        reach[t + 1] = {v for u in reach[t] for v in step(u)}
    coreach = [set() for _ in range(T + 1)]
    coreach[T] = {post}
    for t in range(T - 1, 0, -1):
        coreach[t] = {u for v in coreach[t + 1] for u in step(v)}
    nodes = [(c, t) for t in range(1, T + 1) for c in sorted(reach[t] & coreach[t])]
    index = {nt: i for i, nt in enumerate(nodes)}
    edges = [(index[(u, t)], index[(v, t + 1)])
             for u, t in nodes if t < T for v in step(u) if (v, t + 1) in index]
    return tuple(nodes), tuple(edges)


def tuple_graph_paths(nodes, edges):
    """Cell sequences of every source-to-sink path of a tuple graph, depth
    first with out-edges in edge order."""
    out = [[] for _ in nodes]
    for u, v in edges:
        out[u].append(v)

    def walk(u):
        if u == len(nodes) - 1:
            yield (nodes[u][0],)
            return
        for v in out[u]:
            for rest in walk(v):
                yield (nodes[u][0], *rest)

    return list(walk(0))


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


def scipy_milp_objective(problem, tmp_path):
    """Independent oracle: the model as ``write_lp_file`` exports it, read
    back from the file and solved by scipy's HiGHS MILP."""
    model = assemble_milp(problem)
    path = tmp_path / "model.lp"
    write_lp_file(model, path)
    obj, A_eq, b_eq, A_ub, b_ub, lo, hi, binary = _parse_lp(path.read_text())
    cons = [LinearConstraint(A_eq, b_eq, b_eq), LinearConstraint(A_ub, -np.inf, b_ub)]
    res = milp(c=-obj, constraints=cons, integrality=binary, bounds=Bounds(lo, hi))
    assert res.success, res.message
    return -res.fun, model


def _parse_lp(text):
    """Minimal CPLEX-LP reader. The columns are the variables of the
    Bounds section, in its order; returns the objective, the equality and
    inequality rows, the bounds and the binary flags over them."""
    sections, section = {}, None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        if line.lower() in ("maximize", "subject to", "bounds", "binary", "end"):
            section = sections.setdefault(line.lower(), [])
        else:
            section.append(line)
    bounds = [line.split("<=") for line in sections["bounds"]]
    names = [name.strip() for _, name, _ in bounds]
    col = {name: j for j, name in enumerate(names)}

    def parse_expr(expr):
        row = np.zeros(len(names))
        for sign, coef, name in re.findall(r"([+-]?)\s*([\d.eE+-]*)\s*([A-Za-z]\w*)", expr):
            c = float(coef) if coef not in ("", "+", "-") else 1.0
            row[col[name]] += -c if sign == "-" else c
        return row

    (objective,) = sections["maximize"]
    rows = {"=": ([], []), "<=": ([], [])}
    for line in sections["subject to"]:
        body = line.split(":", 1)[1]
        op = "<=" if "<=" in body else "="
        lhs, rhs = body.split(op)
        rows[op][0].append(parse_expr(lhs))
        rows[op][1].append(float(rhs))
    A_eq, b_eq = map(np.asarray, rows["="])
    A_ub, b_ub = map(np.asarray, rows["<="])
    lo, hi = (np.array([float(b[k]) for b in bounds]) for k in (0, 2))
    return (parse_expr(objective.split(":", 1)[1]), A_eq, b_eq, A_ub, b_ub, lo, hi,
            np.isin(names, sections["binary"]).astype(int))


class TestGraph:
    def test_horizon_one_single_node(self):
        grid = flat_grid(2, 2)
        g = build_graph(grid, 0, 1)
        assert graph_nodes(g) == ((0, 1),) and g.num_edges == 0
        assert g.count_paths() == 1
        (path,) = g.enumerate_paths(10)
        assert path_coverage(g, path, K=3)[0] == 3.0

    def test_line_of_two_stay_only(self):
        grid = flat_grid(2, 1)
        g = build_graph(grid, 0, 2)
        paths = list(cell_paths(g, 10))
        assert paths == [(0, 0)]  # moving away leaves no time to return

    def test_line_of_three_pruning(self):
        grid = flat_grid(3, 1)
        g = build_graph(grid, 0, 3)
        assert sorted(cell_paths(g, 10)) == [(0, 0, 0), (0, 1, 0)]
        assert (2, 2) not in graph_nodes(g)  # cell C pruned everywhere
        assert graph_nodes(g) == ((0, 1), (0, 2), (1, 2), (0, 3))

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

    def test_arrays_match_the_set_and_tuple_builder(self):
        # random masked parks, every post, every horizon up to 8: the same
        # nodes and edges in the same order, and the same paths
        for seed in range(12):
            rng = np.random.default_rng([seed, 14])
            W, H = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            mask = rng.random(W * H) < 0.75
            posts = rng.choice(W * H, size=min(2, W * H), replace=False)
            mask[posts] = True
            grid = flat_grid(W, H, mask=mask, posts=tuple(posts.tolist()))
            for post in grid.patrol_posts:
                for T in range(1, 9):
                    g = build_graph(grid, post, T)
                    nodes, edges = set_and_tuple_graph(grid, post, T)
                    assert graph_nodes(g) == nodes
                    assert graph_edges(g) == edges
                    paths = list(cell_paths(g, 10**6))
                    assert g.count_paths() == len(paths)
                    assert paths == tuple_graph_paths(nodes, edges)

    def test_coverage_from_flow_matches_edge_loop(self):
        grid = flat_grid(3, 3, posts=(4,))
        g = build_graph(grid, 4, 5)
        flow = np.random.default_rng(0).random(g.num_edges)
        ref = np.zeros(grid.n_cells)
        for e, (_, v) in enumerate(graph_edges(g)):
            ref[graph_nodes(g)[v][0]] += flow[e]
        ref[g.post] += 1.0
        assert np.array_equal(g.coverage_from_flow(flow, 3), 3 * ref)

    def test_coverage_sums_to_horizon(self):
        grid = flat_grid(3, 2, posts=(1,))
        g = build_graph(grid, 1, 4)
        for path in g.enumerate_paths(10**6):
            assert path_coverage(g, path, K=2).sum() == pytest.approx(8.0)


class TestSolve:
    def test_line_example_route(self):
        plan = solve(line_problem(), method="bnb")
        plan.validate()
        assert plan.objective == pytest.approx(0.2, abs=1e-9)
        assert plan.coverage[0] == pytest.approx(2.0)
        assert plan.coverage[1] == pytest.approx(1.0)
        assert list(plan.routes) == [((0, 1, 0), 1.0)]

    def test_zero_utilities_feasible(self):
        p = line_problem()
        zero = pwl_from_values(p.graph.grid, p.pwl.breakpoints,
                               np.zeros_like(p.pwl.prob_values))
        plan = solve(PlanProblem(graph=p.graph, pwl=zero, K=1, beta=0.0), method="bnb")
        plan.validate()
        assert plan.objective == pytest.approx(0.0, abs=1e-9)

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

    def test_bnb_matches_scipy_on_nonconvex(self, tmp_path):
        # every seed goes through the LP-file export: the oracle solves
        # the file that write_lp_file writes
        for seed in range(12):
            p = random_nonconvex_problem(seed)
            ref, model = scipy_milp_objective(p, tmp_path)
            _, got = branch_and_bound(model)
            assert abs(got - ref) <= 1e-6

    def test_branching_splits_at_the_relaxed_coverage(self, monkeypatch, tmp_path):
        # a convex risk curve: the root relaxation puts the cell's weight on
        # the two ends of its window, most of it on the low end; one
        # split at the relaxed coverage settles the cell
        from patrolkit.planner import milp as milp_module

        windows = []
        solve_window = milp_module._solve_window_lp
        monkeypatch.setattr(milp_module, "_solve_window_lp",
                            lambda m, h, w: windows.append(w.copy()) or solve_window(m, h, w))
        grid = flat_grid(2, 1, posts=(0,))
        br = np.linspace(0.0, 12.0, 25)
        prob = np.vstack([np.zeros(25), (br / 12.0) ** 2])
        p = PlanProblem(graph=build_graph(grid, 0, 6), pwl=pwl_from_values(grid, br, prob),
                        K=1, beta=0.0)
        ref, model = scipy_milp_objective(p, tmp_path)
        _, got = branch_and_bound(model)
        assert abs(got - ref) <= 1e-6
        assert len(windows) == 3  # the root and its two children

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
            objective_of_coverage(p.pwl, grid, path_coverage(g, path, 1), 0.0)
            for path in g.enumerate_paths(1000))
        assert plan.objective > best_path + 0.25  # 0.8 vs 0.5
        assert len(plan.routes) == 2

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
        util = m.problem.pwl.utility_values(0.0)
        np.testing.assert_array_equal(util, m.problem.pwl.prob_values)

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
        with pytest.warns(UserWarning, match="clamping"):
            p = PlanProblem(graph=g, pwl=pwl, K=2, beta=0.0)  # T*K = 8 > 1
        m = assemble_milp(p)
        assert m.problem.pwl.c_max == 8.0


class TestObjective:
    def test_coverage_objectives_equal_a_per_cell_loop(self):
        # both coverage objectives add np.interp's per-cell values one at a
        # time in ascending cell order, to the last bit
        def loop(pwl, cells, cov, util):
            total = 0.0
            for cid in cells:
                total += float(np.interp(cov[cid], pwl.breakpoints, util[cid]))
            return total

        problems = [random_nonconvex_problem(s) for s in range(12)]
        problems += [random_convex_problem(s) for s in range(4)]  # with masked-out cells
        for seed, p in enumerate(problems):
            grid, pwl = p.graph.grid, p.pwl
            rng = np.random.default_rng(seed)
            model = assemble_milp(p)
            x, _ = branch_and_bound(model)
            covs = [p.graph.coverage_from_flow(model.flow_values(x), p.K),
                    rng.uniform(0.0, 1.2 * pwl.c_max, grid.n_cells),
                    rng.choice(pwl.breakpoints, grid.n_cells)]
            for cov in covs:
                for beta in (0.0, p.beta, 1.0):
                    want = loop(pwl, grid.masked_ids(), cov, pwl.utility_values(beta))
                    assert objective_of_coverage(pwl, grid, cov, beta) == want
            assert model.flow_incumbent_value(x) == loop(pwl, model.cells, covs[0], model.util)


class TestValidate:
    def test_rejects_broken_flow_and_coverage(self):
        plan = solve(line_problem(), method="bnb")
        plan.validate()
        g = plan.graph
        edge = edge_of(g)
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
        routes = decompose_flow(plan.graph, plan.flow)
        assert routes == (((0, 1, 0), 1.0),)

    def test_stay_path_when_flow_sits_on_loop(self):
        grid = flat_grid(2, 1)
        g = build_graph(grid, 0, 3)
        flow = np.zeros(g.num_edges)
        nodes = graph_nodes(g)
        for e, (u, v) in enumerate(graph_edges(g)):
            if nodes[u][0] == 0 and nodes[v][0] == 0:
                flow[e] = 1.0
        routes = decompose_flow(g, flow)
        assert routes == (((0, 0, 0), 1.0),)

    def test_half_half_split(self):
        grid = flat_grid(2, 2, posts=(0,))
        g = build_graph(grid, 0, 3)
        idx = edge_of(g)
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
            routes = list(plan.routes)
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

    @pytest.fixture
    def lp_loads(self, monkeypatch):
        """The count of HiGHS instances the planner loads."""
        from patrolkit.planner import milp as milp_module

        calls = []
        load_lp = milp_module.load_lp
        monkeypatch.setattr(milp_module, "load_lp", lambda *a: calls.append(1) or load_lp(*a))
        return calls

    def test_bad_grid_raises_before_any_solve(self, lp_loads):
        # before, beta = 0 and beta = 0.5 were solved before 1.5 was reached
        for grid in ([0.5, 1.5], [0.0, -0.25], [float("nan")]):
            with pytest.raises(PlannerError, match="beta grid"):
                improvement_ratio(line_problem(), grid)
        assert lp_loads == []

    def test_sweep_loads_one_lp(self, lp_loads):
        table = improvement_ratio(random_nonconvex_problem(0), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert len(table) == 5
        assert len(lp_loads) == 1

    def test_sweep_beta_zero_plan_equals_a_lone_solve(self):
        for seed in range(6):
            p = random_nonconvex_problem(seed)
            _, base_plan, plans = improvement_ratio(p, [0.0, 0.5, 1.0], return_plans=True)
            alone = solve(replace(p, beta=0.0)).to_dict()
            assert base_plan.to_dict() == alone and plans[0.0].to_dict() == alone

    def test_sweep_matches_scipy_on_nonconvex(self, tmp_path):
        # each beta after the first restarts from the first root's basis;
        # its plan must still be optimal for its own beta
        betas = [0.0, 0.25, 0.5, 0.75, 1.0]
        for seed in range(12):
            p = random_nonconvex_problem(seed)
            _, _, plans = improvement_ratio(p, betas, return_plans=True)
            for beta in betas:
                ref, model = scipy_milp_objective(replace(p, beta=beta), tmp_path)
                # the LP objective leaves out the cells outside the graph
                cells = model.cells
                got = interp_rows(plans[beta].coverage[cells], p.pwl.breakpoints,
                                  model.util[cells]).sum()
                assert abs(got - ref) <= 1e-6, (seed, beta)

    def test_zero_baseline_gives_none(self):
        grid = flat_grid(2, 1)
        g = build_graph(grid, 0, 2)
        pwl = pwl_from_values(grid, [0.0, 2.0], np.zeros((2, 2)), np.full((2, 2), 0.5))
        table = improvement_ratio(PlanProblem(graph=g, pwl=pwl, K=1, beta=0.0), [0.0, 1.0])
        assert table[1][1] is None


def csc(A) -> CscMatrix:
    """A dense matrix as the planner's ``CscMatrix``."""
    A = np.asarray(A, dtype=float)
    cols, rows = np.nonzero(A.T)  # by column, then row
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(A, axis=0))])
    return CscMatrix(indptr=indptr.astype(np.int32), indices=rows.astype(np.int32),
                     data=A[rows, cols], shape=A.shape)


class TestSolveLp:
    """solve_lp maximizes an equality-form LP: the optimal x, or None when
    it is infeasible."""

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
            # the same LP in equality form: one slack column per inequality
            n_ub = A_ub.shape[0]
            A = np.block([[A_ub, np.eye(n_ub)], [A_eq, np.zeros((A_eq.shape[0], n_ub))]])
            x = solve_lp(np.concatenate([c, np.zeros(n_ub)]), A_eq=csc(A),
                         b_eq=np.concatenate([b_ub, b_eq]))
            seen.add("infeasible" if x is None else "optimal")
            if ref.status == 2:
                assert x is None
            elif ref.status == 0:
                assert x is not None and np.all(x >= 0)
                np.testing.assert_allclose(A @ x, np.concatenate([b_ub, b_eq]), atol=1e-7)
                assert abs(c @ x[:nv] + ref.fun) <= 1e-7 * (1 + abs(ref.fun))
        assert {"optimal", "infeasible"} <= seen

    def test_degenerate_lp_terminates(self):
        c = np.array([1.0, 1.0, 1.0])
        A_eq = csc([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])  # redundant row
        b_eq = np.array([1.0, 2.0])
        x = solve_lp(c, A_eq=A_eq, b_eq=b_eq)
        assert x is not None
        assert c @ x == pytest.approx(1.0)


class TestNodeLp:
    """Node LPs run on scipy's private HiGHS binding, one instance per
    branch and bound, hot-started from node to node."""

    def test_highs_binding_has_the_names_the_planner_uses(self):
        import scipy
        from scipy.optimize._highspy import _core

        missing = [name for name in ("_Highs", "HighsLp", "HighsModelStatus", "HighsStatus",
                                     "MatrixFormat", "kHighsInf", "simplex_constants")
                   if not hasattr(_core, name)]
        missing += [f"_Highs.{name}" for name in ("changeColsBounds", "getSolution",
                                                  "getModelStatus", "modelStatusToString",
                                                  "passModel", "run", "setOptionValue")
                    if not hasattr(getattr(_core, "_Highs", None), name)]
        missing += [f"HighsModelStatus.{name}" for name in ("kOptimal", "kInfeasible")
                    if not hasattr(getattr(_core, "HighsModelStatus", None), name)]
        assert not missing, (
            f"scipy {scipy.__version__}'s scipy.optimize._highspy._core lacks {missing}, "
            "which patrolkit.planner.milp solves every node LP with")

    def test_hot_started_windows_match_fresh_solves(self):
        from scipy.optimize import linprog

        from patrolkit.planner.milp import _solve_window_lp, load_lp

        rng = np.random.default_rng(5)
        grid = flat_grid(4, 4, posts=(5,))
        br = np.linspace(0, 5, 6)
        p = PlanProblem(graph=build_graph(grid, 5, 5), K=1, beta=0.5,
                        pwl=pwl_from_values(grid, br, rng.random((16, 6)) * 0.5,
                                            rng.random((16, 6)) * 0.8))
        model = assemble_milp(p)
        post = model.cells.index(5)
        root = np.tile([0, 5], (len(model.cells), 1))

        def windows(**at):
            w = root.copy()
            for pos, lo_hi in at.items():
                w[int(pos[1:])] = lo_hi
            return w

        # the post's coverage is at least K, so confining it to 0 is infeasible
        sequence = [root, windows(**{f"p{post}": (0, 0)}), windows(p0=(0, 1)),
                    windows(p3=(2, 5)), windows(**{f"p{post}": (1, 2)}), windows(p1=(5, 5)),
                    windows(p2=(0, 0), p6=(0, 1)), root]
        highs = load_lp(model.obj, model.A_eq, model.b_eq)
        A = model.A_eq
        dense = np.zeros(A.shape)
        dense[A.indices, np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))] = A.data
        statuses = []
        j = np.arange(model.n_bp)
        for w in sequence:
            hot = _solve_window_lp(model, highs, w)
            # the fresh solve drops the columns outside the windows instead
            inside = (j >= w[:, :1]) & (j <= w[:, 1:])
            cols = np.concatenate([np.arange(model.n_flow), model.n_flow + np.flatnonzero(inside)])
            fresh = linprog(-model.obj[cols], A_eq=dense[:, cols], b_eq=model.b_eq,
                            bounds=(0, None), method="highs")
            status = "infeasible" if hot is None else "optimal"
            assert fresh.status == {"optimal": 0, "infeasible": 2}[status]
            if hot is not None:
                assert model.obj @ hot == pytest.approx(-fresh.fun, rel=1e-9, abs=1e-9)
            statuses.append(status)
        assert statuses[:3] == ["optimal", "infeasible", "optimal"]
        assert statuses.count("infeasible") >= 2 and statuses[-1] == "optimal"

    def test_matrix_must_match_costs_and_right_hand_side(self):
        # HiGHS takes a longer b_eq as empty rows and a shorter c as fewer
        # columns, and would solve that LP instead
        A = csc([[1.0, 2.0, 1.0]])
        for c, b in ((np.ones(3), np.array([4.0, 1.0])), (np.ones(2), np.array([4.0]))):
            with pytest.raises(PlannerError, match="A_eq is"):
                solve_lp(c, A_eq=A, b_eq=b)

    def test_unbounded_lp(self):
        # every node LP is bounded: any outcome but optimal or infeasible is an error
        with pytest.raises(PlannerError, match="Unbounded"):
            solve_lp(np.array([1.0, 0.0]), A_eq=csc([[0.0, 1.0]]), b_eq=np.array([1.0]))


def per_cell_branch(lam, br, U):
    """The per-cell loop branch and bound ran before: the first cell whose
    violation beats the best so far by more than 1e-12."""
    best_gap, branch_pos, branch_cv = 0.0, -1, 0.0
    for pos in range(lam.shape[0]):
        cv = float(lam[pos] @ br)
        violation = float(lam[pos] @ U[pos]) - float(np.interp(cv, br, U[pos]))
        if violation > best_gap + 1e-12:
            best_gap, branch_pos, branch_cv = violation, pos, cv
    return None if branch_pos < 0 else (branch_pos, branch_cv)


class TestBranchingRule:
    def test_matches_the_per_cell_loop(self):
        from patrolkit.planner.milp import _branch_cell

        rng = np.random.default_rng(11)
        outcomes = {"none": 0, "branch": 0, "tie": 0}
        for _ in range(400):
            n, n_bp = int(rng.integers(1, 50)), int(rng.integers(2, 28))
            br = np.linspace(0.0, float(rng.integers(2, 25)), n_bp)
            U = rng.random((n, n_bp))
            # vertex-like relaxations: each cell's weight on one to three breakpoints
            lam = np.zeros((n, n_bp))
            for i in range(n):
                at = rng.choice(n_bp, int(rng.integers(1, min(n_bp, 3) + 1)), replace=False)
                w = rng.random(at.size)
                lam[i, at] = w / w.sum()
            ref = per_cell_branch(lam, br, U)
            if ref is not None and rng.random() < 0.5:
                # exact ties: the chosen cell is copied to every later position
                lam[ref[0]:], U[ref[0]:] = lam[ref[0]], U[ref[0]]
                outcomes["tie"] += ref[0] < n - 1
                assert per_cell_branch(lam, br, U)[0] == ref[0]
            got = _branch_cell(lam, br, U)
            outcomes["none" if ref is None else "branch"] += 1
            if ref is None:
                assert got is None
            else:
                assert got is not None and got[0] == ref[0]
                # a product and a sum may round the coverage apart by an ulp
                assert got[1] == pytest.approx(ref[1], rel=1e-15, abs=1e-15)
        assert min(outcomes.values()) >= 20, outcomes
