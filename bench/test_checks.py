"""Each output check accepts a right artifact and rejects a corrupted one.

    python3 -m pytest -q bench/test_checks.py
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from patrolkit.grid import ParkGrid  # noqa: E402
from patrolkit.planner import PlanProblem, build_graph, improvement_ratio, solve  # noqa: E402
from patrolkit.riskmap import PwlRiskModel  # noqa: E402

W = H = 5
POST = 12
T, K = 6, 2


@pytest.fixture(scope="module")
def park():
    mask = np.ones(W * H, bool)
    mask[0] = False  # one hole, so in-park tests are not trivially true
    return checks.Park(W, H, mask, (POST,), np.zeros((W * H, 1)))


@pytest.fixture(scope="module")
def curves(park):
    rng = np.random.default_rng(5)
    br = np.linspace(0.0, float(T * K), 9)
    rate = rng.uniform(0.2, 1.0, W * H)
    prob = rng.uniform(0.1, 0.9, W * H)[:, None] * -np.expm1(-rate[:, None] * br[None, :])
    var = rng.uniform(0.2, 0.8, W * H)[:, None] * np.exp(-br[None, :] / 2.0)
    prob[~park.mask] = np.nan
    var[~park.mask] = np.nan
    return br, prob, var


@pytest.fixture(scope="module")
def problem(park, curves):
    br, prob, var = curves
    grid = ParkGrid(width=W, height=H, features=np.zeros((W * H, 1)), feature_names=("f_1",),
                    patrol_posts=(POST,), mask=park.mask)
    pwl = PwlRiskModel(grid=grid, breakpoints=br, prob_values=prob, var_values=var)
    return PlanProblem(graph=build_graph(grid, POST, T), pwl=pwl, K=K, beta=1.0)


@pytest.fixture(scope="module")
def plan(problem):
    return solve(problem, method="bnb").to_dict()


def plan_errors(plan, park, curves, reference=None):
    br, prob, var = curves
    return checks.check_plan(plan, park, prob, var, br, np.random.default_rng(0), reference)


def test_pair_auc_counts_ties_half():
    assert checks.pair_auc([0.9, 0.5, 0.5, 0.1], [True, True, False, False]) == 0.875


def test_auc_check_rejects_a_shifted_auc():
    scores, labels = {3: [0.9, 0.2, 0.4]}, {3: np.array([True, False, False])}
    assert checks.check_auc({"test_windows": {"3": {"auc": 1.0}}}, scores, labels) == []
    assert checks.check_auc({"test_windows": {"3": {"auc": 1.0 - 1e-9}}}, scores, labels)
    assert checks.check_auc({"test_windows": {"3": {"rows": 3}}}, scores, labels)


def test_walker_rejects_bad_routes(park):
    good = [12, 13, 13, 8, 7, 12]
    assert checks.walk_errors(good, POST, T, park) == []
    assert checks.walk_errors([12, 18, 13, 8, 7, 12], POST, T, park)   # diagonal step
    assert checks.walk_errors([12, 13, 14, 12, 12, 12], POST, T, park)  # jump of two
    assert checks.walk_errors([13, 13, 13, 8, 7, 12], POST, T, park)   # starts off post
    assert checks.walk_errors(good[:-1], POST, T, park)                # too short
    hole = checks.Park(W, H, park.mask, (6,), park.features)
    assert checks.walk_errors([6, 1, 0, 1, 6, 6], 6, T, hole)          # enters the hole


def test_highs_reference_matches_the_planner(park, curves, problem, plan):
    br, prob, var = curves
    ref = checks.highs_optimum(park, POST, T, K, prob, var, br, problem.beta)
    assert ref is not None
    assert plan_errors(plan, park, curves, reference=ref) == []
    assert plan_errors(plan, park, curves, reference=ref + 1e-3)


def test_plan_check_rejects_corruptions(park, curves, plan):
    bad = copy.deepcopy(plan)
    bad["routes"][0]["weight"] += 0.01
    assert plan_errors(bad, park, curves)

    bad = copy.deepcopy(plan)
    cells = list(bad["coverage"])
    bad["coverage"][cells[0]] += 0.5
    bad["coverage"][cells[1]] -= 0.5
    assert plan_errors(bad, park, curves)

    bad = copy.deepcopy(plan)
    bad["objective"] -= 0.05
    assert plan_errors(bad, park, curves)


def test_plan_check_rejects_a_feasible_but_poor_plan(park, curves):
    """Staying at the post is a consistent plan, but here walks beat it."""
    br, prob, var = curves
    _, util = checks.utilities(prob, var, br, 1.0, float(T * K))
    stay = np.zeros(W * H)
    stay[POST] = T * K
    bad = {"post": POST, "horizon": T, "K": K, "beta": 1.0,
           "objective": checks.objective(stay, park, br, util),
           "coverage": {str(POST): float(T * K)}, "routes": [{"cells": [POST] * T, "weight": 1.0}]}
    errors = plan_errors(bad, park, curves)
    assert errors and all("below random walk" in e for e in errors)


def test_sweep_check(problem):
    table = improvement_ratio(problem, [0.0, 0.5, 1.0])
    assert checks.check_sweep(table) == []
    assert checks.check_sweep([(0.0, 1.0 - 1e-12), (1.0, 1.1)])
    assert checks.check_sweep([(0.0, 1.0), (1.0, 0.99)])
    assert checks.check_sweep([(0.0, 1.0), (1.0, None)])
    assert checks.check_sweep([(0.5, 1.0)])


def test_riskmap_check(park):
    levels = [0.5, 1.0]
    rows = [(int(c), lv, 0.25, 0.5) for lv in levels for c in np.flatnonzero(park.mask)]
    ref = {(1, 0.5): (0.25, 0.5)}
    assert checks.check_riskmap(rows, park, levels, ref) == []
    assert checks.check_riskmap(rows[1:], park, levels, ref)
    for bad_row in ((1, 0.5, 1.5, 0.5), (1, 0.5, 0.25, 1.0), (1, 0.5, 0.25, -0.1)):
        bad = [bad_row if r[:2] == bad_row[:2] else r for r in rows]
        assert checks.check_riskmap(bad, park, levels, {})
    assert checks.check_riskmap(rows, park, levels, {(1, 0.5): (0.25 + 1e-6, 0.5)})


def test_blocks_check(park):
    good = {"block_size_cells": 3, "high": [[12, 0.8]], "medium": [[13, 0.5]], "low": [[18, 0.1]]}
    assert checks.check_blocks(good, park) == []
    edge = copy.deepcopy(good)
    edge["high"][0][0] = 14          # centre on the right edge: block leaves the park
    assert checks.check_blocks(edge, park)
    hole = copy.deepcopy(good)
    hole["high"][0][0] = 6           # block covers the hole at cell 0
    assert checks.check_blocks(hole, park)
    order = copy.deepcopy(good)
    order["low"][0][1] = 0.9
    assert checks.check_blocks(order, park)
