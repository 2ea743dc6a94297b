"""Acceptance gate: one test per shipped criterion, fixed tolerances.

Each test prints a PASS line with its measured numbers (visible under
``pytest -s`` or in captured output); a failed assertion is the FAIL line.
The protocols and tolerances here are the exit criteria of the build and
are not to be loosened.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np

from patrolkit import synth
from patrolkit.cli import main as cli_main
from patrolkit.grid import WaypointTrack, assemble_dataset, reconstruct_effort
from patrolkit.iware import _dataset_rows, train_iware
from patrolkit.learners import (
    TrainMatrix,
    gp_lml_and_gradient,
    jackknife_variance_batch,
    train_bagged,
    train_gp,
)
from patrolkit.metrics import FieldTestTable, ScoredSet, auc, chi_squared_field_test, ll_score
from patrolkit.planner import (
    PlanProblem,
    build_graph,
    improvement_ratio,
    objective_of_coverage,
    solve,
    solve_by_enumeration,
)
from patrolkit.riskmap import build_pwl, default_c_max

from conftest import flat_grid
from test_planner import pwl_from_values, random_convex_problem, random_nonconvex_problem

T_CRIT_95_DF19 = 1.729  # one-sided Student t, 19 degrees of freedom


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


# -- 1: field-test significance reproduces the reference p-value -----------

def test_criterion_1_chi_squared_reproduction():
    t0 = time.time()
    table = FieldTestTable.from_counts(
        [("High", 23, 54, 269.0), ("Medium", 12, 55, 115.3), ("Low", 3, 23, 57.7)])
    stat, dof, p = chi_squared_field_test(table)
    elapsed = time.time() - t0
    ok = abs(p - 1.05e-2) <= 0.02e-2 and dof == 2 and elapsed < 1.0
    report(1, ok, f"chi2={stat:.4f} dof={dof} p={p:.6f} (target 1.05e-2 +/- 0.02e-2), "
                  f"{elapsed:.2f}s")


# -- 2: MILP equals exhaustive path enumeration on small parks -------------

def test_criterion_2_planner_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    for seed in range(100):
        p = random_convex_problem(seed, max_side=4, max_T=6)
        pe = solve_by_enumeration(p)
        pb = solve(p, method="bnb")
        worst = max(worst, abs(pe.objective - pb.objective))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 300
    report(2, ok, f"100 random parks, max |MILP - enumeration| = {worst:.2e} "
                  f"(tol 1e-6), {elapsed:.1f}s")


# -- 3: robustness never loses to the nominal plan under its own beta ------

def _constant_variance_problem(seed):
    rng = np.random.default_rng([seed, 31])
    grid = flat_grid(3, 3, posts=(4,))
    g = build_graph(grid, 4, 4)
    br = np.linspace(0, 4, 5)
    prob = rng.random((9, 5)) * 0.6
    var = np.full((9, 5), float(rng.uniform(0.1, 0.8)))
    return PlanProblem(graph=g, pwl=pwl_from_values(grid, br, prob, var), K=1, beta=0.0)


def test_criterion_3_robustness_dominance():
    t0 = time.time()
    betas = [0.0, 0.25, 0.5, 0.75, 1.0]
    worst_slack = np.inf
    for seed in range(8):
        p = random_nonconvex_problem(seed)
        pwl = p.pwl.extended_to(p.graph.horizon * p.K)
        table, base_plan, plans = improvement_ratio(p, betas, return_plans=True)
        for beta, ratio in table:
            u_base = objective_of_coverage(pwl, p.graph.grid, base_plan.coverage, beta)
            slack = plans[beta].objective - (u_base - 1e-6)
            worst_slack = min(worst_slack, slack)
            assert ratio is None or ratio >= 1.0 - 1e-6
    exact = True
    for seed in range(3):
        for beta, ratio in improvement_ratio(_constant_variance_problem(seed), betas):
            exact = exact and (ratio == 1.0)
    elapsed = time.time() - t0
    ok = worst_slack >= 0 and exact and elapsed < 300
    report(3, ok, f"U_b(C_b) >= U_b(C_0) - 1e-6 on 8 instances x 5 betas "
                  f"(min slack {worst_slack:.2e}); constant-variance ratios exactly 1; "
                  f"{elapsed:.1f}s")


# -- 4: PWL segment count converged by m = 25 ------------------------------

def _gp_scenario():
    grid = synth.generate_park(12, 12, k=5, num_posts=2, seed=0)
    rng = np.random.default_rng([0, 0xEFF])
    eff = synth.patchy_effort_policy(grid, 8, rng, mean_km=2.5, patrolled_fraction=0.8,
                                     accessibility_features=[0, 1], coupling=0.8)
    truth = synth.make_ground_truth(grid, 0, target_rate=0.09, effort_policy=eff,
                                    detect_rate_span=(0.12, 0.45), attack_features=[2, 3, 4])
    ds = synth.sample_dataset(grid, truth, 8, eff, 0)
    train_ds = assemble_dataset(grid, ds.effort[:7], ds.labels[:7])
    ens = train_iware(train_ds, I=4, learner_kind="gp", rng=0, max_points=5000)
    return grid, train_ds, ens


def test_criterion_4_pwl_convergence():
    t0 = time.time()
    grid, train_ds, ens = _gp_scenario()
    T, K = 5, 2
    c_max = max(default_c_max(train_ds), T * K)
    worst = 0.0
    for post in grid.patrol_posts:
        g = build_graph(grid, post, T)
        for beta in (0.0, 1.0):
            objs = {}
            for m in (25, 40):
                pwl = build_pwl(ens, grid, m, c_max, ds=train_ds)
                objs[m] = solve(PlanProblem(graph=g, pwl=pwl, K=K, beta=beta),
                                method="bnb").objective
            worst = max(worst, abs(objs[25] - objs[40]) / abs(objs[40]))
    elapsed = time.time() - t0
    ok = worst <= 0.01 and elapsed < 600
    report(4, ok, f"max |obj(m=25) - obj(m=40)| / obj(m=40) = {worst:.2e} "
                  f"(tol 1e-2) over 2 posts x 2 betas, {elapsed:.1f}s")


# -- 5: threshold ensemble beats its own weak learner --------------------

def _paired_auc_delta_trees(seed):
    b = synth.generate_preset("oneside-noise", seed)
    ds, grid, truth = b.dataset, b.grid, b.truth
    T = ds.num_timesteps
    ids = grid.masked_ids()
    train_ds = assemble_dataset(grid, ds.effort[: T - 1], ds.labels[: T - 1])
    ens = train_iware(train_ds, I=10, learner_kind="trees", rng=seed, num_trees=20)
    Xte = ds.design_matrix[T - 1, ids, :]
    c_star = float(np.median(train_ds.effort[train_ds.effort > 0]))
    g, _ = ens.predict_rows(Xte, c_star)
    Xtr, ytr, _ = _dataset_rows(train_ds)
    base = train_bagged(TrainMatrix(Xtr, ytr), num_trees=20, rng=seed + 1000)
    pb, _ = base.predict_proba(Xte)
    a_iw = np.mean([auc(ScoredSet(g, synth.sample_attacks(truth, 1, seed * 31 + r)[0, ids].astype(bool)))
                    for r in range(3)])
    a_b = np.mean([auc(ScoredSet(pb, synth.sample_attacks(truth, 1, seed * 31 + r)[0, ids].astype(bool)))
                   for r in range(3)])
    return a_iw - a_b


def _paired_auc_delta_gp(seed):
    b = synth.generate_preset("oneside-noise-small", seed)
    ds, grid, truth = b.dataset, b.grid, b.truth
    T = ds.num_timesteps
    ids = grid.masked_ids()
    train_ds = assemble_dataset(grid, ds.effort[: T - 1], ds.labels[: T - 1])
    ens = train_iware(train_ds, I=5, learner_kind="gp", rng=seed, max_points=400)
    Xte = ds.design_matrix[T - 1, ids, :]
    c_star = float(np.median(train_ds.effort[train_ds.effort > 0]))
    g, _ = ens.predict_rows(Xte, c_star)
    Xtr, ytr, _ = _dataset_rows(train_ds)
    base = train_gp(TrainMatrix(Xtr, ytr), max_points=400, rng=seed + 1000)
    pb, _ = base.predict_proba(Xte)
    a_iw = np.mean([auc(ScoredSet(g, synth.sample_attacks(truth, 1, seed * 31 + r)[0, ids].astype(bool)))
                    for r in range(3)])
    a_b = np.mean([auc(ScoredSet(pb, synth.sample_attacks(truth, 1, seed * 31 + r)[0, ids].astype(bool)))
                   for r in range(3)])
    return a_iw - a_b


def _one_sided_t(deltas):
    d = np.asarray(deltas)
    return float(d.mean() / (d.std(ddof=1) / math.sqrt(d.size)))


def test_criterion_5_iware_benefit_trees():
    t0 = time.time()
    deltas = [_paired_auc_delta_trees(seed) for seed in range(20)]
    t_stat = _one_sided_t(deltas)
    elapsed = time.time() - t0
    ok = (np.mean(deltas) > 0 and t_stat >= T_CRIT_95_DF19
          and min(deltas) >= -0.01 and elapsed < 900)
    report(5, ok, f"trees: mean dAUC = {np.mean(deltas):+.4f} over 20 paired seeds "
                  f"(min {min(deltas):+.4f}), t = {t_stat:.2f} (>= {T_CRIT_95_DF19}), "
                  f"{elapsed:.0f}s")


def test_criterion_5_iware_benefit_gp_variant():
    t0 = time.time()
    deltas = [_paired_auc_delta_gp(seed) for seed in range(20)]
    t_stat = _one_sided_t(deltas)
    elapsed = time.time() - t0
    ok = np.mean(deltas) > 0 and t_stat >= T_CRIT_95_DF19 and elapsed < 1800
    report(5, ok, f"GP variant: mean dAUC = {np.mean(deltas):+.4f} over 20 paired seeds, "
                  f"t = {t_stat:.2f} (>= {T_CRIT_95_DF19}), {elapsed:.0f}s")


# -- 6: GP machinery is numerically correct --------------------------------

def test_criterion_6_gp_correctness():
    t0 = time.time()
    rng = np.random.default_rng(0)

    # (a) total-derivative gradients vs central finite differences
    worst_rel = 0.0
    for seed in (0, 1):
        r = np.random.default_rng(seed)
        X = r.normal(size=(30, 3))
        y = (X[:, 0] - 0.4 * X[:, 2] + 0.2 * r.normal(size=30)) > 0
        model = train_gp(TrainMatrix(X, y),
                         lengthscale=1.2, signal_var=0.9, rng=0)
        _, g_ell, g_sv = gp_lml_and_gradient(model)
        h = 1e-5
        fd_ell = (gp_lml_and_gradient(model, lengthscale=model.lengthscale + h)[0]
                  - gp_lml_and_gradient(model, lengthscale=model.lengthscale - h)[0]) / (2 * h)
        fd_sv = (gp_lml_and_gradient(model, signal_var=model.signal_var + h)[0]
                 - gp_lml_and_gradient(model, signal_var=model.signal_var - h)[0]) / (2 * h)
        worst_rel = max(worst_rel,
                        abs(g_ell - fd_ell) / max(abs(fd_ell), 1e-12),
                        abs(g_sv - fd_sv) / max(abs(fd_sv), 1e-12))

    # (b) predictive variance vanishes at training inputs
    X = rng.normal(size=(25, 2))
    y = X[:, 0] > 0
    model = train_gp(TrainMatrix(X, y),
                     lengthscale=1.0, signal_var=1.5, rng=0)
    _, v_train = model.predict_proba(X)
    max_train_var = float(v_train.max())

    # (c) variance monotone under data deletion, brute-force oracle n = 8
    X8 = rng.normal(size=(8, 2))
    y8 = X8[:, 0] > 0
    cfg = dict(lengthscale=1.1, signal_var=1.0)
    queries = rng.normal(size=(15, 2)) * 2
    full = train_gp(TrainMatrix(X8, y8), **cfg, rng=0)
    _, v_full = full.predict_proba(queries)
    monotone = True
    for drop in range(8):
        keep = [i for i in range(8) if i != drop]
        sub = train_gp(TrainMatrix(X8[keep], y8[keep]), **cfg, rng=0)
        _, v_sub = sub.predict_proba(queries)
        monotone = monotone and bool(np.all(v_sub >= v_full - 1e-9))

    elapsed = time.time() - t0
    ok = (worst_rel <= 1e-4 and max_train_var < 1e-3 * model.signal_var
          and monotone and elapsed < 120)
    report(6, ok, f"grad rel err = {worst_rel:.2e} (tol 1e-4); train-input var "
                  f"{max_train_var:.2e} < 1e-3*sv; deletion-monotone = {monotone}; "
                  f"{elapsed:.1f}s")


# -- 7: bagging uncertainty mirrors the prediction, GP uncertainty does not

def test_criterion_7_uncertainty_correlation_contrast():
    t0 = time.time()
    wins = 0
    rows = []
    for seed in range(20):
        b = synth.generate_preset("sws-like", seed)
        ds, grid = b.dataset, b.grid
        T = ds.num_timesteps
        ids = grid.masked_ids()
        train_ds = assemble_dataset(grid, ds.effort[: T - 1], ds.labels[: T - 1])
        Xtr, ytr, _ = _dataset_rows(train_ds)
        Xte = ds.design_matrix[T - 1, ids, :]
        bag = train_bagged(TrainMatrix(Xtr, ytr), num_trees=50, rng=seed,
                           max_depth=12)
        p_bag, _ = bag.predict_proba(Xte)
        v_bag = jackknife_variance_batch(bag, Xte)
        gp = train_gp(TrainMatrix(Xtr, ytr), max_points=1000, rng=seed)
        p_gp, v_gp = gp.predict_proba(Xte)
        c_bag = abs(float(np.corrcoef(p_bag, v_bag)[0, 1]))
        c_gp = abs(float(np.corrcoef(p_gp, v_gp)[0, 1]))
        rows.append((c_bag, c_gp))
        wins += c_bag > c_gp
    elapsed = time.time() - t0
    mean_bag = np.mean([r[0] for r in rows])
    mean_gp = np.mean([r[1] for r in rows])
    ok = wins >= 16 and elapsed < 1200
    report(7, ok, f"|corr| bagging-IJ {mean_bag:.3f} vs GP {mean_gp:.3f}; bagging larger "
                  f"in {wins}/20 seeds (need >= 16), {elapsed:.0f}s")


# -- 8: metric identities against independent oracles ----------------------

def test_criterion_8_metric_identities():
    t0 = time.time()
    rng = np.random.default_rng(3)

    worst_auc = 0.0
    for n in (2, 4, 6, 9, 12):
        scores = np.round(rng.random(n), 1)
        for labels in itertools.product([0, 1], repeat=n):
            if not 0 < sum(labels) < n:
                continue
            got = auc(ScoredSet(scores, labels))
            pos = [s for s, y in zip(scores, labels) if y]
            neg = [s for s, y in zip(scores, labels) if not y]
            want = sum(1.0 if a > b else 0.5 if a == b else 0.0
                       for a in pos for b in neg) / (len(pos) * len(neg))
            worst_auc = max(worst_auc, abs(got - want))

    worst_ll = 0.0
    for _ in range(50):
        scores = rng.random(40)
        labels = rng.random(40) < 0.3
        if not labels.any():
            continue
        ll, _ = ll_score(ScoredSet(scores, labels), threshold=0.5)
        pred = scores >= 0.5
        if pred.sum() == 0:
            worst_ll = max(worst_ll, abs(ll))
            continue
        r = (pred & labels).sum() / labels.sum()
        worst_ll = max(worst_ll, abs(ll - r**2 / pred.mean()))

    worst_len = 0.0
    grid = flat_grid(5, 4)
    for _ in range(20):
        pts = tuple((rng.uniform(0.01, 4.99), rng.uniform(0.01, 3.99), 10.0 * i)
                    for i in range(6))
        eff, _ = reconstruct_effort(grid, [WaypointTrack("p", pts)], [(0.0, 100.0)])
        total = sum(math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(pts, pts[1:]))
        worst_len = max(worst_len, abs(eff.sum() - total))

    elapsed = time.time() - t0
    ok = worst_auc <= 1e-12 and worst_ll <= 1e-12 and worst_len <= 1e-9 and elapsed < 60
    report(8, ok, f"AUC oracle err {worst_auc:.1e} (tol 1e-12); L&L identity err "
                  f"{worst_ll:.1e}; length conservation err {worst_len:.1e} km (tol 1e-9); "
                  f"{elapsed:.1f}s")


# -- 9: the CLI is a pure function of config + seed ------------------------

def test_criterion_9_cli_determinism(tmp_path, monkeypatch):
    t0 = time.time()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ft.csv").write_text(
        "group,obs_cells,patrolled_cells,effort_km\n"
        "High,23,54,269.0\nMedium,12,55,115.3\nLow,3,23,57.7\n")
    (tmp_path / "cells_in.csv").write_text(
        "cell_id,x,y,mask,is_post,f_1\n0,0,0,1,1,0.5\n1,1,0,1,0,0.25\n")
    (tmp_path / "wp.csv").write_text(
        "patrol_id,x_km,y_km,timestamp_iso8601\n"
        "p1,0.25,0.5,2017-01-05T00:00:00\np1,1.75,0.5,2017-01-05T01:00:00\n")
    (tmp_path / "obs.csv").write_text(
        "x_km,y_km,timestamp_iso8601,category\n0.5,0.5,2017-01-06T00:00:00,poaching\n")

    small = ["--simulate.preset=oneside-noise-small", "--seed=11",
             "--ensemble.num_thresholds=3", "--ensemble.num_trees=6",
             "--planner.T=4", "--planner.K=1", "--riskmap.segments=6"]
    commands = [
        ["simulate", *small],
        ["ingest", *small, "--ingest.cells=cells_in.csv", "--ingest.waypoints=wp.csv",
         "--ingest.observations=obs.csv",
         '--ingest.windows=["2017-01-01T00:00:00,2017-04-01T00:00:00"]'],
        ["fieldtest", *small, "--fieldtest.table=ft.csv"],
    ]
    # stateful chain: later commands read artifacts written by earlier ones,
    # so run the full pipeline into each directory
    pipeline = [["simulate", *small], ["train", *small], ["riskmap", *small],
                ["plan", *small], ["plan", "--beta-sweep", *small,
                                   "--planner.beta_grid=[0.0,0.5,1.0]"],
                ["evaluate", *small]]

    def run_all(outdir):
        for cmd in commands:
            assert cli_main([*cmd, f"--output_dir={outdir}_{cmd[0]}"]) == 0
        for cmd in pipeline:
            assert cli_main([*cmd, f"--output_dir={outdir}_pipe"]) == 0

    run_all("a")
    run_all("b")
    identical = True
    compared = 0
    for a_dir in sorted(Path(".").glob("a_*")):
        b_dir = Path("b" + a_dir.name[1:])
        for a_file in sorted(a_dir.iterdir()):
            compared += 1
            if a_file.read_bytes() != (b_dir / a_file.name).read_bytes():
                identical = False
                print(f"  differs: {a_file}")
    elapsed = time.time() - t0
    ok = identical and compared >= 10 and elapsed < 300
    report(9, ok, f"{compared} artifacts byte-identical across two runs of every "
                  f"command, {elapsed:.0f}s")
