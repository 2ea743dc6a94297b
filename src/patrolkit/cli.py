"""Command-line pipeline orchestration.

Subcommands: simulate | ingest | train | riskmap | plan | evaluate |
fieldtest. Every command reads one configuration file (--config) plus
--section.key=value overrides, and is a pure function of the config, the
input files, and the seed: re-running writes byte-identical artifacts.

Exit codes: 0 success, 2 configuration or input error, 3 infeasible plan.

Only ``plan`` imports ``patrolkit.planner``, which loads scipy's HiGHS
extension (and nothing else of scipy), so the other commands start
without it.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import io, synth
from .config import ConfigError, load_config
from .grid import assemble_dataset, reconstruct_effort, build_labels
from .iware import LEARNER_OPTIONS, IWareEnsemble, IwareError, train_iware
from .metrics import FieldTestTable, ScoredSet, auc, chi_squared_field_test, ll_score, obs_per_cell, pr_metrics
from .riskmap import RiskMap, build_pwl, default_c_max, select_field_test_blocks, sweep_riskmap


def _outdir(cfg) -> Path:
    # Create the leaf directory only; a missing parent is a config error.
    out = Path(cfg["output_dir"])
    out.mkdir(exist_ok=True)
    return out


def cmd_simulate(cfg) -> int:
    out = _outdir(cfg)
    bundle = synth.generate_preset(cfg["simulate"]["preset"], int(cfg["seed"]))
    io.write_cells_csv(out / "cells.csv", bundle.grid)
    io.write_dataset_csv(out / "dataset.csv", bundle.dataset)
    io.write_json(out / "truth.json", bundle.truth.to_dict())
    print(f"simulate: {bundle.name} -> {out}/cells.csv, dataset.csv, truth.json "
          f"({bundle.dataset.labels.mean() * 100:.3f}% positive)")
    return 0


def _parse_windows(specs) -> list[tuple[float, float]]:
    windows = []
    for item in specs:
        start, _, end = str(item).partition(",")
        if not end:
            raise ConfigError(f"window {item!r} must be 'start_iso,end_iso'")
        windows.append((io.parse_timestamp(start), io.parse_timestamp(end)))
    return windows


def cmd_ingest(cfg) -> int:
    out = _outdir(cfg)
    ing = cfg["ingest"]
    windows = _parse_windows(ing["windows"])
    if not windows:
        raise ConfigError("ingest.windows is required")
    grid = io.read_cells_csv(ing["cells"], cell_size_km=float(ing["cell_size_km"]))
    tracks = io.read_waypoints_csv(ing["waypoints"])
    log = io.read_observations_csv(ing["observations"])
    effort, skipped_wp = reconstruct_effort(grid, tracks, windows)
    labels, skipped_obs = build_labels(grid, log, windows)
    ds = assemble_dataset(grid, effort, labels)
    io.write_dataset_csv(out / "dataset.csv", ds)
    print(f"ingest: {ds.num_timesteps} windows x {grid.n_cells} cells -> {out}/dataset.csv")
    print(f"ingest: skipped {skipped_wp} out-of-grid waypoints, "
          f"{skipped_obs} out-of-window records, coerced {ds.coerced_label_count} labels")
    return 0


def _load_grid_dataset(cfg):
    out = Path(cfg["output_dir"])
    cells = cfg["train"]["cells"] or out / "cells.csv"
    dataset = cfg["train"]["dataset"] or out / "dataset.csv"
    grid = io.read_cells_csv(cells)
    ds = io.read_dataset_csv(dataset, grid)
    return grid, ds


def _split_holdout(ds, holdout: int):
    T = ds.num_timesteps
    if T < 2:
        raise ConfigError("dataset needs at least 2 time windows to hold one out")
    if not 1 <= holdout < T:
        raise ConfigError(f"holdout_windows must be in [1, {T - 1}]")
    train_ds = assemble_dataset(ds.grid, ds.effort[: T - holdout], ds.labels[: T - holdout])
    return train_ds, list(range(T - holdout, T))


def _ensemble_options(cfg) -> dict:
    """The chosen learner's settings that the ensemble section sets: each
    key named like one of its options (GP keys with a ``gp_`` prefix) whose
    value is not null, passed on as given. The learner defaults and checks
    the rest."""
    ens = cfg["ensemble"]
    prefix = "gp_" if ens["learner"] == "gp" else ""
    return {name: ens[prefix + name] for name in LEARNER_OPTIONS.get(ens["learner"], ())
            if ens.get(prefix + name) is not None}


def _metrics_threshold(cfg) -> float:
    """``metrics.threshold``, checked before a command writes anything."""
    threshold = float(cfg["metrics"]["threshold"])
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"metrics.threshold must be in [0, 1], got {threshold}")
    return threshold


def _holdout_metrics(ens, ds, test_windows, threshold: float) -> dict:
    ids = ds.grid.masked_ids()
    per_window = {}
    for t in test_windows:
        yte = ds.labels[t, ids].astype(bool)
        scores, _ = ens.predict_rows(ds.rows(t), ds.effort[t, ids])
        entry: dict = {"rows": int(ids.size), "positives": int(yte.sum())}
        if 0 < yte.sum() < yte.size:
            s = ScoredSet(scores, yte)
            entry["auc"] = auc(s)
            entry.update(pr_metrics(s, threshold))
            ll, llp = ll_score(s, threshold)
            entry["ll"] = ll
            entry["ll_pct"] = llp
        per_window[str(t)] = entry
    return per_window


def cmd_train(cfg) -> int:
    threshold = _metrics_threshold(cfg)
    out = _outdir(cfg)
    grid, ds = _load_grid_dataset(cfg)
    train_ds, test_windows = _split_holdout(ds, int(cfg["train"]["holdout_windows"]))
    ens = train_iware(
        train_ds,
        I=int(cfg["ensemble"]["num_thresholds"]),
        learner_kind=cfg["ensemble"]["learner"],
        rng=int(cfg["seed"]),
        **_ensemble_options(cfg),
    )
    # riskmap and plan query these rows; they reuse what every learner gives there
    ens.keep_query_outputs(ds.rows(ds.num_timesteps))
    io.write_json(out / "model.json", ens.to_dict(), indent=None)
    report = {
        "learner": ens.learner_kind,
        "thresholds": [float(t) for t in ens.thresholds.thresholds],
        "weights": [float(w) for w in ens.weights],
        "squash_scale": ens.squash_scale,
        "test_windows": _holdout_metrics(ens, ds, test_windows, threshold),
    }
    io.write_json(out / "metrics.json", report)
    print(f"train: {len(ens.learners)} learners -> {out}/model.json, metrics.json")
    return 0


def cmd_evaluate(cfg) -> int:
    threshold = _metrics_threshold(cfg)
    out = _outdir(cfg)
    grid, ds = _load_grid_dataset(cfg)
    ens = IWareEnsemble.from_dict(io.read_json(out / "model.json"))
    _, test_windows = _split_holdout(ds, int(cfg["train"]["holdout_windows"]))
    report = {
        "test_windows": _holdout_metrics(ens, ds, test_windows, threshold),
    }
    io.write_json(out / "metrics.json", report)
    print(f"evaluate: windows {test_windows} -> {out}/metrics.json")
    return 0


def _nominal_effort(cfg, ds) -> float:
    nominal = float(cfg["riskmap"]["nominal_effort"])
    if not (math.isfinite(nominal) and nominal >= 0):
        raise ConfigError(f"riskmap.nominal_effort must be finite and >= 0, got {nominal}")
    if nominal > 0:
        return nominal
    eff = ds.positive_efforts()
    return float(np.median(eff)) if eff.size else 1.0


def cmd_riskmap(cfg) -> int:
    block_size, per_band = int(cfg["riskmap"]["block_size"]), int(cfg["riskmap"]["blocks_per_band"])
    if block_size < 1 or per_band < 1:
        raise ConfigError("riskmap.block_size and riskmap.blocks_per_band must be >= 1, "
                          f"got {block_size} and {per_band}")
    out = _outdir(cfg)
    grid, ds = _load_grid_dataset(cfg)
    ens = IWareEnsemble.from_dict(io.read_json(out / "model.json"))
    levels = [float(v) for v in cfg["riskmap"]["levels"]]
    nominal = _nominal_effort(cfg, ds)
    # one sweep, so one set of member outputs, serves the levels and the nominal effort
    swept = sorted({*levels, nominal})
    full = sweep_riskmap(ens, grid, ds, swept)
    rows = [swept.index(c) for c in levels]
    rm = RiskMap(grid=grid, effort_levels=levels, prob=full.prob[rows], var=full.var[rows])
    io.write_riskmap_csv(out / "riskmap.csv", rm)

    risk = np.where(grid.mask, np.nan_to_num(full.prob[swept.index(nominal)], nan=0.0), 0.0)
    try:
        blocks = select_field_test_blocks(grid, risk, ds.effort.sum(axis=0),
                                          block_size=block_size, per_band=per_band)
        io.write_json(out / "blocks.json", {"nominal_effort": nominal, **blocks.to_dict()})
        extra = ", blocks.json"
    except IwareError:
        # no selection: a blocks.json of an earlier run must not sit beside this riskmap.csv
        (out / "blocks.json").unlink(missing_ok=True)
        extra = ""
    print(f"riskmap: {len(levels)} levels -> {out}/riskmap.csv{extra}")
    return 0


def cmd_plan(cfg, beta_sweep: bool = False) -> int:
    from .planner import PlanInfeasibleError

    try:
        return _plan(cfg, beta_sweep)
    except PlanInfeasibleError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


def _plan(cfg, beta_sweep: bool) -> int:
    from .planner import PlanProblem, build_graph, improvement_ratio, solve

    out = _outdir(cfg)
    grid, ds = _load_grid_dataset(cfg)
    ens = IWareEnsemble.from_dict(io.read_json(out / "model.json"))
    pcfg = cfg["planner"]
    post = int(pcfg["post"])
    if post < 0:
        if not grid.patrol_posts:
            raise ConfigError("grid has no patrol posts")
        post = grid.patrol_posts[0]
    T, K = int(pcfg["T"]), int(pcfg["K"])
    c_max = float(cfg["riskmap"]["c_max"]) or max(default_c_max(ds), float(T * K))
    pwl = build_pwl(ens, grid, int(cfg["riskmap"]["segments"]), c_max, ds=ds)
    graph = build_graph(grid, post, T)
    problem = PlanProblem(graph=graph, pwl=pwl, K=K, beta=float(pcfg["beta"]))

    if beta_sweep:
        table = improvement_ratio(problem, [float(b) for b in pcfg["beta_grid"]])
        with open(out / "beta_sweep.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["beta", "ratio"])
            for beta, ratio in table:
                w.writerow([repr(beta), "" if ratio is None else repr(ratio)])
        print(f"plan: beta sweep {[b for b, _ in table]} -> {out}/beta_sweep.csv")
        return 0

    plan = solve(problem)
    plan.validate()
    io.write_json(out / "plan.json", plan.to_dict())
    print(f"plan: post={post} T={T} K={K} beta={problem.beta} "
          f"objective={plan.objective:.6f} ({plan.solver}) -> {out}/plan.json")
    return 0


def __getattr__(name):
    # the planner's entry points stay attributes of this module, where
    # bench/tracing.py wraps them, without loading the planner with it
    if name in ("build_graph", "improvement_ratio", "solve"):
        from . import planner
        return getattr(planner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cmd_fieldtest(cfg) -> int:
    out = _outdir(cfg)
    rows = io.read_fieldtest_csv(cfg["fieldtest"]["table"])
    table = FieldTestTable.from_counts(rows)
    stat, dof, p = chi_squared_field_test(table)
    report = {
        "chi_squared": stat,
        "dof": dof,
        "p_value": p,
        "obs_per_cell": obs_per_cell(table),
    }
    io.write_json(out / "fieldtest_report.json", report)
    print(f"fieldtest: chi2={stat:.4f} dof={dof} p={p:.6g} -> {out}/fieldtest_report.json")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "ingest": cmd_ingest,
    "train": cmd_train,
    "riskmap": cmd_riskmap,
    "plan": cmd_plan,
    "evaluate": cmd_evaluate,
    "fieldtest": cmd_fieldtest,
}

# every module's error class is a ValueError
_INPUT_ERRORS = (OSError, ValueError)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="patrolkit",
        description="Poaching-risk prediction and robust patrol planning pipeline.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="configuration file")
    parser.add_argument("--beta-sweep", action="store_true",
                        help="plan: emit the improvement-ratio table instead of one plan")
    args, overrides = parser.parse_known_args(argv)
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "plan":
            return cmd_plan(cfg, beta_sweep=args.beta_sweep)
        return _COMMANDS[args.command](cfg)
    except _INPUT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
