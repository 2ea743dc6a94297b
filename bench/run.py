"""patrolkit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; patrolkit is imported from its
``src/``. Workloads (see README.md):

  trees-oneside  CLI chain on preset oneside-noise, default tree ensemble
  gp-oneside     the same chain with the Laplace-GP learner
  plan-long      planner API at horizon 12 on risk curves built from the
                 preset's ground truth, no training

Set-up (``simulate``, or the plan-long input writer) runs SETUP_REPEATS
times and reports its median. Then whole rounds of the workload's stages
run, one process at a time, until ``--seconds`` have passed (at least one
round); stage times are medians over rounds. The outputs are then checked
with the independent checks in ``checks.py``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-module metrics of a traced
run (``--trace 1``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
STAGE_TIMEOUT = 170
PRESET = "oneside-noise"
# The trained workloads plan on the model trained from the reference run
# (simulate and train at seed 7). Planner cost on a tree model swings from
# 15 to 707 LP calls with the training seed alone, so seeding the data or
# the model would put that swing into every plan and sweep figure.
REFERENCE_SEED = 7
CLI_STAGES = ("train", "riskmap", "plan", "sweep", "evaluate")
# the CLI workloads pin every setting they depend on, so a change of
# defaults does not change the workload
PLAN_T, PLAN_K, PLAN_BETA = 6, 2, 0.5
PINNED = {
    "train": ["--ensemble.num_thresholds=10", "--ensemble.folds=5", "--ensemble.num_trees=25"],
    "plan": [f"--planner.T={PLAN_T}", f"--planner.K={PLAN_K}", f"--planner.beta={PLAN_BETA}"],
}
LEARNERS = {"trees-oneside": "trees", "gp-oneside": "gp", "plan-long": None}


def stage_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")
    return env


def run_process(argv: list[str]) -> tuple[float, bool, str]:
    """(wall seconds, succeeded, stderr tail) of one child process."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=stage_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=STAGE_TIMEOUT)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, False, "timed out"
    return time.perf_counter() - t0, proc.returncode == 0, proc.stderr[-2000:]


# -- CLI workloads -------------------------------------------------------------

def cli_argv(stage: str, out: Path, learner: str, spans: Path | None,
             post: int | None = None) -> list[str]:
    command = "plan" if stage == "sweep" else stage
    args = [command, f"--output_dir={out}"]
    if stage == "simulate":
        args += [f"--simulate.preset={PRESET}", f"--seed={REFERENCE_SEED}"]
    elif stage == "train":
        args += [f"--seed={REFERENCE_SEED}", f"--ensemble.learner={learner}"] + PINNED["train"]
    elif stage in ("plan", "sweep"):
        args += PINNED["plan"] + [f"--planner.post={post}"]
        args += ["--beta-sweep"] if stage == "sweep" else []
    if spans is None:
        return [sys.executable, "-m", "patrolkit.cli", *args]
    return [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *args]


KEEP = {"train": "metrics.json", "plan": "plan.json", "sweep": "beta_sweep.csv"}


def name_kept(stage: str, post: int | None) -> str:
    stem, ext = KEEP[stage].split(".")
    return f"{stem}-{'train' if post is None else post}.{ext}"


def cli_round(rd: Path, inputs: Path, learner: str, trace: bool, log):
    """Run the chain once, planning at every patrol post; the planning
    stages of the posts are spread over the round, so that their sum
    samples more than one phase of the machine's speed. Returns (seconds
    per stage, processes run, failed)."""
    rd.mkdir()
    for name in ("cells.csv", "dataset.csv"):
        shutil.copy(inputs / name, rd / name)
    posts = checks.read_park(rd / "cells.csv").posts
    order = [("train", None)]
    for i, post in enumerate(posts):
        order += [("plan", post), ("sweep", post)] + ([("riskmap", None)] if i == 0 else [])
    order.append(("evaluate", None))
    times = dict.fromkeys(CLI_STAGES, 0.0)
    failed = 0
    for stage, post in order:
        name = stage if post is None else f"{stage}-{post}"
        spans = rd / f"spans-{name}.json" if trace else None
        wall, ok, err = run_process(cli_argv(stage, rd, learner, spans, post))
        times[stage] += wall
        if not ok:
            failed += 1
            log(f"stage {name} failed: {err}")
        elif stage in KEEP:
            # later stages overwrite this file; keep each one for the checks
            shutil.copy(rd / KEEP[stage], rd / name_kept(stage, post))
    return times, len(order), failed


def cli_checks(rd: Path, seed: int) -> list[str]:
    from patrolkit import iware, riskmap
    from patrolkit.config import DEFAULTS
    from patrolkit.grid import assemble_dataset
    from patrolkit.io import read_cells_csv

    park = checks.read_park(rd / "cells.csv")
    effort, labels, design = checks.read_dataset(rd / "dataset.csv", park.n_cells)
    ens = iware.IWareEnsemble.from_dict(json.loads((rd / "model.json").read_text()))
    ids = np.flatnonzero(park.mask)
    rng = np.random.default_rng([seed, 0xC4EC])
    errors = []

    def single_row(features, effort_km):
        p, v = iware.predict_effort_conditioned(
            ens, iware.RiskQuery(features=features, hypothetical_effort=float(effort_km)))
        return p, float(iware.squash_uncertainty(v, ens.squash_scale))

    # holdout AUC: the last window, scored one row at a time
    t_last = effort.shape[0] - 1
    scores = [single_row(design[t_last, c], effort[t_last, c])[0] for c in ids]
    for name in ("metrics-train.json", "metrics.json"):
        report = json.loads((rd / name).read_text())
        errors += [f"{name}: {e}" for e in checks.check_auc(
            report, {t_last: scores}, {t_last: labels[t_last, ids]})]

    # risk map: ranges everywhere, single-row agreement on a sample of cells
    query = np.concatenate([park.features, effort[t_last][:, None]], axis=1)
    levels = [float(v) for v in DEFAULTS["riskmap"]["levels"]]
    sample = rng.choice(ids, size=16, replace=False)
    reference = {(int(c), lv): single_row(query[c], lv) for c in sample for lv in levels}
    rows = []
    for line in (rd / "riskmap.csv").read_text().splitlines()[1:]:
        c, lv, p, v = line.split(",")
        rows.append((int(c), float(lv), float(p), float(v)))
    errors += checks.check_riskmap(rows, park, levels, reference)
    errors += checks.check_blocks(json.loads((rd / "blocks.json").read_text()), park)

    # the plans' risk curves, from the program, spot-checked one row at a time
    T, K = PLAN_T, PLAN_K
    grid = read_cells_csv(rd / "cells.csv")
    ds = assemble_dataset(grid, effort, labels.astype(np.int8))
    c_max = max(riskmap.default_c_max(ds), float(T * K))
    pwl = riskmap.build_pwl(ens, grid, int(DEFAULTS["riskmap"]["segments"]), c_max, ds=ds)
    for c in sample[:4]:
        for j in (0, pwl.breakpoints.size // 2, pwl.breakpoints.size - 1):
            p, v = single_row(query[c], pwl.breakpoints[j])
            if abs(p - pwl.prob_values[c, j]) > 1e-9 or abs(v - pwl.var_values[c, j]) > 1e-9:
                errors.append(f"risk curve of cell {c} at {pwl.breakpoints[j]} km disagrees "
                              "with single-row prediction")
    for post in park.posts:
        plan = json.loads((rd / f"plan-{post}.json").read_text())
        ref = checks.highs_optimum(park, post, T, K, pwl.prob_values, pwl.var_values,
                                   pwl.breakpoints, plan["beta"])
        if ref is None:
            errors.append(f"plan at {post}: HiGHS proved no optimum")
        errors += [f"plan at {post}: {e}" for e in checks.check_plan(
            plan, park, pwl.prob_values, pwl.var_values, pwl.breakpoints, rng, reference=ref)]
        table = []
        for line in (rd / f"beta_sweep-{post}.csv").read_text().splitlines()[1:]:
            beta, ratio = line.split(",")
            table.append((float(beta), float(ratio) if ratio else None))
        errors += [f"sweep at {post}: {e}" for e in checks.check_sweep(table)]
    return errors


def cli_artifacts(rd: Path) -> list[str]:
    return ["model.json", "metrics-train.json", "metrics.json", "riskmap.csv", "blocks.json"] + \
        sorted(p.name for p in rd.glob("plan-*.json")) + sorted(p.name for p in rd.glob("beta_sweep-*.csv"))


# -- plan-long -----------------------------------------------------------------

def planlong_round(rd: Path, inputs: Path, trace: bool, log):
    """One solve process: (seconds per phase, operations run, failed)."""
    shutil.copytree(inputs, rd)
    argv = [sys.executable, str(BENCH / "planlong.py"), "solve", "--dir", str(rd)]
    if trace:
        argv += ["--trace", str(rd / "spans-solve.json")]
    wall, ok, err = run_process(argv)
    if not ok:
        log(f"plan-long solve failed: {err}")
        return {"total": wall}, 2, 2
    result = json.loads((rd / "result.json").read_text())
    return {"plan": result["plan_s"], "sweep": result["sweep_s"], "total": wall}, 2, 0


def planlong_checks(rd: Path, seed: int) -> list[str]:
    park = checks.read_park(rd / "cells.csv")
    data = np.load(rd / "curves.npz")
    prob, var, br = data["prob"], data["var"], data["breakpoints"]
    result = json.loads((rd / "result.json").read_text())
    rng = np.random.default_rng([seed, 0xC4EC])
    errors = []
    if sorted(int(p) for p in result["posts"]) != list(park.posts):
        errors.append("plans do not cover every patrol post")
    for post, entry in result["posts"].items():
        plan = entry["plan"]
        if entry["plan_again"] != plan:
            errors.append(f"post {post}: the same problem solved twice gave two plans")
        # HiGHS takes about 0.7 s at this size, so it checks the robust plans only
        ref = checks.highs_optimum(park, plan["post"], plan["horizon"], plan["K"],
                                   prob, var, br, plan["beta"])
        if ref is None:
            errors.append(f"post {post}: HiGHS proved no optimum")
        errors += [f"post {post}: {e}" for e in checks.check_plan(
            plan, park, prob, var, br, rng, reference=ref)]
        for swept in entry["sweep_plans"]:
            errors += [f"post {post} beta {swept['beta']}: {e}"
                       for e in checks.check_plan(swept, park, prob, var, br, rng)]
        errors += [f"post {post}: {e}" for e in checks.check_sweep(entry["sweep"])]
    return errors


# -- one run -------------------------------------------------------------------

def digest(path: Path, drop_times: bool = False) -> str:
    data = path.read_bytes()
    if drop_times:
        doc = json.loads(data)
        doc.pop("plan_s"), doc.pop("sweep_s")
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(LEARNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "patrolkit" / "cli.py").is_file():
        print(f"error: no patrolkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    learner = LEARNERS[args.workload]
    cli = learner is not None

    def log(msg):
        print(f"[{args.workload} seed {args.seed}] {msg}", file=sys.stderr, flush=True)

    work = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{'traced' if trace else 'plain'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    attempted = failed = 0
    errors: list[str] = []
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            out = work / f"setup{i}"
            # a traced run traces the first set-up only
            spans = work / "spans-setup.json" if trace and i == 0 else None
            if cli:
                argv = cli_argv("simulate", out, learner, spans)
            else:
                argv = [sys.executable, str(BENCH / "planlong.py"), "setup",
                        "--seed", str(args.seed), "--out", str(out)]
                if spans:
                    argv += ["--trace", str(spans)]
            wall, ok, err = run_process(argv)
            if not ok:
                print(f"error: set-up failed: {err}", file=sys.stderr)
                return 1
            setup_times.append(wall)
        inputs = work / "setup0"
        for i in range(1, SETUP_REPEATS):
            for f in sorted(inputs.iterdir()):
                if f.read_bytes() != (work / f"setup{i}" / f.name).read_bytes():
                    errors.append(f"set-up is not deterministic: {f.name} differs")

        rounds = []
        deadline = time.perf_counter() + args.seconds
        while not rounds or time.perf_counter() < deadline:
            rd = work / f"round{len(rounds)}"
            if cli:
                times, ran, bad = cli_round(rd, inputs, learner, trace, log)
                times["total"] = sum(times.values())
            else:
                times, ran, bad = planlong_round(rd, inputs, trace, log)
            attempted += ran
            failed += bad
            rounds.append((rd, times))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

        first = rounds[0][0]
        if not failed:
            errors += (cli_checks if cli else planlong_checks)(first, args.seed)
            names = cli_artifacts(first) if cli else ["result.json"]
            for rd, _ in rounds[1:]:
                for name in names:
                    if digest(rd / name, not cli) != digest(first / name, not cli):
                        errors.append(f"{rd.name}/{name} differs from round 0")
        for e in errors:
            log(f"check failed: {e}")

        def median(stage):
            return statistics.median(t[stage] for _, t in rounds if stage in t)

        stages = CLI_STAGES if cli else ("plan", "sweep")
        print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), "
              f"set-up {statistics.median(setup_times):.3f} s")
        for stage in stages:
            print(f"  {stage + '_s':12s} {median(stage):10.3f} s")
        if cli:
            model_bytes = (first / "model.json").stat().st_size
            print(f"  {'model_bytes':12s} {model_bytes:10d} bytes")
        print(f"  {'total_s':12s} {median('total'):10.3f} s")
        print(f"  {'peak_rss_mb':12s} {peak_rss_mb:10.1f} MB")

        if trace:
            import tracing

            spans = [json.loads(p.read_text()) for rd, _ in rounds
                     for p in sorted(rd.glob("spans-*.json"))]
            # per-round figures: set-up ran once, so it counts once per round
            setup_spans = json.loads((work / "spans-setup.json").read_text())
            spans += [setup_spans] * len(rounds)
            metrics = tracing.layer_metrics(spans, len(rounds))
            for stage in ("train", "riskmap", "evaluate"):
                metrics[f"stage.{stage}_s"] = (median(stage) if cli else 0.0, "s")
            metrics["stage.model_bytes"] = (float(model_bytes) if cli else 0.0, "bytes")
            metrics["bench.traced_total_s"] = (median("total"), "s")
            merged = [[s + [i] for s in proc] for i, proc in enumerate(spans)]
            (ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json").write_text(
                json.dumps(merged))
        else:
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "plan_s": (median("plan"), "s"),
                "sweep_s": (median("sweep"), "s"),
                "total_s": (median("total"), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
