"""The plan-long workload: patrol planning at horizon 12 on fixed risk curves.

    python3 bench/planlong.py setup --seed N --out DIR
    python3 bench/planlong.py solve --dir DIR [--trace SPANS.json]

``setup`` writes the park (``cells.csv``) and the per-cell risk curves
(``curves.npz``). The park is the ``oneside-noise`` preset park of seed
PARK_SEED, so the planning graphs have the same size on every seed; the
risk is the preset's true detection curve, attack_prob * (1 - exp(-detect_rate * c)),
and the seed draws the uncertainty nu(c) = nu0 * exp(-c / s) per cell with
nu0 ~ U(0.2, 0.3) and s ~ U(4, 6) km. No trained model is involved.

``solve`` plans at both posts through the public planner API: one robust
plan at BETA and the default beta sweep per post, and writes
``result.json`` with the plans, sweep tables and the times of each phase.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

PRESET = "oneside-noise"
PARK_SEED = 7
T, K, BETA, SEGMENTS = 12, 2, 0.5, 25


def curves(bundle, seed: int):
    """Breakpoints, risk and uncertainty values, shape (n_cells, SEGMENTS+1)."""
    br = np.linspace(0.0, float(T * K), SEGMENTS + 1)
    truth = bundle.truth
    prob = truth.attack_prob[:, None] * -np.expm1(-truth.detect_rate[:, None] * br[None, :])
    rng = np.random.default_rng([seed, 0x9A7])
    n = bundle.grid.n_cells
    nu0 = rng.uniform(0.2, 0.3, n)
    scale = rng.uniform(4.0, 6.0, n)
    var = nu0[:, None] * np.exp(-br[None, :] / scale[:, None])
    return br, prob, var


def traced(spans_path: str | None):
    """A tracer wrapped around patrolkit's public functions, or None."""
    if not spans_path:
        return None
    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    return tracer


def setup(seed: int, out: Path, spans_path: str | None) -> None:
    tracer = traced(spans_path)
    from patrolkit import io, synth

    out.mkdir(parents=True, exist_ok=True)
    try:
        bundle = synth.generate_preset(PRESET, PARK_SEED)
        io.write_cells_csv(out / "cells.csv", bundle.grid)
    finally:
        if tracer:
            tracer.dump(spans_path)
    br, prob, var = curves(bundle, seed)
    np.savez(out / "curves.npz", breakpoints=br, prob=prob, var=var)


def solve(work: Path, spans_path: str | None) -> None:
    tracer = traced(spans_path)
    from patrolkit import io, planner, riskmap
    from patrolkit.config import DEFAULTS

    try:
        grid = io.read_cells_csv(work / "cells.csv")
        data = np.load(work / "curves.npz")
        pwl = riskmap.PwlRiskModel(grid=grid, breakpoints=data["breakpoints"],
                                   prob_values=data["prob"], var_values=data["var"])
        betas = [float(b) for b in DEFAULTS["planner"]["beta_grid"]]

        def plan_all():
            t0 = time.perf_counter()
            plans = {}
            for post in grid.patrol_posts:
                graph = planner.build_graph(grid, post, T)
                problem = planner.PlanProblem(graph=graph, pwl=pwl, K=K, beta=BETA)
                plans[post] = (problem, planner.solve(problem, method="bnb"))
                plans[post][1].validate()
            return time.perf_counter() - t0, plans

        # the plans are made before and after the sweeps, so that plan_s
        # samples more than one phase of the machine's speed
        first_s, plans = plan_all()
        sweeps, sweep_s = {}, 0.0
        for post, (problem, _) in plans.items():
            t0 = time.perf_counter()
            sweeps[post] = planner.improvement_ratio(problem, betas, method="bnb", return_plans=True)
            sweep_s += time.perf_counter() - t0
        second_s, again = plan_all()
        result = {"T": T, "K": K, "beta": BETA, "plan_s": (first_s + second_s) / 2,
                  "sweep_s": sweep_s, "posts": {}}
        for post, (_, plan) in plans.items():
            table, _, sweep_plans = sweeps[post]
            result["posts"][str(post)] = {
                "plan": plan.to_dict(),
                "plan_again": again[post][1].to_dict(),
                "sweep": [[b, r] for b, r in table],
                "sweep_plans": [sweep_plans[b].to_dict() for b, _ in table],
            }
    finally:
        if tracer:
            tracer.dump(spans_path)
    (work / "result.json").write_text(json.dumps(result, sort_keys=True))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("command", choices=["setup", "solve"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--dir", type=Path)
    ap.add_argument("--trace", default=None)
    args = ap.parse_args()
    if args.command == "setup":
        setup(args.seed, args.out, args.trace)
    else:
        solve(args.dir, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
