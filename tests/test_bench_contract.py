"""The benchmark's hooks keep working against the current API.

``bench/tracing.py`` wraps patrolkit functions by name, and ``bench/run.py``
checks outputs through a handful of public names. Both break silently on
an API change (a traced run would fail only when the benchmark is run), so
this test installs the tracer in a fresh process and exercises those names
on a small park, with a tree and a GP ensemble, and makes the planner calls
of ``bench/planlong.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import numpy as np
from tracing import Tracer, install, layer_metrics

tracer = Tracer()
install(tracer)  # every target must resolve where the tracer looks for it

import patrolkit.cli
from patrolkit import iware, riskmap, synth

bundle = synth.generate_preset("oneside-noise-small", 0)
grid, ds = bundle.grid, bundle.dataset
ens = patrolkit.cli.train_iware(ds, I=2, learner_kind="trees", rng=0, num_trees=3)

# the names bench/run.py scores single rows and risk curves with
cell = int(grid.masked_ids()[0])
features = np.append(grid.features[cell], ds.effort[-1, cell])
p, v = iware.predict_effort_conditioned(
    ens, iware.RiskQuery(features=features, hypothetical_effort=1.0))
nu = float(iware.squash_uncertainty(v, ens.squash_scale))
c_max = riskmap.default_c_max(ds)
pwl = riskmap.build_pwl(ens, grid, 4, c_max, ds=ds)
assert 0.0 < p < 1.0 and 0.0 <= nu < 1.0
assert pwl.prob_values.shape == (grid.n_cells, 5)

m = layer_metrics([tracer.spans], 1)
# 2 bagged fits of 3 trees in total: the trees' held-out votes are out of
# bag, so every fit comes before the weight fit
assert m["learners.tree_fits"][0] == 2 * 3 and m["iware.cv_s"][0] > 0, m
assert m["iware.member_outputs_calls"][0] >= 3, m

# the planner calls bench/planlong.py makes, on curves built like its own
from patrolkit import planner
curves = riskmap.PwlRiskModel(grid=grid, breakpoints=pwl.breakpoints,
                              prob_values=pwl.prob_values, var_values=pwl.var_values)
graph = planner.build_graph(grid, grid.patrol_posts[0], 4)
problem = planner.PlanProblem(graph=graph, pwl=curves, K=1, beta=0.5)
plan = planner.solve(problem, method="bnb")
plan.validate()
assert plan.to_dict()["solver"] == "bnb"
table, _, plans = planner.improvement_ratio(problem, [0.0, 0.5], method="bnb",
                                            return_plans=True)
assert [b for b, _ in table] == [0.0, 0.5] and sorted(plans) == [0.0, 0.5]
m = layer_metrics([tracer.spans], 1)
assert m["planner.lp_calls"][0] > 0 and m["planner.solves"][0] >= 1, m
assert m["planner.lp_rows"][0] > 0, m

# the GP hooks: fits inside train_iware, loads inside IWareEnsemble.from_dict
gp = patrolkit.cli.train_iware(ds, I=2, learner_kind="gp", rng=0, max_points=40)
iware.IWareEnsemble.from_dict(gp.to_dict())
m = layer_metrics([tracer.spans], 1)
assert m["learners.gp_fits"][0] == 2, m  # one fit per threshold
assert m["learners.gp_loads"][0] >= 2, m

# a nonconvex instance whose branch and bound branches: its child node LPs
# go through the traced name too, each over the full core system
rng = np.random.default_rng(0)
br = np.linspace(0.0, 4.0, 5)
rough = riskmap.PwlRiskModel(grid=grid, breakpoints=br,
                             prob_values=rng.random((grid.n_cells, 5)) * 0.5,
                             var_values=rng.random((grid.n_cells, 5)) * 0.8)
graph = planner.build_graph(grid, grid.patrol_posts[0], 4)
problem = planner.PlanProblem(graph=graph, pwl=rough, K=1, beta=0.5)
tracer.spans.clear()
planner.solve(problem, method="bnb")
m = layer_metrics([tracer.spans], 1)
core = planner.assemble_milp(problem).core_A_eq.shape
assert m["planner.lp_calls"][0] > m["planner.solves"][0] == 1, m
assert m["planner.lp_cols"][0] == core[1], (m, core)
assert all(s[4] == list(core) for s in tracer.spans if s[0] == "planner.lp"), core
print("ok")
"""


def test_tracer_installs_and_bench_names_resolve():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    out = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-3000:]
    assert out.stdout.strip().endswith("ok")
