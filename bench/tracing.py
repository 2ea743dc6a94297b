"""Spans around patrolkit's public functions, recorded from outside the program.

``install(tracer)`` replaces each traced function at the name its callers
look it up by (``patrolkit.cli.train_iware``, ``patrolkit.planner.milp.solve_lp``,
class attributes for methods) with a wrapper that appends one span
``[name, start, end, parent, info]`` to ``tracer.spans``. Spans stay in
memory until the process writes them out with ``Tracer.dump``.

``layer_metrics`` turns the spans of one or more processes into the
per-module numbers the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, fn, name, info=None):
        """``name`` is a span name or a function of the call's arguments;
        ``info(args, kwargs, result)`` stores extra numbers on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if info is not None:
                rec[4] = info(args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.spans))


def _file_kind(prefix: str, kind: str):
    """Span name by file: model.json apart from the other JSON files."""
    def name(args):
        return f"io.model_{kind}" if Path(args[0]).name == "model.json" else f"io.{prefix}"
    return name


def _rows(args, kwargs, result):
    return [int(np.atleast_2d(np.asarray(args[1])).shape[0])]


def _graph_size(args, kwargs, result):
    return [result.num_nodes, result.num_edges]


def _lp_shape(args, kwargs, result):
    a_eq = args[3] if len(args) > 3 else kwargs.get("A_eq")
    return list(a_eq.shape)


# (module, attribute or "Class.method", span name, info)
TARGETS = [
    ("patrolkit.io", "write_json", _file_kind("json_write", "write"), None),
    ("patrolkit.io", "read_json", _file_kind("json_read", "read"), None),
    ("patrolkit.io", "read_cells_csv", "io.dataset_read", None),
    ("patrolkit.io", "read_dataset_csv", "io.dataset_read", None),
    ("patrolkit.io", "write_cells_csv", "io.csv_write", None),
    ("patrolkit.io", "write_dataset_csv", "io.csv_write", None),
    ("patrolkit.io", "write_riskmap_csv", "io.csv_write", None),
    ("patrolkit.synth", "generate_preset", "synth.generate", None),
    ("patrolkit.cli", "assemble_dataset", "grid.assemble", None),
    ("patrolkit.io", "assemble_dataset", "grid.assemble", None),
    ("patrolkit.synth", "assemble_dataset", "grid.assemble", None),
    ("patrolkit.learners", "train_tree", "learners.tree_fit", None),
    ("patrolkit.iware", "train_bagged", "learners.bagged_fit", None),
    ("patrolkit.learners", "BaggedClassifier.tree_votes", "learners.tree_votes", _rows),
    ("patrolkit.iware", "train_gp", "learners.gp_fit", None),
    ("patrolkit.learners", "GpClassifier.from_dict", "learners.gp_load", None),
    ("patrolkit.learners", "GpClassifier.predict_proba", "learners.gp_predict", None),
    ("patrolkit.learners", "jackknife_variance_batch", "learners.ij", None),
    ("patrolkit.cli", "train_iware", "iware.train", None),
    ("patrolkit.iware", "optimize_weights_from_probs", "iware.weights", None),
    ("patrolkit.iware", "IWareEnsemble.member_outputs", "iware.member_outputs", _rows),
    ("patrolkit.iware", "IWareEnsemble.combine_at_effort", "iware.combine", None),
    ("patrolkit.iware", "IWareEnsemble.from_dict", "iware.load", None),
    ("patrolkit.cli", "sweep_riskmap", "riskmap.sweep", None),
    ("patrolkit.cli", "build_pwl", "riskmap.pwl", None),
    ("patrolkit.cli", "select_field_test_blocks", "riskmap.blocks", None),
    ("patrolkit.cli", "build_graph", "planner.graph", _graph_size),
    ("patrolkit.planner", "build_graph", "planner.graph", _graph_size),
    ("patrolkit.cli", "solve", "planner.solve", None),
    ("patrolkit.planner", "solve", "planner.solve", None),
    ("patrolkit.planner.solve", "solve", "planner.solve", None),
    ("patrolkit.cli", "improvement_ratio", "planner.sweep", None),
    ("patrolkit.planner", "improvement_ratio", "planner.sweep", None),
    ("patrolkit.planner.solve", "assemble_milp", "planner.assemble", None),
    ("patrolkit.planner.solve", "branch_and_bound", "planner.bnb", None),
    ("patrolkit.planner.solve", "decompose_flow", "planner.decompose", None),
    ("patrolkit.planner.solve", "objective_of_coverage", "planner.objective", None),
    ("patrolkit.planner.milp", "objective_of_coverage", "planner.objective", None),
    ("patrolkit.planner.milp", "solve_lp", "planner.lp", _lp_shape),
    ("patrolkit.planner.solve", "PatrolPlan.validate", "planner.validate", None),
    ("patrolkit.cli", "auc", "metrics.score", None),
    ("patrolkit.cli", "pr_metrics", "metrics.score", None),
    ("patrolkit.cli", "ll_score", "metrics.score", None),
]


def install(tracer: Tracer) -> None:
    """Wrap every target; the modules must import cleanly first."""
    for mod_name, attr, name, info in TARGETS:
        # sys.modules, not getattr: patrolkit.planner.solve is also a function name
        module = sys.modules.get(mod_name) or importlib.import_module(mod_name)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        current = owner.__dict__[fn_name] if owner_name else getattr(owner, fn_name)
        if isinstance(current, classmethod):
            wrapped = classmethod(tracer.wrap(current.__func__, name, info))
        else:
            wrapped = tracer.wrap(current, name, info)
        setattr(owner, fn_name, wrapped)


def _exclusive(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover (children of
    one single-threaded stack never overlap)."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


MODULES = ("cli", "io", "synth", "grid", "learners", "iware", "riskmap", "planner", "metrics")


def layer_metrics(span_lists: list[list[list]], rounds: int) -> dict[str, tuple[float, str]]:
    """Per-module totals over every process's spans, per round."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s = dict.fromkeys(MODULES, 0.0)
    rows = {"learners.tree_votes": 0, "iware.member_outputs": 0}
    nodes = edges = lp_rows = lp_cols = 0
    cv = refit = 0.0
    fits = kept = 0
    span_count = 0
    for spans in span_lists:
        span_count += len(spans)
        for s, excl in zip(spans, _exclusive(spans)):
            name = s[0]
            total[name] = total.get(name, 0.0) + s[2] - s[1]
            calls[name] = calls.get(name, 0) + 1
            self_s[name.split(".")[0]] += excl
            if name in rows:
                rows[name] += s[4][0]
            elif name == "planner.graph":
                nodes += s[4][0]
                edges += s[4][1]
            elif name == "planner.lp":
                lp_rows, lp_cols = max(lp_rows, s[4][0]), max(lp_cols, s[4][1])
        # learner fits inside a training run: before the weight fit they are
        # cross-validation refits, after it they are the learners kept
        for i, s in enumerate(spans):
            if s[0] != "iware.train":
                continue
            weights_at = min((c[1] for c in spans if c[3] == i and c[0] == "iware.weights"),
                             default=float("inf"))
            for c in spans:
                if c[3] == i and c[0] in ("learners.bagged_fit", "learners.gp_fit"):
                    fits += 1
                    if c[1] < weights_at:
                        cv += c[2] - c[1]
                    else:
                        kept += 1
                        refit += c[2] - c[1]

    def t(name):
        return total.get(name, 0.0) / rounds

    def n(name):
        return calls.get(name, 0) / rounds

    # dense two-phase tableau of the largest node LP: equality rows each get
    # an artificial column, plus the objective row and the rhs column
    tableau = (lp_rows + 1) * (lp_cols + lp_rows + 1) * 8 if lp_rows else 0
    out = {
        "cli.import_s": (t("cli.import"), "s"),
        "io.model_write_s": (t("io.model_write"), "s"),
        "io.model_read_s": (t("io.model_read"), "s"),
        "io.dataset_read_s": (t("io.dataset_read"), "s"),
        "synth.generate_s": (t("synth.generate"), "s"),
        "grid.assemble_calls": (n("grid.assemble"), "count"),
        "grid.assemble_s": (t("grid.assemble"), "s"),
        "learners.tree_fits": (n("learners.tree_fit"), "count"),
        "learners.tree_fit_s": (t("learners.tree_fit"), "s"),
        "learners.bagged_fit_s": (t("learners.bagged_fit"), "s"),
        "learners.tree_votes_rows": (rows["learners.tree_votes"] / rounds, "count"),
        "learners.tree_votes_s": (t("learners.tree_votes"), "s"),
        "learners.gp_fits": (n("learners.gp_fit"), "count"),
        "learners.gp_fit_s": (t("learners.gp_fit"), "s"),
        "learners.gp_loads": (n("learners.gp_load"), "count"),
        "learners.gp_load_s": (t("learners.gp_load"), "s"),
        "learners.gp_predict_s": (t("learners.gp_predict"), "s"),
        "learners.ij_calls": (n("learners.ij"), "count"),
        "learners.ij_s": (t("learners.ij"), "s"),
        "iware.train_s": (t("iware.train"), "s"),
        "iware.cv_s": (cv / rounds, "s"),
        "iware.refit_s": (refit / rounds, "s"),
        "iware.weights_s": (t("iware.weights"), "s"),
        "iware.fits_kept_ratio": (kept / fits if fits else 0.0, "ratio"),
        "iware.load_s": (t("iware.load"), "s"),
        "iware.member_outputs_calls": (n("iware.member_outputs"), "count"),
        "iware.member_outputs_rows": (rows["iware.member_outputs"] / rounds, "count"),
        "iware.member_outputs_s": (t("iware.member_outputs"), "s"),
        "iware.combine_calls": (n("iware.combine"), "count"),
        "iware.combine_s": (t("iware.combine"), "s"),
        "riskmap.sweep_calls": (n("riskmap.sweep"), "count"),
        "riskmap.sweep_s": (t("riskmap.sweep"), "s"),
        "riskmap.pwl_s": (t("riskmap.pwl"), "s"),
        "riskmap.blocks_s": (t("riskmap.blocks"), "s"),
        "planner.graph_nodes": (nodes / rounds, "count"),
        "planner.graph_edges": (edges / rounds, "count"),
        "planner.graph_s": (t("planner.graph"), "s"),
        "planner.assemble_s": (t("planner.assemble"), "s"),
        "planner.solves": (n("planner.solve"), "count"),
        "planner.lp_calls": (n("planner.lp"), "count"),
        "planner.lp_s": (t("planner.lp"), "s"),
        "planner.bnb_s": (t("planner.bnb"), "s"),
        "planner.lp_rows": (lp_rows, "count"),
        "planner.lp_cols": (lp_cols, "count"),
        "planner.lp_tableau_bytes": (tableau, "bytes"),
        "planner.decompose_s": (t("planner.decompose"), "s"),
        "planner.validate_s": (t("planner.validate"), "s"),
        "planner.objective_s": (t("planner.objective"), "s"),
        "metrics.s": (t("metrics.score"), "s"),
        "bench.spans": (span_count / rounds, "count"),
    }
    for mod in MODULES:
        out[f"{mod}.self_s"] = (self_s[mod] / rounds, "s")
    return out
