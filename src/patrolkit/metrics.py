"""Ranking metrics, the L&L score family, and field-test significance.

The L&L score, recall^2 / Pr[predicted positive], is the standard choice
for classifiers learned from positive-and-unlabeled data, where plain
precision punishes discovering unlabeled positives. Field-test tables are
analyzed with Pearson's chi-squared test of independence between risk
group and observed-attack counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MetricsError(ValueError):
    """Invalid metric inputs."""


@dataclass(frozen=True)
class ScoredSet:
    """Model scores with binary labels."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=float)
        y = np.asarray(self.labels, dtype=bool)
        if s.ndim != 1 or s.shape[0] < 1 or y.shape != s.shape:
            raise MetricsError("scores and labels must be aligned nonempty vectors")
        if not np.all(np.isfinite(s)):
            raise MetricsError("scores must be finite")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "labels", y)


@dataclass(frozen=True)
class FieldTestRow:
    group: str
    obs_cells: int
    patrolled_cells: int
    effort_km: float

    def __post_init__(self):
        if not 0 <= self.obs_cells <= self.patrolled_cells:
            raise MetricsError(f"group {self.group!r}: need 0 <= obs <= patrolled cells")


@dataclass(frozen=True)
class FieldTestTable:
    rows: tuple[FieldTestRow, ...]   # one per risk group, each group once

    def __post_init__(self):
        groups = [r.group for r in self.rows]
        for i, group in enumerate(groups):
            if group in groups[:i]:
                raise MetricsError(f"group {group!r} appears more than once")

    @classmethod
    def from_counts(cls, counts) -> "FieldTestTable":
        """counts: iterable of (group, obs_cells, patrolled_cells, effort_km)."""
        return cls(rows=tuple(FieldTestRow(g, int(o), int(c), float(e)) for g, o, c, e in counts))


def auc(s: ScoredSet) -> float | None:
    """Mann-Whitney AUC: the share of (positive, negative) pairs the
    positive outscores, ties counted one half.

    None when only one class is present (undefined).
    """
    y = s.labels
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    neg = np.sort(s.scores[~y])
    below = np.searchsorted(neg, s.scores[y], side="left").sum()
    not_above = np.searchsorted(neg, s.scores[y], side="right").sum()
    u = (below + not_above) / 2.0
    return float(u / (n_pos * n_neg))


def pr_metrics(s: ScoredSet, threshold: float = 0.5) -> dict:
    """Point metrics at the threshold plus average-precision PRC area.

    A row is predicted positive when score >= threshold. With no predicted
    positives, precision is None and F1 is 0.
    """
    y = s.labels
    if int(y.sum()) == 0 or int(y.sum()) == y.size:
        raise MetricsError("pr_metrics needs both classes present")
    pred = s.scores >= threshold
    tp = int((pred & y).sum())
    fp = int((pred & ~y).sum())
    fn = int((~pred & y).sum())
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    recall = tp / (tp + fn)
    if precision is None or precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)

    # Average precision: step-wise integral of the precision-recall curve,
    # with tied scores grouped so the curve is threshold-consistent.
    order = np.argsort(-s.scores, kind="stable")
    ys = y[order].astype(float)
    svals = s.scores[order]
    boundaries = np.flatnonzero(np.diff(svals) != 0)
    idx = np.concatenate([boundaries, [ys.size - 1]])
    cum_tp = np.cumsum(ys)[idx]
    cum_n = idx + 1.0
    prec_curve = cum_tp / cum_n
    rec_curve = cum_tp / y.sum()
    drec = np.diff(np.concatenate([[0.0], rec_curve]))
    prc_area = float(np.sum(prec_curve * drec))
    return {
        "precision": precision,
        "recall": float(recall),
        "f1": float(f1),
        "prc_area": prc_area,
    }


def ll_score(s: ScoredSet, threshold: float = 0.5) -> tuple[float, float]:
    """(L&L, L&L%) at the threshold.

    L&L = recall^2 / Pr[predicted positive]; its maximum on a test set is
    1 / positive-label fraction, and L&L% reports the percentage of that
    maximum achieved. Zero predicted positives give (0, 0).
    """
    y = s.labels
    n = y.size
    n_pos = int(y.sum())
    if n_pos == 0:
        raise MetricsError("ll_score needs at least one positive label")
    pred = s.scores >= threshold
    n_pred = int(pred.sum())
    if n_pred == 0:
        return 0.0, 0.0
    recall = int((pred & y).sum()) / n_pos
    pr_pred = n_pred / n
    ll = recall**2 / pr_pred
    ll_max = 1.0 / (n_pos / n)
    return float(ll), float(100.0 * ll / ll_max)


def chi_squared_field_test(t: FieldTestTable) -> tuple[float, int, float]:
    """(chi-squared, dof, p-value) for independence of attack observations
    and risk group.

    The contingency table is 2 x groups: cells with observed attacks vs
    patrolled cells without, per risk group. dof = groups - 1; the p-value
    is the chi-squared survival function (exp(-x/2) closed form at dof 2).
    """
    from scipy.special import chdtrc  # here, not at module load: no other metric needs scipy

    if len(t.rows) < 2:
        raise MetricsError("need at least two risk groups")
    obs = np.array([[r.obs_cells, r.patrolled_cells - r.obs_cells] for r in t.rows], dtype=float)
    if np.any(obs.sum(axis=1) <= 0):
        raise MetricsError("every group needs patrolled cells")
    col_tot = obs.sum(axis=0)
    row_tot = obs.sum(axis=1)
    total = obs.sum()
    expected = np.outer(row_tot, col_tot) / total
    if np.any(expected == 0):
        raise MetricsError("expected count of zero; groups are degenerate")
    stat = float(((obs - expected) ** 2 / expected).sum())
    dof = len(t.rows) - 1
    return stat, dof, float(chdtrc(dof, stat))


def obs_per_cell(t: FieldTestTable) -> dict[str, float]:
    """Normalized observations (# Obs. / # Cells) per risk group."""
    out = {}
    for r in t.rows:
        if r.patrolled_cells <= 0:
            raise MetricsError(f"group {r.group!r} has no patrolled cells")
        out[r.group] = r.obs_cells / r.patrolled_cells
    return out
