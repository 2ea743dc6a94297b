"""Effort-aware ensemble over one-sided-noise patrol data.

Negative labels are only trustworthy where rangers actually patrolled, so
the ensemble trains one weak learner per effort threshold: learner i sees
every positive row but only the negatives recorded with effort strictly
above threshold i. Thresholds are percentiles of the positive-effort
distribution, keeping the training subsets comparably sized.

For a query at hypothetical effort c only learners with threshold <= c
participate, with their weights renormalized (``mixture_weights``). One
weight vector on the probability simplex is fit by minimizing the held-out
log loss of that same mixture, each training row taken at its observed
effort; ``IWareEnsemble.combine_at_effort`` applies it to batches of rows
at one effort or at one effort per row. Each learner is fit once, and its
held-out predictions come from that fit (``held_out_proba``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import PatrolDataset
from .learners import TrainMatrix, deserialize_learner, train_bagged, train_gp

PROB_CLAMP = 1e-6

# the learner options train_iware accepts for each learner kind; their
# defaults are those of train_bagged and train_gp
LEARNER_OPTIONS = {
    "trees": ("num_trees", "balanced", "undersample_ratio", "max_depth", "min_leaf",
              "feature_subsample"),
    "gp": ("lengthscale", "signal_var", "jitter", "optimize_hypers", "max_points"),
}


class IwareError(ValueError):
    """Invalid ensemble configuration or unusable training data."""


@dataclass(frozen=True)
class ThresholdSet:
    """Ascending finite effort thresholds in km; the first is always 0."""

    thresholds: tuple[float, ...]

    def __post_init__(self):
        th = tuple(float(t) for t in self.thresholds)
        if not th:
            raise IwareError("need at least one threshold")
        if not np.all(np.isfinite(th)):
            raise IwareError("thresholds must be finite")
        if th[0] != 0.0:
            raise IwareError("first threshold must be 0")
        if any(b < a for a, b in zip(th, th[1:])):
            raise IwareError("thresholds must be nondecreasing")
        object.__setattr__(self, "thresholds", th)

    @property
    def count(self) -> int:
        return len(self.thresholds)

    def qualified(self, effort) -> np.ndarray:
        """Boolean mask of learners whose threshold does not exceed effort:
        shape (I,) for one effort, (n, I) for a vector of n efforts."""
        return np.asarray(self.thresholds) <= np.asarray(effort, dtype=float)[..., None]


@dataclass(frozen=True)
class RiskQuery:
    """One cell's feature vector plus a hypothetical patrol effort."""

    features: np.ndarray          # (k+1,) static features + previous effort
    hypothetical_effort: float

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        if f.ndim != 1 or not np.all(np.isfinite(f)):
            raise IwareError("query features must be a finite vector")
        if not np.isfinite(self.hypothetical_effort) or self.hypothetical_effort < 0:
            raise IwareError("hypothetical effort must be finite and >= 0")
        object.__setattr__(self, "features", f)


def _dataset_rows(ds: PatrolDataset):
    """Flatten (window, masked cell) rows: features, labels, effort, ids."""
    ids = ds.grid.masked_ids()
    T = ds.num_timesteps
    X = ds.design_matrix[:, ids, :].reshape(T * ids.size, -1)
    y = ds.labels[:, ids].ravel().astype(bool)
    eff = ds.effort[:, ids].ravel()
    row_ids = (np.arange(T)[:, None] * ds.grid.n_cells + ids[None, :]).ravel()
    return X, y, eff, row_ids


def select_thresholds(ds: PatrolDataset, I: int) -> ThresholdSet:
    """Effort-percentile thresholds: quantile (i-1)/I of the strictly
    positive efforts for i = 1..I, with the first forced to 0. Duplicate
    quantiles are collapsed (reducing I) with a warning."""
    if I < 1:
        raise IwareError("I must be >= 1")
    _, _, eff, _ = _dataset_rows(ds)
    pos_eff = eff[eff > 0]
    if pos_eff.size == 0:
        raise IwareError("dataset has no positive-effort rows")
    levels = [(i - 1) / I for i in range(1, I + 1)]
    raw = [0.0] + [float(np.quantile(pos_eff, q, method="linear")) for q in levels[1:]]
    collapsed = sorted(set(raw))  # the quantiles ascend
    if len(collapsed) < len(raw):
        warnings.warn(
            f"collapsed {len(raw) - len(collapsed)} duplicate effort thresholds "
            f"(I reduced to {len(collapsed)})", stacklevel=2)
    return ThresholdSet(thresholds=tuple(collapsed))


def _one_sided(y: np.ndarray, eff: np.ndarray, theta: float) -> np.ndarray:
    """Rows a learner at threshold theta trains on: all positives, plus
    negatives whose effort exceeds theta."""
    return y | (eff > theta)


def _subset(rows, keep: np.ndarray) -> TrainMatrix:
    X, y, _, row_ids = rows
    return TrainMatrix(rows=X[keep], labels=y[keep], row_ids=row_ids[keep])


def _clamp_probs(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    p = np.where(np.isfinite(p), p, 0.5)
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def mixture_weights(mask: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-row weights (n, I): ``weights`` renormalized over the learners
    ``mask`` admits in each row, uniform where those all weigh 0, zero where
    it admits none. The weight fit and prediction both mix by this rule."""
    W = np.where(mask, weights, 0.0)
    total = W.sum(axis=1, keepdims=True)
    uniform = mask / np.maximum(mask.sum(axis=1, keepdims=True), 1)
    return np.divide(W, total, out=uniform, where=total > 0)


def _mixture_log_loss(P, y, mask, weights):
    """Mean log loss of the masked mixtures over the rows whose mask admits
    a learner, and its gradient in the logits of ``weights``."""
    rows = mask.any(axis=1)
    P, y, W = P[rows], y[rows], mixture_weights(mask[rows], weights)
    n = max(int(rows.sum()), 1)
    mix = np.clip((W * P).sum(axis=1), PROB_CLAMP, 1.0 - PROB_CLAMP)
    loss = -float(np.sum(y * np.log(mix) + (1.0 - y) * np.log(1.0 - mix))) / n
    dmix = (mix - y) / (mix * (1.0 - mix))
    # the renormalized mixture is a softmax over the admitted logits
    return loss, (W * (P - mix[:, None])).T @ dmix / n


def optimize_weights_from_probs(probs: np.ndarray, labels: np.ndarray,
                                mask: np.ndarray) -> np.ndarray:
    """Simplex weights minimizing the mean log loss of each row's mixture
    over the learners ``mask`` admits (``mixture_weights``); rows that admit
    none drop out. L-BFGS on softmax logits from the uniform start, with
    tolerances tight enough to reach the simplex boundary. Identical learner
    columns keep identical weights, which realizes the uniform tie-break.
    """
    from scipy.optimize import minimize

    P = _clamp_probs(probs)
    y = np.asarray(labels, dtype=float)
    M = np.asarray(mask, dtype=bool)
    if P.shape[1] == 1:
        return np.ones(1)
    res = minimize(lambda z: _mixture_log_loss(P, y, M, np.exp(z - z.max())),
                   np.zeros(P.shape[1]), jac=True, method="L-BFGS-B",
                   options={"ftol": 1e-15, "gtol": 1e-12})
    w = np.exp(res.x - res.x.max())
    return w / w.sum()


def log_loss(probs, labels, weights, mask) -> float:
    """The objective ``optimize_weights_from_probs`` minimizes, at ``weights``."""
    return _mixture_log_loss(_clamp_probs(probs), np.asarray(labels, dtype=float),
                             np.asarray(mask, dtype=bool), np.asarray(weights, dtype=float))[0]


@dataclass
class IWareEnsemble:
    """Trained threshold ensemble with optimized simplex weights."""

    thresholds: ThresholdSet
    learners: list
    weights: np.ndarray
    learner_kind: str
    squash_scale: float
    n_features: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if len(self.learners) != self.thresholds.count or w.shape != (self.thresholds.count,):
            raise IwareError("learners, thresholds and weights must align")
        if not np.all(np.isfinite(w)) or np.any(w < -1e-9) or abs(w.sum() - 1.0) > 1e-9:
            raise IwareError("weights must lie on the probability simplex")
        if not (np.isfinite(self.squash_scale) and self.squash_scale > 0):
            raise IwareError("squash_scale must be finite and positive")
        self.weights = w

    # -- batched prediction ------------------------------------------------
    def member_outputs(self, X: np.ndarray):
        """Per-learner probabilities and variances for query rows.

        Returns (P, V) of shape (n, I); V is 0 for learners without a
        native variance (their contribution to uncertainty is then only
        the spread between members).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        probs, povs = [], []
        for lrn in self.learners:
            p, v = lrn.predict_proba(X)
            probs.append(_clamp_probs(p))
            povs.append(np.zeros(X.shape[0]) if v is None else np.maximum(v, 0.0))
        return np.column_stack(probs), np.column_stack(povs)

    def combine_at_effort(self, P: np.ndarray, V: np.ndarray, effort):
        """Qualified, renormalized mixture mean and raw mixture variance.

        ``effort`` is one hypothetical effort for every row of the member
        outputs (P, V), or a vector with one effort per row. Each row is
        mixed over the learners whose threshold does not exceed its effort,
        by ``mixture_weights``.
        """
        W = mixture_weights(np.broadcast_to(self.thresholds.qualified(effort), P.shape),
                            self.weights)
        g = (W * P).sum(axis=1)
        return g, np.maximum((W * (V + P**2)).sum(axis=1) - g**2, 0.0)

    def predict_rows(self, X: np.ndarray, effort):
        P, V = self.member_outputs(X)
        return self.combine_at_effort(P, V, effort)

    def squash(self, var_raw) -> np.ndarray:
        return squash_uncertainty(var_raw, self.squash_scale)

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "thresholds": [float(t) for t in self.thresholds.thresholds],
            "weights": [float(w) for w in self.weights],
            "learner_kind": self.learner_kind,
            "squash_scale": float(self.squash_scale),
            "n_features": int(self.n_features),
            "learners": [l.to_dict() for l in self.learners],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "IWareEnsemble":
        if not isinstance(d, dict):
            raise IwareError("ensemble document must be a JSON object")
        if d.get("version") != 1:
            raise IwareError(f"unsupported ensemble document version {d.get('version')!r}")
        try:
            blobs = d["learners"]
            if not isinstance(blobs, list) or not all(isinstance(b, dict) for b in blobs):
                raise IwareError("ensemble document's learners must be a list of objects")
            return cls(
                thresholds=ThresholdSet(thresholds=tuple(d["thresholds"])),
                learners=[deserialize_learner(b) for b in blobs],
                weights=np.asarray(d["weights"], dtype=float),
                learner_kind=d["learner_kind"],
                squash_scale=float(d["squash_scale"]),
                n_features=int(d["n_features"]),
            )
        except KeyError as err:
            raise IwareError(f"ensemble document lacks key {err}") from None
        except IwareError:
            raise
        except (IndexError, TypeError, ValueError) as err:
            raise IwareError(f"ensemble document has a malformed field: {err}") from None


def predict_effort_conditioned(ens: IWareEnsemble, query: RiskQuery) -> tuple[float, float]:
    """(probability, raw mixture variance) at the query's effort level.

    Probability is the renormalized weighted mean over qualified learners;
    the variance is the mixture variance, counting both per-learner
    variances and the spread between learner means.
    """
    if query.features.shape != (ens.n_features,):
        raise IwareError(f"expected {ens.n_features} features, got {query.features.shape}")
    g, v = ens.predict_rows(query.features[None, :], query.hypothetical_effort)
    return float(g[0]), float(v[0])


def squash_uncertainty(var_raw, scale: float) -> np.ndarray | float:
    """Map raw variance [0, inf) into [0, 1): 2*sigmoid(v/scale) - 1.

    Saturating inputs are clamped just below 1 so the squashed range stays
    half-open even in floating point.
    """
    v = np.asarray(var_raw, dtype=float)
    if np.any(v < 0):
        raise IwareError("raw variance must be nonnegative")
    out = 2.0 / (1.0 + np.exp(-v / scale)) - 1.0
    out = np.minimum(out, np.nextafter(1.0, 0.0))
    return float(out) if np.isscalar(var_raw) else out


def _fit_learner(kind: str, data: TrainMatrix, rng, options: dict):
    """Fit one learner; ``options`` holds only settings of its kind."""
    fit = train_bagged if kind == "trees" else train_gp
    return fit(data, rng=rng, **options)


def train_iware(
    ds: PatrolDataset,
    I: int,
    learner_kind: str = "trees",
    rng=None,
    **options,
) -> IWareEnsemble:
    """Full ensemble training.

    Thresholds come from effort percentiles; each threshold learner is fit
    once on its filtered subset. Its held-out predictions come from that
    fit (``held_out_proba``: out-of-bag votes for trees, the leave-one-out
    predictive for the GP) on the rows the fit used, and are its plain
    predictions on every other row. A row every tree drew has none from
    that learner and leaves it out of the row's mixture in the weight fit.
    The squashing scale is the median raw mixture variance over the
    training rows at their observed efforts, from the same member outputs.
    ``options`` are settings of the chosen learner kind (LEARNER_OPTIONS);
    learner defaults fill in the rest.
    """
    if learner_kind not in LEARNER_OPTIONS:
        raise IwareError(f"unknown learner kind {learner_kind!r}; "
                         f"choose from {tuple(LEARNER_OPTIONS)}")
    unknown = sorted(set(options) - set(LEARNER_OPTIONS[learner_kind]))
    if unknown:
        raise IwareError(f"learner kind {learner_kind!r} takes no option(s) "
                         f"{', '.join(unknown)}; choose from {LEARNER_OPTIONS[learner_kind]}")
    seed_root = rng if isinstance(rng, (int, np.integer)) else int(np.random.default_rng(rng).integers(2**62))
    ths = select_thresholds(ds, I)
    rows = _dataset_rows(ds)
    X, y, eff, _ = rows
    keeps = [_one_sided(y, eff, theta) for theta in ths.thresholds]
    learners = [_fit_learner(learner_kind, _subset(rows, keep),
                             np.random.default_rng([seed_root, 1, i]), options)
                for i, keep in enumerate(keeps)]
    ens = IWareEnsemble(thresholds=ths, learners=learners,
                        weights=np.full(ths.count, 1 / ths.count),  # fit below
                        learner_kind=learner_kind, squash_scale=1.0, n_features=X.shape[1])
    P, V = ens.member_outputs(X)
    held = P.copy()
    for i, (lrn, keep) in enumerate(zip(learners, keeps)):
        used, prob = lrn.held_out_proba(X[keep])
        held[np.flatnonzero(keep)[used], i] = prob
    ens.weights = optimize_weights_from_probs(held, y, ths.qualified(eff) & ~np.isnan(held))
    _, raw = ens.combine_at_effort(P, V, eff)
    med = float(np.median(raw))
    if med <= 0:
        positive = raw[raw > 0]
        med = float(positive.mean()) if positive.size else 1.0
    ens.squash_scale = med
    return ens
