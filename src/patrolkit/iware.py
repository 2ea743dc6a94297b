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
effort, by scipy's L-BFGS-B: its compiled ``setulb``, loaded alone, driven
by the loop of ``scipy.optimize.minimize`` (``_lbfgsb``), so that training
imports no ``scipy.optimize``. ``IWareEnsemble.combine_at_effort``
applies the weights to batches of rows at one effort or at one effort per
row. Each learner is fit once, and its held-out predictions come from
that fit (``held_out_proba``). A learner predicts only the rows whose
effort qualifies it (``IWareEnsemble.member_outputs``): the mixture gives
it weight 0 everywhere else.

``train`` also keeps the member outputs of the prediction-period query
rows at every learner (``QueryOutputs``), and ``member_outputs`` returns
them for those same rows, so the commands that query them run no learner.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import PatrolDataset
from .learners import (BaggedClassifier, GpClassifier, TrainMatrix, float_array_field, float_field,
                       int_field, train_bagged, train_gp)
from .scipyext import load_extension

PROB_CLAMP = 1e-6

# the learner options train_iware accepts for each learner kind; their
# defaults are those of train_bagged and train_gp
LEARNER_OPTIONS = {
    "trees": ("num_trees", "undersample_ratio", "max_depth", "min_leaf", "feature_subsample"),
    "gp": ("lengthscale", "signal_var", "jitter", "max_points"),
}
# the class that loads every stored learner of an ensemble of each learner kind
LEARNER_CLASSES = {"trees": BaggedClassifier, "gp": GpClassifier}


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
    """Stack every window's rows (``PatrolDataset.rows``) with their labels
    and efforts."""
    ids = ds.grid.masked_ids()
    X = np.concatenate([ds.rows(t) for t in range(ds.num_timesteps)])
    y = ds.labels[:, ids].ravel().astype(bool)
    eff = ds.effort[:, ids].ravel()
    return X, y, eff


def select_thresholds(ds: PatrolDataset, I: int) -> ThresholdSet:
    """Effort-percentile thresholds: quantile (i-1)/I of the strictly
    positive efforts for i = 1..I, with the first forced to 0. Duplicate
    quantiles are collapsed (reducing I) with a warning."""
    if I < 1:
        raise IwareError("I must be >= 1")
    pos_eff = ds.positive_efforts()
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


def _lbfgsb(fun, x0: np.ndarray, ftol: float, gtol: float) -> np.ndarray:
    """The unbounded minimizer ``scipy.optimize.minimize(fun, x0, jac=True,
    method="L-BFGS-B", options={"ftol": ftol, "gtol": gtol})`` returns, for
    ``fun`` returning (value, gradient): scipy's reverse-communication loop
    of ``_minimize_lbfgsb`` (scipy 1.17.1) around its compiled ``setulb``,
    with its other settings (maxcor 10, maxls 20, maxiter and maxfun 15000).

    Under two OpenBLAS threads ``setulb`` can stall inside its own BLAS
    calls, on scipy's OpenBLAS. Measured with scipy 1.17.1 on a shared
    2-core machine, in fresh processes: at ``OPENBLAS_NUM_THREADS=2``, the
    calls that take a new value and gradient from the second iteration on
    (52 of the 115 of the seed-7 trees ``train``) waited 4-16 ms each in
    some runs; at 1 thread no call took over 0.2 ms. A 10-parameter
    Rosenbrock objective that calls no BLAS stalls alike, so the wait is
    not contention with numpy's thread pool. In seed-7 trees ``train`` at
    2 threads, 8 of 15 runs lost 0.33-0.36 s to it (of 1.6-1.9 s), the
    rest at most 3 ms; GP ``train`` did not stall in 9 runs. Nothing here
    sets a thread count.
    """
    m, maxls, maxiter, maxfun = 10, 20, 15000, 15000
    n = x0.size
    x = np.array(x0, dtype=np.float64)
    f, g = np.array(0.0), np.zeros(n)
    bound, nbd = np.zeros(n), np.zeros(n, np.int32)     # no bounds
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    setulb = load_extension("optimize._lbfgsb").setulb
    factr = ftol / np.finfo(float).eps
    n_iterations = n_evaluations = 0
    while True:
        setulb(m, x, bound, bound, nbd, f, g, factr, gtol, wa, iwa, task,
               lsave, isave, dsave, maxls, ln_task)
        if task[0] == 3:            # wants f and g at x
            f, g = fun(x.copy())
            f, g = float(f), np.ascontiguousarray(g, dtype=np.float64)
            if g.shape != (n,):     # setulb reads n doubles and checks nothing
                raise ValueError(f"gradient of shape {g.shape}, expected ({n},)")
            n_evaluations += 1
        elif task[0] == 1:          # a new iterate
            n_iterations += 1
            if n_iterations >= maxiter:
                task[:] = 5, 504    # stop: iterations exceed the limit
            elif n_evaluations > maxfun:
                task[:] = 5, 502    # stop: evaluations exceed the limit
        else:
            return x


def optimize_weights_from_probs(probs: np.ndarray, labels: np.ndarray,
                                mask: np.ndarray) -> np.ndarray:
    """Simplex weights minimizing the mean log loss of each row's mixture
    over the learners ``mask`` admits (``mixture_weights``); rows that admit
    none drop out. scipy's L-BFGS-B with scipy's defaults (``_lbfgsb``) on
    softmax logits from the uniform start, with tolerances tight enough to
    reach the simplex boundary. Identical learner columns keep identical
    weights, which realizes the uniform tie-break.
    """
    P = _clamp_probs(probs)
    y = np.asarray(labels, dtype=float)
    M = np.asarray(mask, dtype=bool)
    if P.shape[1] == 1:
        return np.ones(1)
    z = _lbfgsb(lambda z: _mixture_log_loss(P, y, M, np.exp(z - z.max())),
                np.zeros(P.shape[1]), ftol=1e-15, gtol=1e-12)
    w = np.exp(z - z.max())
    return w / w.sum()


def log_loss(probs, labels, weights, mask) -> float:
    """The objective ``optimize_weights_from_probs`` minimizes, at ``weights``."""
    return _mixture_log_loss(_clamp_probs(probs), np.asarray(labels, dtype=float),
                             np.asarray(mask, dtype=bool), np.asarray(weights, dtype=float))[0]


def rows_digest(X: np.ndarray) -> str:
    """SHA-256 of query rows as float64: their shape, then their bytes in C order."""
    # imported here: hashlib loads OpenSSL's libcrypto, about 4 MB, which a
    # process that predicts nothing, such as a planner benchmark, never needs
    import hashlib

    X = np.ascontiguousarray(X, dtype=np.float64)
    return hashlib.sha256(repr(X.shape).encode() + X.tobytes()).hexdigest()


@dataclass(frozen=True)
class QueryOutputs:
    """Member outputs (P, V) of one set of query rows at every learner, each
    (n, I), and the ``rows_digest`` of those rows."""

    digest: str
    prob: np.ndarray
    var: np.ndarray

    def to_dict(self) -> dict:
        return {"digest": self.digest, "prob": self.prob.tolist(), "var": self.var.tolist()}

    @classmethod
    def from_dict(cls, d, count: int) -> "QueryOutputs":
        """The block as ``to_dict`` wrote it for ``count`` learners, with
        what ``member_outputs`` gives at every learner: probabilities in
        (0, 1), and finite variances >= 0."""
        if not isinstance(d, dict):
            raise ValueError("query_outputs must be an object")
        if not isinstance(d["digest"], str):
            raise ValueError(f"query_outputs.digest must be a string, got {d['digest']!r}")
        arrays = []
        for name in ("prob", "var"):
            what = f"query_outputs.{name}"
            try:
                a = float_array_field(d[name], what)
            except ValueError:
                raise ValueError(f"{what} must be a matrix of numbers") from None
            if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] != count:
                raise ValueError(f"{what} must be a matrix with one column per learner "
                                 f"({count}), got shape {a.shape}")
            arrays.append(a)
        prob, var = arrays
        if var.shape != prob.shape:
            raise ValueError(f"query_outputs.var has shape {var.shape}, "
                             f"query_outputs.prob {prob.shape}")
        if not np.all((prob > 0) & (prob < 1)):
            raise ValueError("query_outputs.prob must lie in (0, 1)")
        if not np.all(np.isfinite(var) & (var >= 0)):
            raise ValueError("query_outputs.var must be finite and >= 0")
        return cls(d["digest"], prob, var)


@dataclass
class IWareEnsemble:
    """Trained threshold ensemble with optimized simplex weights."""

    thresholds: ThresholdSet
    learners: list
    weights: np.ndarray
    learner_kind: str
    squash_scale: float
    n_features: int
    query_outputs: QueryOutputs | None = None

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
    def member_outputs(self, X: np.ndarray, effort):
        """Per-learner probabilities and variances for query rows.

        ``effort`` is one effort for every row of X, or one per row. Learner
        i predicts only the rows whose effort is at least its threshold, in
        one batch; every other entry of (P, V), shape (n, I), is NaN, since
        the mixture at that effort gives the learner weight 0. V is 0 for
        learners without a native variance (their contribution to
        uncertainty is then only the spread between members). Where X are
        the rows of ``query_outputs``, by digest, its P and V are returned,
        with the same NaN entries, and no learner runs. Rows of another
        width than ``n_features`` raise IwareError.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise IwareError(f"expected {self.n_features} features, got {X.shape[1]}")
        Q = np.broadcast_to(self.thresholds.qualified(effort), (X.shape[0], self.thresholds.count))
        kept = self.query_outputs
        if kept is not None and kept.prob.shape == Q.shape and kept.digest == rows_digest(X):
            return np.where(Q, kept.prob, np.nan), np.where(Q, kept.var, np.nan)
        P, V = np.full(Q.shape, np.nan), np.full(Q.shape, np.nan)
        runs = [(lrn, i, np.flatnonzero(Q[:, i])) for i, lrn in enumerate(self.learners)
                if Q[:, i].any()]
        for lrn, i, rows in runs:
            p, v = lrn.predict_proba(X if rows.size == X.shape[0] else X[rows])
            P[rows, i] = _clamp_probs(p)
            V[rows, i] = 0.0 if v is None else np.maximum(v, 0.0)
        return P, V

    def combine_at_effort(self, P: np.ndarray, V: np.ndarray, effort):
        """Qualified, renormalized mixture mean and raw mixture variance.

        ``effort`` is one hypothetical effort for every row of the member
        outputs (P, V), or a vector with one effort per row. Each row is
        mixed over the learners whose threshold does not exceed its effort,
        by ``mixture_weights``. Only entries of nonzero weight are read, so
        the NaN ``member_outputs`` leaves at a learner it did not run drops
        out, unless ``effort`` here exceeds the one it ran at: then the
        result is NaN.
        """
        W = mixture_weights(np.broadcast_to(self.thresholds.qualified(effort), P.shape),
                            self.weights)
        used = W != 0
        P, V = np.where(used, P, 0.0), np.where(used, V, 0.0)
        g = (W * P).sum(axis=1)
        return g, np.maximum((W * (V + P**2)).sum(axis=1) - g**2, 0.0)

    def predict_rows(self, X: np.ndarray, effort):
        P, V = self.member_outputs(X, effort)
        return self.combine_at_effort(P, V, effort)

    def keep_query_outputs(self, X: np.ndarray) -> None:
        """Run every learner on the query rows X once, and keep the result
        as ``query_outputs``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        P, V = self.member_outputs(X, np.inf)
        self.query_outputs = QueryOutputs(rows_digest(X), P, V)

    def to_dict(self) -> dict:
        d = {
            "version": 4,
            "thresholds": [float(t) for t in self.thresholds.thresholds],
            "weights": [float(w) for w in self.weights],
            "learner_kind": self.learner_kind,
            "squash_scale": float(self.squash_scale),
            "n_features": int(self.n_features),
            "learners": [l.to_dict() for l in self.learners],
        }
        if self.query_outputs is not None:
            d["query_outputs"] = self.query_outputs.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "IWareEnsemble":
        if not isinstance(d, dict):
            raise IwareError("ensemble document must be a JSON object")
        if d.get("version") != 4:
            raise IwareError(f"unsupported ensemble document version {d.get('version')!r}")
        try:
            blobs = d["learners"]
            if not isinstance(blobs, list) or not all(isinstance(b, dict) for b in blobs):
                raise IwareError("ensemble document's learners must be a list of objects")
            kind = d["learner_kind"]
            if not (isinstance(kind, str) and kind in LEARNER_OPTIONS):
                raise IwareError(f"unknown learner kind {kind!r}; "
                                 f"choose from {tuple(LEARNER_OPTIONS)}")
            thresholds = float_array_field(d["thresholds"], "thresholds").tolist()
            n_features = int_field(d["n_features"], "n_features")
            return cls(
                thresholds=ThresholdSet(tuple(thresholds)),
                learners=[LEARNER_CLASSES[kind].from_dict(b, n_features) for b in blobs],
                weights=float_array_field(d["weights"], "weights"),
                learner_kind=kind,
                squash_scale=float_field(d["squash_scale"], "squash_scale"),
                n_features=n_features,
                query_outputs=(QueryOutputs.from_dict(d["query_outputs"], len(thresholds))
                               if "query_outputs" in d else None),
            )
        except KeyError as err:
            raise IwareError(f"ensemble document lacks key {err}") from None
        except IwareError:
            raise
        except (IndexError, OverflowError, TypeError, ValueError) as err:
            raise IwareError(f"ensemble document has a malformed field: {err}") from None


def predict_effort_conditioned(ens: IWareEnsemble, query: RiskQuery) -> tuple[float, float]:
    """(probability, raw mixture variance) at the query's effort level.

    Probability is the renormalized weighted mean over qualified learners;
    the variance is the mixture variance, counting both per-learner
    variances and the spread between learner means.
    """
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
    once on its filtered subset. A learner predicts only the training rows
    it qualifies for, those whose observed effort is at least its threshold
    (``member_outputs``), and the weight fit leaves it out of every other
    row's mixture. Its held-out predictions come from that fit
    (``held_out_proba``: out-of-bag votes for trees, the leave-one-out
    predictive for the GP) on the rows the fit used, and are its plain
    predictions on its other qualified rows. A row every tree drew has none
    from that learner and leaves it out of the row's mixture too. The
    squashing scale is the median raw mixture variance over the training
    rows at their observed efforts, from the same member outputs.
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
    X, y, eff = _dataset_rows(ds)
    keeps = [_one_sided(y, eff, theta) for theta in ths.thresholds]
    learners = [_fit_learner(learner_kind, TrainMatrix(X[keep], y[keep]),
                             np.random.default_rng([seed_root, 1, i]), options)
                for i, keep in enumerate(keeps)]
    ens = IWareEnsemble(thresholds=ths, learners=learners,
                        weights=np.full(ths.count, 1 / ths.count),  # fit below
                        learner_kind=learner_kind, squash_scale=1.0, n_features=X.shape[1])
    P, V = ens.member_outputs(X, eff)
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
