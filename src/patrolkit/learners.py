"""Weak learners for the effort-aware ensemble.

Three families, one contract: ``predict_proba(X) -> (prob, latent_var)``
where ``latent_var`` is None for learners without a native uncertainty.
The learners an ensemble keeps also give held-out predictions for the
rows they were fit on, from that single fit (``held_out_proba``): the
out-of-bag votes of a bag, the closed-form leave-one-out predictive of a
GP.

* CART decision trees with Gini splits; leaves store positive fractions.
  Ties are broken by lowest feature index, then lowest threshold, so
  training is deterministic under a fixed rng. Each tree grows
  depth-first; the trees of a bag grow in lock-step, one batched split
  search per pass over the node each tree reached, so they are the trees
  that fitting each alone gives. A bag's trees also predict together.
* Balanced bagging: each tree sees a bootstrap of the positives plus an
  undersample of the negatives. Bootstrap membership counts are recorded
  so the infinitesimal-jackknife variance of the bagged prediction can be
  computed afterwards.
* A Gaussian-process classifier (RBF kernel, logistic likelihood, Laplace
  approximation). Probabilities come from the probit approximation of the
  averaged predictive; the exposed latent variance is the noise-free
  posterior variance of the latent function given the training inputs,
  which vanishes at training points and reverts to the signal variance far
  from data.

Only the GP uses scipy, and each GP function imports the part it calls
when it runs, so a process that loads trees alone never loads scipy.

Each learner's settings and their defaults are the keyword arguments of
its training function (``train_bagged``, ``train_gp``) and are written
nowhere else: the ensemble and the command line pass settings through
and leave unset ones to these defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class LearnerError(ValueError):
    """Invalid training data or configuration."""


def ensure_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class TrainMatrix:
    """Feature rows with binary labels and bookkeeping row ids."""

    rows: np.ndarray     # (n, d) float
    labels: np.ndarray   # (n,) bool
    row_ids: np.ndarray  # (n,) int, identifiers into the source dataset

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        labels = np.asarray(self.labels, dtype=bool)
        ids = np.asarray(self.row_ids, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise LearnerError("rows must be a nonempty (n, d) matrix")
        if labels.shape != (rows.shape[0],) or ids.shape != (rows.shape[0],):
            raise LearnerError("labels/row_ids must align with rows")
        if not np.all(np.isfinite(rows)):
            raise LearnerError("rows contain non-finite values")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "row_ids", ids)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


# ---------------------------------------------------------------------------
# Decision trees
# ---------------------------------------------------------------------------

@dataclass
class DecisionTree:
    """CART tree in flat-array form; feature[i] == -1 marks a leaf."""

    feature: np.ndarray    # (nodes,) int32
    threshold: np.ndarray  # (nodes,) float
    left: np.ndarray       # (nodes,) int32
    right: np.ndarray      # (nodes,) int32
    value: np.ndarray      # (nodes,) float, positive fraction (leaves)
    max_depth: int
    min_leaf: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _predict_trees([self], X)[0]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTree":
        return cls(
            feature=np.asarray(d["feature"], dtype=np.int32),
            threshold=np.asarray(d["threshold"], dtype=float),
            left=np.asarray(d["left"], dtype=np.int32),
            right=np.asarray(d["right"], dtype=np.int32),
            value=np.asarray(d["value"], dtype=float),
            max_depth=int(d["max_depth"]),
            min_leaf=int(d["min_leaf"]),
        )


def _predict_trees(trees: list[DecisionTree], X: np.ndarray) -> np.ndarray:
    """Each tree's leaf value for each row of X, shape (trees, rows). Every
    (tree, row) pair descends one level per step, all trees together."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    q, d = X.shape
    base = np.cumsum([0] + [t.feature.size for t in trees[:-1]])
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    left = np.concatenate([t.left + b for t, b in zip(trees, base)])
    right = np.concatenate([t.right + b for t, b in zip(trees, base)])
    # pair i is tree i // q at row i % q, whose row starts at x[row_at[i]]
    x = X.ravel()
    node = np.repeat(base, q)
    row_at = np.tile(np.arange(0, q * d, d), len(trees))
    pair = np.arange(node.size)  # the pairs still at an inner node
    while pair.size:
        at = node[pair]
        f = feature[at]
        inner = f >= 0
        pair, at, f = pair[inner], at[inner], f[inner]
        goleft = x[row_at[pair] + f] <= threshold[at]
        node[pair] = np.where(goleft, left[at], right[at])
    return np.concatenate([t.value for t in trees])[node].reshape(len(trees), q)


def _sorted_columns(X: np.ndarray, y: np.ndarray):
    """Each column of X in a stable sort: (rank, x, label), where rank[i, f]
    is row i's place in column f's order, and x[r, f] and label[r, f] are
    the value and label of the row at place r. Ordering a set of rows by
    rank orders them by value."""
    order = np.argsort(X, axis=0, kind="stable")
    rank = np.empty(X.shape, dtype=np.int64)
    np.put_along_axis(rank, order, np.arange(X.shape[0])[:, None], axis=0)
    return rank, np.take_along_axis(X, order, axis=0), y[order]


def _best_splits(columns, rows, sizes, feats, min_leaf):
    """Lowest weighted-Gini split of every node of a batch.

    ``columns`` is ``_sorted_columns(X, y)``. Node c holds the next
    ``sizes[c]`` entries of ``rows`` (indices into X) and searches the
    features ``feats[c]``, F of them for every node. One Gini table covers
    every (node, feature, threshold) triple, its entries ordered by node,
    then feature, then value. A node's first minimum in that feature-major
    order implements the tie-break: lowest feature index, then lowest
    threshold. Returns (gini, feature, threshold) arrays with one entry per
    node; gini is inf where no split is allowed. The threshold is the
    midpoint of the two values the split falls between, or the lower value
    where the midpoint of two adjacent doubles rounds up to the upper one,
    so that each side keeps the rows it was scored with.
    """
    rank, x_sorted, y_sorted = columns
    R, d = rank.shape
    C, F = feats.shape
    gini_out = np.full(C, np.inf)
    feat_out = np.full(C, -1, dtype=np.int64)
    thr_out = np.full(C, np.nan)
    # segment s = one (node, feature) pair, table entries start[s]..end[s]-1
    seg_n = np.repeat(sizes, F)
    end = np.cumsum(seg_n)
    start = end - seg_n
    seg = np.repeat(np.arange(C * F), seg_n)
    node = np.repeat(np.arange(C), sizes)
    cols = feats[node]                                              # (rows, F)
    key = (node[:, None] * F + np.arange(F)) * R + rank.ravel()[rows[:, None] * d + cols]
    place = np.sort(key, axis=None) - seg * R                      # sorted by segment, then rank
    at = place * d + feats.ravel()[seg]
    xs = x_sorted.ravel()[at]
    cum = np.concatenate(([0], np.cumsum(y_sorted.ravel()[at])))
    # entry k splits off the first left_n entries of its segment
    left_n = np.arange(1, end[-1] + 1) - start[seg]
    right_n = seg_n[seg] - left_n
    valid = (left_n >= min_leaf) & (right_n >= max(min_leaf, 1))
    valid[:-1] &= xs[:-1] < xs[1:]
    k = np.flatnonzero(valid)
    if k.size == 0:
        return gini_out, feat_out, thr_out
    s = seg[k]
    left_n, right_n, n = left_n[k], right_n[k], seg_n[s]
    left_pos = cum[k + 1] - cum[start[s]]
    right_pos = cum[end[s]] - cum[start[s]] - left_pos
    pl = left_pos / left_n
    pr = right_pos / right_n
    gini = (left_n * 2 * pl * (1 - pl) + right_n * 2 * pr * (1 - pr)) / n
    c = s // F
    first = np.flatnonzero(np.diff(c, prepend=-1))
    low = np.minimum.reduceat(gini, first)
    hit = np.flatnonzero(gini == np.repeat(low, np.diff(first, append=c.size)))
    hit = hit[np.diff(c[hit], prepend=-1) != 0]
    best, c = k[hit], c[hit]
    gini_out[c] = gini[hit]
    feat_out[c] = feats.ravel()[seg[best]]
    lower, upper = xs[best], xs[best + 1]
    mid = 0.5 * (lower + upper)
    thr_out[c] = np.where(mid < upper, mid, lower)
    return gini_out, feat_out, thr_out


def _grow_trees(X, y, samples, rngs, max_depth, min_leaf, feature_subsample):
    """Greedy CART fits of one tree per sample, grown in lock-step.

    Tree t fits the rows ``X[samples[t]]`` and draws the candidate
    features of each node from ``rngs[t]``. Every tree grows depth-first,
    in the order a lone fit would: each pass, every unfinished tree pops
    nodes off its own stack until it reaches one it may split, settling
    leaves from their carried positive counts, and one ``_best_splits``
    call then splits the nodes all trees reached.
    """
    if min(len(s) for s in samples) < min_leaf:
        raise LearnerError(f"need at least min_leaf={min_leaf} rows")
    rows = np.concatenate(samples)
    X, y = X[rows], y[rows]
    columns = _sorted_columns(X, y)
    d = X.shape[1]
    draw = feature_subsample is not None and feature_subsample < d
    every = list(range(d))

    # per tree: its node table (feature, threshold, left, right, value) and
    # its stack of (node, rows, depth, row count, positive count)
    tables, stacks = [], []
    for root in np.split(np.arange(rows.size), np.cumsum([len(s) for s in samples])[:-1]):
        tables.append(([-1], [0.0], [-1], [-1], [0.0]))
        stacks.append([(0, root, 0, root.size, int(y[root].sum()))])
    while True:
        todo, feats = [], []
        for t, stack in enumerate(stacks):
            while stack:
                node, idx, depth, n, pos = stack.pop()
                tables[t][4][node] = pos / n
                if depth >= max_depth or n < 2 * min_leaf or pos in (0, n):
                    continue
                feats.append(np.sort(rngs[t].choice(d, size=feature_subsample, replace=False))
                             if draw else every)
                todo.append((t, node, idx, depth, n, pos))
                break
        if not todo:
            break
        part = np.concatenate([job[2] for job in todo])
        sizes = np.array([job[4] for job in todo])
        gini, feat, thr = _best_splits(columns, part, sizes, np.array(feats), min_leaf)
        node_of = np.repeat(np.arange(len(todo)), sizes)
        goleft = X[part, feat[node_of]] <= thr[node_of]  # all False at a NaN threshold: no split
        n_left = np.bincount(node_of[goleft], minlength=len(todo)).tolist()
        pos_left = np.bincount(node_of[goleft & y[part]], minlength=len(todo)).tolist()
        lefts, rights = part[goleft], part[~goleft]
        lo = ro = 0
        for c, (t, node, _, depth, n, pos) in enumerate(todo):
            nl = n_left[c]
            left_rows, right_rows = lefts[lo:lo + nl], rights[ro:ro + n - nl]
            lo, ro = lo + nl, ro + n - nl
            if not np.isfinite(gini[c]):
                continue
            feature, threshold, left, right, value = tables[t]
            li, ri = len(feature), len(feature) + 1
            feature[node], threshold[node] = int(feat[c]), float(thr[c])
            left[node], right[node] = li, ri
            for column, blank in zip(tables[t], (-1, 0.0, -1, -1, 0.0)):
                column.extend((blank, blank))
            stacks[t].append((li, left_rows, depth + 1, nl, pos_left[c]))
            stacks[t].append((ri, right_rows, depth + 1, n - nl, pos - pos_left[c]))

    return [
        DecisionTree(
            feature=np.asarray(feature, dtype=np.int32),
            threshold=np.asarray(threshold, dtype=float),
            left=np.asarray(left, dtype=np.int32),
            right=np.asarray(right, dtype=np.int32),
            value=np.asarray(value, dtype=float),
            max_depth=max_depth,
            min_leaf=min_leaf,
        )
        for feature, threshold, left, right, value in tables
    ]


def train_tree(
    data: TrainMatrix,
    max_depth: int = 10,
    min_leaf: int = 1,
    feature_subsample: int | None = None,
    rng=None,
) -> DecisionTree:
    """Greedy CART fit. ``feature_subsample`` draws that many candidate
    features per node from rng (all features when None)."""
    return _grow_trees(data.rows, data.labels, [np.arange(data.n)], [ensure_rng(rng)],
                       max_depth, min_leaf, feature_subsample)[0]


# ---------------------------------------------------------------------------
# Balanced bagging + infinitesimal jackknife
# ---------------------------------------------------------------------------

@dataclass
class BaggedClassifier:
    """Bag of trees with recorded bootstrap memberships."""

    trees: list[DecisionTree]
    memberships: np.ndarray         # (B, n_train) int32 draw counts
    undersample_ratio: float
    balanced: bool
    n_features: int

    @property
    def num_trees(self) -> int:
        return len(self.trees)

    def tree_votes(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise LearnerError(f"expected {self.n_features} features, got {X.shape[1]}")
        return _predict_trees(self.trees, X)  # (B, nq)

    def predict_proba(self, X: np.ndarray):
        votes = self.tree_votes(X)
        return votes.mean(axis=0), None

    def held_out_proba(self, X: np.ndarray):
        """(rows, prob) for the rows X the bag was drawn from: each row's
        mean vote over the trees whose bag did not draw it (Breiman's
        out-of-bag estimate), NaN where every tree drew it."""
        out = self.memberships == 0
        with np.errstate(invalid="ignore"):  # 0/0: NaN
            prob = (self.tree_votes(X) * out).sum(axis=0) / out.sum(axis=0)
        return np.arange(out.shape[1]), prob

    def to_dict(self) -> dict:
        # each bag's memberships as [row, draws] pairs of the rows it drew
        bag, row = np.nonzero(self.memberships)
        pairs = np.stack([row, self.memberships[bag, row]], axis=1).tolist()
        ends = np.cumsum(np.bincount(bag, minlength=self.num_trees)).tolist()
        sparse = [pairs[start:end] for start, end in zip([0] + ends, ends)]
        return {
            "kind": "bagged_trees",
            "trees": [t.to_dict() for t in self.trees],
            "n_train": int(self.memberships.shape[1]),
            "memberships": sparse,
            "undersample_ratio": float(self.undersample_ratio),
            "balanced": bool(self.balanced),
            "n_features": int(self.n_features),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BaggedClassifier":
        n = int(d["n_train"])
        mem = np.zeros((len(d["memberships"]), n), dtype=np.int32)
        # a plain loop: converting the pairs to arrays first is slower
        for b, pairs in enumerate(d["memberships"]):
            for j, c in pairs:
                mem[b, j] = c
        return cls(
            trees=[DecisionTree.from_dict(t) for t in d["trees"]],
            memberships=mem,
            undersample_ratio=float(d["undersample_ratio"]),
            balanced=bool(d["balanced"]),
            n_features=int(d["n_features"]),
        )


def train_bagged(
    data: TrainMatrix,
    num_trees: int = 25,
    balanced: bool = True,
    rng=None,
    undersample_ratio: float = 1.0,
    max_depth: int = 10,
    min_leaf: int = 1,
    feature_subsample: int | str | None = "sqrt",
) -> BaggedClassifier:
    """Bagging with optional class balancing.

    Balanced mode bootstraps the positives and draws an undersample of the
    negatives (without replacement) at ``undersample_ratio`` negatives per
    positive, so each tree trains on roughly 1:1 data however extreme the
    original imbalance. Plain mode uses ordinary bootstrap resamples.
    """
    rng = ensure_rng(rng)
    if num_trees < 1:
        raise LearnerError("num_trees must be >= 1")
    if not (math.isfinite(undersample_ratio) and undersample_ratio > 0):
        raise LearnerError(f"undersample_ratio must be finite and > 0, got {undersample_ratio}")
    pos = np.flatnonzero(data.labels)
    neg = np.flatnonzero(~data.labels)
    if balanced and pos.size == 0:
        raise LearnerError("balanced bagging needs at least one positive row")
    if feature_subsample == "sqrt":
        feature_subsample = max(1, math.ceil(math.sqrt(data.d)))

    children = rng.spawn(num_trees)
    samples = []
    memberships = np.zeros((num_trees, data.n), dtype=np.int32)
    for b, child in enumerate(children):
        if balanced:
            take_pos = child.choice(pos, size=pos.size, replace=True)
            n_neg = min(neg.size, max(1, round(undersample_ratio * pos.size)))
            take_neg = child.choice(neg, size=n_neg, replace=False) if n_neg else np.empty(0, int)
            sample = np.concatenate([take_pos, take_neg])
        else:
            sample = child.choice(data.n, size=data.n, replace=True)
        memberships[b] = np.bincount(sample, minlength=data.n)
        samples.append(sample)
    trees = _grow_trees(data.rows, data.labels, samples, children,
                        max_depth, min_leaf, feature_subsample)
    return BaggedClassifier(trees=trees, memberships=memberships,
                            undersample_ratio=undersample_ratio, balanced=balanced,
                            n_features=data.d)


def jackknife_variance_batch(model: BaggedClassifier, X: np.ndarray) -> np.ndarray | None:
    """Infinitesimal-jackknife variance of the bagged prediction per query row.

    Sums the squared bootstrap covariance between draw counts and tree
    predictions over training points, then applies the finite-B bias
    correction, flooring at zero. None for a single tree (undefined). With
    centred draw counts n_c (B, n_train) and centred votes t_c (B, q), the
    sum for query q is t_c[:, q]' G t_c[:, q], G = n_c n_c' / B^2 being the
    B x B Gram matrix of the draws.

    The finite-B bias correction uses the empirical variance of the draw
    counts, sum_j Var_b(N_bj) * Var_b(t) / B. Under a plain size-n
    bootstrap Var(N_j) is about 1 and this reduces to the usual n/B term;
    with balanced undersampling only the rows a bag can actually draw
    contribute, which keeps the correction on the scale of the bags rather
    than the full dataset.
    """
    B = model.num_trees
    if B < 2:
        return None
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n_c = (model.memberships - model.memberships.mean(axis=0, keepdims=True)).astype(float)
    sum_var_n = float((n_c**2).mean(axis=0).sum())
    votes = model.tree_votes(X)                                  # (B, q)
    t_c = votes - votes.mean(axis=0, keepdims=True)
    G = n_c @ n_c.T / B**2                                       # (B, B)
    raw = ((G @ t_c) * t_c).sum(axis=0)
    bias = sum_var_n / B * (t_c**2).mean(axis=0)
    return np.maximum(raw - bias, 0.0)


# ---------------------------------------------------------------------------
# Gaussian-process classifier (Laplace approximation)
# ---------------------------------------------------------------------------

def _rbf(sqdist: np.ndarray, lengthscale: float, signal_var: float) -> np.ndarray:
    return signal_var * np.exp(-0.5 * sqdist / lengthscale**2)


def _sqdist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    d = (A**2).sum(axis=1)[:, None] + (B**2).sum(axis=1)[None, :] - 2.0 * A @ B.T
    return np.maximum(d, 0.0)


@dataclass
class GpClassifier:
    """Laplace-approximation GP classifier state.

    Kept after training: the (possibly subsampled) inputs, the latent
    posterior mode and its likelihood gradient, the Cholesky factor of
    B = I + sqrt(W) K sqrt(W) used for predictions, and the Cholesky factor
    of K + jitter*I used for the exposed latent variance. ``kept_rows``,
    set by ``train_gp`` only, records which of its input rows the
    ``max_points`` cap kept; it is not serialized.
    """

    X: np.ndarray
    y_sign: np.ndarray           # (n,) in {-1, +1}
    lengthscale: float
    signal_var: float
    jitter: float
    f_mode: np.ndarray = field(repr=False, default=None)
    _alpha: np.ndarray = field(repr=False, default=None)
    _sqrt_w: np.ndarray = field(repr=False, default=None)
    _L_b: np.ndarray = field(repr=False, default=None)
    _L_k: np.ndarray = field(repr=False, default=None)
    log_marginal_likelihood: float = 0.0
    kept_rows: np.ndarray = field(repr=False, default=None)

    def kernel(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return _rbf(_sqdist(A, B), self.lengthscale, self.signal_var)

    def predict_proba(self, Xq: np.ndarray):
        """(probability, latent variance) for query rows.

        Probability uses the probit approximation of the logistic averaged
        over the Laplace latent posterior. The latent variance is the
        noise-free GP posterior variance at the query given the training
        inputs: zero (up to jitter) at training points, signal_var far away.
        """
        from scipy.linalg import solve_triangular

        Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
        ks = self.kernel(self.X, Xq)                      # (n, q)
        mean = ks.T @ self._alpha
        v = solve_triangular(self._L_b, self._sqrt_w[:, None] * ks, lower=True)
        var_lap = np.maximum(self.signal_var - (v**2).sum(axis=0), 0.0)
        prob = _sigmoid_stable(mean / np.sqrt(1.0 + np.pi * var_lap / 8.0))
        u = solve_triangular(self._L_k, ks, lower=True)
        var_latent = np.maximum(self.signal_var - (u**2).sum(axis=0), 0.0)
        return prob, var_latent

    def held_out_proba(self, X: np.ndarray):
        """(rows, prob) for the input rows X of ``train_gp``, which the fit
        already holds: the rows its cap kept and their closed-form
        leave-one-out probabilities under the Laplace fit (Vehtari et al.,
        JMLR 2016). The cavity of row i, its Laplace marginal N(f_i, S_ii)
        with its likelihood site removed, has precision tau_i = 1/S_ii - W_i
        and mean (f_i/S_ii - W_i f_i - (t_i - p_i)) / tau_i; its probability
        is the probit approximation ``predict_proba`` uses. Rows the cap
        dropped did not enter the fit, so their plain prediction is held
        out."""
        from scipy.linalg import solve_triangular

        K = self.kernel(self.X, self.X) + self.jitter * np.eye(self.X.shape[0])
        C = solve_triangular(self._L_b, self._sqrt_w[:, None] * K, lower=True)
        s = np.diag(K) - (C**2).sum(axis=0)
        w = self._sqrt_w**2
        tau = 1.0 / s - w
        mean = (self.f_mode / s - w * self.f_mode - self._alpha) / tau
        return self.kept_rows, _sigmoid_stable(mean / np.sqrt(1.0 + np.pi / (8.0 * tau)))

    def to_dict(self) -> dict:
        return {
            "kind": "gp",
            "X": [[float(v) for v in row] for row in self.X],
            "y_sign": [int(v) for v in self.y_sign],
            "lengthscale": float(self.lengthscale),
            "signal_var": float(self.signal_var),
            "jitter": float(self.jitter),
            "f_mode": [float(v) for v in self.f_mode],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GpClassifier":
        """Rebuild the prediction state from the stored latent mode."""
        model = cls(
            X=np.asarray(d["X"], dtype=float),
            y_sign=np.asarray(d["y_sign"], dtype=float),
            lengthscale=float(d["lengthscale"]),
            signal_var=float(d["signal_var"]),
            jitter=float(d["jitter"]),
        )
        f_mode = np.asarray(d.get("f_mode"), dtype=float)
        if f_mode.shape != model.y_sign.shape or not np.all(np.isfinite(f_mode)):
            raise LearnerError(f"f_mode must be a finite vector of length {model.y_sign.size}")
        _finalize_gp(model, f_mode)
        return model


def _sigmoid_stable(x):
    out = np.empty_like(np.asarray(x, dtype=float))
    x = np.asarray(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _log_sigmoid(x):
    return np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))


def _newton_mode(K: np.ndarray, y: np.ndarray):
    """Find the latent posterior mode (logistic likelihood): Newton steps
    until no latent value moves by 1e-6, at most 100 of them.

    Raises on Cholesky failure; the caller escalates jitter.
    """
    from scipy.linalg import solve_triangular

    n = K.shape[0]
    t = (y + 1.0) / 2.0
    f = np.zeros(n)
    eye = np.eye(n)
    for _ in range(100):
        pi = _sigmoid_stable(f)
        w = pi * (1.0 - pi)
        sw = np.sqrt(w)
        B = eye + sw[:, None] * K * sw[None, :]
        L = np.linalg.cholesky(B)
        b = w * f + (t - pi)
        rhs = sw * (K @ b)
        a = b - sw * solve_triangular(L.T, solve_triangular(L, rhs, lower=True), lower=False)
        f_new = K @ a
        delta = float(np.max(np.abs(f_new - f)))
        f = f_new
        if delta < 1e-6:
            break
    return f


def _mode_state(K: np.ndarray, y: np.ndarray, f: np.ndarray):
    """Laplace state at the latent mode f: (pi, sqrt_w, L_b, alpha, lml)."""
    pi = _sigmoid_stable(f)
    sw = np.sqrt(pi * (1.0 - pi))
    L = np.linalg.cholesky(np.eye(K.shape[0]) + sw[:, None] * K * sw[None, :])
    alpha = (y + 1.0) / 2.0 - pi
    lml = float(-0.5 * alpha @ f + _log_sigmoid(y * f).sum() - np.log(np.diag(L)).sum())
    return pi, sw, L, alpha, lml


def _finalize_gp(model: GpClassifier, f_mode: np.ndarray | None = None) -> None:
    """Prediction state at the given latent mode, found by Newton when None."""
    K = model.kernel(model.X, model.X) + model.jitter * np.eye(model.X.shape[0])
    f = _newton_mode(K, model.y_sign) if f_mode is None else f_mode
    _, sw, L, alpha, lml = _mode_state(K, model.y_sign, f)
    model.f_mode, model._sqrt_w, model._L_b, model._alpha = f, sw, L, alpha
    model.log_marginal_likelihood = lml
    model._L_k = np.linalg.cholesky(K)


def median_heuristic_lengthscale(X: np.ndarray) -> float:
    """Median nonzero pairwise Euclidean distance; 1.0 for degenerate data."""
    from scipy.spatial.distance import pdist

    if X.shape[0] < 2:
        return 1.0
    d = pdist(X)
    d = d[d > 0]
    return float(np.median(d)) if d.size else 1.0


def _stratified_cap(labels: np.ndarray, max_points: int, rng: np.random.Generator) -> np.ndarray:
    """Indices capped at max_points, keeping every positive row."""
    n = labels.shape[0]
    if n <= max_points:
        return np.arange(n)
    pos = np.flatnonzero(labels)
    neg = np.flatnonzero(~labels)
    room = max(max_points - pos.size, 0)
    take_neg = np.sort(rng.choice(neg, size=min(room, neg.size), replace=False)) if room else np.empty(0, int)
    return np.sort(np.concatenate([pos, take_neg]))


def train_gp(
    data: TrainMatrix,
    lengthscale: float | None = None,
    signal_var: float = 1.0,
    jitter: float = 1e-6,
    optimize_hypers: bool = False,
    max_points: int = 400,
    rng=None,
) -> GpClassifier:
    """Fit the Laplace GP on (at most) max_points stratified rows.

    ``lengthscale`` None takes the median pairwise distance of the kept
    rows. Newton iterations run until the mode moves by less than 1e-6 or
    100 iterations. On Cholesky failure the jitter is escalated tenfold up
    to 1e-2 before giving up. ``optimize_hypers`` refines the fitted
    lengthscale and signal variance by ML-II.
    """
    if lengthscale is not None and not lengthscale > 0:
        raise LearnerError(f"lengthscale must be > 0, got {lengthscale}")
    if not (math.isfinite(signal_var) and signal_var > 0):
        raise LearnerError(f"signal_var must be finite and > 0, got {signal_var}")
    if not (math.isfinite(jitter) and jitter >= 0):
        raise LearnerError(f"jitter must be finite and >= 0, got {jitter}")
    rng = ensure_rng(rng)
    keep = _stratified_cap(data.labels, max_points, rng)
    if keep.size < 2:
        raise LearnerError("GP needs at least two rows after subsampling")
    X = data.rows[keep]
    y = np.where(data.labels[keep], 1.0, -1.0)
    ell = lengthscale if lengthscale is not None else median_heuristic_lengthscale(X)

    last_err = None
    while jitter <= 1e-2:
        model = GpClassifier(X=X, y_sign=y, lengthscale=ell,
                             signal_var=signal_var, jitter=jitter)
        try:
            _finalize_gp(model)
        except np.linalg.LinAlgError as err:
            last_err = err
            jitter = jitter * 10 if jitter > 0 else 1e-8
            continue
        if optimize_hypers:
            _optimize_hypers(model)
        model.kept_rows = keep
        return model
    raise LearnerError(f"kernel matrix not positive definite up to jitter 1e-2: {last_err}")


def gp_lml_and_gradient(model: GpClassifier, lengthscale=None, signal_var=None):
    """Laplace log marginal likelihood and its gradient.

    Evaluated at the given hyperparameters (defaults to the model's own),
    refinding the mode there. Returns (lml, dlml/dlengthscale,
    dlml/dsignal_var); the gradient accounts for the dependence of the
    mode on the hyperparameters.
    """
    from scipy.linalg import cho_solve, solve_triangular

    ell = model.lengthscale if lengthscale is None else float(lengthscale)
    sv = model.signal_var if signal_var is None else float(signal_var)
    X, y = model.X, model.y_sign
    n = X.shape[0]
    d2 = _sqdist(X, X)
    K_rbf = _rbf(d2, ell, sv)
    K = K_rbf + model.jitter * np.eye(n)
    f = _newton_mode(K, y)
    pi, sw, L, alpha, lml = _mode_state(K, y, f)

    # R = sqrt(W) B^-1 sqrt(W); posterior covariance diag via C = L \ (sW K)
    R = sw[:, None] * cho_solve((L, True), np.diag(sw))
    C = solve_triangular(L, sw[:, None] * K, lower=True)
    post_diag = np.diag(K) - (C**2).sum(axis=0)
    dw_df = pi * (1.0 - pi) * (1.0 - 2.0 * pi)   # dW/df
    s2 = -0.5 * post_diag * dw_df                # dZ/df at the mode

    grads = []
    for dK in (K_rbf * d2 / ell**3, K_rbf / sv):
        s1 = 0.5 * alpha @ (dK @ alpha) - 0.5 * np.sum(R * dK)
        b = dK @ alpha
        s3 = b - K @ (R @ b)
        grads.append(float(s1 + s2 @ s3))
    return lml, grads[0], grads[1]


def _optimize_hypers(model: GpClassifier) -> None:
    """ML-II on (log lengthscale, log signal variance) via L-BFGS-B."""
    from scipy.optimize import minimize

    def objective(theta):
        ell, sv = np.exp(theta)
        lml, g_ell, g_sv = gp_lml_and_gradient(model, ell, sv)
        return -lml, -np.array([g_ell * ell, g_sv * sv])

    x0 = np.log([model.lengthscale, model.signal_var])
    res = minimize(objective, x0, jac=True, method="L-BFGS-B",
                   bounds=[(-5, 8), (-6, 6)], options={"maxiter": 50})
    ell, sv = np.exp(res.x)
    model.lengthscale = float(ell)
    model.signal_var = float(sv)
    _finalize_gp(model)


def deserialize_learner(blob: dict):
    kind = blob.get("kind")
    if kind == "bagged_trees":
        return BaggedClassifier.from_dict(blob)
    if kind == "gp":
        return GpClassifier.from_dict(blob)
    raise LearnerError(f"unknown learner kind {kind!r}")
