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
  that fitting each alone gives. They are one node table (``TreeTable``)
  of three arrays, one entry per node: it predicts all of them together,
  is what ``model.json`` stores, and is checked when it loads, so that
  every walk from a root ends at a leaf.
* Balanced bagging: each tree sees a bootstrap of the positives plus an
  undersample of the negatives. A bag stores the Gram matrix of its centred
  draw counts, all that the infinitesimal-jackknife variance of the bagged
  prediction needs of them: their summed variance is B times its trace.
* A Gaussian-process classifier (RBF kernel, logistic likelihood, Laplace
  approximation). Probabilities come from the probit approximation of the
  averaged predictive; the exposed latent variance is the noise-free
  posterior variance of the latent function given the training inputs,
  which vanishes at training points and reverts to the signal variance far
  from data. Its factors are built once (``GpClassifier._factors``): in
  ``train_gp`` for a fit, at the first prediction for a loaded model.

The two learners an ensemble stores, ``BaggedClassifier`` and
``GpClassifier``, write no kind and no feature count of their own: the
ensemble's ``learner_kind`` picks the class that loads them, and its
``n_features`` is passed to their ``from_dict``.

Only the GP uses scipy, and only compiled extensions of it, each loaded
alone from its file when first called (``scipyext.load_extension``). Its
Cholesky factors and triangular solves run on LAPACK's routines from
``scipy.linalg._flapack``, its matrix products on BLAS's from
``scipy.linalg._fblas``: none on numpy's own build of OpenBLAS, whose
second thread pool would contend with scipy's. Its median-heuristic
lengthscale runs on the Euclidean routine of
``scipy.spatial._distance_pybind``. So a GP process loads no
``scipy.linalg`` or ``scipy.spatial``, and a process that loads trees
alone loads no scipy.

Each learner's settings and their defaults are the keyword arguments of
its training function (``train_bagged``, ``train_gp``) and are written
nowhere else: the ensemble and the command line pass settings through
and leave unset ones to these defaults. The training functions check
them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .scipyext import load_extension


class LearnerError(ValueError):
    """Invalid training data or configuration."""


# A loaded field or a setting must hold numbers, integral ones (3, 3.0 or a
# numpy integer) where an integer belongs: a bool, a string or a misplaced
# fraction is an error, not taken as 0 or 1, parsed or truncated.

def int_field(value, what: str, least: int | None = None) -> int:
    """One loaded integer, or an integer setting, at least ``least`` if given."""
    if not (type(value) is int or isinstance(value, np.integer)
            or isinstance(value, float) and value.is_integer()):
        raise LearnerError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise LearnerError(f"{what} must be >= {least}, got {value!r}")
    return int(value)


def _holds_bool(values: list) -> bool:
    """Whether a loaded list, or a list of such lists, holds a JSON true or
    false. numpy gives a list that mixes bools and numbers a numeric dtype,
    so only this scan tells them apart."""
    kinds = set(map(type, values))
    return bool in kinds or (list in kinds and any(_holds_bool(v) for v in values
                                                   if type(v) is list))


def int32_field(values, what: str) -> np.ndarray:
    """A loaded list of integers, as int32."""
    a = np.asarray(values)
    if not (a.dtype.kind in "iuf"
            and np.all((a == np.round(a)) & (a >= -2**31) & (a < 2**31))
            and not (isinstance(values, list) and _holds_bool(values))):
        raise LearnerError(f"{what} must be integers")
    return a.astype(np.int32)


def float_field(value, what: str) -> float:
    """One loaded number."""
    a = np.asarray(value)
    if a.ndim or a.dtype.kind not in "iuf":
        raise LearnerError(f"{what} must be a number, got {value!r}")
    return float(a)


def float_array_field(values, what: str) -> np.ndarray:
    """A loaded list of numbers, or of such lists, as float."""
    a = np.asarray(values)
    if a.dtype.kind not in "iuf" or (isinstance(values, list) and _holds_bool(values)):
        raise LearnerError(f"{what} must be numbers")
    return a.astype(float, copy=False)


@dataclass(frozen=True)
class TrainMatrix:
    """Feature rows with binary labels."""

    rows: np.ndarray     # (n, d) float
    labels: np.ndarray   # (n,) bool

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        labels = np.asarray(self.labels, dtype=bool)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise LearnerError("rows must be a nonempty (n, d) matrix")
        if labels.shape != (rows.shape[0],):
            raise LearnerError("labels must align with rows")
        if not np.all(np.isfinite(rows)):
            raise LearnerError("rows contain non-finite values")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


# ---------------------------------------------------------------------------
# Decision trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TreeTable:
    """The CART trees of one bag in one flat node table.

    Tree t's root is node t. An inner node i sends a row whose value of
    ``feature[i]`` is at most its threshold ``value[i]`` to node ``left[i]``
    and any other row to node ``left[i] + 1``; both children come after i.
    ``feature == -1`` marks a leaf, whose ``value`` is the positive fraction
    of the rows it received; a leaf's ``left`` is -1 and is not read.
    """

    feature: np.ndarray    # (nodes,) int32
    left: np.ndarray       # (nodes,) int32
    value: np.ndarray      # (nodes,) float: an inner node's threshold, a leaf's vote
    num_trees: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Each tree's leaf value for each row of X, shape (trees, rows). Every
        (tree, row) pair descends one level per step, all trees together."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        q, d = X.shape
        # pair i is tree i // q at row i % q, whose row starts at x[row_at[i]]
        x = X.ravel()
        node = np.repeat(np.arange(self.num_trees), q)
        row_at = np.tile(np.arange(0, q * d, d), self.num_trees)
        pair = np.arange(node.size)  # the pairs still at an inner node
        while pair.size:
            at = node[pair]
            f = self.feature[at]
            inner = f >= 0
            pair, at, f = pair[inner], at[inner], f[inner]
            goleft = x[row_at[pair] + f] <= self.value[at]
            node[pair] = self.left[at] + ~goleft
        return self.value[node].reshape(self.num_trees, q)

    def to_dict(self) -> dict:
        return {"feature": self.feature.tolist(), "left": self.left.tolist(),
                "value": self.value.tolist()}

    @classmethod
    def from_dict(cls, d: dict, num_trees: int, n_features: int) -> "TreeTable":
        """The table of ``num_trees`` trees over ``n_features`` features,
        checked so that every walk from a root ends, at a leaf whose value is
        a probability: children lie after their parent and inside the table,
        and thresholds are finite."""
        table = cls(feature=int32_field(d["feature"], "tree table: feature"),
                    left=int32_field(d["left"], "tree table: left"),
                    value=float_array_field(d["value"], "tree table: value"),
                    num_trees=num_trees)
        nodes = table.feature.size
        if not (table.left.shape == table.value.shape == (nodes,) and 1 <= num_trees <= nodes):
            raise LearnerError(f"a table of {num_trees} trees needs feature, left and value "
                               f"arrays of one length, at least {num_trees}")
        inner = table.feature >= 0
        at, leaf = np.flatnonzero(inner), table.value[~inner]
        for bad, what in (
            (np.any(table.feature < -1) or np.any(table.feature >= n_features),
             f"features must lie in [-1, {n_features}) for n_features={n_features}"),
            (np.any(table.left[at] <= at) or np.any(table.left[at] > nodes - 2),
             f"an inner node's children must come after it, within the {nodes} nodes"),
            (not np.all(np.isfinite(table.value[at])), "inner thresholds must be finite"),
            (not np.all((leaf >= 0) & (leaf <= 1)), "leaf values must lie in [0, 1]"),
        ):
            if bad:
                raise LearnerError(f"tree table: {what}")
        return table


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
    valid = (left_n >= min_leaf) & (right_n >= min_leaf)
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
    call then splits the nodes all trees reached. Returns one ``TreeTable``:
    the roots first, then each split's two children as it is made.
    """
    max_depth = int_field(max_depth, "max_depth", 1)
    min_leaf = int_field(min_leaf, "min_leaf", 1)
    if min(len(s) for s in samples) < min_leaf:
        raise LearnerError(f"need at least min_leaf={min_leaf} rows")
    rows = np.concatenate(samples)
    X, y = X[rows], y[rows]
    columns = _sorted_columns(X, y)
    d = X.shape[1]
    draw = feature_subsample is not None and feature_subsample < d
    every = list(range(d))

    # the bag's node table (feature, left, value), and per tree its stack
    # of (node, rows, depth, row count, positive count)
    T = len(samples)
    feature, left, value = [-1] * T, [-1] * T, [0.0] * T
    stacks = [[(t, root, 0, root.size, int(y[root].sum()))] for t, root in
              enumerate(np.split(np.arange(rows.size), np.cumsum([len(s) for s in samples])[:-1]))]
    while True:
        todo, feats = [], []
        for t, stack in enumerate(stacks):
            while stack:
                node, idx, depth, n, pos = stack.pop()
                value[node] = pos / n
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
            li = len(feature)
            feature[node], left[node], value[node] = int(feat[c]), li, float(thr[c])
            for column, blank in ((feature, -1), (left, -1), (value, 0.0)):
                column.extend((blank, blank))
            stacks[t].append((li, left_rows, depth + 1, nl, pos_left[c]))
            stacks[t].append((li + 1, right_rows, depth + 1, n - nl, pos - pos_left[c]))

    return TreeTable(feature=np.asarray(feature, dtype=np.int32),
                     left=np.asarray(left, dtype=np.int32),
                     value=np.asarray(value, dtype=float), num_trees=T)


def train_tree(
    data: TrainMatrix,
    max_depth: int = 10,
    min_leaf: int = 1,
    feature_subsample: int | None = None,
    rng=None,
) -> TreeTable:
    """Greedy CART fit of one tree. ``feature_subsample`` draws that many
    candidate features per node from rng (all features when None)."""
    return _grow_trees(data.rows, data.labels, [np.arange(data.n)], [np.random.default_rng(rng)],
                       max_depth, min_leaf, feature_subsample)


# ---------------------------------------------------------------------------
# Balanced bagging + infinitesimal jackknife
# ---------------------------------------------------------------------------

@dataclass
class BaggedClassifier:
    """Bag of trees, one node table, with the statistic of its (B, n_train)
    draw counts N that ``jackknife_variance_batch`` reads: with n_c = N -
    N.mean(axis=0), ``draw_gram`` is n_c n_c' / B^2. ``memberships``, N
    itself, is set by ``train_bagged`` only, for ``held_out_proba``; it is
    not serialized, and neither is ``n_features``, which the ensemble
    stores.
    """

    trees: TreeTable
    draw_gram: np.ndarray           # (B, B) float
    n_features: int
    memberships: np.ndarray = field(repr=False, default=None)  # (B, n_train) int32

    @classmethod
    def from_draws(cls, trees: TreeTable, memberships: np.ndarray, n_features: int):
        """The bag of ``trees`` whose bootstrap draw counts are ``memberships``."""
        B = memberships.shape[0]
        n_c = (memberships - memberships.mean(axis=0, keepdims=True)).astype(float)
        return cls(trees=trees, draw_gram=n_c @ n_c.T / B**2, n_features=n_features,
                   memberships=memberships)

    @property
    def num_trees(self) -> int:
        return self.trees.num_trees

    def tree_votes(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise LearnerError(f"expected {self.n_features} features, got {X.shape[1]}")
        return self.trees.predict(X)  # (B, nq)

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
        return {"trees": self.trees.to_dict(), "draw_gram": self.draw_gram.tolist()}

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "BaggedClassifier":
        """The bag over ``n_features`` features of as many trees as its
        checked Gram has rows."""
        gram = float_array_field(d["draw_gram"], "draw_gram")
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1] or not np.all(np.isfinite(gram)):
            raise LearnerError("draw_gram must be a square matrix of finite numbers")
        if np.any(np.diag(gram) < 0):
            raise LearnerError("draw_gram's diagonal must be >= 0")
        return cls(trees=TreeTable.from_dict(d["trees"], gram.shape[0], n_features),
                   draw_gram=gram, n_features=n_features)


def train_bagged(
    data: TrainMatrix,
    num_trees: int = 25,
    rng=None,
    undersample_ratio: float = 1.0,
    max_depth: int = 10,
    min_leaf: int = 1,
    feature_subsample: int | str | None = "sqrt",
) -> BaggedClassifier:
    """Balanced bagging: each tree bootstraps the positives and draws an
    undersample of the negatives (without replacement) at
    ``undersample_ratio`` negatives per positive, so it trains on roughly
    1:1 data however extreme the original imbalance.
    """
    rng = np.random.default_rng(rng)
    num_trees = int_field(num_trees, "num_trees", 1)
    if not (math.isfinite(undersample_ratio) and undersample_ratio > 0):
        raise LearnerError(f"undersample_ratio must be finite and > 0, got {undersample_ratio}")
    pos = np.flatnonzero(data.labels)
    neg = np.flatnonzero(~data.labels)
    if pos.size == 0:
        raise LearnerError("balanced bagging needs at least one positive row")
    if feature_subsample == "sqrt":
        feature_subsample = max(1, math.ceil(math.sqrt(data.d)))

    children = rng.spawn(num_trees)
    samples = []
    memberships = np.zeros((num_trees, data.n), dtype=np.int32)
    n_neg = min(neg.size, max(1, round(undersample_ratio * pos.size)))
    for b, child in enumerate(children):
        take_pos = child.choice(pos, size=pos.size, replace=True)
        take_neg = child.choice(neg, size=n_neg, replace=False) if n_neg else np.empty(0, int)
        sample = np.concatenate([take_pos, take_neg])
        memberships[b] = np.bincount(sample, minlength=data.n)
        samples.append(sample)
    trees = _grow_trees(data.rows, data.labels, samples, children,
                        max_depth, min_leaf, feature_subsample)
    return BaggedClassifier.from_draws(trees, memberships, data.d)


def jackknife_variance_batch(model: BaggedClassifier, X: np.ndarray) -> np.ndarray | None:
    """Infinitesimal-jackknife variance of the bagged prediction per query row.

    Sums the squared bootstrap covariance between draw counts and tree
    predictions over training points, then applies the finite-B bias
    correction, flooring at zero. None for a single tree (undefined). With
    centred votes t_c (B, q), the sum for query q is t_c[:, q]' G t_c[:, q],
    G being the bag's ``draw_gram``, so the draw counts themselves are not
    needed.

    The finite-B bias correction uses the empirical variance of the draw
    counts, sum_j Var_b(N_bj) * Var_b(t) / B, with sum_j Var_b(N_bj) =
    B trace(G). Under a plain size-n bootstrap Var(N_j) is about 1 and this
    reduces to the usual n/B term; with balanced undersampling only the
    rows a bag can actually draw contribute, which keeps the correction on
    the scale of the bags rather than the full dataset.
    """
    B = model.num_trees
    if B < 2:
        return None
    votes = model.tree_votes(X)                                  # (B, q)
    t_c = votes - votes.mean(axis=0, keepdims=True)
    raw = ((model.draw_gram @ t_c) * t_c).sum(axis=0)
    bias = np.trace(model.draw_gram) * (t_c**2).mean(axis=0)
    return np.maximum(raw - bias, 0.0)


# ---------------------------------------------------------------------------
# Gaussian-process classifier (Laplace approximation)
# ---------------------------------------------------------------------------

def _rbf(sqdist: np.ndarray, lengthscale: float, signal_var: float) -> np.ndarray:
    """``signal_var * exp(-0.5 * sqdist / lengthscale**2)`` in one new array,
    each step in the same order, so bit for bit."""
    k = np.multiply(-0.5, sqdist)
    k /= lengthscale**2
    np.exp(k, out=k)
    k *= signal_var
    return k


def _lapack():
    """scipy's LAPACK binding, ``scipy.linalg._flapack``, loaded alone."""
    return load_extension("linalg._flapack")


def _blas():
    """scipy's BLAS binding, ``scipy.linalg._fblas``, loaded alone."""
    return load_extension("linalg._fblas")


def _cholesky(A: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of A, Fortran-ordered, from its lower
    triangle: LAPACK's dpotrf, as ``scipy.linalg.cholesky(A, lower=True)``
    calls it, so bit for bit, but without that function's finite check: a
    NaN in A gives NaN in L, which ``_solve_lower`` rejects. Where A is not
    positive definite it raises LinAlgError, which ``train_gp`` answers with
    more jitter."""
    L, info = _lapack().dpotrf(A, lower=1, clean=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrf")
    return L


def _solve_lower(L: np.ndarray, B: np.ndarray, transposed: bool = False) -> np.ndarray:
    """x with L x = B, or L.T x = B where ``transposed``, for a lower
    triangular, Fortran-ordered L such as ``_cholesky`` returns.

    It is ``scipy.linalg.solve_triangular(L, B, lower=True)`` bit for bit,
    with its checks: for a Fortran-ordered L that function hands LAPACK's
    dtrtrs L itself, as a lower triangle, and so does this. A non-finite
    operand raises ValueError, a zero on the diagonal LinAlgError.
    """
    if not (np.isfinite(L).all() and np.isfinite(B).all()):
        raise ValueError("array must not contain infs or NaNs")
    x, info = _lapack().dtrtrs(L, B, lower=1, trans=int(transposed))
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def _gemm_t(alpha: float, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``alpha * A @ B.T``, Fortran-ordered: BLAS's dgemm, as
    ``scipy.linalg.blas.dgemm(alpha, A, B, trans_b=True)``."""
    return _blas().dgemm(alpha, A, B, trans_b=1)


def _gemv(A: np.ndarray, x: np.ndarray, transposed: bool = False) -> np.ndarray:
    """``A @ x``, or ``A.T @ x`` where ``transposed``: BLAS's dgemv, as
    ``scipy.linalg.blas.dgemv(1.0, A, x, trans=transposed)``. It reads a
    Fortran-ordered A without a copy."""
    return _blas().dgemv(1.0, A, x, trans=int(transposed))


def _add_to_diagonal(A: np.ndarray, value: float) -> np.ndarray:
    """A with ``value`` added to its diagonal, in place and in A's memory
    order: ``A + value * np.eye(n)`` bit for bit where A holds no -0.0."""
    A[np.diag_indices_from(A)] += value
    return A


def _sqdist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared distances ``max(|a|^2 + |b|^2 - 2 a.b, 0)``, each step in
    that order, in one Fortran-ordered (n, q) array: the sums of squares
    are added and subtracted a block of columns of about 64k entries at a
    time."""
    d = _gemm_t(2.0, A, B)
    a2, b2 = (A**2).sum(axis=1), (B**2).sum(axis=1)
    columns = d.T  # C-ordered (q, n): row j is column j of d
    step = max(65536 // max(columns.shape[1], 1), 1)
    for j in range(0, columns.shape[0], step):
        block = columns[j:j + step]
        np.subtract(a2 + b2[j:j + step, None], block, out=block)
    return np.maximum(d, 0.0, out=d)


@dataclass
class GpClassifier:
    """Laplace-approximation GP classifier state.

    Its document stores the (possibly subsampled) inputs and the latent
    posterior mode ``f_mode``. The rest of its state, ``_factors``, is built
    once, by ``train_gp`` for a fit and at the first prediction for a loaded
    model: sqrt(W) at the mode, the Cholesky factor of
    B = I + sqrt(W) K sqrt(W) used for predictions, the likelihood gradient
    at the mode, and the Cholesky factor of K + jitter*I used for the
    exposed latent variance. ``kept_rows``, set by ``train_gp`` only,
    records which of its input rows the ``max_points`` cap kept; it is not
    serialized.
    """

    X: np.ndarray
    y_sign: np.ndarray           # (n,) in {-1, +1}
    lengthscale: float
    signal_var: float
    jitter: float
    f_mode: np.ndarray = field(repr=False, default=None)
    kept_rows: np.ndarray = field(repr=False, default=None)

    def kernel(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return _rbf(_sqdist(A, B), self.lengthscale, self.signal_var)

    @cached_property
    def _factors(self):
        """(sqrt_w, L_b, alpha, L_k) at the latent mode: the stored one of a
        loaded model, or, where ``f_mode`` is None, the one Newton's method
        finds, which is then stored. Raises LinAlgError where a Cholesky
        factorization fails; ``train_gp`` then escalates the jitter."""
        K = _add_to_diagonal(self.kernel(self.X, self.X), self.jitter)
        if self.f_mode is None:
            self.f_mode = _newton_mode(K, self.y_sign)
        _, sw, L, alpha, _ = _mode_state(K, self.y_sign, self.f_mode)
        return sw, L, alpha, _cholesky(K)

    def predict_proba(self, Xq: np.ndarray):
        """(probability, latent variance) for query rows.

        Probability uses the probit approximation of the logistic averaged
        over the Laplace latent posterior. The latent variance is the
        noise-free GP posterior variance at the query given the training
        inputs: zero (up to jitter) at training points, signal_var far away.
        """
        Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
        sqrt_w, L_b, alpha, L_k = self._factors
        # (n, q) arrays: the solves are squared in place, and each is dropped
        # once used, which bounds the peak memory of predicting many rows
        ks = self.kernel(self.X, Xq)
        mean = _gemv(ks, alpha, transposed=True)
        v = _solve_lower(L_b, sqrt_w[:, None] * ks)
        var_lap = np.maximum(self.signal_var - np.square(v, out=v).sum(axis=0), 0.0)
        del v
        prob = _sigmoid_stable(mean / np.sqrt(1.0 + np.pi * var_lap / 8.0))
        u = _solve_lower(L_k, ks)
        del ks
        var_latent = np.maximum(self.signal_var - np.square(u, out=u).sum(axis=0), 0.0)
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
        sqrt_w, L_b, alpha, _ = self._factors
        K = _add_to_diagonal(self.kernel(self.X, self.X), self.jitter)
        C = _solve_lower(L_b, sqrt_w[:, None] * K)
        s = np.diag(K) - (C**2).sum(axis=0)
        w = sqrt_w**2
        tau = 1.0 / s - w
        mean = (self.f_mode / s - w * self.f_mode - alpha) / tau
        return self.kept_rows, _sigmoid_stable(mean / np.sqrt(1.0 + np.pi / (8.0 * tau)))

    def to_dict(self) -> dict:
        return {
            "X": [[float(v) for v in row] for row in self.X],
            "y_sign": [int(v) for v in self.y_sign],
            "lengthscale": float(self.lengthscale),
            "signal_var": float(self.signal_var),
            "jitter": float(self.jitter),
            "f_mode": [float(v) for v in self.f_mode],
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "GpClassifier":
        """The stored model over ``n_features`` features, its fields checked;
        its factors are built from the stored latent mode at the first
        prediction."""
        model = cls(
            X=float_array_field(d["X"], "X"),
            y_sign=float_array_field(d["y_sign"], "y_sign"),
            lengthscale=float_field(d["lengthscale"], "lengthscale"),
            signal_var=float_field(d["signal_var"], "signal_var"),
            jitter=float_field(d["jitter"], "jitter"),
        )
        _check_hyperparameters(model.lengthscale, model.signal_var, model.jitter)
        n = model.y_sign.size
        if model.y_sign.ndim != 1 or not np.all(np.abs(model.y_sign) == 1.0):
            raise LearnerError("y_sign must be a list of -1 and +1")
        if model.X.shape != (n, n_features) or not np.all(np.isfinite(model.X)):
            raise LearnerError(f"X must be a finite matrix of {n} rows, one per y_sign entry, "
                               f"and the ensemble's n_features={n_features} columns")
        f_mode = float_array_field(d["f_mode"], "f_mode")
        if f_mode.shape != model.y_sign.shape or not np.all(np.isfinite(f_mode)):
            raise LearnerError(f"f_mode must be a finite vector of length {model.y_sign.size}")
        model.f_mode = f_mode
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
    t = (y + 1.0) / 2.0
    f = np.zeros(K.shape[0])
    for _ in range(100):
        pi = _sigmoid_stable(f)
        w = pi * (1.0 - pi)
        sw = np.sqrt(w)
        L = _cholesky(_laplace_b(K, sw))
        b = w * f + (t - pi)
        rhs = sw * _gemv(K, b)
        a = b - sw * _solve_lower(L, _solve_lower(L, rhs), transposed=True)
        f_new = _gemv(K, a)
        delta = float(np.max(np.abs(f_new - f)))
        f = f_new
        if delta < 1e-6:
            break
    return f


def _laplace_b(K: np.ndarray, sw: np.ndarray) -> np.ndarray:
    """B = I + sqrt(W) K sqrt(W), in K's memory order."""
    return _add_to_diagonal(sw[:, None] * K * sw[None, :], 1.0)


def _mode_state(K: np.ndarray, y: np.ndarray, f: np.ndarray):
    """Laplace state at the latent mode f: (pi, sqrt_w, L_b, alpha, lml)."""
    pi = _sigmoid_stable(f)
    sw = np.sqrt(pi * (1.0 - pi))
    L = _cholesky(_laplace_b(K, sw))
    alpha = (y + 1.0) / 2.0 - pi
    lml = float(-0.5 * alpha @ f + _log_sigmoid(y * f).sum() - np.log(np.diag(L)).sum())
    return pi, sw, L, alpha, lml


def median_heuristic_lengthscale(X: np.ndarray) -> float:
    """Median nonzero pairwise Euclidean distance; 1.0 for degenerate data.
    The distances come from the compiled routine that
    ``scipy.spatial.distance.pdist(X)`` calls, loaded alone."""
    if X.shape[0] < 2:
        return 1.0
    d = load_extension("spatial._distance_pybind").pdist_euclidean(X)
    d = d[d > 0]
    return float(np.median(d)) if d.size else 1.0


def _stratified_cap(labels: np.ndarray, max_points: int, rng: np.random.Generator) -> np.ndarray:
    """Indices capped at max_points, keeping every positive row: more than
    max_points where the positives alone exceed it."""
    n = labels.shape[0]
    if n <= max_points:
        return np.arange(n)
    pos = np.flatnonzero(labels)
    take_neg = rng.choice(np.flatnonzero(~labels), size=max(max_points - pos.size, 0),
                          replace=False)
    return np.sort(np.concatenate([pos, take_neg]))


def _check_hyperparameters(lengthscale: float | None, signal_var: float, jitter: float) -> None:
    """Raise unless lengthscale (None: the median heuristic) and signal_var
    are finite and > 0 and jitter is finite and >= 0."""
    for name, value in (("lengthscale", lengthscale), ("signal_var", signal_var)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise LearnerError(f"{name} must be finite and > 0, got {value}")
    if not (math.isfinite(jitter) and jitter >= 0):
        raise LearnerError(f"jitter must be finite and >= 0, got {jitter}")


def train_gp(
    data: TrainMatrix,
    lengthscale: float | None = None,
    signal_var: float = 1.0,
    jitter: float = 1e-6,
    max_points: int = 400,
    rng=None,
) -> GpClassifier:
    """Fit the Laplace GP on at most max_points rows: every positive row,
    and a uniform draw of the negatives that fills the rest. The kept rows
    must hold both classes, so max_points must exceed the positive count.

    ``lengthscale`` None takes the median pairwise distance of the kept
    rows. Newton iterations run until the mode moves by less than 1e-6 or
    100 iterations. On Cholesky failure the jitter is escalated tenfold up
    to 1e-2 before giving up.
    """
    _check_hyperparameters(lengthscale, signal_var, jitter)
    max_points = int_field(max_points, "max_points", 2)
    rng = np.random.default_rng(rng)
    keep = _stratified_cap(data.labels, max_points, rng)
    pos = int(data.labels[keep].sum())
    if pos in (0, keep.size):
        raise LearnerError(f"the GP needs positive and negative rows, but {pos} of the "
                           f"{keep.size} rows it keeps are positive: max_points={max_points} "
                           "keeps every positive row and fills the rest with negatives")
    X = data.rows[keep]
    y = np.where(data.labels[keep], 1.0, -1.0)
    ell = lengthscale if lengthscale is not None else median_heuristic_lengthscale(X)

    last_err = None
    while jitter <= 1e-2:
        model = GpClassifier(X=X, y_sign=y, lengthscale=ell,
                             signal_var=signal_var, jitter=jitter)
        try:
            model._factors  # built here, so that a failed Cholesky escalates the jitter
        except np.linalg.LinAlgError as err:
            last_err = err
            jitter = jitter * 10 if jitter > 0 else 1e-8
            continue
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
    ell = model.lengthscale if lengthscale is None else float(lengthscale)
    sv = model.signal_var if signal_var is None else float(signal_var)
    X, y = model.X, model.y_sign
    d2 = _sqdist(X, X)
    K_rbf = _rbf(d2, ell, sv)
    K = _add_to_diagonal(K_rbf.copy(order="F"), model.jitter)
    f = _newton_mode(K, y)
    pi, sw, L, alpha, lml = _mode_state(K, y, f)

    # R = sqrt(W) B^-1 sqrt(W); posterior covariance diag via C = L \ (sW K).
    # C's solve checks that L and sw are finite, as cho_solve did.
    C = _solve_lower(L, sw[:, None] * K)
    R = sw[:, None] * _lapack().dpotrs(L, np.diag(sw), lower=1)[0]
    post_diag = np.diag(K) - (C**2).sum(axis=0)
    dw_df = pi * (1.0 - pi) * (1.0 - 2.0 * pi)   # dW/df
    s2 = -0.5 * post_diag * dw_df                # dZ/df at the mode

    grads = []
    for dK in (K_rbf * d2 / ell**3, K_rbf / sv):
        b = _gemv(dK, alpha)
        s1 = 0.5 * alpha @ b - 0.5 * np.sum(R * dK)
        s3 = b - _gemv(K, _gemv(R, b))
        grads.append(float(s1 + s2 @ s3))
    return lml, grads[0], grads[1]
