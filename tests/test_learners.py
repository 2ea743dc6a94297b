import json
import math

import numpy as np
import pytest

from patrolkit.learners import (
    BaggedClassifier,
    LearnerError,
    TrainMatrix,
    TreeTable,
    _best_splits,
    _sorted_columns,
    jackknife_variance_batch,
    train_bagged,
    train_tree,
)
from patrolkit.iware import IWareEnsemble, IwareError, ThresholdSet
from patrolkit.metrics import ScoredSet, auc


def matrix(rows, labels):
    rows = np.asarray(rows, dtype=float)
    return TrainMatrix(rows=rows, labels=np.asarray(labels, bool))


def canonical(feature, threshold, left, right, value, node):
    """The tree below ``node`` as nested (feature, threshold, left, right)
    tuples with leaf values: equal for equal trees however they are numbered."""
    if feature[node] < 0:
        return float(value[node])
    return (int(feature[node]), float(threshold[node]),
            canonical(feature, threshold, left, right, value, left[node]),
            canonical(feature, threshold, left, right, value, right[node]))


def table_tree(table: TreeTable, t: int = 0):
    """Tree t of a table, in canonical form: ``value`` holds the thresholds
    of its inner nodes and the votes of its leaves."""
    return canonical(table.feature, table.value, table.left, table.left + 1,
                     table.value, t)


class TestTrainTree:
    def test_pure_positive_single_leaf(self):
        t = train_tree(matrix([[0.0], [1.0]], [1, 1]), rng=0)
        assert t.feature[0] == -1 and t.value[0] == 1.0

    def test_perfect_split_one_dim(self):
        t = train_tree(matrix([[0.0], [1.0]], [0, 1]), rng=0)
        assert t.feature[0] == 0 and 0.0 < t.value[0] < 1.0
        assert t.predict(np.array([[0.0], [1.0]]))[0] == pytest.approx([0.0, 1.0])

    def test_xor_depth_two_perfect(self):
        X = [[0, 0], [0, 1], [1, 0], [1, 1]]
        y = [0, 1, 1, 0]
        t = train_tree(matrix(X, y), max_depth=2, min_leaf=1, rng=0)
        assert t.predict(np.asarray(X, float))[0] == pytest.approx(y)

    def test_min_leaf_respected(self):
        X = [[i] for i in range(10)]
        y = [0] * 9 + [1]
        t = train_tree(matrix(X, y), max_depth=8, min_leaf=3, rng=0)
        # the lone positive cannot be isolated: every leaf has >= 3 rows
        def leaf_sizes(node, idx):
            if t.feature[node] < 0:
                return [len(idx)]
            go = np.asarray(X, float)[idx, t.feature[node]] <= t.value[node]
            return leaf_sizes(t.left[node], idx[go]) + leaf_sizes(t.left[node] + 1, idx[~go])
        assert min(leaf_sizes(0, np.arange(10))) >= 3

    def test_deterministic_tie_break_prefers_low_feature(self):
        # both features split perfectly; feature 0 must win
        X = [[0, 0], [1, 1]]
        t = train_tree(matrix(X, [0, 1]), rng=0)
        assert t.feature[0] == 0

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(5)
        X = rng.random((40, 3))
        y = X[:, 1] > 0.6
        t = train_tree(matrix(X, y), max_depth=4, rng=1)
        t2 = TreeTable.from_dict(json.loads(json.dumps(t.to_dict())), 1, 3)
        assert table_tree(t2) == table_tree(t)
        np.testing.assert_array_equal(t.predict(X), t2.predict(X))

    def test_split_table_equals_per_feature_loop(self):
        # the per-feature scan that _best_splits's one table replaces; same
        # arithmetic, so the results must be equal, not close
        def loop_split(X, y, feat_ids, min_leaf):
            n, total_pos, best = y.shape[0], int(y.sum()), None
            for f in feat_ids:
                order = np.argsort(X[:, f], kind="stable")
                xs, cum_pos = X[order, f], np.cumsum(y[order])
                left_n = np.arange(1, n)
                right_n = n - left_n
                valid = (xs[:-1] < xs[1:]) & (left_n >= min_leaf) & (right_n >= min_leaf)
                if not valid.any():
                    continue
                pl = cum_pos[:-1] / left_n
                pr = (total_pos - cum_pos[:-1]) / right_n
                gini = (left_n * 2 * pl * (1 - pl) + right_n * 2 * pr * (1 - pr)) / n
                gini = np.where(valid, gini, np.inf)
                i = int(np.argmin(gini))
                if best is None or gini[i] < best[0]:
                    best = (float(gini[i]), int(f), float(0.5 * (xs[i] + xs[i + 1])))
            return best

        rng = np.random.default_rng(11)
        for case in range(2000):
            n, d = int(rng.integers(2, 30)), int(rng.integers(1, 6))
            if case % 2:  # few distinct values: threshold and feature ties
                X = rng.integers(0, int(rng.integers(1, 4)), size=(n, d)).astype(float)
            else:
                X = rng.random((n, d))
            if case % 3 == 0:
                X[:, 0] = X[:, -1]
            y = rng.random(n) < rng.random()
            min_leaf = int(rng.integers(1, 5))
            # one batch of up to three nodes on disjoint rows, each with its
            # own features, as a pass of the lock-step builder makes
            nodes = np.array_split(rng.permutation(n), int(rng.integers(1, min(n, 3) + 1)))
            nodes = [np.sort(rows) for rows in nodes]
            F = int(rng.integers(1, d + 1))
            feats = np.array([np.sort(rng.choice(d, size=F, replace=False)) for _ in nodes])
            gini, feat, thr = _best_splits(_sorted_columns(X, y), np.concatenate(nodes),
                                           np.array([rows.size for rows in nodes]), feats,
                                           min_leaf)
            for c, rows in enumerate(nodes):
                got = None if gini[c] == np.inf else (gini[c], feat[c], thr[c])
                assert got == loop_split(X[rows], y[rows], feats[c], min_leaf)


def depth_first_tree(data, max_depth=10, min_leaf=1, feature_subsample=None, rng=None):
    """The builder that the lock-step one replaced: one tree, one node and
    one split search at a time, numbering each tree's nodes from 0 and
    keeping a right-child array. The oracle, in canonical form, for the
    trees train_tree and train_bagged grow."""
    rng = np.random.default_rng(rng)  # a Generator passes through
    X, y, d = data.rows, data.labels, data.d

    def best_split(X, y, feat_ids):
        n = y.shape[0]
        Xf = X[:, feat_ids]
        order = np.argsort(Xf, axis=0, kind="stable")
        xs = np.take_along_axis(Xf, order, axis=0)
        cum_pos = np.cumsum(y[order], axis=0)
        left_n = np.arange(1, n)[:, None]
        right_n = n - left_n
        valid = (xs[:-1] < xs[1:]) & (left_n >= min_leaf) & (right_n >= min_leaf)
        left_pos = cum_pos[:-1]
        right_pos = cum_pos[-1] - left_pos
        pl = left_pos / left_n
        pr = right_pos / right_n
        gini = (left_n * 2 * pl * (1 - pl) + right_n * 2 * pr * (1 - pr)) / n
        gini = np.where(valid, gini, np.inf).T
        f, i = divmod(int(np.argmin(gini)), n - 1)
        if not valid[i, f]:
            return None
        lower, upper = float(xs[i, f]), float(xs[i + 1, f])
        mid = 0.5 * (lower + upper)
        return int(feat_ids[f]), mid if mid < upper else lower

    feature, threshold, left, right, value = [0], [0.0], [-1], [-1], [0.0]
    stack = [(0, np.arange(data.n), 0)]
    while stack:
        node, idx, depth = stack.pop()
        ysub = y[idx]
        pos_frac = float(ysub.mean())
        value[node] = pos_frac
        if depth >= max_depth or idx.size < 2 * min_leaf or pos_frac in (0.0, 1.0):
            feature[node] = -1
            continue
        if feature_subsample is not None and feature_subsample < d:
            feats = np.sort(rng.choice(d, size=feature_subsample, replace=False))
        else:
            feats = np.arange(d)
        split = best_split(X[idx], ysub, feats)
        if split is None:
            feature[node] = -1
            continue
        f, thr = split
        goleft = X[idx, f] <= thr
        li, ri = len(feature), len(feature) + 1
        feature[node], threshold[node] = f, thr
        left[node], right[node] = li, ri
        for column, blank in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1),
                              (value, 0.0)):
            column.extend((blank, blank))
        stack.append((li, idx[goleft], depth + 1))
        stack.append((ri, idx[~goleft], depth + 1))
    return canonical(feature, threshold, left, right, value, 0)


def depth_first_bag(data, num_trees, rng, max_depth, min_leaf, feature_subsample):
    """train_bagged's draws, with each tree fit on its own by depth_first_tree."""
    rng = np.random.default_rng(rng)
    pos, neg = np.flatnonzero(data.labels), np.flatnonzero(~data.labels)
    if feature_subsample == "sqrt":
        feature_subsample = max(1, math.ceil(math.sqrt(data.d)))
    trees, memberships = [], []
    for child in rng.spawn(num_trees):
        take_pos = child.choice(pos, size=pos.size, replace=True)
        take_neg = child.choice(neg, size=min(neg.size, pos.size), replace=False)
        sample = np.concatenate([take_pos, take_neg])
        memberships.append(np.bincount(sample, minlength=data.n))
        sub = TrainMatrix(data.rows[sample], data.labels[sample])
        trees.append(depth_first_tree(sub, max_depth, min_leaf, feature_subsample, child))
    return trees, np.array(memberships)


def tied_matrix(seed, n=150):
    """Columns with heavy ties: integer-valued, mostly zero, two levels, and
    one continuous column; labels depend on the tied columns."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.integers(0, 5, n),
        np.where(rng.random(n) < 0.8, 0.0, rng.random(n)),
        rng.integers(0, 2, n),
        rng.random(n),
        rng.integers(0, 3, n),
    ]).astype(float)
    y = rng.random(n) < 0.15 + 0.1 * X[:, 0] + 0.3 * (X[:, 1] > 0)
    return matrix(X, y)


class TestLockStepBuilder:
    @pytest.mark.parametrize("feature_subsample", [None, 1, 3])
    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("max_depth", [2, 10])
    def test_tree_equals_depth_first(self, feature_subsample, min_leaf, max_depth):
        for seed in range(3):
            data = tied_matrix(seed)
            kw = dict(max_depth=max_depth, min_leaf=min_leaf,
                      feature_subsample=feature_subsample)
            assert table_tree(train_tree(data, rng=seed, **kw)) == \
                depth_first_tree(data, rng=seed, **kw)

    # one value: every bag is balanced, and the cases keep their ids from
    # when train_bagged could also draw plain bootstraps
    @pytest.mark.parametrize("balanced", [True])
    @pytest.mark.parametrize("feature_subsample", [None, 1, "sqrt"])
    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("max_depth", [2, 10])
    def test_bag_equals_depth_first(self, balanced, feature_subsample, min_leaf, max_depth):
        data = tied_matrix(7)
        kw = dict(max_depth=max_depth, min_leaf=min_leaf, feature_subsample=feature_subsample)
        model = train_bagged(data, num_trees=6, rng=5, **kw)
        trees, memberships = depth_first_bag(data, 6, 5, **kw)
        np.testing.assert_array_equal(model.memberships, memberships)
        assert [table_tree(model.trees, t) for t in range(model.num_trees)] == trees

    def test_votes_equal_one_tree_at_a_time(self):
        def descend(table, t, X):  # one tree's walk, one row at a time
            out = []
            for x in X:
                node = t
                while table.feature[node] >= 0:
                    goleft = x[table.feature[node]] <= table.value[node]
                    node = table.left[node] + (0 if goleft else 1)
                out.append(table.value[node])
            return out

        data = tied_matrix(3)
        model = train_bagged(data, num_trees=7, rng=2, max_depth=6)
        X = np.asfortranarray(tied_matrix(4, n=60).rows[:, ::-1])[:, ::-1]  # not C-contiguous
        votes = model.tree_votes(X)
        np.testing.assert_array_equal(votes, [descend(model.trees, t, X) for t in range(7)])
        assert model.tree_votes(X[:0]).shape == (7, 0)

    def test_split_between_adjacent_doubles(self):
        # the midpoint of 1 + 2**-52 and the next double rounds up to the
        # larger value; the split then falls at the lower value, so each
        # side keeps its row (before, every row went left and the empty
        # right node voted NaN)
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        assert 0.5 * (a + b) == b
        data = matrix([[a], [b]], [0, 1])
        got, want = train_tree(data, max_depth=3, rng=0), depth_first_tree(data, 3, rng=0)
        assert table_tree(got) == want
        assert got.value[0] == a and not np.isnan(got.value).any()
        np.testing.assert_array_equal(got.predict(data.rows), [[0.0, 1.0]])


class TestBagging:
    def test_needs_positive_for_balanced(self):
        with pytest.raises(LearnerError):
            train_bagged(matrix([[0.0], [1.0]], [0, 0]), num_trees=3, rng=0)

    @pytest.mark.parametrize("ratio", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_unusable_undersample_ratio(self, ratio):
        # before, a ratio <= 0 silently drew one negative per tree
        with pytest.raises(LearnerError, match="undersample_ratio"):
            train_bagged(matrix([[0.0], [1.0]], [0, 1]), num_trees=3, rng=0,
                         undersample_ratio=ratio)

    @pytest.mark.parametrize("fit, name, value", [
        ("bag", "num_trees", 0), ("bag", "num_trees", 2.5), ("bag", "num_trees", True),
        ("bag", "max_depth", 0), ("bag", "max_depth", -3), ("bag", "min_leaf", 0),
        ("tree", "max_depth", 0), ("tree", "max_depth", 1.5), ("tree", "min_leaf", -1),
        ("tree", "min_leaf", False), ("tree", "min_leaf", "2"),
    ])
    def test_rejects_unusable_integer_setting(self, fit, name, value):
        # before, max_depth <= 0 grew single-leaf trees, min_leaf <= 0 fit
        # as min_leaf 1, and a fractional num_trees ended in a TypeError
        data = matrix([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1])
        train = train_bagged if fit == "bag" else train_tree
        with pytest.raises(LearnerError, match=name):
            train(data, rng=0, **{name: value})

    def test_integral_settings_of_any_number_type_fit_alike(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 3))
        data = matrix(X, X[:, 0] + 0.5 * rng.normal(size=80) > 0.3)
        want = train_bagged(data, num_trees=5, max_depth=4, min_leaf=2, rng=1).to_dict()
        for kind in (float, np.int64, np.int32):
            got = train_bagged(data, num_trees=kind(5), max_depth=kind(4), min_leaf=kind(2),
                               rng=1)
            assert got.num_trees == 5 and got.to_dict() == want, kind

    def test_balanced_bags_are_one_to_one(self):
        rng = np.random.default_rng(0)
        X = rng.random((200, 2))
        y = np.zeros(200, bool)
        y[:2] = True  # 99:1 imbalance
        model = train_bagged(matrix(X, y), num_trees=10, rng=1)
        for mem in model.memberships:
            pos_draws = mem[:2].sum()
            neg_draws = mem[2:].sum()
            assert pos_draws == 2 and neg_draws == 2

    def test_single_unbalanced_tree_equals_bootstrap_tree(self):
        rng = np.random.default_rng(3)
        X = rng.random((30, 2))
        y = X[:, 0] > 0.5
        model = train_bagged(matrix(X, y), num_trees=1, rng=7,
                             feature_subsample=None, max_depth=4)
        votes = model.tree_votes(X[:1])[:, 0]
        p = model.predict_proba(X[:1])[0][0]
        assert votes.shape == (1,)
        assert p == votes[0] == model.trees.predict(X[:1])[0, 0]

    def test_separable_data_auc(self):
        rng = np.random.default_rng(2)
        X = rng.random((400, 2))
        y = X[:, 0] + X[:, 1] > 1.0
        model = train_bagged(matrix(X, y), num_trees=30, rng=4, max_depth=12)
        Xte = rng.random((300, 2))
        yte = Xte[:, 0] + Xte[:, 1] > 1.0
        p, _ = model.predict_proba(Xte)
        assert auc(ScoredSet(p, yte)) >= 0.9

    def test_mismatched_features_rejected(self):
        model = train_bagged(matrix([[0.0, 1.0], [1.0, 0.0]], [0, 1]), num_trees=2, rng=0)
        with pytest.raises(LearnerError):
            model.predict_proba(np.zeros((1, 3)))

    def test_stability_with_more_trees(self):
        rng = np.random.default_rng(8)
        X = rng.random((300, 3))
        y = (X[:, 0] + 0.2 * rng.random(300)) > 0.55
        Xte = rng.random((100, 3))
        p1, _ = train_bagged(matrix(X, y), num_trees=50, rng=1, max_depth=12).predict_proba(Xte)
        p2, _ = train_bagged(matrix(X, y), num_trees=100, rng=2, max_depth=12).predict_proba(Xte)
        assert np.mean(np.abs(p1 - p2)) <= 0.05

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(1)
        X = rng.random((50, 2))
        y = X[:, 0] > 0.4
        model = train_bagged(matrix(X, y), num_trees=5, rng=3, max_depth=12)
        back = BaggedClassifier.from_dict(model.to_dict(), 2)
        np.testing.assert_array_equal(model.predict_proba(X)[0], back.predict_proba(X)[0])
        np.testing.assert_array_equal(model.draw_gram, back.draw_gram)
        assert back.memberships is None and back.to_dict() == model.to_dict()


def bag_document():
    """The document of a one-learner tree ensemble, as model.json holds it,
    whose first tree's root is an inner node."""
    rng = np.random.default_rng(4)
    X = rng.random((40, 3))
    model = train_bagged(matrix(X, X[:, 0] > 0.5), num_trees=3, rng=1, max_depth=4)
    ens = IWareEnsemble(thresholds=ThresholdSet((0.0,)), learners=[model],
                        weights=np.ones(1), learner_kind="trees", squash_scale=1.0,
                        n_features=3)
    doc = json.loads(json.dumps(ens.to_dict()))
    assert doc["learners"][0]["trees"]["feature"][0] >= 0
    return doc


class TestTableLoad:
    """A loaded table is checked whole, so that every walk from a root ends
    at a leaf; before, a self-looping child made riskmap hang and a child
    past the table ended in an IndexError."""

    def test_trained_table_loads(self):
        doc = bag_document()
        table = IWareEnsemble.from_dict(doc).learners[0].trees
        assert table.num_trees == 3 and table.to_dict() == doc["learners"][0]["trees"]

    def test_integral_floats_load_as_integers(self):
        # 3.0 is an integer, as on the command line; only a fraction is refused
        doc = bag_document()
        bag = doc["learners"][0]
        floats = json.loads(json.dumps(doc))
        f_bag = floats["learners"][0]
        for key in ("feature", "left"):
            f_bag["trees"][key] = [float(v) for v in bag["trees"][key]]
        floats["n_features"] = float(floats["n_features"])
        assert IWareEnsemble.from_dict(floats).to_dict() == IWareEnsemble.from_dict(doc).to_dict()

    LOAD_ERRORS = [
        ("self_loop", "children must come after it"),
        ("back_edge", "children must come after it"),
        ("child_past_the_table", "children must come after it"),
        ("right_child_past_the_table", "children must come after it"),
        ("child_past_int32", "malformed field"),
        ("feature_past_n_features", r"features must lie in \[-1, 3\)"),
        ("feature_minus_two", r"features must lie in \[-1, 3\)"),
        ("nan_leaf_value", r"leaf values must lie in \[0, 1\]"),
        ("leaf_value_above_one", r"leaf values must lie in \[0, 1\]"),
        ("inf_threshold", "inner thresholds must be finite"),
        ("short_value", "arrays of one length"),
        ("more_trees_than_nodes", "arrays of one length, at least"),
    ]

    @pytest.mark.parametrize("edit, message", LOAD_ERRORS, ids=[e for e, _ in LOAD_ERRORS])
    def test_rejects_a_table_a_walk_could_not_finish(self, edit, message):
        doc = bag_document()
        bag = doc["learners"][0]
        t = bag["trees"]
        feature, left = np.array(t["feature"]), np.array(t["left"])
        inner, leaf = np.flatnonzero(feature >= 0), int(np.flatnonzero(feature < 0)[0])
        if edit == "self_loop":
            t["left"][0] = 0
        elif edit == "back_edge":
            t["left"][int(inner[inner > 0][0])] = 0
        elif edit == "child_past_the_table":
            t["left"][0] = 10**6
        elif edit == "right_child_past_the_table":
            t["left"][0] = feature.size - 1  # its right child would be node `size`
        elif edit == "child_past_int32":
            t["left"][0] = 10**12
        elif edit == "feature_past_n_features":
            t["feature"][0] = 3
        elif edit == "feature_minus_two":
            t["feature"][leaf] = -2
        elif edit == "nan_leaf_value":
            t["value"][leaf] = float("nan")
        elif edit == "leaf_value_above_one":
            t["value"][leaf] = 1.5
        elif edit == "inf_threshold":
            t["value"][0] = float("inf")
        elif edit == "short_value":
            t["value"] = t["value"][:-1]
        else:
            side = feature.size + 3
            bag["draw_gram"] = np.zeros((side, side)).tolist()
        assert left[0] > 0  # the untouched table is well formed
        with pytest.raises(IwareError, match=message):
            IWareEnsemble.from_dict(doc)


def manual_bag(votes, memberships):
    """A bag of single-leaf trees, one per vote."""
    B = len(votes)
    trees = TreeTable(feature=np.full(B, -1, np.int32), left=np.full(B, -1, np.int32),
                      value=np.asarray(votes, float), num_trees=B)
    return BaggedClassifier.from_draws(trees, np.asarray(memberships, np.int32), n_features=1)


def ij_one(model, x):
    """IJ variance for one query row, through the batch call."""
    out = jackknife_variance_batch(model, np.atleast_2d(x))
    return None if out is None else float(out[0])


def direct_ij(votes, memberships):
    """Independent oracle: covariance formula written out longhand."""
    votes = np.asarray(votes, float)
    N = np.asarray(memberships, float)
    B, n = N.shape
    tbar = votes.mean()
    raw = 0.0
    sum_var_n = 0.0
    for j in range(n):
        nbar = N[:, j].mean()
        cov = sum((N[b, j] - nbar) * (votes[b] - tbar) for b in range(B)) / B
        raw += cov**2
        sum_var_n += sum((N[b, j] - nbar) ** 2 for b in range(B)) / B
    bias = sum_var_n / B**2 * sum((votes[b] - tbar) ** 2 for b in range(B))
    return max(raw - bias, 0.0)


class TestJackknife:
    def test_identical_trees_zero_variance(self):
        model = manual_bag([0.3, 0.3, 0.3], [[1, 0, 2], [0, 2, 1], [2, 1, 0]])
        assert ij_one(model, np.zeros(1)) == 0.0

    def test_hand_example_matches_direct_formula(self):
        votes = [0.2, 0.5, 0.8]
        mem = [[2, 0, 1], [1, 1, 1], [0, 2, 1]]
        model = manual_bag(votes, mem)
        assert ij_one(model, np.zeros(1)) == pytest.approx(direct_ij(votes, mem))

    def test_floor_at_zero(self):
        # draws vary orthogonally to votes: zero covariance, positive bias
        # correction, so the raw estimate is negative and gets floored
        votes = [0.3, 0.7, 0.7, 0.3]
        mem = [[2, 0], [0, 2], [2, 0], [0, 2]]
        model = manual_bag(votes, mem)
        assert direct_ij(votes, mem) == 0.0
        assert ij_one(model, np.zeros(1)) == 0.0

    def test_single_tree_undefined(self):
        model = manual_bag([0.4], [[1, 1, 0]])
        assert ij_one(model, np.zeros(1)) is None

    def test_two_tree_vote_mean(self):
        model = manual_bag([0.2, 0.8], [[1, 0], [0, 1]])
        votes = model.tree_votes(np.zeros((1, 1)))[:, 0]
        p = model.predict_proba(np.zeros((1, 1)))[0][0]
        assert p == pytest.approx(0.5)
        assert votes.tolist() == [0.2, 0.8]

    def test_identical_trees_equal_single_tree(self):
        model = manual_bag([0.3, 0.3, 0.3], [[1, 0], [0, 1], [1, 1]])
        p = model.predict_proba(np.zeros((1, 1)))[0][0]
        assert p == 0.3

    def test_loaded_bag_keeps_the_variance(self):
        # the stored Gram gives the trained bag's IJ
        # variance bit for bit, which the longhand formula confirms
        rng = np.random.default_rng(6)
        X = rng.random((80, 3))
        y = X[:, 0] + 0.3 * rng.random(80) > 0.7
        model = train_bagged(matrix(X, y), num_trees=9, rng=2, max_depth=6)
        back = BaggedClassifier.from_dict(json.loads(json.dumps(model.to_dict())), 3)
        Xq = rng.random((11, 3))
        got = jackknife_variance_batch(back, Xq)
        np.testing.assert_array_equal(got, jackknife_variance_batch(model, Xq))
        votes = model.tree_votes(Xq)
        assert got.max() > 0
        for q in range(Xq.shape[0]):
            assert got[q] == pytest.approx(direct_ij(votes[:, q], model.memberships),
                                           rel=1e-9, abs=1e-15)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        X = rng.random((60, 2))
        y = X[:, 0] > 0.5
        model = train_bagged(matrix(X, y), num_trees=12, rng=5, max_depth=12)
        Xq = rng.random((7, 2))
        batch = jackknife_variance_batch(model, Xq)
        for i in range(7):
            assert batch[i] == pytest.approx(ij_one(model, Xq[i]))
