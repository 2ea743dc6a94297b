import numpy as np
import pytest

from patrolkit.learners import (
    LearnerError,
    TrainMatrix,
    deserialize_learner,
    gp_lml_and_gradient,
    train_gp,
)


def matrix(rows, labels):
    rows = np.asarray(rows, dtype=float)
    return TrainMatrix(rows=rows, labels=np.asarray(labels, bool),
                       row_ids=np.arange(len(rows)))


def predict_one(model, x):
    """(probability, latent variance) for one query row, through the batch call."""
    prob, var = model.predict_proba(np.atleast_2d(x))
    return float(prob[0]), float(var[0])


def brute_posterior_variance(X, xq, lengthscale, signal_var, jitter):
    """Noise-free latent posterior variance by direct matrix inversion."""
    X = np.atleast_2d(X)
    def k(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        return signal_var * np.exp(-0.5 * d2 / lengthscale**2)
    K = k(X, X) + jitter * np.eye(len(X))
    ks = k(X, np.atleast_2d(xq))[:, 0]
    return signal_var - ks @ np.linalg.solve(K, ks)


class TestPredictions:
    def test_symmetric_points_give_half(self):
        m = train_gp(matrix([[-1.0], [1.0]], [0, 1]), lengthscale=1.0, rng=0)
        p, _ = predict_one(m, np.zeros(1))
        assert p == pytest.approx(0.5)

    def test_far_query_reverts_to_prior(self):
        m = train_gp(matrix([[-1.0], [1.0]], [0, 1]), lengthscale=0.7, signal_var=2.5, rng=0)
        p, v = predict_one(m, np.array([500.0]))
        assert p == pytest.approx(0.5)
        assert v == pytest.approx(2.5)

    def test_probability_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 2))
        y = X[:, 0] > 0
        m = train_gp(matrix(X, y), rng=0)
        p, _ = m.predict_proba(rng.normal(size=(50, 2)) * 3)
        assert np.all(p > 0) and np.all(p < 1)

    def test_variance_small_at_training_inputs(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(25, 2))
        y = X[:, 0] + X[:, 1] > 0
        m = train_gp(matrix(X, y), lengthscale=1.0, signal_var=1.7, rng=0)
        _, v = m.predict_proba(X)
        assert np.all(v < 1e-3 * m.signal_var)

    def test_denser_neighborhood_has_lower_variance(self):
        # 1-d ramp: tight cluster on the left, sparse points on the right
        X = np.array([[0.0], [0.1], [0.2], [0.3], [3.0], [6.0]])
        y = [0, 0, 0, 1, 1, 1]
        m = train_gp(matrix(X, y), lengthscale=1.0, signal_var=1.0, jitter=1e-6, rng=0)
        _, v_dense = predict_one(m, np.array([0.15]))
        _, v_sparse = predict_one(m, np.array([4.5]))
        assert v_dense < v_sparse
        assert v_dense == pytest.approx(
            brute_posterior_variance(X, [0.15], 1.0, 1.0, 1e-6), abs=1e-9)
        assert v_sparse == pytest.approx(
            brute_posterior_variance(X, [4.5], 1.0, 1.0, 1e-6), abs=1e-9)


class TestLmlGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        y = (X[:, 0] - 0.4 * X[:, 2]) > 0
        m = train_gp(matrix(X, y), lengthscale=1.3, signal_var=0.8, rng=0)
        lml, g_ell, g_sv = gp_lml_and_gradient(m)
        h = 1e-5
        fd_ell = (gp_lml_and_gradient(m, lengthscale=m.lengthscale + h)[0]
                  - gp_lml_and_gradient(m, lengthscale=m.lengthscale - h)[0]) / (2 * h)
        fd_sv = (gp_lml_and_gradient(m, signal_var=m.signal_var + h)[0]
                 - gp_lml_and_gradient(m, signal_var=m.signal_var - h)[0]) / (2 * h)
        assert abs(g_ell - fd_ell) <= 1e-4 * max(1.0, abs(fd_ell))
        assert abs(g_sv - fd_sv) <= 1e-4 * max(1.0, abs(fd_sv))


class TestLeaveOneOut:
    def test_matches_refits(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 3))
        y = X[:, 0] + 0.8 * rng.normal(size=60) > 0.3
        cfg = dict(lengthscale=1.2, signal_var=1.0, jitter=1e-6, max_points=60)
        full = train_gp(matrix(X, y), **cfg, rng=0)
        rows, loo = full.held_out_proba(X)
        np.testing.assert_array_equal(rows, np.arange(60))
        refit = np.array([predict_one(train_gp(matrix(np.delete(X, i, 0), np.delete(y, i)),
                                               **cfg, rng=0), X[i])[0] for i in range(60)])
        np.testing.assert_allclose(loo, refit, atol=1e-3)
        # the in-sample prediction is not a held-out one
        assert np.max(np.abs(full.predict_proba(X)[0] - refit)) > 0.05

    def test_rows_the_cap_kept(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(50, 2))
        y = X[:, 1] > 0.5
        m = train_gp(matrix(X, y), lengthscale=1.0, max_points=30, rng=0)
        rows, loo = m.held_out_proba(X)
        assert rows.shape == loo.shape == (30,)
        np.testing.assert_array_equal(X[rows], m.X)
        assert np.all((loo > 0) & (loo < 1))
        assert "kept_rows" not in m.to_dict()


class TestTraining:
    def test_variance_monotone_under_deletion(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(8, 2))
        y = X[:, 0] > 0
        cfg = dict(lengthscale=1.1, signal_var=1.0)
        full = train_gp(matrix(X, y), **cfg, rng=0)
        queries = rng.normal(size=(20, 2)) * 2
        _, v_full = full.predict_proba(queries)
        for drop in range(8):
            keep = [i for i in range(8) if i != drop]
            sub = train_gp(matrix(X[keep], y[keep]), **cfg, rng=0)
            _, v_sub = sub.predict_proba(queries)
            assert np.all(v_sub >= v_full - 1e-9)

    def test_needs_two_rows(self):
        with pytest.raises(LearnerError):
            train_gp(matrix([[0.0]], [1]), rng=0)

    def test_rejects_nonpositive_lengthscale(self):
        for ell in (0.0, -1.0):
            with pytest.raises(LearnerError, match="lengthscale"):
                train_gp(matrix([[0.0], [1.0]], [0, 1]), lengthscale=ell, rng=0)

    def test_subsample_preserves_positives(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(500, 2))
        y = np.zeros(500, bool)
        y[::50] = True
        m = train_gp(matrix(X, y), lengthscale=1.0, max_points=100, rng=0)
        assert m.X.shape[0] == 100
        assert int((m.y_sign > 0).sum()) == int(y.sum())

    def test_median_heuristic_default(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 2)) * 3.0
        m = train_gp(matrix(X, X[:, 0] > 0), rng=0)
        assert m.lengthscale > 0

    def test_duplicate_points_survive_via_jitter(self):
        X = np.array([[0.0, 0.0]] * 10 + [[1.0, 1.0]] * 10)
        y = [0] * 10 + [1] * 10
        m = train_gp(matrix(X, y), lengthscale=1.0, jitter=1e-9, rng=0)
        p, _ = predict_one(m, np.array([1.0, 1.0]))
        assert p > 0.5

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20, 2))
        y = X[:, 1] > 0
        m = train_gp(matrix(X, y), rng=0)
        back = deserialize_learner(m.to_dict())
        q = rng.normal(size=(5, 2))
        p0, v0 = m.predict_proba(q)
        p1, v1 = back.predict_proba(q)
        np.testing.assert_array_equal(p0, p1)
        np.testing.assert_array_equal(v0, v1)

    def test_load_rejects_bad_mode(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(6, 2))
        doc = train_gp(matrix(X, X[:, 0] > 0), rng=0).to_dict()
        for bad in (doc["f_mode"][:-1], doc["f_mode"][:-1] + [float("nan")], None):
            with pytest.raises(LearnerError, match="f_mode"):
                deserialize_learner({**doc, "f_mode": bad})

    def test_ml_two_improves_marginal_likelihood(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 1))
        y = X[:, 0] > 0.2
        base = train_gp(matrix(X, y), lengthscale=5.0, rng=0)
        tuned = train_gp(matrix(X, y), lengthscale=5.0, optimize_hypers=True, rng=0)
        assert tuned.log_marginal_likelihood >= base.log_marginal_likelihood - 1e-9
