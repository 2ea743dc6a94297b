import numpy as np
import pytest

from patrolkit import learners
from patrolkit.learners import (
    GpClassifier,
    LearnerError,
    TrainMatrix,
    _cholesky,
    _gemm_t,
    _gemv,
    _rbf,
    _solve_lower,
    _sqdist,
    gp_lml_and_gradient,
    median_heuristic_lengthscale,
    train_gp,
)


def matrix(rows, labels):
    rows = np.asarray(rows, dtype=float)
    return TrainMatrix(rows=rows, labels=np.asarray(labels, bool))


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
        for ell in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(LearnerError, match="lengthscale"):
                train_gp(matrix([[0.0], [1.0]], [0, 1]), lengthscale=ell, rng=0)

    @pytest.mark.parametrize("name, value", [
        ("signal_var", 0.0), ("signal_var", -1.0), ("signal_var", float("inf")),
        ("signal_var", float("nan")), ("jitter", -1e-6), ("jitter", float("inf")),
        ("jitter", float("nan")),
    ])
    def test_rejects_unusable_signal_var_and_jitter(self, name, value):
        # before, signal_var 0 fit a constant predictor and a negative jitter
        # was escalated from, both without an error
        with pytest.raises(LearnerError, match=name):
            train_gp(matrix([[0.0], [1.0]], [0, 1]), rng=0, **{name: value})

    @pytest.mark.parametrize("name, value", [
        ("lengthscale", True), ("lengthscale", "3"), ("signal_var", True),
        ("signal_var", None), ("signal_var", "3"), ("jitter", True), ("jitter", None),
        ("jitter", "3"),
    ])
    def test_rejects_a_setting_that_is_not_a_number(self, name, value):
        # before, True fit as 1.0, and a string or None raised TypeError
        with pytest.raises(LearnerError, match=f"{name} must be a number"):
            train_gp(matrix([[0.0], [1.0]], [0, 1]), rng=0, **{name: value})

    def test_subsample_preserves_positives(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(500, 2))
        y = np.zeros(500, bool)
        y[::50] = True
        m = train_gp(matrix(X, y), lengthscale=1.0, max_points=100, rng=0)
        assert m.X.shape[0] == 100
        assert int((m.y_sign > 0).sum()) == int(y.sum())

    @pytest.mark.parametrize("max_points", [1, 0, -5, 2.5, True])
    def test_rejects_unusable_max_points(self, max_points):
        # before, max_points 1 or less kept every positive row and no negative
        with pytest.raises(LearnerError, match="max_points"):
            train_gp(matrix([[0.0], [1.0], [2.0]], [0, 1, 0]), max_points=max_points, rng=0)

    @pytest.mark.parametrize("max_points", [10, 9, 2])
    def test_rejects_a_cap_the_positives_fill(self, max_points):
        # the cap keeps every positive row; before, at or under their count
        # the GP fit positives alone
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 2))
        y = np.zeros(40, bool)
        y[::4] = True
        with pytest.raises(LearnerError, match=f"10 of the 10 rows .* max_points={max_points}"):
            train_gp(matrix(X, y), lengthscale=1.0, max_points=max_points, rng=0)
        m = train_gp(matrix(X, y), lengthscale=1.0, max_points=11.0, rng=0)
        assert m.X.shape[0] == 11 and int((m.y_sign > 0).sum()) == 10

    def test_rejects_one_class(self):
        for labels in ([1, 1, 1], [0, 0, 0]):
            with pytest.raises(LearnerError, match="positive and negative rows"):
                train_gp(matrix([[0.0], [1.0], [2.0]], labels), rng=0)

    def test_median_heuristic_default(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 2)) * 3.0
        m = train_gp(matrix(X, X[:, 0] > 0), rng=0)
        assert m.lengthscale > 0

    def test_median_heuristic_is_the_median_of_pdist(self):
        # the distances are summed as pdist sums them, so the median is pdist's exactly
        from scipy.spatial.distance import pdist

        rng = np.random.default_rng(7)
        for shape in [(3, 1), (25, 3), (60, 7)]:
            X = rng.normal(size=shape) * 2.5
            X[-1] = X[0]  # a zero distance, which the heuristic skips
            d = pdist(X)
            assert median_heuristic_lengthscale(X) == float(np.median(d[d > 0]))
        assert median_heuristic_lengthscale(np.ones((2, 3))) == 1.0
        assert median_heuristic_lengthscale(np.ones((1, 3))) == 1.0

    def test_duplicate_points_survive_via_jitter(self):
        X = np.array([[0.0, 0.0]] * 10 + [[1.0, 1.0]] * 10)
        y = [0] * 10 + [1] * 10
        m = train_gp(matrix(X, y), lengthscale=1.0, jitter=1e-9, rng=0)
        p, _ = predict_one(m, np.array([1.0, 1.0]))
        assert p > 0.5

    def test_jitter_escalates_until_the_kernel_factors(self):
        # each input appears twice: without jitter the kernel is singular,
        # and the first escalation, to 1e-8, factors it
        X = np.repeat([[0.0], [1.0], [2.0], [3.0]], 2, axis=0)
        m = train_gp(matrix(X, [0, 0, 0, 0, 1, 1, 1, 1]), lengthscale=1.0, jitter=0.0, rng=0)
        assert m.jitter == 1e-8
        prob, var = m.predict_proba(np.array([[0.0], [1.5], [3.0]]))
        assert np.all(np.isfinite(prob)) and np.all((prob > 0) & (prob < 1))
        assert np.all(np.isfinite(var))

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20, 2))
        y = X[:, 1] > 0
        m = train_gp(matrix(X, y), rng=0)
        back = GpClassifier.from_dict(m.to_dict(), 2)
        q = rng.normal(size=(5, 2))
        p0, v0 = m.predict_proba(q)
        p1, v1 = back.predict_proba(q)
        np.testing.assert_array_equal(p0, p1)
        np.testing.assert_array_equal(v0, v1)

    def test_loaded_model_factors_its_kernel_at_first_prediction(self, monkeypatch):
        # before, loading built every GP's kernel and factors, whether or
        # not the process then predicted with it
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20, 2))
        m = train_gp(matrix(X, X[:, 1] > 0), rng=0)
        calls = []
        laplace = learners._laplace
        monkeypatch.setattr(learners, "_laplace",
                            lambda *args: calls.append(1) or laplace(*args))
        for first in ("predict_proba", "held_out_proba"):
            back = GpClassifier.from_dict(m.to_dict(), 2)
            assert calls == [] and "_factors" not in vars(back)
            getattr(back, first)(X[:3])
            back.predict_proba(X[3:])
            assert calls == [1], first
            np.testing.assert_array_equal(back.f_mode, m.f_mode)
            for built, trained in zip(back._factors, m._factors, strict=True):
                np.testing.assert_array_equal(built, trained)
            calls.clear()

    def test_load_rejects_bad_mode(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(6, 2))
        doc = train_gp(matrix(X, X[:, 0] > 0), rng=0).to_dict()
        for bad in (doc["f_mode"][:-1], doc["f_mode"][:-1] + [float("nan")], None):
            with pytest.raises(LearnerError, match="f_mode"):
                GpClassifier.from_dict({**doc, "f_mode": bad}, 2)


    @pytest.mark.parametrize("field, value", [
        ("y_sign", [0.5]), ("y_sign", [3]), ("y_sign", "a column"),
        ("X", "one row short"), ("X", "flattened"),
        ("lengthscale", -1.0), ("lengthscale", 0.0), ("lengthscale", float("inf")),
        ("signal_var", -1.0), ("signal_var", float("nan")),
        ("jitter", -1e-3), ("jitter", float("nan")),
    ])
    def test_load_rejects_unusable_field(self, field, value):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(6, 2))
        doc = train_gp(matrix(X, X[:, 0] > 0), rng=0).to_dict()
        if value == "a column":
            bad = [[v] for v in doc["y_sign"]]
        elif field == "y_sign":
            bad = value + doc["y_sign"][1:]
        elif value == "one row short":
            bad = doc["X"][:-1]
        elif value == "flattened":
            bad = sum(doc["X"], [])
        else:
            bad = value
        with pytest.raises(LearnerError, match=field):
            GpClassifier.from_dict({**doc, field: bad}, 2)


def lower_factor(n, seed):
    A = np.random.default_rng(seed).normal(size=(n, n))
    return _cholesky(A @ A.T + n * np.eye(n))


class TestTriangularSolve:
    """``_solve_lower`` is LAPACK's dtrtrs on L, the call that
    ``scipy.linalg.solve_triangular`` makes for a Fortran-ordered L such as
    ``_cholesky`` returns, with that function's checks."""

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("rhs_shape", [(30,), (30, 7), (30, 1)])
    def test_equals_lapack_dtrtrs(self, transposed, rhs_shape):
        from scipy.linalg import solve_triangular
        from scipy.linalg.lapack import dtrtrs

        L = lower_factor(30, 1)
        assert L.flags.f_contiguous
        B = np.random.default_rng(2).normal(size=rhs_shape)
        x = _solve_lower(L, B, transposed=transposed)
        ref, info = dtrtrs(L, B, lower=1, trans=int(transposed))
        assert info == 0
        assert x.shape == B.shape
        np.testing.assert_array_equal(x, ref)
        np.testing.assert_array_equal(x, solve_triangular(L, B, trans=int(transposed), lower=True))
        residual = (L.T if transposed else L) @ x - B
        assert np.abs(residual).max() < 1e-12

    @pytest.mark.parametrize("operand, value", [
        ("L", float("nan")), ("L", float("inf")), ("B", float("nan")), ("B", -float("inf")),
    ])
    def test_rejects_non_finite_operand(self, operand, value):
        L = lower_factor(5, 3)
        B = np.ones((5, 2))
        (L if operand == "L" else B)[2, 1] = value
        for transposed in (False, True):
            with pytest.raises(ValueError, match="infs or NaNs"):
                _solve_lower(L, B, transposed=transposed)

    def test_rejects_zero_on_the_diagonal(self):
        L = lower_factor(5, 4)
        L[3, 3] = 0.0
        for transposed in (False, True):
            with pytest.raises(np.linalg.LinAlgError, match="singular"):
                _solve_lower(L, np.ones(5), transposed=transposed)


class TestBlasAndLapack:
    """The GP's Cholesky factors and matrix products come from scipy's
    BLAS and LAPACK bindings, as scipy's public functions call them."""

    @pytest.mark.parametrize("n", [1, 30, 400])
    def test_cholesky_equals_scipy(self, n):
        from scipy.linalg import cholesky

        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 3))
        sw = rng.random(n)
        # I + sqrt(W) K sqrt(W), whose two triangles differ at round-off
        B = np.eye(n) + sw[:, None] * np.exp(-0.5 * _sqdist(X, X)) * sw[None, :]
        for A in (B, np.asfortranarray(B)):
            L = _cholesky(A)
            assert L.flags.f_contiguous
            np.testing.assert_array_equal(L, cholesky(A, lower=True))
        np.testing.assert_allclose(L @ L.T, np.tril(B) + np.tril(B, -1).T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("A", [
        [[1.0, 2.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, -1e-9]],
    ], ids=["indefinite", "zero", "negative-pivot"])
    def test_cholesky_rejects_a_matrix_not_positive_definite(self, A):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            _cholesky(np.array(A))

    @pytest.mark.parametrize("n, q", [(1, 1), (30, 7), (400, 3000)])
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_gemm_equals_scipy(self, n, q, alpha):
        from scipy.linalg.blas import dgemm

        rng = np.random.default_rng([n, q])
        A, B = rng.normal(size=(n, 5)), rng.normal(size=(q, 5))
        C = _gemm_t(alpha, A, B)
        assert C.shape == (n, q) and C.flags.f_contiguous
        np.testing.assert_array_equal(C, dgemm(alpha, A, B, trans_b=True))
        np.testing.assert_allclose(C, alpha * A @ B.T, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_gemv_equals_scipy(self, transposed, order):
        from scipy.linalg.blas import dgemv

        rng = np.random.default_rng(3)
        A = np.asarray(rng.normal(size=(40, 25)), order=order)
        x = rng.normal(size=25 if not transposed else 40)
        y = _gemv(A, x, transposed=transposed)
        np.testing.assert_array_equal(y, dgemv(1.0, A, x, trans=int(transposed)))
        np.testing.assert_allclose(y, (A.T if transposed else A) @ x, rtol=1e-12, atol=1e-12)

    def test_gp_runs_without_numpys_cholesky(self, monkeypatch):
        # before, the GP's factors came from np.linalg.cholesky, on numpy's
        # BLAS build, and its triangular solves from scipy's
        def unused(*args, **kwargs):
            raise AssertionError("np.linalg.cholesky called")

        monkeypatch.setattr(np.linalg, "cholesky", unused)
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 3))
        m = train_gp(matrix(X, X[:, 0] + 0.5 * rng.normal(size=40) > 0), rng=0)
        prob, var = m.predict_proba(rng.normal(size=(15, 3)))
        assert np.all((prob > 0) & (prob < 1)) and np.all(var >= 0)
        rows, loo = m.held_out_proba(X)
        assert rows.shape == loo.shape == (40,) and np.all((loo > 0) & (loo < 1))


class TestKernel:
    """``_sqdist`` and ``_rbf`` work in place but keep the order of the
    textbook expressions, with the products from the same GEMM, so they
    equal them bit for bit."""

    @pytest.mark.parametrize("n, q", [(1, 1), (7, 1), (300, 500), (40, 70000), (400, 20)])
    def test_equals_the_plain_expressions(self, n, q):
        from scipy.linalg.blas import dgemm

        rng = np.random.default_rng([n, q])
        A, B = rng.normal(size=(n, 4)), rng.normal(size=(q, 4)) * 3
        d = _sqdist(A, B)
        assert d.flags.f_contiguous
        plain = np.maximum((A**2).sum(axis=1)[:, None] + (B**2).sum(axis=1)[None, :]
                           - dgemm(2.0, A, B, trans_b=True), 0.0)
        np.testing.assert_array_equal(d, plain)
        kept = d.copy()
        np.testing.assert_array_equal(_rbf(d, 0.7, 1.3), 1.3 * np.exp(-0.5 * d / 0.7**2))
        np.testing.assert_array_equal(d, kept)

    def test_self_distances_are_zero_and_symmetric(self):
        A = np.random.default_rng(1).normal(size=(50, 3))
        d = _sqdist(A, A)
        assert np.all(d >= 0) and np.abs(np.diag(d)).max() < 1e-12
        np.testing.assert_allclose(d, d.T, rtol=0, atol=1e-12)
