import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolkit import iware
from patrolkit.grid import assemble_dataset
from patrolkit.iware import (
    IWareEnsemble,
    IwareError,
    RiskQuery,
    ThresholdSet,
    log_loss,
    optimize_weights_from_probs,
    predict_effort_conditioned,
    select_thresholds,
    squash_uncertainty,
    train_iware,
)
from patrolkit.learners import LearnerError, TrainMatrix, train_bagged

from conftest import dataset_from_rows, flat_grid


class ConstLearner:
    """Stub learner with fixed output for every row."""

    def __init__(self, p, var=None):
        self.p = p
        self.var = var

    def predict_proba(self, X):
        n = np.atleast_2d(X).shape[0]
        v = None if self.var is None else np.full(n, self.var)
        return np.full(n, self.p), v


def stub_ensemble(thresholds, weights, learners, scale=1.0):
    return IWareEnsemble(thresholds=ThresholdSet(thresholds=tuple(thresholds)),
                         learners=list(learners), weights=np.asarray(weights, float),
                         learner_kind="stub", squash_scale=scale, n_features=1)


class TestSelectThresholds:
    def test_single_threshold_is_zero(self):
        ds = dataset_from_rows([(1.0, 0), (2.0, 1)])
        assert select_thresholds(ds, 1).thresholds == (0.0,)

    def test_quantiles_with_linear_interpolation(self):
        ds = dataset_from_rows([(1.0, 0), (2.0, 0), (3.0, 0), (4.0, 1)])
        ths = select_thresholds(ds, 4)
        assert ths.thresholds == pytest.approx((0.0, 1.75, 2.5, 3.25))

    def test_duplicates_collapse_with_warning(self):
        ds = dataset_from_rows([(1.0, 0)] * 6 + [(2.0, 1)])
        with pytest.warns(UserWarning, match="collapsed"):
            ths = select_thresholds(ds, 6)
        assert ths.count < 6
        assert len(set(ths.thresholds)) == ths.count

    def test_no_positive_effort_rejected(self):
        ds = dataset_from_rows([(0.0, 0), (0.0, 0)])
        with pytest.raises(IwareError):
            select_thresholds(ds, 2)

    def test_first_threshold_forced_zero(self):
        ds = dataset_from_rows([(5.0, 0), (6.0, 1), (7.0, 0)])
        assert select_thresholds(ds, 3).thresholds[0] == 0.0


def one_sided_subset(ds, theta):
    """The training subset train_iware fits at threshold theta."""
    X, y, eff = iware._dataset_rows(ds)
    keep = iware._one_sided(y, eff, theta)
    return TrainMatrix(X[keep], y[keep])


class TestFilterDataset:
    def test_rule_application(self):
        ds = dataset_from_rows([(0.2, 1), (0.2, 0), (1.0, 0), (2.0, 1)])
        _, y, eff = iware._dataset_rows(ds)
        keep = iware._one_sided(y, eff, 0.5)
        assert sorted(zip(y[keep].tolist(), [round(v, 3) for v in eff[keep]])) == [
            (False, 1.0), (True, 0.2), (True, 2.0)]
        np.testing.assert_array_equal(one_sided_subset(ds, 0.5).labels, y[keep])

    def test_zero_threshold_drops_zero_effort_negatives(self):
        ds = dataset_from_rows([(0.0, 0), (1.0, 0), (0.5, 1)])
        kept = one_sided_subset(ds, 0.0)
        assert kept.n == 2

    def test_max_threshold_keeps_only_positives(self):
        ds = dataset_from_rows([(1.0, 0), (2.0, 0), (0.5, 1)])
        kept = one_sided_subset(ds, 2.0)
        assert kept.n == 1 and kept.labels.all()

    def test_empty_result_rejected(self):
        ds = dataset_from_rows([(0.5, 0), (1.0, 0)])
        with pytest.raises(LearnerError, match="nonempty"):
            one_sided_subset(ds, 2.0)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(0, 5), st.booleans()), min_size=1, max_size=20),
           st.floats(0, 5))
    def test_positives_always_preserved(self, rows, theta):
        rows = [(e, int(y)) for e, y in rows]
        # at least one row must survive the filter for the subset to be legal;
        # assemble_dataset coerces zero-effort positives to 0, so a positive
        # survives only with positive effort
        if not any((y and e > 0) or e > theta for e, y in rows):
            rows.append((theta + 1.0, 0))
        ds = dataset_from_rows(rows)
        kept = one_sided_subset(ds, theta)
        assert int(kept.labels.sum()) == int(ds.labels.sum())


class TestOptimizeWeights:
    def test_single_learner(self):
        w = optimize_weights_from_probs(np.full((10, 1), 0.7), np.ones(10), np.ones((10, 1), bool))
        assert w == pytest.approx([1.0])

    def test_perfect_learner_dominates(self):
        rng = np.random.default_rng(0)
        y = rng.random(200) < 0.5
        P = np.column_stack([np.where(y, 1.0, 0.0), np.full(200, 0.5)])
        w = optimize_weights_from_probs(P, y, np.ones_like(P, bool))
        assert w[0] >= 0.99

    def test_identical_learners_stay_uniform(self):
        rng = np.random.default_rng(1)
        y = rng.random(50) < 0.3
        p = np.clip(rng.random(50), 0.1, 0.9)
        w = optimize_weights_from_probs(np.column_stack([p, p]), y, np.ones((50, 2), bool))
        assert w == pytest.approx([0.5, 0.5])

    def test_matches_fine_grid_search(self):
        rng = np.random.default_rng(2)
        y = rng.random(150) < 0.4
        P = np.clip(np.column_stack([
            np.where(y, 0.7, 0.3) + 0.1 * rng.normal(size=150),
            np.where(y, 0.6, 0.45) + 0.1 * rng.normal(size=150),
        ]), 0.01, 0.99)
        every = np.ones_like(P, bool)
        w = optimize_weights_from_probs(P, y, every)
        ours = log_loss(P, y, w, every)
        grid = min(log_loss(P, y, np.array([a, 1 - a]), every)
                   for a in np.linspace(0, 1, 4001))
        assert ours <= grid + 1e-6

    def test_three_learner_grid_search(self):
        rng = np.random.default_rng(3)
        y = rng.random(120) < 0.5
        P = np.clip(rng.random((120, 3)) * 0.5 + np.where(y, 0.3, 0.1)[:, None]
                    * rng.random((120, 3)), 0.01, 0.99)
        every = np.ones_like(P, bool)
        w = optimize_weights_from_probs(P, y, every)
        ours = log_loss(P, y, w, every)
        best = np.inf
        for a in np.linspace(0, 1, 101):
            for b in np.linspace(0, 1 - a, max(int((1 - a) * 100) + 1, 1)):
                best = min(best, log_loss(P, y, np.array([a, b, 1 - a - b]), every))
        assert ours <= best + 1e-6

    def test_non_finite_outputs_clamped(self):
        y = np.array([1.0, 0.0])
        P = np.array([[np.nan, 1.0], [np.inf, 0.0]])
        w = optimize_weights_from_probs(P, y, np.ones_like(P, bool))
        assert np.all(np.isfinite(w)) and abs(w.sum() - 1) < 1e-9

    def test_simplex_invariant(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            P = rng.random((30, 4))
            y = rng.random(30) < 0.5
            w = optimize_weights_from_probs(P, y, np.ones_like(P, bool))
            assert np.all(w >= -1e-12) and abs(w.sum() - 1.0) <= 1e-9

    def test_fit_scores_the_mixture_prediction_makes(self):
        # learner 1 qualifies only on the high-effort rows, where it is right;
        # the low-effort rows it would get wrong are not its to score
        ens = stub_ensemble([0.0, 1.0], [0.5, 0.5], [ConstLearner(0.5), ConstLearner(0.5)])
        eff = np.array([0.2, 0.4, 0.6, 1.5, 2.0, 3.0, 1.2, 2.5])
        y = np.array([1, 1, 1, 1, 1, 0, 0, 0], bool)
        P = np.column_stack([np.full(8, 0.5), np.where(y, 0.9, 0.1)])
        P[:3, 1] = 0.01
        mask = ens.thresholds.qualified(eff)
        w = optimize_weights_from_probs(P, y, mask)
        assert w[1] > 0.99
        ens.weights = w
        g, _ = ens.combine_at_effort(P, np.zeros_like(P), eff)
        expected = -np.mean(np.where(y, np.log(g), np.log(1 - g)))
        assert log_loss(P, y, w, mask) == pytest.approx(expected, rel=1e-12)

    def test_rows_admitting_no_learner_drop_out(self):
        rng = np.random.default_rng(5)
        P = rng.random((40, 3))
        y = rng.random(40) < 0.5
        mask = rng.random((40, 3)) < 0.6
        mask[:5] = False
        w = optimize_weights_from_probs(P, y, mask)
        P[:5], y[:5] = 0.5, ~y[:5]
        np.testing.assert_array_equal(optimize_weights_from_probs(P, y, mask), w)
        assert np.isfinite(log_loss(P, y, w, mask))

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_scipy_minimize(self, seed):
        # the fit drives L-BFGS-B's compiled routine with scipy's own loop,
        # so it ends where scipy.optimize.minimize ends, bit for bit
        from scipy.optimize import minimize

        rng = np.random.default_rng([24, seed])
        n, I = int(rng.integers(30, 300)), int(rng.integers(2, 9))
        y = rng.random(n) < 0.3
        P = rng.random((n, I))
        P[:, -1] = np.where(y, 0.02, 0.98)  # wrong on every row: it ends at weight 0
        mask = rng.random((n, I)) < 0.7
        mask[: n // 10] = False             # rows admitting no learner
        mask[n // 10:, -1] = True
        w = optimize_weights_from_probs(P, y, mask)
        Pc, yf = iware._clamp_probs(P), y.astype(float)
        res = minimize(lambda z: iware._mixture_log_loss(Pc, yf, mask, np.exp(z - z.max())),
                       np.zeros(I), jac=True, method="L-BFGS-B",
                       options={"ftol": 1e-15, "gtol": 1e-12})
        expected = np.exp(res.x - res.x.max())
        np.testing.assert_array_equal(w, expected / expected.sum())
        assert w[-1] < 1e-6

    def test_driver_equals_scipy_minimize_on_rosenbrock(self):
        from scipy.optimize import minimize, rosen, rosen_der

        x0 = np.array([-1.2, 1.0, -0.5, 0.8])
        res = minimize(lambda x: (rosen(x), rosen_der(x)), x0, jac=True, method="L-BFGS-B",
                       options={"ftol": 1e-12, "gtol": 1e-8})
        x = iware._lbfgsb(lambda x: (rosen(x), rosen_der(x)), x0, ftol=1e-12, gtol=1e-8)
        np.testing.assert_array_equal(x, res.x)
        assert res.nit > 20 and np.allclose(x, 1.0, atol=1e-4)


class TestPredictEffortConditioned:
    def test_qualified_renormalization(self):
        ens = stub_ensemble([0.0, 1.0, 2.0], [0.2, 0.3, 0.5],
                            [ConstLearner(0.4), ConstLearner(0.6), ConstLearner(0.8)])
        q = RiskQuery(features=np.zeros(1), hypothetical_effort=1.5)
        g, _ = predict_effort_conditioned(ens, q)
        assert g == pytest.approx(0.52)

    def test_all_qualified(self):
        ens = stub_ensemble([0.0, 1.0, 2.0], [0.2, 0.3, 0.5],
                            [ConstLearner(0.4), ConstLearner(0.6), ConstLearner(0.8)])
        g, _ = predict_effort_conditioned(ens, RiskQuery(np.zeros(1), 2.0))
        assert g == pytest.approx(0.66)

    def test_mixture_variance(self):
        ens = stub_ensemble([0.0, 0.0], [0.5, 0.5],
                            [ConstLearner(0.4, 0.01), ConstLearner(0.6, 0.01)])
        g, v = predict_effort_conditioned(ens, RiskQuery(np.zeros(1), 0.0))
        assert g == pytest.approx(0.5)
        assert v == pytest.approx(0.02)

    def test_monotone_qualification(self):
        ens = stub_ensemble([0.0, 1.0, 2.0], [0.3, 0.3, 0.4],
                            [ConstLearner(p) for p in (0.2, 0.5, 0.9)])
        sizes = [int(ens.thresholds.qualified(c).sum()) for c in (0.0, 0.5, 1.0, 1.5, 2.0, 99.0)]
        assert sizes == sorted(sizes)

    def test_piecewise_constant_in_effort(self):
        ens = stub_ensemble([0.0, 1.0, 2.0], [0.3, 0.3, 0.4],
                            [ConstLearner(p) for p in (0.2, 0.5, 0.9)])
        g = lambda c: predict_effort_conditioned(ens, RiskQuery(np.zeros(1), c))[0]
        assert g(0.0) == g(0.5) == g(0.999)
        assert g(1.0) == g(1.7) != g(0.5)
        assert g(2.0) == g(10.0) != g(1.5)

    def test_per_row_effort_matches_scalar_effort(self):
        ens = stub_ensemble([0.0, 1.0, 2.0], [0.2, 0.3, 0.5],
                            [ConstLearner(0.4, 0.01), ConstLearner(0.6, 0.02),
                             ConstLearner(0.8)])
        efforts = np.array([2.5, 0.0, 1.0, 0.4, 1.9, 7.0])
        P, V = ens.member_outputs(np.zeros((efforts.size, 1)), efforts)
        g, v = ens.combine_at_effort(P, V, efforts)
        for i, c in enumerate(efforts):
            g1, v1 = ens.combine_at_effort(P[i:i + 1], V[i:i + 1], float(c))
            assert (g[i], v[i]) == (g1[0], v1[0])
        np.testing.assert_array_equal(ens.predict_rows(np.zeros((6, 1)), efforts)[0], g)

    def test_dimension_mismatch_rejected(self):
        ens = stub_ensemble([0.0], [1.0], [ConstLearner(0.5)])
        with pytest.raises(IwareError):
            predict_effort_conditioned(ens, RiskQuery(np.zeros(3), 1.0))

    def test_bad_query_rejected(self):
        with pytest.raises(IwareError):
            RiskQuery(np.array([np.nan]), 1.0)
        with pytest.raises(IwareError):
            RiskQuery(np.zeros(1), -0.5)


class TestSquash:
    def test_zero_maps_to_zero(self):
        assert squash_uncertainty(0.0, scale=2.0) == 0.0

    def test_scale_point(self):
        assert squash_uncertainty(1.0, scale=1.0) == pytest.approx(0.46211715726000974)

    def test_asymptote(self):
        assert squash_uncertainty(1e9, scale=1.0) == pytest.approx(1.0)
        assert squash_uncertainty(1e9, scale=1.0) < 1.0

    def test_negative_rejected(self):
        with pytest.raises(IwareError):
            squash_uncertainty(-0.1, scale=1.0)


def full_outputs(ens, X):
    """Every learner's (P, V) on every row of X, each in one batch."""
    outs = [lrn.predict_proba(X) for lrn in ens.learners]
    return (np.column_stack([iware._clamp_probs(p) for p, _ in outs]),
            np.column_stack([np.zeros(len(X)) if v is None else np.maximum(v, 0.0)
                             for _, v in outs]))


def _toy_training_dataset(seed=0, T=6, n=36):
    rng = np.random.default_rng(seed)
    grid = flat_grid(6, n // 6, k=2)
    effort = rng.gamma(2.0, 1.0, size=(T, n)) * (rng.random((T, n)) < 0.7)
    prob = 0.35 * (1 - np.exp(-effort))
    labels = (rng.random((T, n)) < prob).astype(np.int8)
    return assemble_dataset(grid, effort, labels)


class TestQualifiedRows:
    """A learner predicts only the rows whose effort reaches its threshold."""

    @pytest.mark.parametrize("kind, options, tol", [("trees", {"num_trees": 4}, 0.0),
                                                    ("gp", {"max_points": 30}, 1e-12)])
    def test_member_outputs_equal_full_batch(self, kind, options, tol):
        ds = _toy_training_dataset(seed=5, T=4, n=24)
        ens = train_iware(ds, I=3, learner_kind=kind, rng=1, **options)
        X, _, eff = iware._dataset_rows(ds)
        P, V = ens.member_outputs(X, eff)
        full_P, full_V = full_outputs(ens, X)
        Q = ens.thresholds.qualified(eff)
        assert Q[:, 0].all() and not Q.all()
        np.testing.assert_allclose(P[Q], full_P[Q], rtol=0, atol=tol)
        np.testing.assert_allclose(V[Q], full_V[Q], rtol=0, atol=tol)
        assert np.isnan(P[~Q]).all() and np.isnan(V[~Q]).all()

    def test_combining_above_the_covered_effort_gives_nan(self):
        ens = stub_ensemble([0.0, 1.0, 2.0], [0.2, 0.3, 0.5],
                            [ConstLearner(0.4, 0.01), ConstLearner(0.6), ConstLearner(0.8)])
        P, V = ens.member_outputs(np.zeros((3, 1)), 1.5)
        assert np.isnan(P[:, 2]).all() and not np.isnan(P[:, :2]).any()
        g, v = ens.combine_at_effort(P, V, 1.5)
        assert g == pytest.approx([0.52] * 3) and np.isfinite(v).all()
        g, v = ens.combine_at_effort(P, V, 2.5)
        assert np.isnan(g).all() and np.isnan(v).all()
        g, v = ens.combine_at_effort(P, V, np.array([0.5, 2.0, 1.0]))
        assert np.isnan(g[1]) and np.isnan(v[1])
        assert np.isfinite(g[[0, 2]]).all() and np.isfinite(v[[0, 2]]).all()

    def test_trees_weights_match_every_row_oracle(self):
        """Weights and squash scale are those of running every learner on
        every training row and mixing with weight 0 where it does not
        qualify, bit for bit."""
        ds = _toy_training_dataset(seed=5)
        ens = train_iware(ds, I=4, learner_kind="trees", rng=3, num_trees=5)
        X, y, eff = iware._dataset_rows(ds)
        P, V = full_outputs(ens, X)
        held = P.copy()
        for i, (lrn, theta) in enumerate(zip(ens.learners, ens.thresholds.thresholds)):
            keep = iware._one_sided(y, eff, theta)
            used, prob = lrn.held_out_proba(X[keep])
            held[np.flatnonzero(keep)[used], i] = prob
        Q = ens.thresholds.qualified(eff)
        assert not Q.all()
        w = optimize_weights_from_probs(held, y, Q & ~np.isnan(held))
        W = iware.mixture_weights(Q, w)
        g = (W * P).sum(axis=1)
        raw = np.maximum((W * (V + P**2)).sum(axis=1) - g**2, 0.0)
        assert np.median(raw) > 0
        np.testing.assert_array_equal(ens.weights, w)
        assert ens.squash_scale == float(np.median(raw))


class TestTrainIware:
    def test_deterministic(self):
        ds = _toy_training_dataset()
        a = train_iware(ds, I=3, learner_kind="trees", rng=5, num_trees=5)
        b = train_iware(ds, I=3, learner_kind="trees", rng=5, num_trees=5)
        np.testing.assert_array_equal(a.weights, b.weights)
        X = ds.rows(0)
        np.testing.assert_array_equal(a.predict_rows(X, 1.0)[0], b.predict_rows(X, 1.0)[0])

    def test_single_threshold_equals_plain_learner(self):
        ds = _toy_training_dataset(seed=3)
        ens = train_iware(ds, I=1, learner_kind="trees", rng=11, num_trees=8)
        assert ens.weights == pytest.approx([1.0])
        plain = train_bagged(one_sided_subset(ds, 0.0), num_trees=8,
                             rng=np.random.default_rng([11, 1, 0]))
        X = np.concatenate([ds.rows(t) for t in range(ds.num_timesteps)])
        g, _ = ens.predict_rows(X, 2.0)
        p, _ = plain.predict_proba(X)
        np.testing.assert_allclose(g, p, atol=1e-12)

    def test_weights_on_simplex(self):
        ds = _toy_training_dataset(seed=4)
        ens = train_iware(ds, I=4, learner_kind="trees", rng=2, num_trees=5)
        assert np.all(ens.weights >= -1e-9)
        assert abs(ens.weights.sum() - 1.0) <= 1e-9

    def test_gp_learner_kind(self):
        ds = _toy_training_dataset(seed=5, T=4, n=24)
        ens = train_iware(ds, I=2, learner_kind="gp", rng=1, max_points=60)
        g, v = ens.predict_rows(ds.rows(0), 1.0)
        assert np.all((g > 0) & (g < 1))
        assert np.all(v >= 0)

    @pytest.mark.parametrize("name, value, rule", [
        ("I", 0, ">= 1"), ("I", -1, ">= 1"), ("I", True, "an integer"), ("I", 2.5, "an integer"),
        ("I", "3", "an integer"), ("feature_subsample", 0, ">= 1"), ("signal_var", True, "a number"),
    ])
    def test_rejects_a_setting_of_the_wrong_kind(self, name, value, rule):
        # before, I=True trained one threshold, I=2.5 raised TypeError, and a
        # feature_subsample of 0 raised IndexError
        ds = _toy_training_dataset(seed=2)
        kind = "gp" if name == "signal_var" else "trees"
        with pytest.raises(LearnerError, match=f"{name} must be {rule}"):
            train_iware(ds, **{"I": 2, "learner_kind": kind, "rng": 0, name: value})

    def test_integral_threshold_count_of_any_number_type_trains_alike(self):
        ds = _toy_training_dataset(seed=2)
        want = train_iware(ds, I=2, rng=0, num_trees=3).to_dict()
        for I in (2.0, np.int64(2)):
            assert train_iware(ds, I=I, rng=0, num_trees=3).to_dict() == want, I

    def test_unknown_option_rejected(self):
        ds = _toy_training_dataset(seed=2)
        with pytest.raises(IwareError, match="num_tree"):
            train_iware(ds, I=2, learner_kind="trees", rng=0, num_tree=3)

    def test_option_of_other_kind_rejected(self):
        ds = _toy_training_dataset(seed=2)
        for kind, option in (("gp", "num_trees"), ("trees", "max_points")):
            with pytest.raises(IwareError, match=option):
                train_iware(ds, I=2, learner_kind=kind, rng=0, **{option: 3})

    def test_serialization_round_trip(self):
        ds = _toy_training_dataset(seed=6)
        ens = train_iware(ds, I=3, learner_kind="trees", rng=7, num_trees=4)
        back = IWareEnsemble.from_dict(ens.to_dict())
        X = ds.rows(1)
        np.testing.assert_array_equal(ens.predict_rows(X, 1.5)[0],
                                      back.predict_rows(X, 1.5)[0])
        np.testing.assert_array_equal(ens.predict_rows(X, 1.5)[1],
                                      back.predict_rows(X, 1.5)[1])

    def test_trees_fit_once_per_threshold(self, monkeypatch):
        fits = []
        fit = iware.train_bagged
        monkeypatch.setattr(iware, "train_bagged", lambda *a, **k: fits.append(1) or fit(*a, **k))
        train_iware(_toy_training_dataset(), I=3, learner_kind="trees", rng=5, num_trees=5)
        assert len(fits) == 3

    def test_gp_fit_once_per_threshold(self, monkeypatch):
        fits = []
        fit = iware.train_gp
        monkeypatch.setattr(iware, "train_gp", lambda *a, **k: fits.append(1) or fit(*a, **k))
        ens = train_iware(_toy_training_dataset(seed=5, T=4, n=24), I=3, learner_kind="gp",
                          rng=1, max_points=60)
        assert len(fits) == ens.thresholds.count == 3

    @pytest.mark.parametrize("kind, options", [("trees", {"num_trees": 4}),
                                               ("gp", {"max_points": 30})])
    def test_held_out_matrix(self, monkeypatch, kind, options):
        """Each learner's column holds its held-out predictions on the rows
        its fit used, its plain predictions, made in one batch, on its other
        qualified rows, and NaN on the rest, which the weight fit leaves
        out."""
        ds = _toy_training_dataset(seed=5, T=4, n=24)
        seen = []
        fit = iware.optimize_weights_from_probs
        monkeypatch.setattr(iware, "optimize_weights_from_probs",
                            lambda P, y, mask: seen.append((P, mask)) or fit(P, y, mask))
        ens = train_iware(ds, I=3, learner_kind=kind, rng=1, **options)
        X, y, eff = iware._dataset_rows(ds)
        (held, mask), = seen
        plain_rows = 0
        for i, (lrn, theta) in enumerate(zip(ens.learners, ens.thresholds.thresholds)):
            fitted = np.flatnonzero(iware._one_sided(y, eff, theta))
            rows, prob = lrn.held_out_proba(X[fitted])
            np.testing.assert_array_equal(held[fitted[rows], i], prob)
            qualified = np.flatnonzero(theta <= eff)
            other = np.isin(qualified, fitted[rows], invert=True)
            plain = iware._clamp_probs(lrn.predict_proba(X[qualified])[0])
            np.testing.assert_array_equal(held[qualified[other], i], plain[other])
            plain_rows += other.sum()
            unqualified = np.setdiff1d(np.arange(y.size), qualified)
            assert not mask[unqualified, i].any()
            assert np.isnan(held[np.setdiff1d(unqualified, fitted[rows]), i]).all()
            assert (unqualified.size > 0) == (i > 0)
        assert plain_rows > 0

    def test_out_of_bag_votes(self):
        X, y, eff = iware._dataset_rows(_toy_training_dataset(seed=1))
        keep = iware._one_sided(y, eff, 0.5)
        model = train_bagged(TrainMatrix(X[keep], y[keep]), num_trees=3, rng=0)
        rows, held = model.held_out_proba(X[keep])
        votes = model.tree_votes(X[keep])
        np.testing.assert_array_equal(rows, np.arange(keep.sum()))
        for j in rows:
            out = model.memberships[:, j] == 0
            if out.any():
                assert held[j] == pytest.approx(votes[out, j].mean(), rel=1e-12)
            else:
                assert np.isnan(held[j])
        assert np.isnan(held).any()


class TestQueryOutputs:
    """An ensemble that keeps its outputs on one set of query rows returns
    them for those rows, as its learners would give them."""

    @staticmethod
    def _round_trip(ens):
        import json
        return IWareEnsemble.from_dict(json.loads(json.dumps(ens.to_dict())))

    @pytest.mark.parametrize("kind, options, tol", [("trees", {"num_trees": 4}, 0.0),
                                                    ("gp", {"max_points": 30}, 1e-12)])
    def test_kept_outputs_equal_computed_ones(self, monkeypatch, kind, options, tol):
        ds = _toy_training_dataset(seed=5, T=4, n=24)
        ens = train_iware(ds, I=3, learner_kind=kind, rng=1, **options)
        X = ds.rows(ds.num_timesteps - 1)
        efforts = [0.0, ens.thresholds.thresholds[1], np.inf, ds.effort[-1]]
        computed = [self._round_trip(ens).member_outputs(X, c) for c in efforts]
        ens.keep_query_outputs(X)
        loaded = self._round_trip(ens)
        for lrn in loaded.learners:
            monkeypatch.setattr(lrn, "predict_proba", None)  # no learner may run
        for c, (P0, V0) in zip(efforts, computed):
            P, V = loaded.member_outputs(X.copy(), c)
            assert np.array_equal(np.isnan(P), np.isnan(P0))
            assert np.array_equal(np.isnan(V), np.isnan(V0))
            # a per-row effort runs a learner on fewer rows than the kept batch
            exact = tol if np.ndim(c) else 0.0
            np.testing.assert_allclose(P, P0, rtol=0, atol=exact)
            np.testing.assert_allclose(V, V0, rtol=0, atol=exact)

    def test_other_rows_are_computed(self):
        ds = _toy_training_dataset(seed=5, T=4, n=24)
        ens = train_iware(ds, I=3, learner_kind="trees", rng=1, num_trees=4)
        X = ds.rows(ds.num_timesteps - 1)
        other = X.copy()
        other[0, -1] += 1.0
        others = (other, X[:-1])
        expected = [ens.member_outputs(rows, np.inf) for rows in others]
        ens.keep_query_outputs(X)
        assert not np.array_equal(expected[0][0], ens.query_outputs.prob)
        for rows, (P0, V0) in zip(others, expected):
            P, V = ens.member_outputs(rows, np.inf)
            np.testing.assert_array_equal(P, P0)
            np.testing.assert_array_equal(V, V0)

    def test_document_without_the_block(self):
        ds = _toy_training_dataset(seed=5, T=4, n=24)
        ens = train_iware(ds, I=3, learner_kind="trees", rng=1, num_trees=4)
        assert "query_outputs" not in ens.to_dict()
        X = ds.rows(ds.num_timesteps - 1)
        ens.keep_query_outputs(X)
        doc = ens.to_dict()
        assert len(doc["query_outputs"]["prob"]) == len(X)
        del doc["query_outputs"]
        assert IWareEnsemble.from_dict(doc).query_outputs is None


def _key_paths(node, path=()):
    """The path to every key of a document's objects, looking into the
    first entry of each list of objects (all of a list's objects are read
    alike)."""
    if isinstance(node, list) and node and isinstance(node[0], dict):
        yield from _key_paths(node[0], path + (0,))
    elif isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _key_paths(value, path + (key,))


class TestDocument:
    """Every key a trained ensemble stores is read on load: without any one
    of them, but the optional ``query_outputs``, the document fails to
    load."""

    @pytest.mark.parametrize("kind, options", [("trees", {"num_trees": 4}),
                                               ("gp", {"max_points": 30})])
    def test_document_lacking_any_key_fails_to_load(self, kind, options):
        import copy
        import json

        ds = _toy_training_dataset(seed=5, T=4, n=24)
        ens = train_iware(ds, I=3, learner_kind=kind, rng=1, **options)
        ens.keep_query_outputs(ds.rows(ds.num_timesteps - 1))
        doc = json.loads(json.dumps(ens.to_dict()))
        assert IWareEnsemble.from_dict(doc).to_dict() == doc
        paths = [p for p in _key_paths(doc) if p != ("query_outputs",)]
        for path in paths:
            lacking = copy.deepcopy(doc)
            parent = lacking
            for step in path[:-1]:
                parent = parent[step]
            del parent[path[-1]]
            with pytest.raises(IwareError):
                IWareEnsemble.from_dict(lacking)
