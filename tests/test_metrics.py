import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolkit.metrics import (
    FieldTestTable,
    MetricsError,
    ScoredSet,
    auc,
    chi_squared_field_test,
    ll_score,
    obs_per_cell,
    pr_metrics,
)

# combined counts of a five-month, three-band ranger field trial
FIELD_TRIAL_COUNTS = [("High", 23, 54, 269.0), ("Medium", 12, 55, 115.3), ("Low", 3, 23, 57.7)]


def pairwise_auc(scores, labels):
    """Independent oracle: count concordant pairs, ties worth one half."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_separation(self):
        assert auc(ScoredSet([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])) == 1.0

    def test_hand_example(self):
        assert auc(ScoredSet([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])) == pytest.approx(0.75)

    def test_all_ties_half(self):
        assert auc(ScoredSet([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1])) == pytest.approx(0.5)

    def test_single_class_undefined(self):
        assert auc(ScoredSet([0.1, 0.9], [1, 1])) is None

    def test_exhaustive_pairwise_oracle(self):
        # every label pattern on small score sets, ties included
        rng = np.random.default_rng(0)
        for n in (2, 3, 5, 8):
            scores = np.round(rng.random(n), 1)  # coarse -> frequent ties
            for labels in itertools.product([0, 1], repeat=n):
                if 0 < sum(labels) < n:
                    got = auc(ScoredSet(scores, labels))
                    want = pairwise_auc(scores, labels)
                    assert abs(got - want) <= 1e-12

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-5, 5).map(lambda v: round(v, 3)), min_size=4, max_size=30))
    def test_invariant_under_monotone_transform(self, scores):
        # coarse score grid so the transform cannot collapse distinct values
        # to the same float
        labels = [i % 2 for i in range(len(scores))]
        s = np.asarray(scores)
        a1 = auc(ScoredSet(s, labels))
        a2 = auc(ScoredSet(np.exp(0.5 * s) + 3, labels))
        assert a1 == pytest.approx(a2, abs=1e-12)


class TestPrMetrics:
    def test_perfect_classifier(self):
        m = pr_metrics(ScoredSet([0.1, 0.2, 0.9, 0.8], [0, 0, 1, 1]))
        assert m["precision"] == 1.0 and m["recall"] == 1.0
        assert m["f1"] == 1.0 and m["prc_area"] == pytest.approx(1.0)

    def test_confusion_arithmetic(self):
        # TP=1, FP=1, FN=1 at threshold 0.5
        m = pr_metrics(ScoredSet([0.9, 0.8, 0.1, 0.2], [1, 0, 1, 0]))
        assert m["precision"] == pytest.approx(0.5)
        assert m["recall"] == pytest.approx(0.5)
        assert m["f1"] == pytest.approx(0.5)

    def test_no_predicted_positives(self):
        m = pr_metrics(ScoredSet([0.1, 0.2, 0.3], [0, 1, 0]), threshold=0.9)
        assert m["precision"] is None and m["f1"] == 0.0

    def test_random_scores_prc_near_positive_rate(self):
        rates = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            scores = rng.random(400)
            labels = rng.random(400) < 0.5
            rates.append(pr_metrics(ScoredSet(scores, labels))["prc_area"] - labels.mean())
        assert abs(np.mean(rates)) <= 0.1

    def test_single_class_rejected(self):
        with pytest.raises(MetricsError):
            pr_metrics(ScoredSet([0.4, 0.6], [1, 1]))


class TestLlScore:
    def test_hand_value(self):
        # recall 1/2, predicted-positive fraction 1/4 -> L&L = 0.25/0.25 = 1
        s = ScoredSet([0.9, 0.1, 0.1, 0.1], [1, 1, 0, 0])
        ll, _ = ll_score(s)
        assert ll == pytest.approx(1.0)

    def test_perfect_predictor_on_ten_percent(self):
        labels = [1] + [0] * 9
        scores = [0.9] + [0.1] * 9
        ll, pct = ll_score(ScoredSet(scores, labels))
        assert ll == pytest.approx(10.0)
        assert pct == pytest.approx(100.0)

    def test_no_predicted_positives(self):
        assert ll_score(ScoredSet([0.1, 0.2], [1, 0])) == (0.0, 0.0)

    def test_identity_from_confusion_matrix(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            scores = rng.random(60)
            labels = rng.random(60) < 0.3
            if not labels.any():
                continue
            s = ScoredSet(scores, labels)
            ll, _ = ll_score(s, threshold=0.5)
            pred = scores >= 0.5
            if pred.sum() == 0:
                assert ll == 0.0
                continue
            r = (pred & labels).sum() / labels.sum()
            pr_hat = pred.mean()
            assert abs(ll - r**2 / pr_hat) <= 1e-12


def brute_force_chi2(groups):
    """Independent oracle: expected counts from row/column sums, longhand."""
    obs = [[o, c - o] for _, o, c, _ in groups]
    total = sum(sum(r) for r in obs)
    rowsums = [sum(r) for r in obs]
    colsums = [sum(r[j] for r in obs) for j in range(2)]
    stat = 0.0
    for i, row in enumerate(obs):
        for j, o in enumerate(row):
            e = rowsums[i] * colsums[j] / total
            stat += (o - e) ** 2 / e
    return stat


class TestChiSquared:
    def test_field_trial_counts_reproduce_reference_p_value(self):
        stat, dof, p = chi_squared_field_test(FieldTestTable.from_counts(FIELD_TRIAL_COUNTS))
        assert dof == 2
        assert p == pytest.approx(1.05e-2, abs=0.02e-2)

    def test_identical_rates_independent(self):
        t = FieldTestTable.from_counts([("High", 5, 10, 1.0), ("Low", 10, 20, 1.0)])
        stat, _, p = chi_squared_field_test(t)
        assert stat == pytest.approx(0.0)
        assert p == pytest.approx(1.0)

    def test_two_group_formula(self):
        groups = [("High", 10, 10, 1.0), ("Low", 0, 10, 1.0)]
        stat, dof, p = chi_squared_field_test(FieldTestTable.from_counts(groups))
        assert dof == 1
        assert stat == pytest.approx(brute_force_chi2(groups))
        assert stat == pytest.approx(20.0)  # classic 2x2 at complete separation

    def test_brute_force_agreement_random_tables(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            groups = []
            for gname in ("A", "B", "C"):
                cells = int(rng.integers(5, 40))
                obs = int(rng.integers(1, cells))
                groups.append((gname, obs, cells, 1.0))
            stat, _, _ = chi_squared_field_test(FieldTestTable.from_counts(groups))
            assert stat == pytest.approx(brute_force_chi2(groups), rel=1e-12)

    def test_df2_closed_form(self):
        stat, dof, p = chi_squared_field_test(FieldTestTable.from_counts(FIELD_TRIAL_COUNTS))
        assert p == pytest.approx(math.exp(-stat / 2), abs=1e-12)

    def test_merging_identical_rate_groups_keeps_statistic(self):
        # Merging two groups with equal rates cannot move the statistic.
        # (The p-value itself shifts because dof drops with the group count.)
        a = [("A", 4, 10, 1.0), ("B", 8, 20, 1.0), ("C", 3, 30, 1.0)]
        merged = [("AB", 12, 30, 2.0), ("C", 3, 30, 1.0)]
        stat_a, _, _ = chi_squared_field_test(FieldTestTable.from_counts(a))
        stat_m, _, _ = chi_squared_field_test(FieldTestTable.from_counts(merged))
        assert stat_a == pytest.approx(stat_m, abs=1e-9)
        assert math.exp(-stat_a / 2) == pytest.approx(math.exp(-stat_m / 2), abs=1e-9)

    def test_single_group_rejected(self):
        with pytest.raises(MetricsError):
            chi_squared_field_test(FieldTestTable.from_counts([("A", 1, 2, 1.0)]))

    def test_invalid_counts_rejected(self):
        with pytest.raises(MetricsError):
            FieldTestTable.from_counts([("A", 5, 2, 1.0)])

    def test_repeated_group_rejected(self):
        # before, the test counted both High rows, and obs_per_cell kept the last
        with pytest.raises(MetricsError, match="'High' appears more than once"):
            FieldTestTable.from_counts([("High", 15, 50, 1.0), ("Low", 3, 50, 1.0),
                                        ("High", 1, 40, 1.0)])


class TestObsPerCell:
    def test_table_values(self):
        # one trial band with 17 detections over 36 cells, another with none
        t = FieldTestTable.from_counts([("High", 17, 36, 197.4), ("Low", 0, 36, 84.12)])
        rates = obs_per_cell(t)
        assert rates["High"] == pytest.approx(0.47, abs=0.005)
        assert rates["Low"] == 0.0

    def test_equal_obs_and_cells(self):
        t = FieldTestTable.from_counts([("A", 5, 5, 1.0), ("B", 1, 2, 1.0)])
        assert obs_per_cell(t)["A"] == 1.0
