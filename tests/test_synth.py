import numpy as np
import pytest

from patrolkit import synth

from conftest import flat_grid


class TestGeneratePark:
    def test_deterministic_under_seed(self):
        a = synth.generate_park(6, 5, k=3, num_posts=2, seed=9)
        b = synth.generate_park(6, 5, k=3, num_posts=2, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        assert a.patrol_posts == b.patrol_posts

    def test_single_cell_single_feature(self):
        g = synth.generate_park(1, 1, k=1, num_posts=1, seed=0)
        assert g.n_cells == 1 and g.num_features == 1

    def test_zero_posts_rejected(self):
        with pytest.raises(synth.SynthError):
            synth.generate_park(2, 2, k=1, num_posts=0, seed=0)

    def test_too_many_posts_rejected(self):
        with pytest.raises(synth.SynthError):
            synth.generate_park(2, 2, k=1, num_posts=5, seed=0)


class TestSampleDataset:
    def test_zero_detection_rate_gives_no_labels(self):
        grid = flat_grid(3, 3)
        truth = synth.GroundTruth(attack_prob=np.full(9, 0.9),
                                  detect_rate=np.zeros(9), seed=0)
        ds = synth.sample_dataset(grid, truth, 4, np.full((4, 9), 2.0), seed=1)
        assert not ds.labels.any()

    def test_saturated_detection_rate_near_one(self):
        grid = flat_grid(20, 20)
        lam = 1.0
        truth = synth.GroundTruth(attack_prob=np.ones(400),
                                  detect_rate=np.full(400, lam), seed=0)
        ds = synth.sample_dataset(grid, truth, 3, np.full((3, 400), 10.0 / lam), seed=2)
        assert ds.labels.mean() >= 0.99  # 1 - exp(-10) leaves almost nothing

    def test_deterministic(self):
        grid = flat_grid(4, 4)
        truth = synth.GroundTruth(attack_prob=np.full(16, 0.5),
                                  detect_rate=np.ones(16), seed=0)
        policy = np.full((3, 16), 1.5)
        a = synth.sample_dataset(grid, truth, 3, policy, seed=3)
        b = synth.sample_dataset(grid, truth, 3, policy, seed=3)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_one_sided_noise_dominance(self):
        # more effort can only increase expected positives
        grid = flat_grid(6, 6)
        truth = synth.GroundTruth(attack_prob=np.full(36, 0.4),
                                  detect_rate=np.full(36, 0.8), seed=0)
        lo = hi = 0
        for seed in range(100):
            lo += synth.sample_dataset(grid, truth, 2, np.full((2, 36), 0.5), seed).labels.sum()
            hi += synth.sample_dataset(grid, truth, 2, np.full((2, 36), 2.0), seed).labels.sum()
        assert hi >= lo


class TestPresets:
    def test_sws_like_hits_extreme_imbalance(self):
        b = synth.generate_preset("sws-like", 11)
        rate = b.dataset.labels.mean()
        assert b.dataset.labels.size >= 50000
        assert abs(rate - 0.0036) <= 0.001

    def test_mfnp_like_rate(self):
        b = synth.generate_preset("mfnp-like", 11)
        assert abs(b.dataset.labels.mean() - 0.143) <= 0.02

    def test_unknown_preset(self):
        with pytest.raises(synth.SynthError):
            synth.generate_preset("nope", 0)

    def test_truth_dict_round_trips(self):
        b = synth.generate_preset("oneside-noise-small", 1)
        d = b.truth.to_dict()
        assert len(d["attack_prob"]) == b.grid.n_cells
        assert all(v >= 0 for v in d["detect_rate"])
