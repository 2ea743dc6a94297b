import warnings

import numpy as np
import pytest

from patrolkit.grid import assemble_dataset
from patrolkit.iware import IwareError, squash_uncertainty, train_iware
from patrolkit.riskmap import (
    EFFORT_CUTOFF_PERCENTILE,
    PERCENTILE_BANDS,
    BlockSelection,
    PwlRiskModel,
    build_pwl,
    default_c_max,
    interp_rows,
    query_rows,
    select_field_test_blocks,
    sweep_riskmap,
)

from conftest import flat_grid
from test_iware import ConstLearner, _toy_training_dataset, full_outputs, stub_ensemble


def _tiny_dataset(grid, seed=0, T=4):
    rng = np.random.default_rng(seed)
    n = grid.n_cells
    effort = rng.gamma(2.0, 1.0, size=(T, n)) * (rng.random((T, n)) < 0.8)
    labels = (rng.random((T, n)) < 0.3 * (1 - np.exp(-effort))).astype(np.int8)
    return assemble_dataset(grid, effort, labels)


class TestSweep:
    def test_zero_effort_uses_only_first_learner(self):
        grid = flat_grid(2, 2, k=1)
        ds = _tiny_dataset(grid)
        ens = stub_ensemble([0.0, 1.0], [0.5, 0.5],
                            [ConstLearner(0.3), ConstLearner(0.9)])
        ens.n_features = 2
        rm = sweep_riskmap(ens, grid, ds, [0.5])
        ids = grid.masked_ids()
        assert rm.prob[0, ids] == pytest.approx([0.3] * 4)

    def test_masked_cells_carry_nan(self):
        mask = np.array([1, 1, 0, 1], bool)
        grid = flat_grid(2, 2, k=1, mask=mask)
        ds = _tiny_dataset(grid)
        ens = stub_ensemble([0.0], [1.0], [ConstLearner(0.4)])
        ens.n_features = 2
        rm = sweep_riskmap(ens, grid, ds, [1.0])
        assert np.isnan(rm.prob[0, 2]) and np.isnan(rm.var[0, 2])
        assert not np.isnan(rm.prob[0, 0])

    def test_levels_must_increase(self):
        grid = flat_grid(2, 1, k=1)
        ens = stub_ensemble([0.0], [1.0], [ConstLearner(0.4)])
        ens.n_features = 2
        with pytest.raises(IwareError):
            sweep_riskmap(ens, grid, _tiny_dataset(grid), [2.0, 1.0])

    def test_levels_checked_before_predicting(self):
        grid = flat_grid(2, 1, k=1)
        ens = stub_ensemble([0.0], [1.0], [ConstLearner(0.4)])
        ens.n_features = 2
        for levels in ([], [np.nan], [-1.0, 1.0], [0.0, np.inf]):
            with pytest.raises(IwareError, match="effort levels must be nonempty"):
                sweep_riskmap(ens, grid, _tiny_dataset(grid), levels)

    def test_learners_above_the_top_level_never_run(self, monkeypatch):
        ds = _toy_training_dataset(seed=5)
        ens = train_iware(ds, I=4, learner_kind="trees", rng=3, num_trees=5)
        levels = [0.0, 0.5, 1.2]
        ids = ds.grid.masked_ids()
        P, V = full_outputs(ens, query_rows(ds.grid, ds))
        calls = [0] * ens.thresholds.count
        for i, lrn in enumerate(ens.learners):
            monkeypatch.setattr(lrn, "predict_proba", lambda X, i=i, run=lrn.predict_proba:
                                calls.__setitem__(i, calls[i] + 1) or run(X))
        rm = sweep_riskmap(ens, ds.grid, ds, levels)
        above = np.asarray(ens.thresholds.thresholds) > levels[-1]
        assert above.any() and not above.all()
        assert calls == [0 if a else 1 for a in above]
        for j, c in enumerate(levels):
            g, v = ens.combine_at_effort(P, V, c)
            np.testing.assert_array_equal(rm.prob[j, ids], g)
            np.testing.assert_array_equal(rm.var[j, ids], squash_uncertainty(v, ens.squash_scale))

    def test_sweep_mostly_nondecreasing_on_trained_ensemble(self):
        # Fig. 6 shape: g generally rises with hypothetical effort. GP weak
        # learners on the full (nested) filtered subsets give correlated,
        # base-rate-calibrated members, which is what produces the shape.
        from patrolkit import synth

        grid = synth.generate_park(12, 12, k=5, num_posts=2, seed=0)
        rng = np.random.default_rng([0, 0xEFF])
        eff = synth.patchy_effort_policy(grid, 8, rng, mean_km=2.5,
                                         patrolled_fraction=0.8,
                                         accessibility_features=[0, 1], coupling=0.8)
        truth = synth.make_ground_truth(grid, 0, target_rate=0.09, effort_policy=eff,
                                        detect_rate_span=(0.12, 0.45),
                                        attack_features=[2, 3, 4])
        ds = synth.sample_dataset(grid, truth, 8, eff, 0)
        train_ds = assemble_dataset(grid, ds.effort[:7], ds.labels[:7])
        ens = train_iware(train_ds, I=4, learner_kind="gp", rng=0, max_points=5000)
        rm = sweep_riskmap(ens, grid, train_ds, [0.5, 1.0, 2.0])
        ids = grid.masked_ids()
        g = rm.prob[:, ids]
        monotone = np.all(np.diff(g, axis=0) >= -1e-12, axis=0)
        assert monotone.mean() >= 0.9


def prob_at(m, cell, effort):
    """A cell's risk at each effort, by ``interp_rows`` on the breakpoint
    values, as branch and bound and ``objective_of_coverage`` evaluate it."""
    c = np.atleast_1d(np.asarray(effort, dtype=float))
    return interp_rows(c, m.breakpoints, np.repeat(m.prob_values[[cell]], c.size, axis=0))


class TestPwl:
    def _model(self):
        grid = flat_grid(2, 1, k=1)
        br = np.array([0.0, 1.0, 2.0])
        prob = np.array([[0.2, 0.4, 0.5], [0.0, 0.1, 0.6]])
        var = np.array([[0.0, 0.2, 0.3], [0.1, 0.1, 0.2]])
        return PwlRiskModel(grid=grid, breakpoints=br, prob_values=prob, var_values=var)

    def test_exact_at_breakpoints(self):
        m = self._model()
        for cell in (0, 1):
            np.testing.assert_array_equal(prob_at(m, cell, m.breakpoints), m.prob_values[cell])

    def test_midpoint_interpolation(self):
        m = self._model()
        assert prob_at(m, 0, 0.5) == pytest.approx(0.3)

    def test_clamped_beyond_domain(self):
        m = self._model()
        assert prob_at(m, 1, 99.0) == pytest.approx(0.6)

    def test_continuity(self):
        m = self._model()
        cs = np.linspace(0, 2, 101)
        vals = prob_at(m, 0, cs)
        assert np.all(np.abs(np.diff(vals)) <= 0.25 * (cs[1] - cs[0]) + 1e-12)

    def test_extension_warns_and_flattens(self):
        m = self._model()
        with pytest.warns(UserWarning, match="clamping"):
            ext = m.extended_to(5.0)
        assert ext.c_max == 5.0
        assert prob_at(ext, 0, 4.9) == pytest.approx(0.5)

    def test_utility_product_formed_pointwise(self):
        m = self._model()
        u = m.utility_values(beta=1.0)
        assert u[0, 2] == pytest.approx(0.5 * (1 - 0.3))
        u0 = m.utility_values(beta=0.0)
        np.testing.assert_array_equal(u0, m.prob_values)

    def test_build_from_ensemble_and_riskmap(self):
        grid = flat_grid(2, 2, k=1)
        ds = _tiny_dataset(grid)
        ens = stub_ensemble([0.0, 1.0], [0.4, 0.6],
                            [ConstLearner(0.3, 0.01), ConstLearner(0.8, 0.02)])
        ens.n_features = 2
        pwl = build_pwl(ens, grid, m=4, c_max=2.0, ds=ds)
        assert pwl.segments == 4
        ids = grid.masked_ids()
        # at c=0 only the first learner qualifies
        assert pwl.prob_values[ids, 0] == pytest.approx([0.3] * 4)
        # the curves are the risk-map sweep at the breakpoints, transposed
        rm = sweep_riskmap(ens, grid, ds, pwl.breakpoints)
        np.testing.assert_array_equal(pwl.prob_values, rm.prob.T)
        np.testing.assert_array_equal(pwl.var_values, rm.var.T)

    def test_interp_rows_is_np_interp_bit_for_bit(self):
        # 400 cells on uneven breakpoints, flat-extended past c_max
        rng = np.random.default_rng(3)
        grid = flat_grid(20, 20, k=1)
        br = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.7, size=6))])
        m = PwlRiskModel(grid=grid, breakpoints=br, prob_values=rng.random((400, 7)),
                         var_values=rng.random((400, 7)))
        with pytest.warns(UserWarning, match="clamping"):
            ext = m.extended_to(br[-1] + 3.0)
        between = rng.uniform(0.0, br[-1], size=400)
        cases = [np.zeros(400), between, rng.uniform(br[-1], ext.c_max, size=400),
                 np.full(400, ext.c_max + 1.0), rng.choice(ext.breakpoints, size=400)]
        cases += [np.full(400, b) for b in ext.breakpoints]
        # and without the extension: clamped at both ends of the domain
        cases += [np.full(400, -0.5), np.full(400, br[-1]), br[-1] + rng.random(400)]
        for x in cases:
            for pwl in (ext, m):
                fp = pwl.utility_values(0.5)
                want = np.array([np.interp(x[i], pwl.breakpoints, fp[i]) for i in range(400)])
                got = interp_rows(x, pwl.breakpoints, fp)
                assert got.tobytes() == want.tobytes()

    def test_default_c_max(self):
        grid = flat_grid(2, 1, k=1)
        ds = assemble_dataset(grid, np.array([[1.0, 3.0]]), np.zeros((1, 2), int))
        assert default_c_max(ds) == pytest.approx(2 * np.quantile([1.0, 3.0], 0.95))


class TestBlockSelection:
    def test_uniform_risk_identity_convolution(self):
        grid = flat_grid(5, 5, k=1)
        sel = select_field_test_blocks(grid, np.full(25, 0.7), np.zeros(25), per_band=1)
        for band in (sel.high, sel.medium, sel.low):
            assert all(r == pytest.approx(0.7) for _, r in band)

    def test_percentile_bands_partition(self):
        rng = np.random.default_rng(0)
        grid = flat_grid(12, 12, k=1)
        risk = rng.random(144)
        with pytest.warns(UserWarning, match="valid blocks"):
            sel = select_field_test_blocks(grid, risk, np.zeros(144), per_band=100)
        all_cells = [c for band in (sel.high, sel.medium, sel.low) for c, _ in band]
        assert len(all_cells) == len(set(all_cells))

    def test_hundred_blocks_band_arithmetic(self):
        # 1-cell blocks on a 10x10 grid: block risks are exactly 1..100
        grid = flat_grid(10, 10, k=1)
        risk = np.arange(1.0, 101.0)
        with pytest.warns(UserWarning, match="valid blocks"):
            sel = select_field_test_blocks(grid, risk, np.zeros(100), block_size=1,
                                           per_band=100)
        high = sorted(r for _, r in sel.high)
        low = sorted(r for _, r in sel.low)
        assert high == [float(v) for v in range(81, 101)]
        assert low == [float(v) for v in range(1, 21)]

    def test_high_effort_blocks_excluded(self):
        grid = flat_grid(6, 3, k=1)
        effort = np.zeros(18)
        effort[4] = 100.0  # poisons every block containing cell 4
        risk = np.linspace(0, 1, 18)
        with pytest.warns(UserWarning, match="valid blocks"):
            sel = select_field_test_blocks(grid, risk, effort, per_band=50)
        chosen = {c for band in (sel.high, sel.medium, sel.low) for c, _ in band}
        # cell 4 = (x4, y0); the 3x3 blocks containing it have centers 9 and 10
        assert not {9, 10} & chosen
        assert {7, 8} & chosen

    def test_convolved_risk_within_member_range(self):
        rng = np.random.default_rng(1)
        grid = flat_grid(7, 7, k=1)
        risk = rng.random(49)
        with pytest.warns(UserWarning, match="valid blocks"):
            sel = select_field_test_blocks(grid, risk, np.zeros(49), per_band=100)
        for c, r in sel.high + sel.medium + sel.low:
            x, y = grid.cell_xy(c)
            block = [risk[(y + dy) * 7 + (x + dx)] for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
            assert min(block) - 1e-12 <= r <= max(block) + 1e-12

    def test_truncation_warns(self):
        grid = flat_grid(3, 3, k=1)
        with pytest.warns(UserWarning, match="valid blocks"):
            sel = select_field_test_blocks(grid, np.full(9, 0.5), np.zeros(9), per_band=5)
        assert sel.truncated

    def test_grid_smaller_than_block_rejected(self):
        grid = flat_grid(2, 2, k=1)
        with pytest.raises(IwareError):
            select_field_test_blocks(grid, np.zeros(4), np.zeros(4), block_size=3)


def _reference_blocks(grid, risk, historical_effort, block_size=3, per_band=5):
    """Block selection as plain nested loops over the windows: the reference
    whose outputs, warnings and errors ``select_field_test_blocks`` must
    match."""

    def valid_blocks(values, block):
        W, H = grid.width, grid.height
        vals = values.reshape(H, W)
        mask = grid.mask.reshape(H, W).astype(float)
        out = []
        bi = 0
        for y0 in range(H - block + 1):
            for x0 in range(W - block + 1):
                sub_mask = mask[y0:y0 + block, x0:x0 + block]
                if sub_mask.sum() == block * block:
                    centre = (y0 + block // 2) * W + (x0 + block // 2)
                    out.append((bi, centre, float(vals[y0:y0 + block, x0:x0 + block].mean())))
                bi += 1
        return out

    if grid.width < block_size or grid.height < block_size:
        raise IwareError("grid smaller than the block size")
    risk_blocks = valid_blocks(np.asarray(risk, dtype=float), block_size)
    eff_blocks = valid_blocks(np.asarray(historical_effort, dtype=float), block_size)
    if not risk_blocks:
        raise IwareError("no fully masked blocks available")
    efforts = np.asarray([e for _, _, e in eff_blocks])
    cutoff = np.percentile(efforts, EFFORT_CUTOFF_PERCENTILE)
    kept = [(bi, ctr, r) for (bi, ctr, r), (_, _, e) in zip(risk_blocks, eff_blocks) if e <= cutoff]

    nk = len(kept)
    order = sorted(range(nk), key=lambda i: (kept[i][2], kept[i][0]))
    pct = np.empty(nk)
    for rank, i in enumerate(order):
        pct[i] = 100.0 * rank / (nk - 1) if nk > 1 else 100.0

    truncated = False
    chosen = []
    for lo, hi in PERCENTILE_BANDS:
        members = [i for i in range(nk) if lo <= pct[i] <= hi]
        members.sort(key=lambda i: (-kept[i][2], kept[i][0]))
        if len(members) < per_band:
            truncated = True
            warnings.warn(
                f"band {lo}-{hi} has only {len(members)} valid blocks "
                f"(requested {per_band})", stacklevel=2)
        chosen.append(tuple((kept[i][1], kept[i][2]) for i in members[:per_band]))

    return BlockSelection(block_size_cells=block_size, high=chosen[0],
                          medium=chosen[1], low=chosen[2], truncated=truncated)


def _selection_outcome(select, *args, **kwargs):
    """(to_dict() or the error text, the warnings' categories and texts)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = select(*args, **kwargs).to_dict()
        except IwareError as err:
            result = f"IwareError: {err}"
    return result, [(w.category, str(w.message)) for w in caught]


class TestBlockSelectionMatchesReference:
    @pytest.mark.parametrize("chunk", range(4))
    def test_random_grids(self, chunk):
        # rounded risks and efforts make ties, within and across bands; most
        # cases fit the block in the grid and leave few holes in the park, so
        # that most select blocks. Block sizes start at 1: the CLI rejects 0
        for seed in range(150 * chunk, 150 * chunk + 150):
            rng = np.random.default_rng(seed)
            width, height = (int(v) for v in rng.integers(1, 60 if seed % 10 == 0 else 25, size=2))
            n = width * height
            mask = rng.random(n) >= rng.choice([0.0, 0.01, 0.05, 0.2, 0.4])
            mask[0] = True
            grid = flat_grid(width, height, mask=mask)
            risk = np.round(rng.random(n), int(rng.integers(1, 4)))
            if seed % 3 == 0:
                risk[~mask] = np.nan
            effort = np.round(rng.gamma(1.0, 1.0, n) * (rng.random(n) < 0.7), int(rng.integers(0, 3)))
            largest = 8 if seed % 10 == 5 else min(8, width, height)
            kwargs = dict(block_size=int(rng.integers(1, largest + 1)),
                          per_band=int(rng.integers(1, 12)))
            want = _selection_outcome(_reference_blocks, grid, risk, effort, **kwargs)
            got = _selection_outcome(select_field_test_blocks, grid, risk, effort, **kwargs)
            assert got == want, seed
