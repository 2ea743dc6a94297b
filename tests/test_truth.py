"""The pipeline's outputs scored against a synthetic park's ground truth.

Every preset knows the exact probability that a cell is attacked and the
attack is seen at effort c (``GroundTruth.label_prob``). These tests hold
the library pipeline to properties of that truth.
"""

import functools

import numpy as np
import pytest

from patrolkit import synth
from patrolkit.grid import assemble_dataset
from patrolkit.iware import train_iware
from patrolkit.metrics import FieldTestTable, chi_squared_field_test
from patrolkit.riskmap import select_field_test_blocks, sweep_riskmap


@functools.cache
def field_test(seed: int, block_size: int = 3):
    """(bundle, nominal effort, field-test blocks) on ``oneside-noise`` at
    ``seed``: the blocks ``riskmap`` writes to blocks.json after ``train``
    (the last window held out, 10 thresholds, trees of 25). Cached, so each
    seed trains once for every test here."""
    bundle = synth.generate_preset("oneside-noise", seed)
    grid, ds = bundle.grid, bundle.dataset
    T = ds.num_timesteps
    train_ds = assemble_dataset(grid, ds.effort[: T - 1], ds.labels[: T - 1])
    ens = train_iware(train_ds, I=10, learner_kind="trees", rng=seed, num_trees=25)
    nominal = float(np.median(ds.positive_efforts()))
    risk = np.nan_to_num(sweep_riskmap(ens, grid, ds, [nominal]).prob[0], nan=0.0)
    blocks = select_field_test_blocks(grid, risk, ds.effort.sum(axis=0), block_size=block_size)
    return bundle, nominal, blocks


def band_truth_means(seed: int, block_size: int = 3) -> dict[str, float]:
    """Each field-test band's mean true label probability at the nominal
    effort, each block counting as the mean truth over its cells."""
    bundle, nominal, blocks = field_test(seed, block_size)
    grid = bundle.grid
    truth = bundle.truth.label_prob(np.full(grid.n_cells, nominal)).reshape(grid.height, grid.width)

    def block_truth(centre: int) -> float:
        y0, x0 = (v - block_size // 2 for v in divmod(centre, grid.width))
        return float(truth[y0:y0 + block_size, x0:x0 + block_size].mean())

    return {band: float(np.mean([block_truth(c) for c, _ in getattr(blocks, band)]))
            for band in ("high", "medium", "low")}


def band_detections(seed: int, draws: int = 20, block_size: int = 3) -> dict[str, tuple]:
    """The paper's field test, simulated: each band's distinct block cells
    are patrolled at the nominal effort ``draws`` times, detections drawn
    from the truth's label probability. Each band's (detections, cells
    patrolled), pooled over the draws."""
    bundle, nominal, blocks = field_test(seed, block_size)
    grid = bundle.grid
    p = bundle.truth.label_prob(np.full(grid.n_cells, nominal))
    found = np.random.default_rng([seed, 13]).random((draws, grid.n_cells)) < p
    offsets = np.arange(block_size) - block_size // 2
    counts = {}
    for band in ("high", "medium", "low"):
        centres = np.array([c for c, _ in getattr(blocks, band)])
        cells = np.unique((centres[:, None, None] + offsets[:, None] * grid.width
                           + offsets[None, :]).ravel())
        counts[band] = (int(found[:, cells].sum()), draws * cells.size)
    return counts


@pytest.mark.parametrize("seed", range(5))
def test_field_test_bands_ordered_by_true_risk(seed):
    # the paper's field test compares snare finds in high-, medium- and
    # low-risk blocks; on a park whose truth is known, the blocks the risk
    # map puts in each band must be ordered the same way by their true risk
    means = band_truth_means(seed)
    assert means["high"] > means["medium"] > means["low"], means


@pytest.mark.parametrize("seed", range(5))
def test_field_test_finds_more_in_high_than_low_risk_blocks(seed):
    # the paper's field test found more snares per patrolled cell in
    # high-risk blocks than in low-risk ones; drawn from the truth, so must
    # the simulated one. High against medium is not asserted: their rates
    # can lie close (0.141 and 0.111 on seed 3)
    rates = {band: found / patrolled for band, (found, patrolled) in band_detections(seed).items()}
    assert rates["high"] > rates["low"], rates


@pytest.mark.parametrize("seed", range(5))
def test_field_test_chi_squared_rejects_independence(seed):
    # the paper's field test rejected independence of risk band and snare
    # finds by Pearson's chi-squared; pooled over the draws, the simulated
    # one must too. One draw alone is not asserted: on seed 3, only 4 of
    # the 20 draws give p < 0.05
    nominal = field_test(seed)[1]
    table = FieldTestTable.from_counts(
        (band, found, patrolled, nominal * patrolled)
        for band, (found, patrolled) in band_detections(seed).items())
    _, dof, p = chi_squared_field_test(table)
    assert dof == 2 and p < 0.05, (p, table)
