"""The pipeline's outputs scored against a synthetic park's ground truth.

Every preset knows the exact probability that a cell is attacked and the
attack is seen at effort c (``GroundTruth.label_prob``). These tests hold
the library pipeline to properties of that truth.
"""

import numpy as np
import pytest

from patrolkit import synth
from patrolkit.grid import assemble_dataset
from patrolkit.iware import train_iware
from patrolkit.riskmap import select_field_test_blocks, sweep_riskmap


def band_truth_means(seed: int, block_size: int = 3) -> dict[str, float]:
    """Each field-test band's mean true label probability at the nominal
    effort, on ``oneside-noise`` at ``seed``. The bands are the ones
    ``riskmap`` writes to blocks.json after ``train`` (the last window held
    out, 10 thresholds, trees of 25), and each block counts as the mean
    truth over its cells."""
    bundle = synth.generate_preset("oneside-noise", seed)
    grid, ds = bundle.grid, bundle.dataset
    T = ds.num_timesteps
    train_ds = assemble_dataset(grid, ds.effort[: T - 1], ds.labels[: T - 1])
    ens = train_iware(train_ds, I=10, learner_kind="trees", rng=seed, num_trees=25)
    nominal = float(np.median(ds.positive_efforts()))
    risk = np.nan_to_num(sweep_riskmap(ens, grid, ds, [nominal]).prob[0], nan=0.0)
    blocks = select_field_test_blocks(grid, risk, ds.effort.sum(axis=0), block_size=block_size)
    truth = bundle.truth.label_prob(np.full(grid.n_cells, nominal)).reshape(grid.height, grid.width)

    def block_truth(centre: int) -> float:
        y0, x0 = (v - block_size // 2 for v in divmod(centre, grid.width))
        return float(truth[y0:y0 + block_size, x0:x0 + block_size].mean())

    return {band: float(np.mean([block_truth(c) for c, _ in getattr(blocks, band)]))
            for band in ("high", "medium", "low")}


@pytest.mark.parametrize("seed", range(5))
def test_field_test_bands_ordered_by_true_risk(seed):
    # the paper's field test compares snare finds in high-, medium- and
    # low-risk blocks; on a park whose truth is known, the blocks the risk
    # map puts in each band must be ordered the same way by their true risk
    means = band_truth_means(seed)
    assert means["high"] > means["medium"] > means["low"], means
