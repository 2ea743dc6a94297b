"""Risk maps, piecewise-linear effort-response models, and block selection.

The trained ensemble gives every cell a detection probability and an
uncertainty as functions of hypothetical patrol effort. Sweeping a grid of
effort levels produces risk/uncertainty maps; sampling the functions at
uniform breakpoints produces the piecewise-linear approximations the patrol
optimizer consumes. Block selection reproduces the field-test protocol:
convolve the risk map into blocks, drop historically well-patrolled blocks,
and draw candidate blocks from high/medium/low risk percentile bands.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import ParkGrid, PatrolDataset
from .iware import IWareEnsemble, IwareError, squash_uncertainty


def _checked_levels(effort_levels) -> tuple[float, ...]:
    lv = tuple(float(c) for c in effort_levels)
    if (not lv or not all(map(math.isfinite, lv)) or lv[0] < 0
            or any(b <= a for a, b in zip(lv, lv[1:]))):
        raise IwareError("effort levels must be nonempty, finite, >= 0 and strictly increasing")
    return lv


@dataclass(frozen=True)
class RiskMap:
    """Per-cell prediction and squashed uncertainty at each effort level.

    Cells outside the park mask carry NaN.
    """

    grid: ParkGrid
    effort_levels: tuple[float, ...]
    prob: np.ndarray  # (levels, n_cells)
    var: np.ndarray   # (levels, n_cells), squashed to [0, 1)

    def __post_init__(self):
        lv = _checked_levels(self.effort_levels)
        object.__setattr__(self, "effort_levels", lv)
        for name in ("prob", "var"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (len(lv), self.grid.n_cells):
                raise IwareError(f"{name} must be (levels, n_cells)")
            object.__setattr__(self, name, arr)


def query_rows(grid: ParkGrid, ds: PatrolDataset) -> np.ndarray:
    """Prediction-period query rows, one per masked cell in ``masked_ids``
    order: static features plus the last observed effort as the
    previous-coverage covariate. ``train`` keeps the ensemble's outputs on
    these rows (``IWareEnsemble.keep_query_outputs``)."""
    prev = ds.effort[ds.num_timesteps - 1]
    return np.concatenate([grid.features, prev[:, None]], axis=1)[grid.masked_ids()]


def sweep_riskmap(
    ens: IWareEnsemble,
    grid: ParkGrid,
    ds: PatrolDataset,
    effort_levels,
) -> RiskMap:
    """Evaluate the ensemble at each hypothetical effort level. A learner
    whose threshold exceeds the top level is never run."""
    levels = _checked_levels(effort_levels)
    ids = grid.masked_ids()
    P, V = ens.member_outputs(query_rows(grid, ds), levels[-1])
    prob = np.full((len(levels), grid.n_cells), np.nan)
    var = np.full((len(levels), grid.n_cells), np.nan)
    for j, c in enumerate(levels):
        g, v_raw = ens.combine_at_effort(P, V, c)
        prob[j, ids] = g
        var[j, ids] = squash_uncertainty(v_raw, ens.squash_scale)
    return RiskMap(grid=grid, effort_levels=levels, prob=prob, var=var)


@dataclass(frozen=True)
class PwlRiskModel:
    """Shared-breakpoint piecewise-linear risk and uncertainty per cell.

    Values are exact at breakpoints, linearly interpolated between them,
    and clamped to the last value beyond the final breakpoint.
    """

    grid: ParkGrid
    breakpoints: np.ndarray   # (m+1,), starting at 0, strictly increasing
    prob_values: np.ndarray   # (n_cells, m+1); NaN outside mask
    var_values: np.ndarray    # (n_cells, m+1)

    def __post_init__(self):
        br = np.asarray(self.breakpoints, dtype=float)
        if br.ndim != 1 or br.size < 2 or br[0] != 0.0 or np.any(np.diff(br) <= 0):
            raise IwareError("breakpoints must start at 0 and strictly increase")
        object.__setattr__(self, "breakpoints", br)
        for name in ("prob_values", "var_values"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            if arr.shape != (self.grid.n_cells, br.size):
                raise IwareError(f"{name} must be (n_cells, m+1)")
            object.__setattr__(self, name, arr)

    @property
    def segments(self) -> int:
        return self.breakpoints.size - 1

    @property
    def c_max(self) -> float:
        return float(self.breakpoints[-1])

    def utility_values(self, beta: float) -> np.ndarray:
        """Breakpoint values of U = g - beta * g * nu, formed pointwise
        before linearization so the product stays piecewise linear."""
        return self.prob_values * (1.0 - beta * self.var_values)

    def extended_to(self, c_needed: float) -> "PwlRiskModel":
        """Flat-extend the final segment so the domain covers c_needed."""
        if c_needed <= self.c_max:
            return self
        warnings.warn(
            f"coverage range {c_needed:.3f} exceeds PWL domain {self.c_max:.3f}; clamping",
            stacklevel=2)
        br = np.concatenate([self.breakpoints, [float(c_needed)]])
        pv = np.concatenate([self.prob_values, self.prob_values[:, -1:]], axis=1)
        vv = np.concatenate([self.var_values, self.var_values[:, -1:]], axis=1)
        return PwlRiskModel(grid=self.grid, breakpoints=br, prob_values=pv, var_values=vv)


def interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x[i], xp, fp[i])`` for every row i at once, bit for bit:
    the same slope and formula inside a segment, and exact values at the
    breakpoints, below ``xp[0]`` and from ``xp[-1]`` on."""
    x = np.asarray(x, dtype=float)
    j = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, xp.size - 2)
    rows = np.arange(x.size)
    lo, hi = fp[rows, j], fp[rows, j + 1]
    inner = (hi - lo) / (xp[j + 1] - xp[j]) * (x - xp[j]) + lo
    return np.where(x >= xp[-1], fp[:, -1], np.where(x <= xp[j], lo, inner))


def default_c_max(ds: PatrolDataset) -> float:
    """Twice the 95th percentile of positive historical row efforts."""
    eff = ds.positive_efforts()
    if eff.size == 0:
        return 1.0
    return float(2.0 * np.quantile(eff, 0.95))


def build_pwl(
    ens: IWareEnsemble,
    grid: ParkGrid,
    m: int,
    c_max: float,
    ds: PatrolDataset,
) -> PwlRiskModel:
    """Sample the effort-response functions at m+1 uniform breakpoints on
    [0, c_max]: the ensemble's risk-map sweep (``ds`` gives the
    previous-effort covariate) taken at the breakpoints, one row per cell."""
    if m < 1:
        raise IwareError("need at least one segment")
    if not (math.isfinite(c_max) and c_max > 0):
        raise IwareError(f"c_max must be finite and positive, got {c_max}")
    br = np.linspace(0.0, float(c_max), m + 1)
    rm = sweep_riskmap(ens, grid, ds, br)
    return PwlRiskModel(grid=grid, breakpoints=br, prob_values=rm.prob.T, var_values=rm.var.T)


# field-test protocol: the high, medium and low risk percentile bands, and
# the historical-effort percentile above which a block is left out
PERCENTILE_BANDS = ((80, 100), (40, 60), (0, 20))
EFFORT_CUTOFF_PERCENTILE = 50.0


@dataclass(frozen=True)
class BlockSelection:
    """Field-test candidate blocks per risk band."""

    block_size_cells: int
    high: tuple[tuple[int, float], ...]    # (center cell, block risk)
    medium: tuple[tuple[int, float], ...]
    low: tuple[tuple[int, float], ...]
    truncated: bool = False  # fewer valid blocks than requested

    def to_dict(self) -> dict:
        return {
            "block_size_cells": self.block_size_cells,
            "percentile_bands": [list(b) for b in PERCENTILE_BANDS],
            "effort_cutoff_percentile": EFFORT_CUTOFF_PERCENTILE,
            "truncated": self.truncated,
            "high": [[int(c), float(r)] for c, r in self.high],
            "medium": [[int(c), float(r)] for c, r in self.medium],
            "low": [[int(c), float(r)] for c, r in self.low],
        }


def _window_means(grid: ParkGrid, values, b: int) -> np.ndarray:
    """Mean of per-cell ``values`` over every ``b`` x ``b`` window of the
    grid, in window-index order (row-major by top-left cell). The reshape
    copies each window into its own contiguous row, which makes each mean
    the ``.mean()`` of that window's 2-D slice bit for bit."""
    vals = np.asarray(values, dtype=float).reshape(grid.height, grid.width)
    return sliding_window_view(vals, (b, b)).reshape(-1, b * b).mean(axis=1)


def select_field_test_blocks(
    grid: ParkGrid,
    risk: np.ndarray,
    historical_effort: np.ndarray,
    block_size: int = 3,
    per_band: int = 5,
) -> BlockSelection:
    """Candidate high/medium/low blocks for a ground field test.

    Risk is convolved into block means (fully interior, fully masked blocks
    only). Blocks with historical effort above the cutoff percentile are
    discarded; the rest are banded by risk percentile rank and the top
    ``per_band`` blocks per band (descending risk, ties by lowest block
    index) are returned.
    """
    b = block_size
    if grid.width < b or grid.height < b:
        raise IwareError("grid smaller than the block size")
    valid = _window_means(grid, grid.mask, b) == 1.0
    if not valid.any():
        raise IwareError("no fully masked blocks available")
    cells = np.arange(grid.n_cells).reshape(grid.height, grid.width)
    centres = sliding_window_view(cells, (b, b))[:, :, b // 2, b // 2].ravel()[valid]
    effort = _window_means(grid, historical_effort, b)[valid]
    kept = effort <= np.percentile(effort, EFFORT_CUTOFF_PERCENTILE)
    centres, risks = centres[kept], _window_means(grid, risk, b)[valid][kept]

    nk = risks.size
    pct = np.empty(nk)
    pct[np.argsort(risks, kind="stable")] = 100.0 * np.arange(nk) / (nk - 1) if nk > 1 else 100.0

    truncated = False
    chosen: list[tuple[tuple[int, float], ...]] = []
    for lo, hi in PERCENTILE_BANDS:
        members = np.flatnonzero((lo <= pct) & (pct <= hi))
        if members.size < per_band:
            truncated = True
            warnings.warn(
                f"band {lo}-{hi} has only {members.size} valid blocks "
                f"(requested {per_band})", stacklevel=2)
        top = members[np.argsort(-risks[members], kind="stable")][:per_band]
        chosen.append(tuple(zip(centres[top].tolist(), risks[top].tolist())))

    return BlockSelection(block_size_cells=block_size, high=chosen[0],
                          medium=chosen[1], low=chosen[2], truncated=truncated)
