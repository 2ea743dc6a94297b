"""Park grid model and patrol-data reconstruction.

A protected area is discretized into square cells of ``cell_size_km`` on a
side. Cells are indexed row-major: ``cell_id = iy * width + ix``. Cell
``(ix, iy)`` covers the half-open square
``[ix*s, (ix+1)*s) x [iy*s, (iy+1)*s)`` so every point, including points on
interior cell borders, belongs to exactly one cell.

Patrol effort is rebuilt from GPS waypoint tracks: each straight segment
between consecutive waypoints is clipped against the cell boundaries it
crosses, and every clipped piece contributes its length (in km) to the cell
and time window containing its midpoint, with timestamps interpolated
linearly along the segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Invalid grid geometry or inconsistent dataset shapes."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ParkGrid:
    """Discretized protected area with static per-cell features.

    ``features`` has one row per cell (row-major over the full bounding
    rectangle); ``mask`` marks which cells are inside the park. Patrol
    posts are cell ids and must lie inside the mask.
    """

    width: int
    height: int
    features: np.ndarray           # (n_cells, k) float
    feature_names: tuple[str, ...]
    patrol_posts: tuple[int, ...]
    mask: np.ndarray               # (n_cells,) bool
    cell_size_km: float = 1.0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise GridError("grid must contain at least one cell")
        if self.cell_size_km <= 0:
            raise GridError("cell_size_km must be positive")
        n = self.width * self.height
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2 or feats.shape[0] != n:
            raise GridError(f"features must be ({n}, k), got {feats.shape}")
        if feats.shape[1] != len(self.feature_names):
            raise GridError("feature_names length does not match feature count")
        if not np.all(np.isfinite(feats)):
            raise GridError("features must be finite")
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != (n,):
            raise GridError(f"mask must have shape ({n},)")
        for p in self.patrol_posts:
            if not (0 <= p < n) or not mask[p]:
                raise GridError(f"patrol post {p} is outside the park mask")
        object.__setattr__(self, "features", _frozen(feats))
        object.__setattr__(self, "mask", _frozen(mask))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "patrol_posts", tuple(int(p) for p in self.patrol_posts))

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def masked_ids(self) -> np.ndarray:
        """Cell ids inside the park, ascending."""
        return np.flatnonzero(self.mask)

    def cell_xy(self, cell_id: int) -> tuple[int, int]:
        return cell_id % self.width, cell_id // self.width

    def cell_at(self, x_km: float, y_km: float) -> int:
        """Cell id containing the point, half-open convention.

        Points on the far boundary of the grid (x == width * size or
        y == height * size) are folded into the last cell so boundary
        observations are not dropped.
        """
        s = self.cell_size_km
        ix = min(int(math.floor(x_km / s)), self.width - 1)
        iy = min(int(math.floor(y_km / s)), self.height - 1)
        return iy * self.width + ix

    def in_bounds(self, x_km: float, y_km: float) -> bool:
        s = self.cell_size_km
        return 0.0 <= x_km <= self.width * s and 0.0 <= y_km <= self.height * s

    def neighbors(self, cell_id: int) -> list[int]:
        """4-neighbor adjacency restricted to masked cells."""
        ix, iy = self.cell_xy(cell_id)
        out = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            jx, jy = ix + dx, iy + dy
            if 0 <= jx < self.width and 0 <= jy < self.height:
                j = jy * self.width + jx
                if self.mask[j]:
                    out.append(j)
        return out


@dataclass(frozen=True)
class WaypointTrack:
    """Ordered GPS waypoints of one patrol; timestamps strictly increase."""

    patrol_id: str
    points: tuple[tuple[float, float, float], ...]  # (x_km, y_km, t_seconds)

    def __post_init__(self):
        pts = tuple((float(x), float(y), float(t)) for x, y, t in self.points)
        if not pts:
            raise GridError(f"track {self.patrol_id!r} has no waypoints")
        for a, b in zip(pts, pts[1:]):
            if not b[2] > a[2]:
                raise GridError(f"track {self.patrol_id!r} timestamps must strictly increase")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class ObservationLog:
    """Georeferenced ranger observations, categorized poaching / non_poaching."""

    records: tuple[tuple[float, float, float, str], ...]  # (x_km, y_km, t_seconds, category)

    def __post_init__(self):
        recs = []
        for x, y, t, cat in self.records:
            if cat not in ("poaching", "non_poaching"):
                raise GridError(f"unknown observation category {cat!r}")
            recs.append((float(x), float(y), float(t), cat))
        object.__setattr__(self, "records", tuple(recs))


@dataclass(frozen=True)
class PatrolDataset:
    """Per-cell, per-window effort and labels; build it with
    ``assemble_dataset``, which checks them.

    Labels are coerced to 0 wherever effort is 0, since a detection
    requires ranger presence; ``coerced_label_count`` reports how many
    labels were dropped that way. ``rows(t)`` gives the model rows of
    window t.
    """

    grid: ParkGrid
    effort: np.ndarray         # (T, n_cells) float, km
    labels: np.ndarray         # (T, n_cells) int8 in {0, 1}
    coerced_label_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "effort", _frozen(self.effort))
        object.__setattr__(self, "labels", _frozen(self.labels))

    @property
    def num_timesteps(self) -> int:
        return self.effort.shape[0]

    def positive_efforts(self) -> np.ndarray:
        """Every strictly positive effort of a park cell, over all windows."""
        eff = self.effort[:, self.grid.masked_ids()].ravel()
        return eff[eff > 0]

    def rows(self, t: int) -> np.ndarray:
        """Model rows of window t, one per park cell in ``masked_ids``
        order: the cell's static features, then its effort in window t - 1
        (0 at t = 0). ``t = num_timesteps`` gives the prediction-period
        rows, whose previous effort is the last window's."""
        if not 0 <= t <= self.num_timesteps:
            raise GridError(f"window {t} is outside [0, {self.num_timesteps}]")
        ids = self.grid.masked_ids()
        prev = self.effort[t - 1, ids] if t > 0 else np.zeros(ids.size)
        return np.column_stack([self.grid.features[ids], prev])


def _window_index(windows: list[tuple[float, float]], t: float) -> int:
    for i, (a, b) in enumerate(windows):
        if a <= t < b:
            return i
    return -1


def _check_windows(time_windows) -> list[tuple[float, float]]:
    windows = [(float(a), float(b)) for a, b in time_windows]
    if not windows:
        raise GridError("at least one time window is required")
    for a, b in windows:
        if not b > a:
            raise GridError("time windows must satisfy start < end")
    for (a0, b0), (a1, b1) in zip(windows, windows[1:]):
        if a1 < b0:
            raise GridError("time windows must be disjoint and ordered")
    return windows


def _segment_cuts(p0: float, p1: float, size: float) -> list[float]:
    """Fractions s in (0,1) where p0 + s*(p1-p0) crosses a multiple of size."""
    if p1 == p0:
        return []
    lo, hi = (p0, p1) if p0 < p1 else (p1, p0)
    first = math.floor(lo / size) + 1
    last = math.ceil(hi / size) - 1
    cuts = []
    for m in range(first, last + 1):
        s = (m * size - p0) / (p1 - p0)
        if 0.0 < s < 1.0:
            cuts.append(s)
    return cuts


def reconstruct_effort(
    grid: ParkGrid,
    tracks: list[WaypointTrack],
    time_windows,
) -> tuple[np.ndarray, int]:
    """Rebuild per-cell, per-window patrol effort from waypoint tracks.

    Returns ``(effort, skipped_waypoints)`` where effort is (T, n_cells) in
    km. Waypoints outside the grid bounding box are dropped (counted in
    ``skipped_waypoints``) and the remaining points of the track are joined
    in order. Segment pieces whose midpoint time falls outside every window
    contribute nothing.
    """
    if not tracks:
        raise GridError("tracks must be nonempty")
    windows = _check_windows(time_windows)
    effort = np.zeros((len(windows), grid.n_cells))
    skipped = 0
    boundaries = sorted({w[0] for w in windows} | {w[1] for w in windows})

    for track in tracks:
        pts = []
        for x, y, t in track.points:
            if grid.in_bounds(x, y):
                pts.append((x, y, t))
            else:
                skipped += 1
        for (x0, y0, t0), (x1, y1, t1) in zip(pts, pts[1:]):
            seg_len = math.hypot(x1 - x0, y1 - y0)
            if seg_len == 0.0:
                continue
            cuts = set(_segment_cuts(x0, x1, grid.cell_size_km))
            cuts.update(_segment_cuts(y0, y1, grid.cell_size_km))
            # Split where the interpolated time crosses a window boundary.
            for tb in boundaries:
                if t0 < tb < t1:
                    cuts.add((tb - t0) / (t1 - t0))
            stops = [0.0] + sorted(cuts) + [1.0]
            for sa, sb in zip(stops, stops[1:]):
                sm = 0.5 * (sa + sb)
                tm = t0 + sm * (t1 - t0)
                w = _window_index(windows, tm)
                if w < 0:
                    continue
                cell = grid.cell_at(x0 + sm * (x1 - x0), y0 + sm * (y1 - y0))
                effort[w, cell] += (sb - sa) * seg_len
    return effort, skipped


def build_labels(
    grid: ParkGrid,
    log: ObservationLog,
    time_windows,
) -> tuple[np.ndarray, int]:
    """Binary detection labels: 1 iff a poaching-category record fell in the
    cell and window. Returns ``(labels, skipped_records)`` where skipped
    counts poaching records outside every window."""
    windows = _check_windows(time_windows)
    labels = np.zeros((len(windows), grid.n_cells), dtype=np.int8)
    skipped = 0
    for x, y, t, cat in log.records:
        if cat != "poaching":
            continue
        if not grid.in_bounds(x, y):
            raise GridError(f"observation at ({x}, {y}) outside grid bounding box")
        w = _window_index(windows, t)
        if w < 0:
            skipped += 1
            continue
        labels[w, grid.cell_at(x, y)] = 1
    return labels, skipped


def assemble_dataset(grid: ParkGrid, effort: np.ndarray, labels: np.ndarray) -> PatrolDataset:
    """Check effort and labels and combine them into a modeling dataset.

    Labels at cells with zero effort are coerced to 0 (a snare cannot be
    found where nobody patrolled); the count is recorded.
    """
    effort = np.asarray(effort, dtype=float)
    labels = np.asarray(labels)
    if effort.ndim != 2 or effort.shape[1] != grid.n_cells:
        raise GridError(f"effort must be (T, {grid.n_cells})")
    if labels.shape != effort.shape:
        raise GridError("labels shape must match effort")
    if np.any(effort < 0) or not np.all(np.isfinite(effort)):
        raise GridError("effort must be finite and nonnegative")
    if not np.all((labels == 0) | (labels == 1)):
        raise GridError("labels must be binary")

    bad = (labels == 1) & (effort <= 0)
    clean = np.where(bad, 0, labels).astype(np.int8)
    return PatrolDataset(grid=grid, effort=effort, labels=clean,
                         coerced_label_count=int(bad.sum()))
