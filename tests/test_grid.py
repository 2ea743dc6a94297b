import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolkit.grid import (
    GridError,
    ObservationLog,
    ParkGrid,
    WaypointTrack,
    assemble_dataset,
    build_labels,
    reconstruct_effort,
)
from patrolkit.iware import _dataset_rows

from conftest import flat_grid


class TestParkGrid:
    def test_post_outside_mask_rejected(self):
        mask = np.ones(4, bool)
        mask[3] = False
        with pytest.raises(GridError):
            flat_grid(2, 2, posts=(3,), mask=mask)

    def test_bad_cell_size(self):
        # before, an infinite cell put every point in cell 0, and a NaN one
        # failed later, blaming the first observation
        for size in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(GridError, match="cell_size_km must be finite and > 0"):
                flat_grid(2, 2, cell_size=size)

    def test_neighbors_respect_mask(self):
        mask = np.array([1, 1, 1, 0], bool)
        g = flat_grid(2, 2, mask=mask)
        assert g.neighbors(0) == [1, 2]
        assert g.neighbors(1) == [0]  # cell 3 masked out

    def test_half_open_cell_lookup(self):
        g = flat_grid(2, 2)
        assert g.cell_at(0.999999, 0.0) == 0
        assert g.cell_at(1.0, 0.0) == 1
        assert g.cell_at(2.0, 2.0) == 3  # far boundary folds into last cell


class TestReconstructEffort:
    def test_horizontal_segment_splits_evenly(self):
        g = flat_grid(2, 1)
        tr = WaypointTrack("p", ((0.0, 0.5, 0.0), (2.0, 0.5, 10.0)))
        eff, skipped = reconstruct_effort(g, [tr], [(0.0, 20.0)])
        assert skipped == 0
        assert eff[0] == pytest.approx([1.0, 1.0])

    def test_single_waypoint_track_is_zero(self):
        g = flat_grid(2, 2)
        eff, _ = reconstruct_effort(g, [WaypointTrack("p", ((0.5, 0.5, 0.0),))], [(0.0, 1.0)])
        assert not eff.any()

    def test_corner_crossing_half_open(self):
        g = flat_grid(2, 2)
        tr = WaypointTrack("p", ((0.5, 0.5, 0.0), (1.5, 1.5, 10.0)))
        eff, _ = reconstruct_effort(g, [tr], [(0.0, 20.0)])
        assert eff[0, 0] == pytest.approx(math.sqrt(2) / 2)
        assert eff[0, 3] == pytest.approx(math.sqrt(2) / 2)
        assert eff[0, 1] == eff[0, 2] == 0.0

    def test_outside_waypoint_skipped_with_count(self):
        g = flat_grid(2, 1)
        tr = WaypointTrack("p", ((0.5, 0.5, 0.0), (5.0, 9.0, 5.0), (1.5, 0.5, 10.0)))
        eff, skipped = reconstruct_effort(g, [tr], [(0.0, 20.0)])
        assert skipped == 1
        assert eff.sum() == pytest.approx(1.0)  # joins the surviving points

    def test_segment_split_across_windows(self):
        g = flat_grid(1, 1)
        tr = WaypointTrack("p", ((0.1, 0.5, 0.0), (0.9, 0.5, 10.0)))
        eff, _ = reconstruct_effort(g, [tr], [(0.0, 5.0), (5.0, 10.0)])
        assert eff[0, 0] == pytest.approx(0.4)
        assert eff[1, 0] == pytest.approx(0.4)

    def test_zero_length_segment(self):
        g = flat_grid(1, 1)
        tr = WaypointTrack("p", ((0.5, 0.5, 0.0), (0.5, 0.5, 1.0)))
        eff, _ = reconstruct_effort(g, [tr], [(0.0, 2.0)])
        assert eff.sum() == 0.0

    def test_empty_tracks_rejected(self):
        with pytest.raises(GridError):
            reconstruct_effort(flat_grid(1, 1), [], [(0.0, 1.0)])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(
        st.tuples(st.floats(0.01, 3.99), st.floats(0.01, 2.99)),
        min_size=2, max_size=8))
    def test_length_conservation(self, points):
        g = flat_grid(4, 3)
        pts = tuple((x, y, 10.0 * i) for i, (x, y) in enumerate(points))
        track = WaypointTrack("p", pts)
        eff, _ = reconstruct_effort(g, [track], [(0.0, 1000.0)])
        total = sum(math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(pts, pts[1:]))
        assert abs(eff.sum() - total) < 1e-9


class TestBuildLabels:
    def test_single_poaching_record(self):
        g = flat_grid(3, 2)
        log = ObservationLog(records=((2.5, 1.5, 25.0, "poaching"),))
        labels, skipped = build_labels(g, log, [(0.0, 10.0), (10.0, 20.0), (20.0, 30.0)])
        assert skipped == 0
        assert labels[2, 5] == 1
        assert labels.sum() == 1

    def test_non_poaching_ignored(self):
        g = flat_grid(2, 1)
        log = ObservationLog(records=((0.5, 0.5, 1.0, "non_poaching"),))
        labels, _ = build_labels(g, log, [(0.0, 10.0)])
        assert not labels.any()

    def test_binary_idempotent(self):
        g = flat_grid(2, 1)
        log = ObservationLog(records=((0.5, 0.5, 1.0, "poaching"), (0.4, 0.4, 2.0, "poaching")))
        labels, _ = build_labels(g, log, [(0.0, 10.0)])
        assert labels[0, 0] == 1

    def test_out_of_window_counted(self):
        g = flat_grid(2, 1)
        log = ObservationLog(records=((0.5, 0.5, 99.0, "poaching"),))
        labels, skipped = build_labels(g, log, [(0.0, 10.0)])
        assert skipped == 1 and not labels.any()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(0, 1.99), st.floats(0, 0.99), st.floats(0, 9.9)),
                    min_size=0, max_size=6))
    def test_monotone_in_records(self, recs):
        g = flat_grid(2, 1)
        base = ObservationLog(records=tuple((x, y, t, "poaching") for x, y, t in recs))
        more = ObservationLog(records=base.records + ((0.5, 0.5, 5.0, "poaching"),))
        l0, _ = build_labels(g, base, [(0.0, 10.0)])
        l1, _ = build_labels(g, more, [(0.0, 10.0)])
        assert np.all(l1 >= l0)


class TestAssembleDataset:
    def test_prev_effort_column(self):
        g = flat_grid(2, 1, k=3)
        effort = np.array([[1.0, 2.0], [3.0, 4.0]])
        labels = np.zeros((2, 2), dtype=int)
        ds = assemble_dataset(g, effort, labels)
        assert ds.rows(0).shape == (2, 4)  # k + 1 columns
        assert ds.rows(0)[:, -1] == pytest.approx([0.0, 0.0])
        assert ds.rows(1)[:, -1] == pytest.approx([1.0, 2.0])

    @staticmethod
    def _masked_park_dataset():
        """A 3 x 2 park without cells 1 and 4, distinct features and efforts."""
        mask = np.ones(6, bool)
        mask[[1, 4]] = False
        grid = ParkGrid(width=3, height=2, features=np.arange(12.0).reshape(6, 2) / 7,
                        feature_names=("f_1", "f_2"), patrol_posts=(0,), mask=mask)
        effort = np.arange(1.0, 19.0).reshape(3, 6) / 3
        labels = (np.arange(18).reshape(3, 6) % 4 == 1).astype(np.int8)
        return assemble_dataset(grid, effort, labels)

    def test_rows_are_park_cells_features_then_previous_effort(self):
        ds = self._masked_park_dataset()
        ids = np.array([0, 2, 3, 5])
        np.testing.assert_array_equal(ds.grid.masked_ids(), ids)
        for t in range(ds.num_timesteps + 1):
            X = ds.rows(t)
            assert X.shape == (ids.size, 3)
            np.testing.assert_array_equal(X[:, :2], ds.grid.features[ids])
            prev = ds.effort[t - 1, ids] if t else np.zeros(ids.size)
            np.testing.assert_array_equal(X[:, 2], prev)

    def test_rows_after_the_last_window_carry_its_effort(self):
        ds = self._masked_park_dataset()
        T = ds.num_timesteps
        np.testing.assert_array_equal(ds.rows(T)[:, -1], ds.effort[T - 1, [0, 2, 3, 5]])
        for t in (-1, T + 1):
            with pytest.raises(GridError, match="outside"):
                ds.rows(t)

    def test_training_rows_stack_every_window(self):
        ds = self._masked_park_dataset()
        ids = ds.grid.masked_ids()
        X, y, eff = _dataset_rows(ds)
        windows = range(ds.num_timesteps)
        np.testing.assert_array_equal(X, np.concatenate([ds.rows(t) for t in windows]))
        np.testing.assert_array_equal(y, np.concatenate([ds.labels[t, ids] == 1 for t in windows]))
        np.testing.assert_array_equal(eff, np.concatenate([ds.effort[t, ids] for t in windows]))
        # each row's previous effort is its cell's effort one window earlier
        np.testing.assert_array_equal(X[ids.size:, -1], eff[:-ids.size])

    def test_label_coercion_counted(self):
        g = flat_grid(2, 1)
        ds = assemble_dataset(g, np.array([[0.0, 1.0]]), np.array([[1, 1]]))
        assert ds.coerced_label_count == 1
        assert ds.labels[0, 0] == 0 and ds.labels[0, 1] == 1

    def test_shape_mismatch_rejected(self):
        g = flat_grid(2, 1)
        with pytest.raises(GridError):
            assemble_dataset(g, np.zeros((1, 3)), np.zeros((1, 3), int))
