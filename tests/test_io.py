import numpy as np
import pytest

from patrolkit import io, synth
from patrolkit.grid import GridError, ObservationLog, WaypointTrack

from conftest import flat_grid


def test_cells_round_trip(tmp_path):
    grid = synth.generate_park(5, 4, k=3, num_posts=2, seed=1)
    path = tmp_path / "cells.csv"
    io.write_cells_csv(path, grid)
    back = io.read_cells_csv(path)
    assert back.width == grid.width and back.height == grid.height
    assert back.patrol_posts == grid.patrol_posts
    np.testing.assert_array_equal(back.mask, grid.mask)
    np.testing.assert_array_equal(back.features, grid.features)  # bit-exact via repr


@pytest.mark.parametrize("rows, message", [
    # before, mask 2 and is_post 7 were read as true, a cell at x = -1
    # loaded as cell 1 of a 2 x 2 grid (1 * 2 - 1 = 1), and one at y = -1 as
    # cell 5 of a 3 x 2 grid (cell_id -1 = -1 * 3 + 2)
    (["0,0,0,2,0", "1,1,0,1,0"], "mask=2"),
    (["0,0,0,1,7", "1,1,0,1,0"], "is_post=7"),
    (["0,0,0,1,0", "1,-1,1,1,0", "2,0,1,1,0", "3,1,1,1,0"], "x=-1"),
    (["0,0,0,1,0", "1,1,0,1,0", "2,2,0,1,0", "3,0,1,1,0", "4,1,1,1,0", "-1,2,-1,1,0"], "y=-1"),
])
def test_cells_with_unusable_flag_or_coordinate(tmp_path, rows, message):
    path = tmp_path / "cells.csv"
    path.write_text("cell_id,x,y,mask,is_post\n" + "".join(r + "\n" for r in rows))
    with pytest.raises(GridError, match=message):
        io.read_cells_csv(path)


def test_dataset_round_trip_bit_exact(tmp_path):
    bundle = synth.generate_preset("oneside-noise-small", 2)
    ds = bundle.dataset
    path = tmp_path / "dataset.csv"
    io.write_dataset_csv(path, ds)
    back = io.read_dataset_csv(path, bundle.grid)
    np.testing.assert_array_equal(back.effort, ds.effort)
    np.testing.assert_array_equal(back.labels, ds.labels)

    # the leading four columns alone read as the same dataset
    lines = path.read_text().splitlines()
    path.write_text("".join(",".join(line.split(",")[:4]) + "\n" for line in lines))
    short = io.read_dataset_csv(path, bundle.grid)
    np.testing.assert_array_equal(short.effort, ds.effort)
    np.testing.assert_array_equal(short.labels, ds.labels)


def test_waypoints_and_observations_round_trip(tmp_path):
    tracks = [WaypointTrack("a", ((0.5, 0.5, 0.0), (1.5, 0.5, 1800.0))),
              WaypointTrack("b", ((0.25, 0.75, 60.0),))]
    io.write_waypoints_csv(tmp_path / "w.csv", tracks)
    back = io.read_waypoints_csv(tmp_path / "w.csv")
    assert sorted(t.patrol_id for t in back) == ["a", "b"]
    assert {t.patrol_id: t.points for t in back}["a"] == tracks[0].points

    log = ObservationLog(records=((0.5, 0.5, 10.0, "poaching"), (1.0, 0.25, 20.0, "non_poaching")))
    io.write_observations_csv(tmp_path / "o.csv", log)
    assert io.read_observations_csv(tmp_path / "o.csv").records == log.records


def test_timestamp_parsing_handles_z_suffix():
    assert io.parse_timestamp("1970-01-01T00:00:00Z") == 0.0
    assert io.parse_timestamp("1970-01-01T01:00:00+01:00") == 0.0


def test_fieldtest_csv(tmp_path):
    path = tmp_path / "ft.csv"
    path.write_text("group,obs_cells,patrolled_cells,effort_km\nHigh,23,54,269.0\nLow,3,23,57.7\n")
    rows = io.read_fieldtest_csv(path)
    assert rows[0] == ("High", 23, 54, 269.0)


def test_riskmap_csv_masked_only(tmp_path):
    from patrolkit.riskmap import RiskMap

    mask = np.array([1, 0, 1, 1], bool)
    grid = flat_grid(2, 2, mask=mask, posts=(0,))
    prob = np.full((1, 4), 0.25)
    var = np.full((1, 4), 0.1)
    rm = RiskMap(grid=grid, effort_levels=(1.0,), prob=prob, var=var)
    io.write_riskmap_csv(tmp_path / "r.csv", rm)
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3  # header + masked cells only
