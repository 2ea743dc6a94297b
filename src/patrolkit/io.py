"""CSV and JSON artifact formats.

All files are plain CSV with fixed headers. Floats are written with
``repr`` so values round-trip bit-exactly and re-running a command with
the same inputs produces byte-identical artifacts.

Formats:
    cells.csv         cell_id,x,y,mask,is_post,f_1,...,f_k
    waypoints.csv     patrol_id,x_km,y_km,timestamp_iso8601
    observations.csv  x_km,y_km,timestamp_iso8601,category
    dataset.csv       t,cell_id,effort_km,label,prev_effort_km,f_1..f_k
    riskmap.csv       cell_id,effort_level,prob,var
    fieldtest.csv     group,obs_cells,patrolled_cells,effort_km
"""

from __future__ import annotations

import csv
import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .grid import GridError, ObservationLog, ParkGrid, PatrolDataset, WaypointTrack, assemble_dataset


def parse_timestamp(text: str) -> float:
    """ISO-8601 timestamp to epoch seconds; naive times are taken as UTC."""
    dt = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def format_timestamp(t_seconds: float) -> str:
    return datetime.fromtimestamp(t_seconds, tz=timezone.utc).isoformat()


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_rows(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def write_cells_csv(path, grid: ParkGrid) -> None:
    header = ["cell_id", "x", "y", "mask", "is_post"] + list(grid.feature_names)
    posts = set(grid.patrol_posts)
    rows = []
    for cid in range(grid.n_cells):
        ix, iy = grid.cell_xy(cid)
        rows.append([cid, ix, iy, int(grid.mask[cid]), int(cid in posts)]
                    + list(grid.features[cid]))
    _write_rows(path, header, rows)


def _read_csv(path, expected: list[str]) -> tuple[list[str], list[list[str]]]:
    """Header and nonblank rows of a CSV file whose header starts with the
    expected columns and whose rows all have one field per header column."""
    name = Path(path).name
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[: len(expected)] != expected:
            raise GridError(f"bad {name} header {header[:len(expected)]}, expected {expected}")
        rows = [row for row in reader if row]
    for row in rows:
        if len(row) != len(header):
            raise GridError(f"{name}: row {row} has {len(row)} fields, header has {len(header)}")
    return header, rows


def read_cells_csv(path, cell_size_km: float = 1.0) -> ParkGrid:
    header, rows = _read_csv(path, ["cell_id", "x", "y", "mask", "is_post"])
    feature_names = header[5:]
    if not rows:
        raise GridError("cells.csv contains no cells")
    width = max(int(r[1]) for r in rows) + 1
    height = max(int(r[2]) for r in rows) + 1
    n = width * height
    if len(rows) != n:
        raise GridError(f"cells.csv must list all {n} cells of the bounding rectangle")
    feats = np.zeros((n, len(feature_names)))
    mask = np.zeros(n, dtype=bool)
    seen = np.zeros(n, dtype=bool)
    posts = []
    for r in rows:
        cid = int(r[0])
        if cid != int(r[2]) * width + int(r[1]):
            raise GridError(f"cell_id {cid} inconsistent with (x={r[1]}, y={r[2]})")
        if seen[cid]:
            raise GridError(f"cells.csv lists cell_id {cid} twice")
        seen[cid] = True
        mask[cid] = bool(int(r[3]))
        if int(r[4]):
            posts.append(cid)
        feats[cid] = [float(v) for v in r[5:]]
    return ParkGrid(width=width, height=height, features=feats,
                    feature_names=tuple(feature_names), patrol_posts=tuple(sorted(posts)),
                    mask=mask, cell_size_km=cell_size_km)


def write_waypoints_csv(path, tracks: list[WaypointTrack]) -> None:
    rows = []
    for tr in tracks:
        for x, y, t in tr.points:
            rows.append([tr.patrol_id, x, y, format_timestamp(t)])
    _write_rows(path, ["patrol_id", "x_km", "y_km", "timestamp_iso8601"], rows)


def read_waypoints_csv(path) -> list[WaypointTrack]:
    by_patrol: dict[str, list[tuple[float, float, float]]] = {}
    _, rows = _read_csv(path, ["patrol_id", "x_km", "y_km", "timestamp_iso8601"])
    for pid, x, y, ts, *_ in rows:
        by_patrol.setdefault(pid, []).append((float(x), float(y), parse_timestamp(ts)))
    return [WaypointTrack(patrol_id=pid, points=tuple(pts)) for pid, pts in by_patrol.items()]


def write_observations_csv(path, log: ObservationLog) -> None:
    rows = [[x, y, format_timestamp(t), cat] for x, y, t, cat in log.records]
    _write_rows(path, ["x_km", "y_km", "timestamp_iso8601", "category"], rows)


def read_observations_csv(path) -> ObservationLog:
    _, rows = _read_csv(path, ["x_km", "y_km", "timestamp_iso8601", "category"])
    records = [(float(x), float(y), parse_timestamp(ts), cat) for x, y, ts, cat, *_ in rows]
    return ObservationLog(records=tuple(records))


def write_dataset_csv(path, ds: PatrolDataset) -> None:
    header = ["t", "cell_id", "effort_km", "label", "prev_effort_km"] + list(ds.grid.feature_names)
    rows = []
    for t in range(ds.num_timesteps):
        for cid in range(ds.grid.n_cells):
            rows.append([t, cid, ds.effort[t, cid], int(ds.labels[t, cid]),
                         ds.effort[t - 1, cid] if t else 0.0] + list(ds.grid.features[cid]))
    _write_rows(path, header, rows)


def read_dataset_csv(path, grid: ParkGrid) -> PatrolDataset:
    """Rebuild a dataset from dataset.csv, which must hold one row per
    window and grid cell; features come from the grid. Columns after
    ``label``, where the file has them, must be ``prev_effort_km`` and the
    grid's feature names, and hold exactly the values rebuilt from
    ``effort_km`` and the grid."""
    expected = ["t", "cell_id", "effort_km", "label"]
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]))
        lines = [line for line in fh if line.strip()]
    if header[:4] != expected:
        raise GridError(f"bad dataset.csv header {header[:4]}, expected {expected}")
    derived = ["prev_effort_km", *grid.feature_names]
    if header[4:] and header[4:] != derived:
        raise GridError(f"dataset.csv: columns after label must be {derived}, "
                        f"the features of cells.csv; got {header[4:]}")
    if not lines:
        raise GridError("dataset.csv contains no rows")
    vals = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    if vals.shape[1] != len(header):
        raise GridError(f"dataset.csv: rows have {vals.shape[1]} fields, header has {len(header)}")
    if np.any(vals[:, :2] % 1 != 0):
        raise GridError("dataset.csv: t and cell_id must be integers")
    n = grid.n_cells
    t, cid = vals[:, :2].astype(np.int64).T
    if t.min() < 0 or cid.min() < 0 or cid.max() >= n:
        raise GridError(f"dataset.csv: t must be >= 0 and cell_id in [0, {n})")
    count = np.bincount(t * n + cid, minlength=(t.max() + 1) * n)
    if np.any(count != 1):
        bad = int(np.argmax(count != 1))
        raise GridError(f"dataset.csv: {count[bad]} rows for t={bad // n}, cell_id={bad % n}; "
                        "need exactly one")
    vals = vals[np.argsort(t * n + cid)].reshape(-1, n, len(header))
    ds = assemble_dataset(grid, vals[:, :, 2], vals[:, :, 3])
    if len(header) > 4:
        prev = np.concatenate([np.zeros((1, n)), ds.effort[:-1]])
        want = np.dstack([prev, np.broadcast_to(grid.features, (len(prev), *grid.features.shape))])
        wrong = np.argwhere(vals[:, :, 4:] != want)
        if wrong.size:
            w, c, j = wrong[0]
            raise GridError(f"dataset.csv: t={w}, cell_id={c}: {derived[j]} is {float(vals[w, c, 4 + j])!r}, "
                            f"expected {float(want[w, c, j])!r} from effort_km and cells.csv")
    return ds


def write_riskmap_csv(path, riskmap) -> None:
    rows = []
    for j, level in enumerate(riskmap.effort_levels):
        for cid in riskmap.grid.masked_ids():
            rows.append([int(cid), level, riskmap.prob[j, cid], riskmap.var[j, cid]])
    _write_rows(path, ["cell_id", "effort_level", "prob", "var"], rows)


def read_fieldtest_csv(path) -> list[tuple[str, int, int, float]]:
    _, rows = _read_csv(path, ["group", "obs_cells", "patrolled_cells", "effort_km"])
    return [(group, int(obs), int(patrolled), float(effort))
            for group, obs, patrolled, effort, *_ in rows]


def write_json(path, obj, indent: int | None = 2) -> None:
    """Sorted keys; ``indent=None`` writes one line without spaces."""
    separators = None if indent else (",", ":")
    Path(path).write_text(json.dumps(obj, indent=indent, sort_keys=True,
                                     separators=separators) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())
