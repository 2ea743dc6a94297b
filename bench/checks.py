"""Output checks written apart from the program.

Each check returns a list of error strings (empty when the artifact is
right). They recompute what they can from first principles: the park
graph from cells.csv, AUC by counting score pairs, plan objectives by
interpolating the breakpoint utilities, and a reference optimum from
HiGHS (scipy.optimize.milp) on a flow + SOS2 model built here.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass

import numpy as np

# the planner's documented defaults: absolute MIP gap, and the tie-breaking
# objective perturbation per unit flow and edge index
MIP_GAP = 1e-6
PERTURBATION = 1e-9


@dataclass(frozen=True)
class Park:
    width: int
    height: int
    mask: np.ndarray       # (n_cells,) bool
    posts: tuple[int, ...]
    features: np.ndarray   # (n_cells, k)

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    def moves(self, c: int) -> list[int]:
        """Stay, or step to a 4-neighbour inside the park."""
        x, y = c % self.width, c // self.width
        out = [c]
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            jx, jy = x + dx, y + dy
            if 0 <= jx < self.width and 0 <= jy < self.height and self.mask[jy * self.width + jx]:
                out.append(jy * self.width + jx)
        return out

    def distances(self, post: int) -> np.ndarray:
        dist = np.full(self.n_cells, np.iinfo(np.int64).max // 2, dtype=np.int64)
        dist[post] = 0
        queue = deque([post])
        while queue:
            u = queue.popleft()
            for v in self.moves(u):
                if dist[v] > dist[u] + 1:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist


def read_park(path) -> Park:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    width = max(int(r[1]) for r in rows) + 1
    height = max(int(r[2]) for r in rows) + 1
    mask = np.zeros(width * height, bool)
    feats = np.zeros((width * height, len(rows[0]) - 5))
    posts = []
    for r in rows:
        c = int(r[2]) * width + int(r[1])
        mask[c] = r[3] == "1"
        feats[c] = [float(v) for v in r[5:]]
        if r[4] == "1":
            posts.append(c)
    return Park(width, height, mask, tuple(sorted(posts)), feats)


def read_dataset(path, n_cells: int):
    """(effort, labels, design rows) with shapes (T, n), (T, n), (T, n, k+1)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [r for r in reader]
    T = max(int(r[0]) for r in rows) + 1
    k = len(header) - 5
    effort = np.zeros((T, n_cells))
    labels = np.zeros((T, n_cells), bool)
    design = np.zeros((T, n_cells, k + 1))
    for r in rows:
        t, c = int(r[0]), int(r[1])
        effort[t, c] = float(r[2])
        labels[t, c] = r[3] == "1"
        design[t, c, :k] = [float(v) for v in r[5:]]
        design[t, c, k] = float(r[4])
    return effort, labels, design


# -- scores ------------------------------------------------------------------

def pair_auc(scores, labels) -> float:
    """Mann-Whitney AUC by counting (positive, negative) pairs; ties count 1/2."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=bool)
    pos, neg = s[y][:, None], s[~y][None, :]
    wins = np.count_nonzero(pos > neg) + 0.5 * np.count_nonzero(pos == neg)
    return float(wins / (pos.size * neg.size))


def check_auc(report: dict, scores_by_window: dict, labels_by_window: dict) -> list[str]:
    errors = []
    windows = report.get("test_windows", {})
    if not windows:
        return ["metrics.json has no test windows"]
    for t, entry in windows.items():
        if "auc" not in entry:
            errors.append(f"window {t}: no AUC reported")
            continue
        ref = pair_auc(scores_by_window[int(t)], labels_by_window[int(t)])
        if abs(entry["auc"] - ref) > 1e-12:
            errors.append(f"window {t}: AUC {entry['auc']!r} != pair-counted {ref!r}")
    return errors


# -- risk map and blocks -----------------------------------------------------

def check_riskmap(rows: list[tuple[int, float, float, float]], park: Park, levels,
                  reference: dict) -> list[str]:
    """``rows`` as (cell, level, prob, var); ``reference[(cell, level)]`` is an
    independently computed (prob, squashed var) for a sample of cells."""
    errors = []
    expected = {(int(c), float(lv)) for c in np.flatnonzero(park.mask) for lv in levels}
    seen = {(c, lv) for c, lv, _, _ in rows}
    if seen != expected or len(rows) != len(expected):
        errors.append(f"riskmap covers {len(seen)} (cell, level) pairs in {len(rows)} rows, "
                      f"expected {len(expected)}")
    for c, lv, p, v in rows:
        if not 0.0 <= p <= 1.0:
            errors.append(f"cell {c} level {lv}: prob {p!r} outside [0, 1]")
        if not 0.0 <= v < 1.0:
            errors.append(f"cell {c} level {lv}: var {v!r} outside [0, 1)")
        if (c, lv) in reference:
            rp, rv = reference[(c, lv)]
            if abs(p - rp) > 1e-9 or abs(v - rv) > 1e-9:
                errors.append(f"cell {c} level {lv}: ({p!r}, {v!r}) != single-row ({rp!r}, {rv!r})")
    return errors[:20]


def check_blocks(blocks: dict, park: Park) -> list[str]:
    errors = []
    b = int(blocks["block_size_cells"])
    for band in ("high", "medium", "low"):
        for centre, _ in blocks[band]:
            cx, cy = centre % park.width, centre // park.width
            x0, y0 = cx - b // 2, cy - b // 2
            inside = (0 <= x0 and x0 + b <= park.width and 0 <= y0 and y0 + b <= park.height)
            if not inside or not all(park.mask[(y0 + dy) * park.width + x0 + dx]
                                     for dy in range(b) for dx in range(b)):
                errors.append(f"{band} block at cell {centre} is not fully inside the park")
    risks = {band: [r for _, r in blocks[band]] for band in ("high", "medium", "low")}
    for upper, lower in (("high", "medium"), ("medium", "low")):
        if risks[upper] and risks[lower] and min(risks[upper]) < max(risks[lower]):
            errors.append(f"{upper} blocks are not all at least as risky as {lower} blocks")
    return errors


# -- plans -------------------------------------------------------------------

def utilities(prob: np.ndarray, var: np.ndarray, breakpoints, beta: float, horizon_cov: float):
    """Breakpoint utilities g * (1 - beta * nu), flat-extended to cover T*K."""
    br = np.asarray(breakpoints, dtype=float)
    util = prob * (1.0 - beta * var)
    if horizon_cov > br[-1]:
        br = np.append(br, horizon_cov)
        util = np.concatenate([util, util[:, -1:]], axis=1)
    return br, util


def objective(coverage: np.ndarray, park: Park, br, util) -> float:
    return float(sum(np.interp(coverage[c], br, util[c]) for c in np.flatnonzero(park.mask)))


def unrolled_graph(park: Park, post: int, T: int):
    """Nodes (cell, t) that lie on some post-to-post walk of T steps, and
    edges (node, node, cell entered) between consecutive steps."""
    dist = park.distances(post)
    nodes = {}
    for t in range(1, T + 1):
        for c in np.flatnonzero(park.mask):
            if dist[c] <= min(t - 1, T - t):
                nodes[(int(c), t)] = len(nodes)
    edges = [(nodes[(u, t)], nodes[(v, t + 1)], v)
             for (u, t) in nodes if t < T for v in park.moves(u) if (v, t + 1) in nodes]
    return nodes, edges


def walk_errors(cells, post: int, T: int, park: Park) -> list[str]:
    """A patrol starts and ends at the post, lasts T steps, and each step
    stays or moves to a 4-neighbour inside the park."""
    if len(cells) != T:
        return [f"route has {len(cells)} steps, expected {T}"]
    if cells[0] != post or cells[-1] != post:
        return [f"route {cells[0]}..{cells[-1]} does not start and end at post {post}"]
    for a, b in zip(cells, cells[1:]):
        if b not in park.moves(a):
            return [f"route steps from {a} to {b}, which is not a stay or a 4-neighbour move"]
    return []


def random_walks(park: Park, post: int, T: int, count: int, rng) -> list[list[int]]:
    """Uniform feasible walks: every step keeps the post reachable in time."""
    dist = park.distances(post)
    walks = []
    for _ in range(count):
        cells = [post]
        for t in range(1, T):
            options = [v for v in park.moves(cells[-1]) if dist[v] <= T - 1 - t]
            cells.append(int(options[rng.integers(len(options))]))
        walks.append(cells)
    return walks


def check_plan(plan: dict, park: Park, prob, var, breakpoints, rng, reference=None) -> list[str]:
    """Routes, coverage and objective of one plan. ``reference`` is the
    HiGHS optimum of the same problem, when one was computed."""
    post, T, K, beta = plan["post"], plan["horizon"], plan["K"], plan["beta"]
    errors = []
    cov = np.zeros(park.n_cells)
    weight = 0.0
    for route in plan["routes"]:
        errors += walk_errors(route["cells"], post, T, park)
        weight += route["weight"]
        for c in route["cells"]:
            cov[c] += K * route["weight"]
    if abs(weight - 1.0) > 1e-9:
        errors.append(f"route weights sum to {weight!r}")
    stated = np.zeros(park.n_cells)
    for c, v in plan["coverage"].items():
        stated[int(c)] = v
    if np.max(np.abs(cov - stated)) > 1e-9:
        errors.append("coverage rebuilt from the routes differs from the plan's coverage")
    if abs(stated.sum() - T * K) > 1e-6:
        errors.append(f"coverage sums to {stated.sum()!r}, not T*K = {T * K}")
    br, util = utilities(prob, var, breakpoints, beta, float(T * K))
    obj = objective(stated, park, br, util)
    if abs(obj - plan["objective"]) > 1e-9 * (1 + abs(obj)):
        errors.append(f"objective {plan['objective']!r} != recomputed {obj!r}")
    # the solver maximizes a perturbed objective (perturbation * edge index
    # per unit flow) to a gap, so allow both when comparing with other plans
    _, edges = unrolled_graph(park, post, T)
    tol = MIP_GAP + PERTURBATION * len(edges) * (T - 1) + 1e-9
    stay = np.zeros(park.n_cells)
    stay[post] = T * K
    rivals = [("stay-at-post", objective(stay, park, br, util))]
    for i, walk in enumerate(random_walks(park, post, T, 20, rng)):
        wc = np.zeros(park.n_cells)
        np.add.at(wc, walk, K)
        rivals.append((f"random walk {i}", objective(wc, park, br, util)))
    for name, value in rivals:
        if plan["objective"] < value - tol:
            errors.append(f"objective {plan['objective']!r} below {name} ({value!r})")
    if reference is not None and abs(plan["objective"] - reference) > tol + 1e-7 * abs(reference):
        errors.append(f"objective {plan['objective']!r} differs from the HiGHS optimum {reference!r}")
    return errors


def check_sweep(table) -> list[str]:
    """Rows of (beta, ratio): beta 0 is exactly 1, no ratio below 1."""
    errors = []
    for beta, ratio in table:
        if ratio is None:
            errors.append(f"beta {beta}: ratio undefined")
        elif beta == 0.0 and ratio != 1.0:
            errors.append(f"beta 0 ratio is {ratio!r}, not exactly 1")
        elif ratio < 1.0 - 1e-6:
            errors.append(f"beta {beta}: ratio {ratio!r} below 1")
    if not any(beta == 0.0 for beta, _ in table):
        errors.append("sweep has no beta = 0 row")
    return errors


def highs_optimum(park: Park, post: int, T: int, K: int, prob, var, breakpoints,
                  beta: float) -> float | None:
    """Optimum of the patrol MILP from scipy's HiGHS, built independently:
    unit flow through the time-unrolled graph, coverage as a convex
    combination of breakpoints, SOS2 through one segment selector per cell.
    None when HiGHS does not prove optimality within a minute."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    br, util = utilities(prob, var, breakpoints, beta, float(T * K))
    m = br.size
    nodes, edges = unrolled_graph(park, post, T)
    cells = sorted({c for c, _ in nodes})
    n_e, n_c = len(edges), len(cells)
    lam0 = n_e
    z0 = lam0 + n_c * m
    n_var = z0 + n_c * (m - 1)
    rows, cols, vals, lo, hi = [], [], [], [], []
    r = 0

    def add(row_entries, lower, upper):
        nonlocal r
        for col, val in row_entries:
            rows.append(r)
            cols.append(col)
            vals.append(val)
        lo.append(lower)
        hi.append(upper)
        r += 1

    src, snk = nodes[(post, 1)], nodes[(post, T)]
    flow_in = [[] for _ in nodes]
    flow_out = [[] for _ in nodes]
    into_cell = {c: [] for c in cells}
    for e, (a, b, v) in enumerate(edges):
        flow_out[a].append(e)
        flow_in[b].append(e)
        into_cell[v].append(e)
    for node in range(len(nodes)):
        entries = [(e, 1.0) for e in flow_in[node]] + [(e, -1.0) for e in flow_out[node]]
        rhs = -1.0 if node == src else (1.0 if node == snk else 0.0)
        add(entries, rhs, rhs)
    for i, c in enumerate(cells):
        entries = [(lam0 + i * m + j, br[j]) for j in range(m)]
        entries += [(e, -float(K)) for e in into_cell[c]]
        rhs = float(K) if c == post else 0.0
        add(entries, rhs, rhs)
        add([(lam0 + i * m + j, 1.0) for j in range(m)], 1.0, 1.0)
        add([(z0 + i * (m - 1) + s, 1.0) for s in range(m - 1)], 1.0, 1.0)
        for j in range(m):
            entries = [(lam0 + i * m + j, 1.0)]
            entries += [(z0 + i * (m - 1) + s, -1.0) for s in (j - 1, j) if 0 <= s < m - 1]
            add(entries, -np.inf, 0.0)
    A = coo_matrix((vals, (rows, cols)), shape=(r, n_var)).tocsr()
    c_obj = np.zeros(n_var)
    for i, c in enumerate(cells):
        c_obj[lam0 + i * m: lam0 + (i + 1) * m] = -util[c]
    integrality = np.zeros(n_var)
    integrality[z0:] = 1
    res = milp(c_obj, constraints=LinearConstraint(A, lo, hi), integrality=integrality,
               bounds=Bounds(0, 1), options={"mip_rel_gap": 1e-9, "time_limit": 60.0})
    if res.status != 0:
        return None
    outside = sum(float(util[c, 0]) for c in np.flatnonzero(park.mask) if c not in set(cells))
    return float(-res.fun) + outside
