"""Time-unrolled patrol graph.

A patrol of horizon T is a walk over the park graph that starts and ends
at a patrol post, moving to a 4-neighbor cell or staying put at each step.
Unrolled over time this is a DAG with nodes (cell, t) for t = 1..T and
edges that advance time by exactly one step; a patrol is a unit of flow
from (post, 1) to (post, T).

Nodes that cannot lie on any post-to-post path (unreachable forward or
unable to return in the remaining steps) are pruned at construction.
Coverage counts inflow over time plus the initial presence at the post,
so a single patrol always distributes exactly T cell-steps of presence.

The graph is four int arrays, numbered so that no index is needed:

- Nodes are numbered by time, then by cell. The first and last layers
  hold only the post, so the source (post, 1) is node 0 and the sink
  (post, T) is node ``num_nodes - 1``.
- Edges are numbered by tail node, then by head cell. A node's out-edges
  are therefore one range, ``out_start[u]:out_start[u + 1]``, in
  ascending head cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..grid import ParkGrid


class PlannerError(ValueError):
    """Invalid planning input."""


@dataclass(frozen=True, eq=False)
class TimeUnrolledGraph:
    grid: ParkGrid
    post: int
    horizon: int
    node_cell: np.ndarray            # (n_nodes,) park cell of each node
    node_time: np.ndarray            # (n_nodes,) time step, 1..T
    edge_tail: np.ndarray            # (n_edges,) node an edge leaves
    edge_head: np.ndarray            # (n_edges,) node an edge enters

    @property
    def num_nodes(self) -> int:
        return self.node_cell.size

    @property
    def num_edges(self) -> int:
        return self.edge_tail.size

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return self.num_nodes - 1

    @cached_property
    def edge_cell(self) -> np.ndarray:
        """The park cell each edge enters."""
        return self.node_cell[self.edge_head]

    @cached_property
    def out_start(self) -> np.ndarray:
        """(n_nodes + 1,) offsets: node u's out-edges are
        ``out_start[u]:out_start[u + 1]``."""
        return np.searchsorted(self.edge_tail, np.arange(self.num_nodes + 1))

    def cells(self) -> list[int]:
        """Park cells that appear in at least one surviving node, ascending.
        (Not ``np.unique``: numpy 2.4's first call to it imports ``numpy.ma``,
        which would then land inside the first timed plan.)"""
        return np.flatnonzero(np.bincount(self.node_cell, minlength=self.grid.n_cells)).tolist()

    # -- path machinery ----------------------------------------------------
    def count_paths(self) -> int:
        """Exact number of source-to-sink paths."""
        heads, start = self.edge_head.tolist(), self.out_start.tolist()
        ways = [0] * self.num_nodes
        ways[self.sink] = 1
        for u in range(self.sink - 1, -1, -1):
            ways[u] = sum(ways[v] for v in heads[start[u]:start[u + 1]])
        return ways[self.source]

    def enumerate_paths(self, limit: int):
        """Yield every source-to-sink path as a list of edge indices, in
        lexicographic order of the cells it visits.

        Raises PlannerError when more than ``limit`` paths exist.
        """
        if self.count_paths() > limit:
            raise PlannerError(f"more than {limit} feasible paths")
        heads, start = self.edge_head.tolist(), self.out_start.tolist()
        stack = [(self.source, [])]
        while stack:
            node, path = stack.pop()
            if node == self.sink:
                yield path
                continue
            for e in range(start[node + 1] - 1, start[node] - 1, -1):
                stack.append((heads[e], path + [e]))

    def coverage_from_flow(self, flow: np.ndarray, K: float) -> np.ndarray:
        """Coverage c_v = K * (inflow over all time layers + initial post
        presence)."""
        cov = np.zeros(self.grid.n_cells)
        np.add.at(cov, self.edge_cell, flow)  # sums in edge order: same bits as a loop
        cov[self.post] += 1.0
        return K * cov


def _step(layer: np.ndarray, grid: ParkGrid) -> np.ndarray:
    """Cells one move (stay or a 4-neighbor inside the park) away from a
    boolean (n_cells,) layer. Moves are symmetric, so this steps both
    forward and backward in time."""
    at = layer.reshape(grid.height, grid.width)
    out = at.copy()
    out[:, 1:] |= at[:, :-1]
    out[:, :-1] |= at[:, 1:]
    out[1:, :] |= at[:-1, :]
    out[:-1, :] |= at[1:, :]
    return out.ravel() & grid.mask


def build_graph(grid: ParkGrid, post: int, T: int) -> TimeUnrolledGraph:
    """Build and prune the time-unrolled graph for one patrol post."""
    if T < 1:
        raise PlannerError("horizon T must be >= 1")
    if post not in grid.patrol_posts:
        raise PlannerError(f"cell {post} is not a patrol post")

    n, W = grid.n_cells, grid.width
    reach = np.zeros((T, n), dtype=bool)       # reach[t - 1]: cells reachable at t
    coreach = np.zeros((T, n), dtype=bool)     # cells that can return to the post by T
    reach[0, post] = coreach[T - 1, post] = True
    for t in range(1, T):
        reach[t] = _step(reach[t - 1], grid)
        coreach[T - 1 - t] = _step(coreach[T - t], grid)
    alive = reach & coreach
    node_time, node_cell = np.nonzero(alive)   # row-major: by time, then cell
    node_of = np.full((T, n), -1)
    node_of[node_time, node_cell] = np.arange(node_cell.size)

    # candidate moves in ascending head cell; a move is an edge when it
    # stays on the grid and its head survives in the next layer
    tails = np.flatnonzero(node_time < T - 1)
    c, t = node_cell[tails, None], node_time[tails, None]
    x, y = c % W, c // W
    heads = c + np.array([-W, -1, 0, 1, W])
    on_grid = np.hstack([y > 0, x > 0, np.ones_like(c, dtype=bool), x < W - 1,
                         y < grid.height - 1])
    head_node = np.where(on_grid, node_of[t + 1, heads % n], -1)
    keep = head_node >= 0
    return TimeUnrolledGraph(
        grid=grid, post=post, horizon=T, node_cell=node_cell, node_time=node_time + 1,
        edge_tail=np.repeat(tails, keep.sum(axis=1)), edge_head=head_node[keep])
