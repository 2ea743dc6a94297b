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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..grid import ParkGrid


class PlannerError(ValueError):
    """Invalid planning input."""


class PlanInfeasibleError(PlannerError):
    """No feasible patrol exists for the requested configuration."""


@dataclass(frozen=True)
class TimeUnrolledGraph:
    grid: ParkGrid
    post: int
    horizon: int
    nodes: tuple[tuple[int, int], ...]          # (cell, t), t in 1..T
    edges: tuple[tuple[int, int], ...]          # (node_idx, node_idx), time-ordered
    node_index: dict = field(repr=False, default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def source(self) -> int:
        return self.node_index[(self.post, 1)]

    @property
    def sink(self) -> int:
        return self.node_index[(self.post, self.horizon)]

    def cells(self) -> list[int]:
        """Park cells that appear in at least one surviving node."""
        return sorted({c for c, _ in self.nodes})

    def out_edges(self, node: int) -> list[int]:
        return self._out[node]

    def __post_init__(self):
        index = {nt: i for i, nt in enumerate(self.nodes)}
        object.__setattr__(self, "node_index", index)
        # edge arrays: tail and head node, and the cell the edge enters
        ends = np.asarray(self.edges, dtype=np.intp).reshape(-1, 2)
        node_cell = np.asarray([c for c, _ in self.nodes], dtype=np.intp)
        object.__setattr__(self, "edge_tail", ends[:, 0])
        object.__setattr__(self, "edge_head", ends[:, 1])
        object.__setattr__(self, "edge_cell", node_cell[ends[:, 1]])
        out = [[] for _ in self.nodes]
        for e, (u, _) in enumerate(self.edges):
            out[u].append(e)
        object.__setattr__(self, "_out", out)

    # -- path machinery ----------------------------------------------------
    def count_paths(self) -> int:
        """Exact number of source-to-sink paths."""
        if self.horizon == 1:
            return 1
        ways = [0] * self.num_nodes
        ways[self.sink] = 1
        for i in range(self.num_nodes - 1, -1, -1):
            if i == self.sink:
                continue
            ways[i] = sum(ways[self.edges[e][1]] for e in self.out_edges(i))
        return ways[self.source]

    def enumerate_paths(self, limit: int):
        """Yield cell sequences of every source-to-sink path.

        Raises PlannerError when more than ``limit`` paths exist.
        """
        if self.count_paths() > limit:
            raise PlannerError(f"more than {limit} feasible paths")
        if self.horizon == 1:
            yield (self.post,)
            return
        stack = [(self.source, [self.post])]
        while stack:
            node, cells = stack.pop()
            if node == self.sink:
                yield tuple(cells)
                continue
            for e in reversed(self.out_edges(node)):
                v = self.edges[e][1]
                stack.append((v, cells + [self.nodes[v][0]]))

    def coverage_of_path(self, cells: tuple[int, ...], K: float) -> np.ndarray:
        """Per-cell coverage of a single path executed K times."""
        cov = np.zeros(self.grid.n_cells)
        for c in cells:
            cov[c] += K
        return cov

    def coverage_from_flow(self, flow: np.ndarray, K: float) -> np.ndarray:
        """Coverage c_v = K * (inflow over all time layers + initial post
        presence)."""
        cov = np.zeros(self.grid.n_cells)
        np.add.at(cov, self.edge_cell, flow)  # sums in edge order: same bits as a loop
        cov[self.post] += 1.0
        return K * cov


def build_graph(grid: ParkGrid, post: int, T: int) -> TimeUnrolledGraph:
    """Build and prune the time-unrolled graph for one patrol post."""
    if T < 1:
        raise PlannerError("horizon T must be >= 1")
    if post not in grid.patrol_posts:
        raise PlannerError(f"cell {post} is not a patrol post")

    if T == 1:
        return TimeUnrolledGraph(grid=grid, post=post, horizon=1,
                                 nodes=((post, 1),), edges=())

    moves = {post: sorted({post, *grid.neighbors(post)})}
    reach = [set() for _ in range(T + 1)]
    reach[1] = {post}
    for t in range(1, T):
        nxt = set()
        for u in reach[t]:
            if u not in moves:
                moves[u] = sorted({u, *grid.neighbors(u)})
            nxt.update(moves[u])
        reach[t + 1] = nxt
    coreach = [set() for _ in range(T + 1)]
    coreach[T] = {post}
    for t in range(T - 1, 0, -1):
        prv = set()
        for v in coreach[t + 1]:
            if v not in moves:
                moves[v] = sorted({v, *grid.neighbors(v)})
            prv.update(moves[v])  # moves are symmetric (stay + undirected adjacency)
        coreach[t] = prv

    nodes = []
    for t in range(1, T + 1):
        for c in sorted(reach[t] & coreach[t]):
            nodes.append((c, t))
    index = {nt: i for i, nt in enumerate(nodes)}
    edges = []
    for t in range(1, T):
        layer = sorted(c for c, tt in nodes if tt == t)
        for u in layer:
            for v in moves[u]:
                if (v, t + 1) in index:
                    edges.append((index[(u, t)], index[(v, t + 1)]))
    return TimeUnrolledGraph(grid=grid, post=post, horizon=T,
                             nodes=tuple(nodes), edges=tuple(edges))
