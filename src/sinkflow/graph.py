"""Undirected weighted graphs: shortest paths, hop diameter, tree flows.

A Graph stores each undirected edge once as (i, j, w) with i < j, and one
adjacency: the directed arcs (both orientations of every edge) as parallel
arrays sorted by (src, dst), with a reverse-arc index and per-vertex segment
offsets. The flow solver's per-sweep reductions run vectorized over these
arrays, and every traversal here walks the same segments.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = [
    "Graph",
    "shortest_paths",
    "geodesic_matrix",
    "hop_diameter",
    "spanning_tree_flow",
]


class Graph:
    """Connected undirected graph with positive edge lengths.

    Args:
      n: vertex count, vertices are 0..n-1.
      edges: iterable of (i, j, w); endpoints in any order, each undirected
        edge given once, w finite and > 0.

    Raises:
      ValueError: on self-loops, duplicate edges, bad weights, out-of-range
        endpoints, or a disconnected graph.
    """

    def __init__(self, n: int, edges):
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        canon = []
        seen = set()
        for i, j, w in edges:
            i, j, w = int(i), int(j), float(w)
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            if not (np.isfinite(w) and w > 0.0):
                raise ValueError(f"edge ({i},{j}) needs finite positive weight, got {w}")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
            canon.append((i, j, w))
        canon.sort()
        self.n = n
        self.edges = tuple(canon)
        self._build_arcs()
        if len(_bfs(self, 0)[0]) < n:
            raise ValueError("graph is not connected")

    def _build_arcs(self):
        # Directed view: both orientations of each stored edge, sorted by
        # (src, dst). Arc k < m of the unsorted list is edge k forward and
        # arc k + m the same edge backward, so the reverse of the arc sorted
        # to position e sits where arc (order[e] + m) % p was sorted to.
        m = len(self.edges)
        self.p = 2 * m
        ends = np.array([e[:2] for e in self.edges], dtype=np.intp).reshape(m, 2)
        w = np.array([e[2] for e in self.edges], dtype=float)
        src = np.concatenate([ends[:, 0], ends[:, 1]])
        dst = np.concatenate([ends[:, 1], ends[:, 0]])
        order = np.lexsort((dst, src))
        rank = np.empty(self.p, dtype=np.intp)
        rank[order] = np.arange(self.p)
        self.arc_src = src[order]
        self.arc_dst = dst[order]
        self.arc_w = np.concatenate([w, w])[order]
        self.arc_rev = rank[(order + m) % self.p]
        # Per-vertex offsets into the src-sorted arc arrays. Every vertex of
        # a connected graph with n >= 2 has at least one outgoing arc.
        self.arc_seg_starts = np.searchsorted(self.arc_src, np.arange(self.n))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={len(self.edges)})"


def _bfs(g: Graph, source: int):
    """Breadth-first walk over the arc segments, neighbours in ascending id.

    Returns (order, tree_arc, hops) as lists: the vertices in visit order,
    the arc each vertex was first reached by (-1 for the source), and hop
    counts from the source (-1 where unreached).
    """
    starts = g.arc_seg_starts.tolist() + [g.p]
    dst = g.arc_dst.tolist()
    tree_arc = [-1] * g.n
    hops = [-1] * g.n
    hops[source] = 0
    order = [source]
    # the loop also visits the vertices appended while it runs
    for v in order:
        for e in range(starts[v], starts[v + 1]):
            w = dst[e]
            if hops[w] < 0:
                hops[w] = hops[v] + 1
                tree_arc[w] = e
                order.append(w)
    return order, tree_arc, hops


def shortest_paths(g: Graph, source: int) -> np.ndarray:
    """Single-source shortest-path distances under the edge lengths."""
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range")
    starts = g.arc_seg_starts.tolist() + [g.p]
    dst = g.arc_dst.tolist()
    length = g.arc_w.tolist()
    dist = np.full(g.n, np.inf)
    dist[source] = 0.0
    done = np.zeros(g.n, dtype=bool)
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for e in range(starts[v], starts[v + 1]):
            w = dst[e]
            nd = d + length[e]
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def geodesic_matrix(g: Graph) -> np.ndarray:
    """All-pairs shortest-path matrix (symmetric, zero diagonal)."""
    return np.stack([shortest_paths(g, s) for s in range(g.n)])


def hop_diameter(g: Graph) -> int:
    """Largest over vertex pairs of the minimum edge count between them.

    Exact, by iFUB (Crescenzi et al., Theor. Comput. Sci. 2013) over _bfs.
    A BFS from a central vertex u, picked by two double sweeps, splits the
    vertices into levels by their distance from u. Two vertices at levels
    <= i are within 2i hops of each other through u, so the eccentricities
    are taken level by level from the deepest up, and the search stops as
    soon as the largest one found reaches twice the next level. On paths,
    trees and graphs with a few chords that takes a handful of BFS runs
    instead of one per vertex.
    """
    src = g.arc_src.tolist()
    diameter = 0
    u = int(np.argmax(np.diff(g.arc_seg_starts, append=g.p)))
    for _ in range(2):
        # double sweep: the farthest vertex a from u, then a path from a
        # to the vertex farthest from it; u moves to that path's midpoint
        order = _bfs(g, u)[0]
        order, tree_arc, hops = _bfs(g, order[-1])
        u = order[-1]
        diameter = max(diameter, hops[u])
        for _ in range(hops[u] // 2):
            u = src[tree_arc[u]]
    order, _, hops = _bfs(g, u)
    level = hops[order[-1]]
    end = len(order)
    while diameter < 2 * level:
        start = end
        while start > 0 and hops[order[start - 1]] == level:
            start -= 1
        for x in order[start:end]:
            diameter = max(diameter, max(_bfs(g, x)[2]))
        end = start
        level -= 1
    return diameter


def spanning_tree_flow(g: Graph, b1, b2):
    """Feasible nonnegative arc flow with divergence b1 - b2 on a BFS tree.

    The tree is grown from vertex 0 with neighbors visited in ascending id
    order, so the result is deterministic. Each tree edge carries the net
    imbalance of the subtree hanging below it, placed on whichever directed
    orientation keeps the flow entry nonnegative.

    Raises:
      ValueError: if the marginals are unbalanced beyond 1e-12.
    """
    from .flowsinkhorn import EdgeFlow

    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if b1.shape != (g.n,) or b2.shape != (g.n,):
        raise ValueError("marginals must have one entry per vertex")
    imbalance = float(b1.sum() - b2.sum())
    if abs(imbalance) > 1e-12:
        raise ValueError(f"marginals differ in total mass by {imbalance:.3e}")

    order, tree_arc, _ = _bfs(g, 0)
    src = g.arc_src.tolist()
    rev = g.arc_rev.tolist()
    # Subtree surplus of (b1 - b2), accumulated leaves-first.
    surplus = (b1 - b2).tolist()
    values = np.zeros(g.p)
    for v in reversed(order[1:]):
        # tree arc e runs (parent -> v) and adds +f to div at v
        e = tree_arc[v]
        s = surplus[v]
        values[e if s >= 0.0 else rev[e]] = abs(s)
        surplus[src[e]] += s
    return EdgeFlow(g, values)
