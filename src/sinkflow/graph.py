"""Undirected weighted graphs: one arc adjacency, hop diameter, tree flows.

A Graph stores one adjacency: the directed arcs (both orientations of every
edge) as parallel arrays sorted by (src, dst), with a reverse-arc index and
per-vertex segment offsets, and the breadth-first tree from vertex 0 that
its connectivity check walks. A flow is a float array with one value per
arc, aligned with these arrays. The flow solver's per-sweep reductions run
vectorized over them, every traversal here walks the same segments, and
the spanning-tree flow and the flow dual recovery reuse the stored tree.
"""

from __future__ import annotations

import numpy as np

from .numerics import measure_pair

__all__ = [
    "Graph",
    "hop_diameter",
    "spanning_tree_flow",
]


def _vertex(x) -> str:
    """An endpoint as the input gave it: 3 for 3.0, 1.5 for 1.5."""
    return str(int(x)) if float(x).is_integer() else repr(float(x))


class Graph:
    """Connected undirected graph with positive edge lengths.

    Args:
      n: vertex count, an integer >= 1; vertices are 0..n-1.
      edges: sequence of (i, j, w) triples, or an (m, 3) array; endpoints
        integral, in any order, each undirected edge given once, w finite
        and > 0. The checks and the arc arrays are whole-array operations.

    One breadth-first search from vertex 0 checks connectivity. Its visit
    order (bfs_order), the arc by which each vertex was first reached
    (bfs_tree_arc, -1 at vertex 0) and the offsets of its hop levels in the
    visit order (bfs_level_starts) are kept as intp arrays for
    spanning_tree_flow and flowsinkhorn.vertex_dual_from_flow.

    Raises:
      ValueError: on a non-integral or nonpositive n, rows that are not
        triples, self-loops, duplicate edges, bad weights, non-integral or
        out-of-range endpoints, or a disconnected graph. An edge error
        names the first bad edge in input order.
    """

    def __init__(self, n: int, edges):
        try:
            count = float(n)
        except OverflowError as err:
            raise ValueError(f"vertex count {n} is too large") from err
        if not (count.is_integer() and count >= 1):
            raise ValueError(f"vertex count must be an integer >= 1, got {n!r}")
        n = int(count)
        try:
            edges = np.asarray(edges, dtype=float)
        except (TypeError, ValueError) as err:
            raise ValueError(f"edges must be (i, j, w) triples: {err}") from err
        if edges.shape == (0,):
            edges = edges.reshape(0, 3)
        if edges.ndim != 2 or edges.shape[1] != 3:
            raise ValueError(
                f"edges must be (i, j, w) triples, got shape {edges.shape}")
        i, j, w = edges.T
        _check_edges(n, i, j, w)
        if len(w) < n - 1:
            # fewer edges than a spanning tree; this also spares a huge n
            # its per-vertex arrays
            raise ValueError("graph is not connected")
        self.n = n
        self._build_arcs(i.astype(np.intp), j.astype(np.intp), w)
        order, tree_arc, hops = _bfs(self, 0)
        if len(order) < n:
            raise ValueError("graph is not connected")
        self.bfs_order = np.array(order, dtype=np.intp)
        self.bfs_tree_arc = np.array(tree_arc, dtype=np.intp)
        depth = np.array(hops, dtype=np.intp)[self.bfs_order]
        self.bfs_level_starts = np.flatnonzero(np.diff(depth, prepend=-1))

    def _build_arcs(self, i, j, w):
        # Directed view: both orientations of each edge, sorted by
        # (src, dst). Arc k < m of the unsorted list is edge k forward and
        # arc k + m the same edge backward, so the reverse of the arc sorted
        # to position e sits where arc (order[e] + m) % p was sorted to.
        # The (src, dst) pairs are distinct, so the input's edge order and
        # orientations do not show in the result.
        m = len(w)
        self.p = 2 * m
        src = np.concatenate([i, j])
        dst = np.concatenate([j, i])
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
        return f"Graph(n={self.n}, edges={self.p // 2})"


def _check_edges(n: int, i, j, w) -> None:
    """Raise ValueError for the first edge, in input order, that is a
    self-loop, has an endpoint that is not an integer in 0..n-1, has a
    weight that is not finite and positive, or repeats an earlier edge.
    An edge that fails several checks reports the first in that list."""
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    loop = i == j
    ends = (lo >= 0) & (hi < n) & (np.floor(i) == i) & (np.floor(j) == j)
    weight = np.isfinite(w) & (w > 0)
    bad = np.flatnonzero(loop | ~ends | ~weight)
    first = bad[0] if bad.size else len(w)
    # a stable sort on (lo, hi) puts each repeat right after the earlier
    # edges with its endpoints; NaN endpoints compare unequal
    order = np.lexsort((hi, lo))
    same = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
    repeats = order[1:][same]
    if repeats.size and repeats.min() < first:
        k = repeats.min()
        raise ValueError(f"duplicate edge ({_vertex(lo[k])},{_vertex(hi[k])})")
    if first == len(w):
        return
    a, b = _vertex(i[first]), _vertex(j[first])
    if loop[first]:
        raise ValueError(f"self-loop at vertex {a}")
    if not (lo[first] >= 0 and hi[first] < n):
        raise ValueError(f"edge ({a},{b}) out of range for n={n}")
    if not ends[first]:
        raise ValueError(f"edge ({a},{b}) has a non-integral endpoint")
    raise ValueError(
        f"edge ({a},{b}) needs finite positive weight, got {float(w[first])!r}")


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


def spanning_tree_flow(g: Graph, b1, b2) -> np.ndarray:
    """Feasible nonnegative arc flow with divergence b1 - b2 on a BFS tree.

    The tree is the Graph's own BFS tree from vertex 0, grown with neighbors
    visited in ascending id order, so the result is deterministic. Each tree
    edge carries the net imbalance of the subtree hanging below it, placed
    on whichever directed orientation keeps the flow entry nonnegative. The
    flow is returned as a float array aligned with the Graph's arc arrays.

    Raises:
      ValueError: if b1 and b2 are not a measure pair on the vertices (see
        numerics.measure_pair).
    """
    b1, b2 = measure_pair(b1, b2, g.n, g.n)

    # Subtree surplus of (b1 - b2), gathered leaves-first: one hop level at
    # a time from the deepest, each in reversed visit order. np.add.at adds
    # in index order, so every parent takes its children's surpluses in the
    # order of a reversed-BFS loop, and the sums are bit-identical to it.
    rev = g.bfs_order[:0:-1]
    # tree arc e runs (parent -> v) and adds +f to div at v
    tree_arc = g.bfs_tree_arc[rev]
    parent = g.arc_src[tree_arc]
    surplus = b1 - b2
    # level k >= 1 is rev[n - starts[k + 1]:n - starts[k]], starts[L + 1] = n
    cuts = (g.n - g.bfs_level_starts[:0:-1]).tolist()
    for lo, hi in zip([0] + cuts, cuts):
        np.add.at(surplus, parent[lo:hi], surplus[rev[lo:hi]])
    s = surplus[rev]
    values = np.zeros(g.p)
    values[np.where(s >= 0.0, tree_arc, g.arc_rev[tree_arc])] = np.abs(s)
    return values
