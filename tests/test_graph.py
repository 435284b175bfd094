import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order

import sinkflow.graph as graph_module
from conftest import random_connected_graph, random_marginals
from sinkflow.flowsinkhorn import divergence
from sinkflow.graph import (
    Graph,
    _bfs,
    geodesic_matrix,
    hop_diameter,
    shortest_paths,
    spanning_tree_flow,
)


def path_graph(n, w=1.0):
    return Graph(n, [(i, i + 1, w) for i in range(n - 1)])


def floyd_warshall(g):
    d = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j, w in g.edges:
        d[i, j] = d[j, i] = min(d[i, j], w)
    for k in range(g.n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def arc(g, src, dst):
    """Position of the arc src -> dst in the graph's arc arrays."""
    (e,) = np.flatnonzero((g.arc_src == src) & (g.arc_dst == dst))
    return e


# ------------------------------------------------------------------ validation


def test_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0, 1.0), (0, 1, 1.0)])


def test_rejects_duplicate_edge_either_orientation():
    with pytest.raises(ValueError):
        Graph(2, [(0, 1, 1.0), (1, 0, 2.0)])


def test_rejects_out_of_range_vertex():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2, 1.0)])


def test_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        Graph(2, [(0, 1, 0.0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1, -1.0)])


def test_rejects_disconnected():
    with pytest.raises(ValueError):
        Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])


# ------------------------------------------------------------------ arc layout


def test_arc_arrays_are_sorted_and_paired():
    g = Graph(3, [(1, 2, 0.7), (0, 2, 1.5), (0, 1, 1.0)])
    assert g.p == 6
    pairs = list(zip(g.arc_src.tolist(), g.arc_dst.tolist()))
    assert pairs == sorted(pairs)
    for a in range(g.p):
        r = g.arc_rev[a]
        assert g.arc_src[r] == g.arc_dst[a]
        assert g.arc_dst[r] == g.arc_src[a]
        assert g.arc_w[r] == g.arc_w[a]
        assert g.arc_rev[r] == a
    # arc weights follow the undirected edge they came from
    assert g.arc_w[arc(g, 1, 2)] == 0.7
    assert g.arc_w[arc(g, 2, 1)] == 0.7

    # any edge order and orientation gives the Python-sorted arc list
    rng = np.random.default_rng(13)
    for _ in range(10):
        base = random_connected_graph(rng, int(rng.integers(2, 15)))
        listed = [(j, i, w) if rng.random() < 0.5 else (i, j, w)
                  for i, j, w in base.edges]
        listed = [listed[k] for k in rng.permutation(len(listed))]
        g = Graph(base.n, listed)
        ref = sorted(a for i, j, w in base.edges for a in ((i, j, w), (j, i, w)))
        index = {(src, dst): e for e, (src, dst, _) in enumerate(ref)}
        assert g.arc_src.tolist() == [src for src, _, _ in ref]
        assert g.arc_dst.tolist() == [dst for _, dst, _ in ref]
        assert g.arc_w.tolist() == [w for _, _, w in ref]
        assert g.arc_rev.tolist() == [index[(dst, src)] for src, dst, _ in ref]


def test_arc_segments_cover_each_source():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 9)
    for k in range(g.n):
        lo = g.arc_seg_starts[k]
        hi = g.arc_seg_starts[k + 1] if k + 1 < g.n else g.p
        assert np.all(g.arc_src[lo:hi] == k)
        assert hi - lo == sum(k in (i, j) for i, j, _ in g.edges)


def test_neighbors_sorted():
    g = Graph(4, [(0, 3, 1.0), (0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0)])
    lo, hi = g.arc_seg_starts[0], g.arc_seg_starts[1]
    assert g.arc_dst[lo:hi].tolist() == [1, 2, 3]


# -------------------------------------------------------------- shortest paths


def test_shortest_paths_on_weighted_path():
    g = path_graph(5, w=2.0)
    np.testing.assert_allclose(shortest_paths(g, 0), [0, 2, 4, 6, 8])


def test_shortest_paths_match_floyd_warshall():
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(4, 13)))
        want = floyd_warshall(g)
        for s in range(g.n):
            np.testing.assert_allclose(shortest_paths(g, s), want[s], rtol=1e-12)


def test_geodesic_matrix_is_metric():
    rng = np.random.default_rng(23)
    g = random_connected_graph(rng, 10)
    d = geodesic_matrix(g)
    np.testing.assert_allclose(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d[~np.eye(g.n, dtype=bool)] > 0)
    # triangle inequality, all triples
    for k in range(g.n):
        assert np.all(d <= d[:, k : k + 1] + d[k : k + 1, :] + 1e-12)


def test_shortest_paths_rejects_bad_source():
    g = path_graph(3)
    with pytest.raises(ValueError):
        shortest_paths(g, 3)


# --------------------------------------------------------------- hop diameter


def test_hop_diameter_path_and_clique():
    assert hop_diameter(path_graph(6)) == 5
    clique = Graph(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
    assert hop_diameter(clique) == 1
    assert hop_diameter(Graph(2, [(0, 1, 3.0)])) == 1


def test_hop_diameter_matches_unweighted_metric():
    rng = np.random.default_rng(31)
    for _ in range(5):
        g = random_connected_graph(rng, 9)
        hops = Graph(g.n, [(i, j, 1.0) for i, j, _ in g.edges])
        want = int(round(floyd_warshall(hops).max()))
        assert hop_diameter(g) == want


def all_sources_hop_diameter(g):
    """Reference: the largest hop count of a BFS from every vertex."""
    return max(max(_bfs(g, s)[2]) for s in range(g.n))


def random_tree(rng, n):
    return Graph(n, [(int(rng.integers(0, k)), k, 1.0) for k in range(1, n)])


def cycle(rng, n):
    order = rng.permutation(n)
    return Graph(n, [(int(order[k]), int(order[(k + 1) % n]), 1.0)
                     for k in range(n)])


def path_plus_chords(rng, n):
    chords = set()
    while len(chords) < max(1, n // 10):
        a, b = sorted(int(x) for x in rng.integers(0, n, 2))
        if b - a > 1:
            chords.add((a, b))
    return Graph(n, [(k, k + 1, 1.0) for k in range(n - 1)]
                 + [(a, b, 1.0) for a, b in sorted(chords)])


def sparse_random(rng, n):
    return random_connected_graph(rng, n, edge_prob=float(
        rng.choice([0.05, 0.1, 0.2])))


@pytest.mark.parametrize("family, count", [
    (random_tree, 30), (cycle, 30), (path_plus_chords, 30),
    (sparse_random, 400)])
def test_hop_diameter_matches_all_sources_bfs(family, count):
    rng = np.random.default_rng(0x1F)
    for _ in range(count):
        g = family(rng, int(rng.integers(3, 120 if count <= 30 else 40)))
        assert hop_diameter(g) == all_sources_hop_diameter(g)


def test_hop_diameter_takes_few_bfs_runs_on_a_path(monkeypatch):
    # the BFS from the path's midpoint ends at its two ends, whose
    # eccentricity n - 1 settles the search
    runs = []

    def counted(g, source):
        runs.append(source)
        return _bfs(g, source)

    g = path_graph(2000)
    monkeypatch.setattr(graph_module, "_bfs", counted)
    assert hop_diameter(g) == 1999
    assert len(runs) <= 8, runs


# --------------------------------------------------------- spanning tree flow


def test_spanning_tree_flow_routes_the_difference():
    rng = np.random.default_rng(41)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(2, 12)))
        b1 = random_marginals(rng, g.n)
        b2 = random_marginals(rng, g.n)
        f = spanning_tree_flow(g, b1, b2)
        assert np.all(f.values >= 0)
        np.testing.assert_allclose(divergence(g, f), b1 - b2, atol=1e-12)


def test_spanning_tree_flow_zero_when_balanced_everywhere():
    g = path_graph(4)
    b = np.full(4, 0.25)
    assert spanning_tree_flow(g, b, b).mass() == 0.0


def test_spanning_tree_flow_two_node_unit():
    # divergence is in minus out, so the unit rides the arc into vertex 0
    g = Graph(2, [(0, 1, 1.0)])
    f = spanning_tree_flow(g, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert f.mass() == pytest.approx(1.0)
    assert f.values[arc(g, 1, 0)] == pytest.approx(1.0)


def test_spanning_tree_flow_uses_bfs_tree_from_vertex_0():
    # The tree sets FlowProblem's default reference and so every flow
    # output. Referee: scipy's BFS over sorted CSR rows, which visits
    # neighbours in ascending id order.
    rng = np.random.default_rng(43)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(3, 15)), edge_prob=0.5)
        b1 = random_marginals(rng, g.n)
        b2 = random_marginals(rng, g.n)
        i, j = np.array([e[:2] for e in g.edges]).T
        adj = sparse.csr_matrix((np.ones(g.p), (np.r_[i, j], np.r_[j, i])),
                                shape=(g.n, g.n))
        adj.sort_indices()
        order, parent = breadth_first_order(adj, 0, directed=True,
                                            return_predecessors=True)
        want = np.zeros(g.p)
        surplus = b1 - b2
        for v in order[:0:-1]:
            u, s = parent[v], surplus[v]
            want[arc(g, u, v) if s >= 0 else arc(g, v, u)] = abs(s)
            surplus[u] += s
        np.testing.assert_array_equal(spanning_tree_flow(g, b1, b2).values, want)


def test_spanning_tree_flow_rejects_imbalance():
    g = path_graph(3)
    with pytest.raises(ValueError):
        spanning_tree_flow(g, np.array([1.0, 0, 0]), np.array([0, 0, 0.5]))
