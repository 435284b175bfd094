import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order

import sinkflow.graph as graph_module
from conftest import (floyd_warshall, graph_edges, large_budget_edges,
                      random_connected_graph, random_marginals, traced_peak)
from sinkflow.flowsinkhorn import divergence
from sinkflow.graph import Graph, _bfs, hop_diameter, spanning_tree_flow


def path_graph(n, w=1.0):
    return Graph(n, [(i, i + 1, w) for i in range(n - 1)])


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


@pytest.mark.parametrize("n, edges, message", [
    (3, [(0, 1.5, 1.0), (1, 2, 1.0)], "edge (0,1.5) has a non-integral endpoint"),
    (3.7, [(0, 1, 1.0), (1, 2, 1.0)], "vertex count must be an integer >= 1"),
    (0, [], "vertex count must be an integer >= 1"),
    (float("nan"), [], "vertex count must be an integer >= 1"),
    (True, [], "vertex count must be an integer >= 1, got True"),
    (3, [(0, 1, 1.0), (1, 2)], "(i, j, w) triples"),
    (3, [(0, 1, 1.0, 2.0), (1, 2, 1.0, 2.0)], "(i, j, w) triples, got shape (2, 4)"),
    (2, [0, 1, 1.0], "(i, j, w) triples, got shape (3,)"),
    (1, [[]], "(i, j, w) triples, got shape (1, 0)"),
    (2, [(0, 1, float("nan"))], "needs finite positive weight, got nan"),
    (2, [(0, 1, float("inf"))], "needs finite positive weight, got inf"),
    (2, [(-1, 1, 1.0)], "edge (-1,1) out of range for n=2"),
    (10 ** 12, [(0, 1, 1.0)], "graph is not connected"),
    (10 ** 400, [(0, 1, 1.0)], "is too large"),
], ids=["fractional-endpoint", "fractional-n", "zero-n", "nan-n", "bool-n",
        "ragged-row", "four-number-rows", "flat-row", "empty-row", "nan-weight",
        "inf-weight", "negative-endpoint", "fewer-than-n-1-edges",
        "n-beyond-float"])
def test_rejects_malformed_input(n, edges, message):
    with pytest.raises(ValueError) as err:
        Graph(n, edges)
    assert message in str(err.value)


@pytest.mark.parametrize("n, edges, message", [
    (3, [(0, 1, 1.0), (1, 2, 0.0), (2, 2, 1.0)],
     "edge (1,2) needs finite positive weight, got 0.0"),
    (3, [(0, 1, 1.0), (1, 0, 1.0), (1, 5, 1.0)], "duplicate edge (0,1)"),
    (3, [(0, 1, 1.0), (1, 5, 1.0), (1, 0, 1.0)], "edge (1,5) out of range"),
    (3, [(2, 1, 1.0), (1, 0, 1.0), (1, 2, -1.0)],
     "edge (1,2) needs finite positive weight, got -1.0"),
    (3, [(0, 1, 1.0), (3, 3, -1.0)], "self-loop at vertex 3"),
    (3, [(0, 1, 1.0), (0, 4, -1.0)], "edge (0,4) out of range for n=3"),
    (3, [(0, 1, 1.0), (0, 2.5, -1.0)], "edge (0,2.5) has a non-integral"),
], ids=["weight-before-loop", "repeat-before-range", "range-before-repeat",
        "weight-on-a-repeat", "loop-first", "range-before-weight",
        "integral-before-weight"])
def test_error_names_the_first_bad_edge(n, edges, message):
    # as a loop over the edges in input order reports them: the first edge
    # failing any check, and for an edge failing several, self-loop, then
    # endpoints, then weight, then repeat
    with pytest.raises(ValueError) as err:
        Graph(n, edges)
    assert message in str(err.value)


# ------------------------------------------------------------------ arc layout


def reference_arcs(n, edges):
    """The five arc arrays of a Graph, by a Python sort over both
    orientations of each edge and a count of the arcs leaving each vertex."""
    arcs = sorted(a for i, j, w in edges
                  for a in ((int(i), int(j), float(w)), (int(j), int(i), float(w))))
    index = {(src, dst): e for e, (src, dst, _) in enumerate(arcs)}
    starts = [sum(src < v for src, _, _ in arcs) for v in range(n)]
    return {
        "arc_src": [src for src, _, _ in arcs],
        "arc_dst": [dst for _, dst, _ in arcs],
        "arc_w": [w for _, _, w in arcs],
        "arc_rev": [index[(dst, src)] for src, dst, _ in arcs],
        "arc_seg_starts": starts,
    }


def shuffled(rng, edges):
    """The edges in random order, each in a random orientation."""
    listed = [(j, i, w) if rng.random() < 0.5 else (i, j, w)
              for i, j, w in edges]
    return [listed[k] for k in rng.permutation(len(listed))]


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

    # any edge order and orientation gives the arrays of a sequential
    # reference, on random graphs and on the flow-large-budget family
    rng = np.random.default_rng(13)
    graphs = [random_connected_graph(rng, int(rng.integers(2, 15)))
              for _ in range(10)]
    graphs += [Graph(n, large_budget_edges(rng, n)) for n in (3, 20, 150)]
    for base in graphs:
        listed = shuffled(rng, graph_edges(base))
        g = Graph(base.n, listed)
        for name, want in reference_arcs(base.n, listed).items():
            got = getattr(g, name)
            assert np.array_equal(got, want), name
            assert got.dtype == (float if name == "arc_w" else np.intp), name


def test_arc_segments_cover_each_source():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 9)
    for k in range(g.n):
        lo = g.arc_seg_starts[k]
        hi = g.arc_seg_starts[k + 1] if k + 1 < g.n else g.p
        assert np.all(g.arc_src[lo:hi] == k)
        assert hi - lo == sum(k in (i, j) for i, j, _ in graph_edges(g))


def test_array_and_tuple_list_give_the_same_graph():
    rng = np.random.default_rng(19)
    edges = shuffled(rng, large_budget_edges(rng, 60))
    from_list = Graph(60, edges)
    from_array = Graph(np.int64(60), np.array(edges))
    for name in ("arc_src", "arc_dst", "arc_w", "arc_rev", "arc_seg_starts",
                 "bfs_order", "bfs_tree_arc", "bfs_level_starts"):
        a, b = getattr(from_list, name), getattr(from_array, name)
        assert np.array_equal(a, b) and a.dtype == b.dtype, name
    assert (from_list.n, from_list.p) == (from_array.n, from_array.p) == (60, 2 * (59 + 20))


def test_graph_keeps_the_bfs_from_vertex_0():
    rng = np.random.default_rng(29)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(2, 30)), edge_prob=0.2)
        order, tree_arc, hops = _bfs(g, 0)
        assert g.bfs_order.dtype == g.bfs_tree_arc.dtype == np.intp
        assert g.bfs_order.tolist() == list(order)
        assert g.bfs_tree_arc.tolist() == list(tree_arc)
        # each hop level starts where the visit order first reaches it
        depth = [hops[v] for v in order]
        assert g.bfs_level_starts.tolist() == [
            k for k in range(g.n) if k == 0 or depth[k] != depth[k - 1]]


def list_bfs(n, edges, source):
    """Reference: a plain BFS over Python adjacency lists, neighbours in
    ascending id. Returns the visit order, each vertex's BFS parent (-1 at
    the source) and its hop count."""
    adjacent = [[] for _ in range(n)]
    for i, j, _ in edges:
        adjacent[i].append(j)
        adjacent[j].append(i)
    parent, hops, order = [-1] * n, [-1] * n, [source]
    hops[source] = 0
    for v in order:
        for w in sorted(adjacent[v]):
            if hops[w] < 0:
                hops[w], parent[w] = hops[v] + 1, v
                order.append(w)
    return order, parent, hops


@pytest.mark.parametrize("n, edges", [
    (2000, [(k, k + 1, 1.0) for k in range(1999)]),
    (300, [(0, k, 1.0) for k in range(1, 300)]),
    (30, [(i, j, 1.0) for i in range(30) for j in range(i + 1, 30)]),
    (20_000, large_budget_edges(np.random.default_rng(0x2B), 20_000)),
], ids=["path", "star", "K30", "large"])
def test_bfs_matches_a_list_based_bfs(n, edges):
    g = Graph(n, edges)
    for source in (0, n - 1):
        order, parent, hops = list_bfs(n, edges, source)
        got_order, tree_arc, got_hops = _bfs(g, source)
        assert list(got_order) == order
        assert list(got_hops) == hops
        assert tree_arc[source] == -1
        reached = np.array(order[1:])
        arcs = np.asarray(tree_arc)[reached]
        assert g.arc_dst[arcs].tolist() == reached.tolist()
        assert g.arc_src[arcs].tolist() == [parent[v] for v in order[1:]]
    order, _, hops = list_bfs(n, edges, 0)
    assert g.bfs_order.tolist() == order
    assert g.bfs_tree_arc.tolist() == list(_bfs(g, 0)[1])
    depth = [hops[v] for v in order]
    assert g.bfs_level_starts.tolist() == [
        k for k in range(n) if k == 0 or depth[k] != depth[k - 1]]


def test_graph_peak_memory_in_p_vectors():
    """Graph(n, edges) on a 20,000-vertex path-plus-chords graph peaks
    10.0 p-vectors above its (m, 3) input, in sorting the arcs. A BFS that
    walked tolist() copies of the arc arrays, with list outputs, held about
    3.8 p-vectors more, at 13.85."""
    n = 20_000
    edges = np.array(large_budget_edges(np.random.default_rng(1), n))
    g, peak = traced_peak(lambda: Graph(n, edges))
    assert peak / (8.0 * g.p) <= 10.1


def test_neighbors_sorted():
    g = Graph(4, [(0, 3, 1.0), (0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0)])
    lo, hi = g.arc_seg_starts[0], g.arc_seg_starts[1]
    assert g.arc_dst[lo:hi].tolist() == [1, 2, 3]


# ------------------------------------------ shortest paths (test referee)
# conftest.floyd_warshall gives the geodesic costs that the oracle tests
# and acceptance criterion 1 compare exact_w1 against.


def test_shortest_paths_on_weighted_path():
    g = path_graph(5, w=2.0)
    np.testing.assert_allclose(floyd_warshall(g)[0], [0, 2, 4, 6, 8])


def test_geodesic_matrix_is_metric():
    rng = np.random.default_rng(23)
    g = random_connected_graph(rng, 10)
    d = floyd_warshall(g)
    np.testing.assert_allclose(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d[~np.eye(g.n, dtype=bool)] > 0)
    # triangle inequality, all triples
    for k in range(g.n):
        assert np.all(d <= d[:, k : k + 1] + d[k : k + 1, :] + 1e-12)


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
        hops = Graph(g.n, [(i, j, 1.0) for i, j, _ in graph_edges(g)])
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
        assert np.all(f >= 0)
        np.testing.assert_allclose(divergence(g, f), b1 - b2, atol=1e-12)


def test_spanning_tree_flow_zero_when_balanced_everywhere():
    g = path_graph(4)
    b = np.full(4, 0.25)
    assert spanning_tree_flow(g, b, b).sum() == 0.0


def test_spanning_tree_flow_two_node_unit():
    # divergence is in minus out, so the unit rides the arc into vertex 0
    g = Graph(2, [(0, 1, 1.0)])
    f = spanning_tree_flow(g, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert f.sum() == pytest.approx(1.0)
    assert f[arc(g, 1, 0)] == pytest.approx(1.0)


def test_spanning_tree_flow_uses_bfs_tree_from_vertex_0():
    # The tree sets FlowProblem's default reference and so every flow
    # output. Referee: scipy's BFS over sorted CSR rows, which visits
    # neighbours in ascending id order, and a loop that passes each
    # vertex's subtree surplus to its parent in reversed visit order.
    rng = np.random.default_rng(43)
    graphs = [random_connected_graph(rng, int(rng.integers(3, 15)), edge_prob=0.5)
              for _ in range(10)]
    graphs += [Graph(n, large_budget_edges(rng, n)) for n in (5, 40, 300)]
    for g in graphs:
        b1 = random_marginals(rng, g.n)
        b2 = random_marginals(rng, g.n)
        i, j, _ = np.array(graph_edges(g)).T
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
        np.testing.assert_array_equal(spanning_tree_flow(g, b1, b2), want)


def test_spanning_tree_flow_rejects_imbalance():
    g = path_graph(3)
    with pytest.raises(ValueError):
        spanning_tree_flow(g, np.array([1.0, 0, 0]), np.array([0, 0, 0.5]))
