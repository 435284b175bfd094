"""Shared builders for randomized test instances."""

import numpy as np

from sinkflow.flowsinkhorn import FlowProblem
from sinkflow.graph import Graph
from sinkflow.sinkhorn import OTProblem, _neg_lse_rows

ACCEPTANCE_RESULTS = []


def random_connected_graph(rng, n, edge_prob=0.3, w_lo=0.5, w_hi=2.0):
    """Random spanning tree plus Bernoulli extras, weights U[w_lo, w_hi]."""
    order = rng.permutation(n)
    edges = []
    seen = set()
    for a, b in zip(order, order[1:]):
        i, j = int(min(a, b)), int(max(a, b))
        edges.append((i, j, float(rng.uniform(w_lo, w_hi))))
        seen.add((i, j))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in seen and rng.random() < edge_prob:
                edges.append((i, j, float(rng.uniform(w_lo, w_hi))))
    return Graph(n, edges)


def random_marginals(rng, n, floor=0.05):
    m = rng.random(n) + floor
    return m / m.sum()


def random_flow_problem(rng, n, gamma, edge_prob=0.3):
    g = random_connected_graph(rng, n, edge_prob=edge_prob)
    return FlowProblem(g, random_marginals(rng, n), random_marginals(rng, n), gamma)


def random_ot_problem(rng, m1, m2, gamma, cost_scale=1.0):
    cost = cost_scale * rng.random((m1, m2))
    return OTProblem(cost, random_marginals(rng, m1), random_marginals(rng, m2), gamma)


def floyd_warshall(g):
    """All-pairs shortest-path lengths of a Graph, as a dense matrix."""
    d = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j, w in g.edges:
        d[i, j] = d[j, i] = min(d[i, j], w)
    for k in range(g.n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def lse_kernels(gamma, k):
    """The solvers' two log-sum-exp kernels, each as a function of one
    length-k vector s returning gamma * log(sum(exp(s / gamma))).

    dense: one row of sinkhorn._neg_lse_rows, negated (negation is exact);
    the OT block updates run it. segmented: FlowProblem._seg_lse on the k
    arcs leaving the centre of a star, which the flow block update runs.
    """
    star = FlowProblem(Graph(k + 1, [(0, j, 1.0) for j in range(1, k + 1)]),
                       np.ones(k + 1), np.ones(k + 1), gamma)
    assert star.graph.arc_seg_starts[1] == k  # arcs 0..k-1 leave vertex 0

    def dense(s):
        scores = np.asarray(s, dtype=float).reshape(1, k)
        return -float(_neg_lse_rows(gamma, scores)[0])

    def segmented(s):
        scores = np.zeros(star.graph.p)
        scores[:k] = s
        return float(star._seg_lse(scores)[0])

    return dense, segmented


def count_block_updates(problem):
    """Count the exact block updates an instance runs, by name."""
    counts = {"block_update_1": 0, "block_update_2": 0}
    for name in counts:
        method = getattr(problem, name)

        def counted(arg, name=name, method=method):
            counts[name] += 1
            return method(arg)

        setattr(problem, name, counted)
    return counts


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, ok, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        terminalreporter.write_line(f"criterion {num} ({name}): {status}{suffix}")
