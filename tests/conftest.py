"""Shared builders for randomized test instances."""

import gc
import tracemalloc

import numpy as np

from sinkflow.blocklp import DualState
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


def large_budget_edges(rng, n):
    """A weighted path with n // 3 random chords, as flow-large-budget has,
    as an (i, j, w) list."""
    edges = [(k, k + 1, float(w))
             for k, w in enumerate(rng.uniform(0.5, 2.0, n - 1))]
    chords = set()
    while len(chords) < n // 3:
        i, j = sorted(int(v) for v in rng.integers(0, n, 2))
        if j - i > 1:
            chords.add((i, j))
    weights = rng.uniform(0.5, 2.0, len(chords))
    edges += [(i, j, float(w)) for (i, j), w in zip(sorted(chords), weights)]
    return edges


def random_marginals(rng, n, floor=0.05):
    m = rng.random(n) + floor
    return m / m.sum()


def criterion_2_graph(trial=0):
    """One of the ten criterion-2 instances, the first by default: graph
    and marginals."""
    rng = np.random.default_rng(0x2A)
    for _ in range(trial + 1):
        g = random_connected_graph(rng, 20)
        mu1, mu2 = random_marginals(rng, 20), random_marginals(rng, 20)
    return g, mu1, mu2


def random_flow_problem(rng, n, gamma, edge_prob=0.3):
    g = random_connected_graph(rng, n, edge_prob=edge_prob)
    return FlowProblem(g, random_marginals(rng, n), random_marginals(rng, n), gamma)


def random_ot_problem(rng, m1, m2, gamma, cost_scale=1.0):
    cost = cost_scale * rng.random((m1, m2))
    return OTProblem(cost, random_marginals(rng, m1), random_marginals(rng, m2), gamma)


def graph_edges(g):
    """Each undirected edge of a Graph once, as (i, j, w) with i < j in
    (i, j) order: the arcs with arc_src < arc_dst."""
    fwd = g.arc_src < g.arc_dst
    return list(zip(g.arc_src[fwd].tolist(), g.arc_dst[fwd].tolist(),
                    g.arc_w[fwd].tolist()))


def floyd_warshall(g):
    """All-pairs shortest-path lengths of a Graph, as a dense matrix."""
    d = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(d, 0.0)
    fwd = g.arc_src < g.arc_dst
    i, j = g.arc_src[fwd], g.arc_dst[fwd]
    d[i, j] = d[j, i] = g.arc_w[fwd]
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


def sweep_stacks(sweep):
    """The seven columns a sweep's deferred state evaluates to on its own:
    the dual stacks U1 (1, m1) and U2 (1, m2), then res2, mass, half_mass,
    foc1 and foc2, one value each."""
    _, (rows, state) = sweep
    (stacks,) = rows([state])
    return stacks


def full_state(sweep):
    """The DualState a sweep reaches and its trace row (res1, res2, mass)
    at that state, from the residual it yields and its deferred state."""
    u1, u2, _, mass, _, _, foc2 = sweep_stacks(sweep)
    return DualState(u1[0], u2[0]), (sweep[0], float(foc2[0]), float(mass[0]))


def half_row(sweep):
    """A sweep's trace row at its half state, (foc1, res2, half_mass)."""
    _, _, res2, _, half_mass, foc1, _ = sweep_stacks(sweep)
    return float(foc1[0]), float(res2[0]), float(half_mass[0])


def traced_peak(fn):
    """(fn(), the tracemalloc peak while fn ran above the traced memory at
    its start, in bytes), after a gc.collect; tracing stops even if fn
    raises."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        value = fn()
        return value, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, ok, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        terminalreporter.write_line(f"criterion {num} ({name}): {status}{suffix}")
