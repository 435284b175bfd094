"""Shared builders for randomized test instances."""

import numpy as np

from sinkflow.flowsinkhorn import FlowProblem
from sinkflow.graph import Graph
from sinkflow.sinkhorn import OTProblem

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
