"""Exact min-cost-flow references used to check the smoothed solvers.

Successive shortest paths with Johnson potentials, written directly so the
optimality certificate (node potentials with nonnegative residual reduced
costs) is available to the tests instead of a black-box objective value.
Sized for desk-scale instances; nothing here is performance-tuned.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .graph import Graph
from .numerics import MASS_TOL, measure_pair

__all__ = [
    "InfeasibleFlowError",
    "MinCostFlowInstance",
    "MinCostFlowResult",
    "min_cost_flow",
    "verify_certificate",
    "exact_w1",
    "exact_ot",
]


class InfeasibleFlowError(RuntimeError):
    """No feasible routing of the requested supplies exists."""


class MinCostFlowInstance(NamedTuple):
    """Arc list form: arcs are (src, dst, cost, capacity), capacity None = unbounded."""

    n_nodes: int
    arcs: Sequence[tuple[int, int, float, Optional[float]]]
    supplies: Sequence[float]


class MinCostFlowResult(NamedTuple):
    flows: np.ndarray
    value: float
    potentials: np.ndarray


def _validate(inst: MinCostFlowInstance) -> np.ndarray:
    supplies = np.asarray(inst.supplies, dtype=float)
    if supplies.shape != (inst.n_nodes,):
        raise ValueError("supplies must have one entry per node")
    if not np.all(np.isfinite(supplies)):
        raise ValueError("supplies must be finite")
    if not abs(supplies.sum()) <= MASS_TOL:
        raise ValueError(f"supplies must sum to zero, got {supplies.sum():.3e}")
    for a, (u, v, c, cap) in enumerate(inst.arcs):
        if not (0 <= u < inst.n_nodes and 0 <= v < inst.n_nodes):
            raise ValueError(f"arc {a} endpoint out of range")
        if not 0 <= c < math.inf:
            raise ValueError(f"arc {a} needs a finite cost >= 0, got {c}")
        if cap is not None and not cap >= 0:
            raise ValueError(f"arc {a} needs a capacity >= 0, got {cap}")
    return supplies


def min_cost_flow(inst: MinCostFlowInstance, eps: float = 1e-12) -> MinCostFlowResult:
    """Route the supplies at minimum cost.

    Residual arcs 2a (forward) and 2a+1 (backward) per input arc a; Dijkstra
    on reduced costs from one positive-excess node to the nearest
    negative-excess node, then push the bottleneck. Costs are nonnegative,
    so zero initial potentials are valid.
    """
    supplies = _validate(inst)
    n = inst.n_nodes
    n_arcs = len(inst.arcs)

    head = np.empty(2 * n_arcs, dtype=int)
    cost = np.empty(2 * n_arcs, dtype=float)
    residual = np.empty(2 * n_arcs, dtype=float)
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, (u, v, c, cap) in enumerate(inst.arcs):
        head[2 * a] = v
        cost[2 * a] = c
        residual[2 * a] = math.inf if cap is None else float(cap)
        adj[u].append(2 * a)
        head[2 * a + 1] = u
        cost[2 * a + 1] = -c
        residual[2 * a + 1] = 0.0
        adj[v].append(2 * a + 1)

    excess = supplies.copy()
    potentials = np.zeros(n)

    while True:
        sources = np.nonzero(excess > eps)[0]
        if sources.size == 0:
            break
        s = int(sources[0])

        dist = np.full(n, math.inf)
        dist[s] = 0.0
        parent_arc = np.full(n, -1, dtype=int)
        done = np.zeros(n, dtype=bool)
        heap = [(0.0, s)]
        target = -1
        while heap:
            d, node = heapq.heappop(heap)
            if done[node]:
                continue
            done[node] = True
            if excess[node] < -eps:
                target = node
                break
            for arc in adj[node]:
                if residual[arc] <= eps:
                    continue
                nxt = int(head[arc])
                # Rounding in the potential updates can leave a residual arc
                # with reduced cost around -1e-15, which would let a settled
                # node be "improved" and its parent pointer overwritten,
                # turning the parent chain into a cycle. Settled is settled.
                if done[nxt]:
                    continue
                nd = d + cost[arc] + potentials[node] - potentials[nxt]
                if nd < dist[nxt] - 1e-15:
                    dist[nxt] = nd
                    parent_arc[nxt] = arc
                    heapq.heappush(heap, (nd, nxt))
        if target < 0:
            raise InfeasibleFlowError(
                f"no remaining path from node {s} to any deficit node"
            )

        potentials += np.minimum(dist, dist[target])

        push = min(excess[s], -excess[target])
        node = target
        while node != s:
            arc = int(parent_arc[node])
            push = min(push, residual[arc])
            node = int(head[arc ^ 1])
        node = target
        while node != s:
            arc = int(parent_arc[node])
            residual[arc] -= push
            residual[arc ^ 1] += push
            node = int(head[arc ^ 1])
        excess[s] -= push
        excess[target] += push

    flows = residual[1::2].copy()
    value = float(cost[0::2] @ flows)
    return MinCostFlowResult(flows, value, potentials)


def verify_certificate(
    inst: MinCostFlowInstance, result: MinCostFlowResult, tol: float = 1e-9
) -> list[str]:
    """Complementary slackness audit; returns human-readable violations."""
    supplies = np.asarray(inst.supplies, dtype=float)
    problems = []
    div = np.zeros(inst.n_nodes)
    for a, (u, v, c, cap) in enumerate(inst.arcs):
        f = result.flows[a]
        if f < -tol:
            problems.append(f"arc {a}: negative flow {f:.3e}")
        if cap is not None and f > cap + tol:
            problems.append(f"arc {a}: flow {f:.6g} exceeds capacity {cap:.6g}")
        div[u] -= f
        div[v] += f
        reduced = c + result.potentials[u] - result.potentials[v]
        if (cap is None or f < cap - tol) and reduced < -tol:
            problems.append(f"arc {a}: unsaturated with reduced cost {reduced:.3e}")
        if f > tol and reduced > tol:
            problems.append(f"arc {a}: carries flow but reduced cost {reduced:.3e} > 0")
    gap = div + supplies
    worst = int(np.argmax(np.abs(gap)))
    if abs(gap[worst]) > tol:
        problems.append(f"node {worst}: conservation off by {gap[worst]:.3e}")
    return problems


def exact_w1(graph: Graph, b1, b2) -> float:
    """Wasserstein-1 distance between vertex measures, by transshipment.

    Supplies b1 - b2, one uncapacitated arc per direction per edge at the
    edge weight. Each augmentation exhausts a source, a sink, or a backward
    residual arc, so the count stays near n in practice (it is not bounded
    by n: a backward bottleneck leaves both endpoints unexhausted). The
    measures are checked by numerics.measure_pair, as the solvers do.
    """
    b1, b2 = measure_pair(b1, b2, graph.n, graph.n)
    arcs = [
        (int(graph.arc_src[a]), int(graph.arc_dst[a]), float(graph.arc_w[a]), None)
        for a in range(graph.p)
    ]
    inst = MinCostFlowInstance(graph.n, arcs, b1 - b2)
    return min_cost_flow(inst).value


def exact_ot(cost_matrix, b1, b2) -> tuple[float, np.ndarray]:
    """Optimal transport between histograms over a complete bipartite graph.

    Returns the optimal value and a vertex-optimal plan with marginals
    (b1, b2). The marginals are checked by numerics.measure_pair, and each
    cost entry must be finite and >= 0.
    """
    cost_matrix = np.asarray(cost_matrix, dtype=float)
    m1, m2 = cost_matrix.shape
    b1, b2 = measure_pair(b1, b2, m1, m2)
    arcs = [
        (i, m1 + j, float(cost_matrix[i, j]), None)
        for i in range(m1)
        for j in range(m2)
    ]
    supplies = np.concatenate([b1, -b2])
    result = min_cost_flow(MinCostFlowInstance(m1 + m2, arcs, supplies))
    plan = result.flows.reshape(m1, m2)
    return result.value, plan
