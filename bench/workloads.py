"""Seeded inputs for the three workloads and their referee values.

Every problem file is written before any timing starts; the CLI sees only
those files. Exact values come from scipy's HiGHS LP solver, never from the
package's own oracle, so a fault shared by the solver and the oracle cannot
hide.

Seeds:
  flow-desk-epsilon  the ten criterion-2 instances (family seed 0x2A); the
                     run seed draws each file's transport direction and its
                     edge order and orientation.
  flow-large-budget  the run seed draws the whole graph and both measures.
  ot-dense-500       two point clouds and histograms from family seed 0x0D7;
                     the run seed permutes rows and columns.
README.md gives the reasons and the measured spreads behind these choices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.sparse.csgraph import breadth_first_order

DESK_FAMILY_SEED = 0x2A
OT_FAMILY_SEED = 0x0D7

DESK_INSTANCES = 10
DESK_N = 20
DESK_EDGE_PROB = 0.3
DESK_EPS_SHARE = 0.05

LARGE_N = 80_000
LARGE_GAMMA = 0.05
LARGE_SWEEPS = 40

OT_POINTS = 500
OT_GAMMA = 1e-3


@dataclass
class Instance:
    """One CLI call of a workload, with what its answer is checked against."""

    label: str
    kind: str
    argv: list
    trace_csv: Path
    expect: dict = field(default_factory=dict)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _marginals(rng, n: int) -> np.ndarray:
    m = rng.random(n) + 0.05
    return m / m.sum()


def _random_connected_edges(rng, n: int):
    """Random spanning path plus Bernoulli extras, weights U[0.5, 2].

    Draws in the same order as the test suite's builder, so family seed
    0x2A reproduces the criterion-2 instances.
    """
    order = rng.permutation(n)
    edges = []
    seen = set()
    for a, b in zip(order, order[1:]):
        i, j = int(min(a, b)), int(max(a, b))
        edges.append((i, j, float(rng.uniform(0.5, 2.0))))
        seen.add((i, j))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in seen and rng.random() < DESK_EDGE_PROB:
                edges.append((i, j, float(rng.uniform(0.5, 2.0))))
    return edges


def _arc_lp(n: int, edges, mu1, mu2):
    """Arc-incidence LP data: one variable per orientation of every edge.

    Row k reads incoming minus outgoing flow at vertex k, the package's
    divergence convention, with right-hand side mu1 - mu2.
    """
    e = len(edges)
    i = np.array([a for a, _, _ in edges], dtype=np.intp)
    j = np.array([b for _, b, _ in edges], dtype=np.intp)
    w = np.array([c for _, _, c in edges], dtype=float)
    src = np.concatenate([i, j])
    dst = np.concatenate([j, i])
    cols = np.arange(2 * e)
    rows = np.concatenate([dst, src])
    vals = np.concatenate([np.ones(2 * e), -np.ones(2 * e)])
    a_eq = sparse.csr_matrix((vals, (rows, np.concatenate([cols, cols]))),
                             shape=(n, 2 * e))
    return np.concatenate([w, w]), a_eq, np.asarray(mu1) - np.asarray(mu2)


def highs_w1(n: int, edges, mu1, mu2) -> float:
    """Exact W1 on the graph by HiGHS."""
    cost, a_eq, rhs = _arc_lp(n, edges, mu1, mu2)
    res = linprog(cost, A_eq=a_eq, b_eq=rhs, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the W1 referee LP: {res.message}")
    return float(res.fun)


def highs_ot(cost: np.ndarray, b1: np.ndarray, b2: np.ndarray) -> float:
    """Exact transport cost between the histograms by HiGHS."""
    m1, m2 = cost.shape
    idx = np.arange(m1 * m2)
    ones = np.ones(m1 * m2)
    a_eq = sparse.vstack([
        sparse.csr_matrix((ones, (idx // m2, idx)), shape=(m1, m1 * m2)),
        sparse.csr_matrix((ones, (idx % m2, idx)), shape=(m2, m1 * m2)),
    ])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([b1, b2]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the OT referee LP: {res.message}")
    return float(res.fun)


# ------------------------------------------------------------ desk


def desk_instances(seed: int, workdir: Path) -> list[Instance]:
    base = np.random.default_rng(DESK_FAMILY_SEED)
    rng = np.random.default_rng(seed)
    out = []
    for t in range(DESK_INSTANCES):
        edges = _random_connected_edges(base, DESK_N)
        mu1 = _marginals(base, DESK_N)
        mu2 = _marginals(base, DESK_N)
        # The run seed reverses the transport direction and reorders and
        # reorients the edge list. W1, the spanning tree and so gamma stay
        # put, and with them the sweep count; see README.md for why the
        # seed does not draw fresh graphs here.
        if rng.random() < 0.5:
            mu1, mu2 = mu2, mu1
        listed = [[j, i, w] if rng.random() < 0.5 else [i, j, w]
                  for i, j, w in edges]
        listed = [listed[k] for k in rng.permutation(len(listed))]
        w1 = highs_w1(DESK_N, listed, mu1, mu2)
        eps = DESK_EPS_SHARE * w1
        path = workdir / f"desk{t}.json"
        _write_json(path, {"graph": {"n": DESK_N, "edges": listed},
                           "b1": mu1.tolist(), "b2": mu2.tolist()})
        csv = workdir / f"desk{t}.csv"
        out.append(Instance(
            f"desk{t}", "w1-epsilon",
            ["w1", str(path), "--epsilon", repr(eps), "--trace", str(csv)],
            csv, {"w1": w1, "eps": eps},
        ))
    return out


# ------------------------------------------------------------ large


def _bfs_tree_mass(n: int, edges, b: np.ndarray) -> float:
    """l1 mass of the BFS-tree flow that sets the solver's default reference.

    FlowProblem's default reference is alpha * 1 with alpha = tree mass /
    (2p), the tree grown from vertex 0 with neighbours in ascending order.
    Recomputed here with scipy so the weak-duality bound does not trust the
    package.
    """
    i = np.array([a for a, _, _ in edges], dtype=np.intp)
    j = np.array([c for _, c, _ in edges], dtype=np.intp)
    adj = sparse.csr_matrix(
        (np.ones(2 * len(edges)), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n))
    adj.sort_indices()
    order, parent = breadth_first_order(adj, 0, directed=True,
                                        return_predecessors=True)
    surplus = b.copy()
    mass = 0.0
    for v in order[:0:-1]:
        mass += abs(surplus[v])
        surplus[parent[v]] += surplus[v]
    return float(mass)


def _path_flow_bound(n, edges, path_w, mu1, mu2, gamma) -> float:
    """Smoothed lifted primal cost of the flow routed along the path 0..n-1.

    x = (f, f) with f on the path arcs is feasible for both blocks, so by
    weak duality its cost <C, x> + gamma * KL(x | z) bounds the smoothed dual
    from above at every iterate. Arcs off the path carry zero, which adds
    their reference mass to the KL term.
    """
    p = 2 * len(edges)
    alpha = _bfs_tree_mass(n, edges, mu1 - mu2) / p
    # net flow from vertex k to k + 1, on whichever orientation is positive
    f = np.abs(np.cumsum(mu2 - mu1)[:-1])
    cost = 2.0 * float(path_w @ f)
    f = f[f > 0]
    kl = 2.0 * (float(np.sum(f * np.log(f / alpha))) - float(f.sum())) + 2 * p * alpha
    return cost + gamma * kl


def large_instances(seed: int, workdir: Path) -> list[Instance]:
    rng = np.random.default_rng(seed)
    n = LARGE_N
    path_w = rng.uniform(0.5, 2.0, n - 1)
    chords = set()
    while len(chords) < n // 3:
        a, b = rng.integers(0, n, 2)
        i, j = int(min(a, b)), int(max(a, b))
        if j - i > 1:
            chords.add((i, j))
    chords = sorted(chords)
    chord_w = rng.uniform(0.5, 2.0, len(chords))
    edges = [[k, k + 1, float(path_w[k])] for k in range(n - 1)]
    edges += [[i, j, float(w)] for (i, j), w in zip(chords, chord_w)]
    mu1 = _marginals(rng, n)
    mu2 = _marginals(rng, n)
    bound = _path_flow_bound(n, edges, path_w, mu1, mu2, LARGE_GAMMA)
    path = workdir / "large.json"
    _write_json(path, {"graph": {"n": n, "edges": edges},
                       "b1": mu1.tolist(), "b2": mu2.tolist()})
    csv = workdir / "large.csv"
    return [Instance(
        "large", "w1-budget",
        ["w1", str(path), "--gamma", repr(LARGE_GAMMA),
         "--max-sweeps", str(LARGE_SWEEPS), "--trace", str(csv)],
        csv, {"sweeps": LARGE_SWEEPS, "primal_bound": bound},
    )]


# ------------------------------------------------------------ dense OT


def ot_instances(seed: int, workdir: Path) -> list[Instance]:
    base = np.random.default_rng(OT_FAMILY_SEED)
    m = OT_POINTS
    xs = base.random((m, 2))
    ys = base.random((m, 2))
    cost = ((xs[:, None, :] - ys[None, :, :]) ** 2).sum(axis=-1)
    cost /= cost.max()
    b1 = _marginals(base, m)
    b2 = _marginals(base, m)
    rng = np.random.default_rng(seed)
    rows = rng.permutation(m)
    cols = rng.permutation(m)
    cost, b1, b2 = cost[rows][:, cols], b1[rows], b2[cols]
    ot0 = highs_ot(cost, b1, b2)
    # the CLI schedules gamma = eps / (2 log d) for a plan of d entries
    eps = 2.0 * math.log(m * m) * OT_GAMMA
    path = workdir / "ot.json"
    _write_json(path, {"cost": cost.tolist(), "b1": b1.tolist(),
                       "b2": b2.tolist()})
    csv = workdir / "ot.csv"
    return [Instance(
        "ot", "ot-epsilon",
        ["ot", str(path), "--epsilon", repr(eps), "--trace", str(csv)],
        csv, {"ot0": ot0, "eps": eps, "d": m * m,
              "cost_range": float(cost.max() - cost.min())},
    )]


WORKLOADS = {
    "flow-desk-epsilon": desk_instances,
    "flow-large-budget": large_instances,
    "ot-dense-500": ot_instances,
}
