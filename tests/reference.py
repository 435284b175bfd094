"""References the tests hold the package to, outside the package because
no run path calls them.

- The matrix path of flow-Sinkhorn, the most readable form of its sweep:
  explicit flow pairs and their KL projections project_C1 and project_C2,
  whose sweeps matrix_sweeps yields for blocklp.solve, and
  vertex_dual_from_flow, which recovers the vertex dual of a positive flow.
  Its half-state row comes from the projected pair (f, g). The flow engine
  produces the same iterates up to roundoff.
- phi_root, the stable quadratic root project_C1 takes per vertex.
- plan_schedule, the a-priori (gamma, sweep count) pair of the schedule.
- operator_norm_1to1, the coordinate probe that each instance's
  op_norm_1to1 is checked against.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Iterator

import numpy as np

from sinkflow.blocklp import (
    DualState,
    NumericOverflowError,
    Sweep,
    _formed_stacks,
    _row_scalars,
    _state_row,
    schedule_gamma,
)
from sinkflow.flowsinkhorn import FlowProblem, _full_flow, _vertex_sums


def phi_root(t, u):
    """Nonnegative root s of the quadratic s**2 + t*s - u = 0.

    For t >= 0 the textbook root (sqrt(t**2 + 4u) - t) / 2 cancels
    catastrophically when t dominates u, so the conjugate form
    2u / (sqrt(t**2 + 4u) + t) is used there; for t < 0 the direct form
    adds two positive terms and is already stable.

    Accepts scalars or arrays (broadcast together); u must be >= 0.
    """
    t_arr, u_arr = np.broadcast_arrays(
        np.asarray(t, dtype=float), np.asarray(u, dtype=float)
    )
    if np.any(u_arr < 0.0):
        raise ValueError("u must be nonnegative")
    disc = np.sqrt(t_arr * t_arr + 4.0 * u_arr)
    denom = disc + t_arr
    conj = np.divide(
        2.0 * u_arr, denom, out=np.zeros_like(denom), where=denom > 0.0
    )
    direct = 0.5 * (disc - t_arr)
    out = np.where(t_arr >= 0.0, conj, direct)
    if out.ndim == 0:
        return float(out)
    return out


def project_C1(problem: FlowProblem, h: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """KL projection of the pair (h, h) onto the marginal-coupling block.

    Solves one quadratic per vertex: s = phi_root(t, u) with
    t = (mu1 - mu2) / (h 1) and u = (h^T 1) / (h 1), then rescales
    f = diag(s) h and g = h diag(s)^{-1}. The pair satisfies
    -f 1 + g^T 1 = mu1 - mu2 up to roundoff.
    """
    g = problem.graph
    row = _vertex_sums(g.n, g.arc_src, h)
    col = _vertex_sums(g.n, g.arc_dst, h)
    if np.any(row <= 0.0) or not np.all(np.isfinite(row)):
        k = int(np.argmin(row))
        raise NumericOverflowError(
            f"degenerate vertex {k}: its outgoing arc mass is {row[k]!r}"
        )
    s = phi_root((problem.mu1 - problem.mu2) / row, col / row)
    f = s[g.arc_src] * h
    g_vals = h / s[g.arc_dst]
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g_vals))):
        raise NumericOverflowError("marginal projection left the float range")
    return f, g_vals


def project_C2(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """KL projection of (f, g) onto f = g: the entrywise geometric mean."""
    return np.sqrt(f * g)


def matrix_sweeps(problem: FlowProblem) -> Iterator[Sweep]:
    """Matrix-path sweeps for solve() from z^C = _full_flow at u = 0.

    Each sweep projects onto block 1, then onto block 2; the half state is
    the pair (f, g) after project_C1, before the geometric mean.
    """
    f = _full_flow(problem, problem.initial_state().u1)
    rows = partial(_formed_stacks, partial(_pair_row, problem))
    while True:
        f1, g1 = project_C1(problem, f)
        f = project_C2(f1, g1)
        v = vertex_dual_from_flow(problem, f)
        u2 = problem.block_update_2(v)
        res1, res2, mass = _state_row(problem, DualState(v, u2))
        yield res1, (rows, (v, u2, res2, mass, (f1, g1)))


def _pair_row(problem: FlowProblem, pair: tuple):
    """The trace row at x = (f, g) for a pair, without stacking x."""
    f, g = pair
    gr = problem.graph
    a1x = (_vertex_sums(gr.n, gr.arc_src, f)
           - _vertex_sums(gr.n, gr.arc_dst, g))
    return _row_scalars(problem, (a1x, f - g, float(f.sum()) + float(g.sum())))


def vertex_dual_from_flow(problem: FlowProblem, f: np.ndarray) -> np.ndarray:
    """Recover the vertex dual of a positive matrix-path iterate.

    Integrates the per-arc log ratios log f - log z^C along the Graph's
    BFS tree from v_0 = 0, in visit order, so each tree arc's source is set
    before its head. The dual objective is invariant under the constant
    shift this pins down.
    """
    g = problem.graph
    if np.any(f <= 0):
        raise ValueError("dual recovery needs a strictly positive flow")
    # v_src - v_dst = 2 gamma log f + 2 w_eff on every arc
    diff = 2.0 * problem.gamma * np.log(f) + 2.0 * problem.w_eff
    order = g.bfs_order[1:]
    arcs = g.bfs_tree_arc[order]
    v = [0.0] * g.n
    for x, a, d in zip(order.tolist(), g.arc_src[arcs].tolist(),
                       diff[arcs].tolist()):
        v[x] = v[a] - d
    return np.array(v)


def plan_schedule(eps: float, X0: float, X: float, U: float,
                  A_norm: float, d: int) -> tuple[float, int]:
    """Accuracy-driven (gamma, sweep count) pair.

    gamma = eps / (2 X0 log d) and
    k = ceil(64 X U^2 A_norm^2 max(X0, X) log d / eps^2),
    which together bring the unregularized dual optimum within eps.
    """
    for name, val in (("eps", eps), ("X0", X0), ("X", X), ("U", U),
                      ("A_norm", A_norm)):
        if val <= 0:
            raise ValueError(f"{name} must be positive, got {val}")
    gamma = schedule_gamma(eps, X0, d)
    k = math.ceil(64.0 * X * U * U * A_norm * A_norm * max(X0, X)
                  * math.log(d) / (eps * eps))
    return gamma, int(k)


def operator_norm_1to1(problem) -> float:
    """Max column l1 norm of the stacked operator (A1; A2), probed with
    coordinate vectors: exact, but quadratic in the primal dimension."""
    best = 0.0
    e = np.zeros(problem.dim_primal)
    for j in range(problem.dim_primal):
        e[j] = 1.0
        col = (float(np.abs(problem.apply_A1(e)).sum())
               + float(np.abs(problem.apply_A2(e)).sum()))
        best = max(best, col)
        e[j] = 0.0
    return best
