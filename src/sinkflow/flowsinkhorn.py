"""Wasserstein-1 on graphs via a lifted flow split.

The transport LP min <W, f> s.t. div(f) = mu1 - mu2 is lifted to the pair
x = (f, g) with block 1 tying the divergence of f to the marginals through
g and block 2 forcing f = g. Entropic smoothing then gives closed-form
KL projections onto both blocks, and the dual sweep reduces to one vertex
update per iteration.

blocklp.solve runs FlowProblem.sweeps(), a log-stabilised scaling engine
that yields (res1, (rows, state), (rows, state)) per sweep: the block-1
residual at the full state, then the full and the half state, each with
the callable that evaluates a run of them. Each epoch absorbs the vertex
duals into a per-arc kernel, and a sweep is two per-vertex sums and one
quadratic root per vertex. The sweeps of an epoch run in short bursts
that write their scalings and sums into one buffer, with one range check
and one residual pass over the burst's rows; the duals, the mass and the
half rows are formed only for the sweeps solve records, an epoch's run at
a time, from slices of those buffers. The exact log-domain block updates
block_update_1 and block_update_2 are its fallback, so it is as safe as
they are, down to gamma ~ 1e-4 at desk scale.

matrix_sweeps is the reference the engine is held to: explicit flow pairs
and their KL projections project_C1 and project_C2, the most readable
form, whose half-state row comes from the projected pair (f, g). A flow,
here as in graph, is a float array with one value per arc, aligned with
the Graph's arc arrays. Both produce the same iterates up to roundoff;
tests hold them to that, and to the exact block updates in turn
(BlockProblem.sweeps). Since the lifted objective counts the transport cost
on both copies f and g, optimal values sit at twice the Wasserstein-1
distance, and w1_estimate reports on the transport scale by halving.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Iterator, NamedTuple

import numpy as np

from . import blocklp
from .blocklp import (
    BlockProblem,
    DualState,
    NumericOverflowError,
    Sweep,
    _exp_in_range,
    _row_scalars,
    _stacked,
    _state_row,
    _state_rows,
    cost_and_dual,
)
from .graph import Graph, hop_diameter, spanning_tree_flow
from .numerics import in_scaling_range, kl_divergence, measure_pair, phi_root

__all__ = [
    "FlowProblem",
    "divergence",
    "project_C1",
    "project_C2",
    "matrix_sweeps",
    "w1_estimate",
    "flow_constants",
    "FlowConstants",
    "vertex_dual_from_flow",
]

# The flow engine's longest burst, in sweeps. A burst's buffer holds 3 n
# floats a sweep, so a burst is also held to _BLOCK_FLOATS / n sweeps.
_BURST_SWEEPS = 16


def divergence(g: Graph, f) -> np.ndarray:
    """Per-vertex net flow: arcs entering k minus arcs leaving k.

    Under the storage orientation this is the column-sum-minus-row-sum
    reading of the arc values as a sparse matrix; feasible flows satisfy
    divergence(f) = mu1 - mu2.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (g.p,):
        raise ValueError("flow length does not match the arc count")
    return _vertex_sums(g.n, g.arc_dst, f) - _vertex_sums(g.n, g.arc_src, f)


# Every per-vertex reduction over the arcs is one scatter pass keyed by
# arc_src (the arcs leaving each vertex) or arc_dst (those entering it). A
# sum over the reverses of the arcs leaving v is the sum over the arcs
# entering v, in the same order, so no p-length arc_rev gather is needed.
def _vertex_sums(n: int, key: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-vertex sums of per-arc values grouped by key, added in arc order."""
    return np.bincount(key, weights=values, minlength=n)


def _vertex_maxima(n: int, key: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-vertex maxima of per-arc values grouped by key."""
    out = np.full(n, -np.inf)
    np.maximum.at(out, key, values)
    return out


class FlowProblem(BlockProblem):
    """Lifted flow instance on a connected graph.

    Args:
      graph: connected Graph with n >= 2.
      mu1, mu2: finite nonnegative vertex marginals with equal total mass.
      gamma: regularization strength, positive and finite.

    The reference z is the number alpha = ||tree flow||_1 / (2p) on every
    entry of x, or 1 / (2p) when the marginals coincide and the tree flow
    is empty; log_reference is the float log(alpha).

    The primal layout is x = (f, g), each of length p. Block 1 couples the
    divergence of f to the marginals via g (right-hand side mu2 - mu1 on
    vertices); block 2 is f - g = 0 on arcs.
    """

    def __init__(self, graph: Graph, mu1, mu2, gamma: float):
        if graph.n < 2:
            raise ValueError("flow problems need at least two vertices")
        mu1, mu2 = measure_pair(mu1, mu2, graph.n, graph.n)
        if not 0 < gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {gamma!r}")

        p = graph.p
        tree_mass = float(spanning_tree_flow(graph, mu1, mu2).sum())
        alpha = tree_mass / (2.0 * p) if tree_mass > 0 else 1.0 / (2.0 * p)

        self.graph = graph
        self.mu1 = mu1
        self.mu2 = mu2
        self.r = 0.5 * (mu1 - mu2)
        self.gamma = float(gamma)
        self.alpha = alpha
        # np.log, not math.log, whose last bit differs on some alphas
        self.log_reference = float(np.log(alpha))
        # Z = sum(z) over its 2p entries: 2p * alpha moves Z's last bits
        self.reference_mass = float(np.full(2 * p, alpha).sum())
        # Reference folded into the weights: z^C = exp(-w_eff / gamma).
        self.w_eff = graph.arc_w - self.gamma * self.log_reference

        self.dim_primal = 2 * p
        self.dims_dual = (graph.n, p)
        self.b1 = mu2 - mu1
        self.b2 = np.zeros(p)
        self.cost = np.concatenate([graph.arc_w, graph.arc_w])
        self.op_norm_1to1 = 2.0
        self.label = f"flow-n{graph.n}-p{p}-gamma{gamma:g}"

    def _seg_lse(self, scores: np.ndarray, key: np.ndarray | None = None
                 ) -> np.ndarray:
        """Per-vertex smoothed max gamma log sum exp(scores / gamma) of
        per-arc scores, grouped by key: arc_src (the arcs leaving each
        vertex) unless arc_dst (the arcs entering it) is given."""
        g = self.graph
        key = g.arc_src if key is None else key
        m = _vertex_maxima(g.n, key, scores)
        tail = _vertex_sums(g.n, key, np.exp((scores - m[key]) / self.gamma))
        return m + self.gamma * np.log(tail)

    def apply_A1(self, x):
        """Per vertex, f over the arcs leaving it minus g over the arcs
        entering it."""
        g = self.graph
        return (_vertex_sums(g.n, g.arc_src, x[:g.p])
                - _vertex_sums(g.n, g.arc_dst, x[g.p:]))

    def apply_A2(self, x):
        p = self.graph.p
        return x[:p] - x[p:]

    # The adjoints negate their second half in place: building x(u) then
    # holds one p-vector fewer at its peak, which counts at p ~ 1e5.
    def apply_A1_adjoint(self, u1):
        out = np.concatenate([u1[self.graph.arc_src], u1[self.graph.arc_dst]])
        out[self.graph.p:] *= -1.0
        return out

    def apply_A2_adjoint(self, u2):
        out = np.concatenate([u2, u2])
        out[self.graph.p:] *= -1.0
        return out

    def block_update_1(self, u2):
        """Exact vertex-dual maximizer given the arc dual."""
        u2 = np.asarray(u2, dtype=float)
        la = self._seg_lse(-self.w_eff + u2)
        lc = self._seg_lse(-(self.w_eff + u2), self.graph.arc_dst)
        return 0.5 * (lc - la) - _gamma_arsinh(self.gamma, self.r, la + lc)

    def block_update_2(self, u1):
        """Exact arc-dual maximizer: U_e = -(v_src + v_dst) / 2, for each
        row of a stack of vertex duals too."""
        u1 = np.asarray(u1, dtype=float)
        u2 = u1.take(self.graph.arc_src, axis=-1)
        u2 += u1.take(self.graph.arc_dst, axis=-1)
        u2 *= -0.5
        return u2

    def sweeps(self) -> Iterator[Sweep]:
        """Log-stabilised scaling sweeps from u = 0, for solve().

        Schmitzer's absorption scheme (arXiv:1610.06519) on the vertex
        scaling. An epoch starts with an exact log-domain block_update_1,
        v0 = block_update_1(u2), and absorbs the flow f = g of the full state
        it reaches, K = exp(((v0_src - v0_dst) / 2 - w_eff) / gamma), into a
        per-arc kernel, with sigma = 1 on every vertex. Within the epoch
        v = v0 + 2 gamma log sigma, and the full-state flow is
        f = g = K sigma_src / sigma_dst. A sweep reads the per-vertex sums
        a = sigma P and c = Q / sigma, with P the sum of K / sigma_dst over
        the arcs leaving the vertex and Q the sum of K sigma_src over the
        arcs entering it; block 1 is then
        sigma' = sigma sqrt(tau), with tau the positive root of
        a tau^2 + 2 r tau - c = 0, and block 2 is exact. The full state is
        read from the a' and c' the next sweep uses: A1 x = a' - c', whose
        l1 norm each sweep yields, A2 x = 0 and ||x||_1 = 2 sum a'.

        An epoch runs in bursts of up to _BURST_SWEEPS sweeps, of fewer on
        a graph of more than _BLOCK_FLOATS / _BURST_SWEEPS vertices: each
        sweep of a burst writes its row (sigma', a', c') into the burst's
        fresh (3, rows, n) buffer, and one errstate, one range check and
        one residual pass cover the burst. Its sweeps are then yielded one
        at a time, so the engine computes at most a burst less one sweeps
        ahead of the one drawn. A full state is deferred as its row
        (buffer, index), and one rows callable per epoch,
        _absorbed_full_rows, forms v and u2 for a run of them from slices
        of the buffers. The half-state pair is (F tau_src, F / tau_dst),
        with F = K sigma_src / sigma_dst the full-state flow before the
        sweep: its state is the pair of rows before and after the sweep,
        and one rows callable per epoch, _absorbed_half_rows, evaluates a
        run of them together. The half of a sweep that opens an epoch is
        the exact state (v0, u2), evaluated per row. A new sigma that is
        not finite or leaves the scaling range ends the epoch: the sweeps
        computed past it are dropped, and when its sweep is drawn the exact
        block_update_1 runs in its place, on the u2 of the full state
        reached, and opens a new epoch in the same sweep.
        """
        n = self.graph.n
        burst = min(_BURST_SWEEPS, max(1, blocklp._BLOCK_FLOATS // n))
        r_abs, r_pos = np.abs(self.r), self.r >= 0.0
        u2 = self.initial_state().u2
        state_rows = partial(_state_rows, self)
        while True:
            v0 = self.block_update_1(u2)
            half = state_rows, DualState(v0, u2)
            del u2  # the half holds it, until solve drops the half
            kernel = _full_flow(self, v0)
            full_rows = partial(_absorbed_full_rows, self, v0)
            half_rows = partial(_absorbed_half_rows, self, kernel)
            last = None  # the row of the last sweep yielded
            good = burst
            while good == burst:
                rows = np.empty((3, burst, n))
                good, res1 = _burst(self, kernel, rows, last, r_abs, r_pos)
                for i in range(good):
                    if last is not None:
                        half = half_rows, (last, (rows, i))
                    last = rows, i
                    yield res1[i], (full_rows, last), half
                    # only solve holds a half: at p ~ 1e5 the u2 of an
                    # epoch's first half, or the buffer before a burst,
                    # held here too would show in a run's peak memory
                    del half
            # fall back from the last row yielded; this epoch's arrays go
            # before block_update_1 runs, for the same reason
            rows, i = last
            u2 = self.block_update_2(v0 + 2.0 * self.gamma
                                     * np.log(rows[0, i]))
            del kernel, full_rows, half_rows, rows, last


def _full_flow(problem: FlowProblem, v: np.ndarray) -> np.ndarray:
    """The flow f = g at the full state (v, block_update_2(v)), per arc.

    Guarded as in primal_from_dual, and built in place.
    """
    g = problem.graph
    log_f = 0.5 * (v[g.arc_src] - v[g.arc_dst]) - problem.w_eff
    log_f /= problem.gamma
    return _exp_in_range(log_f, "arc flow")


def _burst(problem: FlowProblem, kernel: np.ndarray, rows: np.ndarray,
           last: tuple | None, r_abs: np.ndarray, r_pos: np.ndarray
           ) -> tuple[int, list]:
    """Fill the rows (sigma, a, c) of a burst, each a sweep from the row
    before it; return the number of leading rows whose sigma lies in the
    scaling range and the block-1 residual ||a - c - b1||_1 of each.

    last is the row (buffer, index) before the burst, read in place, or
    None when the burst opens an epoch, whose first row is sigma = 1. The
    rows past the first that leaves the range are computed from it and
    must be dropped; one errstate covers them all, so none of them warns.
    The last row's sums wait for the range check, so that a one-sweep
    burst that leaves the range forms none, as a sweep that falls back
    forms none.
    """
    g = problem.graph
    sigmas, a_rows, c_rows = rows
    end = len(sigmas) - 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if last is not None:
            buffer, i = last
            sigma, a, c = buffer[:, i]
        for i in range(len(sigmas)):
            if last is None and i == 0:
                sigma = sigmas[0]
                sigma.fill(1.0)
            else:
                tau = _root(problem.r, a, c, r_abs, r_pos)
                sigma = np.multiply(sigma, np.sqrt(tau, out=tau),
                                    out=sigmas[i])
            if i < end:
                a, c = _scaled_sums(g, kernel, sigma, a_rows[i], c_rows[i])
        in_range = in_scaling_range(sigmas).tolist()
        good = (in_range + [False]).index(False)
        if good > end:
            _scaled_sums(g, kernel, sigma, a_rows[end], c_rows[end])
        res1 = np.abs(a_rows[:good] - c_rows[:good] - problem.b1).sum(axis=1)
    return good, res1.tolist()


def _scaled_sums(g: Graph, kernel, sigma, a, c):
    """a = sigma P and c = Q / sigma, written into a and c, for P the sum
    of K / sigma_dst over the arcs leaving each vertex and Q the sum of
    K sigma_src over the arcs entering it.

    Each sum is one scatter pass over a per-arc array that is freed right
    after it: at p ~ 1e5 each p-vector held across sweeps shows in the peak
    memory of a run.
    """
    np.multiply(_vertex_sums(g.n, g.arc_src, kernel / sigma[g.arc_dst]),
                sigma, out=a)
    np.divide(_vertex_sums(g.n, g.arc_dst, kernel * sigma[g.arc_src]),
              sigma, out=c)
    return a, c


def _root(r, a, c, r_abs, r_pos):
    """Positive root tau of a tau^2 + 2 r tau - c = 0, per vertex, with
    r_abs = |r| and r_pos = (r >= 0) passed in by a caller that solves for
    the same r again and again, under the caller's errstate.

    At small gamma a pure source or sink has one of a and c below 1e-290 or
    exactly 0, legitimately, so the root divides by neither: with
    s = |r| + disc it is c / s for r >= 0 and s / a for r < 0, where the
    sum has no cancellation (for r < 0, disc - r is disc + |r| exactly).
    disc = sqrt(r^2 + a c) is formed without the product a c, which
    underflows at a vertex with r = 0 far from the flow. Where no finite
    positive root exists the result is 0, inf or NaN, which the caller's
    range check turns into a fallback.
    """
    s = np.hypot(r, np.sqrt(a) * np.sqrt(c))
    s += r_abs
    return np.where(r_pos, c / s, s / a)


def _burst_rows(states, part) -> np.ndarray:
    """part (an index or a slice into (sigma, a, c)) of the burst rows
    (buffer, index), one per state, stacked along the rows axis: a slice
    of its buffer for each run of consecutive rows, so that a run in one
    buffer is a view."""
    pieces = []
    buffer, first = states[0]
    stop = first
    for rows, i in states:
        if rows is not buffer or i != stop:
            pieces.append(buffer[part, first:stop])
            buffer, first = rows, i
        stop = i + 1
    pieces.append(buffer[part, first:stop])
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=-2)


def _absorbed_full_rows(problem: FlowProblem, v0: np.ndarray, states: list):
    """The Stacks of the full states, burst rows (sigma, a, c), of absorbed
    sweeps of one epoch: v = v0 + 2 gamma log sigma with its exact u2, a
    block-2 residual of 0 since f = g, and the mass 2 sum a."""
    sigma, a = _burst_rows(states, slice(2))
    u1 = v0 + 2.0 * problem.gamma * np.log(sigma)
    return (u1, problem.block_update_2(u1), [0.0] * len(states),
            (2.0 * a.sum(axis=1)).tolist())


def _absorbed_half_rows(problem: FlowProblem, kernel: np.ndarray,
                        states: list):
    """The half rows of absorbed sweeps of one epoch, with 2-D arrays over
    the rows.

    For the sweep from sigma to sigma' = sigma sqrt(tau), with a and c the
    sums at sigma, the half state is f = F tau_src, g = F / tau_dst with
    F = K sigma_src / sigma_dst. Then A1 x = tau a - c / tau and the mass is
    sum(tau a + c / tau), from the sums the root used; A2 x = f - g is one
    per-arc pass over the rows, formed as the pair so that res2_l1 is the
    same number a per-row evaluation gives. Each state is the pair of burst
    rows before and after its sweep, read in place: a slice of a buffer is
    a view, so nothing here writes into a, c or sigma.
    """
    before, after = zip(*states)
    sigma, a, c = _burst_rows(before, slice(None))
    sigma_next = _burst_rows(after, 0)
    g = problem.graph
    tau = np.square(sigma_next / sigma)
    a = a * tau
    c = c / tau
    foc1 = np.abs(a - c - problem.b1).sum(axis=1)
    mass = a.sum(axis=1) + c.sum(axis=1)
    # the per-arc pass below holds (rows, p) arrays: free what it does not
    # read first, which counts for a one-row block at p ~ 1e5
    del sigma_next, a, c
    f = kernel * sigma[:, g.arc_src]
    f /= sigma[:, g.arc_dst]
    del sigma
    g_part = f / tau[:, g.arc_dst]
    f *= tau[:, g.arc_src]
    f -= g_part
    res2 = np.abs(f, out=f).sum(axis=1)
    return zip(foc1.tolist(), res2.tolist(), mass.tolist())


def _gamma_arsinh(gamma: float, r: np.ndarray, exponent_sum: np.ndarray) -> np.ndarray:
    """gamma * arsinh(r * exp(-exponent_sum / (2 gamma))) without overflow.

    For exponents beyond the exp() range the asymptotic form
    sign(r) * (log 2 + log|r| - S/(2 gamma)) is exact to double precision
    (the correction is O(1/beta^2) with beta > e^700).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        log_abs_r = np.where(r != 0.0, np.log(np.abs(r)), -np.inf)
        m = log_abs_r - exponent_sum / (2.0 * gamma)
        sign = np.sign(r)
        direct = gamma * np.arcsinh(sign * np.exp(np.minimum(m, 700.0)))
        asym = gamma * sign * (np.log(2.0) + m)
        return np.where(m > 700.0, asym, direct)


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
    """Matrix-path sweeps from the reference flow z^C, for solve().

    Each sweep projects onto block 1, then onto block 2; the half state is
    the pair (f, g) after project_C1, before the geometric mean.
    """
    f = np.exp(-problem.w_eff / problem.gamma)
    pair_rows = partial(_pair_rows, problem)
    while True:
        f1, g1 = project_C1(problem, f)
        f = project_C2(f1, g1)
        v = vertex_dual_from_flow(problem, f)
        u2 = problem.block_update_2(v)
        res1, res2, mass = _state_row(problem, DualState(v, u2))
        yield res1, (_stacked, (v, u2, res2, mass)), (pair_rows, (f1, g1))


def _pair_rows(problem: FlowProblem, pairs: list):
    """The trace rows at x = (f, g) for each pair, without stacking x."""
    gr = problem.graph
    for f, g in pairs:
        a1x = (_vertex_sums(gr.n, gr.arc_src, f)
               - _vertex_sums(gr.n, gr.arc_dst, g))
        yield _row_scalars(problem, (a1x, f - g,
                                     float(f.sum()) + float(g.sum())))


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


def w1_estimate(problem: FlowProblem, state: DualState) -> tuple[float, float]:
    """Transport-scale primal and dual estimates at a dual state.

    The lifted objective carries the cost on both flow copies, so the raw
    cost and dual objective sit at twice the transport value; both returns
    are halved.
    """
    primal, dual = cost_and_dual(problem, state)
    return 0.5 * primal, 0.5 * dual


class FlowConstants(NamedTuple):
    H_gamma: float
    X_bar: float
    kappa_bound: float
    U_gamma: float
    X_gamma: float


def flow_constants(problem: FlowProblem, fbar: np.ndarray) -> FlowConstants:
    """Certificate constants from a feasible comparison flow.

    fbar must satisfy the divergence constraint (spanning_tree_flow output
    qualifies). The chain: X_bar bounds the regularized optimum's mass
    through the comparison flow's cost, H bounds the optimal log-ratios,
    kappa_bound = 2 * hop diameter bounds the split conditioning, U the
    dual radius, X the primal iterate mass.
    """
    g = problem.graph
    feas = divergence(g, fbar) - (problem.mu1 - problem.mu2)
    if float(np.abs(feas).sum()) > 1e-9:
        raise ValueError(
            f"comparison flow is infeasible (divergence error {np.abs(feas).sum():.3e})"
        )
    gamma = problem.gamma
    w_min = float(g.arc_w.min())
    w_max = float(g.arc_w.max())
    cost = float(g.arc_w @ fbar)
    z = np.full(g.p, problem.alpha)
    x_bar = (cost + gamma * kl_divergence(fbar, z)) / w_min
    h = float(np.log(x_bar)) + 2.0 * w_max / gamma + abs(problem.log_reference)
    diam = hop_diameter(g)
    kappa_bound = 2.0 * diam
    u = 4.0 * diam * (w_max + gamma * h)
    b_l1 = float(np.abs(problem.mu1 - problem.mu2).sum())
    x = b_l1 * u / gamma + g.p * float(np.exp(-w_min / gamma))
    return FlowConstants(h, x_bar, kappa_bound, u, x)
