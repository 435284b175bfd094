"""Wasserstein-1 on graphs via a lifted flow split.

The transport LP min <W, f> s.t. div(f) = mu1 - mu2 is lifted to the pair
x = (f, g) with block 1 tying the divergence of f to the marginals through
g and block 2 forcing f = g. Entropic smoothing then gives closed-form
KL projections onto both blocks, and the dual sweep reduces to one vertex
update per iteration.

blocklp.solve runs all three iteration paths and records their traces;
each yields (u, full, half) per sweep, with callables for the block
marginals at the full and half states:

  stable   FlowProblem.sweeps(), a log-stabilised scaling engine: each
           epoch absorbs the vertex duals into a per-arc kernel, and a
           sweep is two segmented sums and one quadratic root per vertex,
           which also give both block marginals. The exact log-domain
           block updates block_update_1 and block_update_2 are its
           fallback, so it is as safe as they are, down to gamma ~ 1e-4
           at desk scale;
  matrix   matrix_sweeps, explicit flow pairs and their KL projections
           project_C1 and project_C2, the most readable form; the
           half-state marginals come from the projected pair (f, g);
  scaling  scaling_sweeps, one positive scaling vector per vertex
           (sweep_scaling); its Gibbs kernel is in linear scale and
           underflows for small gamma. It fuses both half-steps, so it
           reports no half state.

All three produce the same iterates up to roundoff; tests hold them to
that. Since the lifted objective counts the transport cost on both copies
f and g, optimal values sit at twice the Wasserstein-1 distance, and
w1_estimate reports on the transport scale by halving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterator, NamedTuple

import numpy as np

from .blocklp import (
    _EXP_LIMIT,
    BlockProblem,
    DualState,
    NumericOverflowError,
    Sweep,
    cost_and_dual,
    marginals,
)
from .graph import Graph, hop_diameter, spanning_tree_flow
from .numerics import kl_divergence, phi_root
from .sinkhorn import _in_range

__all__ = [
    "EdgeFlow",
    "FlowProblem",
    "divergence",
    "project_C1",
    "project_C2",
    "sweep_scaling",
    "matrix_sweeps",
    "scaling_sweeps",
    "w1_estimate",
    "flow_constants",
    "FlowConstants",
    "vertex_dual_from_scaling",
    "vertex_dual_from_flow",
]

_BALANCE_TOL = 1e-12


@dataclass
class EdgeFlow:
    """Nonnegative values on the directed arcs of a graph.

    Aligned with Graph's arc arrays (both orientations of every edge, sorted
    by (src, dst)).
    """

    graph: Graph
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.graph.p,):
            raise ValueError(
                f"flow needs one value per directed arc ({self.graph.p}), "
                f"got shape {values.shape}"
            )
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("flow values must be finite and >= 0")
        self.values = values

    def mass(self) -> float:
        return float(self.values.sum())


def divergence(g: Graph, f) -> np.ndarray:
    """Per-vertex net flow: arcs entering k minus arcs leaving k.

    Under the storage orientation this is the column-sum-minus-row-sum
    reading of the arc values as a sparse matrix; feasible flows satisfy
    divergence(f) = mu1 - mu2.
    """
    values = f.values if isinstance(f, EdgeFlow) else np.asarray(f, dtype=float)
    if values.shape != (g.p,):
        raise ValueError("flow length does not match the arc count")
    incoming = np.bincount(g.arc_dst, weights=values, minlength=g.n)
    outgoing = np.bincount(g.arc_src, weights=values, minlength=g.n)
    return incoming - outgoing


class FlowProblem(BlockProblem):
    """Lifted flow instance on a connected graph.

    Args:
      graph: connected Graph with n >= 2.
      mu1, mu2: nonnegative vertex marginals with equal total mass.
      gamma: regularization strength, positive and finite.
      z: optional positive per-arc reference (length graph.p). Default is
        the constant mass-matched reference alpha * 1 with
        alpha = ||tree flow||_1 / (2p), falling back to 1 / (2p) when the
        marginals coincide and the tree flow is empty.

    The primal layout is x = (f, g), each of length p. Block 1 couples the
    divergence of f to the marginals via g (right-hand side mu2 - mu1 on
    vertices); block 2 is f - g = 0 on arcs.
    """

    def __init__(self, graph: Graph, mu1, mu2, gamma: float, z=None):
        if graph.n < 2:
            raise ValueError("flow problems need at least two vertices")
        mu1 = np.asarray(mu1, dtype=float)
        mu2 = np.asarray(mu2, dtype=float)
        if mu1.shape != (graph.n,) or mu2.shape != (graph.n,):
            raise ValueError("marginals must have one entry per vertex")
        if np.any(mu1 < 0) or np.any(mu2 < 0):
            raise ValueError("marginals must be nonnegative")
        if abs(mu1.sum() - mu2.sum()) > _BALANCE_TOL:
            raise ValueError(
                f"marginals must balance, difference {mu1.sum() - mu2.sum():.3e}"
            )
        if not 0 < gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {gamma!r}")

        p = graph.p
        if z is None:
            tree_mass = spanning_tree_flow(graph, mu1, mu2).mass()
            alpha = tree_mass / (2.0 * p) if tree_mass > 0 else 1.0 / (2.0 * p)
            z = np.full(p, alpha)
        else:
            z = np.asarray(z, dtype=float)
            if z.shape != (p,):
                raise ValueError("reference z needs one entry per directed arc")
            if np.any(z <= 0) or not np.all(np.isfinite(z)):
                raise ValueError("reference z must be finite and positive")

        self.graph = graph
        self.mu1 = mu1
        self.mu2 = mu2
        self.r = 0.5 * (mu1 - mu2)
        self.gamma = float(gamma)
        self.z_arc = z
        self.log_z_arc = np.log(z)
        # Reference folded into the weights: z^C = exp(-w_eff / gamma).
        self.w_eff = graph.arc_w - self.gamma * self.log_z_arc

        self.dim_primal = 2 * p
        self.dims_dual = (graph.n, p)
        self.b1 = mu2 - mu1
        self.b2 = np.zeros(p)
        self.cost = np.concatenate([graph.arc_w, graph.arc_w])
        self.reference = np.concatenate([z, z])
        self.log_reference = np.concatenate([self.log_z_arc, self.log_z_arc])
        self.op_norm_1to1 = 2.0
        self.label = f"flow-n{graph.n}-p{p}-gamma{gamma:g}"

    def _seg_lse(self, scores: np.ndarray) -> np.ndarray:
        """Per-vertex smoothed max of per-arc scores, grouped by arc src."""
        g = self.graph
        m = np.maximum.reduceat(scores, g.arc_seg_starts)
        tail = np.add.reduceat(
            np.exp((scores - m[g.arc_src]) / self.gamma), g.arc_seg_starts
        )
        return m + self.gamma * np.log(tail)

    def apply_A1(self, x):
        p = self.graph.p
        f, g_part = x[:p], x[p:]
        out = np.add.reduceat(f, self.graph.arc_seg_starts)
        inc = np.add.reduceat(g_part[self.graph.arc_rev], self.graph.arc_seg_starts)
        return out - inc

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
        lc = self._seg_lse(-(self.w_eff + u2)[self.graph.arc_rev])
        return 0.5 * (lc - la) - _gamma_arsinh(self.gamma, self.r, la + lc)

    def block_update_2(self, u1):
        """Exact arc-dual maximizer: U_e = -(v_src + v_dst) / 2."""
        u1 = np.asarray(u1, dtype=float)
        u2 = u1[self.graph.arc_src]
        u2 += u1[self.graph.arc_dst]
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
        f = g = K sigma_src / sigma_dst. A sweep reads the segmented sums
        P = sum_out K / sigma_dst and Q = sum_out K[arc_rev] sigma_dst;
        block 1 is then sigma' = sigma sqrt(tau), with tau the positive root
        of a tau^2 + 2 r tau - c = 0 for a = sigma P and c = Q / sigma, and
        block 2 is exact. The full-state marginals are
        (sigma' P' - Q' / sigma', 0, 2 sigma' . P'), read from the sums the
        next sweep uses; the half-state pair (F tau_src, F / tau_dst), with
        F = K sigma_src / sigma_dst, is formed only for recorded rows. A new
        sigma that is not finite or leaves [1/_TAU, _TAU] ends the epoch:
        the exact block_update_1 runs in its place and opens a new epoch in
        the same sweep.
        """
        gamma, r = self.gamma, self.r
        u = self.initial_state()
        sigma = None  # no epoch open
        while True:
            if sigma is not None:
                sigma_next = sigma * np.sqrt(
                    _scaling_root(r, sigma * p_sum, q_sum / sigma))
                if not _in_range(sigma_next):
                    sigma = sigma_next = None
            if sigma is None:
                v0 = self.block_update_1(u.u2)
                half = partial(marginals, self, DualState(v0, u.u2))
                v = v0
                kernel = _full_flow(self, v0)
                sigma = np.ones(self.graph.n)
            else:
                half = partial(_absorbed_half_marginals, self, kernel, sigma,
                               sigma_next)
                sigma = sigma_next
                v = v0 + 2.0 * gamma * np.log(sigma)
            p_sum, q_sum = _scaled_sums(self.graph, kernel, sigma)
            u = DualState(v, self.block_update_2(v))
            yield u, partial(_absorbed_marginals, self, sigma, p_sum, q_sum), half


def _full_flow(problem: FlowProblem, v: np.ndarray) -> np.ndarray:
    """The flow f = g at the full state (v, block_update_2(v)), per arc.

    Guarded as in primal_from_dual, and built in place.
    """
    g = problem.graph
    log_f = 0.5 * (v[g.arc_src] - v[g.arc_dst]) - problem.w_eff
    log_f /= problem.gamma
    worst = int(np.argmax(log_f))
    if log_f[worst] > _EXP_LIMIT:
        raise NumericOverflowError(
            f"arc {worst} flow has log value {log_f[worst]:.6g}, "
            f"beyond the exp() range (~{_EXP_LIMIT:.0f})"
        )
    return np.exp(log_f, out=log_f)


def _scaled_sums(g: Graph, kernel, sigma):
    """P = sum_out K / sigma_dst and Q = sum_out K[arc_rev] sigma_dst.

    K[arc_rev] is gathered here rather than kept beside K, and the gather of
    sigma is reused for the Q terms: at p ~ 1e5 each p-vector held across
    sweeps shows in the peak memory of a run.
    """
    terms = sigma[g.arc_dst]
    p_sum = np.add.reduceat(kernel / terms, g.arc_seg_starts)
    terms *= kernel[g.arc_rev]
    return p_sum, np.add.reduceat(terms, g.arc_seg_starts)


def _scaling_root(r: np.ndarray, a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Positive root tau of a tau^2 + 2 r tau - c = 0, per vertex.

    At small gamma a pure source or sink has one of a and c below 1e-290 or
    exactly 0, legitimately, so the root divides by neither: it is
    c / (r + disc) for r >= 0 and (disc - r) / a for r < 0, where the sum
    or difference has no cancellation. disc = sqrt(r^2 + a c) is formed
    without the product a c, which underflows at a vertex with r = 0 far
    from the flow. Where no finite positive root exists the result is 0,
    inf or NaN, which the caller's range check turns into a fallback.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disc = np.hypot(r, np.sqrt(a) * np.sqrt(c))
        return np.where(r >= 0.0, c / (r + disc), (disc - r) / a)


def _absorbed_marginals(problem: FlowProblem, sigma, p_sum, q_sum):
    """Block marginals at the full state f = g = K sigma_src / sigma_dst."""
    out = sigma * p_sum
    # f = g, so block 2 holds exactly: A2 x = 0 = b2
    return out - q_sum / sigma, problem.b2, 2.0 * float(out.sum())


def _absorbed_half_marginals(problem: FlowProblem, kernel, sigma, sigma_next):
    """Block marginals at the half state (F tau_src, F / tau_dst) of the
    sweep from sigma to sigma_next = sigma sqrt(tau), where
    F = K sigma_src / sigma_dst is the full-state flow before the sweep."""
    g = problem.graph
    tau = np.square(sigma_next / sigma)
    f = kernel * sigma[g.arc_src]
    f /= sigma[g.arc_dst]
    g_part = f / tau[g.arc_dst]
    f *= tau[g.arc_src]
    return _pair_marginals(problem, f, g_part)


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


def project_C1(problem: FlowProblem, h: EdgeFlow) -> tuple[EdgeFlow, EdgeFlow]:
    """KL projection of the pair (h, h) onto the marginal-coupling block.

    Solves one quadratic per vertex: s = phi_root(t, u) with
    t = (mu1 - mu2) / (h 1) and u = (h^T 1) / (h 1), then rescales
    f = diag(s) h and g = h diag(s)^{-1}. The pair satisfies
    -f 1 + g^T 1 = mu1 - mu2 up to roundoff.
    """
    g = problem.graph
    hv = h.values
    row = np.add.reduceat(hv, g.arc_seg_starts)
    col = np.add.reduceat(hv[g.arc_rev], g.arc_seg_starts)
    if np.any(row <= 0.0) or not np.all(np.isfinite(row)):
        k = int(np.argmin(row))
        raise NumericOverflowError(
            f"degenerate vertex {k}: its outgoing arc mass is {row[k]!r}"
        )
    s = phi_root((problem.mu1 - problem.mu2) / row, col / row)
    f = s[g.arc_src] * hv
    g_vals = hv / s[g.arc_dst]
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g_vals))):
        raise NumericOverflowError("marginal projection left the float range")
    return EdgeFlow(g, f), EdgeFlow(g, g_vals)


def project_C2(f: EdgeFlow, g: EdgeFlow) -> EdgeFlow:
    """KL projection of (f, g) onto f = g: the entrywise geometric mean."""
    return EdgeFlow(f.graph, np.sqrt(f.values * g.values))


def sweep_scaling(problem: FlowProblem, s: np.ndarray) -> np.ndarray:
    """One sweep on the per-vertex scaling vector.

    The flow iterate is diag(s) z^C diag(1/s). Assumes the reference is
    orientation-symmetric (the default constant reference is). The Gibbs
    kernel z^C is used in linear scale, so small gamma underflows it and
    the update degenerates; that raises, and the caller should move to the
    log-domain block updates.
    """
    g = problem.graph
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        zc = np.exp(-problem.w_eff / problem.gamma)
        p_vec = np.add.reduceat(zc * s[g.arc_dst], g.arc_seg_starts)
        q_vec = np.add.reduceat(zc / s[g.arc_dst], g.arc_seg_starts)
        # sqrt(r^2 + PQ) - r, in the conjugate form where r dominates
        inner = phi_root(2.0 * problem.r, p_vec * q_vec)
        s_next = np.sqrt(s / q_vec * inner)
    if not np.all(np.isfinite(s_next)) or np.any(s_next <= 0.0):
        raise NumericOverflowError(
            "scaling update left the positive float range "
            f"(gamma={problem.gamma:g}); use the log-domain sweep"
        )
    return s_next


def matrix_sweeps(problem: FlowProblem) -> Iterator[Sweep]:
    """Matrix-path sweeps from the reference flow z^C, for solve().

    Each sweep projects onto block 1, then onto block 2; the half state is
    the pair (f, g) after project_C1, before the geometric mean.
    """
    f = EdgeFlow(problem.graph, np.exp(-problem.w_eff / problem.gamma))
    while True:
        f1, g1 = project_C1(problem, f)
        f = project_C2(f1, g1)
        v = vertex_dual_from_flow(problem, f)
        u = DualState(v, problem.block_update_2(v))
        yield u, partial(marginals, problem, u), partial(
            _pair_marginals, problem, f1.values, g1.values)


def _pair_marginals(problem: FlowProblem, f: np.ndarray, g: np.ndarray):
    """apply_A1, apply_A2 and the mass of x = (f, g), without stacking x."""
    seg = problem.graph.arc_seg_starts
    a1x = np.add.reduceat(f, seg) - np.add.reduceat(g[problem.graph.arc_rev], seg)
    return a1x, f - g, float(f.sum()) + float(g.sum())


def scaling_sweeps(problem: FlowProblem) -> Iterator[Sweep]:
    """sweep_scaling from s = 1, as sweeps for solve().

    The update fuses both half-steps, so there is no half state to report.
    """
    s = np.ones(problem.graph.n)
    while True:
        s = sweep_scaling(problem, s)
        v = vertex_dual_from_scaling(problem, s)
        u = DualState(v, problem.block_update_2(v))
        yield u, partial(marginals, problem, u), None


def vertex_dual_from_scaling(problem: FlowProblem, s: np.ndarray) -> np.ndarray:
    """Calibration between the two state forms: v = 2 gamma log s."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise ValueError("scaling vector must be positive")
    return 2.0 * problem.gamma * np.log(s)


def vertex_dual_from_flow(problem: FlowProblem, f: EdgeFlow) -> np.ndarray:
    """Recover the vertex dual of a positive matrix-path iterate.

    Integrates the per-arc log ratios log f - log z^C along a tree from
    vertex 0 (v_0 = 0) grown depth-first with a stack, not breadth-first:
    each popped vertex claims its unseen neighbours in ascending id order
    and pushes them. The dual objective is invariant under the constant
    shift this pins down. The tree decides the roundoff in v, and through
    it the matrix path's outputs to the last digit, so this order is kept.
    """
    g = problem.graph
    if np.any(f.values <= 0):
        raise ValueError("dual recovery needs a strictly positive flow")
    # v_src - v_dst = 2 gamma log f + 2 w_eff on every arc
    diff = 2.0 * problem.gamma * np.log(f.values) + 2.0 * problem.w_eff
    starts = g.arc_seg_starts.tolist() + [g.p]
    dst = g.arc_dst.tolist()
    v = np.zeros(g.n)
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        a = stack.pop()
        for e in range(starts[a], starts[a + 1]):
            b = dst[e]
            if not seen[b]:
                seen[b] = True
                v[b] = v[a] - diff[e]
                stack.append(b)
    return v


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


def flow_constants(problem: FlowProblem, fbar: EdgeFlow) -> FlowConstants:
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
    cost = float(g.arc_w @ fbar.values)
    x_bar = (cost + gamma * kl_divergence(fbar.values, problem.z_arc)) / w_min
    h = float(np.log(x_bar)) + 2.0 * w_max / gamma + float(
        np.abs(problem.log_z_arc).max()
    )
    diam = hop_diameter(g)
    kappa_bound = 2.0 * diam
    u = 4.0 * diam * (w_max + gamma * h)
    b_l1 = float(np.abs(problem.mu1 - problem.mu2).sum())
    x = b_l1 * u / gamma + g.p * float(np.exp(-w_min / gamma))
    return FlowConstants(h, x_bar, kappa_bound, u, x)
