"""Wasserstein-1 on graphs via a lifted flow split.

The transport LP min <W, f> s.t. div(f) = mu1 - mu2 is lifted to the pair
x = (f, g) with block 1 tying the divergence of f to the marginals through
g and block 2 forcing f = g. Entropic smoothing then gives closed-form
KL projections onto both blocks, and the dual sweep reduces to one vertex
update per iteration.

blocklp.solve runs FlowProblem.sweeps(), a log-stabilised scaling engine
that yields (res1, (rows, state)) per sweep: the block-1 residual at the
full state, then the sweep's full and half state with the callable that
evaluates a run of them. Each epoch absorbs the vertex duals into a
per-arc kernel, and a sweep is two per-vertex sums and one quadratic root
per vertex. The sweeps of an epoch run in short bursts that write their
scalings and sums into one buffer, with one range check and one residual
pass over the burst's rows; the duals, the masses and the half rows are
formed only for the sweeps solve records, an epoch's run at a time, from
slices of those buffers. The exact log-domain block updates
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
    _Anderson,
    _exp_in_range,
    _falls,
    _formed_stacks,
    _row_scalars,
    _state_row,
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
    is empty; log_reference is the float log(alpha). A caller that has
    already formed spanning_tree_flow(graph, mu1, mu2) passes its l1 mass
    as tree_mass, and the tree flow is not formed again.

    The primal layout is x = (f, g), each of length p. Block 1 couples the
    divergence of f to the marginals via g (right-hand side mu2 - mu1 on
    vertices); block 2 is f - g = 0 on arcs.
    """

    def __init__(self, graph: Graph, mu1, mu2, gamma: float, *,
                 tree_mass: float | None = None):
        if graph.n < 2:
            raise ValueError("flow problems need at least two vertices")
        mu1, mu2 = measure_pair(mu1, mu2, graph.n, graph.n)
        if not 0 < gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {gamma!r}")

        p = graph.p
        if tree_mass is None:
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
        self.w_eff = self._w_eff()

        self.dim_primal = 2 * p
        self.dims_dual = (graph.n, p)
        self.b1 = mu2 - mu1
        self.b2 = np.zeros(p)
        self.cost = np.concatenate([graph.arc_w, graph.arc_w])
        self.op_norm_1to1 = 2.0

    @property
    def label(self) -> str:
        return f"flow-n{self.graph.n}-p{self.graph.p}-gamma{self.gamma:g}"

    def _w_eff(self) -> np.ndarray:
        """The reference folded into the weights: z^C = exp(-w_eff / gamma)."""
        return self.graph.arc_w - self.gamma * self.log_reference

    def with_gamma(self, gamma: float) -> "FlowProblem":
        """This instance at another gamma, sharing its graph, marginals and
        reference alpha: only w_eff is formed anew."""
        other = super().with_gamma(gamma)
        other.w_eff = other._w_eff()
        return other

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

    def apply_A1_adjoint(self, u1):
        out = np.concatenate([u1[self.graph.arc_src], u1[self.graph.arc_dst]])
        out[self.graph.p:] *= -1.0
        return out

    def apply_A2_adjoint(self, u2):
        out = np.concatenate([u2, u2])
        out[self.graph.p:] *= -1.0
        return out

    def apply_adjoint(self, u):
        """A^T u = (u1_src + u2, -u1_dst - u2), formed in one 2p buffer:
        x(u) then holds no p-vector beyond itself, which counts at
        p ~ 1e5. Bit for bit the sum of the two adjoints, since
        -a - b is -a + (-b) in IEEE arithmetic."""
        g = self.graph
        out = np.empty(2 * g.p)
        forward, backward = out[:g.p], out[g.p:]
        # mode="clip" writes into out directly, where the default "raise"
        # buffers a p-vector; every index is a vertex, so none is clipped
        u.u1.take(g.arc_src, out=forward, mode="clip")
        u.u1.take(g.arc_dst, out=backward, mode="clip")
        np.negative(backward, out=backward)
        forward += u.u2
        backward -= u.u2
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

    def sweeps(self, u0: DualState | None = None, omega: float = 1.0,
               memory: int = 0) -> Iterator[Sweep]:
        """Log-stabilised scaling sweeps from u0, initial_state() unless
        given, for solve(), with block 1 overrelaxed by omega and
        Anderson steps on log sigma of the given memory.

        Schmitzer's absorption scheme (arXiv:1610.06519) on the vertex
        scaling. An epoch starts with an exact log-domain block_update_1,
        v0 = block_update_1(u2), the first one on u0's u2, and absorbs the
        flow f = g of the full state it reaches,
        K = exp(((v0_src - v0_dst) / 2 - w_eff) / gamma), into a per-arc
        kernel, with sigma = 1 on every vertex. Within the epoch
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
        ahead of the one drawn. A sweep's state is the pair of burst rows
        (buffer, index) before and after it, read in place, and one rows
        callable per epoch, _absorbed_rows, evaluates a run of them from
        slices of the buffers: the full state's v and u2 from the row
        after, and the half-state pair (F tau_src, F / tau_dst), with
        F = K sigma_src / sigma_dst the full-state flow before the sweep,
        from both. The sweep that opens an epoch has no row before it: its
        half is the exact state (v0, u2) in that row's place. A new sigma
        that is not finite or leaves the scaling range ends the epoch: the
        sweeps computed past it are dropped, and when its sweep is drawn
        the exact block_update_1 runs in its place, on the u2 of the full
        state reached, and opens a new epoch in the same sweep.

        Under omega != 1 each sweep within an epoch takes the overrelaxed
        step sigma' = sigma tau^(omega / 2), that is
        v <- v + omega (block_update_1(u2) - v); the sweep that opens an
        epoch stays exact. The dual objective at each full state,
        <b1, v0 + 2 gamma log sigma> + gamma (Z - 2 sum a') since b2 = 0,
        is formed once per burst over its rows, and the first sweep that
        lowers it (by more than roundoff, see blocklp._falls) ends the
        epoch as a sigma out of range does, so the objective never
        decreases. The half-state row of an overrelaxed sweep meets no
        first-order condition.

        memory > 0 adds Anderson steps on log sigma within each epoch, and
        forms F as omega != 1 does. A period runs from the epoch's opening
        row, or from the last period's end, for
        blocklp._ANDERSON_PERIOD sweeps that all passed the F test, and a
        burst holds at most what is left of it. Then _Anderson(memory)
        extrapolates log sigma from the last memory + 1 period starts and
        ends; the candidate is taken only if its sigma is in the scaling
        range and F there, with block 2 exact (one _scaled_sums), does not
        fall below F at the period's end. A taken candidate is the row the
        next burst starts from, it starts the next period, and the sweep
        after it is exact (omega = 1). A rejected candidate or the end of
        the epoch clears the history. A candidate is not a sweep: it is
        not yielded, and no trace row reads it but as the half state's
        row before the sweep after it. At memory = 0 no Anderson code
        runs.
        """
        n = self.graph.n
        burst = min(_BURST_SWEEPS, max(1, blocklp._BLOCK_FLOATS // n))
        period = blocklp._ANDERSON_PERIOD
        guarded = omega != 1.0 or memory > 0
        history = _Anderson(memory, n) if memory else None
        r_abs, r_neg = np.abs(self.r), self.r < 0.0
        u2 = (self.initial_state() if u0 is None else u0).u2
        while True:
            v0 = self.block_update_1(u2)
            before = DualState(v0, u2)
            del u2  # the opening half holds it, until solve drops the half
            kernel = _full_flow(self, v0)
            epoch_rows = partial(_absorbed_rows, self, v0, kernel)
            last = None  # the row of the last sweep yielded, or a candidate
            F = None  # F at that row, when guarded
            if history is not None:
                history.clear()
                # the period starts at the opening row, sigma = 1, which
                # is not a sweep after its start
                start, swept = np.zeros(n), -1
            exact = False  # whether the burst's first sweep is exact
            size = good = burst
            while good == size:
                if history is not None:
                    size = min(burst, period - swept)
                rows = np.empty((3, size, n))
                good, res1 = _burst(self, kernel, rows, last, r_abs, r_neg,
                                    omega, exact)
                if guarded:
                    good, F = _ascending(self, v0, rows, good, F)
                for i in range(good):
                    if last is not None:
                        before = last
                    last = rows, i
                    yield res1[i], (epoch_rows, (before, last))
                    # only solve holds a state: at p ~ 1e5 the u2 of an
                    # epoch's opening half, or the buffer before a burst,
                    # held here too would show in a run's peak memory
                    del before
                exact = False
                if history is None or good < size:
                    continue
                swept += size
                if swept < period:
                    continue
                end = np.log(rows[0, size - 1])
                candidate = history.step(start, end)
                start, swept = end, 0
                if candidate is None:
                    continue
                taken = _candidate(self, v0, kernel, candidate, F)
                if taken is None:
                    history.clear()
                else:
                    last, F = taken
                    start, exact = candidate, True
            # fall back from the last row yielded, or the candidate taken
            # after it; this epoch's arrays go before block_update_1 runs,
            # for the same reason
            rows, i = last
            u2 = self.block_update_2(v0 + 2.0 * self.gamma
                                     * np.log(rows[0, i]))
            del kernel, epoch_rows, rows, last


def _full_flow(problem: FlowProblem, v: np.ndarray) -> np.ndarray:
    """The flow f = g at the full state (v, block_update_2(v)), per arc.

    Guarded as in primal_from_dual, and built in place.
    """
    g = problem.graph
    log_f = 0.5 * (v[g.arc_src] - v[g.arc_dst]) - problem.w_eff
    log_f /= problem.gamma
    return _exp_in_range(log_f, "arc flow")


def _burst(problem: FlowProblem, kernel: np.ndarray, rows: np.ndarray,
           last: tuple | None, r_abs: np.ndarray, r_neg: np.ndarray,
           omega: float, exact: bool) -> tuple[int, list]:
    """Fill the rows (sigma, a, c) of a burst, each a sweep from the row
    before it, sigma' = sigma tau^(omega / 2), with omega = 1 for the first
    if exact; return the number of leading rows whose sigma lies in the
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
                tau = _root(problem.r, a, c, r_abs, r_neg)
                if omega == 1.0 or (exact and i == 0):
                    np.sqrt(tau, out=tau)
                else:
                    np.power(tau, 0.5 * omega, out=tau)
                sigma = np.multiply(sigma, tau, out=sigmas[i])
            if i < end:
                a, c = _scaled_sums(g, kernel, sigma, a_rows[i], c_rows[i])
        in_range = in_scaling_range(sigmas).tolist()
        good = (in_range + [False]).index(False)
        if good > end:
            _scaled_sums(g, kernel, sigma, a_rows[end], c_rows[end])
        res1 = np.abs(a_rows[:good] - c_rows[:good] - problem.b1).sum(axis=1)
    return good, res1.tolist()


def _ascending(problem: FlowProblem, v0: np.ndarray, rows: np.ndarray,
               good: int, before: float | None) -> tuple[int, float | None]:
    """The number of leading rows of a burst's first good ones along which
    F does not fall, and F at the last of them.

    F at a row is <b1, v0 + 2 gamma log sigma> + gamma (Z - 2 sum a),
    formed for the rows at once as solve forms it, with b2 = 0. before is
    F at the row before the burst, or None when the burst opens its epoch:
    its first row is the state the exact update reached, and is kept.
    """
    for i, value in enumerate(_objective(problem, v0, np.log(rows[0, :good]),
                                         rows[1, :good]).tolist()):
        if before is not None and _falls(value, before):
            return i, before
        before = value
    return good, before


def _objective(problem: FlowProblem, v0: np.ndarray, log_sigma: np.ndarray,
               a: np.ndarray) -> np.ndarray:
    """F at the full states of scalings log_sigma, rows or one vector,
    with sums a: <b1, v0 + 2 gamma log sigma> + gamma (Z - 2 sum a)."""
    gamma = problem.gamma
    u1 = v0 + 2.0 * gamma * log_sigma
    return u1 @ problem.b1 + gamma * (problem.reference_mass
                                      - 2.0 * a.sum(axis=-1))


def _candidate(problem: FlowProblem, v0: np.ndarray, kernel: np.ndarray,
               log_sigma: np.ndarray, before: float
               ) -> tuple[tuple, float] | None:
    """An Anderson candidate log sigma as a one-row burst buffer (sigma,
    a, c), as the row (buffer, 0), and F there; None unless sigma lies in
    the scaling range and F does not fall below before."""
    with np.errstate(over="ignore"):
        sigma = np.exp(log_sigma)
    if not in_scaling_range(sigma):
        return None
    row = np.empty((3, 1, problem.graph.n))
    row[0, 0] = sigma
    _scaled_sums(problem.graph, kernel, sigma, row[1, 0], row[2, 0])
    value = float(_objective(problem, v0, np.log(sigma), row[1, 0]))
    if _falls(value, before):
        return None
    return (row, 0), value


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


def _root(r, a, c, r_abs, r_neg):
    """Positive root tau of a tau^2 + 2 r tau - c = 0, per vertex, with
    r_abs = |r| and r_neg = (r < 0) passed in by a caller that solves for
    the same r again and again, under the caller's errstate.

    At small gamma a pure source or sink has one of a and c below 1e-290 or
    exactly 0, legitimately, so the root divides by neither: with
    s = |r| + disc it is c / s for r >= 0 and s / a for r < 0, where the
    sum has no cancellation (for r < 0, disc - r is disc + |r| exactly);
    s / a is written over c / s in place, with no select.
    disc = sqrt(r^2 + a c) is formed without the product a c, which
    underflows at a vertex with r = 0 far from the flow. Where no finite
    positive root exists the result is 0, inf or NaN, which the caller's
    range check turns into a fallback.
    """
    s = np.hypot(r, np.sqrt(a) * np.sqrt(c))
    s += r_abs
    tau = c / s
    return np.divide(s, a, out=tau, where=r_neg)


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


def _absorbed_rows(problem: FlowProblem, v0: np.ndarray, kernel: np.ndarray,
                   states: list):
    """The Stacks of a run of sweeps of one epoch, each state the pair
    (before, after) of its burst rows (sigma, a, c), with 2-D arrays over
    the rows. For the sweep that opens the epoch, which can only come
    first, before is the exact half state, evaluated on its own.

    The full state is v = v0 + 2 gamma log sigma' with its exact u2, a
    block-2 residual of 0 since f = g, and the mass 2 sum a'. The half
    rows go first: the dual stacks are formed once their (rows, p) arrays
    are freed.
    """
    opening = isinstance(states[0][0], DualState)
    halves = ([[], [], []] if len(states) == opening
              else _absorbed_halves(problem, kernel, states[opening:]))
    if opening:
        for column, value in zip(halves, _state_row(problem, states[0][0])):
            column.insert(0, value)
    foc1, res2, half_mass = halves
    sigma, a = _burst_rows([after for _, after in states], slice(2))
    u1 = v0 + 2.0 * problem.gamma * np.log(sigma)
    return [(u1, problem.block_update_2(u1), res2,
             (2.0 * a.sum(axis=1)).tolist(), half_mass, foc1,
             [0.0] * len(states))]


def _absorbed_halves(problem: FlowProblem, kernel: np.ndarray,
                     states: list) -> list:
    """The half rows of absorbed sweeps of one epoch, with 2-D arrays over
    the rows, as the columns [foc1, res2, mass].

    For the sweep from sigma to sigma' = sigma sqrt(tau), with a and c the
    sums at sigma, the half state is f = F tau_src, g = F / tau_dst with
    F = K sigma_src / sigma_dst. Then A1 x = tau a - c / tau and the mass is
    sum(tau a + c / tau), from the sums the root used; A2 x = f - g is one
    per-arc pass over the rows, formed as the pair so that res2_l1 is the
    same number a per-row evaluation gives. The burst rows are read in
    place: a slice of a buffer is a view, so nothing here writes into a,
    c or sigma.
    """
    sigma, a, c = _burst_rows([before for before, _ in states], slice(None))
    sigma_next = _burst_rows([after for _, after in states], 0)
    g = problem.graph
    tau = np.square(sigma_next / sigma)
    a = a * tau
    c = c / tau
    foc1 = np.abs(a - c - problem.b1).sum(axis=1)
    mass = a.sum(axis=1) + c.sum(axis=1)
    # the per-arc pass below holds (rows, p) arrays: free what it does not
    # read first, which counts for a one-row block at p ~ 1e5
    del sigma_next, a, c
    f = kernel * sigma.take(g.arc_src, axis=-1)
    f /= sigma.take(g.arc_dst, axis=-1)
    del sigma
    g_part = f / tau.take(g.arc_dst, axis=-1)
    f *= tau.take(g.arc_src, axis=-1)
    f -= g_part
    res2 = np.abs(f, out=f).sum(axis=1)
    return [foc1.tolist(), res2.tolist(), mass.tolist()]


def _gamma_arsinh(gamma: float, r: np.ndarray, exponent_sum: np.ndarray) -> np.ndarray:
    """gamma * arsinh(r * exp(-exponent_sum / (2 gamma))) without overflow.

    The exponent m = log|r| - S/(2 gamma) is clipped at blocklp._EXP_LIMIT,
    L, and m - L added back: beyond L, arsinh(e^m) - arsinh(e^L) - (m - L)
    is O(e^(-2L)). At r = 0, m = -inf and the result is 0.
    """
    with np.errstate(divide="ignore"):
        m = np.log(np.abs(r)) - exponent_sum / (2.0 * gamma)
    limit = blocklp._EXP_LIMIT
    return gamma * np.sign(r) * (np.arcsinh(np.exp(np.minimum(m, limit)))
                                 + np.maximum(m - limit, 0.0))


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
