"""Balanced entropic optimal transport as a two-block instance.

The primal variable is the transport plan, flattened row-major; block 1
constrains row sums to b1, block 2 column sums to b2. The reference is the
product b1 (x) b2, so the plan at u = 0 is the independence coupling tilted
by the cost. Both block updates are soft c-transforms evaluated in the log
domain, which keeps gamma down to 1e-3 usable.

solve() runs OTProblem.sweeps(), a log-stabilised scaling iteration: the
same iterates as the two block updates in turn, at the cost of two
matrix-vector products per sweep, with the soft c-transforms as its
fallback and primal_from_dual's plan as each epoch's kernel. A sweep yields
its block-1 residual and defers its state, full and half, which solve
evaluates only for the sweeps it records, an epoch's run at a time.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Iterator, NamedTuple

import numpy as np

from .blocklp import (
    BlockProblem,
    DualState,
    Sweep,
    _dual_value,
    _formed_stacks,
    _l1,
    _Safeguard,
    _state_row,
    primal_from_dual,
)
from .numerics import MASS_TOL, SCALING_LIMIT, in_scaling_range

__all__ = [
    "OTProblem",
    "soft_c_transform_1",
    "soft_c_transform_2",
    "ot_constants",
    "OTConstants",
]

_TINY = np.finfo(float).tiny
# Kernel entries below this are set to 0: times a scaling in the scaling
# range, a product of an entry at or above it is never subnormal.
_KERNEL_FLOOR = _TINY * SCALING_LIMIT


class OTProblem(BlockProblem):
    """Entropic OT instance: cost matrix, marginals, regularization.

    Args:
      cost: (m1, m2) array, finite and entrywise >= 0.
      b1: length-m1 marginal, finite and strictly positive, total mass 1.
      b2: length-m2 marginal, same requirements.
      gamma: regularization strength, positive and finite.

    The reference z = b1 (x) b2 is kept only as its log and its mass; it
    is a plan, so its l1 mass X0 is 1.0.
    """

    def __init__(self, cost, b1, b2, gamma: float):
        cost = np.asarray(cost, dtype=float)
        b1 = np.asarray(b1, dtype=float)
        b2 = np.asarray(b2, dtype=float)
        if cost.ndim != 2:
            raise ValueError("cost must be a matrix")
        m1, m2 = cost.shape
        if b1.shape != (m1,) or b2.shape != (m2,):
            raise ValueError("marginal shapes do not match the cost matrix")
        if not np.all(np.isfinite(cost)) or np.any(cost < 0):
            raise ValueError("cost entries must be finite and >= 0")
        for name, b in (("b1", b1), ("b2", b2)):
            if not np.all((0 < b) & (b < math.inf)):
                raise ValueError(f"{name} must be finite and strictly positive")
            if not abs(b.sum() - 1.0) <= MASS_TOL:
                raise ValueError(f"{name} must sum to 1, got {b.sum()!r}")
        if not 0 < gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {gamma!r}")

        self.cost_matrix = cost
        self.m1, self.m2 = m1, m2
        self.b1 = b1
        self.b2 = b2
        self.gamma = float(gamma)
        self.X0 = 1.0
        self.log_b1 = np.log(b1)
        self.log_b2 = np.log(b2)

        self.dim_primal = m1 * m2
        self.dims_dual = (m1, m2)
        self.cost = cost.ravel()
        self.log_reference = (self.log_b1[:, None] + self.log_b2[None, :]).ravel()
        # Z = sum(z) over its entries: the closed form 1.0 moves its last bits
        self.reference_mass = float(np.exp(self.log_reference).sum())
        self.op_norm_1to1 = 2.0

    @property
    def label(self) -> str:
        return f"ot-{self.m1}x{self.m2}-gamma{self.gamma:g}"

    def apply_A1(self, x):
        return x.reshape(self.m1, self.m2).sum(axis=1)

    def apply_A2(self, x):
        return x.reshape(self.m1, self.m2).sum(axis=0)

    def apply_A1_adjoint(self, u1):
        return np.repeat(u1, self.m2)

    def apply_A2_adjoint(self, u2):
        return np.tile(u2, self.m1)

    def apply_adjoint(self, u):
        """A^T u = u1_i + u2_j, formed as one plan-sized array: bit for bit
        the sum of the two adjoints, without their two temporaries."""
        return np.add.outer(u.u1, u.u2).ravel()

    def block_update_1(self, u2):
        return soft_c_transform_1(self, u2)

    def block_update_2(self, u1):
        return soft_c_transform_2(self, u1)

    def sweeps(self, u0: DualState | None = None, omega: float = 1.0,
               memory: int = 0) -> Iterator[Sweep]:
        """Log-stabilised scaling sweeps from u0, initial_state() unless
        given, for solve(), with block 1 overrelaxed by omega and
        Anderson steps on log a of the given memory.

        Schmitzer's absorption scheme (SIAM J. Sci. Comput. 2019). An epoch
        starts with the exact log-domain block_update_1, the first one on
        u0's u2, absorbs the duals (f, g) reached into
        K = primal_from_dual(f, g), with its entries below
        _KERNEL_FLOOR set to 0, and sets a = b = 1.
        Within the epoch the state is u = (f + gamma log a, g + gamma log b),
        and a sweep is a = b1 / (K b), b = b2 / (K^T a): the two block updates
        in scaling form. Both trace rows come from K b, K^T a and the
        previous K b, so a sweep costs two matrix-vector products and never
        forms the plan. The block-1 residual is formed every sweep; the
        state is deferred as (a, K b, b, K^T a, b', K b'), the half state
        before the update of b and the full state after it, and one rows
        callable per epoch, _scaled_rows, evaluates a run of them together.
        A new scaling that is not finite or leaves the scaling range ends
        the epoch and the exact log-domain update takes its place: for a,
        that update opens a new epoch in the same sweep, on the u2 of the
        full state reached; for b, the next sweep opens one, and the sweep
        forms its full row as it runs. The rows of K sum to
        b1, so a stays within the range of 1/b unless a marginal entry sits
        within a factor SCALING_LIMIT or so of the float64 limit. Its row
        of K b is then subnormal or 0, and a is not formed from it: the
        exact update runs instead.

        Under omega != 1 each sweep after an epoch's first takes the
        overrelaxed step a' = a (b1 / (a K b))^omega, that is
        u1 <- u1 + omega (block_update_1(u2) - u1), and b stays exact. The
        ascent policy is blocklp._Safeguard's: a sweep whose full state it
        drops ends the epoch as an a out of range does. Anderson steps act
        on log a, which is 0 after the epoch's first sweep; a taken
        candidate, with the exact b it gives (one matrix-vector pair), is
        the state the next sweep starts from.
        """
        gamma, b1, b2 = self.gamma, self.b1, self.b2
        u2 = (self.initial_state() if u0 is None else u0).u2
        formed_rows = partial(_formed_stacks, partial(_half_row, self))
        guard = _Safeguard(omega, memory, self.m1)
        kernel = None  # no epoch open
        while True:
            if kernel is not None:
                # a subnormal or zero entry of K b leaves b1 / (K b) too few bits
                if kb.min() < _TINY:
                    kernel = None
                else:
                    if guard.relaxes():
                        with np.errstate(over="ignore"):
                            a_next = a * (b1 / (a * kb)) ** omega
                    else:
                        a_next = b1 / kb
                    if not in_scaling_range(a_next):
                        kernel = None
                if kernel is None:
                    u2 = g + gamma * np.log(b)
            if kernel is None:
                f, g = self.block_update_1(u2), u2
                kernel = primal_from_dual(self, DualState(f, g)).reshape(
                    self.m1, self.m2)
                np.putmask(kernel, kernel < _KERNEL_FLOOR, 0.0)
                epoch_rows = partial(_scaled_rows, self, f, g)
                a_next, b = np.ones(self.m1), np.ones(self.m2)
                kb = kernel.sum(axis=1)
                guard.open(np.zeros(self.m1))
            kta = a_next @ kernel
            half = a_next, kb, b, kta
            with np.errstate(divide="ignore", over="ignore"):
                b_next = b2 / kta
            epoch_goes_on = in_scaling_range(b_next)
            if epoch_goes_on:
                kb_next = kernel @ b_next
                res1 = _l1(a_next * kb_next - b1)
                state = epoch_rows, (*half, b_next, kb_next)
                if guard.guarded:
                    full = DualState(f + gamma * np.log(a_next),
                                     g + gamma * np.log(b_next))
                    mass = float(a_next @ kb_next)
            else:
                u1 = f + gamma * np.log(a_next)
                full = DualState(u1, self.block_update_2(u1))
                res1, res2, mass = _state_row(self, full)
                state = formed_rows, (full.u1, full.u2, res2, mass, half)
            if guard.guarded and not guard.keeps(
                    _dual_value(self, full, mass)):
                # drop the sweep and end the epoch, as when a leaves the
                # range: the exact update runs in its place
                u2 = g + gamma * np.log(b)
                kernel = None
                continue
            if epoch_goes_on:
                a, b, kb = a_next, b_next, kb_next
            else:
                u2, kernel = full.u2, None
            yield res1, state
            if kernel is None or not guard.due(1):
                continue
            candidate = guard.candidate(np.log(a))
            if candidate is None:
                continue
            taken, value = _candidate(self, f, g, kernel, candidate)
            if guard.settle(candidate, value):
                a, b, kb = taken


def _candidate(problem: OTProblem, f: np.ndarray, g: np.ndarray,
               kernel: np.ndarray, log_a: np.ndarray
               ) -> tuple[tuple | None, float]:
    """An Anderson candidate log a as the epoch state (a, b, K b), with
    b = b2 / (K^T a) exact, and F there; (None, NaN) unless a and b lie in
    the scaling range."""
    with np.errstate(divide="ignore", over="ignore"):
        a = np.exp(log_a)
        if not in_scaling_range(a):
            return None, math.nan
        b = problem.b2 / (a @ kernel)
    if not in_scaling_range(b):
        return None, math.nan
    kb = kernel @ b
    full = DualState(f + problem.gamma * np.log(a),
                     g + problem.gamma * np.log(b))
    return (a, b, kb), _dual_value(problem, full, float(a @ kb))


def _scaled_rows(problem: OTProblem, f: np.ndarray, g: np.ndarray,
                 states: list):
    """The Stacks of the states (a, kb, b, kta, b', kb') of one epoch, with
    2-D row sums over the states. The full state is the plan
    diag(a) K diag(b'): the duals (f + gamma log a, g + gamma log b'),
    ||b' K^T a - b2||_1 with the K^T a formed before b', and the mass
    a K b', one dot product per state as a sweep would form it. The half
    state is diag(a) K diag(b), whose rows equal _half_row's bit for bit."""
    a, kb, b, kta, b_next, kb_next = zip(*states)
    mass = [float(x @ y) for x, y in zip(a, kb_next)]
    a, kb, b, kta, b_next = map(np.array, (a, kb, b, kta, b_next))
    row_sums = a * kb
    foc1 = np.abs(row_sums - problem.b1).sum(axis=1)
    res2 = np.abs(b * kta - problem.b2).sum(axis=1)
    foc2 = np.abs(b_next * kta - problem.b2).sum(axis=1)
    return [(f + problem.gamma * np.log(a), g + problem.gamma * np.log(b_next),
             res2.tolist(), mass, row_sums.sum(axis=1).tolist(),
             foc1.tolist(), foc2.tolist())]


def _half_row(problem: OTProblem, half: tuple):
    """The trace row at the half state (a, kb, b, kta): the plan
    diag(a) K diag(b), whose row sums are a K b and whose column sums are
    b K^T a."""
    a, kb, b, kta = half
    row_sums = a * kb
    return (_l1(row_sums - problem.b1), _l1(b * kta - problem.b2),
            float(row_sums.sum()))


def _neg_lse_rows(gamma: float, scores: np.ndarray) -> np.ndarray:
    # -gamma * log sum_j exp(scores_j / gamma), row-wise, max-shifted; the
    # exponentials are formed in place, one matrix beside scores
    m = scores.max(axis=1)
    terms = scores - m[:, None]
    terms /= gamma
    tail = np.log(np.exp(terms, out=terms).sum(axis=1))
    return -(m + gamma * tail)


def soft_c_transform_1(problem: OTProblem, u2) -> np.ndarray:
    """Exact block-1 maximizer: u1_i = -gamma log sum_j e^{(u2_j - C_ij)/gamma} b2_j.

    After this update the plan's row sums equal b1 exactly (up to roundoff).
    """
    u2 = np.asarray(u2, dtype=float)
    scores = (-problem.cost_matrix + u2[None, :]
              + problem.gamma * problem.log_b2[None, :])
    return _neg_lse_rows(problem.gamma, scores)


def soft_c_transform_2(problem: OTProblem, u1) -> np.ndarray:
    """Column counterpart of soft_c_transform_1; makes column sums equal b2."""
    u1 = np.asarray(u1, dtype=float)
    scores = (-problem.cost_matrix + u1[:, None]
              + problem.gamma * problem.log_b1[:, None])
    return _neg_lse_rows(problem.gamma, scores.T)


class OTConstants(NamedTuple):
    H_gamma: float
    kappa: float
    U_gamma: float
    X_gamma: float


def ot_constants(problem: OTProblem) -> OTConstants:
    """Closed-form certificate constants for the OT instance.

    H bounds the log-ratio of the regularized optimum to the reference,
    kappa the constraint-split conditioning, U the dual iterate radius and
    X the primal iterate mass.
    """
    c_inf = float(problem.cost_matrix.max()) if problem.dim_primal else 0.0
    log_min_b = abs(float(np.log(min(problem.b1.min(), problem.b2.min()))))
    h = log_min_b + 2.0 * c_inf / problem.gamma
    u = 4.0 * c_inf + 2.0 * problem.gamma * log_min_b
    return OTConstants(h, 1.0, u, 1.0)
