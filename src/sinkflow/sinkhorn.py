"""Balanced entropic optimal transport as a two-block instance.

The primal variable is the transport plan, flattened row-major; block 1
constrains row sums to b1, block 2 column sums to b2. The reference is the
product b1 (x) b2, so the plan at u = 0 is the independence coupling tilted
by the cost. Both block updates are soft c-transforms evaluated in the log
domain, which keeps gamma down to 1e-3 usable.

solve() runs OTProblem.sweeps(), a log-stabilised scaling iteration: the
same iterates as the two block updates in turn, at the cost of two
matrix-vector products per sweep, with the soft c-transforms as its
fallback. A sweep yields its block-1 residual and defers its duals and the
rest of its trace row, which solve evaluates only for the sweeps it
records, an epoch's run at a time.
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
    _l1,
    _stacked,
    _state_row,
)
from .numerics import MASS_TOL, in_scaling_range

__all__ = [
    "OTProblem",
    "soft_c_transform_1",
    "soft_c_transform_2",
    "ot_constants",
    "OTConstants",
]

_TINY = np.finfo(float).tiny


class OTProblem(BlockProblem):
    """Entropic OT instance: cost matrix, marginals, regularization.

    Args:
      cost: (m1, m2) array, finite and entrywise >= 0.
      b1: length-m1 marginal, finite and strictly positive, total mass 1.
      b2: length-m2 marginal, same requirements.
      gamma: regularization strength, positive and finite.

    The reference z = b1 (x) b2 is kept only as its log and its mass.
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
        self.log_b1 = np.log(b1)
        self.log_b2 = np.log(b2)

        self.dim_primal = m1 * m2
        self.dims_dual = (m1, m2)
        self.cost = cost.ravel()
        self.log_reference = (self.log_b1[:, None] + self.log_b2[None, :]).ravel()
        # Z = sum(z) over its entries: the closed form 1.0 moves its last bits
        self.reference_mass = float(np.exp(self.log_reference).sum())
        self.op_norm_1to1 = 2.0
        self.label = f"ot-{m1}x{m2}-gamma{gamma:g}"

    def apply_A1(self, x):
        return x.reshape(self.m1, self.m2).sum(axis=1)

    def apply_A2(self, x):
        return x.reshape(self.m1, self.m2).sum(axis=0)

    def apply_A1_adjoint(self, u1):
        return np.repeat(u1, self.m2)

    def apply_A2_adjoint(self, u2):
        return np.tile(u2, self.m1)

    def block_update_1(self, u2):
        return soft_c_transform_1(self, u2)

    def block_update_2(self, u1):
        return soft_c_transform_2(self, u1)

    def sweeps(self) -> Iterator[Sweep]:
        """Log-stabilised scaling sweeps from u = 0, for solve().

        Schmitzer's absorption scheme (SIAM J. Sci. Comput. 2019). An epoch
        starts with an exact log-domain block_update_1 and absorbs the duals
        (f, g) reached into the kernel K = x(f, g), with scalings a = b = 1.
        Within the epoch the state is u = (f + gamma log a, g + gamma log b),
        and a sweep is a = b1 / (K b), b = b2 / (K^T a): the two block updates
        in scaling form. Both trace rows come from K b, K^T a and the
        previous K b, so a sweep costs two matrix-vector products and never
        forms the plan. The block-1 residual is formed every sweep; the
        full state is deferred as (a, b, K^T a, K b), with K^T a the one
        before the update of b, and _scaled_full_rows forms the duals, the
        block-2 residual and the mass for a run of them. The half state is
        (a, K b, b, K^T a) before the update of b, and _half_rows
        evaluates a run of them together. A new scaling that is not finite
        or leaves the scaling range ends the epoch and the exact log-domain
        update takes its place: for a, that update opens a new epoch in the
        same sweep, on the u2 of the full state reached; for b, the next
        sweep opens one. The rows of K sum to
        b1, so a stays within the range of 1/b unless a marginal entry sits
        near the float64 limit. Its row of K b is then subnormal or 0, and a
        is not formed from it: the exact update runs instead.
        """
        gamma, b1, b2 = self.gamma, self.b1, self.b2
        u2 = self.initial_state().u2
        half_rows = partial(_half_rows, self)
        kernel = None  # no epoch open
        while True:
            if kernel is not None:
                # a subnormal or zero entry of K b leaves b1 / (K b) too few bits
                if kb.min() < _TINY:
                    kernel = None
                else:
                    a = b1 / kb
                    if not in_scaling_range(a):
                        kernel = None
                if kernel is None:
                    u2 = g + gamma * np.log(b)
            if kernel is None:
                f, g = self.block_update_1(u2), u2
                kernel = _kernel(self, f, g)
                full_rows = partial(_scaled_full_rows, self, f, g)
                a, b = np.ones(self.m1), np.ones(self.m2)
                kb = kernel.sum(axis=1)
            kta = a @ kernel
            half = half_rows, (a, kb, b, kta)
            with np.errstate(divide="ignore", over="ignore"):
                b_next = b2 / kta
            if in_scaling_range(b_next):
                b = b_next
                kb = kernel @ b
                yield _l1(a * kb - b1), (full_rows, (a, b, kta, kb)), half
            else:
                u1 = f + gamma * np.log(a)
                u2 = self.block_update_2(u1)
                kernel = None
                res1, res2, mass = _state_row(self, DualState(u1, u2))
                yield res1, (_stacked, (u1, u2, res2, mass)), half


def _kernel(problem: OTProblem, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The plan x(f, g) as an (m1, m2) matrix, built in place."""
    k = np.add.outer(f, g)
    k -= problem.cost_matrix
    k /= problem.gamma
    k += problem.log_reference.reshape(problem.m1, problem.m2)
    return np.exp(k, out=k)


def _scaled_full_rows(problem: OTProblem, f: np.ndarray, g: np.ndarray,
                      states: list):
    """The Stacks of the full states (a, b, kta, kb) of one epoch, at the
    plans diag(a) K diag(b): the duals (f + gamma log a, g + gamma log b),
    ||b K^T a - b2||_1 with the K^T a formed before b, and the mass a K b,
    one dot product per state as a sweep would form it. The l1 norms equal
    the per-state ones bit for bit."""
    mass = [float(a @ kb) for a, _, _, kb in states]
    a, b, kta, _ = (np.array(col) for col in zip(*states))
    res2 = np.abs(b * kta - problem.b2).sum(axis=1)
    return (f + problem.gamma * np.log(a), g + problem.gamma * np.log(b),
            res2.tolist(), mass)


def _half_rows(problem: OTProblem, states: list):
    """_scaled_row for each state (a, kb, b, kta), with 2-D row sums over
    the states; the l1 norms equal _scaled_row's bit for bit, the masses
    only up to roundoff."""
    a, kb, b, kta = (np.array(col) for col in zip(*states))
    row_sums = a * kb
    res1 = np.abs(row_sums - problem.b1).sum(axis=1)
    res2 = np.abs(b * kta - problem.b2).sum(axis=1)
    return zip(res1.tolist(), res2.tolist(), row_sums.sum(axis=1).tolist())


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
