"""Scalar and vector kernels shared by every solver path, and the one check
of a pair of measures that the solvers and the oracle accept.

All functions are pure and deterministic: reductions run in index order on
contiguous float64 arrays, so repeated calls are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "kl_divergence",
    "variation_seminorm",
    "SCALING_LIMIT",
    "in_scaling_range",
    "MASS_TOL",
    "measure_pair",
]

# Two measures whose totals differ by at most MASS_TOL carry equal mass.
MASS_TOL = 1e-12

# A stabilised engine's scaling leaving [1/SCALING_LIMIT, SCALING_LIMIT]
# ends its epoch; see OTProblem.sweeps and FlowProblem.sweeps.
SCALING_LIMIT = 1e10


def kl_divergence(x, z) -> float:
    """Unnormalized KL divergence sum(x*log(x/z) - x + z).

    Zero entries of x contribute z_i (the x*log(x) limit); a zero entry of z
    under positive x makes the divergence infinite. Nonnegative, and zero
    exactly when x == z entrywise.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != z.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {z.shape}")
    if np.any(x < 0.0) or np.any(z < 0.0):
        raise ValueError("kl_divergence needs nonnegative inputs")
    supp = x > 0.0
    if np.any(z[supp] == 0.0):
        return float("inf")
    xs = x[supp]
    return float(np.sum(xs * np.log(xs / z[supp])) - x.sum() + z.sum())


def variation_seminorm(v):
    """Half the spread (max - min) / 2: the distance of v to the constants.

    Translation invariant by construction; zero exactly for constant vectors.
    A 2-D v is a stack of vectors, one per row, and gives an array with one
    value per row, each equal to the value of its row alone.
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("variation_seminorm of an empty vector")
    if v.ndim == 2:
        return 0.5 * (v.max(axis=1) - v.min(axis=1))
    return 0.5 * (float(v.max()) - float(v.min()))


def in_scaling_range(s: np.ndarray) -> np.bool_ | np.ndarray:
    """Whether every entry of s lies in [1/SCALING_LIMIT, SCALING_LIMIT].

    False for NaN entries too. A 2-D s is a stack of scalings, one per row,
    and gives a bool array with one value per row, each equal to the value
    of its row alone.
    """
    return ((1.0 / SCALING_LIMIT <= s.min(axis=-1))
            & (s.max(axis=-1) <= SCALING_LIMIT))


def measure_pair(b1, b2, n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """Two measures, on n1 and on n2 vertices, as float arrays.

    Raises:
      ValueError: on a wrong length, an entry that is not finite or is
        negative, or totals that differ by more than MASS_TOL.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if b1.shape != (n1,) or b2.shape != (n2,):
        raise ValueError("marginals must have one entry per vertex")
    if not (np.all((0 <= b1) & (b1 < math.inf))
            and np.all((0 <= b2) & (b2 < math.inf))):
        raise ValueError("marginals must be finite and nonnegative")
    imbalance = float(b1.sum() - b2.sum())
    if not abs(imbalance) <= MASS_TOL:
        raise ValueError(f"marginals must balance, difference {imbalance:.3e}")
    return b1, b2
