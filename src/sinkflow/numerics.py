"""Scalar and vector kernels shared by every solver path.

All functions are pure and deterministic: reductions run in index order on
contiguous float64 arrays, so repeated calls are bit-identical.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "phi_root",
    "kl_divergence",
    "variation_seminorm",
]


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


def variation_seminorm(v) -> float:
    """Half the spread (max - min) / 2: the distance of v to the constants.

    Translation invariant by construction; zero exactly for constant vectors.
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("variation_seminorm of an empty vector")
    return 0.5 * (float(v.max()) - float(v.min()))
