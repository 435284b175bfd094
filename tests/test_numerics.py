import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import lse_kernels
from sinkflow.numerics import (
    SCALING_LIMIT,
    in_scaling_range,
    kl_divergence,
    variation_seminorm,
)
from reference import phi_root

mp.mp.dps = 50

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


# ------------------------------------------------------------- log-sum-exp
# The solvers' own log-sum-exps: the dense rows of the OT block updates and
# the arc segments of the flow block update (conftest.lse_kernels).


def test_log_sum_exp_matches_mpmath():
    rng = np.random.default_rng(1)
    for gamma in (0.01, 0.5, 3.0):
        for _ in range(50):
            s = rng.uniform(-20, 20, size=rng.integers(1, 9))
            want = gamma * mp.log(mp.fsum(mp.e ** (mp.mpf(x) / gamma) for x in s))
            for lse in lse_kernels(gamma, s.size):
                got = lse(s)
                assert abs(got - float(want)) <= 1e-12 * max(1.0, abs(float(want)))


@given(
    st.lists(finite_floats, min_size=1, max_size=8),
    st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
)
def test_log_sum_exp_shift_invariance(values, c):
    s = np.array(values)
    for lse in lse_kernels(0.7, s.size):
        base = lse(s)
        shifted = lse(s + c)
        assert abs(shifted - (base + c)) <= 1e-9 * max(1.0, abs(base + c))


def test_log_sum_exp_singleton_is_exact():
    for lse in lse_kernels(0.3, 1):
        assert lse([17.25]) == 17.25


def test_log_sum_exp_bounds_the_max():
    s = np.array([-1e5, 3.0, 1e5])
    for lse in lse_kernels(0.01, s.size):
        out = lse(s)
        assert np.isfinite(out)
        assert 1e5 <= out <= 1e5 + 0.01 * np.log(3)


# ------------------------------------------------------------------- phi_root


def test_phi_root_residual_bound():
    """Quadratic residual within 1e-9 * max(1, u) on 10^4 mixed samples.

    Positive t runs all the way to 1e30: the conjugate form keeps the
    residual near eps * u there. Negative t is capped at 300 because the
    root then sits near |t| and the roundoff residual scales with t^2, so
    beyond roughly 1e4 no float64 root can meet an absolute 1e-9 bound.
    """
    rng = np.random.default_rng(0xB7E6)
    n = 10_000
    t_pos = 10.0 ** rng.uniform(-12.0, 30.0, n // 2)
    t_neg = -(10.0 ** rng.uniform(-12.0, np.log10(300.0), n - n // 2))
    t = np.concatenate([t_pos, t_neg, [1e30, 0.0, 0.0]])
    u = 10.0 ** rng.uniform(-10.0, 10.0, t.size)
    u[-3:] = [1.0, 1e8, 0.0]
    s = phi_root(t, u)
    assert np.all(s >= 0.0)
    resid = np.abs(s * s + t * s - u)
    assert np.all(resid <= 1e-9 * np.maximum(1.0, u))


def test_phi_root_matches_mpmath():
    rng = np.random.default_rng(2)
    for _ in range(300):
        t = float(rng.uniform(-100, 100))
        u = float(10.0 ** rng.uniform(-8, 8))
        want = (-mp.mpf(t) + mp.sqrt(mp.mpf(t) ** 2 + 4 * mp.mpf(u))) / 2
        got = phi_root(t, u)
        assert abs(got - float(want)) <= 1e-13 * float(want)


def test_phi_root_extreme_coefficient():
    # root of s^2 + 1e30 s - 1 = 0 is 1e-30 to first order; the textbook
    # difference needs ~61 significant digits before it stops cancelling
    got = phi_root(1e30, 1.0)
    with mp.workdps(120):
        want = (-mp.mpf(1e30) + mp.sqrt(mp.mpf(1e30) ** 2 + 4)) / 2
        assert abs(got - float(want)) <= 1e-12 * float(want)


def test_phi_root_edge_cases():
    assert phi_root(0.0, 0.0) == 0.0
    assert phi_root(5.0, 0.0) == 0.0
    assert phi_root(-3.0, 0.0) == 3.0
    assert phi_root(0.0, 4.0) == 2.0
    out = phi_root(np.array([1.0, -1.0]), np.array([2.0, 2.0]))
    assert out.shape == (2,)
    assert isinstance(phi_root(1.0, 1.0), float)


def test_phi_root_rejects_negative_u():
    with pytest.raises(ValueError):
        phi_root(1.0, -1e-9)


# -------------------------------------------------------------- kl_divergence


def test_kl_divergence_hand_values():
    assert kl_divergence([1.0], [1.0]) == 0.0
    want = 1.0 * np.log(1.0 / 3.0) - 1.0 + 3.0
    assert abs(kl_divergence([1.0], [3.0]) - want) < 1e-15
    # zero x entries contribute z
    assert abs(kl_divergence([0.0, 1.0], [0.5, 1.0]) - 0.5) < 1e-15


def test_kl_divergence_infinite_off_support():
    assert kl_divergence([1.0], [0.0]) == float("inf")
    assert kl_divergence([0.0], [0.0]) == 0.0


def test_kl_divergence_input_checks():
    with pytest.raises(ValueError):
        kl_divergence([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        kl_divergence([-1.0], [1.0])
    with pytest.raises(ValueError):
        kl_divergence([1.0], [-1.0])


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=6),
    st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=6),
)
def test_kl_divergence_nonnegative(xs, zs):
    k = min(len(xs), len(zs))
    assert kl_divergence(xs[:k], zs[:k]) >= -1e-12


def test_kl_divergence_matches_mpmath():
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.uniform(0.0, 5.0, 5)
        z = rng.uniform(0.1, 5.0, 5)
        want = mp.fsum(
            mp.mpf(a) * mp.log(mp.mpf(a) / mp.mpf(b)) - a + b
            for a, b in zip(x, z)
            if a > 0
        ) + mp.fsum(mp.mpf(b) for a, b in zip(x, z) if a == 0)
        assert abs(kl_divergence(x, z) - float(want)) <= 1e-12 * max(
            1.0, abs(float(want))
        )


def test_pinsker_max_mass_form():
    """KL(p||q) >= ||p-q||_1^2 / (2 max(||p||_1, ||q||_1)) on 10^4 pairs."""
    rng = np.random.default_rng(0xB7E6)
    for _ in range(10_000):
        k = int(rng.integers(1, 9))
        scale_p, scale_q = 10.0 ** rng.uniform(-3, 3, 2)
        p = rng.uniform(1e-4, 1.0, k) * scale_p
        q = rng.uniform(1e-4, 1.0, k) * scale_q
        lhs = kl_divergence(p, q)
        denom = 2.0 * max(p.sum(), q.sum())
        rhs = np.abs(p - q).sum() ** 2 / denom
        assert lhs >= rhs - 1e-12 * max(1.0, rhs)


def test_pinsker_first_mass_form_needs_mass_ordering():
    # with ||p||_1 >= ||q||_1 the first-argument mass is the max, so the
    # 2 ||p||_1 denominator is valid there
    rng = np.random.default_rng(11)
    for _ in range(2000):
        k = int(rng.integers(1, 6))
        p = rng.uniform(1e-3, 2.0, k)
        q = rng.uniform(1e-3, 2.0, k)
        if p.sum() < q.sum():
            p, q = q, p
        assert kl_divergence(p, q) >= np.abs(p - q).sum() ** 2 / (2.0 * p.sum()) - 1e-12
    # ... and is false without it: this pair undershoots the claimed bound
    p, q = np.array([1.0]), np.array([3.0])
    assert kl_divergence(p, q) < np.abs(p - q).sum() ** 2 / (2.0 * p.sum())


# -------------------------------------------------------- variation_seminorm


def test_variation_seminorm_hand_values():
    assert variation_seminorm([3.0]) == 0.0
    assert variation_seminorm([1.0, 5.0]) == 2.0
    assert variation_seminorm([-2.0, 0.0, 6.0]) == 4.0


@given(
    st.lists(finite_floats, min_size=1, max_size=8),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
def test_variation_seminorm_translation_invariant(values, c):
    v = np.array(values)
    assert variation_seminorm(v + c) == pytest.approx(
        variation_seminorm(v), abs=1e-9 * max(1.0, abs(c))
    )


@given(st.lists(finite_floats, min_size=1, max_size=8))
def test_variation_seminorm_homogeneous(values):
    v = np.array(values)
    assert variation_seminorm(-2.5 * v) == pytest.approx(
        2.5 * variation_seminorm(v), rel=1e-12, abs=1e-300
    )


def test_variation_seminorm_of_a_stack_is_per_row():
    rng = np.random.default_rng(31)
    rows = rng.normal(size=(5, 7)) * 10.0 ** rng.uniform(-3, 3, (5, 1))
    values = variation_seminorm(rows)
    assert values.shape == (5,)
    assert values.tolist() == [variation_seminorm(row) for row in rows]


def test_in_scaling_range_bounds_and_nan():
    assert in_scaling_range(np.array([1.0 / SCALING_LIMIT, 1.0, SCALING_LIMIT]))
    assert not in_scaling_range(np.array([1.0, SCALING_LIMIT * 1.0000001]))
    assert not in_scaling_range(np.array([0.99 / SCALING_LIMIT, 1.0]))
    assert not in_scaling_range(np.array([1.0, np.nan]))
    assert not in_scaling_range(np.array([np.inf, 1.0]))
    # a stack of scalings: one value per row, each its row's alone
    rows = np.array([[1.0 / SCALING_LIMIT, 1.0, SCALING_LIMIT],
                     [1.0, SCALING_LIMIT * 1.0000001, 1.0],
                     [0.99 / SCALING_LIMIT, 1.0, 1.0],
                     [1.0, np.nan, 1.0],
                     [np.inf, 1.0, 1.0]])
    assert in_scaling_range(rows).tolist() == [True] + [False] * 4
    assert in_scaling_range(rows).tolist() == [
        bool(in_scaling_range(row)) for row in rows]


def test_variation_seminorm_empty_rejected():
    with pytest.raises(ValueError):
        variation_seminorm([])
