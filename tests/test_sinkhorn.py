import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkflow.analysis import (
    check_monotone_sweep,
    check_nonexpansive,
    check_translation_equivariance,
)
from sinkflow import sinkhorn
from sinkflow.blocklp import BlockProblem, DualState, dual_objective, marginals, primal_from_dual, solve
from sinkflow.sinkhorn import OTProblem, ot_constants, soft_c_transform_1, soft_c_transform_2

from conftest import count_block_updates, full_state, random_ot_problem


def small_ot(rng, m1=4, m2=5, gamma=0.5):
    cost = rng.uniform(0.0, 1.0, size=(m1, m2))
    b1 = rng.uniform(0.1, 1.0, size=m1)
    b2 = rng.uniform(0.1, 1.0, size=m2)
    b1 /= b1.sum()
    b2 /= b2.sum()
    return OTProblem(cost, b1, b2, gamma)


# ------------------------------------------------------------- validation


def test_rejects_unnormalized_marginal():
    with pytest.raises(ValueError, match="sum to 1"):
        OTProblem(np.zeros((2, 2)), [0.5, 0.5], [0.3, 0.3], 0.5)


def test_rejects_nonpositive_marginal():
    with pytest.raises(ValueError, match="strictly positive"):
        OTProblem(np.zeros((2, 2)), [1.5, -0.5], [0.5, 0.5], 0.5)
    with pytest.raises(ValueError, match="strictly positive"):
        OTProblem(np.zeros((2, 2)), [1.0, 0.0], [0.5, 0.5], 0.5)


def test_rejects_bad_gamma_and_shape():
    with pytest.raises(ValueError):
        OTProblem(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5], 0.0)
    with pytest.raises(ValueError):
        OTProblem(np.zeros((2, 3)), [0.5, 0.5], [0.5, 0.5], 0.5)


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_rejects_nonfinite_gamma(gamma):
    with pytest.raises(ValueError, match="finite"):
        OTProblem(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5], gamma)


def test_rejects_nonfinite_cost():
    c = np.zeros((2, 2))
    c[0, 1] = np.inf
    with pytest.raises(ValueError):
        OTProblem(c, [0.5, 0.5], [0.5, 0.5], 0.5)


# ------------------------------------------------------- closed-form cases


def test_zero_cost_uniform_fixed_point():
    """With C = 0 and product reference z = b1 (x) b2 the duals stay at zero."""
    m1, m2 = 3, 4
    b1 = np.full(m1, 1.0 / m1)
    b2 = np.full(m2, 1.0 / m2)
    pb = OTProblem(np.zeros((m1, m2)), b1, b2, 0.5)
    u0 = pb.initial_state()
    np.testing.assert_allclose(pb.block_update_1(u0.u2), 0.0, atol=1e-15)
    np.testing.assert_allclose(pb.block_update_2(u0.u1), 0.0, atol=1e-15)
    plan = primal_from_dual(pb, u0).reshape(m1, m2)
    np.testing.assert_allclose(plan, np.outer(b1, b2), atol=1e-15)
    assert dual_objective(pb, u0) == pytest.approx(0.0, abs=1e-15)


def test_single_column_closed_form():
    """m2 = 1 pins the plan to b1, so the block-1 update is explicit."""
    rng = np.random.default_rng(3)
    cost = rng.uniform(0.0, 1.0, size=(4, 1))
    b1 = rng.uniform(0.1, 1.0, size=4)
    b1 /= b1.sum()
    pb = OTProblem(cost, b1, np.array([1.0]), gamma=0.3)
    u2 = rng.normal(size=1)
    u1 = pb.block_update_1(np.array(u2))
    want = cost[:, 0] - u2[0] + 0.3 * np.log(b1) - 0.3 * pb.log_reference
    np.testing.assert_allclose(u1, want, atol=1e-12)


def test_plan_at_zero_is_gibbs():
    rng = np.random.default_rng(5)
    pb = small_ot(rng)
    gibbs = np.exp(pb.log_reference).reshape(pb.m1, pb.m2) * np.exp(-pb.cost_matrix / pb.gamma)
    plan = primal_from_dual(pb, pb.initial_state()).reshape(pb.m1, pb.m2)
    np.testing.assert_allclose(plan, gibbs, rtol=1e-14)


# ------------------------------------------------------------- block FOCs


def test_half_sweep_matches_marginals():
    rng = np.random.default_rng(7)
    for _ in range(10):
        pb = small_ot(rng)
        u2 = rng.normal(size=pb.m2)
        u1 = pb.block_update_1(u2)
        plan = primal_from_dual(pb, DualState(u1, u2)).reshape(pb.m1, pb.m2)
        np.testing.assert_allclose(plan.sum(axis=1), pb.b1, atol=1e-10)
        state = DualState(u1, pb.block_update_2(u1))
        plan = primal_from_dual(pb, state).reshape(pb.m1, pb.m2)
        np.testing.assert_allclose(plan.sum(axis=0), pb.b2, atol=1e-10)
        assert plan.sum() == pytest.approx(1.0, abs=1e-10)


def test_soft_transforms_agree_with_block_updates():
    rng = np.random.default_rng(9)
    pb = small_ot(rng)
    u2 = rng.normal(size=pb.m2)
    np.testing.assert_allclose(soft_c_transform_1(pb, u2), pb.block_update_1(u2), atol=1e-14)
    u1 = rng.normal(size=pb.m1)
    np.testing.assert_allclose(soft_c_transform_2(pb, u1), pb.block_update_2(u1), atol=1e-14)


def test_converged_plan_is_optimal_coupling():
    rng = np.random.default_rng(11)
    pb = small_ot(rng, gamma=0.1)
    state, trace = solve(pb, max_sweeps=5000, residual_tol=1e-12)
    plan = primal_from_dual(pb, state).reshape(pb.m1, pb.m2)
    np.testing.assert_allclose(plan.sum(axis=1), pb.b1, atol=1e-10)
    np.testing.assert_allclose(plan.sum(axis=0), pb.b2, atol=1e-10)
    # at a feasible point the dual objective equals the regularized cost
    x = primal_from_dual(pb, state)
    z = np.exp(pb.log_reference)
    kl = float(np.sum(np.where(x > 0, x * np.log(x / z), 0.0) - x + z))
    f = float(np.dot(pb.cost, x)) + pb.gamma * kl
    assert dual_objective(pb, state) == pytest.approx(f, abs=1e-9)


# --------------------------------------------------------------- constants


def test_constants_frozen_instance():
    cost = np.array([[0.0, 1.0], [0.5, 0.25]])
    b1 = np.array([0.9, 0.1])
    b2 = np.array([0.5, 0.5])
    pb = OTProblem(cost, b1, b2, gamma=0.5)
    c = ot_constants(pb)
    # H = |log 0.1| + 2 * 1 / 0.5, U = 4 * 1 + 2 * 0.5 * |log 0.1|
    assert c.H_gamma == pytest.approx(6.302585092994046)
    assert c.U_gamma == pytest.approx(6.302585092994046)
    assert c.kappa == 1
    assert c.X_gamma == 1.0


def test_constants_scale_with_inverse_gamma():
    rng = np.random.default_rng(21)
    coarse = ot_constants(small_ot(rng, gamma=1.0))
    rng = np.random.default_rng(21)
    fine = ot_constants(small_ot(rng, gamma=0.01))
    assert fine.H_gamma > coarse.H_gamma
    assert fine.X_gamma == coarse.X_gamma == 1.0


# ----------------------------------------------------- operator properties


def test_sweep_nonexpansive_battery():
    rng = np.random.default_rng(13)
    pb = small_ot(rng)
    report = check_nonexpansive(pb, trials=1000, seed=99, tol=1e-12)
    assert report["pass"], report["violations"]


def test_translation_equivariance_battery():
    rng = np.random.default_rng(15)
    pb = small_ot(rng)
    report = check_translation_equivariance(pb, tau=-1, trials=100, seed=7)
    assert report["pass"], report["violations"]


def test_paired_balance_is_exact():
    rng = np.random.default_rng(17)
    pb = small_ot(rng)
    ones1 = pb.apply_A1_adjoint(np.ones(pb.m1))
    ones2 = pb.apply_A2_adjoint(np.ones(pb.m2))
    np.testing.assert_array_equal(ones1 - ones2, np.zeros(pb.dim_primal))


def test_monotone_sweep_battery():
    rng = np.random.default_rng(19)
    pb = small_ot(rng)
    report = check_monotone_sweep(pb, trials=200, seed=3)
    assert report["pass"], report["violations"]


@settings(max_examples=25, deadline=None)
@given(
    m1=st.integers(2, 4),
    m2=st.integers(2, 4),
    gamma=st.floats(0.05, 2.0),
    seed=st.integers(0, 2**16),
)
def test_objective_monotone_under_sweeps(m1, m2, gamma, seed):
    rng = np.random.default_rng(seed)
    pb = small_ot(rng, m1=m1, m2=m2, gamma=gamma)
    state = pb.initial_state()
    prev = dual_objective(pb, state)
    for _ in range(20):
        u1 = pb.block_update_1(state.u2)
        state = DualState(u1, pb.block_update_2(u1))
        cur = dual_objective(pb, state)
        assert cur >= prev - 1e-12
        prev = cur


def test_residuals_shrink_geometrically_when_gamma_large():
    rng = np.random.default_rng(23)
    pb = small_ot(rng, gamma=2.0)
    state = pb.initial_state()
    norms = []
    for _ in range(8):
        u1 = pb.block_update_1(state.u2)
        state = DualState(u1, pb.block_update_2(u1))
        a1x, _, _ = marginals(pb, state)
        norms.append(float(np.abs(a1x - pb.b1).sum()))
    assert norms[-1] < norms[0] * 1e-3


# ------------------------------------------------ stabilised scaling engine


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(sinkhorn, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sinkhorn, name, spy)
    return calls


def _assert_runs_agree(pb, sweeps):
    """The default engine against solve driven by the exact block updates."""
    state, trace = solve(pb, max_sweeps=sweeps)
    ref_state, ref = solve(pb, max_sweeps=sweeps, sweeps=BlockProblem.sweeps(pb))
    np.testing.assert_allclose(trace.F_gamma, ref.F_gamma, rtol=1e-12, atol=0)
    for col in ("res1_l1", "res2_l1", "primal_mass", "foc1", "foc2",
                "half_mass"):
        np.testing.assert_allclose(getattr(trace, col), getattr(ref, col),
                                   rtol=0, atol=1e-12, err_msg=col)
    np.testing.assert_allclose(state.u1, ref_state.u1, rtol=0, atol=1e-10)
    np.testing.assert_allclose(state.u2, ref_state.u2, rtol=0, atol=1e-10)


def test_stabilized_sweeps_are_the_default_and_match_block_updates(monkeypatch):
    """At moderate gamma one epoch covers the run: one soft c-transform."""
    rng = np.random.default_rng(25)
    for m1, m2, gamma in ((4, 5, 0.5), (7, 3, 0.1), (6, 6, 0.02)):
        pb = small_ot(rng, m1, m2, gamma)
        rows = _count_calls(monkeypatch, "soft_c_transform_1")
        cols = _count_calls(monkeypatch, "soft_c_transform_2")
        solve(pb, max_sweeps=150)
        assert (len(rows), len(cols)) == (1, 0)
        _assert_runs_agree(pb, 150)


def test_engine_forms_its_rows_a_run_at_a_time(monkeypatch):
    """A sweep forms its block-1 residual and nothing else of its trace
    row: solve evaluates each full state and each half once, a run of an
    epoch's sweeps per call with 2-D arrays. Only a sweep whose column
    scaling falls back forms its full row when it runs, through blocklp."""
    pb = random_ot_problem(np.random.default_rng(72), 4, 5, 1e-3)
    counts = count_block_updates(pb)
    state_rows = _count_calls(monkeypatch, "_state_row")
    full = _count_calls(monkeypatch, "_scaled_full_rows")
    half = _count_calls(monkeypatch, "_half_rows")
    solve(pb, max_sweeps=600)
    fallbacks = counts["block_update_2"]
    assert fallbacks >= 1
    assert len(state_rows) == fallbacks
    assert sum(len(args[-1]) for args in full) == 600 - fallbacks
    assert sum(len(args[-1]) for args in half) == 600
    # two blocks of up to 456 rows: the full states take at most one call
    # per epoch in each, the halves, which all share one rows, one call
    assert len(full) <= counts["block_update_1"] + 1
    assert len(half) == 2


def test_stabilized_fallback_when_first_column_update_underflows(monkeypatch):
    """Costs x10 at gamma = 1e-4: after the first row update whole columns
    of the kernel underflow to 0, so the column scaling is infinite and the
    sweep finishes with the log-domain column update."""
    rng = np.random.default_rng(27)
    cost = 10.0 * rng.uniform(0.0, 1.0, size=(5, 6))
    b1 = rng.uniform(0.1, 1.0, size=5)
    b2 = rng.uniform(0.1, 1.0, size=6)
    pb = OTProblem(cost, b1 / b1.sum(), b2 / b2.sum(), gamma=1e-4)
    zeros = np.zeros(pb.m2)
    kernel = sinkhorn._kernel(pb, pb.block_update_1(zeros), zeros)
    assert np.any(kernel.sum(axis=0) == 0.0)

    cols = _count_calls(monkeypatch, "soft_c_transform_2")
    sweeps = pb.sweeps()
    u, _ = full_state(next(sweeps))
    assert len(cols) == 1
    # epoch start and fallback are the exact block updates, to the bit
    want_u1 = pb.block_update_1(np.zeros(pb.m2))
    want = DualState(want_u1, pb.block_update_2(want_u1))
    np.testing.assert_array_equal(u.u1, want.u1)
    np.testing.assert_array_equal(u.u2, want.u2)
    _assert_runs_agree(pb, 80)


def test_stabilized_row_guard_when_a_kernel_row_underflows(monkeypatch):
    """A marginal entry at the underflow limit empties its kernel row, so
    K b has a zero and the row scaling is infinite: every sweep then starts
    a new epoch with the exact row update instead of going NaN."""
    cost = 0.1 * np.random.default_rng(29).uniform(0.0, 1.0, size=(3, 4))
    pb = OTProblem(cost, [0.5, 0.5, 5e-324], np.full(4, 0.25), gamma=0.5)
    zeros = np.zeros(pb.m2)
    kernel = sinkhorn._kernel(pb, pb.block_update_1(zeros), zeros)
    assert kernel.sum(axis=1)[2] == 0.0

    rows = _count_calls(monkeypatch, "soft_c_transform_1")
    solve(pb, max_sweeps=20)
    assert len(rows) == 20
    _assert_runs_agree(pb, 20)


def test_stabilized_keeps_duals_of_a_near_underflow_row(monkeypatch):
    """A marginal entry of 1e-320 leaves its row of K b subnormal, with too
    few bits for b1 / (K b); the exact row update must run there instead."""
    cost = np.random.default_rng(0).random((3, 4))
    pb = OTProblem(cost, [0.5, 0.5, 1e-320], np.full(4, 0.25), gamma=0.05)
    ref_state, _ = solve(pb, max_sweeps=50, sweeps=BlockProblem.sweeps(pb))
    rows = _count_calls(monkeypatch, "soft_c_transform_1")
    state, _ = solve(pb, max_sweeps=50)
    np.testing.assert_allclose(state.u1, ref_state.u1, rtol=0, atol=1e-8)
    assert len(rows) == 50
