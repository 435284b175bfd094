import numpy as np
import pytest

from sinkflow.analysis import (
    DEFAULT_SEED,
    SignedOrderSpec,
    check_monotone_sweep,
    check_nonexpansive,
    check_translation_equivariance,
    default_signed_order,
    verify_ascent,
    verify_rate,
)
from sinkflow.blocklp import (ConvergenceTrace, dual_objective,
                              schedule_gamma, solve)
from sinkflow.flowsinkhorn import FlowProblem
from sinkflow.graph import Graph
from sinkflow.oracle import exact_ot
from sinkflow.sinkhorn import OTProblem, ot_constants

from conftest import random_ot_problem
from reference import plan_schedule


def ot_run(gamma=0.2, sweeps=400, seed=71):
    rng = np.random.default_rng(seed)
    pb = random_ot_problem(rng, 4, 5, gamma=gamma)
    state, trace = solve(pb, max_sweeps=sweeps)
    return pb, state, trace


def crafted_trace(rows, gamma=1.0, a_norm=1.0):
    t = ConvergenceTrace(gamma, a_norm)
    for row in rows:
        t.append(*row[:7], half_mass=row[7] if len(row) > 7 else 1.0)
    return t


# -------------------------------------------------------------- rate cert


def test_verify_rate_on_real_run():
    pb, state, trace = ot_run()
    _, ref_trace = solve(pb, max_sweeps=5000, residual_tol=1e-14)
    f_star = ref_trace.F_gamma[-1]
    cert = verify_rate(trace, f_star)
    assert cert.passed, cert
    assert cert.X_hat <= 1.0 + 1e-9
    assert cert.max_k_times_gap <= cert.envelope_bound


def test_verify_rate_rejects_empty_trace():
    with pytest.raises(ValueError, match="empty"):
        verify_rate(ConvergenceTrace(1.0, 1.0), 0.0)


def test_verify_rate_rejects_stale_reference():
    _, _, trace = ot_run(sweeps=50)
    with pytest.raises(ValueError, match="reference"):
        verify_rate(trace, min(trace.F_gamma) - 1.0)


def test_verify_rate_fails_on_slow_trace():
    # constant gap 1 with near-zero measured constants: k * gap outgrows
    # the envelope and the certificate must say so
    rows = [(k, 0.0, 1e-12, 1e-12, 1e-9, 1e-6, 1e-6) for k in range(200)]
    cert = verify_rate(crafted_trace(rows), F_star_ref=1.0)
    assert not cert.passed


def test_verify_rate_reads_gamma_and_norm_from_trace():
    rows = [(0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0),
            (1, 0.5, 0.5, 0.0, 2.0, 1.5, 0.5),
            (2, 0.75, 0.25, 0.0, 1.5, 1.0, 1.25)]
    trace = crafted_trace(rows, gamma=0.5, a_norm=3.0)
    cert = verify_rate(trace, F_star_ref=1.0)
    assert cert.gamma == 0.5 and cert.A_norm == 3.0
    X_hat = max(trace.primal_mass)
    U_hat = max(max(trace.u1_seminorm), max(trace.u2_seminorm))
    assert (X_hat, U_hat) == (cert.X_hat, cert.U_hat) == (2.0, 1.5)
    assert cert.envelope_bound == 8 * X_hat * U_hat**2 * 9.0 / 0.5


# ------------------------------------------------------------ ascent/gap


def test_verify_ascent_on_real_run():
    _, _, trace = ot_run()
    assert verify_ascent(trace)


def test_verify_ascent_needs_stride_one():
    rows = [(0, 0.0, 1, 1, 1, 0, 0), (2, 0.5, 1, 1, 1, 0, 0)]
    with pytest.raises(ValueError, match="stride"):
        verify_ascent(crafted_trace(rows))


def test_verify_ascent_flags_deficient_gain():
    rows = [(0, 0.0, 1.0, 1.0, 1.0, 0, 0), (1, -1.0, 1.0, 1.0, 1.0, 0, 0)]
    assert not verify_ascent(crafted_trace(rows))


@pytest.mark.parametrize("gain,passes", [(0.08, True), (0.06, False)])
def test_verify_ascent_bounds_the_gain_by_pinsker_for_positive_measures(
        gain, passes):
    """From a start of mass 10 to a half state of mass 1 with res1_l1 = 1,
    the bound is 1 / (2 / 3 + 40 / 3) = 1 / 14 at gamma = A = 1: a gain of
    0.08 clears it, one of 0.06 does not."""
    rows = [(0, 0.0, 1.0, 0.0, 10.0, 0, 0), (1, gain, 0.0, 0.0, 1.0, 0, 0, 1.0)]
    assert verify_ascent(crafted_trace(rows)) is passes


def test_verify_ascent_trivial_trace():
    assert verify_ascent(crafted_trace([(0, 0.0, 1, 1, 1, 0, 0)]))


def test_verify_gap_residual_on_real_run():
    """The gap is bounded by 2 * U_hat * ||r1||_1 at every row."""
    pb, _, trace = ot_run()
    _, ref_trace = solve(pb, max_sweeps=5000, residual_tol=1e-14)
    f_star = ref_trace.F_gamma[-1]
    cert = verify_rate(trace, f_star)
    for f, res in zip(trace.F_gamma, trace.res1_l1):
        assert f_star - f <= 2.0 * cert.U_hat * res + 1e-8


def test_real_run_sits_inside_apriori_radii():
    """Recorded masses stay under ||b||_1 U / gamma + d e^{-C_min/gamma},
    and block-1 seminorms under u0 + 2 kappa (||C||_inf + gamma H), at
    u0 = 0."""
    pb, state, trace = ot_run(gamma=0.5)
    c = ot_constants(pb)
    mass_cap = (2.0 * c.U_gamma / pb.gamma + pb.dim_primal
                * float(np.exp(-float(pb.cost_matrix.min()) / pb.gamma)))
    assert max(trace.primal_mass) <= mass_cap
    radius = 2.0 * c.kappa * (float(pb.cost_matrix.max())
                              + pb.gamma * c.H_gamma)
    assert max(trace.u1_seminorm) <= radius


# ------------------------------------------------------------ signed order


def test_signed_order_rejects_bad_sigma():
    with pytest.raises(ValueError, match="must be"):
        SignedOrderSpec(np.array([1.0, 0.5]))


def test_signed_order_validate_catches_wrong_pattern():
    rng = np.random.default_rng(73)
    pb = random_ot_problem(rng, 3, 3, gamma=0.5)
    with pytest.raises(ValueError, match="fails at coordinate"):
        SignedOrderSpec(-np.ones(pb.dim_primal)).validate(pb)
    with pytest.raises(ValueError, match="length"):
        SignedOrderSpec(np.ones(4)).validate(pb)


def test_default_signed_order_shapes():
    rng = np.random.default_rng(75)
    ot = random_ot_problem(rng, 3, 4, gamma=0.5)
    np.testing.assert_array_equal(default_signed_order(ot).sigma, np.ones(12))
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    fl = FlowProblem(g, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 0.5)
    sigma = default_signed_order(fl).sigma
    np.testing.assert_array_equal(sigma[: g.p], np.ones(g.p))
    np.testing.assert_array_equal(sigma[g.p :], -np.ones(g.p))
    default_signed_order(fl).validate(fl)
    default_signed_order(ot).validate(ot)


# ------------------------------------------------------------- batteries


def test_reports_are_json_ready_and_seeded():
    rng = np.random.default_rng(77)
    pb = random_ot_problem(rng, 3, 3, gamma=0.5)
    report = check_nonexpansive(pb, trials=50, seed=123)
    assert report["check"] == "nonexpansive"
    assert report["instance"] == pb.label
    assert report["seed"] == 123
    assert report["trials"] == 50
    assert report["pass"] is True
    assert report["violations"] == []


def test_default_seed_is_used():
    rng = np.random.default_rng(79)
    pb = random_ot_problem(rng, 3, 3, gamma=0.5)
    assert check_nonexpansive(pb, trials=10)["seed"] == DEFAULT_SEED


def test_wrong_tau_is_reported_not_raised():
    rng = np.random.default_rng(81)
    pb = random_ot_problem(rng, 3, 4, gamma=0.5)
    report = check_translation_equivariance(pb, tau=1, trials=10, seed=5)
    assert not report["pass"]
    kinds = {v["kind"] for v in report["violations"]}
    assert "paired-balance" in kinds


def test_invalid_tau_raises():
    rng = np.random.default_rng(83)
    pb = random_ot_problem(rng, 3, 3, gamma=0.5)
    with pytest.raises(ValueError, match="tau"):
        check_translation_equivariance(pb, tau=2)


def test_monotone_check_uses_validated_sigma():
    rng = np.random.default_rng(85)
    pb = random_ot_problem(rng, 3, 3, gamma=0.5)
    with pytest.raises(ValueError, match="fails at coordinate"):
        check_monotone_sweep(pb, sigma=SignedOrderSpec(-np.ones(pb.dim_primal)))


# --------------------------------------------------- scheduled end-to-end


def test_scheduled_run_meets_eps_guarantee():
    """Full pipeline: pick gamma and sweep budget from eps, run, compare
    the reached dual value to the exact LP optimum."""
    rng = np.random.default_rng(87)
    cost = rng.uniform(0.0, 1.0, size=(3, 3))
    b1 = np.full(3, 1.0 / 3.0)
    b2 = np.full(3, 1.0 / 3.0)
    exact, _ = exact_ot(cost, b1, b2)

    eps = 0.5
    d = cost.size
    gamma = schedule_gamma(eps, 1.0, d)
    problem = OTProblem(cost, b1, b2, gamma)
    c = ot_constants(problem)
    _, planned_k = plan_schedule(eps, 1.0, c.X_gamma, c.U_gamma, 2.0, d)
    assert planned_k <= 10**6
    state, trace = solve(problem, max_sweeps=planned_k, residual_tol=0.0)
    reached = dual_objective(problem, state)
    assert abs(reached - exact) <= eps
