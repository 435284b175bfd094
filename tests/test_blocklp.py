import csv
import math

import numpy as np
import pytest

from sinkflow import blocklp
from sinkflow.blocklp import (
    BlockProblem,
    ConvergenceTrace,
    DualState,
    NumericOverflowError,
    cost_and_dual,
    dual_objective,
    marginals,
    operator_norm_1to1,
    plan_schedule,
    primal_from_dual,
    schedule_gamma,
    solve,
    solve_scheduled,
)
from sinkflow.flowsinkhorn import FlowProblem
from sinkflow.graph import Graph
from sinkflow.sinkhorn import OTProblem


class ToyProblem(BlockProblem):
    """Two variables, two scalar constraints: x1 + x2 = b, x1 - x2 = 0.

    Small enough that both block maximizers have two-line closed forms:
    the block-1 update is a scalar smoothed max, the block-2 update is the
    constant -1/2 (it equalizes the two cost-tilted entries).
    """

    def __init__(self, gamma=0.5, b=1.0, cost=(1.0, 2.0)):
        self.dim_primal = 2
        self.dims_dual = (1, 1)
        self.b1 = np.array([b])
        self.b2 = np.array([0.0])
        self.cost = np.asarray(cost, dtype=float)
        self.reference = np.ones(2)
        self.log_reference = np.zeros(2)
        self.gamma = gamma
        self.label = "toy"

    def apply_A1(self, x):
        return np.array([x[0] + x[1]])

    def apply_A2(self, x):
        return np.array([x[0] - x[1]])

    def apply_A1_adjoint(self, u1):
        return np.array([u1[0], u1[0]])

    def apply_A2_adjoint(self, u2):
        return np.array([u2[0], -u2[0]])

    def block_update_1(self, u2):
        g = self.gamma
        e1 = (u2[0] - self.cost[0]) / g
        e2 = (-u2[0] - self.cost[1]) / g
        m = max(e1, e2)
        lse = m + math.log(math.exp(e1 - m) + math.exp(e2 - m))
        return np.array([g * math.log(self.b1[0]) - g * lse])

    def block_update_2(self, u1):
        return np.array([(self.cost[0] - self.cost[1]) / 2.0])


def test_primal_from_dual_hand_value():
    pb = ToyProblem()
    x = primal_from_dual(pb, DualState(np.array([1.0]), np.array([-0.5])))
    # exponents: (1 - 0.5 - 1)/0.5 = -1 and (1 + 0.5 - 2)/0.5 = -1
    np.testing.assert_allclose(x, [math.exp(-1.0)] * 2)


def test_dual_objective_at_zero():
    pb = ToyProblem()
    # F(0) = 0.5 * (2 - e^-2 - e^-4)
    assert dual_objective(pb, pb.initial_state()) == pytest.approx(
        0.9231745389373266, abs=1e-15
    )


def test_primal_overflow_is_reported():
    pb = ToyProblem(gamma=0.1, cost=(-500.0, 2.0))
    with pytest.raises(NumericOverflowError, match="log value"):
        primal_from_dual(pb, pb.initial_state())


def test_gradient_matches_residuals():
    """dF/du = b - A x(u), checked by central differences."""
    pb = ToyProblem(gamma=0.7)
    rng = np.random.default_rng(4)
    for _ in range(10):
        u = DualState(rng.normal(size=1), rng.normal(size=1))
        a1x, a2x, _ = marginals(pb, u)
        r1, r2 = a1x - pb.b1, a2x - pb.b2
        h = 1e-6
        for block, r in ((0, r1), (1, r2)):
            up = DualState(u.u1.copy(), u.u2.copy())
            dn = DualState(u.u1.copy(), u.u2.copy())
            (up.u1 if block == 0 else up.u2)[0] += h
            (dn.u1 if block == 0 else dn.u2)[0] -= h
            fd = (dual_objective(pb, up) - dual_objective(pb, dn)) / (2 * h)
            assert fd == pytest.approx(-r[0], abs=1e-7)


def test_block_updates_satisfy_their_constraint():
    pb = ToyProblem(gamma=0.3)
    rng = np.random.default_rng(8)
    for _ in range(10):
        u2 = rng.normal(size=1)
        u1 = pb.block_update_1(u2)
        x = primal_from_dual(pb, DualState(u1, u2))
        assert pb.apply_A1(x)[0] == pytest.approx(pb.b1[0], abs=1e-12)
        x = primal_from_dual(pb, DualState(u1, pb.block_update_2(u1)))
        assert pb.apply_A2(x)[0] == pytest.approx(0.0, abs=1e-12)


def test_block_updates_are_maximizers():
    pb = ToyProblem(gamma=0.4)
    rng = np.random.default_rng(12)
    u2 = np.array([0.3])
    star = pb.block_update_1(u2)
    best = dual_objective(pb, DualState(star, u2))
    for _ in range(25):
        other = star + rng.normal(scale=0.5, size=1)
        assert dual_objective(pb, DualState(other, u2)) <= best + 1e-12


# ------------------------------------------------------------------ solve


def test_solve_reaches_fixed_point():
    pb = ToyProblem()
    state, trace = solve(pb, max_sweeps=100, residual_tol=1e-13)
    a1x, a2x, _ = marginals(pb, state)
    assert abs(a1x[0] - pb.b1[0]) <= 1e-13
    assert abs(a2x[0] - pb.b2[0]) <= 1e-12
    assert trace.check_monotone()
    again = pb.block_update_1(state.u2)
    assert again[0] == pytest.approx(state.u1[0], abs=1e-12)


def test_solve_requires_a_stopping_rule():
    with pytest.raises(ValueError):
        solve(ToyProblem())


def test_solve_zero_sweeps_records_start_row():
    _, trace = solve(ToyProblem(), max_sweeps=0)
    assert trace.k == [0]
    assert trace.res1_l1[0] > 0


def test_solve_record_every_keeps_first_and_last():
    _, trace = solve(ToyProblem(gamma=0.05), max_sweeps=17, record_every=5)
    assert trace.k[0] == 0
    assert trace.k[-1] == 17
    assert trace.k[1:-1] == [5, 10, 15]


def test_solve_residual_stop_before_budget():
    pb = ToyProblem()
    _, trace = solve(pb, max_sweeps=500, residual_tol=1e-10)
    assert trace.k[-1] < 500
    assert trace.res1_l1[-1] <= 1e-10


class CountingToy(ToyProblem):
    """ToyProblem whose sweeps count the calls solve makes to them."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.calls = {"sweeps": 0, "full": 0, "half": 0}

    def sweeps(self):
        self.calls["sweeps"] += 1
        for u, full, half in BlockProblem.sweeps(self):
            yield u, self._counted("full", full), self._counted("half", half)

    def _counted(self, name, fn):
        def call():
            self.calls[name] += 1
            return fn()
        return call


def test_solve_runs_problem_sweeps_by_default():
    pb = CountingToy(gamma=0.2)
    solve(pb, max_sweeps=12)
    assert pb.calls == {"sweeps": 1, "full": 12, "half": 12}


def test_solve_calls_half_only_on_recorded_rows():
    pb = CountingToy(gamma=0.2)
    _, trace = solve(pb, max_sweeps=35, record_every=10)
    assert trace.k == [0, 10, 20, 30, 35]
    assert pb.calls == {"sweeps": 1, "full": 35, "half": 4}
    assert all(math.isfinite(v) for v in trace.foc1[1:])


def test_solve_half_none_leaves_half_columns_nan():
    pb = ToyProblem(gamma=0.2)

    def no_half():
        for u, full, _ in BlockProblem.sweeps(pb):
            yield u, full, None

    _, trace = solve(pb, max_sweeps=5, sweeps=no_half())
    _, ref = solve(pb, max_sweeps=5)
    assert all(math.isnan(v) for v in trace.foc1 + trace.res2_l1[1:]
               + trace.half_mass)
    assert trace.F_gamma == ref.F_gamma
    assert trace.res1_l1 == ref.res1_l1
    assert trace.foc2[1:] == ref.foc2[1:]


def test_marginals_match_the_primal():
    pb = ToyProblem(gamma=0.3)
    u = DualState(np.array([0.4]), np.array([-0.2]))
    x = primal_from_dual(pb, u)
    a1x, a2x, mass = marginals(pb, u)
    np.testing.assert_array_equal(a1x, pb.apply_A1(x))
    np.testing.assert_array_equal(a2x, pb.apply_A2(x))
    assert mass == float(x.sum())


def test_cost_and_dual_form_one_primal(monkeypatch):
    pb = ToyProblem(gamma=0.3)
    u = DualState(np.array([0.4]), np.array([-0.2]))
    expected = (float(pb.cost @ primal_from_dual(pb, u)), dual_objective(pb, u))
    calls = []

    def spy(*args):
        calls.append(args)
        return primal_from_dual(*args)

    monkeypatch.setattr(blocklp, "primal_from_dual", spy)
    assert cost_and_dual(pb, u) == expected
    assert len(calls) == 1


def test_solve_attaches_partial_trace_on_overflow():
    pb = ToyProblem(gamma=0.01, cost=(-50.0, 2.0))
    with pytest.raises(NumericOverflowError) as err:
        solve(pb, max_sweeps=10)
    assert err.value.trace is not None


def test_trace_rows_monotone_and_half_diagnostics():
    pb = ToyProblem(gamma=0.2)
    _, trace = solve(pb, max_sweeps=30)
    assert trace.check_monotone(slack=0.0) or trace.check_monotone(slack=1e-12)
    # block FOCs hold right after each half update on every recorded sweep
    assert all(f <= 1e-10 for f in trace.foc1[1:])
    assert all(f <= 1e-10 for f in trace.foc2[1:])
    assert all(m > 0 for m in trace.half_mass[1:])


def test_check_monotone_slack():
    t = ConvergenceTrace(0.5, 2.0)
    for i, f in enumerate([0.0, 1.0, 1.0 - 1e-13]):
        t.append(i, f, 0, 0, 1, 0, 0)
    assert t.check_monotone(slack=1e-12)
    assert not t.check_monotone(slack=1e-14)


def test_trace_csv_round_trip(tmp_path):
    pb = ToyProblem(gamma=0.15)
    _, trace = solve(pb, max_sweeps=7)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert ",".join(rows[0]) == ConvergenceTrace.CSV_HEADER
    assert len(rows) == len(trace.k) + 1
    for i, row in enumerate(rows[1:]):
        assert int(row[0]) == trace.k[i]
        assert float(row[1]) == trace.F_gamma[i]
        assert float(row[2]) == trace.res1_l1[i]
        assert float(row[4]) == trace.primal_mass[i]


# -------------------------------------------------------------- scheduling


def test_schedule_gamma_example():
    assert schedule_gamma(1.0, 1.0, 21) == pytest.approx(0.16422936937652554)


def test_schedule_gamma_rejects_bad_input():
    with pytest.raises(ValueError):
        schedule_gamma(0.0, 1.0, 21)
    with pytest.raises(ValueError):
        schedule_gamma(1.0, -1.0, 21)
    with pytest.raises(ValueError):
        schedule_gamma(math.nan, 1.0, 21)
    with pytest.raises(ValueError):
        schedule_gamma(1.0, 1.0, 2)


def test_plan_schedule_example_d21():
    gamma, k = plan_schedule(1.0, 1.0, 1.0, 1.0, 1.0, 21)
    assert gamma == pytest.approx(1.0 / (2.0 * math.log(21)))
    assert k == 195


def test_plan_schedule_positivity_checks():
    with pytest.raises(ValueError):
        plan_schedule(1.0, 1.0, 0.0, 1.0, 1.0, 21)
    with pytest.raises(ValueError):
        plan_schedule(1.0, 1.0, 1.0, 1.0, -2.0, 21)


def test_solve_scheduled_runs_planned_budget():
    state, trace, planned_k, fell_back = solve_scheduled(
        ToyProblem(gamma=schedule_gamma(0.9, 1.0, 21)), 0.9, X0=1.0, X=1.0,
        U=1.0, A_norm=1.0, d=21,
    )
    assert not fell_back
    assert planned_k == math.ceil(64 * math.log(21) / 0.81)
    assert trace.k[-1] == planned_k


def test_solve_scheduled_fallback_on_huge_budget():
    state, trace, planned_k, fell_back = solve_scheduled(
        ToyProblem(gamma=schedule_gamma(1.0, 1.0, 21)), 1.0, X0=1.0, X=1e6,
        U=10.0, A_norm=2.0, d=21, sweep_cap=1000, fallback_tol=1e-8,
    )
    assert fell_back
    assert planned_k > 1000
    assert trace.res1_l1[-1] <= 1e-8 or trace.k[-1] == 1000


def test_solve_scheduled_rejects_problem_at_other_gamma():
    with pytest.raises(ValueError, match="gamma"):
        solve_scheduled(ToyProblem(gamma=0.5), 0.9, X0=1.0, X=1.0, U=1.0,
                        A_norm=1.0, d=21)


# ---------------------------------------------------------- operator norm


def test_operator_norm_probe_toy():
    assert operator_norm_1to1(ToyProblem()) == 2.0  # no closed form: probed


def test_operator_norm_prefers_closed_form():
    pb = ToyProblem()
    pb.op_norm_1to1 = 7.0
    assert operator_norm_1to1(pb) == 7.0


def test_operator_norm_closed_forms_match_the_probe():
    """The shipped instances' op_norm_1to1 = 2.0 against coordinate probing."""
    rng = np.random.default_rng(14)
    flow = FlowProblem(Graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5),
                                 (0, 3, 1.5)]),
                       [0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4], 0.5)
    ot = OTProblem(rng.random((3, 4)), [0.2, 0.3, 0.5],
                   [0.25, 0.25, 0.25, 0.25], 0.5)
    for pb in (flow, ot):
        assert operator_norm_1to1(pb) == 2.0
        pb.op_norm_1to1 = None
        assert operator_norm_1to1(pb) == 2.0
