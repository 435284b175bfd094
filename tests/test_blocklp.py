import csv
import gc
import itertools
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from sinkflow import blocklp, flowsinkhorn
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
)
from sinkflow.flowsinkhorn import FlowProblem, matrix_sweeps
from sinkflow.graph import Graph
from sinkflow.sinkhorn import OTProblem

from conftest import (count_block_updates, full_state, large_budget_edges,
                      random_flow_problem, random_marginals, random_ot_problem)


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
        self.reference_mass = 2.0
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
    assert list(trace.k) == [0]
    assert trace.res1_l1[0] > 0


def test_solve_record_every_keeps_first_and_last():
    _, trace = solve(ToyProblem(gamma=0.05), max_sweeps=17, record_every=5)
    assert trace.k[0] == 0
    assert trace.k[-1] == 17
    assert list(trace.k[1:-1]) == [5, 10, 15]


def test_solve_residual_stop_before_budget():
    pb = ToyProblem()
    _, trace = solve(pb, max_sweeps=500, residual_tol=1e-10)
    assert trace.k[-1] < 500
    assert trace.res1_l1[-1] <= 1e-10


class CountingToy(ToyProblem):
    """ToyProblem whose sweeps count the iterators solve makes, the sweeps
    it draws from them, and the full states and half states solve has them
    evaluate."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.calls = {"sweeps": 0, "next": 0, "full": 0, "half": 0}

    def sweeps(self):
        self.calls["sweeps"] += 1
        full_rows = half_rows = None
        for res1, (rows, full), (h_rows, half) in BlockProblem.sweeps(self):
            self.calls["next"] += 1
            full_rows = full_rows or self._counted("full", rows)
            half_rows = half_rows or self._counted("half", h_rows)
            yield res1, (full_rows, full), (half_rows, half)

    def _counted(self, kind, rows):
        def call(states):
            self.calls[kind] += len(states)
            return rows(states)
        return call


def test_solve_runs_problem_sweeps_by_default():
    pb = CountingToy(gamma=0.2)
    state, trace = solve(pb, max_sweeps=12)
    assert pb.calls == {"sweeps": 1, "next": 12, "full": 12, "half": 12}
    # the returned state is the one the last full state evaluates to
    ref = BlockProblem.sweeps(ToyProblem(gamma=0.2))
    ref_state, _ = full_state(list(itertools.islice(ref, 12))[-1])
    np.testing.assert_array_equal(state.u1, ref_state.u1)
    np.testing.assert_array_equal(state.u2, ref_state.u2)


def test_solve_calls_half_only_on_recorded_rows():
    pb = CountingToy(gamma=0.2)
    _, trace = solve(pb, max_sweeps=35, record_every=10)
    assert list(trace.k) == [0, 10, 20, 30, 35]
    assert pb.calls == {"sweeps": 1, "next": 35, "full": 4, "half": 4}
    assert all(math.isfinite(v) for v in trace.foc1[1:])


def test_solve_call_counts_do_not_depend_on_blocks(monkeypatch):
    monkeypatch.setattr(blocklp, "_BLOCK_FLOATS", 1)
    pb = CountingToy(gamma=0.2)
    solve(pb, max_sweeps=12)
    assert pb.calls == {"sweeps": 1, "next": 12, "full": 12, "half": 12}
    pb = CountingToy(gamma=0.2)
    solve(pb, max_sweeps=35, record_every=10)
    assert pb.calls == {"sweeps": 1, "next": 35, "full": 4, "half": 4}


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


# ----------------------------------------------------------------- blocks

_COLUMNS = ("k", "F_gamma", "res1_l1", "res2_l1", "primal_mass",
            "u1_seminorm", "u2_seminorm", "half_mass", "foc1", "foc2")


def assert_same_rows(trace, ref, rtol=1e-14):
    """Every trace column, the three kept out of the CSV included."""
    for name in _COLUMNS:
        np.testing.assert_allclose(getattr(trace, name), getattr(ref, name),
                                   rtol=rtol, atol=0, equal_nan=True,
                                   err_msg=name)


def solve_in_blocks(monkeypatch, make, budget, **kw):
    """solve(problem, sweeps=...) with _BLOCK_FLOATS set to budget; make
    returns a fresh (problem, sweeps or None) pair."""
    with monkeypatch.context() as m:
        if budget is not None:
            m.setattr(blocklp, "_BLOCK_FLOATS", budget)
        pb, sweeps = make()
        return solve(pb, sweeps=sweeps, **kw)


def _flow_engine():
    pb = random_flow_problem(np.random.default_rng(71), 8, 1e-3)
    return pb, None


def _ot_engine():
    pb = random_ot_problem(np.random.default_rng(72), 4, 5, 1e-3)
    return pb, None


def _matrix_path():
    pb = random_flow_problem(np.random.default_rng(73), 8, 0.5)
    return pb, matrix_sweeps(pb)


def _toy():
    return ToyProblem(gamma=0.2), None


@pytest.mark.parametrize("make, sweeps", [
    (_flow_engine, 600), (_ot_engine, 1500), (_matrix_path, 300),
    (_toy, 100)],
    ids=["flow-engine", "ot-engine", "matrix", "toy"])
def test_blocks_match_one_row_blocks(monkeypatch, make, sweeps):
    """Rows evaluated in blocks equal rows evaluated one at a time, as they
    were before blocks; the two engines run at gamma 1e-3 over at least
    three blocks, with fallbacks inside them."""
    pb, _ = make()
    rows = -(-blocklp._BLOCK_FLOATS // sum(pb.dims_dual))
    if make in (_flow_engine, _ot_engine):
        assert sweeps >= 3 * rows
        counts = count_block_updates(pb)
        solve(pb, max_sweeps=sweeps)
        name = "block_update_1" if make is _flow_engine else "block_update_2"
        assert counts[name] >= 3
    state, trace = solve_in_blocks(monkeypatch, make, None, max_sweeps=sweeps)
    ref_state, ref = solve_in_blocks(monkeypatch, make, 1, max_sweeps=sweeps)
    assert list(trace.k) == list(range(sweeps + 1))
    assert_same_rows(trace, ref)
    np.testing.assert_array_equal(state.u1, ref_state.u1)
    np.testing.assert_array_equal(state.u2, ref_state.u2)


@pytest.mark.parametrize("make, tol, fallback", [
    (_flow_engine, 1e-6, "block_update_1"),
    (_ot_engine, 1e-6, "block_update_2")], ids=["flow-engine", "ot-engine"])
def test_residual_stop_mid_block_matches_one_row_blocks(monkeypatch, make,
                                                        tol, fallback):
    """A residual_tol stop that lands inside a block, after full blocks with
    fallbacks in them, returns the same final duals, the same k and the
    same rows as one-row blocks."""
    pb, _ = make()
    rows = -(-blocklp._BLOCK_FLOATS // sum(pb.dims_dual))
    counts = count_block_updates(pb)
    _, trace = solve(pb, residual_tol=tol, max_sweeps=10**5)
    k = trace.k[-1]
    assert k > rows and k % rows and counts[fallback] >= 3
    state, trace = solve_in_blocks(monkeypatch, make, None, residual_tol=tol,
                                   max_sweeps=10**5)
    ref_state, ref = solve_in_blocks(monkeypatch, make, 1, residual_tol=tol,
                                     max_sweeps=10**5)
    assert list(trace.k) == list(ref.k) == list(range(k + 1))
    assert_same_rows(trace, ref)
    np.testing.assert_array_equal(state.u1, ref_state.u1)
    np.testing.assert_array_equal(state.u2, ref_state.u2)


def test_flow_engine_runs_no_speculative_sweeps():
    """solve draws exactly the sweeps it stops at, and the flow engine runs
    the exact block_update_1 as often as when it formed each full state as
    it went: 41 times in the 1,304 sweeps of this run."""
    pb, _ = _flow_engine()
    counts = count_block_updates(pb)
    drawn = []

    def counted(sweeps):
        for sweep in sweeps:
            drawn.append(1)
            yield sweep

    _, trace = solve(pb, residual_tol=1e-6, max_sweeps=10**5,
                     sweeps=counted(pb.sweeps()))
    assert trace.k[-1] == len(drawn) == 1304
    assert counts["block_update_1"] == 41


def _flow_engine_run(monkeypatch, burst):
    """The residual stop of test_flow_engine_runs_no_speculative_sweeps
    with bursts of at most burst sweeps; also returns the sweeps that
    opened an epoch, by the exact block_update_1 they ran."""
    monkeypatch.setattr(flowsinkhorn, "_BURST_SWEEPS", burst)
    pb, _ = _flow_engine()
    drawn, opened = [], []
    update = pb.block_update_1

    def counted_update(u2):
        opened.append(len(drawn) + 1)
        return update(u2)

    def counted(sweeps):
        for sweep in sweeps:
            drawn.append(1)
            yield sweep

    pb.block_update_1 = counted_update
    state, trace = solve(pb, residual_tol=1e-6, max_sweeps=10**5,
                         sweeps=counted(pb.sweeps()))
    assert trace.k[-1] == len(drawn)
    return state, trace, opened


def test_flow_engine_bursts_match_one_sweep_bursts(monkeypatch):
    """Bursts of 16 sweeps give the same trace, bit for bit in all ten
    columns, and the same final duals as bursts of one sweep, on a run at
    gamma 1e-3 where at least three fallbacks and the residual stop land
    inside a burst."""
    state, trace, opened = _flow_engine_run(monkeypatch, 16)
    ref_state, ref, ref_opened = _flow_engine_run(monkeypatch, 1)
    assert opened == ref_opened
    # the sweeps of each epoch, the last one up to the stop; one that is
    # not a whole number of bursts ends inside a burst
    epochs = np.diff(opened + [trace.k[-1] + 1])
    assert np.count_nonzero(epochs[:-1] % 16) >= 3 and epochs[-1] % 16
    for name in _COLUMNS:
        np.testing.assert_array_equal(getattr(trace, name),
                                      getattr(ref, name), err_msg=name)
    np.testing.assert_array_equal(state.u1, ref_state.u1)
    np.testing.assert_array_equal(state.u2, ref_state.u2)


def test_flow_burst_that_leaves_the_range_does_not_warn():
    """The sweeps a burst computes past a scaling that leaves the range
    divide by zero; none of them warns, whatever the warning filters."""
    pb, _ = _flow_engine()
    counts = count_block_updates(pb)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve(pb, max_sweeps=600)
    assert counts["block_update_1"] >= 3


def test_blocks_keep_record_every_and_the_final_row(monkeypatch):
    # the engine drops the halves of the rows solve does not record
    _, trace = solve_in_blocks(monkeypatch, _flow_engine, None,
                               max_sweeps=1000, record_every=7)
    _, ref = solve_in_blocks(monkeypatch, _flow_engine, 1, max_sweeps=1000,
                             record_every=7)
    assert list(trace.k) == list(range(0, 1000, 7)) + [1000]
    assert_same_rows(trace, ref)


def _raise_overflow():
    raise NumericOverflowError("test overflow")


def overflowing_sweeps(pb, at, where):
    """BlockProblem.sweeps with a NumericOverflowError at sweep `at`: from
    next() itself, from that sweep's half row, which one rows callable
    evaluates together with the halves before it, or from its full state,
    which one rows callable stacks together with the full states before
    it."""
    def half_rows(states):
        for state in states:
            if state is None:
                _raise_overflow()
            yield from state_rows([state])

    def full_rows(states):
        if any(state is None for state in states):
            _raise_overflow()
        return stack(states)

    for k, (res1, (stack, full), (state_rows, half)) in enumerate(
            BlockProblem.sweeps(pb), start=1):
        if k == at:
            if where == "next":
                _raise_overflow()
            if where == "half":
                half = None
            else:
                full = None
        yield res1, (full_rows, full), (half_rows, half)


@pytest.mark.parametrize("where", ["next", "half", "full"])
def test_overflow_mid_block_keeps_the_rows_before_it(monkeypatch, where):
    """A toy block holds 2048 rows, so sweep 20 overflows mid-block; the
    partial trace holds rows 0-19, as with one-row blocks."""
    traces = []
    for budget in (None, 1):
        def make():
            pb = ToyProblem(gamma=0.2)
            return pb, overflowing_sweeps(pb, 20, where)

        with pytest.raises(NumericOverflowError, match="test overflow") as err:
            solve_in_blocks(monkeypatch, make, budget, max_sweeps=50)
        traces.append(err.value.trace)
    trace, ref = traces
    assert list(trace.k) == list(range(20))
    assert_same_rows(trace, ref)


def _block_updates():
    pb = random_flow_problem(np.random.default_rng(74), 8, 1e-3)
    return pb, BlockProblem.sweeps(pb)


@pytest.mark.parametrize("make", [
    _block_updates, _matrix_path, _flow_engine, _ot_engine],
    ids=["block-updates", "matrix", "flow-engine", "ot-engine"])
def test_sweeps_yield_a_state_a_row_and_a_half(make):
    """Each shipped iterator yields (res1, (rows, full), (rows, half)): the
    stopping residual as a float; a callable that maps a list of full states
    to their stacks (U1, U2, res2, mass), a row or a float per state; and a
    callable that maps a list of half states to their rows of three floats.
    The residual is the one at the duals the full state evaluates to."""
    pb, sweeps = make()
    m1, m2 = pb.dims_dual
    for res1, (full_rows, full), (rows, half) in itertools.islice(
            sweeps or pb.sweeps(), 40):
        assert type(res1) is float
        assert callable(full_rows) and callable(rows)
        u1, u2, res2, mass = full_rows([full])
        assert u1.shape == (1, m1) and u2.shape == (1, m2)
        assert len(res2) == len(mass) == 1
        a1x, _, _ = marginals(pb, DualState(u1[0], u2[0]))
        assert res1 == pytest.approx(float(np.abs(a1x - pb.b1).sum()),
                                     rel=1e-9, abs=1e-12)
        (half_row,) = rows([half])
        assert len(half_row) == 3 and all(type(v) is float for v in half_row)


def _state_arrays(state):
    """The arrays a deferred state holds: its items, or those of the pairs
    (burst buffer, row) it is made of."""
    for item in state:
        if isinstance(item, np.ndarray):
            yield item
        elif isinstance(item, (list, tuple)):
            yield from _state_arrays(item)


@pytest.mark.parametrize("make", [
    lambda: random_flow_problem(np.random.default_rng(75), 9, 0.3),
    lambda: random_ot_problem(np.random.default_rng(76), 4, 5, 0.3)],
    ids=["flow-engine", "ot-engine"])
def test_no_engine_keeps_the_halves_solve_drops(make):
    """A thinned run drops most full states and halves: after 1,000 more
    sweeps the arrays of an early sweep's full state and half state, the
    flow engine's burst buffers among them, are freed, and a sweep that is
    kept still evaluates to the exact block updates' duals, full row and
    half row."""
    pb = make()
    sweeps = pb.sweeps()
    next(sweeps)  # opens the first epoch
    _, (_, full), (_, half) = next(sweeps)
    assert isinstance(half, (list, tuple))  # an absorbed half
    arrays = list(_state_arrays([full, half]))
    assert arrays
    freed = [weakref.ref(array) for array in arrays]
    del arrays, full, half
    for _ in range(1000):
        sweep = next(sweeps)
    assert all(ref() is None for ref in freed)
    ref = BlockProblem.sweeps(pb)
    for _ in range(1002):
        ref_sweep = next(ref)
    (u, row), (ref_u, ref_row) = full_state(sweep), full_state(ref_sweep)
    np.testing.assert_allclose(u.u1, ref_u.u1, rtol=1e-9, atol=1e-15)
    np.testing.assert_allclose(u.u2, ref_u.u2, rtol=1e-9, atol=1e-15)
    np.testing.assert_allclose(row, ref_row, rtol=1e-9, atol=1e-15)
    (rows, half), (ref_rows, ref_half) = sweep[2], ref_sweep[2]
    np.testing.assert_allclose(list(rows([half])), list(ref_rows([ref_half])),
                               rtol=1e-9, atol=1e-15)


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


def test_trace_csv_text_is_that_of_python_float_columns(tmp_path):
    """Rows extended from np.float64 values, Python floats and ints are
    written as the %d,%r text of the Python ints and floats they equal,
    -0.0, 1e-300 and inf included, and are read back as int and float."""
    values = [np.float64(-0.0), 1e-300, math.inf, 3, np.float64(0.1),
              -2.5e-17, 1, np.float64(1e300), -0.0]
    n = len(values)
    # column j holds values rotated by j, so each column gets every value
    columns = [values[j:] + values[:j] for j in range(9)]
    k = [1, np.int64(2), *range(3, n + 1)]
    trace = ConvergenceTrace(0.5, 2.0)
    trace.append(0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    trace.extend(k, *columns)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    rows = [(0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)] + [
        (int(k[i]), *(float(col[i]) for col in columns[:6]))
        for i in range(n)]
    assert path.read_text() == "".join(
        [ConvergenceTrace.CSV_HEADER + "\n"]
        + ["%d,%r,%r,%r,%r,%r,%r\n" % row for row in rows])
    assert all(type(v) is int for v in trace.k)
    for name in _COLUMNS[1:]:
        assert all(type(v) is float for v in getattr(trace, name)), name
    assert math.copysign(1.0, trace.F_gamma[1]) == -1.0


def _retained_bytes(make):
    """The bytes tracemalloc sees freed when the object make() returns is
    dropped, that is, what that object keeps alive."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = make()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del kept
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_trace_memory_per_row():
    """A stride-1 trace keeps 8 bytes per column and row, with the arrays'
    spare room, under 112 bytes per row; the same rows as lists of Python
    ints and floats, the layout before typed columns, keep about 320."""
    sweeps = 3000
    per_row = _retained_bytes(
        lambda: solve(ToyProblem(gamma=0.2), max_sweeps=sweeps)[1]
    ) / (sweeps + 1)
    assert per_row <= 112
    _, trace = solve(ToyProblem(gamma=0.2), max_sweeps=sweeps)
    assert len(trace) == sweeps + 1
    as_lists = _retained_bytes(
        lambda: {name: list(getattr(trace, name)) for name in _COLUMNS}
    ) / (sweeps + 1)
    assert as_lists > 112


def _flow_problem_footprint():
    """What a FlowProblem keeps beyond its Graph, in p-vectors."""
    rng = np.random.default_rng(0)
    n = 20_000
    g = Graph(n, large_budget_edges(rng, n))
    mu1, mu2 = random_marginals(rng, n), random_marginals(rng, n)
    return _retained_bytes(lambda: FlowProblem(g, mu1, mu2, 0.05)) / (8 * g.p)


def _ot_problem_footprint():
    """What an OTProblem keeps beyond its cost matrix, in plan-sized
    arrays."""
    rng = np.random.default_rng(0)
    m = 200
    cost = rng.random((m, m))
    b1, b2 = random_marginals(rng, m), random_marginals(rng, m)
    return _retained_bytes(lambda: OTProblem(cost, b1, b2, 0.05)) / (8 * m * m)


@pytest.mark.parametrize("footprint, bound", [
    (_flow_problem_footprint, 5.0),
    (_ot_problem_footprint, 1.1),
], ids=["flow", "ot"])
def test_problem_keeps_one_copy_of_its_reference(footprint, bound):
    """A constant flow reference is one float, not per-arc arrays: a
    FlowProblem on 53k arcs keeps w_eff, its cost (2 p), b2 and the
    n-vectors r and b1, 4.75 p-vectors. An OTProblem keeps log z, one
    plan, and sums z only at construction. With z and log z as arrays
    beside them the two read 10.75 and 2.01."""
    assert footprint() <= bound


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
