import csv
import gc
import itertools
import math
import tracemalloc
import warnings
import weakref
from functools import partial

import numpy as np
import pytest

from sinkflow import blocklp, cli, flowsinkhorn
from sinkflow.analysis import verify_ascent
from sinkflow.blocklp import (
    BlockProblem,
    ConvergenceTrace,
    DualState,
    NumericOverflowError,
    cost_and_dual,
    dual_objective,
    marginals,
    primal_from_dual,
    schedule_gamma,
    solve,
)
from sinkflow.flowsinkhorn import FlowProblem
from sinkflow.graph import Graph, spanning_tree_flow
from sinkflow.oracle import exact_w1
from sinkflow.sinkhorn import OTProblem

from conftest import (count_block_updates, criterion_2_graph, full_state,
                      half_row, large_budget_edges, random_flow_problem,
                      random_marginals, random_ot_problem, sweep_stacks,
                      traced_peak)
from reference import matrix_sweeps, operator_norm_1to1, plan_schedule


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
        self.op_norm_1to1 = 2.0
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
    it draws from them, and the states solve has them evaluate."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.calls = {"sweeps": 0, "next": 0, "rows": 0}

    def sweeps(self, u0=None):
        self.calls["sweeps"] += 1
        counted = None
        for res1, (rows, state) in BlockProblem.sweeps(self, u0):
            self.calls["next"] += 1
            counted = counted or self._counted(rows)
            yield res1, (counted, state)

    def _counted(self, rows):
        def call(states):
            self.calls["rows"] += len(states)
            return rows(states)
        return call


def test_solve_runs_problem_sweeps_by_default():
    pb = CountingToy(gamma=0.2)
    state, trace = solve(pb, max_sweeps=12)
    assert pb.calls == {"sweeps": 1, "next": 12, "rows": 12}
    # the returned state is the one the last full state evaluates to
    ref = BlockProblem.sweeps(ToyProblem(gamma=0.2))
    ref_state, _ = full_state(list(itertools.islice(ref, 12))[-1])
    np.testing.assert_array_equal(state.u1, ref_state.u1)
    np.testing.assert_array_equal(state.u2, ref_state.u2)


def test_solve_calls_half_only_on_recorded_rows():
    pb = CountingToy(gamma=0.2)
    _, trace = solve(pb, max_sweeps=35, record_every=10)
    assert list(trace.k) == [0, 10, 20, 30, 35]
    assert pb.calls == {"sweeps": 1, "next": 35, "rows": 4}
    assert all(math.isfinite(v) for v in trace.foc1[1:])


def test_solve_call_counts_do_not_depend_on_blocks(monkeypatch):
    monkeypatch.setattr(blocklp, "_BLOCK_FLOATS", 1)
    pb = CountingToy(gamma=0.2)
    solve(pb, max_sweeps=12)
    assert pb.calls == {"sweeps": 1, "next": 12, "rows": 12}
    pb = CountingToy(gamma=0.2)
    solve(pb, max_sweeps=35, record_every=10)
    assert pb.calls == {"sweeps": 1, "next": 35, "rows": 4}


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
    next() itself, or from that sweep's half row, which one rows callable
    evaluates together with the sweeps before it."""
    def half_row(half):
        if half is None:
            _raise_overflow()
        return blocklp._state_row(pb, half)

    rows = partial(blocklp._formed_stacks, half_row)
    for k, (res1, (_, state)) in enumerate(BlockProblem.sweeps(pb), start=1):
        if k == at:
            if where == "next":
                _raise_overflow()
            state = (*state[:4], None)
        yield res1, (rows, state)


@pytest.mark.parametrize("where", ["next", "half"])
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
    """Each shipped iterator yields (res1, (rows, state)): the stopping
    residual as a float, then a callable that maps a list of states to
    their stacks (U1, U2, res2, mass, half_mass, foc1, foc2), a row or a
    float per state, the full state's duals and the half state's row
    among them. The residual is the one at the duals the full state
    evaluates to."""
    pb, sweeps = make()
    m1, m2 = pb.dims_dual
    for sweep in itertools.islice(sweeps or pb.sweeps(), 40):
        res1, (rows, _) = sweep
        assert type(res1) is float and callable(rows)
        u1, u2, *columns = sweep_stacks(sweep)
        assert u1.shape == (1, m1) and u2.shape == (1, m2)
        assert [len(col) for col in columns] == [1] * 5
        a1x, _, _ = marginals(pb, DualState(u1[0], u2[0]))
        assert res1 == pytest.approx(float(np.abs(a1x - pb.b1).sum()),
                                     rel=1e-9, abs=1e-12)
        assert all(type(v) is float for v in half_row(sweep))


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
    """A thinned run drops most states: after 1,000 more sweeps the arrays
    of an early sweep's state, the flow engine's burst buffers among them,
    are freed, and a sweep that is kept still evaluates to the exact block
    updates' duals, full row and half row."""
    pb = make()
    sweeps = pb.sweeps()
    next(sweeps)  # opens the first epoch
    _, (_, state) = next(sweeps)
    # an absorbed sweep, whose half is no exact DualState
    assert not any(isinstance(item, DualState) for item in state)
    arrays = list(_state_arrays(state))
    assert arrays
    freed = [weakref.ref(array) for array in arrays]
    del arrays, state
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
    np.testing.assert_allclose(half_row(sweep), half_row(ref_sweep),
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
    def freed():
        kept = make()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del kept
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0]

    return traced_peak(freed)[0]


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
    """The toy's op_norm_1to1 = 2.0 against coordinate probing, and solve
    records it as the trace's a_norm."""
    pb = ToyProblem()
    assert operator_norm_1to1(pb) == pb.op_norm_1to1 == 2.0
    assert solve(pb, max_sweeps=1)[1].a_norm == 2.0


def test_operator_norm_closed_forms_match_the_probe():
    """The shipped instances' op_norm_1to1 = 2.0 against coordinate
    probing, and solve records it as the trace's a_norm."""
    rng = np.random.default_rng(14)
    flow = FlowProblem(Graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5),
                                 (0, 3, 1.5)]),
                       [0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4], 0.5)
    ot = OTProblem(rng.random((3, 4)), [0.2, 0.3, 0.5],
                   [0.25, 0.25, 0.25, 0.25], 0.5)
    for pb in (flow, ot):
        assert operator_norm_1to1(pb) == pb.op_norm_1to1 == 2.0
        assert solve(pb, max_sweeps=1)[1].a_norm == 2.0


def _block_updates_ot():
    pb = random_ot_problem(np.random.default_rng(77), 4, 5, 1e-3)
    return pb, BlockProblem.sweeps(pb)


def _coarse_start(pb, sweeps=300):
    """A warm start for pb: the state of a solve of pb at 4 * gamma."""
    state, _ = solve(pb.with_gamma(4.0 * pb.gamma), max_sweeps=sweeps)
    return state


@pytest.mark.parametrize("make", [
    _flow_engine, _ot_engine, _block_updates, _block_updates_ot],
    ids=["flow-engine", "ot-engine", "block-updates-flow",
         "block-updates-ot"])
def test_start_at_the_initial_state_is_the_default_start(make):
    """solve(pb, u0=pb.initial_state()) and sweeps(u0) at the initial state,
    and sweeps(u0, omega=1.0), run the iterates of a start without u0, bit
    for bit: all ten trace columns and the final state, over 600 sweeps
    with fallbacks."""
    pb, sweeps = make()
    u0 = pb.initial_state()
    iteration = type(pb).sweeps if sweeps is None else BlockProblem.sweeps
    state, trace = solve(pb, max_sweeps=600, sweeps=sweeps)
    for warm in (None if sweeps is None else BlockProblem.sweeps(pb, u0),
                 iteration(pb, u0, omega=1.0)):
        ref_state, ref = solve(pb, max_sweeps=600, sweeps=warm, u0=u0)
        assert list(trace.k) == list(ref.k) == list(range(601))
        assert_same_rows(trace, ref, rtol=0)
        np.testing.assert_array_equal(state.u1, ref_state.u1)
        np.testing.assert_array_equal(state.u2, ref_state.u2)


@pytest.mark.parametrize("make", [
    lambda: random_flow_problem(np.random.default_rng(78), 10, 0.05),
    lambda: random_flow_problem(np.random.default_rng(79), 12, 1e-3),
    lambda: random_ot_problem(np.random.default_rng(80), 6, 7, 0.05),
    lambda: random_ot_problem(np.random.default_rng(81), 8, 6, 1e-3,
                              cost_scale=10.0)],
    ids=["flow-0.05", "flow-1e-3", "ot-0.05", "ot-1e-3"])
def test_warm_started_engines_match_block_updates(make):
    """From the same nonzero u0, a coarser solve's state, each engine
    agrees row by row with the exact block updates in turn, as criterion 7
    asks of a start at 0: F to 1e-8 relative, res1_l1 and the final duals
    to 1e-8. Row 0 is u0's own row in both."""
    pb = make()
    u0 = _coarse_start(pb)
    assert np.ptp(u0.u1) > 0.0
    state, trace = solve(pb, max_sweeps=200, u0=u0)
    ref_state, ref = solve(pb, max_sweeps=200, u0=u0,
                           sweeps=BlockProblem.sweeps(pb, u0))
    assert trace.F_gamma[0] == ref.F_gamma[0] == dual_objective(pb, u0)
    np.testing.assert_allclose(trace.F_gamma, ref.F_gamma, rtol=1e-8)
    np.testing.assert_allclose(trace.res1_l1, ref.res1_l1, rtol=0, atol=1e-8)
    np.testing.assert_allclose(state.u1, ref_state.u1, rtol=0, atol=1e-8)
    np.testing.assert_allclose(state.u2, ref_state.u2, rtol=0, atol=1e-8)


@pytest.mark.parametrize("make, fallback", [
    (lambda: random_flow_problem(np.random.default_rng(82), 10, 1e-3),
     "block_update_1"),
    (lambda: random_ot_problem(np.random.default_rng(83), 6, 9, 1e-3,
                               cost_scale=10.0), "block_update_2")],
    ids=["flow-engine", "ot-engine"])
def test_warm_started_traces_pass_the_ascent_audits(make, fallback):
    """A run at gamma 1e-3 from a state solved at 4 gamma, as a solve
    after a rung starts: F ascends, verify_ascent holds on every sweep,
    and both first-order conditions sit at criterion 5's roundoff
    bounds."""
    pb = make()
    u0 = _coarse_start(pb)
    counts = count_block_updates(pb)
    _, trace = solve(pb, max_sweeps=300, u0=u0)
    assert counts[fallback] >= 1
    assert trace.check_monotone(1e-12)
    assert verify_ascent(trace)
    for i in range(1, len(trace)):
        assert trace.foc1[i] <= 1e-9 * max(1.0, trace.half_mass[i])
        assert trace.foc2[i] <= 1e-9 * max(1.0, trace.primal_mass[i])


_OVERRELAXED_CASES = [
    ("flow-0.05", lambda: random_flow_problem(np.random.default_rng(78), 10,
                                              0.05), _coarse_start, False),
    ("flow-0.2", lambda: random_flow_problem(np.random.default_rng(78), 10,
                                             0.2), _coarse_start, False),
    ("ot-0.05", lambda: random_ot_problem(np.random.default_rng(80), 6, 7,
                                          0.05), _coarse_start, False),
    ("ot-0.2", lambda: random_ot_problem(np.random.default_rng(80), 6, 7,
                                         0.2), _coarse_start, False),
    ("flow-0.05-cold", lambda: random_flow_problem(np.random.default_rng(79),
                                                   10, 0.05),
     lambda pb: pb.initial_state(), True)]


@pytest.mark.parametrize("make, start, drops, memory", [
    pytest.param(make, start, drops, memory,
                 id=name + ("-memory-3" if memory else ""))
    for memory in (0, 3) for name, make, start, drops in _OVERRELAXED_CASES])
def test_overrelaxed_engines_match_overrelaxed_block_updates(
        monkeypatch, make, start, drops, memory):
    """At omega = 1.8 from the same start, a warm one or u = 0, each
    engine agrees row by row with BlockProblem.sweeps(u0, omega=1.8) over
    200 sweeps, with no Anderson steps and with those of memory 3, of
    which both take some: F and the mass to 1e-8 relative, res1_l1 and
    both seminorms to 1e-8. Where the safeguard drops a sweep, both run the
    exact update in its place: from u = 0 an early omega-step lowers F by
    more than F itself; the warm starts run to roundoff, which the
    safeguard does not read as a fall. No scaling leaves its range here,
    where the engine's exact update, which clears the Anderson history,
    and the block updates' step would part. F ascends row by row in
    both."""
    settle, taken = blocklp._Safeguard.settle, []

    def counted(guard, candidate, value):
        kept = settle(guard, candidate, value)
        taken.append(kept)
        return kept

    monkeypatch.setattr(blocklp._Safeguard, "settle", counted)
    pb = make()
    u0 = start(pb)
    counts = count_block_updates(pb)
    _, trace = solve(pb, max_sweeps=200, u0=u0,
                     sweeps=pb.sweeps(u0, omega=1.8, memory=memory))
    assert (counts["block_update_1"] > 1) == drops
    engine_taken = sum(taken)
    _, ref = solve(pb, max_sweeps=200, u0=u0,
                   sweeps=BlockProblem.sweeps(pb, u0, omega=1.8,
                                              memory=memory))
    if memory:
        assert engine_taken and sum(taken) > engine_taken
    else:
        assert not taken
    np.testing.assert_allclose(trace.F_gamma, ref.F_gamma, rtol=1e-8)
    np.testing.assert_allclose(trace.primal_mass, ref.primal_mass,
                               rtol=1e-8)
    for name in ("res1_l1", "u1_seminorm", "u2_seminorm"):
        np.testing.assert_allclose(getattr(trace, name), getattr(ref, name),
                                   rtol=0, atol=1e-8, err_msg=name)
    assert trace.check_monotone() and ref.check_monotone()


def _rung_problem(trial):
    """Criterion-2 graph trial at twice its scheduled gamma, the gamma of
    the --epsilon rung."""
    g, mu1, mu2 = criterion_2_graph(trial)
    eps = 0.05 * exact_w1(g, mu1, mu2)
    x0 = float(spanning_tree_flow(g, mu1, mu2).sum())
    return FlowProblem(g, mu1, mu2, 2 * schedule_gamma(eps, x0, 2 * g.p))


@pytest.mark.parametrize("trial", [7, 8])
def test_overrelaxed_rung_ascends_where_unguarded_steps_fall(trial):
    """The --epsilon rung, an overrelaxed solve at twice the scheduled
    gamma, recorded every sweep, and the block updates' overrelaxed sweeps
    from the same start: F never decreases row to row, through the sweeps
    the safeguard dropped. Negative control: the same steps built by hand
    from the block updates, without the safeguard, lower F on the same
    graph."""
    pb = _rung_problem(trial)
    omega = cli._RUNG_OMEGA
    counts = count_block_updates(pb)
    _, trace = solve(pb, residual_tol=cli._RUNG_TOL, max_sweeps=10**5,
                     sweeps=pb.sweeps(omega=omega))
    assert trace.res1_l1[-1] <= cli._RUNG_TOL
    assert counts["block_update_1"] > 1
    assert trace.check_monotone()
    _, ref = solve(pb, max_sweeps=100,
                   sweeps=BlockProblem.sweeps(pb, omega=omega))
    assert ref.check_monotone()
    u = pb.initial_state()
    F = [dual_objective(pb, u)]
    for k in range(20):
        exact = pb.block_update_1(u.u2)
        u1 = exact if k == 0 else u.u1 + omega * (exact - u.u1)
        u = DualState(u1, pb.block_update_2(u1))
        F.append(dual_objective(pb, u))
    assert any(after < before for before, after in zip(F, F[1:]))


@pytest.mark.parametrize("make", [
    lambda: random_flow_problem(np.random.default_rng(78), 10, 0.2),
    lambda: random_ot_problem(np.random.default_rng(80), 6, 7, 0.05)],
    ids=["flow-0.2", "ot-0.05"])
def test_safeguard_reads_roundoff_as_no_fall(monkeypatch, make):
    """At omega = 1.8 over 200 sweeps from a warm start, which run F to
    its roundoff, the engine opens one epoch and the block updates drop
    no sweep: the F test reads a fall within blocklp._F_SLACK |F| as
    roundoff. Negative control: with no slack both read roundoff as a
    fall, and the engine opens an epoch for each sweep it drops."""
    runs = []
    for slack in (blocklp._F_SLACK, 0.0):
        monkeypatch.setattr(blocklp, "_F_SLACK", slack)
        for engine in (True, False):
            pb = make()
            u0 = _coarse_start(pb)
            counts = count_block_updates(pb)
            iteration = type(pb).sweeps if engine else BlockProblem.sweeps
            _, trace = solve(pb, max_sweeps=200, u0=u0,
                             sweeps=iteration(pb, u0, omega=1.8))
            assert trace.res1_l1[-1] <= 1e-10
            assert trace.check_monotone()
            # the engine's epochs; the block updates' drops, each of which
            # runs block 2 once more
            runs.append(counts["block_update_1"] if engine
                        else counts["block_update_2"] - 200)
    assert runs[:2] == [1, 0]
    assert runs[2] > 10 and runs[3] > 10


class _Affine:
    """The map x -> M x + c of a random contraction M on R^4."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        self.M = q @ np.diag([0.9, 0.5, -0.7, 0.2]) @ q.T
        self.c = rng.standard_normal(4)
        self.fixed = np.linalg.solve(np.eye(4) - self.M, self.c)

    def __call__(self, x):
        return self.M @ x + self.c


def test_anderson_candidate_is_the_least_squares_combination():
    """Over more steps than it holds, _Anderson's candidate is the
    combination sum_i alpha_i y_i of the last memory + 1 pairs (x, y)
    formed from scratch: alpha proportional to (R R^T + ridge I)^-1 1,
    with R the rows y_i - x_i and the ridge _ANDERSON_RIDGE trace(R R^T),
    summing to 1. Without the ridge those weights minimize
    ||sum_i alpha_i (y_i - x_i)||: on an affine map of R^4, iterating
    from each candidate with memory 4 reaches the fixed point in a few
    steps, where plain iteration contracts by 0.9 a step. After clear()
    a step holds one pair and gives no candidate."""
    rng = np.random.default_rng(86)
    f = _Affine(87)
    history = blocklp._Anderson(3, 4)
    pairs = []
    for step in range(9):
        x = rng.standard_normal(4)
        pairs.append((x, f(x)))
        candidate = history.step(*pairs[-1])
        if step == 0:
            assert candidate is None
            continue
        xs, ys = map(np.array, zip(*pairs[-4:]))
        gram = (ys - xs) @ (ys - xs).T
        gram += blocklp._ANDERSON_RIDGE * np.trace(gram) * np.eye(len(xs))
        alpha = np.linalg.solve(gram, np.ones(len(xs)))
        np.testing.assert_allclose(candidate, alpha @ ys / alpha.sum(),
                                   rtol=1e-12, atol=0)
    history = blocklp._Anderson(4, 4)
    x = np.zeros(4)
    for _ in range(10):
        candidate = history.step(x, f(x))
        x = f(x) if candidate is None else candidate
    np.testing.assert_allclose(x, f.fixed, rtol=0, atol=1e-12)
    history.clear()
    assert history.step(x, f(x)) is None


_ANDERSON_ITERATORS = [
    (lambda: random_flow_problem(np.random.default_rng(88), 12, 0.02),
     "sweeps"),
    (lambda: random_ot_problem(np.random.default_rng(89), 8, 9, 0.01),
     "sweeps"),
    (lambda: random_flow_problem(np.random.default_rng(88), 12, 0.02),
     "reference"),
    (lambda: random_ot_problem(np.random.default_rng(89), 8, 9, 0.01),
     "reference")]
_ANDERSON_IDS = ["flow-engine", "ot-engine", "block-updates-flow",
                 "block-updates-ot"]


def _iteration(pb, which):
    return type(pb).sweeps if which == "sweeps" else BlockProblem.sweeps


@pytest.mark.parametrize("make, which", _ANDERSON_ITERATORS,
                         ids=_ANDERSON_IDS)
def test_memory_zero_runs_no_anderson_code(monkeypatch, make, which):
    """sweeps(u0, omega, memory=0) makes no _Anderson and runs the
    iterates of sweeps(u0, omega) bit for bit, at omega = 1.8 and 1: all
    ten trace columns over 300 sweeps from a warm start."""
    def unused(*args):
        raise AssertionError("memory = 0 runs no Anderson code")

    monkeypatch.setattr(blocklp, "_Anderson", unused)
    pb = make()
    u0 = _coarse_start(pb)
    iteration = _iteration(pb, which)
    for omega in (1.8, 1.0):
        _, trace = solve(pb, max_sweeps=300, u0=u0,
                         sweeps=iteration(pb, u0, omega))
        _, ref = solve(pb, max_sweeps=300, u0=u0,
                       sweeps=iteration(pb, u0, omega=omega, memory=0))
        assert_same_rows(trace, ref, rtol=0)


@pytest.mark.parametrize("make, which", _ANDERSON_ITERATORS,
                         ids=_ANDERSON_IDS)
def test_anderson_steps_ascend_in_fewer_sweeps(monkeypatch, make, which):
    """With memory 5 at omega = 1.8, recorded every sweep, each iterator
    forms Anderson candidates, F never falls row to row, and the residual
    1e-9 takes fewer sweeps than at memory 0; at omega = 1 with memory 5
    the same holds against the exact sweeps."""
    taken = []
    step = blocklp._Anderson.step

    def spied(self, x, y):
        candidate = step(self, x, y)
        taken.append(candidate is not None)
        return candidate

    monkeypatch.setattr(blocklp._Anderson, "step", spied)
    pb = make()
    u0 = _coarse_start(pb, sweeps=20)
    iteration = _iteration(pb, which)
    for omega in (1.8, 1.0):
        runs = []
        for memory in (5, 0):
            del taken[:]
            _, trace = solve(pb, residual_tol=1e-9, max_sweeps=10**5, u0=u0,
                             sweeps=iteration(pb, u0, omega, memory))
            assert trace.res1_l1[-1] <= 1e-9
            assert trace.check_monotone()
            assert any(taken) == (memory > 0)
            runs.append(trace.k[-1])
        assert runs[0] < runs[1]


@pytest.mark.parametrize("make, tol", [
    (lambda: _rung_problem(1), cli._RUNG_TOL),
    (lambda: _rung_problem(9), cli._RUNG_TOL),
    (lambda: random_ot_problem(np.random.default_rng(89), 8, 9, 3e-3,
                               cost_scale=10.0), 1e-9)],
    ids=["flow-trial-1", "flow-trial-9", "ot"])
def test_anderson_rung_ascends_where_untested_candidates_fall(
        monkeypatch, make, tol):
    """The --epsilon rung, overrelaxed with Anderson steps at twice
    the scheduled gamma on a criterion-2 graph, and the same steps on a
    small-gamma plan, recorded every sweep: F never falls row to row, the
    engine takes some candidates and rejects others, and the sweep after
    each taken candidate is exact, so its half state meets the block-1
    first-order condition that the omega-sweeps' half states miss.
    Negative control: the same candidates taken without the F test of
    _Safeguard.settle, which still refuses a scaling out of range, lower
    F from row to row."""
    pb = make()
    settle = blocklp._Safeguard.settle
    drawn, taken, rejected = [0], [], []  # sweeps drawn; candidates

    def counted(guard, candidate, value):
        kept = settle(guard, candidate, value)
        (taken if kept else rejected).append(drawn[0])
        return kept

    def untested(guard, candidate, value):
        guard.F = -math.inf  # any F passes; NaN, out of range, does not
        return settle(guard, candidate, value)

    def draws(sweeps):
        for sweep in sweeps:
            drawn[0] += 1
            yield sweep

    runs = []
    for replaced in (counted, untested):
        monkeypatch.setattr(blocklp._Safeguard, "settle", replaced)
        _, trace = solve(pb, residual_tol=tol, max_sweeps=10**5,
                         sweeps=draws(pb.sweeps(omega=cli._RUNG_OMEGA,
                                                memory=cli._RUNG_MEMORY)))
        assert trace.res1_l1[-1] <= tol
        runs.append(trace)
    trace, unguarded = runs
    assert taken and rejected
    assert trace.check_monotone()
    assert not unguarded.check_monotone()
    exact = {k + 1 for k in taken} & set(range(1, len(trace)))
    assert exact
    bound = [1e-9 * max(1.0, m) for m in trace.half_mass]
    assert all(trace.foc1[k] <= bound[k] for k in exact)
    assert any(trace.foc1[k] > bound[k] for k in range(1, len(trace))
               if k not in exact)


def test_solve_without_sweeps_returns_its_start():
    pb = random_flow_problem(np.random.default_rng(84), 6, 0.1)
    u0 = _coarse_start(pb, sweeps=20)
    state, trace = solve(pb, max_sweeps=0, u0=u0)
    assert state is u0
    assert list(trace.k) == [0]
    assert trace.F_gamma[0] == dual_objective(pb, u0)


def test_with_gamma_shares_the_instance_and_matches_a_fresh_build():
    """A problem at another gamma shares every array that does not depend
    on gamma, and runs the iterates of a problem built at that gamma."""
    rng = np.random.default_rng(85)
    for pb, fresh in (
            (random_flow_problem(rng, 8, 0.2), lambda pb, gamma: FlowProblem(
                pb.graph, pb.mu1, pb.mu2, gamma)),
            (random_ot_problem(rng, 4, 5, 0.2), lambda pb, gamma: OTProblem(
                pb.cost_matrix, pb.b1, pb.b2, gamma))):
        other = pb.with_gamma(0.05)
        assert (pb.gamma, other.gamma) == (0.2, 0.05)
        assert other.cost is pb.cost and other.b1 is pb.b1
        assert other.log_reference is pb.log_reference
        assert other.label == fresh(pb, 0.05).label != pb.label
        _, trace = solve(other, max_sweeps=50)
        _, ref = solve(fresh(pb, 0.05), max_sweeps=50)
        assert_same_rows(trace, ref, rtol=0)
