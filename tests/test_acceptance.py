"""Acceptance battery: every committed behavior, end to end, at full scale.

Each test runs one numbered check on frozen seeds at the tolerance the
project commits to (see README), registers a one-line verdict that the
terminal summary prints, and fails loudly if the behavior or its runtime
budget is missed. Traces produced along the way are pooled so the sweep
invariants at the end are audited on every recorded row of every run in
this module rather than on a hand-picked subset.
"""

import functools
import math
import time

import numpy as np

from sinkflow.analysis import (
    check_monotone_sweep,
    check_nonexpansive,
    check_translation_equivariance,
    verify_rate,
)
from sinkflow.blocklp import (
    BlockProblem,
    DualState,
    dual_objective,
    primal_from_dual,
    schedule_gamma,
    solve,
)
from sinkflow.flowsinkhorn import (
    FlowProblem,
    flow_constants,
)
from sinkflow.graph import Graph, spanning_tree_flow
from sinkflow.numerics import kl_divergence, variation_seminorm
from sinkflow.oracle import exact_ot, exact_w1
from sinkflow.sinkhorn import OTProblem, ot_constants

from conftest import (
    ACCEPTANCE_RESULTS,
    count_block_updates,
    floyd_warshall,
    full_state,
    lse_kernels,
    random_connected_graph,
    random_flow_problem,
    random_marginals,
    random_ot_problem,
)
from reference import (
    matrix_sweeps,
    phi_root,
    plan_schedule,
    project_C1,
    project_C2,
    vertex_dual_from_flow,
)

# every trace produced in this module, for the sweep-invariant audit
_TRACES = []


def _keep(label, trace):
    _TRACES.append((label, trace))
    return trace


def _criterion(num, name):
    """Record a (num, name, ok, detail) verdict line for the summary."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            t0 = time.perf_counter()
            try:
                detail = fn()
            except BaseException as err:
                text = str(err).splitlines()[0][:100] if str(err) else type(err).__name__
                ACCEPTANCE_RESULTS.append((num, name, False, text))
                raise
            dt = time.perf_counter() - t0
            ACCEPTANCE_RESULTS.append((num, name, True, f"{detail}; {dt:.2f}s"))

        return run

    return wrap


# ------------------------------------------------------ 1: oracle consistency


@_criterion(1, "oracle consistency")
def test_criterion_1_oracle_consistency():
    """exact_w1 equals exact_ot over geodesic costs on 25 random graphs.

    The geodesic costs come from the tests' floyd_warshall, so the check
    also referees it against the min-cost-flow oracle.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xC1)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(5, 31))
        g = random_connected_graph(rng, n)
        a1 = random_marginals(rng, n)
        a2 = random_marginals(rng, n)
        w_flow = exact_w1(g, a1, a2)
        w_ot, _ = exact_ot(floyd_warshall(g), a1, a2)
        worst = max(worst, abs(w_flow - w_ot))
        assert abs(w_flow - w_ot) <= 1e-8
    dt = time.perf_counter() - t0
    assert dt < 5.0
    return f"25 instances, worst |w1 - ot| {worst:.2e}"


# -------------------------------------------------- 2: scheduled w1 accuracy


@_criterion(2, "scheduled flow accuracy")
def test_criterion_2_scheduled_flow_accuracy():
    """|F_gamma(u^k) - 2 W1| <= eps on 10 random n=20 graphs, eps = 0.05 W1.

    The lifted optimum is 2 W1 because the optimal (f, g) pair carries the
    optimal flow twice. The a-priori sweep count at the scheduled gamma is
    astronomically conservative (~1e19 here), so every instance runs as
    `w1 --gamma G --tol 1e-6` does at the scheduled G: one solve from
    u = 0 to residual 1e-6 under a 1e6-sweep cap, the solve that
    `w1 --epsilon` warm-starts from its rung, checked against the same
    inequality. The flow engine's exact block_update_1 runs on at most 1%
    of the sweeps over the ten runs. As in a traced CLI run, every sweep
    is recorded, so criterion 5 audits every row of these runs.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(0x2A)
    worst_ratio = 0.0
    sweeps = exact = 0
    for trial in range(10):
        g = random_connected_graph(rng, 20)
        mu1 = random_marginals(rng, 20)
        mu2 = random_marginals(rng, 20)
        want = exact_w1(g, mu1, mu2)
        eps = 0.05 * want
        fbar = spanning_tree_flow(g, mu1, mu2)
        x0 = float(fbar.sum()) if fbar.sum() > 0 else 1.0
        d = 2 * g.p
        gamma = schedule_gamma(eps, x0, d)
        problem = FlowProblem(g, mu1, mu2, gamma)
        consts = flow_constants(problem, fbar)
        _, planned_k = plan_schedule(eps, x0, consts.X_gamma, consts.U_gamma,
                                     2.0, d)
        assert planned_k > 10**6, (
            f"trial {trial}: planned k {planned_k:.2e} fit the cap")
        counts = count_block_updates(problem)
        state, trace = solve(problem, residual_tol=1e-6, max_sweeps=10**6)
        _keep(f"c2-trial{trial}", trace)
        gap = abs(trace.F_gamma[-1] - 2.0 * want)
        worst_ratio = max(worst_ratio, gap / eps)
        assert gap <= eps, f"trial {trial}: gap {gap:.3e} > eps {eps:.3e}"
        sweeps += trace.k[-1]
        exact += counts["block_update_1"]
    assert exact <= 0.01 * sweeps, f"{exact} exact updates in {sweeps} sweeps"
    dt = time.perf_counter() - t0
    assert dt < 60.0
    return (f"10 instances, worst gap/eps {worst_ratio:.2f}, all to 1e-6;"
            f" {exact} exact block-1 updates in {sweeps} sweeps")


# ------------------------------------------------------- 3: smoothing bias


@_criterion(3, "smoothing bias bounds")
def test_criterion_3_bias_bounds():
    """Converged 5x5 dual value sits in [F0*, F0* + gamma * bias caps].

    Two caps, both checked: the instance-free gamma * log d with d = 25
    entries, and the sharper gamma * KL(P0* || b1 x b2) computed from the
    exact optimal plan. At residual 1e-8 the leftover optimization slack is
    orders below the 1e-6 allowance, so the lower bound F0* holds as-is.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xD3)
    cost = rng.uniform(0.0, 1.0, size=(5, 5))
    b1 = rng.uniform(0.2, 1.0, 5)
    b1 /= b1.sum()
    b2 = rng.uniform(0.2, 1.0, 5)
    b2 /= b2.sum()
    gamma = 0.02
    problem = OTProblem(cost, b1, b2, gamma)
    state, trace = solve(problem, residual_tol=1e-8, max_sweeps=10**6, record_every=50)
    _keep("c3-ot5x5", trace)
    assert trace.res1_l1[-1] <= 1e-8

    F0, plan0 = exact_ot(cost, b1, b2)
    dual = trace.F_gamma[-1]
    kl_opt = kl_divergence(plan0, np.outer(b1, b2))
    assert F0 <= dual
    assert dual <= F0 + gamma * math.log(25) + 1e-6
    assert dual <= F0 + gamma * kl_opt + 1e-6
    dt = time.perf_counter() - t0
    assert dt < 5.0
    return (
        f"bias {dual - F0:.3e} <= gamma*KL {gamma * kl_opt:.3e}"
        f" <= gamma*log d {gamma * math.log(25):.3e}"
    )


# -------------------------------------------------------- 4: rate envelope


@_criterion(4, "rate envelope")
def test_criterion_4_rate_envelope():
    """max_k k * gap_k within the 8 X U^2 |A|^2 / gamma envelope, both models.

    Measured constants (max recorded mass, max recorded seminorm) feed the
    envelope; the reference optimum comes from a 1e5-sweep run. The a-priori
    constants must dominate the measured ones. For OT the full-state mass is
    exactly 1, the same as the a-priori X, and the measured float sum can
    land an ulp above it, so domination is asserted up to 1e-12 relative.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xF4)
    ot = random_ot_problem(rng, 5, 5, 0.1)
    fl = random_flow_problem(rng, 15, 0.1)
    details = []
    for pb, name in ((ot, "ot"), (fl, "flow")):
        state, trace = solve(pb, max_sweeps=2000, record_every=1)
        _keep(f"c4-{name}", trace)
        ref_state, ref_trace = solve(pb, max_sweeps=10**5, record_every=10**4)
        _keep(f"c4-{name}-ref", ref_trace)
        cert = verify_rate(
            trace, A_norm=2.0, gamma=pb.gamma, F_star_ref=ref_trace.F_gamma[-1]
        )
        assert cert.passed, f"{name}: k*gap {cert.max_k_times_gap:.3e} escaped"
        if name == "ot":
            consts = ot_constants(pb)
        else:
            consts = flow_constants(pb, spanning_tree_flow(pb.graph, pb.mu1, pb.mu2))
        roundoff = 1e-12 * max(1.0, cert.X_hat)
        assert consts.X_gamma >= cert.X_hat - roundoff, f"{name}: X_hat escaped"
        assert consts.U_gamma >= cert.U_hat, f"{name}: U_hat escaped"
        details.append(
            f"{name} k*gap {cert.max_k_times_gap:.2e} <= {cert.envelope_bound:.2e}"
        )
    dt = time.perf_counter() - t0
    assert dt < 30.0
    return "; ".join(details)


# -------------------------------------------------- 6: property battery


@_criterion(6, "property battery")
def test_criterion_6_property_battery():
    """Nonexpansiveness, equivariance, paired balance, signed monotonicity.

    Three instances (the smallest flow problem, a random OT problem, a
    random flow problem): 1000 nonexpansive pairs, 100 translation shifts,
    paired balance probed coordinate by coordinate inside the equivariance
    check, 200 ordered pairs for the monotone sweep; zero violations
    anywhere. Both problem families store the second block with the same
    row orientation, so the balance identity A1^T 1 + tau A2^T 1 = 0 holds
    at tau = -1 for each; tau = +1 is the wrong-sign control and must come
    back as a reported failure, not an exception.
    """
    t0 = time.perf_counter()
    instances = [
        FlowProblem(Graph(2, [(0, 1, 1.0)]), [1.0, 0.0], [0.0, 1.0], 0.5),
        random_ot_problem(np.random.default_rng(0x6A), 4, 4, 0.5),
        random_flow_problem(np.random.default_rng(0x6B), 8, 0.5),
    ]
    checks = 0
    for pb in instances:
        for report in (
            check_nonexpansive(pb, trials=1000),
            check_translation_equivariance(pb, tau=-1, trials=100),
            check_monotone_sweep(pb, trials=200),
        ):
            assert report["pass"], f"{report['check']} on {report['instance']}"
            assert report["violations"] == []
            checks += 1
        control = check_translation_equivariance(pb, tau=1, trials=100)
        assert not control["pass"], "wrong-sign control slipped through"
        kinds = {v["kind"] for v in control["violations"]}
        assert "paired-balance" in kinds
    dt = time.perf_counter() - t0
    assert dt < 20.0
    return f"{checks} batteries clean, 3 wrong-sign controls reported failure"


# ---------------------------------------------------- 7: cross-path equality


@_criterion(7, "cross-path equivalence")
def test_criterion_7_cross_path_equivalence():
    """The matrix path, the exact block updates and the flow engine
    reconstruct the same flows.

    Five random instances at gamma = 0.5, 200 sweeps, per-sweep agreement
    to 1e-8 relative. At gamma = 1e-3 the exact block updates finish 1e4
    sweeps with finite state and nondecreasing objective.

    OT: on five random instances, two of them at gamma = 1e-3 with costs
    x10 so that new epochs and log-domain fallbacks fire, the stabilised
    scaling engine (OTProblem's default sweeps) agrees row by row with
    solve driven by the exact block updates: F to 1e-8 relative, res1_l1
    and the final duals to 1e-8.

    Flow: the same check for the absorbed-kernel engine behind
    FlowProblem's default sweeps, on five random instances, three of them
    at gamma = 1e-3, where the exact block_update_1 must have reopened an
    epoch at least once after the first sweep.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(0x7C)
    for trial in range(5):
        pb = random_flow_problem(rng, 10, 0.5)
        g = pb.graph
        f = np.exp(-pb.w_eff / pb.gamma)
        engine = pb.sweeps()
        v = np.zeros(g.n)
        for _ in range(200):
            f = project_C2(*project_C1(pb, f))
            u, _ = full_state(next(engine))
            v = pb.block_update_1(pb.block_update_2(v))
            f_stable = primal_from_dual(
                pb, DualState(v, pb.block_update_2(v)))[:g.p]
            f_engine = primal_from_dual(pb, u)[:g.p]
            np.testing.assert_allclose(f, f_stable, rtol=1e-8)
            np.testing.assert_allclose(f_engine, f_stable, rtol=1e-8)
        v_mat = vertex_dual_from_flow(pb, f)
        np.testing.assert_allclose(v_mat - v_mat[0], v - v[0], atol=1e-8)

    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.5)])
    pb = FlowProblem(g, [0.7, 0.1, 0.2], [0.1, 0.3, 0.6], gamma=1e-3)
    v = np.zeros(3)
    prev = dual_objective(pb, DualState(v, pb.block_update_2(v)))
    for k in range(10**4):
        v = pb.block_update_1(pb.block_update_2(v))
        if k % 1000 == 999:
            cur = dual_objective(pb, DualState(v, pb.block_update_2(v)))
            assert np.isfinite(cur) and cur >= prev - 1e-12
            prev = cur
    assert np.all(np.isfinite(v))

    rng = np.random.default_rng(0x7D)
    restarts = 0
    for m1, m2, gamma, scale in ((5, 6, 0.5, 1.0), (8, 5, 0.05, 1.0),
                                 (10, 12, 1e-3, 1.0), (6, 9, 1e-3, 10.0),
                                 (12, 8, 1e-3, 10.0)):
        pb = random_ot_problem(rng, m1, m2, gamma, cost_scale=scale)
        counts = count_block_updates(pb)
        state, trace = solve(pb, max_sweeps=200)
        if scale > 1.0:
            assert counts["block_update_1"] >= 2, counts
            assert counts["block_update_2"] >= 1, counts
        restarts += counts["block_update_2"]
        ref_state, ref = solve(pb, max_sweeps=200,
                               sweeps=BlockProblem.sweeps(pb))
        _keep(f"c7-ot-{m1}x{m2}-gamma{gamma:g}", trace)
        np.testing.assert_allclose(trace.F_gamma, ref.F_gamma, rtol=1e-8)
        np.testing.assert_allclose(trace.res1_l1, ref.res1_l1, rtol=0,
                                   atol=1e-8)
        np.testing.assert_allclose(state.u1, ref_state.u1, rtol=0, atol=1e-8)
        np.testing.assert_allclose(state.u2, ref_state.u2, rtol=0, atol=1e-8)

    rng = np.random.default_rng(0x7E)
    flow_restarts = 0
    for n, gamma in ((10, 0.5), (12, 0.05), (10, 1e-3), (15, 1e-3),
                     (8, 1e-3)):
        pb = random_flow_problem(rng, n, gamma)
        counts = count_block_updates(pb)
        state, trace = solve(pb, max_sweeps=200)
        if gamma < 0.01:
            assert counts["block_update_1"] >= 2, counts
        flow_restarts += counts["block_update_1"] - 1
        ref_state, ref = solve(pb, max_sweeps=200,
                               sweeps=BlockProblem.sweeps(pb))
        _keep(f"c7-flow-n{n}-gamma{gamma:g}", trace)
        np.testing.assert_allclose(trace.F_gamma, ref.F_gamma, rtol=1e-8)
        np.testing.assert_allclose(trace.res1_l1, ref.res1_l1, rtol=0,
                                   atol=1e-8)
        np.testing.assert_allclose(state.u1, ref_state.u1, rtol=0, atol=1e-8)
        np.testing.assert_allclose(state.u2, ref_state.u2, rtol=0, atol=1e-8)
    dt = time.perf_counter() - t0
    return ("5 instances x 200 sweeps agree at 1e-8; stable survives "
            f"gamma=1e-3; OT engine agrees on 5, {restarts} fallbacks; "
            f"flow engine agrees on 5, {flow_restarts} fallbacks")


# ------------------------------------------------------- 8: kernel basics


@_criterion(8, "kernel properties")
def test_criterion_8_kernel_properties():
    """Quadratic-root residuals, Pinsker, shift and translation invariance.

    phi_root: 1e4 mixed-scale samples including the t = 1e30 coefficient;
    negative t capped at 300 because the root then sits near |t| and the
    attainable float64 residual scales with t^2. Pinsker in the max-mass
    form on 1e4 unnormalized pairs. The solvers' two log-sum-exp kernels
    (dense rows and arc segments) and the variation seminorm under additive
    shifts.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(0x8E)

    n = 10_000
    t_pos = 10.0 ** rng.uniform(-12.0, 30.0, n // 2)
    t_neg = -(10.0 ** rng.uniform(-12.0, math.log10(300.0), n - n // 2))
    t = np.concatenate([t_pos, t_neg, [1e30]])
    u = 10.0 ** rng.uniform(-10.0, 10.0, t.size)
    s = phi_root(t, u)
    resid = np.abs(s * s + t * s - u)
    worst_phi = float(np.max(resid / np.maximum(1.0, u)))
    assert worst_phi <= 1e-9

    for _ in range(10_000):
        k = int(rng.integers(1, 9))
        p = rng.uniform(1e-4, 1.0, k) * 10.0 ** rng.uniform(-3, 3)
        q = rng.uniform(1e-4, 1.0, k) * 10.0 ** rng.uniform(-3, 3)
        lhs = kl_divergence(p, q)
        rhs = np.abs(p - q).sum() ** 2 / (2.0 * max(p.sum(), q.sum()))
        assert lhs >= rhs - 1e-12 * max(1.0, rhs)

    for _ in range(2000):
        vec = rng.normal(scale=5.0, size=int(rng.integers(1, 12)))
        c = float(rng.uniform(-50.0, 50.0))
        gamma = float(10.0 ** rng.uniform(-2, 1))
        for lse in lse_kernels(gamma, vec.size):
            shifted = lse(vec + c)
            base = lse(vec)
            assert abs(shifted - (base + c)) <= 1e-9 * max(1.0, abs(base) + abs(c))
        assert abs(
            variation_seminorm(vec + c) - variation_seminorm(vec)
        ) <= 1e-9 * max(1.0, abs(c))

    dt = time.perf_counter() - t0
    assert dt < 5.0
    return f"phi worst residual {worst_phi:.2e}; 1e4 Pinsker pairs; 2e3 shifts"


# --------------------------------------------- 9: per-sweep cost scaling


@_criterion(9, "per-sweep cost linear in p")
def test_criterion_9_sweep_cost_scaling():
    """Quadrupling the arc count scales the per-sweep cost by about 4.

    Timed on path graphs big enough (2e4 and 8e4 nodes) that the numpy
    per-call overhead stops mattering, through the default flow sweeps.
    Each run is timed by the CPU time of this thread, so a process competing
    for the cores does not count, and the two sizes take turns, five runs
    each, so a slow spell of the host hits both; the best of five sheds the
    rest of the scheduler noise. The asymptotic budget itself is not
    reproducible at desk scale, so this smoke check plus the
    scheduled-accuracy run above stand in.
    """
    rng = np.random.default_rng(0x95)

    def path_problem(n):
        g = Graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
        return FlowProblem(g, random_marginals(rng, n), random_marginals(rng, n), 0.5)

    problems = {n: path_problem(n) for n in (20_001, 80_001)}
    for pb in problems.values():
        solve(pb, max_sweeps=5, record_every=10**6)  # warm caches
    best = dict.fromkeys(problems, math.inf)
    for _ in range(5):
        for n, pb in problems.items():
            t0 = time.thread_time()
            state, trace = solve(pb, max_sweeps=50, record_every=10**6)
            best[n] = min(best[n], (time.thread_time() - t0) / 50.0)
            _keep(f"c9-n{n}", trace)

    small, large = best[20_001], best[80_001]
    ratio = large / small
    assert 2.5 <= ratio <= 6.0, f"ratio {ratio:.2f} outside [2.5, 6]"
    return f"per-sweep {small*1e3:.2f} ms -> {large*1e3:.2f} ms, ratio {ratio:.2f}"


# ------------------------------------- 5: sweep invariants on every trace


@_criterion(5, "monotone ascent and first-order conditions")
def test_criterion_5_sweep_invariants():
    """Every recorded sweep of every run above: F up, half-step FOC at zero.

    Runs last so the pool holds the traces of criteria 2, 3, 4, 7 and 9;
    six fresh stride-1 runs are added so the audit also covers consecutive
    sweeps of both problem families at full recording density, the matrix
    flow path, and OT and flow at gamma = 1e-3 through their stabilised
    engines' log-domain fallbacks. Every recorded row past the start has a
    half state, so none is skipped. foc1 is the block-1 residual right
    after its own update (half state), foc2 the block-2 residual after the
    full sweep; both must sit at roundoff, relative to the mass at the
    state where they are measured.
    """
    rng = np.random.default_rng(0x55)
    state, tr_ot = solve(random_ot_problem(rng, 4, 5, 0.2), max_sweeps=300)
    _keep("c5-ot-stride1", tr_ot)
    state, tr_fl = solve(random_flow_problem(rng, 8, 0.5), max_sweeps=300)
    _keep("c5-flow-stride1", tr_fl)
    pb = random_flow_problem(rng, 8, 0.5)
    state, tr_mat = solve(pb, max_sweeps=300, sweeps=matrix_sweeps(pb))
    _keep("c5-flow-matrix-stride1", tr_mat)
    pb = random_ot_problem(rng, 6, 9, 1e-3, cost_scale=10.0)
    counts = count_block_updates(pb)
    state, tr_small = solve(pb, max_sweeps=300)
    assert counts["block_update_2"] >= 1, "no log-domain fallback ran"
    _keep("c5-ot-gamma1e-3-stride1", tr_small)
    pb = random_flow_problem(rng, 10, 1e-3)
    counts = count_block_updates(pb)
    state, tr_flow_small = solve(pb, max_sweeps=300)
    assert counts["block_update_1"] >= 2, "no exact block-1 fallback ran"
    _keep("c5-flow-gamma1e-3-stride1", tr_flow_small)

    assert len(_TRACES) >= 2
    rows_checked = 0
    for label, trace in _TRACES:
        assert trace.check_monotone(1e-12), f"{label}: objective decreased"
        for i, k in enumerate(trace.k):
            if k == 0:
                continue
            assert trace.foc1[i] <= 1e-9 * max(1.0, trace.half_mass[i]), (
                f"{label} sweep {k}: block-1 FOC {trace.foc1[i]:.3e}"
            )
            assert trace.foc2[i] <= 1e-9 * max(1.0, trace.primal_mass[i]), (
                f"{label} sweep {k}: block-2 FOC {trace.foc2[i]:.3e}"
            )
            rows_checked += 1
    return f"{len(_TRACES)} traces, {rows_checked} recorded sweeps audited"
