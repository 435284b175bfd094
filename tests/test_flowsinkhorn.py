import math

import numpy as np
import pytest

from sinkflow.analysis import (
    check_monotone_sweep,
    check_nonexpansive,
    check_translation_equivariance,
)
from sinkflow.blocklp import (
    BlockProblem,
    DualState,
    NumericOverflowError,
    dual_objective,
    marginals,
    primal_from_dual,
    schedule_gamma,
    solve,
)
from sinkflow.flowsinkhorn import (
    EdgeFlow,
    FlowProblem,
    _scaling_root,
    divergence,
    flow_constants,
    project_C1,
    project_C2,
    sweep_scaling,
    vertex_dual_from_flow,
    vertex_dual_from_scaling,
    w1_estimate,
)
from sinkflow.graph import Graph, spanning_tree_flow
from sinkflow.numerics import kl_divergence
from sinkflow.oracle import exact_w1

from conftest import count_block_updates, random_connected_graph, random_marginals


def two_node(gamma=0.5, w=1.0):
    g = Graph(2, [(0, 1, w)])
    return FlowProblem(g, [1.0, 0.0], [0.0, 1.0], gamma=gamma)


def random_flow(rng, n=8, gamma=0.5):
    g = random_connected_graph(rng, n)
    mu1 = random_marginals(rng, n)
    mu2 = random_marginals(rng, n)
    return FlowProblem(g, mu1, mu2, gamma=gamma)


# ------------------------------------------------------------- validation


def test_edge_flow_rejects_bad_values():
    g = Graph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match="per directed arc"):
        EdgeFlow(g, np.zeros(3))
    with pytest.raises(ValueError, match=">= 0"):
        EdgeFlow(g, np.array([-1.0, 0.0]))
    with pytest.raises(ValueError, match=">= 0"):
        EdgeFlow(g, np.array([np.nan, 0.0]))


def test_flow_problem_rejects_bad_marginals():
    g = Graph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match="balance"):
        FlowProblem(g, [1.0, 0.0], [0.0, 0.5], 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        FlowProblem(g, [2.0, -1.0], [0.0, 1.0], 0.5)
    with pytest.raises(ValueError, match="per vertex"):
        FlowProblem(g, [1.0, 0.0, 0.0], [0.0, 1.0], 0.5)
    with pytest.raises(ValueError, match="gamma"):
        FlowProblem(g, [1.0, 0.0], [0.0, 1.0], 0.0)


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_flow_problem_rejects_nonfinite_gamma(gamma):
    g = Graph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match="finite"):
        FlowProblem(g, [1.0, 0.0], [0.0, 1.0], gamma)


def test_flow_problem_rejects_bad_reference():
    g = Graph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match="per directed arc"):
        FlowProblem(g, [1.0, 0.0], [0.0, 1.0], 0.5, z=np.ones(3))
    with pytest.raises(ValueError, match="positive"):
        FlowProblem(g, [1.0, 0.0], [0.0, 1.0], 0.5, z=np.array([1.0, 0.0]))


# -------------------------------------------------------- reference default


def test_default_reference_matches_tree_mass():
    # unit transport distance, p = 2 arcs: alpha = 1 / (2 p) = 0.25
    pb = two_node()
    np.testing.assert_array_equal(pb.z_arc, [0.25, 0.25])


def test_default_reference_equal_marginals():
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    pb = FlowProblem(g, [0.2, 0.5, 0.3], [0.2, 0.5, 0.3], 0.5)
    np.testing.assert_array_equal(pb.z_arc, np.full(4, 0.125))


# ------------------------------------------------------------- divergence


def test_divergence_matches_dense_accumulation():
    rng = np.random.default_rng(31)
    g = random_connected_graph(rng, 9)
    vals = rng.uniform(0.0, 2.0, size=g.p)
    dense = np.zeros(g.n)
    for a in range(g.p):
        dense[g.arc_dst[a]] += vals[a]
        dense[g.arc_src[a]] -= vals[a]
    np.testing.assert_allclose(divergence(g, vals), dense, atol=1e-12)
    np.testing.assert_allclose(
        divergence(g, EdgeFlow(g, vals)), dense, atol=1e-12
    )


def test_divergence_rejects_wrong_length():
    g = Graph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        divergence(g, np.ones(5))


# ------------------------------------------------------------ projections


def test_project_C1_hits_marginal_constraint():
    rng = np.random.default_rng(33)
    pb = random_flow(rng)
    g = pb.graph
    h = EdgeFlow(g, rng.uniform(0.1, 1.0, size=g.p))
    f, gg = project_C1(pb, h)
    out = np.add.reduceat(f.values, g.arc_seg_starts)
    inc = np.add.reduceat(gg.values[g.arc_rev], g.arc_seg_starts)
    np.testing.assert_allclose(out - inc, pb.mu2 - pb.mu1, atol=1e-10)


def test_project_C1_beats_other_feasible_points():
    """project_C1 is the KL-closest feasible pair to (h, h)."""
    rng = np.random.default_rng(35)
    pb = random_flow(rng)
    g = pb.graph
    h = EdgeFlow(g, rng.uniform(0.1, 1.0, size=g.p))
    f, gg = project_C1(pb, h)
    base = np.concatenate([h.values, h.values])
    best = kl_divergence(np.concatenate([f.values, gg.values]), base)
    for _ in range(10):
        # build an arbitrary feasible pair: pick the incoming copy freely
        # (large enough to keep the outgoing targets positive), then meet
        # the per-vertex constraint by scaling h on each outgoing group
        gt = h.values * rng.uniform(40.0, 60.0, size=g.p)
        need = (pb.mu2 - pb.mu1) + np.add.reduceat(
            gt[g.arc_rev], g.arc_seg_starts)
        assert np.all(need > 0)
        ft = (need / np.add.reduceat(h.values, g.arc_seg_starts))[g.arc_src] * h.values
        out = np.add.reduceat(ft, g.arc_seg_starts)
        inc = np.add.reduceat(gt[g.arc_rev], g.arc_seg_starts)
        np.testing.assert_allclose(out - inc, pb.mu2 - pb.mu1, atol=1e-10)
        other = kl_divergence(np.concatenate([ft, gt]), base)
        assert other >= best - 1e-12


def test_project_C1_raises_on_dead_vertex():
    pb = two_node()
    with pytest.raises(NumericOverflowError, match="degenerate vertex"):
        project_C1(pb, EdgeFlow(pb.graph, np.array([0.0, 1.0])))


def test_project_C2_is_geometric_mean_and_optimal():
    rng = np.random.default_rng(37)
    g = random_connected_graph(rng, 5)
    f = EdgeFlow(g, rng.uniform(0.1, 2.0, size=g.p))
    h = EdgeFlow(g, rng.uniform(0.1, 2.0, size=g.p))
    x = project_C2(f, h)
    np.testing.assert_allclose(x.values, np.sqrt(f.values * h.values))
    best = kl_divergence(x.values, f.values) + kl_divergence(x.values, h.values)
    for _ in range(20):
        y = x.values * np.exp(rng.normal(scale=0.3, size=g.p))
        other = kl_divergence(y, f.values) + kl_divergence(y, h.values)
        assert other >= best - 1e-12


# ------------------------------------------------------------ block updates


def test_block_updates_satisfy_their_constraints():
    rng = np.random.default_rng(39)
    pb = random_flow(rng)
    u2 = rng.normal(size=pb.graph.p)
    u1 = pb.block_update_1(u2)
    x = primal_from_dual(pb, DualState(u1, u2))
    np.testing.assert_allclose(pb.apply_A1(x), pb.b1, atol=1e-10)
    x = primal_from_dual(pb, DualState(u1, pb.block_update_2(u1)))
    np.testing.assert_allclose(pb.apply_A2(x), pb.b2, atol=1e-12)


def test_adjoints_are_consistent():
    rng = np.random.default_rng(41)
    pb = random_flow(rng)
    x = rng.uniform(0.0, 1.0, size=pb.dim_primal)
    v = rng.normal(size=pb.graph.n)
    u = rng.normal(size=pb.graph.p)
    assert np.dot(pb.apply_A1(x), v) == pytest.approx(
        np.dot(x, pb.apply_A1_adjoint(v)), rel=1e-12)
    assert np.dot(pb.apply_A2(x), u) == pytest.approx(
        np.dot(x, pb.apply_A2_adjoint(u)), rel=1e-12)


def test_paired_balance_is_exact():
    rng = np.random.default_rng(43)
    pb = random_flow(rng)
    ones1 = pb.apply_A1_adjoint(np.ones(pb.graph.n))
    ones2 = pb.apply_A2_adjoint(np.ones(pb.graph.p))
    np.testing.assert_array_equal(ones1 - ones2, np.zeros(pb.dim_primal))


# -------------------------------------------------- two-node closed forms


def test_two_node_one_sweep_fixed_point():
    """At gamma = 1 the vertex update is state-free: one sweep lands on
    v = (-asinh(2e), asinh(2e)) and stays there."""
    pb = two_node(gamma=1.0)
    a = math.asinh(2.0 * math.e)
    v = pb.block_update_1(pb.block_update_2(np.zeros(2)))
    np.testing.assert_allclose(v, [-a, a], rtol=1e-14)
    again = pb.block_update_1(pb.block_update_2(v))
    np.testing.assert_allclose(again, v, atol=1e-12)
    a1x, a2x, _ = marginals(pb, DualState(v, pb.block_update_2(v)))
    assert np.abs(a1x - pb.b1).max() <= 1e-12
    assert np.abs(a2x - pb.b2).max() <= 1e-15


def test_two_node_scaling_fixed_point():
    pb = two_node(gamma=1.0)
    s = np.ones(2)
    for _ in range(3):
        s = sweep_scaling(pb, s)
    a = math.asinh(2.0 * math.e)
    np.testing.assert_allclose(
        vertex_dual_from_scaling(pb, s), [-a, a], rtol=1e-12)
    np.testing.assert_allclose(
        np.exp(np.array([-a, a]) / (2.0 * pb.gamma)), s, rtol=1e-12)


def test_two_node_dual_objective_closed_form():
    # F(v*) = 2 asinh(2e) + 1 - sqrt(1 + 4 e^2) / e, halved by w1_estimate
    pb = two_node(gamma=1.0)
    v = pb.block_update_1(pb.block_update_2(np.zeros(2)))
    _, dual = w1_estimate(pb, DualState(v, pb.block_update_2(v)))
    assert dual == pytest.approx(1.8778712814867873, abs=1e-13)


def test_scaling_from_vertex_dual_rejects_nonpositive():
    pb = two_node()
    with pytest.raises(ValueError):
        vertex_dual_from_scaling(pb, np.array([1.0, 0.0]))


# ------------------------------------------------------ path equivalence


def test_three_paths_agree():
    rng = np.random.default_rng(45)
    pb = random_flow(rng, n=8, gamma=0.5)
    g = pb.graph

    f = EdgeFlow(g, np.exp(-pb.w_eff / pb.gamma))
    s = np.ones(g.n)
    v = np.zeros(g.n)
    for _ in range(30):
        f = project_C2(*project_C1(pb, f))
        s = sweep_scaling(pb, s)
        v = pb.block_update_1(pb.block_update_2(v))
        f_stable = primal_from_dual(
            pb, DualState(v, pb.block_update_2(v)))[:g.p]
        v_scal = vertex_dual_from_scaling(pb, s)
        f_scal = primal_from_dual(
            pb, DualState(v_scal, pb.block_update_2(v_scal)))[:g.p]
        np.testing.assert_allclose(f.values, f_stable, rtol=1e-9)
        np.testing.assert_allclose(f_scal, f_stable, rtol=1e-9)

    # gauge-invariant dual comparison: differences to vertex 0
    v_mat = vertex_dual_from_flow(pb, f)
    np.testing.assert_allclose(v_mat - v_mat[0], v - v[0], atol=1e-9)


def test_dual_recovery_round_trip():
    rng = np.random.default_rng(47)
    pb = random_flow(rng, n=6)
    v = rng.normal(size=pb.graph.n)
    f = primal_from_dual(pb, DualState(v, pb.block_update_2(v)))[:pb.graph.p]
    back = vertex_dual_from_flow(pb, EdgeFlow(pb.graph, f))
    np.testing.assert_allclose(back - back[0], v - v[0], atol=1e-10)


def test_dual_recovery_rejects_zero_flow():
    pb = two_node()
    with pytest.raises(ValueError, match="positive"):
        vertex_dual_from_flow(pb, EdgeFlow(pb.graph, np.array([0.0, 1.0])))


# ---------------------------------------------------- small-gamma behavior


def test_stable_sweep_survives_small_gamma():
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.5)])
    pb = FlowProblem(g, [0.7, 0.1, 0.2], [0.1, 0.3, 0.6], gamma=1e-3)
    v = np.zeros(3)
    prev = dual_objective(pb, DualState(v, pb.block_update_2(v)))
    for k in range(10000):
        v = pb.block_update_1(pb.block_update_2(v))
        if k % 500 == 499:
            cur = dual_objective(pb, DualState(v, pb.block_update_2(v)))
            assert np.isfinite(cur)
            assert cur >= prev - 1e-12
            prev = cur
    assert np.all(np.isfinite(v))


def test_scaling_sweep_fails_at_small_gamma():
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.5)])
    pb = FlowProblem(g, [0.7, 0.1, 0.2], [0.1, 0.3, 0.6], gamma=1e-3)
    with pytest.raises(NumericOverflowError, match="log-domain"):
        s = np.ones(3)
        for _ in range(100):
            s = sweep_scaling(pb, s)


# ------------------------------------------------------------- estimates


def test_w1_estimate_state_forms_agree():
    """The answer at a dual state against the flow form of the same state:
    the transport cost of the flow, and F at the duals that
    vertex_dual_from_flow recovers from it (how the matrix path reports)."""
    rng = np.random.default_rng(49)
    pb = random_flow(rng, n=7)
    v = np.zeros(pb.graph.n)
    for _ in range(50):
        v = pb.block_update_1(pb.block_update_2(v))
    duals = DualState(v, pb.block_update_2(v))
    p1, d1 = w1_estimate(pb, duals)
    f = primal_from_dual(pb, duals)[:pb.graph.p]
    v_flow = vertex_dual_from_flow(pb, EdgeFlow(pb.graph, f))
    p2, d2 = w1_estimate(pb, DualState(v_flow, pb.block_update_2(v_flow)))
    d3 = 0.5 * dual_objective(pb, DualState(v_flow, pb.block_update_2(v_flow)))
    assert d1 == pytest.approx(d2, abs=1e-9)
    assert d2 == d3
    assert p1 == pytest.approx(float(pb.graph.arc_w @ f), rel=1e-9)
    assert p1 == pytest.approx(p2, rel=1e-9)


def test_w1_estimate_against_exact_oracle():
    rng = np.random.default_rng(51)
    g = random_connected_graph(rng, 12)
    mu1 = random_marginals(rng, 12)
    mu2 = random_marginals(rng, 12)
    want = exact_w1(g, mu1, mu2)

    pb = FlowProblem(g, mu1, mu2, gamma=0.01)
    v = np.zeros(g.n)
    for _ in range(4000):
        v = pb.block_update_1(pb.block_update_2(v))
    _, dual = w1_estimate(pb, DualState(v, pb.block_update_2(v)))
    # converged dual sits at the regularized optimum, above the exact value
    # but within the entropic bias, which vanishes linearly in gamma
    assert dual >= want - 1e-6
    assert dual <= want + 25.0 * pb.gamma


def test_w1_estimate_primal_of_optimal_flow_is_cost():
    """At gamma = 0.01 the converged two-node flow is the optimal one, one
    unit on 0 -> 1 and about e^-200 back, so the primal estimate is its
    transport cost, 1."""
    pb = two_node(gamma=0.01)
    state, trace = solve(pb, residual_tol=1e-14, max_sweeps=10**4)
    assert trace.res1_l1[-1] <= 1e-14
    primal, _ = w1_estimate(pb, state)
    assert primal == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------------------- constants


def test_flow_constants_frozen_two_node():
    pb = two_node(gamma=0.5)
    fbar = spanning_tree_flow(pb.graph, pb.mu1, pb.mu2)
    c = flow_constants(pb, fbar)
    assert c.X_bar == pytest.approx(1.4431471805599453, rel=1e-14)
    assert c.H_gamma == pytest.approx(5.753120631940401, rel=1e-14)
    assert c.kappa_bound == 2.0
    assert c.U_gamma == pytest.approx(15.506241263880802, rel=1e-14)
    assert c.X_gamma == pytest.approx(62.295635621996433, rel=1e-14)


def test_flow_constants_path_diameter():
    g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    mu1 = np.array([1.0, 0.0, 0.0, 0.0])
    mu2 = np.array([0.0, 0.0, 0.0, 1.0])
    pb = FlowProblem(g, mu1, mu2, 0.5)
    c = flow_constants(pb, spanning_tree_flow(g, mu1, mu2))
    assert c.kappa_bound == 6.0


def test_flow_constants_grow_as_gamma_shrinks():
    coarse = two_node(gamma=0.5)
    fine = two_node(gamma=0.05)
    fbar = spanning_tree_flow(coarse.graph, coarse.mu1, coarse.mu2)
    assert (flow_constants(fine, fbar).X_gamma
            > flow_constants(coarse, fbar).X_gamma)


def test_flow_constants_reject_infeasible_comparison():
    pb = two_node()
    with pytest.raises(ValueError, match="infeasible"):
        flow_constants(pb, EdgeFlow(pb.graph, np.zeros(2)))


# ------------------------------------------------------- duality identity


def test_dual_objective_equals_regularized_cost_at_optimum():
    rng = np.random.default_rng(53)
    pb = random_flow(rng, n=6, gamma=0.3)
    v = np.zeros(pb.graph.n)
    for _ in range(3000):
        v = pb.block_update_1(pb.block_update_2(v))
    duals = DualState(v, pb.block_update_2(v))
    a1x, _, _ = marginals(pb, duals)
    assert np.abs(a1x - pb.b1).sum() <= 1e-11
    x = primal_from_dual(pb, duals)
    f = float(pb.cost @ x) + pb.gamma * kl_divergence(x, pb.reference)
    assert dual_objective(pb, duals) == pytest.approx(f, abs=1e-9)


# ------------------------------------------------------ operator batteries


def test_flow_nonexpansive_battery():
    rng = np.random.default_rng(55)
    pb = random_flow(rng)
    report = check_nonexpansive(pb, trials=1000, seed=11, tol=1e-10)
    assert report["pass"], report["violations"]


def test_flow_translation_equivariance_battery():
    rng = np.random.default_rng(57)
    pb = random_flow(rng)
    report = check_translation_equivariance(pb, tau=-1, trials=100, seed=13)
    assert report["pass"], report["violations"]


def test_flow_monotone_sweep_battery():
    rng = np.random.default_rng(59)
    pb = random_flow(rng)
    report = check_monotone_sweep(pb, trials=200, seed=17)
    assert report["pass"], report["violations"]


def test_objective_monotone_along_matrix_path():
    rng = np.random.default_rng(61)
    pb = random_flow(rng, n=6)
    f = EdgeFlow(pb.graph, np.exp(-pb.w_eff / pb.gamma))
    prev = -np.inf
    for _ in range(40):
        f = project_C2(*project_C1(pb, f))
        v = vertex_dual_from_flow(pb, f)
        cur = dual_objective(pb, DualState(v, pb.block_update_2(v)))
        assert cur >= prev - 1e-12
        prev = cur


# ------------------------------------------------- absorbed-kernel engine


def test_engine_is_the_default_and_matches_block_updates():
    """One epoch at moderate gamma: the engine is solve's default and
    agrees with the exact block updates row by row, half state included."""
    pb = random_flow(np.random.default_rng(63), n=9, gamma=0.3)
    counts = count_block_updates(pb)
    state, trace = solve(pb, max_sweeps=60)
    assert counts["block_update_1"] == 1
    ref_state, ref = solve(pb, max_sweeps=60, sweeps=BlockProblem.sweeps(pb))
    np.testing.assert_allclose(trace.F_gamma, ref.F_gamma, rtol=1e-13)
    for col in ("res1_l1", "res2_l1", "foc1", "foc2"):
        np.testing.assert_allclose(getattr(trace, col)[1:],
                                   getattr(ref, col)[1:], rtol=0, atol=1e-13)
    np.testing.assert_allclose(trace.primal_mass, ref.primal_mass, rtol=1e-13)
    np.testing.assert_allclose(trace.half_mass[1:], ref.half_mass[1:],
                               rtol=1e-13)
    np.testing.assert_allclose(state.u1, ref_state.u1, rtol=0, atol=1e-13)
    np.testing.assert_allclose(state.u2, ref_state.u2, rtol=0, atol=1e-13)


def test_engine_half_state_through_fallbacks():
    """At gamma = 1e-3 epochs reopen, and the half-state columns of both
    kinds of sweep agree with the exact block updates."""
    pb = random_flow(np.random.default_rng(65), n=10, gamma=1e-3)
    counts = count_block_updates(pb)
    state, trace = solve(pb, max_sweeps=150)
    assert counts["block_update_1"] >= 3
    ref_state, ref = solve(pb, max_sweeps=150, sweeps=BlockProblem.sweeps(pb))
    np.testing.assert_allclose(trace.F_gamma, ref.F_gamma, rtol=1e-10)
    np.testing.assert_allclose(trace.res2_l1[1:], ref.res2_l1[1:], rtol=0,
                               atol=1e-10)
    np.testing.assert_allclose(trace.half_mass[1:], ref.half_mass[1:],
                               rtol=1e-10)
    assert max(trace.foc1[1:]) <= 1e-12


def criterion_2_first_graph():
    """The first of the ten criterion-2 instances: graph and marginals."""
    rng = np.random.default_rng(0x2A)
    g = random_connected_graph(rng, 20)
    return g, random_marginals(rng, 20), random_marginals(rng, 20)


def scheduled_fallback_share(g, mu1, mu2):
    """Share of sweeps on which the engine runs the exact block_update_1,
    solving at the scheduled gamma for eps = 0.05 W1 to residual 1e-6."""
    fbar = spanning_tree_flow(g, mu1, mu2)
    gamma = schedule_gamma(0.05 * exact_w1(g, mu1, mu2), fbar.mass(), 2 * g.p)
    pb = FlowProblem(g, mu1, mu2, gamma)
    counts = count_block_updates(pb)
    state, trace = solve(pb, residual_tol=1e-6, max_sweeps=10**5,
                         record_every=10**5)
    assert trace.res1_l1[-1] <= 1e-6
    return counts["block_update_1"] / trace.k[-1]


def test_engine_fallbacks_rare_at_scheduled_gamma():
    # at this gamma a pure source or sink has one of its scaled sums at
    # 1e-290 or exactly 0; that alone must not end an epoch
    assert scheduled_fallback_share(*criterion_2_first_graph()) <= 0.01


def test_engine_fallbacks_rare_with_a_zero_mass_vertex_off_the_flow():
    # vertex 20 hangs off vertex 0 by an edge of length 2 and has r = 0:
    # both of its scaled sums sit near 1e-290, and their product underflows
    g, mu1, mu2 = criterion_2_first_graph()
    g = Graph(21, list(g.edges) + [(0, 20, 2.0)])
    share = scheduled_fallback_share(g, np.append(mu1, 0.0),
                                     np.append(mu2, 0.0))
    assert share <= 0.01


def test_scaling_root_solves_the_quadratic_without_dividing_by_a_tiny_sum():
    rng = np.random.default_rng(67)
    r = rng.normal(size=2000) * 10.0 ** rng.uniform(-8, 2, 2000)
    a = 10.0 ** rng.uniform(-300, 10, 2000)
    c = 10.0 ** rng.uniform(-300, 10, 2000)
    tau = _scaling_root(r, a, c)
    assert np.all(np.isfinite(tau)) and np.all(tau > 0)
    # a tau - c / tau = -2 r, relative to the largest term
    resid = a * tau - c / tau + 2.0 * r
    scale = np.maximum.reduce([a * tau, c / tau, 2.0 * np.abs(r)])
    assert np.max(np.abs(resid) / scale) <= 1e-13
    # r = 0 with both sums far below sqrt(tiny): tau = sqrt(c / a)
    np.testing.assert_allclose(
        _scaling_root(np.zeros(2), np.array([1e-200, 4e-250]),
                      np.array([1e-200, 1e-250])),
        [1.0, 0.5], rtol=1e-15)
    # a negligible or zero sum on the side r does not need
    np.testing.assert_allclose(
        _scaling_root(np.array([0.25, -0.25]), np.array([0.0, 2.0]),
                      np.array([1.0, 0.0])),
        [2.0, 0.25], rtol=1e-15)
    # no finite positive root: the caller's range check must catch it
    with np.errstate(all="raise"):
        bad = _scaling_root(np.array([0.25, -0.25, 0.0]),
                            np.array([1.0, 0.0, 0.0]),
                            np.array([0.0, 1.0, 0.0]))
    assert bad[0] == 0.0 and bad[1] == np.inf and np.isnan(bad[2])
