import gc
import itertools
import math
import tracemalloc

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
    FlowProblem,
    _root,
    _vertex_maxima,
    _vertex_sums,
    divergence,
    flow_constants,
    project_C1,
    project_C2,
    vertex_dual_from_flow,
    w1_estimate,
)
from sinkflow.graph import Graph, spanning_tree_flow
from sinkflow.numerics import kl_divergence
from sinkflow.oracle import exact_w1

from conftest import (count_block_updates, full_state, graph_edges,
                      large_budget_edges, random_connected_graph,
                      random_marginals)


def two_node(gamma=0.5, w=1.0):
    g = Graph(2, [(0, 1, w)])
    return FlowProblem(g, [1.0, 0.0], [0.0, 1.0], gamma=gamma)


def random_flow(rng, n=8, gamma=0.5):
    g = random_connected_graph(rng, n)
    mu1 = random_marginals(rng, n)
    mu2 = random_marginals(rng, n)
    return FlowProblem(g, mu1, mu2, gamma=gamma)


# ------------------------------------------------------------- validation


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


# -------------------------------------------------------- reference default


def test_default_reference_matches_tree_mass():
    # unit transport distance, p = 2 arcs: alpha = 1 / (2 p) = 0.25
    pb = two_node()
    assert pb.alpha == 0.25


def test_default_reference_equal_marginals():
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    pb = FlowProblem(g, [0.2, 0.5, 0.3], [0.2, 0.5, 0.3], 0.5)
    assert pb.alpha == 0.125


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


def test_divergence_rejects_wrong_length():
    g = Graph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        divergence(g, np.ones(5))


# ------------------------------------------------------------ projections


def test_project_C1_hits_marginal_constraint():
    rng = np.random.default_rng(33)
    pb = random_flow(rng)
    g = pb.graph
    h = rng.uniform(0.1, 1.0, size=g.p)
    f, gg = project_C1(pb, h)
    out = np.add.reduceat(f, g.arc_seg_starts)
    inc = np.add.reduceat(gg[g.arc_rev], g.arc_seg_starts)
    np.testing.assert_allclose(out - inc, pb.mu2 - pb.mu1, atol=1e-10)


def test_project_C1_beats_other_feasible_points():
    """project_C1 is the KL-closest feasible pair to (h, h)."""
    rng = np.random.default_rng(35)
    pb = random_flow(rng)
    g = pb.graph
    h = rng.uniform(0.1, 1.0, size=g.p)
    f, gg = project_C1(pb, h)
    base = np.concatenate([h, h])
    best = kl_divergence(np.concatenate([f, gg]), base)
    for _ in range(10):
        # build an arbitrary feasible pair: pick the incoming copy freely
        # (large enough to keep the outgoing targets positive), then meet
        # the per-vertex constraint by scaling h on each outgoing group
        gt = h * rng.uniform(40.0, 60.0, size=g.p)
        need = (pb.mu2 - pb.mu1) + np.add.reduceat(
            gt[g.arc_rev], g.arc_seg_starts)
        assert np.all(need > 0)
        ft = (need / np.add.reduceat(h, g.arc_seg_starts))[g.arc_src] * h
        out = np.add.reduceat(ft, g.arc_seg_starts)
        inc = np.add.reduceat(gt[g.arc_rev], g.arc_seg_starts)
        np.testing.assert_allclose(out - inc, pb.mu2 - pb.mu1, atol=1e-10)
        other = kl_divergence(np.concatenate([ft, gt]), base)
        assert other >= best - 1e-12


def test_project_C1_raises_on_dead_vertex():
    pb = two_node()
    with pytest.raises(NumericOverflowError, match="degenerate vertex"):
        project_C1(pb, np.array([0.0, 1.0]))


def test_project_C2_is_geometric_mean_and_optimal():
    rng = np.random.default_rng(37)
    g = random_connected_graph(rng, 5)
    f = rng.uniform(0.1, 2.0, size=g.p)
    h = rng.uniform(0.1, 2.0, size=g.p)
    x = project_C2(f, h)
    np.testing.assert_allclose(x, np.sqrt(f * h))
    best = kl_divergence(x, f) + kl_divergence(x, h)
    for _ in range(20):
        y = x * np.exp(rng.normal(scale=0.3, size=g.p))
        other = kl_divergence(y, f) + kl_divergence(y, h)
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
    """Three sweeps of the scaling engine land on v = (-a, a)."""
    pb = two_node(gamma=1.0)
    sweeps = pb.sweeps()
    for _ in range(3):
        u, _ = full_state(next(sweeps))
    a = math.asinh(2.0 * math.e)
    np.testing.assert_allclose(u.u1, [-a, a], rtol=1e-12)


def test_two_node_dual_objective_closed_form():
    # F(v*) = 2 asinh(2e) + 1 - sqrt(1 + 4 e^2) / e, halved by w1_estimate
    pb = two_node(gamma=1.0)
    v = pb.block_update_1(pb.block_update_2(np.zeros(2)))
    _, dual = w1_estimate(pb, DualState(v, pb.block_update_2(v)))
    assert dual == pytest.approx(1.8778712814867873, abs=1e-13)


# ------------------------------------------------------ path equivalence


def test_three_paths_agree():
    rng = np.random.default_rng(45)
    pb = random_flow(rng, n=8, gamma=0.5)
    g = pb.graph

    f = np.exp(-pb.w_eff / pb.gamma)
    engine = pb.sweeps()
    v = np.zeros(g.n)
    for _ in range(30):
        f = project_C2(*project_C1(pb, f))
        u, _ = full_state(next(engine))
        v = pb.block_update_1(pb.block_update_2(v))
        f_stable = primal_from_dual(
            pb, DualState(v, pb.block_update_2(v)))[:g.p]
        f_engine = primal_from_dual(pb, u)[:g.p]
        np.testing.assert_allclose(f, f_stable, rtol=1e-9)
        np.testing.assert_allclose(f_engine, f_stable, rtol=1e-9)

    # gauge-invariant dual comparison: differences to vertex 0
    v_mat = vertex_dual_from_flow(pb, f)
    np.testing.assert_allclose(v_mat - v_mat[0], v - v[0], atol=1e-9)


def test_dual_recovery_round_trip():
    """On a random graph, a 2,000-vertex path and a 2,000-vertex path with
    chords, the recovered dual matches the one the flow came from, and it
    is integrated exactly along the Graph's BFS tree: each vertex is its
    tree arc's source minus that arc's log ratio, bit for bit."""
    rng = np.random.default_rng(47)
    n = 2000
    path = [(k, k + 1, float(w))
            for k, w in enumerate(rng.uniform(0.5, 2.0, n - 1))]
    for pb in (random_flow(rng, n=6),
               FlowProblem(Graph(n, path), random_marginals(rng, n),
                           random_marginals(rng, n), 0.5),
               FlowProblem(Graph(n, large_budget_edges(rng, n)),
                           random_marginals(rng, n),
                           random_marginals(rng, n), 0.5)):
        g = pb.graph
        v = rng.normal(size=g.n)
        f = primal_from_dual(pb, DualState(v, pb.block_update_2(v)))[:g.p]
        back = vertex_dual_from_flow(pb, f)
        np.testing.assert_allclose(back - back[0], v - v[0], atol=1e-10)
        diff = 2.0 * pb.gamma * np.log(f) + 2.0 * pb.w_eff
        x = g.bfs_order[1:]
        e = g.bfs_tree_arc[x]
        np.testing.assert_array_equal(back[x], back[g.arc_src[e]] - diff[e])


def test_dual_recovery_rejects_zero_flow():
    pb = two_node()
    with pytest.raises(ValueError, match="positive"):
        vertex_dual_from_flow(pb, np.array([0.0, 1.0]))


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
    v_flow = vertex_dual_from_flow(pb, f)
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
        flow_constants(pb, np.zeros(2))


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
    z = np.full(pb.dim_primal, pb.alpha)
    f = float(pb.cost @ x) + pb.gamma * kl_divergence(x, z)
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
    f = np.exp(-pb.w_eff / pb.gamma)
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


# ------------------------------------------------------ long arc segments


def hub_graph(rng, n=40, hub=25):
    """Vertex 0 joined to vertices 1..hub, plus a random spanning path. The
    hub has at least 16 arcs each way, past the 8 from which numpy's
    reduceat adds a segment in pairwise blocks, so the order in which a
    reduction adds shows in its last bits."""
    edges = {(0, j): float(rng.uniform(0.5, 2.0)) for j in range(1, hub + 1)}
    order = rng.permutation(n)
    for a, b in zip(order, order[1:]):
        edges.setdefault((int(min(a, b)), int(max(a, b))),
                         float(rng.uniform(0.5, 2.0)))
    g = Graph(n, [(i, j, w) for (i, j), w in edges.items()])
    assert np.diff(g.arc_seg_starts, append=g.p).max() >= 16
    return g


def test_vertex_reductions_on_long_segments():
    """The arc_dst-keyed sums are the src-keyed sums of the reverse arcs'
    values bit for bit, in the same order, and the scatter maxima are the
    segment maxima; so are the kernels built on them."""
    rng = np.random.default_rng(0x48)
    g = hub_graph(rng)
    values = rng.normal(size=g.p)
    rev = values[g.arc_rev]
    assert (_vertex_sums(g.n, g.arc_dst, values).tobytes()
            == np.bincount(g.arc_src, rev, minlength=g.n).tobytes())
    assert (_vertex_maxima(g.n, g.arc_src, values).tobytes()
            == np.maximum.reduceat(values, g.arc_seg_starts).tobytes())
    assert (_vertex_maxima(g.n, g.arc_dst, values).tobytes()
            == np.maximum.reduceat(rev, g.arc_seg_starts).tobytes())

    pb = FlowProblem(g, random_marginals(rng, g.n), random_marginals(rng, g.n),
                     0.05)
    assert (pb._seg_lse(values, g.arc_dst).tobytes()
            == pb._seg_lse(rev).tobytes())
    x = rng.uniform(0.0, 2.0, size=2 * g.p)
    a1x = (np.bincount(g.arc_src, x[:g.p], minlength=g.n)
           - np.bincount(g.arc_src, x[g.p:][g.arc_rev], minlength=g.n))
    assert pb.apply_A1(x).tobytes() == a1x.tobytes()


@pytest.mark.parametrize("gamma", [0.05, 1e-3])
def test_engine_matches_block_updates_on_long_segments(gamma):
    """200 engine sweeps on the hub graph, absorbed sweeps and fallbacks
    both, agree with the exact block updates to 1e-10."""
    rng = np.random.default_rng(0x49)
    g = hub_graph(rng)
    pb = FlowProblem(g, random_marginals(rng, g.n), random_marginals(rng, g.n),
                     gamma)
    counts = count_block_updates(pb)
    engine = list(itertools.islice(pb.sweeps(), 200))
    assert 1 <= counts["block_update_1"] <= 20
    ref = BlockProblem.sweeps(pb)
    for sweep, ref_sweep in zip(engine, ref):
        (u, row), (r, ref_row) = full_state(sweep), full_state(ref_sweep)
        (rows, state), (ref_rows, ref_state) = sweep[2], ref_sweep[2]
        np.testing.assert_allclose(u.u1, r.u1, rtol=0, atol=1e-10)
        np.testing.assert_allclose(u.u2, r.u2, rtol=0, atol=1e-10)
        np.testing.assert_allclose(row, ref_row, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(list(rows([state])),
                                   list(ref_rows([ref_state])), rtol=1e-10,
                                   atol=1e-12)


def criterion_2_first_graph():
    """The first of the ten criterion-2 instances: graph and marginals."""
    rng = np.random.default_rng(0x2A)
    g = random_connected_graph(rng, 20)
    return g, random_marginals(rng, 20), random_marginals(rng, 20)


def scheduled_fallback_share(g, mu1, mu2):
    """Share of sweeps on which the engine runs the exact block_update_1,
    solving at the scheduled gamma for eps = 0.05 W1 to residual 1e-6."""
    fbar = spanning_tree_flow(g, mu1, mu2)
    gamma = schedule_gamma(0.05 * exact_w1(g, mu1, mu2), float(fbar.sum()),
                           2 * g.p)
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
    g = Graph(21, graph_edges(g) + [(0, 20, 2.0)])
    share = scheduled_fallback_share(g, np.append(mu1, 0.0),
                                     np.append(mu2, 0.0))
    assert share <= 0.01


def scaling_root(r, a, c):
    """_root as a burst calls it, under the burst's errstate."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _root(r, a, c, np.abs(r), r >= 0.0)


def test_scaling_root_solves_the_quadratic_without_dividing_by_a_tiny_sum():
    rng = np.random.default_rng(67)
    r = rng.normal(size=2000) * 10.0 ** rng.uniform(-8, 2, 2000)
    a = 10.0 ** rng.uniform(-300, 10, 2000)
    c = 10.0 ** rng.uniform(-300, 10, 2000)
    tau = scaling_root(r, a, c)
    assert np.all(np.isfinite(tau)) and np.all(tau > 0)
    # a tau - c / tau = -2 r, relative to the largest term
    resid = a * tau - c / tau + 2.0 * r
    scale = np.maximum.reduce([a * tau, c / tau, 2.0 * np.abs(r)])
    assert np.max(np.abs(resid) / scale) <= 1e-13
    # r = 0 with both sums far below sqrt(tiny): tau = sqrt(c / a)
    np.testing.assert_allclose(
        scaling_root(np.zeros(2), np.array([1e-200, 4e-250]),
                      np.array([1e-200, 1e-250])),
        [1.0, 0.5], rtol=1e-15)
    # a negligible or zero sum on the side r does not need
    np.testing.assert_allclose(
        scaling_root(np.array([0.25, -0.25]), np.array([0.0, 2.0]),
                      np.array([1.0, 0.0])),
        [2.0, 0.25], rtol=1e-15)
    # no finite positive root: the caller's range check must catch it
    with np.errstate(all="raise"):
        bad = scaling_root(np.array([0.25, -0.25, 0.0]),
                            np.array([1.0, 0.0, 0.0]),
                            np.array([0.0, 1.0, 0.0]))
    assert bad[0] == 0.0 and bad[1] == np.inf and np.isnan(bad[2])


# ------------------------------------------------------------ peak memory


def solve_peak_in_p_vectors(n=20_000, sweeps=5):
    """tracemalloc peak of a recorded solve above its start, in p-vectors."""
    rng = np.random.default_rng(0x3E)
    g = Graph(n, large_budget_edges(rng, n))
    pb = FlowProblem(g, random_marginals(rng, n), random_marginals(rng, n), 0.05)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        solve(pb, max_sweeps=sweeps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / (8.0 * g.p)


def test_solve_peak_memory_in_p_vectors():
    """The solve phase of a gamma = 0.05 budget run, as flow-large-budget
    makes on 213k arcs, where it has under one n-vector (0.375 p-vectors on
    these graphs) of headroom below the set-up peak. Before rows were
    recorded in blocks its peak above the start was 8.52 p-vectors here; the
    bound adds 0.01 (4 KB at this p) for the interpreter's own objects,
    whose size moves by a few KB with the free lists."""
    assert solve_peak_in_p_vectors() <= 8.52 + 0.01
