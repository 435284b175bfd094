import math

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import floyd_warshall, random_connected_graph, random_marginals
from sinkflow.graph import Graph
from sinkflow.oracle import (
    InfeasibleFlowError,
    MinCostFlowInstance,
    MinCostFlowResult,
    exact_ot,
    exact_w1,
    min_cost_flow,
    verify_certificate,
)


def linprog_min_cost_flow(inst):
    """Independent LP referee for the flow value."""
    n, arcs = inst.n_nodes, list(inst.arcs)
    a_eq = np.zeros((n, len(arcs)))
    for a, (u, v, _c, _cap) in enumerate(arcs):
        a_eq[u, a] += 1.0
        a_eq[v, a] -= 1.0
    c = np.array([arc[2] for arc in arcs])
    bounds = [(0.0, arc[3]) for arc in arcs]
    res = linprog(c, A_eq=a_eq, b_eq=np.asarray(inst.supplies, float),
                  bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res.fun


# --------------------------------------------------------------- min_cost_flow


def test_single_arc():
    inst = MinCostFlowInstance(2, [(0, 1, 2.5, None)], [0.75, -0.75])
    res = min_cost_flow(inst)
    assert res.value == pytest.approx(0.75 * 2.5)
    np.testing.assert_allclose(res.flows, [0.75])
    assert verify_certificate(inst, res) == []


def test_capacity_forces_costlier_route():
    # cheap route 0->1->2 capped at 2 units on the second leg, so one unit
    # detours over the direct 3.5-cost arc; optimum is 8
    inst = MinCostFlowInstance(
        4,
        [(0, 1, 1.0, None), (1, 2, 1.0, 2.0), (0, 2, 3.5, None), (2, 3, 1.0, None)],
        [2.0, 1.0, -1.5, -1.5],
    )
    res = min_cost_flow(inst)
    assert res.value == pytest.approx(8.0)
    np.testing.assert_allclose(res.flows, [1.0, 2.0, 1.0, 1.5])
    assert verify_certificate(inst, res) == []


def test_matches_linprog_on_random_instances():
    rng = np.random.default_rng(0xB7E6)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        arcs = [(i, (i + 1) % n, float(rng.uniform(0.1, 3.0)), None)
                for i in range(n)]
        for _extra in range(int(rng.integers(0, 2 * n))):
            u, v = rng.integers(0, n, 2)
            if u != v:
                cap = float(rng.uniform(0.2, 2.0)) if rng.random() < 0.5 else None
                arcs.append((int(u), int(v), float(rng.uniform(0.1, 3.0)), cap))
        supplies = rng.uniform(-1.0, 1.0, n)
        supplies -= supplies.mean()
        inst = MinCostFlowInstance(n, arcs, supplies)
        res = min_cost_flow(inst)
        assert res.value == pytest.approx(linprog_min_cost_flow(inst), abs=1e-8)
        assert verify_certificate(inst, res) == []


def test_zero_supplies_zero_flow():
    inst = MinCostFlowInstance(3, [(0, 1, 1.0, None), (1, 2, 1.0, None)],
                               [0.0, 0.0, 0.0])
    res = min_cost_flow(inst)
    assert res.value == 0.0
    np.testing.assert_allclose(res.flows, 0.0)


def test_infeasible_capacity_cut():
    inst = MinCostFlowInstance(2, [(0, 1, 1.0, 0.5)], [1.0, -1.0])
    with pytest.raises(InfeasibleFlowError):
        min_cost_flow(inst)


def test_infeasible_direction():
    # the only arc points away from the deficit
    inst = MinCostFlowInstance(2, [(1, 0, 1.0, None)], [1.0, -1.0])
    with pytest.raises(InfeasibleFlowError):
        min_cost_flow(inst)


def test_instance_validation():
    with pytest.raises(ValueError):
        min_cost_flow(MinCostFlowInstance(2, [(0, 1, 1.0, None)], [1.0, -0.5]))
    with pytest.raises(ValueError):
        min_cost_flow(MinCostFlowInstance(2, [(0, 1, -1.0, None)], [1.0, -1.0]))
    with pytest.raises(ValueError):
        min_cost_flow(MinCostFlowInstance(2, [(0, 2, 1.0, None)], [1.0, -1.0]))
    with pytest.raises(ValueError):
        min_cost_flow(MinCostFlowInstance(2, [(0, 1, 1.0, -2.0)], [1.0, -1.0]))
    for arc in [(0, 1, math.nan, None), (0, 1, math.inf, None),
                (0, 1, 1.0, math.nan)]:
        with pytest.raises(ValueError):
            min_cost_flow(MinCostFlowInstance(2, [arc], [1.0, -1.0]))


def test_certificate_flags_bad_potentials():
    inst = MinCostFlowInstance(2, [(0, 1, 2.0, None)], [1.0, -1.0])
    res = min_cost_flow(inst)
    doctored = MinCostFlowResult(res.flows, res.value, np.zeros(2))
    assert verify_certificate(inst, doctored)  # flow-carrying arc, reduced cost 2


# -------------------------------------------------------------------- exact_w1


def test_exact_w1_path_graph():
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert exact_w1(g, [1.0, 0, 0], [0, 0, 1.0]) == pytest.approx(2.0)
    assert exact_w1(g, [0.5, 0.5, 0], [0, 0.5, 0.5]) == pytest.approx(1.0)


def test_exact_w1_symmetry_and_identity():
    rng = np.random.default_rng(7)
    g = random_connected_graph(rng, 8)
    b1 = random_marginals(rng, 8)
    b2 = random_marginals(rng, 8)
    assert exact_w1(g, b1, b2) == pytest.approx(exact_w1(g, b2, b1), abs=1e-10)
    assert exact_w1(g, b1, b1) == 0.0


def test_exact_w1_scales_with_mass():
    rng = np.random.default_rng(9)
    g = random_connected_graph(rng, 6)
    b1 = random_marginals(rng, 6)
    b2 = random_marginals(rng, 6)
    base = exact_w1(g, b1, b2)
    assert exact_w1(g, 3.0 * b1, 3.0 * b2) == pytest.approx(3.0 * base, rel=1e-10)


def test_exact_w1_equals_transport_on_geodesic_cost():
    rng = np.random.default_rng(13)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(4, 10)))
        b1 = random_marginals(rng, g.n)
        b2 = random_marginals(rng, g.n)
        value, _ = exact_ot(floyd_warshall(g), b1, b2)
        assert exact_w1(g, b1, b2) == pytest.approx(value, abs=1e-8)


# -------------------------------------------------------------------- exact_ot


def test_exact_ot_single_cell():
    value, plan = exact_ot([[3.0]], [1.0], [1.0])
    assert value == pytest.approx(3.0)
    np.testing.assert_allclose(plan, [[1.0]])


def test_exact_ot_zero_diagonal_identical_marginals():
    cost = np.ones((3, 3)) - np.eye(3)
    b = np.array([0.2, 0.3, 0.5])
    value, plan = exact_ot(cost, b, b)
    assert value == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(plan, np.diag(b), atol=1e-12)


def test_exact_ot_matches_linprog():
    rng = np.random.default_rng(21)
    for _ in range(5):
        m1, m2 = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        cost = rng.random((m1, m2))
        b1 = random_marginals(rng, m1)
        b2 = random_marginals(rng, m2)
        value, plan = exact_ot(cost, b1, b2)
        a_eq = np.zeros((m1 + m2, m1 * m2))
        for i in range(m1):
            a_eq[i, i * m2 : (i + 1) * m2] = 1.0
        for j in range(m2):
            a_eq[m1 + j, j::m2] = 1.0
        ref = linprog(cost.ravel(), A_eq=a_eq,
                      b_eq=np.concatenate([b1, b2]), method="highs")
        assert ref.status == 0
        assert value == pytest.approx(ref.fun, abs=1e-9)
        np.testing.assert_allclose(plan.sum(axis=1), b1, atol=1e-9)
        np.testing.assert_allclose(plan.sum(axis=0), b2, atol=1e-9)
        assert np.all(plan >= -1e-12)
        assert float((cost * plan).sum()) == pytest.approx(value, abs=1e-9)
