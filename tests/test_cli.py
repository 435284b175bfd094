import argparse
import csv
import gc
import json
import math
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import sinkflow.graph as graph_module
from conftest import (criterion_2_graph, graph_edges, large_budget_edges,
                      random_marginals, random_ot_problem, traced_peak)
from reference import matrix_sweeps
from sinkflow import blocklp, cli, flowsinkhorn, sinkhorn
from sinkflow.blocklp import (BlockProblem, DualState, NumericOverflowError,
                              cost_and_dual, dual_objective, schedule_gamma,
                              solve)
from sinkflow.cli import main
from sinkflow.flowsinkhorn import FlowProblem, w1_estimate
from sinkflow.graph import Graph
from sinkflow.numerics import variation_seminorm
from sinkflow.analysis import verify_ascent
from sinkflow.oracle import exact_ot, exact_w1
from sinkflow.sinkhorn import OTProblem


@pytest.fixture
def flow_file(tmp_path):
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({
        "graph": {"n": 2, "edges": [[0, 1, 1.0]]},
        "b1": [1.0, 0.0],
        "b2": [0.0, 1.0],
        "gamma": 0.5,
    }))
    return str(path)


@pytest.fixture
def path3_file(tmp_path):
    path = tmp_path / "path3.json"
    path.write_text(json.dumps({
        "graph": {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.5]]},
        "b1": [0.7, 0.1, 0.2],
        "b2": [0.1, 0.3, 0.6],
        "gamma": 0.2,
    }))
    return str(path)


@pytest.fixture
def path4_file(tmp_path):
    """A path on four vertices whose --epsilon 0.05 run draws more than
    three sweeps in the rung and in the final solve (31 and 27)."""
    path = tmp_path / "path4.json"
    path.write_text(json.dumps({
        "graph": {"n": 4, "edges": [[0, 1, 1.0], [1, 2, 1.5], [2, 3, 0.5]]},
        "b1": [0.4, 0.1, 0.2, 0.3],
        "b2": [0.1, 0.3, 0.2, 0.4],
    }))
    return str(path)


@pytest.fixture
def ot_file(tmp_path):
    rng = np.random.default_rng(91)
    cost = rng.uniform(0.0, 1.0, size=(3, 3))
    path = tmp_path / "ot.json"
    path.write_text(json.dumps({
        "cost": cost.tolist(),
        "b1": [0.2, 0.3, 0.5],
        "b2": [0.4, 0.4, 0.2],
        "gamma": 0.1,
    }))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_w1_duals(path, gamma, max_sweeps):
    """w1_dual after max_sweeps of the matrix path and of the exact block
    updates, run in the library on the flow problem in path."""
    with open(path) as fh:
        data = json.load(fh)
    graph = Graph(data["graph"]["n"], data["graph"]["edges"])
    pb = FlowProblem(graph, data["b1"], data["b2"], gamma)
    duals = {}
    for name, sweeps in (("matrix", matrix_sweeps(pb)),
                         ("exact", BlockProblem.sweeps(pb))):
        state, _ = solve(pb, max_sweeps=max_sweeps, sweeps=sweeps)
        duals[name] = w1_estimate(pb, state)[1]
    return duals


def problem_in(command, path, gamma):
    """The w1 or ot problem in path, built in the library at gamma, and
    the estimate its subcommand prints."""
    with open(path) as fh:
        data = json.load(fh)
    if command == "w1":
        graph = Graph(data["graph"]["n"], data["graph"]["edges"])
        return FlowProblem(graph, data["b1"], data["b2"], gamma), w1_estimate
    return OTProblem(data["cost"], data["b1"], data["b2"], gamma), cost_and_dual


def desk_file(tmp_path, trial):
    """Criterion-2 graph trial as a w1 problem file, and its eps = 0.05 W1,
    the desk workload's target."""
    g, mu1, mu2 = criterion_2_graph(trial)
    path = tmp_path / "desk.json"
    path.write_text(json.dumps({"graph": {"n": g.n, "edges": graph_edges(g)},
                                "b1": mu1.tolist(), "b2": mu2.tolist()}))
    return path, 0.05 * exact_w1(g, mu1, mu2)


def reference_rung(problem, cap, omega=None, memory=None):
    """The --epsilon rung of problem, at the scheduled gamma, in the library
    as the README states it: problem at twice its gamma, solved from u = 0
    to the rung tolerance within the sweep cap with block 1 overrelaxed by
    omega and Anderson steps of the given memory (the rung's, unless
    given), recording its start and final rows. Returns the rung's state
    and its sweeps."""
    omega = cli._RUNG_OMEGA if omega is None else omega
    memory = cli._RUNG_MEMORY if memory is None else memory
    rung = problem.with_gamma(2 * problem.gamma)
    state, trace = solve(rung, max_sweeps=cap, residual_tol=cli._RUNG_TOL,
                         record_every=max(1, cap),
                         sweeps=rung.sweeps(omega=omega, memory=memory))
    assert list(trace.k) in ([0], [0, trace.k[-1]])
    return state, trace.k[-1]


def epsilon_reference(command, path, gamma, cap=None, record_every=1,
                      omega=None, memory=None):
    """An --epsilon run at the scheduled gamma, in the library: the rung of
    reference_rung, then gamma itself to 1e-6 from the rung's state, with
    exact sweeps and Anderson steps of the same memory, within what is
    left of the sweep cap. Returns the stdout payload, the final solve's
    trace and the sweeps the rung took."""
    cap = cli._SWEEP_CAP if cap is None else cap
    memory = cli._RUNG_MEMORY if memory is None else memory
    problem, estimate = problem_in(command, path, gamma)
    u0, rung_sweeps = reference_rung(problem, cap, omega, memory)
    state, trace = solve(problem, max_sweeps=cap - rung_sweeps,
                         residual_tol=1e-6, record_every=record_every, u0=u0,
                         sweeps=problem.sweeps(u0, memory=memory))
    primal, dual = estimate(problem, state)
    payload = {f"{command}_dual": dual, f"{command}_primal": primal,
               "gamma": gamma, "sweeps": rung_sweeps + trace.k[-1],
               "res1_l1": trace.res1_l1[-1]}
    return payload, trace, rung_sweeps


# ------------------------------------------------------------------- w1


def test_w1_epsilon_mode_two_node(capsys, flow_file):
    code, out, _ = run_cli(capsys, "w1", flow_file, "--epsilon", "0.1")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"w1_dual", "w1_primal", "gamma", "sweeps", "res1_l1"}
    # exact distance is 1; the smoothed value must land within epsilon/2
    # on the transport scale
    assert 0.95 <= payload["w1_dual"] <= 1.05
    assert payload["gamma"] > 0


def test_w1_uses_json_gamma_by_default(capsys, flow_file):
    code, out, _ = run_cli(capsys, "w1", flow_file)
    assert code == 0
    assert json.loads(out)["gamma"] == 0.5


def test_w1_gamma_flag_overrides_json(capsys, flow_file):
    code, out, _ = run_cli(capsys, "w1", flow_file, "--gamma", "0.25")
    assert code == 0
    assert json.loads(out)["gamma"] == 0.25


def test_w1_paths_agree(capsys, path3_file):
    """The engine w1 runs against the matrix path and the exact updates."""
    code, out, _ = run_cli(capsys, "w1", path3_file, "--max-sweeps", "60")
    assert code == 0
    dual = json.loads(out)["w1_dual"]
    values = reference_w1_duals(path3_file, 0.2, 60)
    assert values["matrix"] == pytest.approx(dual, abs=1e-8)
    assert values["exact"] == pytest.approx(dual, abs=1e-8)


def test_w1_scaling_matches_stable_at_gamma_005(capsys, path3_file):
    """Where |r| dominates sqrt(a c) the engine's scaling root must not
    cancel: w1 matches the exact block updates."""
    code, out, _ = run_cli(capsys, "w1", path3_file, "--gamma", "0.05",
                           "--max-sweeps", "60")
    assert code == 0
    dual = json.loads(out)["w1_dual"]
    assert reference_w1_duals(path3_file, 0.05, 60)["exact"] == \
        pytest.approx(dual, abs=1e-8)


def test_w1_trace_csv(capsys, path3_file, tmp_path):
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "w1", path3_file, "--max-sweeps", "8", "--trace", str(trace)
    )
    assert code == 0
    with open(trace) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == "k,F_gamma,res1_l1,res2_l1,primal_mass,u1_seminorm,u2_seminorm".split(",")
    assert len(rows) == 10  # header + rows k = 0..8
    assert int(rows[1][0]) == 0
    assert int(rows[-1][0]) == 8


def test_w1_deterministic_output(capsys, path3_file):
    code1, out1, _ = run_cli(capsys, "w1", path3_file, "--max-sweeps", "40")
    code2, out2, _ = run_cli(capsys, "w1", path3_file, "--max-sweeps", "40")
    assert code1 == code2 == 0
    assert out1 == out2


def test_w1_scaling_overflow_exits_3_with_partial_trace(capsys, monkeypatch,
                                                        tmp_path, path3_file):
    """An overflow in the scaling engine at sweep k exits 3, prints no
    answer and writes the trace rows 0..k-1."""
    at = 7
    engine = FlowProblem.sweeps

    def overflowing(problem, u0=None):
        for k, sweep in enumerate(engine(problem, u0), start=1):
            if k == at:
                raise NumericOverflowError(f"overflow at sweep {k}")
            yield sweep

    monkeypatch.setattr(FlowProblem, "sweeps", overflowing)
    trace = tmp_path / "partial.csv"
    code, out, err = run_cli(capsys, "w1", path3_file, "--max-sweeps", "50",
                             "--trace", str(trace))
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure")
    with open(trace) as fh:
        rows = list(csv.reader(fh))
    assert [int(row[0]) for row in rows[1:]] == list(range(at))


def test_w1_frees_the_sweeps_before_the_estimate(capsys, monkeypatch,
                                                 path3_file):
    """Nothing holds the sweeps iterator, with the kernel and scalings it
    keeps, while w1_estimate forms x(u) for the answer."""
    made = []
    start = FlowProblem.sweeps

    def recorded(problem, u0=None):
        sweeps = start(problem, u0)
        made.append(weakref.ref(sweeps))
        return sweeps

    alive = []
    answer = cli.w1_estimate

    def estimate(problem, state):
        alive.extend(ref() is not None for ref in made)
        return answer(problem, state)

    monkeypatch.setattr(FlowProblem, "sweeps", recorded)
    monkeypatch.setattr(cli, "w1_estimate", estimate)
    code, _, _ = run_cli(capsys, "w1", path3_file, "--max-sweeps", "5")
    assert code == 0
    assert alive == [False]


def test_w1_rejects_ot_input(capsys, ot_file):
    code, _, err = run_cli(capsys, "w1", ot_file)
    assert code == 2
    assert "graph" in err


# ------------------------------------------------------------------- ot


def test_ot_single_cell_gamma_mode(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({
        "cost": [[0.7]], "b1": [1.0], "b2": [1.0],
    }))
    code, out, _ = run_cli(capsys, "ot", str(path), "--gamma", "0.05")
    assert code == 0
    payload = json.loads(out)
    assert payload["ot_primal"] == pytest.approx(0.7, abs=1e-9)
    assert payload["ot_dual"] == pytest.approx(0.7, abs=1e-6)


def test_ot_single_cell_epsilon_mode_is_input_error(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"cost": [[0.7]], "b1": [1.0], "b2": [1.0]}))
    code, _, err = run_cli(capsys, "ot", str(path), "--epsilon", "0.1")
    assert code == 2
    assert "at least 3" in err


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(_ONES_3X3))
    return str(path)


def test_ot_identity_cost_epsilon_mode(capsys, identity_file):
    code, out, _ = run_cli(capsys, "ot", identity_file, "--epsilon", "0.25")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["ot_dual"] - 0.0) <= 0.25
    assert payload["ot_primal"] >= -1e-12


@pytest.mark.parametrize("command,fixture,eps,bound", [
    ("w1", "path3_file", 0.05, None),
    ("w1", "flow_file", 0.1, None),
    ("ot", "ot_file", 0.1, None),
    # the a-priori count at eps 0.25 is 154,030 sweeps
    ("ot", "identity_file", 0.25, 10),
    ("ot", "identity_file", 0.5, 100),
], ids=["w1-path3", "w1-two-node", "ot", "ot-identity-cost",
        "ot-identity-cost-0.5"])
def test_epsilon_runs_as_scheduled_gamma_to_tol_1e6(capsys, request,
                                                    tmp_path, command,
                                                    fixture, eps, bound):
    """--epsilon E solves at the scheduled G to --tol 1e-6, warm-started
    from the rung: stdout and the CSV equal the library's run bit for bit,
    the CSV holds the final solve from its warm start, the answer lands
    within E of the exact value, and the identity-cost plan takes at most
    the given sweeps in all."""
    path = request.getfixturevalue(fixture)
    eps_csv, ref_csv = tmp_path / "eps.csv", tmp_path / "ref.csv"
    code, out, err = run_cli(capsys, command, path, "--epsilon", repr(eps),
                             "--trace", str(eps_csv))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    want, trace, rung_sweeps = epsilon_reference(command, path,
                                                 payload["gamma"])
    assert payload == want
    trace.to_csv(ref_csv)
    assert eps_csv.read_text() == ref_csv.read_text()
    assert list(trace.k) == list(range(payload["sweeps"] - rung_sweeps + 1))
    assert payload["res1_l1"] <= 1e-6
    if bound is not None:
        assert payload["sweeps"] <= bound
    code, exact_out, _ = run_cli(capsys, "exact", path)
    assert code == 0
    exact = json.loads(exact_out)[f"{command}_exact"]
    assert abs(payload[f"{command}_dual"] - exact) <= eps


def test_w1_epsilon_forms_one_tree_flow(capsys, monkeypatch, path3_file):
    """The problem's one tree flow gives it its reference and the X0 that
    schedules gamma; neither the schedule nor the rung forms another. The
    printed gamma is schedule_gamma(eps, ||tree flow||_1, 2p) bit for
    bit."""
    calls = []
    tree_flow = graph_module.spanning_tree_flow

    def counted(*args):
        calls.append(args)
        return tree_flow(*args)

    for module in (flowsinkhorn, graph_module):
        monkeypatch.setattr(module, "spanning_tree_flow", counted)
    code, out, err = run_cli(capsys, "w1", path3_file, "--epsilon", "0.05")
    assert (code, err) == (0, "")
    assert len(calls) == 1
    problem, _ = problem_in("w1", path3_file, 1.0)
    x0 = float(tree_flow(problem.graph, problem.mu1, problem.mu2).sum())
    assert json.loads(out)["gamma"] == schedule_gamma(0.05, x0,
                                                      2 * problem.graph.p)


@pytest.mark.parametrize("trial", [0, 1])
def test_epsilon_ladder_makes_fewer_sweeps_than_the_scheduled_solve(
        capsys, tmp_path, trial):
    """On two criterion-2 graphs, w1 --epsilon makes fewer sweeps in all
    than --gamma G --tol 1e-6 at its scheduled G, and the two w1_dual
    agree within the residual bound both runs satisfy. At a full state,
    F* - F(u) <= <A1 x - b1, u1 - u1*> <= res1_l1 (V(u1) + V(u1*)), with V
    the variation seminorm, since the residual sums to 0 and block 2 is
    tight; both runs sit below F*, so they differ by at most the larger
    of their two bounds."""
    path, eps = desk_file(tmp_path, trial)
    runs = []
    for budget in (["--epsilon", repr(eps)], None):
        if budget is None:
            budget = ["--gamma", repr(runs[0][0]["gamma"]), "--tol", "1e-6"]
        csv_path = tmp_path / f"run{len(runs)}.csv"
        code, out, err = run_cli(capsys, "w1", str(path), *budget,
                                 "--trace", str(csv_path))
        assert (code, err) == (0, "")
        last = csv_path.read_text().splitlines()[-1].split(",")
        runs.append((json.loads(out), float(last[5])))
    (ladder, v_ladder), (plain, v_plain) = runs
    assert ladder["sweeps"] < plain["sweeps"]
    problem, _ = problem_in("w1", str(path), ladder["gamma"])
    star, trace = solve(problem, residual_tol=1e-10, max_sweeps=10**6,
                        record_every=10**6)
    assert trace.res1_l1[-1] <= 1e-10
    v_star = variation_seminorm(star.u1)
    bound = max(run["res1_l1"] * (v + v_star)
                for run, v in ((ladder, v_ladder), (plain, v_plain)))
    assert 2.0 * abs(ladder["w1_dual"] - plain["w1_dual"]) <= bound + 1e-12
    assert bound <= 1e-3 * eps


@pytest.mark.parametrize("trial", [0, 1])
def test_overrelaxed_rung_makes_fewer_sweeps_than_the_exact_rung(
        capsys, tmp_path, trial):
    """On two criterion-2 graphs, w1 --epsilon takes fewer sweeps in all
    than the same run in the library with an exact rung (omega 1), and
    its stdout is the library's run with the overrelaxed rung."""
    path, eps = desk_file(tmp_path, trial)
    code, out, err = run_cli(capsys, "w1", str(path), "--epsilon", repr(eps))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    want, _, _ = epsilon_reference("w1", str(path), payload["gamma"])
    exact, _, _ = epsilon_reference("w1", str(path), payload["gamma"],
                                    omega=1.0)
    assert payload == want
    assert payload["sweeps"] < exact["sweeps"]


@pytest.mark.parametrize("trial", [1, 8])
def test_anderson_rungs_make_at_most_0_7_of_the_sweeps_without_them(
        capsys, tmp_path, trial):
    """On two criterion-2 graphs, w1 --epsilon makes at most 0.7 times the
    sweeps of the same run in the library without Anderson steps in
    either solve (memory 0), and its stdout is the library's run with
    them."""
    path, eps = desk_file(tmp_path, trial)
    code, out, err = run_cli(capsys, "w1", str(path), "--epsilon", repr(eps))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    want, _, _ = epsilon_reference("w1", str(path), payload["gamma"])
    plain, _, _ = epsilon_reference("w1", str(path), payload["gamma"],
                                    memory=0)
    assert payload == want
    assert payload["sweeps"] <= 0.7 * plain["sweeps"]


def plan_file(tmp_path):
    """An 8x9 transport plan as an ot problem file, and its eps = 0.05 OT,
    the desk workload's share."""
    pb = random_ot_problem(np.random.default_rng(89), 8, 9, 1.0,
                           cost_scale=10.0)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"cost": pb.cost_matrix.tolist(),
                                "b1": pb.b1.tolist(), "b2": pb.b2.tolist()}))
    return path, 0.05 * exact_ot(pb.cost_matrix, pb.b1, pb.b2)[0]


@pytest.mark.parametrize("command,trial", [("w1", 1), ("w1", 8),
                                           ("ot", None)],
                         ids=["w1-trial-1", "w1-trial-8", "ot-8x9"])
def test_anderson_final_solve_passes_every_audit(capsys, monkeypatch,
                                                 tmp_path, command, trial):
    """The traced --epsilon final solve, exact sweeps with Anderson steps,
    on two criterion-2 graphs and an 8x9 plan: the CSV and stdout equal the
    library run's, the answer lands within eps of the exact value, F
    ascends, verify_ascent holds, every row meets criterion 5's 1e-9
    first-order bounds and at least one candidate is taken. Count guard:
    the final solve makes fewer sweeps than the same solve without
    Anderson steps (memory 0) from the rung's state. Negative control: a
    CLI whose final solve runs without them fails the guard."""
    if command == "w1":
        path, eps = desk_file(tmp_path, trial)
        problem_type = FlowProblem
    else:
        path, eps = plan_file(tmp_path)
        problem_type = OTProblem
    traces, taken = [], []
    solved, settle = cli.solve, blocklp._Safeguard.settle
    engine = problem_type.sweeps

    def kept(*args, **kwargs):
        state, trace = solved(*args, **kwargs)
        traces.append(trace)
        return state, trace

    def counted(guard, candidate, value):
        kept = settle(guard, candidate, value)
        # the solves done before this one: 0 in the rung, 1 in the final
        taken.append((len(traces), kept))
        return kept

    monkeypatch.setattr(cli, "solve", kept)
    monkeypatch.setattr(blocklp._Safeguard, "settle", counted)
    csv_path = tmp_path / "eps.csv"
    code, out, err = run_cli(capsys, command, str(path), "--epsilon",
                             repr(eps), "--trace", str(csv_path))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    gamma = payload["gamma"]
    want, ref, rung_sweeps = epsilon_reference(command, str(path), gamma)
    assert payload == want
    ref.to_csv(tmp_path / "ref.csv")
    assert csv_path.read_text() == (tmp_path / "ref.csv").read_text()
    code, exact_out, _ = run_cli(capsys, "exact", str(path))
    assert abs(payload[f"{command}_dual"]
               - json.loads(exact_out)[f"{command}_exact"]) <= eps
    final = traces[-1]
    assert final.check_monotone() and verify_ascent(final)
    for i in range(1, len(final)):
        assert final.foc1[i] <= 1e-9 * max(1.0, final.half_mass[i])
        assert final.foc2[i] <= 1e-9 * max(1.0, final.primal_mass[i])
    assert (1, True) in taken

    problem, _ = problem_in(command, str(path), gamma)
    u0, _ = reference_rung(problem, cli._SWEEP_CAP)
    _, plain = solve(problem, residual_tol=1e-6, max_sweeps=cli._SWEEP_CAP,
                     record_every=cli._SWEEP_CAP, u0=u0)
    assert final.k[-1] < plain.k[-1]

    def no_final_anderson(problem, u0=None, omega=1.0, memory=0):
        return engine(problem, u0, omega, memory if omega != 1.0 else 0)

    monkeypatch.setattr(problem_type, "sweeps", no_final_anderson)
    code, out, _ = run_cli(capsys, command, str(path), "--epsilon",
                           repr(eps))
    assert code == 0
    assert not json.loads(out)["sweeps"] - rung_sweeps < plain.k[-1]


@pytest.mark.parametrize("command,fixture", [("w1", "path3_file"),
                                             ("ot", "ot_file")])
def test_epsilon_setup_skips_the_a_priori_constants(capsys, monkeypatch,
                                                    request, command,
                                                    fixture):
    path = request.getfixturevalue(fixture)
    code, want, _ = run_cli(capsys, command, path, "--epsilon", "0.1")
    assert code == 0

    def unused(*args, **kwargs):
        raise AssertionError("the a-priori constants are off the run path")

    for module, name in ((flowsinkhorn, "flow_constants"),
                         (flowsinkhorn, "hop_diameter"),
                         (graph_module, "hop_diameter"),
                         (sinkhorn, "ot_constants")):
        monkeypatch.setattr(module, name, unused)
    assert run_cli(capsys, command, path, "--epsilon", "0.1") == (0, want, "")


@pytest.mark.parametrize("command,fixture", [("w1", "path4_file"),
                                             ("ot", "ot_file")])
def test_untraced_run_keeps_two_rows_and_prints_the_traced_stdout(
        capsys, monkeypatch, request, tmp_path, command, fixture):
    """Without --trace a run records only the start and final rows and
    prints what the traced run prints, with sweeps a JSON integer. Under
    --epsilon the rung records only those two rows either way, and the
    final solve records every sweep of a traced run. The flow engine
    evaluates the state of every recorded sweep, and so only the final
    sweep's of each untraced solve."""
    path = request.getfixturevalue(fixture)
    traces, stacks = [], []

    def kept(solve):
        def call(*args, **kwargs):
            state, trace = solve(*args, **kwargs)
            traces.append(trace)
            return state, trace
        return call

    def counted(rows):
        def call(*args):
            states = len(args[-1])
            out = list(rows(*args))
            stacks.append((states, out))
            return out
        return call

    monkeypatch.setattr(cli, "solve", kept(cli.solve))
    monkeypatch.setattr(flowsinkhorn, "_absorbed_rows",
                        counted(flowsinkhorn._absorbed_rows))
    csv_path = tmp_path / "trace.csv"
    traced = run_cli(capsys, command, path, "--epsilon", "0.05",
                     "--trace", str(csv_path))
    sweeps = json.loads(traced[1])["sweeps"]
    assert traced[0] == 0 and type(sweeps) is int and sweeps > 10
    traced_stacks = stacks[:]
    del stacks[:]
    assert run_cli(capsys, command, path, "--epsilon", "0.05") == traced
    rung_trace, final_trace, untraced_rung, untraced_final = traces
    rung = rung_trace.k[-1]
    assert list(rung_trace.k) == list(untraced_rung.k) == (
        [0, rung] if rung else [0])
    final = sweeps - rung
    assert final > 0
    assert list(final_trace.k) == list(range(final + 1))
    assert list(untraced_final.k) == [0, final]
    if command == "w1":
        ran = 2 if rung else 1
        assert sum(n for n, _ in traced_stacks) == final + ran - 1
        assert [n for n, _ in stacks] == [1] * ran
        # the final solve's one state is its last sweep's: the CSV's last
        # res2_l1
        last = csv_path.read_text().splitlines()[-1].split(",")
        assert stacks[-1][1][0][2][0] == float(last[3])


def test_ot_schema_keys(capsys, ot_file):
    code, out, _ = run_cli(capsys, "ot", ot_file)
    assert code == 0
    assert set(json.loads(out)) == {
        "ot_dual", "ot_primal", "gamma", "sweeps", "res1_l1"
    }


# ----------------------------------------------------------------- exact


def test_exact_w1_two_node(capsys, flow_file):
    code, out, _ = run_cli(capsys, "exact", flow_file)
    assert code == 0
    assert json.loads(out) == {"w1_exact": 1.0}


def test_exact_ot(capsys, ot_file):
    code, out, _ = run_cli(capsys, "exact", ot_file)
    assert code == 0
    value = json.loads(out)["ot_exact"]
    assert 0.0 <= value <= 1.0


def test_exact_rejects_unknown_schema(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"rows": [1, 2]}))
    code, _, err = run_cli(capsys, "exact", str(path))
    assert code == 2
    assert "neither" in err


# ---------------------------------------------------------------- verify


def test_verify_battery_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    summary = lines[-1]
    assert summary == {"check": "battery", "seed": summary["seed"], "pass": True}
    controls = [l for l in lines if l.get("negative_control")]
    assert len(controls) == 3
    assert all(not c["pass"] for c in controls)
    regular = [l for l in lines[:-1] if not l.get("negative_control")]
    assert len(regular) == 9
    assert all(r["pass"] for r in regular)


def test_verify_single_instance_with_seed(capsys, ot_file):
    code, out, _ = run_cli(capsys, "verify", ot_file, "--seed", "dead")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[-1]["seed"] == 0xDEAD
    instances = {l["instance"] for l in lines if "instance" in l}
    assert len(instances) == 1


# ------------------------------------------------------------ bad inputs


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "w1", "/nonexistent/problem.json")
    assert code == 2
    assert "cannot read" in err


def test_invalid_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = run_cli(capsys, "w1", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_non_object_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    code, _, err = run_cli(capsys, "w1", str(path))
    assert code == 2


def test_missing_gamma_everywhere_is_input_error(capsys, tmp_path):
    path = tmp_path / "nogamma.json"
    path.write_text(json.dumps({
        "graph": {"n": 2, "edges": [[0, 1, 1.0]]},
        "b1": [1.0, 0.0], "b2": [0.0, 1.0],
    }))
    code, _, err = run_cli(capsys, "w1", str(path))
    assert code == 2
    assert "gamma" in err


def test_bad_marginals_are_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "graph": {"n": 2, "edges": [[0, 1, 1.0]]},
        "b1": [1.0, 0.0], "b2": [0.0, 0.25], "gamma": 0.5,
    }))
    code, _, err = run_cli(capsys, "w1", str(path))
    assert code == 2
    assert "balance" in err


@pytest.mark.parametrize("graph", [
    {"n": 3, "edges": [[0, 1, 1.0], [1, 1, 1.0], [1, 2, 1.0]]},
    {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 1, 2.0]]},
    {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0], [1, 0, 2.0]]},
    {"n": 3, "edges": [[0, 1, 1.0], [1, 3, 1.0]]},
    {"n": 3, "edges": [[0, 1.5, 1.0], [1, 2, 1.0]]},
    {"n": 3.7, "edges": [[0, 1, 1.0], [1, 2, 1.0]]},
    {"n": 3, "edges": [[0, 1, 0.0], [1, 2, 1.0]]},
    {"n": 3, "edges": [[0, 1, float("nan")], [1, 2, 1.0]]},
    {"n": 3, "edges": [[0, 1, -1.0], [1, 2, 1.0]]},
    {"n": 3, "edges": [[0, 1, 1.0], [1, 2]]},
    {"n": 3, "edges": [[0, 1, 1.0, 2.0], [1, 2, 1.0, 2.0]]},
    {"n": 4, "edges": [[0, 1, 1.0], [1, 2, 1.0]]},
    {"n": 10 ** 400, "edges": [[0, 1, 1.0], [1, 2, 1.0]]},
], ids=["self-loop", "duplicate", "duplicate-reversed", "out-of-range",
        "fractional-endpoint", "fractional-n", "zero-weight", "nan-weight",
        "negative-weight", "ragged-row", "four-number-rows", "disconnected",
        "n-beyond-float"])
def test_malformed_graph_is_input_error(capsys, monkeypatch, tmp_path, graph):
    # JSON carries NaN as a bare literal, which json.dumps writes and
    # json.load reads
    path = tmp_path / "bad_graph.json"
    path.write_text(json.dumps({"graph": graph, "b1": [1.0, 0.0, 0.0],
                                "b2": [0.0, 0.0, 1.0], "gamma": 0.5}))
    monkeypatch.setattr(cli, "solve", None)  # no sweep may run
    code, out, err = run_cli(capsys, "w1", str(path), "--max-sweeps", "5")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: bad graph description: ")


@pytest.mark.parametrize("command", ["w1", "ot"])
def test_unwritable_trace_is_input_error_before_any_sweep(
        capsys, monkeypatch, tmp_path, flow_file, ot_file, command):
    path = flow_file if command == "w1" else ot_file
    trace = tmp_path / "missing" / "t.csv"
    monkeypatch.setattr(cli, "solve", None)  # no sweep may run
    code, out, err = run_cli(capsys, command, path, "--max-sweeps", "5",
                             "--trace", str(trace))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot write --trace {trace}")


def test_w1_gamma_runs_one_bfs(capsys, monkeypatch, path3_file):
    """The Graph's connectivity check is the only traversal of a budget run:
    the spanning-tree flow reuses its tree."""
    runs = []
    bfs = graph_module._bfs

    def counted(g, source):
        runs.append(source)
        return bfs(g, source)

    monkeypatch.setattr(graph_module, "_bfs", counted)
    code, _, _ = run_cli(capsys, "w1", path3_file, "--gamma", "0.2",
                         "--max-sweeps", "5")
    assert code == 0
    assert runs == [0]


def test_w1_peak_memory_is_the_parse(capsys, tmp_path):
    """Set-up drops each JSON list as it converts it, so a budget run on a
    20,000-vertex path-plus-chords graph peaks within 10% of json.load on
    its file. With the lists held through set-up it peaked at 1.60 times
    that."""
    rng = np.random.default_rng(5)
    n = 20_000
    path = tmp_path / "large.json"
    path.write_text(json.dumps({
        "graph": {"n": n, "edges": large_budget_edges(rng, n)},
        "b1": random_marginals(rng, n).tolist(),
        "b2": random_marginals(rng, n).tolist(),
    }))
    with open(path) as fh:
        _, parse = traced_peak(lambda: json.load(fh))
    code, call = traced_peak(lambda: main(
        ["w1", str(path), "--gamma", "0.05", "--max-sweeps", "5"]))
    assert code == 0
    assert json.loads(capsys.readouterr().out)["sweeps"] == 5
    assert call <= 1.1 * parse


@pytest.mark.parametrize("command,flag,value", [
    ("w1", "--max-sweeps", "5"), ("ot", "--max-sweeps", "5"),
    ("w1", "--tol", "0.5"), ("ot", "--tol", "0.5"),
], ids=["--max-sweeps-5-w1", "--max-sweeps-5-ot", "--tol-0.5-w1",
        "--tol-0.5-ot"])
def test_epsilon_rejects_budget_and_path_flags(capsys, flow_file, ot_file,
                                               command, flag, value):
    path = flow_file if command == "w1" else ot_file
    code, out, err = run_cli(capsys, command, path, "--epsilon", "0.05",
                             flag, value)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and flag in lines[0]


_TWO_NODE = {"graph": {"n": 2, "edges": [[0, 1, 1.0]]},
             "b1": [1.0, 0.0], "b2": [0.0, 1.0]}
_ONES_3X3 = {"cost": (np.ones((3, 3)) - np.eye(3)).tolist(),
             "b1": [0.3, 0.3, 0.4], "b2": [0.3, 0.3, 0.4]}


@pytest.mark.parametrize("command,payload,eps", [
    ("w1", {"graph": _TWO_NODE["graph"], "b2": [0.0, 1.0]}, "0.1"),
    ("w1", {**_TWO_NODE, "b2": [0.0, 0.5]}, "0.1"),
    ("w1", _TWO_NODE, "0"),
    ("w1", _TWO_NODE, "-0.1"),
    ("w1", _TWO_NODE, "nan"),
    ("ot", _ONES_3X3, "0"),
    ("ot", {**_ONES_3X3, "cost": [[0.0, 1.0], [1.0]]}, "0.1"),
], ids=["w1-no-b1", "w1-unbalanced", "w1-eps-zero", "w1-eps-negative",
        "w1-eps-nan", "ot-eps-zero", "ot-ragged-cost"])
def test_epsilon_bad_input_is_input_error(capsys, tmp_path, command, payload,
                                          eps):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, command, str(path), "--epsilon", eps)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("command", ["w1", "ot"])
@pytest.mark.parametrize("gamma", ["--gamma nan", "--gamma inf", "json 1e999",
                                   "json true"])
def test_nonfinite_gamma_is_input_error(capsys, tmp_path, flow_file, ot_file,
                                        command, gamma):
    path = flow_file if command == "w1" else ot_file
    how, value = gamma.split()
    if how == "json":
        # 1e999 loads as inf, which json.dumps would write as Infinity; true
        # loads as a bool, which Python counts as the int 1
        text = Path(path).read_text()
        path = tmp_path / "bad_gamma.json"
        path.write_text(text[:text.rindex("}")] + f', "gamma": {value}}}')
        argv = [command, str(path)]
    else:
        argv = [command, path, how, value]
    code, out, err = run_cli(capsys, *argv, "--max-sweeps", "5")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "gamma" in lines[0]


_PATH3 = {"graph": {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.5]]},
          "b2": [0.0, 0.0, 1.0], "gamma": 0.2}
_OT_2X2 = {"cost": [[0.0, 1.0], [1.0, 0.0]], "b2": [0.5, 0.5], "gamma": 0.1}


def _valid_input(kind: str) -> dict:
    """A valid input of the kind, "flow" or "ot"."""
    return ({**_PATH3, "b1": [1.0, 0.0, 0.0]} if kind == "flow"
            else {**_OT_2X2, "b1": [0.5, 0.5]})


# argv by test id; the second word is the kind of file the call reads
_INPUT_ARGVS = {
    "w1-budget": ["w1", "flow", "--max-sweeps", "5"],
    "w1-epsilon": ["w1", "flow", "--epsilon", "0.1"],
    "ot-gamma": ["ot", "ot", "--gamma", "0.1"],
    "ot-epsilon": ["ot", "ot", "--epsilon", "0.1"],
    "exact-flow": ["exact", "flow"], "exact-ot": ["exact", "ot"],
    "verify-flow": ["verify", "flow"], "verify-ot": ["verify", "ot"],
}


def assert_bad_input(capsys, monkeypatch, tmp_path, argv, text):
    """argv, with its kind replaced by a file holding text, exits 2 with one
    'error: bad ...' line before any sweep."""
    command, _kind, *flags = argv
    path = tmp_path / "bad_input.json"
    path.write_text(text)
    monkeypatch.setattr(cli, "solve", None)  # no sweep may run
    code, out, err = run_cli(capsys, command, str(path), *flags)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: bad ")


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
@pytest.mark.parametrize("argv", _INPUT_ARGVS.values(), ids=_INPUT_ARGVS)
def test_nonfinite_marginal_is_input_error(capsys, monkeypatch, tmp_path,
                                           argv, value):
    # JSON carries NaN and Infinity as bare literals, which json.load reads
    payload, b1 = (_PATH3, "[%s, 0, 0]") if argv[1] == "flow" else (
        _OT_2X2, "[%s, 0.5]")
    text = json.dumps(payload)
    assert_bad_input(capsys, monkeypatch, tmp_path, argv,
                     text[:-1] + f', "b1": {b1 % value}}}')


@pytest.mark.parametrize("argv", _INPUT_ARGVS.values(), ids=_INPUT_ARGVS)
def test_negative_marginal_is_input_error(capsys, monkeypatch, tmp_path,
                                          argv):
    # the totals balance, so only the sign is at fault
    payload = ({**_PATH3, "b1": [1.5, -0.5, 0.0]} if argv[1] == "flow"
               else {**_OT_2X2, "b1": [1.5, -0.5]})
    assert_bad_input(capsys, monkeypatch, tmp_path, argv, json.dumps(payload))


_FLOW_EDGES = _PATH3["graph"]["edges"]
_RAGGED_COST = [[0.0, 1.0], [1.0]]
# (kind, id, changes to a valid input of that kind, error line), with kind
# flow or ot, or a subcommand or an _INPUT_ARGVS id that alone takes the
# case on its input kind, or a whole argv as a tuple. A file with two
# faults reports the one set-up reads first.
_ONE_LINE_ERRORS = [
    ("flow", "edge-pair", {"graph": {"n": 3, "edges": [[0, 1], [1, 2]]}},
     "bad graph description: edges must be (i, j, w) triples, "
     "got shape (2, 2)"),
    ("flow", "string-weight",
     {"graph": {"n": 3, "edges": [[0, 1, "x"], [1, 2, 1.5]]}},
     "bad graph description: edges must be (i, j, w) triples: "
     "could not convert string to float: 'x'"),
    ("flow", "string-b1", {"b1": [1.0, "a", 0.0]},
     "bad flow problem: could not convert string to float: 'a'"),
    ("flow", "missing-n", {"graph": {"edges": _FLOW_EDGES}},
     "bad graph description: 'n'"),
    ("flow", "missing-n-and-edge-pair", {"graph": {"edges": [[0, 1]]}},
     "bad graph description: 'n'"),
    ("flow", "bad-n-and-edge-pair", {"graph": {"n": -1, "edges": [[0, 1]]}},
     "bad graph description: vertex count must be an integer >= 1, got -1"),
    ("flow", "bool-n", {"graph": {"n": True, "edges": []}, "b1": [1.0],
                        "b2": [1.0]},
     "bad graph description: vertex count must be an integer >= 1, got True"),
    # w1 --epsilon, too, refuses the graph, not the schedule it would give,
    # and either flag refuses it before its marginals
    ("w1", "one-vertex", {"graph": {"n": 1, "edges": []}, "b1": [1.0],
                            "b2": [1.0]},
     "bad flow problem: flow problems need at least two vertices"),
    ("w1", "one-vertex-and-unbalanced-b1",
     {"graph": {"n": 1, "edges": []}, "b1": [0.5], "b2": [1.0]},
     "bad flow problem: flow problems need at least two vertices"),
    # verify FILE, too, reads the graph before it looks for a gamma
    ("flow", "edge-pair-and-missing-gamma",
     {"graph": {"n": 3, "edges": [[0, 1], [1, 2]]}, "gamma": None},
     "bad graph description: edges must be (i, j, w) triples, "
     "got shape (2, 2)"),
    ("flow", "edge-pair-and-string-b1",
     {"graph": {"n": 3, "edges": [[0, 1]]}, "b1": [1.0, "a", 0.0]},
     "bad graph description: edges must be (i, j, w) triples, "
     "got shape (1, 2)"),
    ("flow", "string-b1-and-missing-b2", {"b1": [1.0, "a", 0.0], "b2": None},
     "bad flow problem: 'b2'"),
    ("ot", "ragged-cost", {"cost": _RAGGED_COST},
     "bad transport problem: {ragged}"),
    ("ot", "string-b1", {"b1": [0.5, "a"]},
     "bad transport problem: could not convert string to float: 'a'"),
    # set-up looks the marginals up before it converts the cost
    ("ot", "ragged-cost-and-missing-b1", {"cost": _RAGGED_COST, "b1": None},
     "bad transport problem: 'b1'"),
    ("ot-epsilon", "one-by-two-plan", {"cost": [[0.0, 1.0]], "b1": [1.0]},
     "bad --epsilon: the schedule needs at least 3 primal entries, got 2"),
    # a whole argv takes the case alone: the schedule underflows
    (("w1", "flow", "--epsilon", "5e-324"), "epsilon-underflow", {},
     "bad --epsilon: eps 5e-324 schedules gamma 0.0, which is not positive "
     "and finite"),
    (("ot", "ot", "--epsilon", "5e-324"), "epsilon-underflow", {},
     "bad --epsilon: eps 5e-324 schedules gamma 0.0, which is not positive "
     "and finite"),
]
# A JSON true or false in a number field is refused at load, before set-up
# reads any field. Each change but the OT marginals' would read as a valid
# input, with true as 1.0 and false as 0.0.
_ONE_LINE_ERRORS += [
    (kind, f"json-boolean-{case}", changes,
     f"bad '{field}': a JSON true or false is not a number")
    for kind, case, changes, field in [
        ("flow", "edge-weight",
         {"graph": {"n": 3, "edges": [[0, 1, True], [1, 2, 1.5]]}},
         "graph.edges"),
        ("flow", "edge-endpoint",
         {"graph": {"n": 3, "edges": [[0, True, 1.0], [1, 2, 1.5]]}},
         "graph.edges"),
        ("flow", "b1", {"b1": [True, False, 0.0]}, "b1"),
        ("flow", "b2", {"b2": [0.0, False, True]}, "b2"),
        ("ot", "cost", {"cost": [[0.0, True], [1.0, False]]}, "cost"),
        ("ot", "b1", {"b1": [True, 0.5]}, "b1"),
        ("ot", "b2", {"b2": [0.5, False]}, "b2"),
    ]]


@pytest.mark.parametrize("argv, changes, message", [
    pytest.param(argv, changes, message, id=f"{name}-{case}")
    for name, argv in _INPUT_ARGVS.items()
    for kind, case, changes, message in _ONE_LINE_ERRORS
    if kind in (name, argv[0], argv[1])
] + [
    pytest.param(list(kind), changes, message, id=f"{kind[0]}-{case}")
    for kind, case, changes, message in _ONE_LINE_ERRORS
    if isinstance(kind, tuple)
])
def test_input_errors_give_one_line_in_set_up_order(
        capsys, monkeypatch, tmp_path, argv, changes, message):
    """Malformed edges, marginals and costs, JSON booleans in them
    included, exit 2 with one exact line, which does not depend on when
    set-up converts each JSON list."""
    payload = {**_valid_input(argv[1]), **changes}
    for key in [key for key, value in changes.items() if value is None]:
        del payload[key]
    with pytest.raises(ValueError) as ragged:
        np.asarray(_RAGGED_COST, dtype=float)
    expected = message.format(ragged=ragged.value)
    path = tmp_path / "bad_input.json"
    path.write_text(json.dumps(payload))
    monkeypatch.setattr(cli, "solve", None)  # no sweep may run
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[2:])
    assert (code, out, err) == (2, "", f"error: {expected}\n")


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_exact_nonfinite_cost_is_input_error(capsys, monkeypatch, tmp_path,
                                             value):
    text = json.dumps({**_OT_2X2, "b1": [0.5, 0.5]})
    assert_bad_input(capsys, monkeypatch, tmp_path, _INPUT_ARGVS["exact-ot"],
                     text.replace("[[0.0, 1.0]", f"[[0.0, {value}]"))


@pytest.mark.parametrize("argv", _INPUT_ARGVS.values(), ids=_INPUT_ARGVS)
def test_string_true_is_no_json_boolean(capsys, monkeypatch, tmp_path, argv):
    """Negative control: a valid file with an extra string field holding
    "true" is scanned, since its text holds a "u", and prints what the file
    without that field prints, which is not scanned."""
    scanned, refuse = [], cli._refuse_booleans
    monkeypatch.setattr(cli, "_refuse_booleans",
                        lambda data: scanned.append(data) or refuse(data))
    runs = []
    for extra in ({}, {"note": "true"}):
        path = tmp_path / f"input{len(runs)}.json"
        path.write_text(json.dumps({**_valid_input(argv[1]), **extra}))
        runs.append(run_cli(capsys, argv[0], str(path), *argv[2:]))
    assert runs[0][0] == 0 and runs[0][1]
    assert runs[1] == runs[0]
    assert len(scanned) == 1


@pytest.mark.parametrize("command", ["w1", "ot"])
@pytest.mark.parametrize("budget,cap,tol", [
    ([], 3, 1e-9),
    (["--tol", "1e-12", "--max-sweeps", "4"], 4, 1e-12),
    (["--tol", "1e-6"], 3, 1e-6),
    (["--epsilon", "0.05"], 3, 1e-6),
], ids=["default-tol", "tol-flag", "tol-only", "epsilon-fallback"])
def test_sweep_cap_short_of_tolerance_warns(capsys, monkeypatch, tmp_path,
                                            path3_file, path4_file, ot_file,
                                            command, budget, cap, tol):
    """A run that stops at its cap short of its tolerance prints one
    warning line and otherwise runs as given the cap as its budget. Under
    --epsilon the cap bounds the sweeps of the rung and the final solve
    together and the warning reads the final solve's residual: with a cap
    of 3, spent in the rung, and with one that leaves the final solve 3
    sweeps, or one fewer than it takes where it takes fewer. The w1 run
    is on path4, whose final solve takes more than one sweep."""
    w1_file = path4_file if "--epsilon" in budget else path3_file
    path = w1_file if command == "w1" else ot_file
    caps = [cap]
    if "--epsilon" in budget:
        code, out, _ = run_cli(capsys, command, path, *budget)
        gamma = json.loads(out)["gamma"]
        _, final, rung_sweeps = epsilon_reference(command, path, gamma)
        assert rung_sweeps > cap and final.k[-1] >= 1
        caps.append(rung_sweeps + min(3, final.k[-1] - 1))
    for cap in caps:
        monkeypatch.setattr(cli, "_SWEEP_CAP", cap)
        trace = tmp_path / "trace.csv"
        code, out, err = run_cli(capsys, command, path, *budget,
                                 "--trace", str(trace))
        assert code == 0
        payload = json.loads(out)
        assert payload["sweeps"] == cap
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning:")
        assert f"cap of {cap} " in lines[0]
        assert repr(payload["res1_l1"]) in lines[0]
        assert repr(tol) in lines[0]
        # the warning changes nothing else: same stdout and trace as a run
        # given the cap as its budget
        if "--epsilon" in budget:
            want, ref, _ = epsilon_reference(command, path, gamma, cap)
            assert payload == want
            assert ref.k[-1] == max(0, cap - rung_sweeps)
            ref.to_csv(tmp_path / "plain.csv")
        else:
            code2, out2, err2 = run_cli(
                capsys, command, path, "--max-sweeps", str(cap), "--trace",
                str(tmp_path / "plain.csv"))
            assert (code2, err2) == (0, "")
            assert json.loads(out2)["res1_l1"] == payload["res1_l1"]
        assert trace.read_text() == (tmp_path / "plain.csv").read_text()


@pytest.mark.parametrize("command", ["w1", "ot"])
@pytest.mark.parametrize("which", range(4))
def test_overflow_mid_ladder_exits_3_with_that_solves_partial_trace(
        capsys, monkeypatch, tmp_path, path4_file, ot_file, command, which):
    """A NumericOverflowError in either solve of an --epsilon run, the rung
    (which = 0, 2) or the final solve (1, 3), at its third sweep (which =
    0, 1), or at its last where it takes fewer, or at its first (2, 3),
    exits 3 with one stderr line and writes that solve's partial trace:
    the rung's start row only, since the rung records its start and final
    rows, or the final solve's rows before that sweep. The w1 run is on
    path4, where both solves draw a sweep."""
    solve, nth = which % 2, (3, 1)[which // 2]
    path = path4_file if command == "w1" else ot_file
    problem_type = FlowProblem if command == "w1" else OTProblem
    engine = problem_type.sweeps
    made, drawn = [], []  # each solve's gamma and the sweeps drawn from it
    fail_at = None  # (solve, sweep) that overflows

    def overflowing(problem, u0=None, omega=1.0, memory=0):
        made.append(problem.gamma)
        drawn.append(0)
        for k, sweep in enumerate(engine(problem, u0, omega, memory),
                                  start=1):
            if (len(made) - 1, k) == fail_at:
                raise NumericOverflowError(f"overflow at sweep {k}")
            drawn[-1] = k
            yield sweep

    monkeypatch.setattr(problem_type, "sweeps", overflowing)
    code, out, _ = run_cli(capsys, command, path, "--epsilon", "0.05")
    gamma = json.loads(out)["gamma"]
    assert len(drawn) == 2 and drawn[solve] >= 1
    fail_at = (solve, min(nth, drawn[solve]))
    del made[:]
    trace = tmp_path / "partial.csv"
    code, out, err = run_cli(capsys, command, path, "--epsilon", "0.05",
                             "--trace", str(trace))
    assert (code, out) == (3, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure")
    assert made == [2 * gamma, gamma][:solve + 1]
    with open(trace) as fh:
        rows = list(csv.reader(fh))
    assert [int(row[0]) for row in rows[1:]] == (
        list(range(fail_at[1])) if solve else [0])
    # row 0 is the start of that solve: u = 0, or the rung's state
    monkeypatch.undo()
    problem, _ = problem_in(command, path, gamma)
    at = problem.with_gamma(made[-1])
    start = (reference_rung(problem, cli._SWEEP_CAP)[0] if solve
             else at.initial_state())
    assert float(rows[1][1]) == dual_objective(at, start)


@pytest.mark.parametrize("command", ["w1", "ot"])
def test_no_warning_when_tolerance_met_or_absent(capsys, path3_file, ot_file,
                                                 command):
    path = path3_file if command == "w1" else ot_file
    for argv in ([], ["--max-sweeps", "3"], ["--tol", "1e-3",
                                              "--max-sweeps", "1000"]):
        code, _, err = run_cli(capsys, command, path, *argv)
        assert (code, err) == (0, "")


def test_ot_small_gamma_prints_nothing_on_stderr(capsys, tmp_path):
    """Absorptions and log-domain fallbacks fire here; numpy stays quiet."""
    rng = np.random.default_rng(0x0E)
    cost = 10.0 * rng.random((6, 7))
    b1 = rng.random(6) + 0.05
    b2 = rng.random(7) + 0.05
    path = tmp_path / "ot.json"
    path.write_text(json.dumps({"cost": cost.tolist(),
                                "b1": (b1 / b1.sum()).tolist(),
                                "b2": (b2 / b2.sum()).tolist()}))
    code, out, err = run_cli(capsys, "ot", str(path), "--gamma", "1e-4",
                             "--max-sweeps", "200")
    assert (code, err) == (0, "")
    assert math.isfinite(json.loads(out)["ot_dual"])


@pytest.mark.parametrize("command,budget", [
    ("w1", ["--max-sweeps", "-1"]), ("ot", ["--max-sweeps", "-1"]),
    *((command, ["--tol", tol, "--max-sweeps", "20"])
      for command in ("w1", "ot") for tol in ("nan", "inf", "-1")),
], ids=["w1", "ot", "w1-tol-nan", "w1-tol-inf", "w1-tol--1", "ot-tol-nan",
        "ot-tol-inf", "ot-tol--1"])
def test_negative_max_sweeps_is_input_error(capsys, flow_file, ot_file,
                                            command, budget):
    """A negative --max-sweeps, and a --tol outside [0, inf)."""
    path = flow_file if command == "w1" else ot_file
    code, out, err = run_cli(capsys, command, path, *budget)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert budget[0] in lines[0]


@pytest.mark.parametrize("argv,message", [
    (["verify", "NOGAMMA"], "error: no --gamma given"),
    (["verify", "--gamma", "0.3"], "error: --gamma needs a problem FILE"),
], ids=["file-without-gamma", "gamma-without-file"])
def test_verify_gamma_input_errors(capsys, tmp_path, argv, message):
    path = tmp_path / "nogamma.json"
    path.write_text(json.dumps(_TWO_NODE))
    argv = [str(path) if a == "NOGAMMA" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message)


@pytest.mark.parametrize("argv", [
    ["exact", "FILE", "--epsilon", "1"],
    ["exact", "FILE", "--path", "matrix"],
    ["verify", "--max-sweeps", "5"],
    ["verify", "--trace", "t.csv"],
    ["w1", "FILE", "--seed", "ff"],
    ["ot", "FILE", "--path", "matrix"],
    ["ot", "FILE", "--path", "scaling"],
    ["ot", "FILE", "--path", "stable"],
    ["ot", "FILE", "--epsilon", "0.05", "--path", "scaling"],
    ["w1", "FILE", "--path", "stable"],
    ["w1", "FILE", "--epsilon", "0.05", "--path", "scaling"],
    ["w1", "FILE", "--deterministic"],
    ["exact", "FILE", "--deterministic"],
    ["verify", "--deterministic"],
], ids=["exact-epsilon", "exact-path", "verify-max-sweeps", "verify-trace",
        "w1-seed", "ot-path-matrix", "ot-path-scaling", "ot-path-stable",
        "ot-epsilon-path", "w1-path-stable", "w1-epsilon-path",
        "w1-deterministic", "exact-deterministic", "verify-deterministic"])
def test_subcommand_rejects_flags_it_does_not_read(capsys, flow_file, argv):
    argv = [flow_file if a == "FILE" else a for a in argv]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the last flag in each row is the one the subcommand does not read
    flag = [a for a in argv if a.startswith("--")][-1]
    assert flag in captured.err.splitlines()[-1]


def registered_options():
    """{subcommand: the options its parser registers, 'input' for the
    positional FILE}."""
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {
        name: {a.option_strings[-1] if a.option_strings else a.dest
               for a in sub._actions} - {"--help"}
        for name, sub in subparsers.choices.items()
    }


def test_option_sets_per_subcommand():
    """Each subcommand registers exactly the options it reads."""
    run = {"input", "--gamma", "--epsilon", "--max-sweeps", "--tol",
           "--trace"}
    assert registered_options() == {
        "w1": run,
        "ot": run,
        "exact": {"input"},
        "verify": {"input", "--gamma", "--seed"},
    }


def test_readme_flag_list_matches_the_parser():
    """The README's per-subcommand flag list names the options that
    _build_parser registers, and no others."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = text.index("Each subcommand takes only the flags it reads")
    block = text[start:text.index("\n\n", text.index("\n- ", start))]
    documented = {}
    for item in block.split("\n- ")[1:]:
        head, _, flags = item.partition(":")
        name, *positional = head.strip("`").split()
        documented[name] = (set(re.findall(r"`(--[a-z-]+)", flags))
                            | ({"input"} if positional else set()))
    assert documented == registered_options()


def test_gamma_epsilon_conflict_is_usage_error(flow_file):
    with pytest.raises(SystemExit) as err:
        main(["w1", flow_file, "--gamma", "0.5", "--epsilon", "0.1"])
    assert err.value.code == 2


def test_bad_seed_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--seed", "zz"])
    assert err.value.code == 2


def test_main_builds_the_parser_once(capsys, flow_file):
    """A second main call reuses the parser: it creates no ArgumentParser,
    not even one that only the cyclic collector would free."""
    def parsers():
        return sum(isinstance(o, argparse.ArgumentParser)
                   for o in gc.get_objects())

    assert main(["exact", flow_file]) == 0
    gc.collect()
    before = parsers()
    gc.disable()
    try:
        assert main(["exact", flow_file]) == 0
        after = parsers()
    finally:
        gc.enable()
    assert after == before


# -------------------------------------------------------------- subprocess


def test_module_entry_point_runs(flow_file):
    proc = subprocess.run(
        [sys.executable, "-m", "sinkflow.cli", "w1", flow_file,
         "--epsilon", "0.1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert 0.95 <= payload["w1_dual"] <= 1.05


@pytest.mark.parametrize("flag", [["--gamma", "1e-320", "--max-sweeps", "20"],
                                  ["--epsilon", "1e-320"]],
                         ids=["gamma", "epsilon"])
def test_nan_residual_exits_3_within_5_s(path3_file, flag):
    """At a subnormal gamma the flow engine's residual is NaN from sweep 1:
    the run is a numeric failure, not NaN output or a run to the cap."""
    proc = subprocess.run(
        [sys.executable, "-m", "sinkflow.cli", "w1", path3_file, *flag],
        capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    lines = [line for line in proc.stderr.splitlines()
             if line.startswith("numeric failure")]
    assert lines == ["numeric failure: the block-1 residual of sweep 1 is NaN"]


def test_module_entry_point_usage_error(flow_file):
    proc = subprocess.run(
        [sys.executable, "-m", "sinkflow.cli", "w1", flow_file,
         "--gamma", "1", "--epsilon", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
