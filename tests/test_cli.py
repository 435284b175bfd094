import argparse
import csv
import json
import math
import subprocess
import sys
import weakref

import numpy as np
import pytest

from sinkflow import cli
from sinkflow.cli import main


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
    values = {}
    for path in ("matrix", "scaling", "stable"):
        code, out, _ = run_cli(
            capsys, "w1", path3_file, "--path", path, "--max-sweeps", "60"
        )
        assert code == 0
        values[path] = json.loads(out)["w1_dual"]
    assert values["matrix"] == pytest.approx(values["stable"], abs=1e-8)
    assert values["scaling"] == pytest.approx(values["stable"], abs=1e-8)


def test_w1_scaling_matches_stable_at_gamma_005(capsys, path3_file):
    """Where |r| dominates sqrt(PQ) the scaling update must not cancel."""
    values = {}
    for path in ("scaling", "stable"):
        code, out, _ = run_cli(
            capsys, "w1", path3_file, "--gamma", "0.05", "--path", path,
            "--max-sweeps", "60",
        )
        assert code == 0
        values[path] = json.loads(out)["w1_dual"]
    assert values["scaling"] == pytest.approx(values["stable"], abs=1e-8)


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
    code3, out3, _ = run_cli(
        capsys, "w1", path3_file, "--max-sweeps", "40", "--deterministic"
    )
    assert code3 == 0
    assert out3 == out1


def test_w1_scaling_overflow_exits_3_with_partial_trace(capsys, tmp_path, path3_file):
    trace = tmp_path / "partial.csv"
    code, out, err = run_cli(
        capsys, "w1", path3_file, "--gamma", "1e-3", "--path", "scaling",
        "--max-sweeps", "50", "--trace", str(trace),
    )
    assert code == 3
    assert out == ""
    assert "numeric failure" in err
    with open(trace) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) >= 2  # header plus at least the starting row


@pytest.mark.parametrize("path", ["stable", "matrix", "scaling"])
def test_w1_frees_the_sweeps_before_the_estimate(capsys, monkeypatch,
                                                 path3_file, path):
    """Nothing holds the sweeps iterator, with the kernel and scalings it
    keeps, while w1_estimate forms x(u) for the answer."""
    made = []
    start = cli._FLOW_SWEEPS[path]

    def recorded(problem):
        sweeps = start(problem)
        made.append(weakref.ref(sweeps))
        return sweeps

    alive = []
    answer = cli.w1_estimate

    def estimate(problem, state):
        alive.extend(ref() is not None for ref in made)
        return answer(problem, state)

    monkeypatch.setitem(cli._FLOW_SWEEPS, path, recorded)
    monkeypatch.setattr(cli, "w1_estimate", estimate)
    code, _, _ = run_cli(capsys, "w1", path3_file, "--path", path,
                         "--max-sweeps", "5")
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


def test_ot_identity_cost_epsilon_mode(capsys, tmp_path):
    cost = (np.ones((3, 3)) - np.eye(3)).tolist()
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({
        "cost": cost, "b1": [0.3, 0.3, 0.4], "b2": [0.3, 0.3, 0.4],
    }))
    code, out, _ = run_cli(capsys, "ot", str(path), "--epsilon", "0.25")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["ot_dual"] - 0.0) <= 0.25
    assert payload["ot_primal"] >= -1e-12


def test_ot_epsilon_planned_run_stops_at_zero_residual(capsys, ot_file):
    # the planned budget here is 775,993 sweeps; res1_l1 is exactly 0.0
    # after 47, and the gap-residual bound is then 0
    code, out, _ = run_cli(capsys, "ot", ot_file, "--epsilon", "0.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["res1_l1"] == 0.0
    assert payload["sweeps"] < 100
    code, exact_out, _ = run_cli(capsys, "exact", ot_file)
    assert code == 0
    assert abs(payload["ot_dual"] - json.loads(exact_out)["ot_exact"]) <= 0.1


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


@pytest.mark.parametrize("command,flag,value", [
    ("w1", "--max-sweeps", "5"), ("ot", "--max-sweeps", "5"),
    ("w1", "--tol", "0.5"), ("ot", "--tol", "0.5"),
    ("w1", "--path", "scaling"),
], ids=["--max-sweeps-5-w1", "--max-sweeps-5-ot", "--tol-0.5-w1",
        "--tol-0.5-ot", "--path-scaling-w1"])
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
        text = open(path).read()
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


@pytest.mark.parametrize("command", ["w1", "ot"])
@pytest.mark.parametrize("budget,cap,tol", [
    ([], 3, 1e-9),
    (["--tol", "1e-12", "--max-sweeps", "4"], 4, 1e-12),
    (["--tol", "1e-6"], 3, 1e-6),
    (["--epsilon", "0.05"], 3, 1e-6),
], ids=["default-tol", "tol-flag", "tol-only", "epsilon-fallback"])
def test_sweep_cap_short_of_tolerance_warns(capsys, monkeypatch, tmp_path,
                                            path3_file, ot_file, command,
                                            budget, cap, tol):
    monkeypatch.setattr(cli, "_SWEEP_CAP", 3)
    path = path3_file if command == "w1" else ot_file
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
    budget_argv = [command, path, "--max-sweeps", str(cap), "--trace",
                   str(tmp_path / "plain.csv")]
    if "--epsilon" in budget:
        gamma = payload["gamma"]
        budget_argv += ["--gamma", repr(gamma)]
    code2, out2, err2 = run_cli(capsys, *budget_argv)
    assert (code2, err2) == (0, "")
    assert json.loads(out2)["res1_l1"] == payload["res1_l1"]
    assert trace.read_text() == (tmp_path / "plain.csv").read_text()


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


@pytest.mark.parametrize("command", ["w1", "ot"])
def test_negative_max_sweeps_is_input_error(capsys, flow_file, ot_file,
                                            command):
    path = flow_file if command == "w1" else ot_file
    code, out, err = run_cli(capsys, command, path, "--max-sweeps", "-1")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "--max-sweeps" in lines[0]


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
], ids=["exact-epsilon", "exact-path", "verify-max-sweeps", "verify-trace",
        "w1-seed", "ot-path-matrix", "ot-path-scaling", "ot-path-stable",
        "ot-epsilon-path"])
def test_subcommand_rejects_flags_it_does_not_read(capsys, flow_file, argv):
    argv = [flow_file if a == "FILE" else a for a in argv]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[-2] in captured.err.splitlines()[-1]


def test_option_sets_per_subcommand():
    """Each subcommand registers exactly the options it reads."""
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {a.option_strings[-1] if a.option_strings else a.dest
               for a in sub._actions} - {"--help"}
        for name, sub in subparsers.choices.items()
    }
    run = {"input", "--gamma", "--epsilon", "--max-sweeps", "--tol",
           "--trace", "--deterministic"}
    assert options == {
        "w1": run | {"--path"},
        "ot": run,
        "exact": {"input", "--deterministic"},
        "verify": {"input", "--gamma", "--seed", "--deterministic"},
    }


def test_gamma_epsilon_conflict_is_usage_error(flow_file):
    with pytest.raises(SystemExit) as err:
        main(["w1", flow_file, "--gamma", "0.5", "--epsilon", "0.1"])
    assert err.value.code == 2


def test_bad_seed_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--seed", "zz"])
    assert err.value.code == 2


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


def test_module_entry_point_usage_error(flow_file):
    proc = subprocess.run(
        [sys.executable, "-m", "sinkflow.cli", "w1", flow_file,
         "--gamma", "1", "--epsilon", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
