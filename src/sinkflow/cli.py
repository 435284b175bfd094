"""Command-line front end.

Four subcommands: `w1` and `ot` run the smoothed solvers on JSON problem
files, `exact` runs the min-cost-flow oracle on the same files, and
`verify` runs the structural property battery. Results are printed as JSON
on stdout (floats in round-trip precision); traces go to CSV via --trace.

Exit codes: 0 success, 2 input error, 3 numeric failure (partial trace is
still written when --trace was given), 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from .analysis import (
    DEFAULT_SEED,
    check_monotone_sweep,
    check_nonexpansive,
    check_translation_equivariance,
)
from .blocklp import (
    ConvergenceTrace,
    NumericOverflowError,
    dual_objective,
    primal_from_dual,
    schedule_gamma,
    solve,
    solve_scheduled,
)
from .flowsinkhorn import (
    FlowProblem,
    flow_constants,
    matrix_sweeps,
    scaling_sweeps,
    w1_estimate,
)
from .graph import Graph, spanning_tree_flow
from .oracle import exact_ot, exact_w1
from .sinkhorn import OTProblem, ot_constants

__all__ = ["main"]

_SWEEP_CAP = 10 ** 6
_FALLBACK_TOL = 1e-6


class _InputError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as err:
        raise _InputError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise _InputError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise _InputError(f"{path}: expected a JSON object at the top level")
    return data


def _json_gamma(data: dict, args) -> float:
    if args.gamma is not None:
        source, gamma = "--gamma", args.gamma
    elif "gamma" in data:
        source, gamma = "JSON field 'gamma'", data["gamma"]
    else:
        raise _InputError(
            "no --gamma/--epsilon given and the input has no 'gamma'")
    if not isinstance(gamma, (int, float)) or not 0 < gamma < math.inf:
        raise _InputError(
            f"{source} must be a positive finite number, got {gamma!r}")
    return float(gamma)


@contextmanager
def _bad_input(what: str):
    """Report the errors that malformed input raises as an input error."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as err:
        raise _InputError(f"bad {what}: {err}") from err


def _build_graph(data: dict) -> Graph:
    with _bad_input("graph description"):
        spec = data["graph"]
        n = spec["n"]
        edges = [(int(i), int(j), float(w)) for i, j, w in spec["edges"]]
        return Graph(int(n), edges)


def _build_flow(graph: Graph, data: dict, gamma: float) -> FlowProblem:
    with _bad_input("flow problem"):
        return FlowProblem(graph, data["b1"], data["b2"], gamma)


def _build_ot(cost, data: dict, gamma: float) -> OTProblem:
    with _bad_input("transport problem"):
        return OTProblem(cost, data["b1"], data["b2"], gamma)


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def _write_trace(trace: ConvergenceTrace | None, path: str | None) -> None:
    if trace is not None and path:
        trace.to_csv(path)


def _budget(args) -> tuple[int | None, float | None]:
    """--max-sweeps and --tol, defaulting to tolerance 1e-9 under the cap."""
    if args.max_sweeps is None and args.tol is None:
        return _SWEEP_CAP, 1e-9
    return args.max_sweeps, args.tol


def _warn_at_cap(trace: ConvergenceTrace, max_sweeps: int | None,
                 tol: float | None) -> None:
    """One stderr line when a run stopped at its cap short of its tolerance."""
    res1 = trace.res1_l1[-1]
    if (tol is not None and max_sweeps is not None
            and trace.k[-1] >= max_sweeps and not res1 <= tol):
        print(f"warning: stopped at the sweep cap of {max_sweeps} with "
              f"res1_l1 {res1!r} above the tolerance {tol!r}",
              file=sys.stderr)


def _reject_epsilon_conflicts(args) -> None:
    """--epsilon picks gamma and the sweep budget and runs the stable path."""
    if args.epsilon is None:
        return
    for flag, given in (("--max-sweeps", args.max_sweeps is not None),
                        ("--tol", args.tol is not None),
                        ("--path", args.path != "stable")):
        if given:
            raise _InputError(
                f"{flag} cannot be combined with --epsilon, which sets the "
                "sweep budget and runs the stable path"
            )


_FLOW_SWEEPS = {"stable": FlowProblem.sweeps, "matrix": matrix_sweeps,
                "scaling": scaling_sweeps}


def _solve_budget(problem, args, sweeps=None):
    """The --max-sweeps/--tol run; warns when it stops at the cap."""
    max_sweeps, tol = _budget(args)
    state, trace = solve(problem, max_sweeps=max_sweeps, residual_tol=tol,
                         sweeps=sweeps)
    _warn_at_cap(trace, max_sweeps, tol)
    return state, trace


def _solve_scheduled(problem, args, x0: float, consts, d: int):
    """The --epsilon run: the planned sweep budget or the residual fallback."""
    state, trace, _, fell_back = solve_scheduled(
        problem, args.epsilon, X0=x0, X=consts.X_gamma, U=consts.U_gamma,
        A_norm=2.0, d=d, sweep_cap=_SWEEP_CAP, fallback_tol=_FALLBACK_TOL,
    )
    if fell_back:
        _warn_at_cap(trace, _SWEEP_CAP, _FALLBACK_TOL)
    return state, trace


def cmd_w1(args) -> int:
    _reject_epsilon_conflicts(args)
    data = _load_json(args.input)
    if "graph" not in data:
        raise _InputError("w1 expects a flow problem (with a 'graph' field)")
    trace = None
    try:
        if args.epsilon is not None:
            graph = _build_graph(data)
            with _bad_input("flow problem"):
                fbar = spanning_tree_flow(graph, data["b1"], data["b2"])
            fbar_mass = fbar.mass()
            x0 = fbar_mass if fbar_mass > 0 else 1.0
            d = 2 * graph.p
            with _bad_input("--epsilon"):
                gamma = schedule_gamma(args.epsilon, x0, d)
            problem = _build_flow(graph, data, gamma)
            consts = flow_constants(problem, fbar)
            state, trace = _solve_scheduled(problem, args, x0, consts, d)
        else:
            gamma = _json_gamma(data, args)
            problem = _build_flow(_build_graph(data), data, gamma)
            state, trace = _solve_budget(problem, args,
                                         _FLOW_SWEEPS[args.path](problem))
    except NumericOverflowError as err:
        _write_trace(err.trace, args.trace)
        where = f"; partial trace at {args.trace}" if args.trace else ""
        print(f"numeric failure: {err}{where}", file=sys.stderr)
        return 3
    _write_trace(trace, args.trace)
    primal, dual = w1_estimate(problem, state)
    _emit({
        "w1_dual": dual,
        "w1_primal": primal,
        "gamma": problem.gamma,
        "sweeps": trace.k[-1],
        "res1_l1": trace.res1_l1[-1],
    })
    return 0


def cmd_ot(args) -> int:
    _reject_epsilon_conflicts(args)
    if args.path != "stable":
        raise _InputError("--path selects a w1 iteration; ot always runs "
                          "the stable dense sweep")
    data = _load_json(args.input)
    if "cost" not in data:
        raise _InputError("ot expects a transport problem (with a 'cost' field)")
    trace = None
    try:
        if args.epsilon is not None:
            with _bad_input("transport problem"):
                cost = np.asarray(data["cost"], dtype=float)
            d = cost.size
            if d < 3:
                raise _InputError(
                    "epsilon scheduling needs a plan with at least 3 entries; "
                    "pass --gamma for tiny instances"
                )
            with _bad_input("--epsilon"):
                gamma = schedule_gamma(args.epsilon, 1.0, d)
            problem = _build_ot(cost, data, gamma)
            consts = ot_constants(problem)
            state, trace = _solve_scheduled(problem, args, 1.0, consts, d)
        else:
            problem = _build_ot(data["cost"], data, _json_gamma(data, args))
            state, trace = _solve_budget(problem, args)
    except NumericOverflowError as err:
        _write_trace(err.trace, args.trace)
        where = f"; partial trace at {args.trace}" if args.trace else ""
        print(f"numeric failure: {err}{where}", file=sys.stderr)
        return 3
    _write_trace(trace, args.trace)
    x = primal_from_dual(problem, state)
    _emit({
        "ot_dual": dual_objective(problem, state),
        "ot_primal": float(problem.cost @ x),
        "gamma": problem.gamma,
        "sweeps": trace.k[-1],
        "res1_l1": trace.res1_l1[-1],
    })
    return 0


def cmd_exact(args) -> int:
    data = _load_json(args.input)
    if "graph" in data:
        graph = _build_graph(data)
        with _bad_input("flow problem"):
            value = exact_w1(graph, data["b1"], data["b2"])
        _emit({"w1_exact": value})
    elif "cost" in data:
        with _bad_input("transport problem"):
            value, _plan = exact_ot(data["cost"], data["b1"], data["b2"])
        _emit({"ot_exact": value})
    else:
        raise _InputError("input has neither a 'graph' nor a 'cost' field")
    return 0


def _battery_instances(seed: int):
    rng = np.random.default_rng(seed)
    two_node = FlowProblem(
        Graph(2, [(0, 1, 1.0)]), np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5
    )
    cost = rng.random((4, 4))
    raw1 = rng.random(4) + 0.5
    raw2 = rng.random(4) + 0.5
    ot = OTProblem(cost, raw1 / raw1.sum(), raw2 / raw2.sum(), 0.5)
    n = 8
    edges = [(i, i + 1, float(rng.uniform(0.5, 2.0))) for i in range(n - 1)]
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < 0.3:
                edges.append((i, j, float(rng.uniform(0.5, 2.0))))
    m1 = rng.random(n) + 0.1
    m2 = rng.random(n) + 0.1
    m2 *= m1.sum() / m2.sum()
    flow = FlowProblem(Graph(n, edges), m1, m2, 0.5)
    return [two_node, ot, flow]


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    if args.input:
        data = _load_json(args.input)
        gamma = _json_gamma(data, args)
        if "graph" in data:
            instances = [_build_flow(_build_graph(data), data, gamma)]
        elif "cost" in data:
            instances = [_build_ot(data["cost"], data, gamma)]
        else:
            raise _InputError("input has neither a 'graph' nor a 'cost' field")
    else:
        instances = _battery_instances(seed)

    all_ok = True
    for problem in instances:
        reports = [
            check_nonexpansive(problem, trials=1000, seed=seed),
            check_translation_equivariance(problem, tau=-1, trials=100, seed=seed),
            check_monotone_sweep(problem, trials=200, seed=seed),
        ]
        for report in reports:
            _emit(report)
            all_ok = all_ok and report["pass"]
        control = check_translation_equivariance(problem, tau=1, trials=10,
                                                 seed=seed)
        control["negative_control"] = True
        _emit(control)
        # the deliberately wrong pairing sign must be caught
        all_ok = all_ok and not control["pass"]
    _emit({"check": "battery", "seed": seed, "pass": all_ok})
    return 0 if all_ok else 4


def _hex_seed(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError as err:
        raise argparse.ArgumentTypeError(
            f"seed must be hexadecimal, got {text!r}"
        ) from err


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinkflow",
        description="Smoothed Wasserstein-1 and transport solvers on graphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="problem JSON file")
        else:
            p.add_argument("input", nargs="?", default=None,
                           help="optional problem JSON file")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--gamma", type=float,
                           help="regularization strength (overrides the JSON)")
        group.add_argument("--epsilon", type=float,
                           help="target accuracy; picks gamma and the sweep "
                                "budget automatically")
        p.add_argument("--max-sweeps", type=int, default=None)
        p.add_argument("--tol", type=float, default=None,
                       help="stop when the block-1 residual l1 norm reaches "
                            "this level")
        p.add_argument("--path", choices=("matrix", "scaling", "stable"),
                       default="stable",
                       help="flow iteration variant (default: stable)")
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="write the per-sweep trace CSV here")
        p.add_argument("--seed", type=_hex_seed, default=None, metavar="HEX",
                       help="hexadecimal seed for randomized checks")
        p.add_argument("--deterministic", action="store_true",
                       help="force single-threaded deterministic execution "
                            "(already the default; kept for scripts)")

    common(sub.add_parser("w1", help="smoothed Wasserstein-1 on a graph"))
    common(sub.add_parser("ot", help="smoothed transport between histograms"))
    common(sub.add_parser("exact", help="exact oracle value"))
    common(sub.add_parser("verify", help="structural property battery"),
           needs_input=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "w1": cmd_w1,
        "ot": cmd_ot,
        "exact": cmd_exact,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.subcommand](args)
    except _InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
