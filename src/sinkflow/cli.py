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
from functools import partial

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
    cost_and_dual,
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
    # bool is an int subclass, but a JSON true is no regularization strength
    if (isinstance(gamma, bool) or not isinstance(gamma, (int, float))
            or not 0 < gamma < math.inf):
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


def _budget(args) -> tuple[int, float | None]:
    """(cap, tolerance) of a budget run: --max-sweeps or else the sweep cap,
    and --tol, which is 1e-9 when neither flag is given."""
    if args.max_sweeps is None and args.tol is None:
        return _SWEEP_CAP, 1e-9
    cap = _SWEEP_CAP if args.max_sweeps is None else args.max_sweeps
    return cap, args.tol


def _warn_at_cap(trace: ConvergenceTrace, max_sweeps: int,
                 tol: float | None) -> None:
    """One stderr line when a run stopped at its cap short of its tolerance."""
    res1 = trace.res1_l1[-1]
    if tol is not None and trace.k[-1] >= max_sweeps and not res1 <= tol:
        print(f"warning: stopped at the sweep cap of {max_sweeps} with "
              f"res1_l1 {res1!r} above the tolerance {tol!r}",
              file=sys.stderr)


def _check_run_flags(args) -> None:
    """The w1/ot flag values and combinations the parser lets through."""
    if args.epsilon is not None:
        # --epsilon picks gamma and the sweep budget and runs the stable
        # path; only w1 registers --path
        path = getattr(args, "path", "stable")
        for flag, given in (("--max-sweeps", args.max_sweeps is not None),
                            ("--tol", args.tol is not None),
                            ("--path", path != "stable")):
            if given:
                raise _InputError(
                    f"{flag} cannot be combined with --epsilon, which sets "
                    "the sweep budget and runs the stable path"
                )
    if args.max_sweeps is not None and args.max_sweeps < 0:
        raise _InputError(
            f"--max-sweeps must be >= 0, got {args.max_sweeps}")


_FLOW_SWEEPS = {"stable": FlowProblem.sweeps, "matrix": matrix_sweeps,
                "scaling": scaling_sweeps}


def _flow_setup(data: dict, args):
    """(problem, sweeps, schedule) for w1; see _run."""
    if "graph" not in data:
        raise _InputError("w1 expects a flow problem (with a 'graph' field)")
    if args.epsilon is None:
        gamma = _json_gamma(data, args)
        problem = _build_flow(_build_graph(data), data, gamma)
        return problem, _FLOW_SWEEPS[args.path], None
    graph = _build_graph(data)
    with _bad_input("flow problem"):
        fbar = spanning_tree_flow(graph, data["b1"], data["b2"])
    fbar_mass = fbar.mass()
    x0 = fbar_mass if fbar_mass > 0 else 1.0
    d = 2 * graph.p
    with _bad_input("--epsilon"):
        gamma = schedule_gamma(args.epsilon, x0, d)
    problem = _build_flow(graph, data, gamma)
    return problem, None, (x0, flow_constants(problem, fbar), d)


def _ot_setup(data: dict, args):
    """(problem, sweeps, schedule) for ot; see _run."""
    if "cost" not in data:
        raise _InputError("ot expects a transport problem (with a 'cost' field)")
    if args.epsilon is None:
        return _build_ot(data["cost"], data, _json_gamma(data, args)), None, None
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
    return problem, None, (1.0, ot_constants(problem), d)


def _run(args, setup, estimate) -> int:
    """One w1 or ot run.

    setup(data, args) returns (problem, sweeps, schedule): the problem, the
    function that starts solve's sweeps iterator from it (None for the
    problem's own), and under --epsilon the schedule's (X0, constants, d),
    None otherwise. estimate(problem, state) returns the (primal, dual)
    answer.
    """
    _check_run_flags(args)
    data = _load_json(args.input)
    problem, sweeps, schedule = setup(data, args)
    try:
        if schedule is None:
            max_sweeps, tol = _budget(args)
            # the iterator is made in the call, so that once solve returns
            # no name holds it, nor the kernel and scalings it keeps
            state, trace = solve(
                problem, max_sweeps=max_sweeps, residual_tol=tol,
                sweeps=None if sweeps is None else sweeps(problem))
        else:
            x0, consts, d = schedule
            state, trace, _, fell_back = solve_scheduled(
                problem, args.epsilon, X0=x0, X=consts.X_gamma,
                U=consts.U_gamma, A_norm=2.0, d=d, sweep_cap=_SWEEP_CAP,
                fallback_tol=_FALLBACK_TOL,
            )
            max_sweeps = _SWEEP_CAP
            tol = _FALLBACK_TOL if fell_back else None
    except NumericOverflowError as err:
        _write_trace(err.trace, args.trace)
        where = f"; partial trace at {args.trace}" if args.trace else ""
        print(f"numeric failure: {err}{where}", file=sys.stderr)
        return 3
    _warn_at_cap(trace, max_sweeps, tol)
    _write_trace(trace, args.trace)
    primal, dual = estimate(problem, state)
    _emit({
        f"{args.subcommand}_dual": dual,
        f"{args.subcommand}_primal": primal,
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
    w1 = sub.add_parser("w1", help="smoothed Wasserstein-1 on a graph")
    w1.set_defaults(handler=partial(_run, setup=_flow_setup,
                                    estimate=w1_estimate))
    ot = sub.add_parser("ot", help="smoothed transport between histograms")
    ot.set_defaults(handler=partial(_run, setup=_ot_setup,
                                    estimate=cost_and_dual))
    exact = sub.add_parser("exact", help="exact oracle value")
    exact.set_defaults(handler=cmd_exact)
    verify = sub.add_parser("verify", help="structural property battery")
    verify.set_defaults(handler=cmd_verify)

    gamma_help = "regularization strength (overrides the JSON)"
    for p in (w1, ot):
        p.add_argument("input", help="problem JSON file")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--gamma", type=float, help=gamma_help)
        group.add_argument("--epsilon", type=float,
                           help="target accuracy; picks gamma and the sweep "
                                "budget automatically")
        p.add_argument("--max-sweeps", type=int, default=None)
        p.add_argument("--tol", type=float, default=None,
                       help="stop when the block-1 residual l1 norm reaches "
                            "this level")
        if p is w1:
            p.add_argument("--path", choices=("matrix", "scaling", "stable"),
                           default="stable",
                           help="flow iteration variant (default: stable)")
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="write the per-sweep trace CSV here")
    exact.add_argument("input", help="problem JSON file")
    verify.add_argument("input", nargs="?", default=None,
                        help="optional problem JSON file")
    verify.add_argument("--gamma", type=float, help=gamma_help)
    verify.add_argument("--seed", type=_hex_seed, default=None, metavar="HEX",
                        help="hexadecimal seed for randomized checks")
    for p in (w1, ot, exact, verify):
        p.add_argument("--deterministic", action="store_true",
                       help="force single-threaded deterministic execution "
                            "(already the default; kept for scripts)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
