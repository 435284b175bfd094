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
from functools import cache

import numpy as np

from .analysis import (
    DEFAULT_SEED,
    check_monotone_sweep,
    check_nonexpansive,
    check_translation_equivariance,
)
from .blocklp import (
    ConvergenceTrace,
    DualState,
    NumericOverflowError,
    cost_and_dual,
    schedule_gamma,
    solve,
)
from .flowsinkhorn import FlowProblem, w1_estimate
from .graph import Graph, _graph_input, spanning_tree_flow
from .numerics import measure_pair
from .oracle import exact_ot, exact_w1
from .sinkhorn import OTProblem

__all__ = ["main"]

_SWEEP_CAP = 10 ** 6
# --epsilon warm-starts its solve at the scheduled gamma from rungs at
# gamma * _RUNG_RATIO ** j, j = _RUNG_DEPTH, ..., 1, with block 1
# overrelaxed by _RUNG_OMEGA and with Anderson steps of memory
# _RUNG_MEMORY: the top rung, at twice the gamma, solved to the residual
# _RUNG_TOL, the others to _INNER_TOL (see _ladder)
_RUNG_RATIO, _RUNG_DEPTH = 2.0 ** (1 / 3), 3
_RUNG_TOL, _INNER_TOL = 1e-4, 1e-5
_RUNG_OMEGA = 1.9
_RUNG_MEMORY = 3


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
        flags = "--gamma/--epsilon" if "epsilon" in args else "--gamma"
        raise _InputError(f"no {flags} given and the input has no 'gamma'")
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


# Set-up pops each large JSON list from the parsed file as it converts it
# to an array, so that no list outlives its conversion: at p ~ 1e5 the
# edge list alone is larger than every array the run needs.
def _build_graph(data: dict) -> Graph:
    with _bad_input("graph description"):
        spec = data["graph"]
        return Graph(*_graph_input(spec["n"], spec.pop("edges")))


def _build_flow(graph: Graph, data: dict, gamma: float) -> FlowProblem:
    with _bad_input("flow problem"):
        return FlowProblem(graph, data["b1"], data["b2"], gamma)


def _build_ot(cost, data: dict, gamma: float) -> OTProblem:
    with _bad_input("transport problem"):
        return OTProblem(cost, data["b1"], data["b2"], gamma)


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def _check_trace_path(path: str | None) -> None:
    """Open --trace for appending before any sweep, so that an unwritable
    path is an input error and not a failure after the run. Appending
    leaves an existing file as it is until the trace is written."""
    if path:
        try:
            with open(path, "a"):
                pass
        except OSError as err:
            raise _InputError(f"cannot write --trace {path}: {err}") from err


def _write_trace(trace: ConvergenceTrace | None, path: str | None) -> None:
    if trace is not None and path:
        trace.to_csv(path)


def _budget(args) -> tuple[int, float | None]:
    """(cap, tolerance) of a run, after checking the flags: --max-sweeps or
    else the sweep cap, and --tol, which is 1e-9 when neither is given and
    1e-6 under --epsilon, which excludes both."""
    if args.epsilon is not None:
        # --epsilon picks gamma and the sweep budget
        for flag, given in (("--max-sweeps", args.max_sweeps is not None),
                            ("--tol", args.tol is not None)):
            if given:
                raise _InputError(
                    f"{flag} cannot be combined with --epsilon, which sets "
                    "the sweep budget"
                )
        return _SWEEP_CAP, 1e-6
    if args.max_sweeps is not None and args.max_sweeps < 0:
        raise _InputError(
            f"--max-sweeps must be >= 0, got {args.max_sweeps}")
    if args.tol is not None and not 0 <= args.tol < math.inf:
        raise _InputError(
            f"--tol must be >= 0 and finite, got {args.tol!r}")
    if args.max_sweeps is None and args.tol is None:
        return _SWEEP_CAP, 1e-9
    cap = _SWEEP_CAP if args.max_sweeps is None else args.max_sweeps
    return cap, args.tol


def _warn_at_cap(sweeps: int, res1: float, max_sweeps: int,
                 tol: float | None) -> None:
    """One stderr line when a run stopped at its cap short of its tolerance."""
    if tol is not None and sweeps >= max_sweeps and not res1 <= tol:
        print(f"warning: stopped at the sweep cap of {max_sweeps} with "
              f"res1_l1 {res1!r} above the tolerance {tol!r}",
              file=sys.stderr)


def _ladder(problem, max_sweeps: int) -> tuple[DualState | None, int]:
    """The warm start of an --epsilon run and the sweeps it took.

    The rungs solve the problem at gamma * _RUNG_RATIO ** j for
    j = _RUNG_DEPTH, ..., 1, within what is left of max_sweeps, with
    block 1 overrelaxed by _RUNG_OMEGA and Anderson steps of memory
    _RUNG_MEMORY, both under the engines' ascent safeguard: no audit reads
    a rung's rows. The top rung runs from u = 0
    to the residual _RUNG_TOL, the later ones to _INNER_TOL. Each later
    solve, the final one included, starts where _start puts it: the
    second rung at the first rung's state, every solve after it at the
    secant prediction through the last two rung states. Each rung records
    only its start and final rows, and a NumericOverflowError carries the
    trace of the rung it stopped.
    """
    last = prev = None  # the last two rung states
    sweeps = 0
    for j in range(_RUNG_DEPTH, 0, -1):
        rung = problem.with_gamma(problem.gamma * _RUNG_RATIO ** j)
        u0 = _start(rung, last, prev)
        state, trace = solve(rung, max_sweeps=max_sweeps - sweeps,
                             residual_tol=_RUNG_TOL if last is None
                             else _INNER_TOL,
                             record_every=max(1, max_sweeps), u0=u0,
                             sweeps=rung.sweeps(u0, omega=_RUNG_OMEGA,
                                                memory=_RUNG_MEMORY))
        prev, last = last, state
        sweeps += trace.k[-1]
    return _start(problem, last, prev), sweeps


def _start(problem, last: DualState | None, prev: DualState | None
           ) -> DualState | None:
    """The start of a ladder solve of problem after the rung states last
    and prev, each None until a rung has run: u = 0 (None) before any
    rung, the last rung's state after one, and after two the secant
    prediction u1 = u1_last + (u1_last - u1_prev) / _RUNG_RATIO with
    u2 = problem.block_update_2(u1), a full state. The secant extrapolates
    the two states linearly in gamma, since consecutive gaps of the
    geometric ladder shrink by _RUNG_RATIO; the dual optimum moves
    smoothly with gamma, so it lands nearer the next optimum than the last
    state does.
    """
    if prev is None:
        return last
    u1 = last.u1 + (last.u1 - prev.u1) / _RUNG_RATIO
    return DualState(u1, problem.block_update_2(u1))


def _flow_setup(data: dict, args) -> FlowProblem:
    """The w1 problem, under --epsilon at the scheduled gamma."""
    if "graph" not in data:
        raise _InputError("w1 expects a flow problem (with a 'graph' field)")
    graph = _build_graph(data)
    gamma = None if args.epsilon is not None else _json_gamma(data, args)
    with _bad_input("flow problem"):
        # checked as FlowProblem and spanning_tree_flow check them
        b1, b2 = measure_pair(data.pop("b1"), data.pop("b2"), graph.n, graph.n)
    tree_mass = None
    if gamma is None:
        tree_mass = float(spanning_tree_flow(graph, b1, b2).sum())
        with _bad_input("--epsilon"):
            gamma = schedule_gamma(args.epsilon,
                                   tree_mass if tree_mass > 0 else 1.0,
                                   2 * graph.p)
    with _bad_input("flow problem"):
        return FlowProblem(graph, b1, b2, gamma, tree_mass=tree_mass)


def _ot_setup(data: dict, args) -> OTProblem:
    """The ot problem, under --epsilon at the scheduled gamma."""
    if "cost" not in data:
        raise _InputError("ot expects a transport problem (with a 'cost' field)")
    if args.epsilon is None:
        gamma = _json_gamma(data, args)
        with _bad_input("transport problem"):
            # the marginals are looked up before the cost is converted
            b1, b2 = data["b1"], data["b2"]
            cost = np.asarray(data.pop("cost"), dtype=float)
            return OTProblem(cost, b1, b2, gamma)
    with _bad_input("transport problem"):
        cost = np.asarray(data.pop("cost"), dtype=float)
    if cost.size < 3:
        raise _InputError(
            "epsilon scheduling needs a plan with at least 3 entries; "
            "pass --gamma for tiny instances"
        )
    with _bad_input("--epsilon"):
        gamma = schedule_gamma(args.epsilon, 1.0, cost.size)
    return _build_ot(cost, data, gamma)


def _run(args, setup, estimate) -> int:
    """One w1 or ot run.

    setup(data, args) returns the problem; estimate(problem, state) returns
    the (primal, dual) answer.
    """
    max_sweeps, tol = _budget(args)
    # the parsed file is dropped once set-up has built the problem
    problem = setup(_load_json(args.input), args)
    _check_trace_path(args.trace)
    # without --trace only the final row is read, so only the start and
    # final rows are recorded: solve keeps both at any stride
    record_every = 1 if args.trace else max(1, max_sweeps)
    try:
        u0, rung_sweeps = None, 0
        if args.epsilon is not None:
            u0, rung_sweeps = _ladder(problem, max_sweeps)
        state, trace = solve(problem, max_sweeps=max_sweeps - rung_sweeps,
                             residual_tol=tol, record_every=record_every,
                             u0=u0)
    except NumericOverflowError as err:
        _write_trace(err.trace, args.trace)
        where = f"; partial trace at {args.trace}" if args.trace else ""
        print(f"numeric failure: {err}{where}", file=sys.stderr)
        return 3
    del u0  # the rung's duals, a p-vector at scale, go before the estimate
    sweeps, res1 = rung_sweeps + trace.k[-1], trace.res1_l1[-1]
    _warn_at_cap(sweeps, res1, max_sweeps, tol)
    _write_trace(trace, args.trace)
    primal, dual = estimate(problem, state)
    _emit({
        f"{args.subcommand}_dual": dual,
        f"{args.subcommand}_primal": primal,
        "gamma": problem.gamma,
        "sweeps": sweeps,
        "res1_l1": res1,
    })
    return 0


def cmd_w1(args) -> int:
    return _run(args, _flow_setup, w1_estimate)


def cmd_ot(args) -> int:
    return _run(args, _ot_setup, cost_and_dual)


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
    elif args.gamma is not None:
        raise _InputError(
            "--gamma needs a problem FILE; the built-in battery runs at "
            "its own gammas")
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


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every main call,
    which only reads it."""
    parser = argparse.ArgumentParser(
        prog="sinkflow",
        description="Smoothed Wasserstein-1 and transport solvers on graphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    w1 = sub.add_parser("w1", help="smoothed Wasserstein-1 on a graph")
    w1.set_defaults(handler=cmd_w1)
    ot = sub.add_parser("ot", help="smoothed transport between histograms")
    ot.set_defaults(handler=cmd_ot)
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
                           help="target accuracy; solves at the scheduled "
                                "gamma eps / (2 X0 log d) to the residual "
                                "1e-6, warm-started from overrelaxed rungs "
                                "with safeguarded Anderson steps at 2, "
                                "2^(2/3) and 2^(1/3) times that gamma (to "
                                "the residuals 1e-4, 1e-5 and 1e-5); the "
                                "last rung and the final solve start from "
                                "the secant through the two rung states "
                                "before them")
        p.add_argument("--max-sweeps", type=int, default=None)
        p.add_argument("--tol", type=float, default=None,
                       help="stop when the block-1 residual l1 norm reaches "
                            "this level")
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="write the per-sweep trace CSV here")
    exact.add_argument("input", help="problem JSON file")
    verify.add_argument("input", nargs="?", default=None,
                        help="optional problem JSON file")
    verify.add_argument("--gamma", type=float, help=gamma_help)
    verify.add_argument("--seed", type=_hex_seed, default=None, metavar="HEX",
                        help="hexadecimal seed for randomized checks")
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
