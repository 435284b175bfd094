#!/usr/bin/env python3
"""Benchmark for `sinkflow w1|ot`, run in-process through sinkflow.cli.main.

    python3 bench/run.py --workload flow-desk-epsilon --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

A run writes its problem files, computes the referee values, then calls
the CLI exactly as a user would (`sinkflow w1 FILE ...` / `sinkflow ot FILE
...`), one call after another in one process (a closed loop with one
caller). It repeats whole rounds over the workload's instances until
--seconds have passed and checks every answer. Each timed call is first
pinned to the faster usable core (see _pin_to_faster_core).

--trace 0 reports the end-to-end metrics: run_s (median over rounds of the
round's summed call time), setup_s (median over repeated set-ups of the
time from main() to the sweep driver, summed over instances) and peak_mb
(tracemalloc peak of one call, in a call of its own).
--trace 1 runs one untraced round, then traced rounds with spans around
each module's public functions, and reports per-layer metrics (medians over
the traced rounds) and the tracing overhead.

The last stdout line is the result JSON; a fuller record, with the machine
description, goes to bench/out/<workload>-seed<n>-trace<t>.json. `--workload
all` runs every workload untraced and traced and prints them all.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import statistics
import sys
import time
import traceback
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USABLE_CORES = os.sched_getaffinity(0)
OUT = ROOT / "bench" / "out"
# set-up is repeated at least SETUP_MIN_REPS times and until
# SETUP_MIN_SECONDS have passed, at most SETUP_MAX_REPS times
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_SECONDS = 5, 9, 2.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# (metric, span, field): self time unless the metric says otherwise
LAYER_SPANS = [
    ("cli.load_s", "cli.load", "total"),
    ("cli.self_s", "cli.main", "self"),
    ("graph.build_s", "graph.build", "self"),
    ("graph.spanning_tree_flow_s", "graph.spanning_tree_flow", "self"),
    ("graph.hop_diameter_s", "graph.hop_diameter", "self"),
    ("flowsinkhorn.problem_build_s", "flowsinkhorn.problem_build", "self"),
    ("flowsinkhorn.block_update_1_s", "flowsinkhorn.block_update_1", "self"),
    ("flowsinkhorn.block_update_1_calls", "flowsinkhorn.block_update_1", "calls"),
    ("flowsinkhorn.block_update_2_s", "flowsinkhorn.block_update_2", "self"),
    ("flowsinkhorn.apply_A1_s", "flowsinkhorn.apply_A1", "self"),
    ("flowsinkhorn.apply_A2_s", "flowsinkhorn.apply_A2", "self"),
    ("flowsinkhorn.flow_constants_s", "flowsinkhorn.flow_constants", "self"),
    ("flowsinkhorn.w1_estimate_s", "flowsinkhorn.w1_estimate", "self"),
    ("sinkhorn.problem_build_s", "sinkhorn.problem_build", "self"),
    ("sinkhorn.block_update_1_s", "sinkhorn.block_update_1", "self"),
    ("sinkhorn.block_update_2_s", "sinkhorn.block_update_2", "self"),
    ("sinkhorn.apply_A1_s", "sinkhorn.apply_A1", "self"),
    ("sinkhorn.apply_A2_s", "sinkhorn.apply_A2", "self"),
    ("sinkhorn.ot_constants_s", "sinkhorn.ot_constants", "self"),
    ("blocklp.solve_s", "blocklp.solve", "total"),
    ("blocklp.solve_self_s", "blocklp.solve", "self"),
    ("blocklp.primal_from_dual_s", "blocklp.primal_from_dual", "self"),
    ("blocklp.primal_from_dual_calls", "blocklp.primal_from_dual", "calls"),
    ("blocklp.dual_objective_s", "blocklp.dual_objective", "self"),
    ("blocklp.to_csv_s", "blocklp.to_csv", "self"),
    ("numerics.variation_seminorm_s", "numerics.variation_seminorm", "self"),
]


def _unit(metric: str) -> str:
    if metric.endswith("_calls") or metric == "blocklp.sweeps":
        return "count"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_mb"):
        return "MB"
    return "s"


def _limit_threads() -> int:
    """Hold BLAS and OpenMP pools to at most the usable cores.

    Must run before numpy is imported.
    """
    nproc = len(USABLE_CORES)
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _import_sinkflow():
    """Import the package from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "sinkflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no sinkflow sources under {src}")
    sys.path.insert(0, str(src))
    import sinkflow

    if Path(sinkflow.__file__).resolve().parent != (src / "sinkflow").resolve():
        raise SystemExit(f"error: sinkflow imported from {sinkflow.__file__}")
    return sinkflow


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _machine(nproc: int) -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for name in ("SC_LEVEL1_DCACHE_SIZE", "SC_LEVEL2_CACHE_SIZE",
                 "SC_LEVEL3_CACHE_SIZE"):
        try:
            caches[name[3:].lower()] = os.sysconf(name)
        except (ValueError, OSError):
            caches[name[3:].lower()] = None
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": model,
        "nproc": nproc,
        "cache_bytes": caches,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _probe_seconds() -> float:
    """A few ms of interpreter and small-array work, like a desk sweep."""
    import numpy as np

    v = np.linspace(0.0, 1.0, 64)
    start = time.perf_counter()
    for _ in range(300):
        v = np.exp(-v).cumsum() / 64.0
        float(v.max())
    return time.perf_counter() - start


def _pin_to_faster_core() -> None:
    """Move this thread to the usable core that runs the probe fastest.

    On a shared host each core's speed drifts by up to 2x as neighbours
    load its hyperthread sibling; placing every call on the faster core
    takes most of that drift out of the timings.
    """
    cores = sorted(USABLE_CORES)
    if len(cores) < 2:
        return
    speed = {}
    for core in cores:
        os.sched_setaffinity(0, {core})
        speed[core] = min(_probe_seconds() for _ in range(2))
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def _call(argv):
    """One CLI call: exit code, wall seconds, stdout."""
    from sinkflow import cli

    _pin_to_faster_core()
    buf = io.StringIO()
    with redirect_stdout(buf):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, elapsed, buf.getvalue()


class _ReadyToSweep(BaseException):
    """Raised by the set-up probe when the CLI reaches the sweep driver."""


def _setup_seconds(argv) -> float:
    """Time from main() to the first call of blocklp.solve, which is aborted."""
    from sinkflow import blocklp, cli
    from spans import patched

    def stop(_solve):
        def reached(*args, **kwargs):
            raise _ReadyToSweep(time.perf_counter())
        return reached

    _pin_to_faster_core()
    with patched(blocklp, "solve", stop), redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            cli.main(argv)
        except _ReadyToSweep as ready:
            return ready.args[0] - start
    raise RuntimeError(f"{argv[0]} {argv[1]} finished without reaching "
                       "blocklp.solve; the set-up probe needs that hook")


def _peak_mb(argv) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        code, _, _ = _call(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if code != 0:
        raise RuntimeError(f"peak-memory call exited {code}")
    return peak / 1e6


class Runner:
    """Rounds of CLI calls over one workload's instances, with checks."""

    def __init__(self, instances):
        self.instances = instances
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.findings = []
        self.controlled = set()
        self.records = {inst.label: [] for inst in instances}

    def _judge(self, inst, stdout: str) -> int:
        from checks import check, controls, read_F

        out = json.loads(stdout.strip().splitlines()[-1])
        F = read_F(inst.trace_csv)
        verdict = check(inst.kind, inst.expect, out, F)
        for name, ok in verdict.items():
            if not ok:
                self.correct = False
                self.findings.append(f"{inst.label}: check {name} failed")
        if inst.label not in self.controlled:
            self.controlled.add(inst.label)
            for name, accepted in controls(inst.kind, inst.expect, out,
                                           F).items():
                if accepted:
                    self.correct = False
                    self.findings.append(
                        f"{inst.label}: check {name} accepted its negative control")
        self.records[inst.label].append({"out": out, "checks": verdict})
        return int(out["sweeps"])

    def round(self, spans=None) -> dict:
        """Call every instance once; time is summed over the calls."""
        gc.collect()
        times = {}
        sweeps = 0
        for inst in self.instances:
            self.attempted += 1
            if spans is not None:
                spans.instance = inst.label
            try:
                code, elapsed, stdout = _call(inst.argv)
            except Exception:
                traceback.print_exc()
                code, elapsed, stdout = -1, 0.0, ""
            times[inst.label] = elapsed
            if code != 0:
                self.failed += 1
                self.findings.append(f"{inst.label}: exit code {code}")
                continue
            sweeps += self._judge(inst, stdout)
        return {"run_s": sum(times.values()), "sweeps": sweeps,
                "call_s": times}

    def rounds(self, seconds: float, spans_factory=None) -> list:
        """Whole rounds until `seconds` have passed, at least one."""
        start = time.perf_counter()
        done = []
        while True:
            if spans_factory is None:
                done.append(self.round())
            else:
                spans = spans_factory()
                with spans.installed():
                    result = self.round(spans)
                result["spans"] = spans
                done.append(result)
            if time.perf_counter() - start >= seconds:
                return done


def _layer_metrics(traced: dict) -> dict:
    spans = traced["spans"]
    metrics = {m: spans.layer(span, field) for m, span, field in LAYER_SPANS}
    metrics["blocklp.sweeps"] = traced["sweeps"]
    solve = spans.layer("blocklp.solve", "total")
    metrics["blocklp.sweep_ms"] = 1e3 * solve / max(traced["sweeps"], 1)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 machine: dict) -> dict:
    from spans import Spans
    from workloads import WORKLOADS

    tag = f"{name}-seed{seed}-trace{int(trace)}"
    workdir = OUT / tag
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    instances = WORKLOADS[name](seed, workdir)
    record = {"machine": machine, "workload": name, "seed": seed,
              "seconds": seconds, "trace": int(trace),
              "inputs_s": time.perf_counter() - t0,
              "instances": [{"label": i.label, "argv": i.argv,
                             "expect": i.expect} for i in instances]}
    runner = Runner(instances)
    if not trace:
        setups = []
        start = time.perf_counter()
        while len(setups) < SETUP_MAX_REPS and (
                len(setups) < SETUP_MIN_REPS
                or time.perf_counter() - start < SETUP_MIN_SECONDS):
            setups.append(sum(_setup_seconds(i.argv) for i in instances))
        rounds = runner.rounds(seconds)
        peak = _peak_mb(instances[0].argv)
        metrics = {
            "run_s": statistics.median(r["run_s"] for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_mb": peak,
        }
        record.update(setups_s=setups, rounds=rounds)
    else:
        start = time.perf_counter()
        plain = runner.round()
        traced = runner.rounds(seconds - (time.perf_counter() - start), Spans)
        per_round = [_layer_metrics(r) for r in traced]
        metrics = {m: statistics.median(r[m] for r in per_round)
                   for m in per_round[0]}
        traced_s = statistics.median(r["run_s"] for r in traced)
        metrics["trace.run_s"] = traced_s
        metrics["trace.untraced_run_s"] = plain["run_s"]
        metrics["trace.overhead_s"] = traced_s - plain["run_s"]
        record.update(untraced_round=plain,
                      traced_rounds=[{"run_s": r["run_s"], "sweeps": r["sweeps"],
                                      "call_s": r["call_s"],
                                      "spans": r["spans"].as_records()}
                                     for r in traced])
    result = {"correct": runner.correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {m: {"value": v, "unit": _unit(m)}
                          for m, v in metrics.items()}}
    record.update(result=result, findings=runner.findings,
                  answers=runner.records)
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    for finding in runner.findings:
        print(f"{name}: {finding}", file=sys.stderr)
    return result


def _print_metrics(prefix: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{prefix}{metric:40s} {m['value']:.6g} {m['unit']}")
    print(f"{prefix}{'attempted':40s} {result['attempted']}")
    print(f"{prefix}{'failed':40s} {result['failed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="flow-desk-epsilon, flow-large-budget, "
                             "ot-dense-500 or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = _limit_threads()
    _import_sinkflow()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}")
    machine = _machine(nproc)

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), machine)
        _print_metrics("", result)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            for trace in (False, True):
                part = run_workload(name, args.seed, args.seconds, trace, machine)
                _print_metrics(f"{name}{' traced' if trace else ''}  ", part)
                result["correct"] = result["correct"] and part["correct"]
                result["attempted"] += part["attempted"]
                result["failed"] += part["failed"]
                result["metrics"].update(
                    {f"{name}/{m}": v for m, v in part["metrics"].items()})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
