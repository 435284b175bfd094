"""Spans around the public functions and methods of each sinkflow module.

The wrappers live here, in the benchmark, and are installed only for the
traced run; the program itself is not edited. Each span has a name, a start,
an end and a parent (the innermost span open when it started). Spans are
aggregated per (instance, name) as they close: total time, self time (the
span minus the part its child spans cover), call count and the parents seen,
so the desk workload's ~1e5 sweeps keep memory bounded.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager


def _targets():
    from sinkflow import blocklp, cli, flowsinkhorn, graph, numerics, sinkhorn

    flow, ot = flowsinkhorn.FlowProblem, sinkhorn.OTProblem
    return [
        ("cli.main", cli, "main"),
        ("cli.load", cli, "_load_json"),
        ("graph.build", graph.Graph, "__init__"),
        ("graph.spanning_tree_flow", graph, "spanning_tree_flow"),
        ("graph.hop_diameter", graph, "hop_diameter"),
        ("flowsinkhorn.problem_build", flow, "__init__"),
        ("flowsinkhorn.block_update_1", flow, "block_update_1"),
        ("flowsinkhorn.block_update_2", flow, "block_update_2"),
        ("flowsinkhorn.apply_A1", flow, "apply_A1"),
        ("flowsinkhorn.apply_A2", flow, "apply_A2"),
        ("flowsinkhorn.flow_constants", flowsinkhorn, "flow_constants"),
        ("flowsinkhorn.w1_estimate", flowsinkhorn, "w1_estimate"),
        ("sinkhorn.problem_build", ot, "__init__"),
        ("sinkhorn.block_update_1", ot, "block_update_1"),
        ("sinkhorn.block_update_2", ot, "block_update_2"),
        ("sinkhorn.apply_A1", ot, "apply_A1"),
        ("sinkhorn.apply_A2", ot, "apply_A2"),
        ("sinkhorn.ot_constants", sinkhorn, "ot_constants"),
        ("blocklp.solve", blocklp, "solve"),
        ("blocklp.primal_from_dual", blocklp, "primal_from_dual"),
        ("blocklp.dual_objective", blocklp, "dual_objective"),
        ("blocklp.to_csv", blocklp.ConvergenceTrace, "to_csv"),
        ("numerics.variation_seminorm", numerics, "variation_seminorm"),
    ]


@contextmanager
def patched(owner, attr: str, make):
    """Replace owner.attr by make(original) for the duration.

    A module-level function is also replaced in every sinkflow module that
    imported it by name, since `from .x import f` copies the reference.
    Methods are replaced on their class.
    """
    original = getattr(owner, attr)
    replacement = make(original)
    if isinstance(owner, type):
        holders = [(owner, attr)]
    else:
        holders = [
            (mod, name)
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "sinkflow" or mod_name.startswith("sinkflow.")
            for name, value in vars(mod).items()
            if value is original
        ]
    for holder, name in holders:
        setattr(holder, name, replacement)
    try:
        yield
    finally:
        for holder, name in holders:
            setattr(holder, name, original)


class Spans:
    """Aggregated spans of one traced round."""

    def __init__(self):
        self.instance = ""
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.parents = defaultdict(int)
        self._open = []  # [name, time covered by closed children]

    def _wrap(self, name: str, fn):
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = open_spans[-1][0] if open_spans else None
            open_spans.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                open_spans.pop()
                key = (self.instance, name)
                self.total[key] += dur
                self.self_time[key] += dur - frame[1]
                self.calls[key] += 1
                self.parents[(self.instance, parent, name)] += 1
                if open_spans:
                    open_spans[-1][1] += dur

        return traced

    @contextmanager
    def installed(self):
        with ExitStack() as stack:
            for name, owner, attr in _targets():
                stack.enter_context(patched(
                    owner, attr, lambda fn, name=name: self._wrap(name, fn)))
            yield self

    def layer(self, name: str, field: str = "self") -> float:
        """Sum over instances of one span's self time, total time or calls."""
        table = {"self": self.self_time, "total": self.total,
                 "calls": self.calls}[field]
        return sum(v for (_, n), v in table.items() if n == name)

    def as_records(self) -> list[dict]:
        rows = []
        for (inst, name), total in sorted(self.total.items()):
            rows.append({
                "instance": inst, "name": name, "total_s": total,
                "self_s": self.self_time[(inst, name)],
                "calls": self.calls[(inst, name)],
                "parents": {str(p): c for (i, p, n), c in self.parents.items()
                            if i == inst and n == name},
            })
        return rows
