"""Checks on the CLI's answers, each paired with a negative control.

A check takes the referee data of an instance, the CLI's stdout JSON and
the F_gamma column of its trace CSV, and returns True when the answer
holds. Its negative control feeds it a deliberately wrong answer and
must come back False; a check that accepts the wrong answer cannot be
trusted on the right one.
"""

from __future__ import annotations

import math

import numpy as np

# residual level of the documented --epsilon fallback
FALLBACK_TOL = 1e-6
# absolute accuracy allowed to the HiGHS referee value
REFEREE_TOL = 1e-7


def read_F(path) -> np.ndarray:
    """The F_gamma column of a trace CSV."""
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, ndmin=1)


def _ascends(F: np.ndarray) -> bool:
    """F_gamma never decreases, up to roundoff on its own scale."""
    slack = 1e-12 * max(1.0, float(np.abs(F).max()))
    return bool(np.all(np.diff(F) >= -slack))


def _lowered_row(F: np.ndarray) -> np.ndarray:
    bad = F.copy()
    i = max(1, len(F) // 2)
    bad[i] = F[i - 1] - 1e-9 * max(1.0, float(np.abs(F).max()))
    return bad


def _away(value: float, target: float, by: float) -> float:
    """value moved by `by` further from target."""
    return value + by if value >= target else value - by


def _desk(expect, out, F):
    return {
        # criterion 2: the lifted dual lands within eps of 2 * W1
        "accuracy": abs(2.0 * out["w1_dual"] - 2.0 * expect["w1"]) <= expect["eps"],
        "residual": out["res1_l1"] <= FALLBACK_TOL,
        "ascent": _ascends(F),
    }


def _desk_controls(expect, out, F):
    shifted = dict(out, w1_dual=_away(out["w1_dual"], expect["w1"],
                                      0.5 * expect["eps"]))
    return {
        "accuracy": _desk(expect, shifted, F)["accuracy"],
        "residual": _desk(expect, dict(out, res1_l1=1.5 * FALLBACK_TOL), F)["residual"],
        "ascent": _desk(expect, out, _lowered_row(F))["ascent"],
    }


def _budget(expect, out, F):
    bound = expect["primal_bound"]
    return {
        "budget": out["sweeps"] == expect["sweeps"] and len(F) == expect["sweeps"] + 1,
        "ascent": _ascends(F),
        # weak duality against the benchmark's own feasible path flow
        "weak_duality": 2.0 * out["w1_dual"] <= bound + 1e-12 * max(1.0, abs(bound)),
    }


def _budget_controls(expect, out, F):
    bound = expect["primal_bound"]
    above = 0.5 * (bound + 1e-9 * max(1.0, abs(bound)))
    return {
        "budget": _budget(expect, dict(out, sweeps=out["sweeps"] - 1), F)["budget"],
        "ascent": _budget(expect, out, _lowered_row(F))["ascent"],
        "weak_duality": _budget(expect, dict(out, w1_dual=above), F)["weak_duality"],
    }


def _ot(expect, out, F):
    ot0 = expect["ot0"]
    # gap to the smoothed optimum is at most res1 times the oscillation of
    # the duals, which the cost range bounds
    allow = 2.0 * expect["cost_range"] * out["res1_l1"] + REFEREE_TOL
    top = ot0 + out["gamma"] * math.log(expect["d"])
    return {
        "accuracy": abs(out["ot_dual"] - ot0) <= expect["eps"],
        # criterion 3: [OT0, OT0 + gamma log d]
        "bias_bracket": ot0 - allow <= out["ot_dual"] <= top + allow,
        "residual": out["res1_l1"] <= FALLBACK_TOL,
        "ascent": _ascends(F),
    }


def _ot_controls(expect, out, F):
    shifted = dict(out, ot_dual=_away(out["ot_dual"], expect["ot0"], expect["eps"]))
    wrong = _ot(expect, shifted, F)
    return {
        "accuracy": wrong["accuracy"],
        "bias_bracket": wrong["bias_bracket"],
        "residual": _ot(expect, dict(out, res1_l1=1.5 * FALLBACK_TOL), F)["residual"],
        "ascent": _ot(expect, out, _lowered_row(F))["ascent"],
    }


_CHECKS = {
    "w1-epsilon": (_desk, _desk_controls),
    "w1-budget": (_budget, _budget_controls),
    "ot-epsilon": (_ot, _ot_controls),
}


def check(kind: str, expect: dict, out: dict, F: np.ndarray) -> dict:
    """Outcome of every check on this answer."""
    return _CHECKS[kind][0](expect, out, F)


def controls(kind: str, expect: dict, out: dict, F: np.ndarray) -> dict:
    """For every check, whether it accepted a deliberately wrong answer."""
    return _CHECKS[kind][1](expect, out, F)
