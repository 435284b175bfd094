"""Two-block entropic LP framework.

A problem instance exposes the two constraint blocks (A1, b1) and (A2, b2),
the cost and reference vectors, and closed-form block maximizers of the
smoothed dual

    F(u) = <b, u> + gamma * (Z - ||x(u)||_1),    Z = sum(z),

where x(u) = z * exp((A^T u - C) / gamma). The sweep driver alternates the
exact block updates, records a per-sweep trace, and never decreases F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterator

import numpy as np

from .numerics import variation_seminorm

__all__ = [
    "BlockProblem",
    "DualState",
    "ConvergenceTrace",
    "NumericOverflowError",
    "primal_from_dual",
    "primal_marginals",
    "marginals",
    "dual_objective",
    "cost_and_dual",
    "solve",
    "solve_scheduled",
    "schedule_gamma",
    "plan_schedule",
    "operator_norm_1to1",
]

# exp() overflows near 709.78; stay a little below.
_EXP_LIMIT = 700.0


class NumericOverflowError(RuntimeError):
    """A primal entry left the representable range.

    When raised mid-solve, the partial trace collected so far is attached
    as the `trace` attribute.
    """

    def __init__(self, message: str, trace: "ConvergenceTrace | None" = None):
        super().__init__(message)
        self.trace = trace


@dataclass
class DualState:
    """Dual pair u = (u1, u2), one vector per constraint block."""

    u1: np.ndarray
    u2: np.ndarray


# Block marginals (A1 x, A2 x, ||x||_1) of a primal x.
Marginals = tuple[np.ndarray, np.ndarray, float]
# What a `sweeps` iterator yields for each sweep; see solve().
Sweep = tuple[DualState, Callable[[], Marginals],
              Callable[[], Marginals] | None]


class BlockProblem:
    """Capabilities a two-block instance must provide.

    Concrete instances define the attributes

      dim_primal: int            primal dimension d
      dims_dual: (int, int)      block dimensions (m1, m2)
      b1, b2: arrays             block right-hand sides
      cost: array (d,)           linear cost C
      reference: array (d,)      positive reference z
      log_reference: array (d,)  log(z)
      gamma: float               regularization strength
      label: str                 short instance tag for reports

    and implement the linear maps plus exact block maximizers below.
    Subclasses with a closed-form operator norm may set `op_norm_1to1`.
    """

    op_norm_1to1: float | None = None

    @cached_property
    def reference_mass(self) -> float:
        """Z = sum(z), summed once per instance rather than once per sweep."""
        return float(self.reference.sum())

    def apply_A1(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_A2(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_A1_adjoint(self, u1: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_A2_adjoint(self, u2: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def block_update_1(self, u2: np.ndarray) -> np.ndarray:
        """Exact maximizer of F over u1 with u2 held fixed."""
        raise NotImplementedError

    def block_update_2(self, u1: np.ndarray) -> np.ndarray:
        """Exact maximizer of F over u2 with u1 held fixed."""
        raise NotImplementedError

    # Both shipped instances use the block-quotient seminorm in its
    # variation form (half the oscillation).
    def seminorm_V1(self, u1: np.ndarray) -> float:
        return variation_seminorm(u1)

    def seminorm_V2(self, u2: np.ndarray) -> float:
        return variation_seminorm(u2)

    def initial_state(self) -> DualState:
        m1, m2 = self.dims_dual
        return DualState(np.zeros(m1), np.zeros(m2))

    def sweeps(self) -> Iterator[Sweep]:
        """The sweeps solve() runs by default: the exact block updates in
        turn from initial_state(), block marginals through primal_from_dual.

        Instances with a faster iteration override this.
        """
        u = self.initial_state()
        while True:
            half = DualState(self.block_update_1(u.u2), u.u2)
            u = DualState(half.u1, self.block_update_2(half.u1))
            yield u, partial(marginals, self, u), partial(marginals, self, half)


def _log_primal(problem: BlockProblem, u: DualState) -> np.ndarray:
    # log z + (A^T u - C) / gamma, built in place to hold fewer d-vectors
    log_x = problem.apply_A1_adjoint(u.u1)
    log_x += problem.apply_A2_adjoint(u.u2)
    log_x -= problem.cost
    log_x /= problem.gamma
    log_x += problem.log_reference
    return log_x


def primal_from_dual(problem: BlockProblem, u: DualState) -> np.ndarray:
    """Primal iterate x(u) = z * exp((A^T u - C) / gamma), log-domain inside.

    Raises NumericOverflowError naming the worst entry if some exponent
    exceeds the float64 range.
    """
    log_x = _log_primal(problem, u)
    worst = int(np.argmax(log_x))
    if log_x[worst] > _EXP_LIMIT:
        raise NumericOverflowError(
            f"primal entry {worst} has log value {log_x[worst]:.6g}, "
            f"beyond the exp() range (~{_EXP_LIMIT:.0f})"
        )
    return np.exp(log_x, out=log_x)


def primal_marginals(problem: BlockProblem, x: np.ndarray) -> Marginals:
    """(A1 x, A2 x, ||x||_1) of a nonnegative primal x."""
    return problem.apply_A1(x), problem.apply_A2(x), float(x.sum())


def marginals(problem: BlockProblem, u: DualState) -> Marginals:
    """Block marginals of x(u); x(u) itself is dropped on return."""
    return primal_marginals(problem, primal_from_dual(problem, u))


def _dual_value(problem: BlockProblem, u: DualState, mass: float) -> float:
    """F(u) from the already computed primal mass ||x(u)||_1."""
    linear = float(problem.b1 @ u.u1) + float(problem.b2 @ u.u2)
    return linear + problem.gamma * (problem.reference_mass - mass)


def dual_objective(problem: BlockProblem, u: DualState) -> float:
    """Smoothed dual F(u) = <b,u> + gamma * (Z - ||x(u)||_1)."""
    return _dual_value(problem, u, float(primal_from_dual(problem, u).sum()))


def cost_and_dual(problem: BlockProblem, u: DualState) -> tuple[float, float]:
    """Primal cost <C, x(u)> and dual F(u), both read from one x(u)."""
    x = primal_from_dual(problem, u)
    return float(problem.cost @ x), _dual_value(problem, u, float(x.sum()))


@dataclass
class ConvergenceTrace:
    """Per-sweep run record.

    Row 0 is the start state u = 0. For row k >= 1, res1_l1 and res2_l1
    follow the convention used throughout: res1_l1 is the block-1 residual
    at the full state after sweep k (the stopping quantity; block 2 is tight
    there), while res2_l1 is the block-2 residual at the half state of sweep
    k, after the block-1 update and before the block-2 update.

    Three diagnostic columns stay out of the CSV export: half_mass (primal
    mass at the half state, which the ascent certificate needs), foc1 (the
    block-1 residual right after its own update) and foc2 (block-2 residual
    right after its update). The latter two should sit at roundoff level on
    every recorded sweep.
    """

    gamma: float
    a_norm: float
    label: str = ""
    k: list = field(default_factory=list)
    F_gamma: list = field(default_factory=list)
    res1_l1: list = field(default_factory=list)
    res2_l1: list = field(default_factory=list)
    primal_mass: list = field(default_factory=list)
    u1_seminorm: list = field(default_factory=list)
    u2_seminorm: list = field(default_factory=list)
    half_mass: list = field(default_factory=list)
    foc1: list = field(default_factory=list)
    foc2: list = field(default_factory=list)

    CSV_HEADER = "k,F_gamma,res1_l1,res2_l1,primal_mass,u1_seminorm,u2_seminorm"

    def append(self, k, F, res1, res2, mass, u1_sem, u2_sem,
               half_mass=math.nan, foc1=math.nan, foc2=math.nan):
        self.k.append(int(k))
        self.F_gamma.append(float(F))
        self.res1_l1.append(float(res1))
        self.res2_l1.append(float(res2))
        self.primal_mass.append(float(mass))
        self.u1_seminorm.append(float(u1_sem))
        self.u2_seminorm.append(float(u2_sem))
        self.half_mass.append(float(half_mass))
        self.foc1.append(float(foc1))
        self.foc2.append(float(foc2))

    def __len__(self) -> int:
        return len(self.k)

    def check_monotone(self, slack: float = 1e-12) -> bool:
        f = self.F_gamma
        return all(f[i + 1] >= f[i] - slack for i in range(len(f) - 1))

    def to_csv(self, path) -> None:
        """Write the seven public columns, floats in round-trip precision."""
        lines = [self.CSV_HEADER]
        for i in range(len(self.k)):
            lines.append(",".join([
                str(self.k[i]),
                repr(self.F_gamma[i]),
                repr(self.res1_l1[i]),
                repr(self.res2_l1[i]),
                repr(self.primal_mass[i]),
                repr(self.u1_seminorm[i]),
                repr(self.u2_seminorm[i]),
            ]))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _l1(v: np.ndarray) -> float:
    return float(np.abs(v).sum())


def _row_scalars(problem: BlockProblem, m: Marginals) -> tuple[float, float, float]:
    """Block-1 and block-2 residual l1 norms and the mass, from marginals."""
    a1x, a2x, mass = m
    return _l1(a1x - problem.b1), _l1(a2x - problem.b2), mass


def solve(problem: BlockProblem, *, max_sweeps: int | None = None,
          residual_tol: float | None = None, record_every: int = 1,
          sweeps: Iterator[Sweep] | None = None
          ) -> tuple[DualState, ConvergenceTrace]:
    """Run cyclic block ascent from u = 0 until a stopping rule fires.

    Stopping rules (at least one required):
      max_sweeps: stop after this many full sweeps;
      residual_tol: stop once the block-1 residual l1 norm, measured at the
        full state (start of the next sweep, where block 2 is tight), drops
        to this level.

    record_every thins the trace for very long runs; the start row and the
    final row are always recorded.

    sweeps replaces the iteration while solve keeps the stopping, thinning
    and recording; the default is problem.sweeps(). It must start from
    problem.initial_state() and yields, for each sweep, a triple
    (u, full, half): the full DualState reached, a zero-argument callable
    returning the block marginals (A1 x, A2 x, ||x||_1) at u (called every
    sweep, for the stopping test), and either the same for the half state,
    after the block-1 update and before the block-2 update (called only for
    recorded rows), or None, which leaves the half-state columns NaN. solve
    never forms a primal itself past the start row.

    Returns the final dual state and the trace. On overflow the partial
    trace rides on the raised NumericOverflowError.
    """
    if max_sweeps is None and residual_tol is None:
        raise ValueError("need max_sweeps and/or residual_tol")
    if max_sweeps is not None and max_sweeps < 0:
        raise ValueError("max_sweeps must be >= 0")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")

    def done(k: int, res1: float) -> bool:
        return ((residual_tol is not None and res1 <= residual_tol)
                or (max_sweeps is not None and k >= max_sweeps))

    trace = ConvergenceTrace(problem.gamma, operator_norm_1to1(problem),
                             getattr(problem, "label", ""))
    u = problem.initial_state()
    if sweeps is None:
        sweeps = problem.sweeps()
    try:
        res1, res2, mass = _row_scalars(problem, marginals(problem, u))
        trace.append(0, _dual_value(problem, u, mass), res1, res2, mass,
                     problem.seminorm_V1(u.u1), problem.seminorm_V2(u.u2))
        k = 0
        stop = done(k, res1)
        while not stop:
            k += 1
            u, full, half = next(sweeps)
            res1, foc2, mass = _row_scalars(problem, full())
            stop = done(k, res1)
            if k % record_every and not stop:
                continue
            # half-state diagnostics only when the row is kept; on thinned
            # runs this takes the dominant cost out of the sweep loop
            foc1 = res2_half = half_mass = math.nan
            if half is not None:
                foc1, res2_half, half_mass = _row_scalars(problem, half())
            trace.append(k, _dual_value(problem, u, mass), res1, res2_half,
                         mass, problem.seminorm_V1(u.u1),
                         problem.seminorm_V2(u.u2), half_mass=half_mass,
                         foc1=foc1, foc2=foc2)
    except NumericOverflowError as err:
        err.trace = trace
        raise
    return u, trace


def schedule_gamma(eps: float, X0: float, d: int) -> float:
    """Regularization level eps / (2 * X0 * log d) used by the schedule."""
    if not (0 < eps < math.inf and 0 < X0 < math.inf):
        raise ValueError("eps and X0 must be positive and finite")
    if d < 3:
        raise ValueError(f"schedule needs primal dimension >= 3, got {d}")
    return eps / (2.0 * X0 * math.log(d))


def plan_schedule(eps: float, X0: float, X: float, U: float,
                  A_norm: float, d: int) -> tuple[float, int]:
    """Accuracy-driven (gamma, sweep count) pair.

    gamma = eps / (2 X0 log d) and
    k = ceil(64 X U^2 A_norm^2 max(X0, X) log d / eps^2),
    which together bring the unregularized dual optimum within eps.
    """
    for name, val in (("eps", eps), ("X0", X0), ("X", X), ("U", U),
                      ("A_norm", A_norm)):
        if val <= 0:
            raise ValueError(f"{name} must be positive, got {val}")
    gamma = schedule_gamma(eps, X0, d)
    k = math.ceil(64.0 * X * U * U * A_norm * A_norm * max(X0, X)
                  * math.log(d) / (eps * eps))
    return gamma, int(k)


def solve_scheduled(problem: BlockProblem, eps: float, *, X0: float,
                    X: float, U: float, A_norm: float, d: int,
                    sweep_cap: int = 10 ** 6, fallback_tol: float = 1e-6):
    """Plan the sweep count for a problem built at the scheduled gamma, run it.

    problem.gamma must equal schedule_gamma(eps, X0, d). When the planned
    sweep count exceeds sweep_cap the run falls back to the residual rule
    at fallback_tol (capped at sweep_cap sweeps), which in practice lands
    far inside the planned accuracy. A planned run stops early only at an
    exact zero residual, where the gap-residual bound 2 U ||r1||_1 on
    F*_gamma - F(u) is 0, so no further sweep can raise F.

    Returns (state, trace, planned_k, fell_back).

    Raises:
      ValueError: if problem.gamma is not the scheduled gamma.
    """
    gamma, planned_k = plan_schedule(eps, X0, X, U, A_norm, d)
    if problem.gamma != gamma:
        raise ValueError(
            f"problem is built at gamma {problem.gamma!r}, the schedule "
            f"needs {gamma!r}"
        )
    if planned_k > sweep_cap:
        state, trace = solve(problem, residual_tol=fallback_tol,
                             max_sweeps=sweep_cap)
        return state, trace, planned_k, True
    state, trace = solve(problem, max_sweeps=planned_k, residual_tol=0.0)
    return state, trace, planned_k, False


def operator_norm_1to1(problem: BlockProblem) -> float:
    """Max column l1 norm of the stacked operator (A1; A2).

    Uses the instance's closed form when it has one. Otherwise it probes
    with coordinate vectors, which is exact but quadratic in the primal
    dimension, so only small instances should go without a closed form.
    """
    if problem.op_norm_1to1 is not None:
        return float(problem.op_norm_1to1)
    best = 0.0
    e = np.zeros(problem.dim_primal)
    for j in range(problem.dim_primal):
        e[j] = 1.0
        col = _l1(problem.apply_A1(e)) + _l1(problem.apply_A2(e))
        best = max(best, col)
        e[j] = 0.0
    return best
