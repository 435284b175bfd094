"""Two-block entropic LP framework.

A problem instance exposes the two constraint blocks (A1, b1) and (A2, b2),
the cost, the log of the reference z and its mass, and closed-form block
maximizers of the smoothed dual

    F(u) = <b, u> + gamma * (Z - ||x(u)||_1),    Z = sum(z),

where x(u) = z * exp((A^T u - C) / gamma). The sweep driver, solve, runs an
iterator of sweeps, by default the exact block updates in turn, which never
decrease F. Each sweep yields its stopping residual as a float and defers
the rest of its state, full and half; solve evaluates the recorded ones a
block at a time, with 2-D arrays over the rows, into a per-sweep trace.
"""

from __future__ import annotations

import copy
import math
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, groupby
from typing import Any, Callable, Iterable, Iterator, Sequence

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
# A trace row's three numbers at a primal x:
# (||A1 x - b1||_1, ||A2 x - b2||_1, ||x||_1).
Row = tuple[float, float, float]
# The states of a run of sweeps: the dual stacks U1 (rows, m1) and
# U2 (rows, m2) of the full states, one row per sweep, then five floats
# per sweep: ||A2 x - b2||_1 at the half state, ||x||_1 at the full and at
# the half state, ||A1 x - b1||_1 at the half state (foc1) and
# ||A2 x - b2||_1 at the full state (foc2).
Stacks = tuple[np.ndarray, np.ndarray, Sequence[float], Sequence[float],
               Sequence[float], Sequence[float], Sequence[float]]
# What a `sweeps` iterator yields for each sweep: the stopping residual
# ||A1 x - b1||_1 at the full state, then the sweep's state, full and half,
# deferred as (rows, state); see solve().
Sweep = tuple[float, tuple[Callable[[list], Iterable[Stacks]], Any]]

# solve holds recorded rows until their duals reach this many floats
# (m1 + m2 per row, one row at least), then evaluates them as one block.
_BLOCK_FLOATS = 4096

# An iterator's F test reads a fall of F by at most this share of |F| as
# roundoff, not as a fall; see _falls.
_F_SLACK = 1e-13

# sweeps(memory=m) follows each period of _ANDERSON_PERIOD sweeps with an
# Anderson candidate (see _Anderson), whose least-squares system is
# regularized by _ANDERSON_RIDGE times the trace of its Gram matrix.
_ANDERSON_PERIOD = 8
_ANDERSON_RIDGE = 1e-10


class BlockProblem:
    """Capabilities a two-block instance must provide.

    Concrete instances define the attributes

      dim_primal: int            primal dimension d
      dims_dual: (int, int)      block dimensions (m1, m2)
      b1, b2: arrays             block right-hand sides
      cost: array (d,)           linear cost C
      log_reference: array (d,)  log(z), z > 0; a float for a constant z
      reference_mass: float      Z = sum(z), summed once per instance
      gamma: float               regularization strength
      label: str                 short instance tag for reports

    and implement the linear maps plus exact block maximizers below.
    Subclasses with a closed-form operator norm may set `op_norm_1to1`.
    """

    op_norm_1to1: float | None = None

    def apply_A1(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_A2(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_A1_adjoint(self, u1: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_A2_adjoint(self, u2: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_adjoint(self, u: DualState) -> np.ndarray:
        """A^T u = A1^T u1 + A2^T u2, as a new d-vector that the caller
        may write. An instance can override it to form the sum with fewer
        temporaries."""
        out = self.apply_A1_adjoint(u.u1)
        out += self.apply_A2_adjoint(u.u2)
        return out

    def block_update_1(self, u2: np.ndarray) -> np.ndarray:
        """Exact maximizer of F over u1 with u2 held fixed."""
        raise NotImplementedError

    def block_update_2(self, u1: np.ndarray) -> np.ndarray:
        """Exact maximizer of F over u2 with u1 held fixed."""
        raise NotImplementedError

    # Both shipped instances use the block-quotient seminorm in its
    # variation form (half the oscillation). solve passes a stack of duals,
    # one per row, and reads one value per row.
    def seminorm_V1(self, u1: np.ndarray) -> float | np.ndarray:
        return variation_seminorm(u1)

    def seminorm_V2(self, u2: np.ndarray) -> float | np.ndarray:
        return variation_seminorm(u2)

    def initial_state(self) -> DualState:
        m1, m2 = self.dims_dual
        return DualState(np.zeros(m1), np.zeros(m2))

    def with_gamma(self, gamma: float) -> "BlockProblem":
        """This instance at another gamma: a shallow copy that shares every
        array, with no input checked again. Instances that hold arrays
        derived from gamma override this to form them anew."""
        other = copy.copy(self)
        other.gamma = float(gamma)
        return other

    def sweeps(self, u0: DualState | None = None, omega: float = 1.0,
               memory: int = 0) -> Iterator[Sweep]:
        """The sweeps solve() runs by default: the block updates in turn
        from u0, initial_state() unless given, trace rows through
        primal_from_dual.

        omega overrelaxes block 1: every sweep after the first, which is
        exact, steps u1 <- u1 + omega (block_update_1(u2) - u1), and
        block 2 is exact. At omega = 1 that is the exact update. Otherwise
        F is formed at every full state, and a sweep whose step lowers F
        (by more than roundoff, see _falls) is dropped and the exact
        update runs in its place, so F never decreases; the half states of
        such a run meet no first-order condition.

        memory > 0 adds Anderson steps on u1, and forms F as omega != 1
        does. A period runs from the state the first sweep or a dropped
        sweep reached, or from the last period's end, for _ANDERSON_PERIOD
        sweeps; then _Anderson(memory) extrapolates u1 from the last
        memory + 1 period starts and ends. The candidate, a full state
        with block 2 exact, is taken only if it is finite and F there does
        not fall below F at the period's end; it then starts the next
        period, whose first sweep is exact. A rejected candidate or a
        dropped sweep clears the history. A candidate is not a sweep: it
        is not yielded. At memory = 0 no Anderson code runs.

        Instances with a faster iteration override this.
        """
        u = self.initial_state() if u0 is None else u0
        rows = partial(_formed_stacks, partial(_state_row, self))

        def reach(u1, u2):
            """The sweep from u2 that sets u1: (half, full, full row)."""
            full = DualState(u1, self.block_update_2(u1))
            return DualState(u1, u2), full, _state_row(self, full)

        guarded = omega != 1.0 or memory > 0
        history = _Anderson(memory, len(u.u1)) if memory else None
        F = None  # F at the last full state, when guarded
        relax = False  # whether the next sweep takes the omega-step
        start = None  # u1 at the start of the Anderson period, once set
        while True:
            exact = self.block_update_1(u.u2)
            u2 = u.u2
            half, u, (res1, res2, mass) = reach(
                u.u1 + omega * (exact - u.u1) if relax else exact, u2)
            dropped = relax and _falls(_dual_value(self, u, mass), F)
            if dropped:
                half, u, (res1, res2, mass) = reach(exact, u2)
            if guarded:
                F = _dual_value(self, u, mass)
            yield res1, (rows, (u.u1, u.u2, res2, mass, half))
            relax = omega != 1.0
            if history is None:
                continue
            if start is None or dropped:
                history.clear()
                start, swept = u.u1, 0
                continue
            swept += 1
            if swept < _ANDERSON_PERIOD:
                continue
            candidate = history.step(start, u.u1)
            start, swept = u.u1, 0
            if candidate is None:
                continue
            full = DualState(candidate, self.block_update_2(candidate))
            try:
                value = dual_objective(self, full)
            except NumericOverflowError:
                value = math.nan
            if _falls(value, F):
                history.clear()
            else:
                u, F, start, relax = full, value, candidate, False


def _falls(value: float, before: float) -> bool:
    """Whether F fell from before to value by more than roundoff, a share
    _F_SLACK of |before|; a NaN value counts as a fall."""
    return not value >= before - _F_SLACK * abs(before)


class _Anderson:
    """Type-II Anderson extrapolation of a fixed-point map x -> y on one
    dual block, in the safeguarded use of Zhang, O'Donoghue and Boyd
    (arXiv:1808.03971): the caller runs the map, tests the candidate and
    clears the history when it rejects one.

    step(x, y) takes one pair y = map(x) and returns the combination
    sum_i alpha_i y_i of the last memory + 1 pairs whose weights, summing
    to 1, minimize ||sum_i alpha_i (y_i - x_i)||^2 plus _ANDERSON_RIDGE
    times the trace of the residuals' Gram matrix times ||alpha||^2; None
    while fewer than two pairs are held or when the residuals vanish. The
    pairs' y and y - x live in preallocated (memory + 1, size) arrays,
    the oldest overwritten first, and the Gram matrix gains one row a
    step.
    """

    def __init__(self, memory: int, size: int):
        self.ends = np.empty((memory + 1, size))
        self.residuals = np.empty((memory + 1, size))
        self.gram = np.empty((memory + 1, memory + 1))
        self.held = 0  # pairs held, in slots 0 .. held - 1
        self.slot = 0  # the slot the next pair takes

    def clear(self) -> None:
        self.held = self.slot = 0

    def step(self, x: np.ndarray, y: np.ndarray) -> np.ndarray | None:
        slot, slots = self.slot, len(self.ends)
        self.ends[slot] = y
        residual = np.subtract(y, x, out=self.residuals[slot])
        self.slot = (slot + 1) % slots
        held = self.held = min(self.held + 1, slots)
        dots = self.residuals[:held] @ residual
        self.gram[slot, :held] = dots
        self.gram[:held, slot] = dots
        if held < 2:
            return None
        system = self.gram[:held, :held].copy()
        ridge = _ANDERSON_RIDGE * sum(system.diagonal().tolist())
        if not 0.0 < ridge < math.inf:
            return None
        system.flat[::held + 1] += ridge
        alpha = np.linalg.solve(system, np.ones(held))
        alpha /= alpha.sum()
        return alpha @ self.ends[:held]


def _log_primal(problem: BlockProblem, u: DualState) -> np.ndarray:
    # log z + (A^T u - C) / gamma, built in place to hold fewer d-vectors
    log_x = problem.apply_adjoint(u)
    log_x -= problem.cost
    log_x /= problem.gamma
    log_x += problem.log_reference
    return log_x


def primal_from_dual(problem: BlockProblem, u: DualState) -> np.ndarray:
    """Primal iterate x(u) = z * exp((A^T u - C) / gamma), log-domain inside.

    Raises NumericOverflowError naming the worst entry if some exponent
    exceeds the float64 range.
    """
    return _exp_in_range(_log_primal(problem, u), "primal entry")


def _exp_in_range(log_x: np.ndarray, entry: str) -> np.ndarray:
    """exp(log_x) in place; NumericOverflowError names an entry too large."""
    worst = int(np.argmax(log_x))
    if log_x[worst] > _EXP_LIMIT:
        raise NumericOverflowError(
            f"{entry} {worst} has log value {log_x[worst]:.6g}, "
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

    Row 0 is the start state: u = 0, or the u0 solve was given. For row
    k >= 1, res1_l1 and res2_l1 follow the convention used throughout:
    res1_l1 is the block-1 residual at the full state after sweep k (the
    stopping quantity; block 2 is tight there), while res2_l1 is the
    block-2 residual at the half state of sweep k, after the block-1
    update and before the block-2 update.

    Three diagnostic columns stay out of the CSV export: half_mass (primal
    mass at the half state, which the ascent certificate needs), foc1 (the
    block-1 residual right after its own update) and foc2 (block-2 residual
    right after its update). The latter two should sit at roundoff level on
    every recorded sweep.

    Each column is an array.array, of typecode 'q' for k and 'd' for the
    other nine, so a row costs 8 bytes per column however long the run.
    Indexing gives a Python int or float; compare a column with a list
    through list(column), or read it with np.asarray(column).
    """

    gamma: float
    a_norm: float
    k: array = field(default_factory=partial(array, "q"))
    F_gamma: array = field(default_factory=partial(array, "d"))
    res1_l1: array = field(default_factory=partial(array, "d"))
    res2_l1: array = field(default_factory=partial(array, "d"))
    primal_mass: array = field(default_factory=partial(array, "d"))
    u1_seminorm: array = field(default_factory=partial(array, "d"))
    u2_seminorm: array = field(default_factory=partial(array, "d"))
    half_mass: array = field(default_factory=partial(array, "d"))
    foc1: array = field(default_factory=partial(array, "d"))
    foc2: array = field(default_factory=partial(array, "d"))

    CSV_HEADER = "k,F_gamma,res1_l1,res2_l1,primal_mass,u1_seminorm,u2_seminorm"

    def extend(self, k, F, res1, res2, mass, u1_sem, u2_sem, half_mass,
               foc1, foc2):
        """Add rows given column-wise, one sequence per column: ints for k,
        floats or ints for the others. Each column takes its sequence in
        one call, which keeps no Python object per value."""
        for column, values in ((self.k, k), (self.F_gamma, F),
                               (self.res1_l1, res1), (self.res2_l1, res2),
                               (self.primal_mass, mass),
                               (self.u1_seminorm, u1_sem),
                               (self.u2_seminorm, u2_sem),
                               (self.half_mass, half_mass), (self.foc1, foc1),
                               (self.foc2, foc2)):
            column.extend(values)

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
        """Write the seven public columns, floats in round-trip precision.

        Rows are formatted as they are written, so no copy of the whole
        text is held; indexing the columns gives Python ints and floats,
        so %d and %r print each stored value as its repr.
        """
        rows = zip(self.k, self.F_gamma, self.res1_l1, self.res2_l1,
                   self.primal_mass, self.u1_seminorm, self.u2_seminorm)
        with open(path, "w") as fh:
            fh.write(self.CSV_HEADER + "\n")
            fh.writelines(map("%d,%r,%r,%r,%r,%r,%r\n".__mod__, rows))


def _l1(v: np.ndarray) -> float:
    return float(np.abs(v).sum())


def _residual_l1(ax: np.ndarray, b: np.ndarray) -> float:
    """||ax - b||_1, computed in ax, which it overwrites."""
    np.subtract(ax, b, out=ax)
    return float(np.abs(ax, out=ax).sum())


def _row_scalars(problem: BlockProblem, m: Marginals) -> Row:
    """Block-1 and block-2 residual l1 norms and the mass, from marginals
    whose arrays are overwritten: at p ~ 1e5 a row then holds no
    p-vector beyond A2 x."""
    a1x, a2x, mass = m
    return (_residual_l1(a1x, problem.b1), _residual_l1(a2x, problem.b2),
            mass)


def _state_row(problem: BlockProblem, u: DualState) -> Row:
    """The trace row at x(u), through its block marginals."""
    return _row_scalars(problem, marginals(problem, u))


def _formed_stacks(half_row: Callable[[Any], Row],
                   states: list) -> Iterator[Stacks]:
    """The Stacks of sweeps that formed their full state as they ran, each
    state given as (u1, u2, ||A2 x - b2||_1, ||x||_1, half), with half_row
    mapping the half to its trace row. One stack per state, formed as it
    is drawn, so that the stacks before a half that overflows are yielded
    before it raises."""
    for u1, u2, foc2, mass, half in states:
        foc1, res2, half_mass = half_row(half)
        yield (u1[None], u2[None], (res2,), (mass,), (half_mass,), (foc1,),
               (foc2,))


def _close_block(problem: BlockProblem, trace: ConvergenceTrace,
                 held: list) -> DualState | None:
    """Move the held sweeps (k, res1, (rows, state)) into the trace and
    return the full DualState of the last one, or None if none was held.

    Each run of held states that share rows takes one rows(states) call; F
    and both seminorms come from the joined dual stacks. held is emptied
    first, and if a rows iterator raises, the stacks it yielded before
    still go into the trace.
    """
    rows = held[:]
    held.clear()
    stacks, u = [], None
    try:
        for evaluate, run in groupby(rows, lambda row: row[2][0]):
            stacks.extend(evaluate([row[2][1] for row in run]))
    finally:
        if stacks:
            u = _extend_trace(problem, trace, rows, stacks)
    return u


def _extend_trace(problem: BlockProblem, trace: ConvergenceTrace,
                  rows: list, stacks: list) -> DualState:
    """Add the held rows that have a stack row to the trace; return the
    last one's full DualState."""
    u1, u2, *columns = zip(*stacks)
    u1, u2 = (col[0] if len(col) == 1 else np.concatenate(col)
              for col in (u1, u2))
    res2, mass, half_mass, foc1, foc2 = (list(chain.from_iterable(col))
                                         for col in columns)
    k, res1, _ = zip(*rows[:len(mass)])
    F = (u1 @ problem.b1 + u2 @ problem.b2 + problem.gamma
         * (problem.reference_mass - np.array(mass)))
    trace.extend(k, F.tolist(), res1, res2, mass,
                 problem.seminorm_V1(u1).tolist(),
                 problem.seminorm_V2(u2).tolist(), half_mass, foc1, foc2)
    return DualState(u1[-1], u2[-1])


def solve(problem: BlockProblem, *, max_sweeps: int | None = None,
          residual_tol: float | None = None, record_every: int = 1,
          sweeps: Iterator[Sweep] | None = None,
          u0: DualState | None = None
          ) -> tuple[DualState, ConvergenceTrace]:
    """Run cyclic block ascent from u0 until a stopping rule fires.

    u0 is the start state, problem.initial_state() (u = 0) unless given;
    it is recorded as row 0, and its residual is tested before any sweep.
    A start from u0 = initial_state() runs the same iterates, bit for bit,
    as a start without it.

    Stopping rules (at least one required):
      max_sweeps: stop after this many full sweeps;
      residual_tol: stop once the block-1 residual l1 norm, measured at the
        full state (start of the next sweep, where block 2 is tight), drops
        to this level.

    record_every thins the trace for very long runs; the start row and the
    final row are always recorded.

    sweeps replaces the iteration while solve keeps the stopping, thinning
    and recording; the default is problem.sweeps(u0). It must start from
    the start state and yields, for each sweep, a pair
    (res1, (rows, state)): the block-1 residual ||A1 x - b1||_1 at x(u)
    for the full state u reached, as a float, which the stopping test
    reads; then the rest of the sweep, its full state and its half state
    (after the block-1 update, before the block-2 update), deferred as a
    callable rows and a state it takes. rows maps a list of states to an
    iterable of Stacks, whose rows follow the states in order. solve never
    forms a primal past the start row, and forms a DualState only for the
    row it returns.

    Recorded sweeps are held and evaluated a block at a time: once the held
    rows' duals reach _BLOCK_FLOATS floats, when the run stops, and before
    a NumericOverflowError is re-raised. A block calls each rows once per
    run of consecutive held states that share it, so an iterator may
    evaluate such a run together. If rows returns an iterator, the stacks
    it yields before raising go into the trace. A state may be used up to
    one block after its sweep, so iterators must not change an array they
    have yielded in place. Unrecorded sweeps are dropped without being
    evaluated. solve draws exactly the sweeps up to the one it stops at and
    keeps a sweep only in its block. An iterator may compute a few sweeps
    ahead of the one drawn, as the flow engine does a burst at a time, but
    runs its exact updates only for the sweeps drawn.

    Returns the final dual state and the trace. On overflow the partial
    trace rides on the raised NumericOverflowError; it holds the rows
    recorded before the sweep, or the state, that overflowed.
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

    trace = ConvergenceTrace(problem.gamma, operator_norm_1to1(problem))
    if sweeps is None:
        sweeps = problem.sweeps(u0)
    block_rows = -(-_BLOCK_FLOATS // sum(problem.dims_dual))  # ceiling
    held = []  # recorded sweeps not yet in the trace; see _close_block
    try:
        res1 = _start_row(problem, trace, u0)
        k = 0
        stop = done(k, res1)
        while not stop:
            k += 1
            # held is the only reference solve keeps to a sweep's states,
            # so a closed block's are freed before the next sweep runs
            held.append((k, *next(sweeps)))
            stop = done(k, held[-1][1])
            if k % record_every and not stop:
                del held[-1]
            elif len(held) >= block_rows and not stop:
                _close_block(problem, trace, held)
        u = _close_block(problem, trace, held)
    except NumericOverflowError as err:
        try:
            _close_block(problem, trace, held)
        except NumericOverflowError as held_err:
            # a held state overflowed first: the trace ends before its row
            held_err.trace = trace
            raise held_err from None
        err.trace = trace
        raise
    if u is None:  # no sweep ran
        return problem.initial_state() if u0 is None else u0, trace
    # copies, so that the state does not keep the last block's stacks alive
    return DualState(u.u1.copy(), u.u2.copy()), trace


def _start_row(problem: BlockProblem, trace: ConvergenceTrace,
               u0: DualState | None) -> float:
    """Record row 0, at u0 or else problem.initial_state(); return its res1.

    Apart from solve, so that solve holds no start state of its own through
    the sweeps: at p ~ 1e5 its arc dual would add a p-vector to every
    sweep's peak.
    """
    u = problem.initial_state() if u0 is None else u0
    res1, res2, mass = _state_row(problem, u)
    trace.append(0, _dual_value(problem, u, mass), res1, res2, mass,
                 problem.seminorm_V1(u.u1), problem.seminorm_V2(u.u2))
    return res1


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
