"""Certificates and structural property checks for sweep runs.

Two kinds of verification live here. The certificate functions take a
recorded ConvergenceTrace and test the quantitative guarantees (rate
envelope, per-sweep ascent, gap-residual, bias and radius bounds) with
measured constants. The check_* functions probe structural properties of
the sweep operators themselves (monotonicity, translation equivariance,
non-expansiveness) on randomized inputs and return JSON-ready reports.

Every randomized check takes a seed (default DEFAULT_SEED) and embeds it
in its report, so a failing report is rerunnable as-is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocklp import BlockProblem, ConvergenceTrace, DualState, primal_from_dual
from .flowsinkhorn import FlowProblem
from .numerics import variation_seminorm

__all__ = [
    "DEFAULT_SEED",
    "RateCertificate",
    "SignedOrderSpec",
    "default_signed_order",
    "verify_rate",
    "verify_ascent",
    "verify_gap_residual",
    "bias_bound",
    "primal_bound_from_dual",
    "dual_bound_nonexpansive",
    "check_monotone_sweep",
    "check_translation_equivariance",
    "check_nonexpansive",
]

DEFAULT_SEED = 0xB7E6

_RATE_SLACK = 1e-6
_ASCENT_SLACK = 1e-10
_GAP_SLACK = 1e-8
_ORDER_TOL = 1e-10
_BALANCE_TOL = 1e-12
_EQUIVARIANCE_TOL = 1e-10


@dataclass
class RateCertificate:
    """Measured check of the O(1/k) dual-gap envelope.

    envelope_bound = 8 * X_hat * U_hat^2 * A_norm^2 / gamma with X_hat the
    largest recorded primal mass and U_hat the largest recorded dual
    seminorm (either block). passed means max_k k * gap_k stayed under the
    envelope with 1e-6 slack.
    """

    gamma: float
    X_hat: float
    U_hat: float
    A_norm: float
    envelope_bound: float
    max_k_times_gap: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "X_hat": self.X_hat,
            "U_hat": self.U_hat,
            "A_norm": self.A_norm,
            "envelope_bound": self.envelope_bound,
            "max_k_times_gap": self.max_k_times_gap,
            "pass": self.passed,
        }


def verify_rate(
    trace: ConvergenceTrace, A_norm: float, gamma: float, F_star_ref: float
) -> RateCertificate:
    if not trace.k:
        raise ValueError("trace is empty")
    if F_star_ref < max(trace.F_gamma) - 1e-9:
        raise ValueError(
            "F_star_ref is below the best recorded dual value; "
            "use a longer reference run"
        )
    x_hat = float(max(trace.primal_mass))
    u_hat = float(max(max(trace.u1_seminorm), max(trace.u2_seminorm)))
    envelope = 8.0 * x_hat * u_hat * u_hat * A_norm * A_norm / gamma
    worst = 0.0
    for k, f in zip(trace.k, trace.F_gamma):
        if k >= 1:
            worst = max(worst, k * (F_star_ref - f))
    return RateCertificate(
        gamma=gamma,
        X_hat=x_hat,
        U_hat=u_hat,
        A_norm=A_norm,
        envelope_bound=envelope,
        max_k_times_gap=worst,
        passed=worst <= envelope + _RATE_SLACK,
    )


def verify_ascent(trace: ConvergenceTrace) -> bool:
    """Per-sweep gain against the measured ascent lower bound.

    The block-1 update of sweep k gains gamma KL(x_half || x_prev), the
    generalized KL divergence from the previous full state's primal to the
    half state's, and the block-2 update gains more. With Pinsker's
    inequality for positive measures,
    KL(p || q) >= ||p - q||_1^2 / (2 ||p||_1 / 3 + 4 ||q||_1 / 3), and
    ||A1 (x_prev - x_half)||_1 = res1_l1 of the previous row, the sweep
    gains at least gamma r^2 / (A^2 (2 X_half / 3 + 4 X_prev / 3)), with
    X_half the half state's mass and X_prev the previous row's.

    Needs every sweep recorded (stride 1): the bound compares consecutive
    objective values.
    """
    ks = trace.k
    if len(ks) < 2:
        return True
    if any(b - a != 1 for a, b in zip(ks, ks[1:])):
        raise ValueError("ascent check needs a stride-1 trace")
    gamma = trace.gamma
    a_sq = trace.a_norm * trace.a_norm
    for i in range(1, len(ks)):
        gain = trace.F_gamma[i] - trace.F_gamma[i - 1]
        res_prev = trace.res1_l1[i - 1]
        masses = (2.0 * trace.half_mass[i]
                  + 4.0 * trace.primal_mass[i - 1]) / 3.0
        bound = gamma * res_prev * res_prev / (masses * a_sq)
        if gain < bound - _ASCENT_SLACK:
            return False
    return True


def verify_gap_residual(
    trace: ConvergenceTrace, F_star_ref: float, U_hat: float
) -> bool:
    """Dual gap against the residual bound 2 * U_hat * ||r1||_1 at every row."""
    for f, res in zip(trace.F_gamma, trace.res1_l1):
        if F_star_ref - f > 2.0 * U_hat * res + _GAP_SLACK:
            return False
    return True


def bias_bound(gamma: float, x0_star_mass: float, d: int) -> float:
    """Smoothing bias cap gamma * X0 * log d; needs d >= 3 so log d > 1."""
    if d < 3:
        raise ValueError("bias bound needs primal dimension d >= 3")
    return gamma * x0_star_mass * float(np.log(d))


def primal_bound_from_dual(
    gamma: float,
    b_l1: float,
    U_gamma: float,
    d: int,
    C_min: float,
    trace: ConvergenceTrace | None = None,
) -> float:
    """A priori iterate-mass cap ||b||_1 U / gamma + d e^{-C_min/gamma}.

    With a trace, also enforces it on the recorded masses.
    """
    bound = b_l1 * U_gamma / gamma + d * float(np.exp(-C_min / gamma))
    if trace is not None:
        worst = max(trace.primal_mass)
        if worst > bound:
            raise ValueError(
                f"recorded primal mass {worst:.6g} exceeds the bound {bound:.6g}"
            )
    return bound


def dual_bound_nonexpansive(
    u0_seminorm: float,
    kappa: float,
    C_inf: float,
    gamma: float,
    H_gamma: float,
    trace: ConvergenceTrace | None = None,
) -> float:
    """Dual radius cap u0 + 2 kappa (||C||_inf + gamma H); trace check optional."""
    bound = u0_seminorm + 2.0 * kappa * (C_inf + gamma * H_gamma)
    if trace is not None:
        worst = max(trace.u1_seminorm)
        if worst > bound:
            raise ValueError(
                f"recorded block-1 seminorm {worst:.6g} exceeds the bound {bound:.6g}"
            )
    return bound


@dataclass
class SignedOrderSpec:
    """Per-coordinate signs making both signed constraint blocks nonnegative."""

    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        if not np.all(np.abs(sigma) == 1.0):
            raise ValueError("sigma entries must be +1 or -1")
        self.sigma = sigma

    def validate(self, problem: BlockProblem) -> None:
        """Probe A_s diag(sigma) >= 0 columnwise for both blocks."""
        d = problem.dim_primal
        if self.sigma.shape != (d,):
            raise ValueError("sigma length does not match the primal dimension")
        probe = np.zeros(d)
        for i in range(d):
            probe[i] = self.sigma[i]
            if np.any(problem.apply_A1(probe) < 0) or np.any(
                problem.apply_A2(probe) < 0
            ):
                raise ValueError(f"signed order fails at coordinate {i}")
            probe[i] = 0.0


def default_signed_order(problem: BlockProblem) -> SignedOrderSpec:
    """The shipped sign patterns: all +1 for plans, (+1 on f, -1 on g) for flows."""
    if isinstance(problem, FlowProblem):
        p = problem.graph.p
        return SignedOrderSpec(np.concatenate([np.ones(p), -np.ones(p)]))
    return SignedOrderSpec(np.ones(problem.dim_primal))


def _report(check: str, problem: BlockProblem, seed: int, trials: int, violations):
    return {
        "check": check,
        "instance": problem.label,
        "seed": seed,
        "trials": trials,
        "violations": violations,
        "pass": not violations,
    }


def _sample_dual(rng, size: int) -> np.ndarray:
    return rng.uniform(-3.0, 3.0, size=size)


def check_monotone_sweep(
    problem: BlockProblem,
    sigma: SignedOrderSpec | None = None,
    trials: int = 200,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Order preservation of the sweep and the moment maps.

    Per trial: a coordinatewise-ordered pair u1 <= v1 must stay ordered
    through the full sweep; the half-sweep state must satisfy the block-1
    first-order condition; and the block-2 moment map must be monotone in
    u2. sigma is validated first (domain error when it fails).
    """
    if sigma is None:
        sigma = default_signed_order(problem)
    sigma.validate(problem)
    m1, m2 = problem.dims_dual
    rng = np.random.default_rng(seed)
    violations = []
    for t in range(trials):
        u1 = _sample_dual(rng, m1)
        v1 = u1 + rng.uniform(0.0, 2.0, size=m1)
        su = problem.block_update_1(problem.block_update_2(u1))
        sv = problem.block_update_1(problem.block_update_2(v1))
        gap = float(np.max(su - sv))
        if gap > _ORDER_TOL:
            violations.append(
                {"trial": t, "kind": "sweep-order", "excess": gap - _ORDER_TOL}
            )

        u2 = _sample_dual(rng, m2)
        state = DualState(problem.block_update_1(u2), np.asarray(u2, dtype=float))
        x = primal_from_dual(problem, state)
        foc = float(np.abs(problem.apply_A1(x) - problem.b1).sum())
        foc_tol = 1e-9 * max(1.0, float(x.sum()))
        if foc > foc_tol:
            violations.append({"trial": t, "kind": "foc-block1", "residual": foc})

        w2 = u2 + rng.uniform(0.0, 2.0, size=m2)
        base = DualState(state.u1, np.asarray(u2, dtype=float))
        lift = DualState(state.u1, w2)
        m_low = problem.apply_A2(primal_from_dual(problem, base))
        m_high = problem.apply_A2(primal_from_dual(problem, lift))
        m_gap = float(np.max(m_low - m_high))
        if m_gap > _ORDER_TOL:
            violations.append(
                {"trial": t, "kind": "moment-order", "excess": m_gap - _ORDER_TOL}
            )
    return _report("monotone-sweep", problem, seed, trials, violations)


def check_translation_equivariance(
    problem: BlockProblem,
    tau: int,
    trials: int = 100,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Shift behavior of the block updates under u1 -> u1 + c.

    Checks the paired-balance identity A1^T 1 + tau A2^T 1 = 0, the block
    shift identities (Psi2 picks up tau * c, Psi1 undoes it), and full-sweep
    equivariance, for random states and shifts c in [-10, 10]. A wrong tau
    shows up in the report rather than raising.
    """
    if tau not in (-1, 1):
        raise ValueError("tau must be +1 or -1")
    m1, m2 = problem.dims_dual
    rng = np.random.default_rng(seed)
    violations = []

    balance = problem.apply_A1_adjoint(np.ones(m1)) + tau * problem.apply_A2_adjoint(
        np.ones(m2)
    )
    worst = float(np.abs(balance).max())
    if worst > _BALANCE_TOL:
        violations.append({"kind": "paired-balance", "max_abs": worst})

    for t in range(trials):
        c = rng.uniform(-10.0, 10.0)
        u1 = _sample_dual(rng, m1)
        u2 = _sample_dual(rng, m2)

        d2 = problem.block_update_2(u1 + c) - (problem.block_update_2(u1) + tau * c)
        err2 = float(np.abs(d2).max())
        if err2 > _EQUIVARIANCE_TOL:
            violations.append({"trial": t, "kind": "block2-shift", "max_abs": err2})

        d1 = problem.block_update_1(u2 + tau * c) - (problem.block_update_1(u2) + c)
        err1 = float(np.abs(d1).max())
        if err1 > _EQUIVARIANCE_TOL:
            violations.append({"trial": t, "kind": "block1-shift", "max_abs": err1})

        sweep = problem.block_update_1(problem.block_update_2(u1))
        shifted = problem.block_update_1(problem.block_update_2(u1 + c))
        derr = float(np.abs(shifted - (sweep + c)).max())
        if derr > _EQUIVARIANCE_TOL:
            violations.append({"trial": t, "kind": "sweep-shift", "max_abs": derr})
    return _report("translation-equivariance", problem, seed, trials, violations)


def check_nonexpansive(
    problem: BlockProblem,
    trials: int = 1000,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-10,
) -> dict:
    """Variation-seminorm contraction of the full sweep on random pairs."""
    m1, _ = problem.dims_dual
    rng = np.random.default_rng(seed)
    violations = []
    for t in range(trials):
        a = _sample_dual(rng, m1)
        b = _sample_dual(rng, m1)
        ta = problem.block_update_1(problem.block_update_2(a))
        tb = problem.block_update_1(problem.block_update_2(b))
        excess = variation_seminorm(ta - tb) - variation_seminorm(a - b)
        if excess > tol:
            violations.append({"trial": t, "kind": "expansion", "excess": excess})
    return _report("nonexpansive", problem, seed, trials, violations)
