"""Smoothed two-block solvers for transport problems, with certificates.

The package solves entropically regularized linear programs with two
constraint blocks by exact cyclic dual ascent, ships the two standard
instances (dense transport plans and Wasserstein-1 flows on graphs), an
exact min-cost-flow oracle for ground truth, and a verification layer that
checks the convergence guarantees on recorded runs.
"""

from .blocklp import (
    BlockProblem,
    ConvergenceTrace,
    DualState,
    NumericOverflowError,
    dual_objective,
    marginals,
    primal_from_dual,
    schedule_gamma,
    solve,
)
from .flowsinkhorn import (
    FlowConstants,
    FlowProblem,
    divergence,
    flow_constants,
    w1_estimate,
)
from .graph import Graph, hop_diameter, spanning_tree_flow
from .numerics import kl_divergence, variation_seminorm
from .oracle import (
    InfeasibleFlowError,
    MinCostFlowInstance,
    MinCostFlowResult,
    exact_ot,
    exact_w1,
    min_cost_flow,
    verify_certificate,
)
from .sinkhorn import (
    OTConstants,
    OTProblem,
    ot_constants,
    soft_c_transform_1,
    soft_c_transform_2,
)

__version__ = "0.1.0"
