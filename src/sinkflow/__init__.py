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
    operator_norm_1to1,
    plan_schedule,
    primal_from_dual,
    residuals,
    schedule_gamma,
    solve,
    solve_scheduled,
    sweep,
)
from .flowsinkhorn import (
    EdgeFlow,
    FlowConstants,
    FlowProblem,
    divergence,
    flow_constants,
    flows_from_duals,
    matrix_sweeps,
    project_C1,
    project_C2,
    scaling_sweeps,
    sweep_matrix,
    sweep_scaling,
    vertex_dual_from_flow,
    vertex_dual_from_scaling,
    w1_estimate,
)
from .graph import Graph, geodesic_matrix, hop_diameter, shortest_paths, spanning_tree_flow
from .numerics import (
    kl_divergence,
    log_sum_exp,
    phi_root,
    variation_seminorm,
)
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
    plan_from_duals,
    soft_c_transform_1,
    soft_c_transform_2,
)

__version__ = "0.1.0"
