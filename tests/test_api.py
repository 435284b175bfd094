"""The public surface of sinkflow and the hooks the benchmark wraps."""

import importlib
import importlib.util
import types
from pathlib import Path

import sinkflow

ROOT = Path(__file__).resolve().parent.parent

# Change together with __init__.py and the README's library section.
PUBLIC = [
    "BlockProblem", "ConvergenceTrace", "DualState", "EdgeFlow",
    "FlowConstants", "FlowProblem", "Graph", "InfeasibleFlowError",
    "MinCostFlowInstance", "MinCostFlowResult", "NumericOverflowError",
    "OTConstants", "OTProblem", "divergence", "dual_objective", "exact_ot",
    "exact_w1", "flow_constants", "hop_diameter", "kl_divergence",
    "marginals", "matrix_sweeps", "min_cost_flow", "operator_norm_1to1",
    "ot_constants", "phi_root", "plan_schedule", "primal_from_dual",
    "project_C1", "project_C2", "scaling_sweeps", "schedule_gamma",
    "soft_c_transform_1", "soft_c_transform_2", "solve", "solve_scheduled",
    "spanning_tree_flow", "sweep_scaling", "variation_seminorm",
    "verify_certificate", "vertex_dual_from_flow", "vertex_dual_from_scaling",
    "w1_estimate",
]

MODULES = ["analysis", "blocklp", "cli", "flowsinkhorn", "graph", "numerics",
           "oracle", "sinkhorn"]


def test_public_top_level_names_are_pinned():
    names = sorted(name for name, value in vars(sinkflow).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == PUBLIC


def test_every_module_all_entry_resolves():
    for name in MODULES:
        module = importlib.import_module(f"sinkflow.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], f"sinkflow.{name}: {missing}"


def test_benchmark_span_targets_resolve():
    """Every (owner, attr) that bench/spans.py wraps in a traced run exists,
    so a deleted or renamed name fails here, not at benchmark time."""
    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets()
    assert targets
    for span, owner, attr in targets:
        assert callable(getattr(owner, attr, None)), span
