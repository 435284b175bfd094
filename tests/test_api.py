"""The public surface of sinkflow, its import structure and the hooks the
benchmark wraps."""

import ast
import dataclasses
import importlib
import importlib.util
import types
from array import array
from pathlib import Path

import sinkflow

ROOT = Path(__file__).resolve().parent.parent

# Change together with __init__.py and the README's library section.
PUBLIC = [
    "BlockProblem", "ConvergenceTrace", "DualState", "FlowConstants",
    "FlowProblem", "Graph", "InfeasibleFlowError", "MinCostFlowInstance",
    "MinCostFlowResult", "NumericOverflowError", "OTConstants", "OTProblem",
    "divergence", "dual_objective", "exact_ot", "exact_w1", "flow_constants",
    "hop_diameter", "kl_divergence", "marginals", "min_cost_flow",
    "ot_constants", "primal_from_dual", "schedule_gamma",
    "soft_c_transform_1", "soft_c_transform_2", "solve",
    "spanning_tree_flow", "variation_seminorm", "verify_certificate",
    "w1_estimate",
]

MODULES = ["analysis", "blocklp", "cli", "flowsinkhorn", "graph", "numerics",
           "oracle", "sinkhorn"]


def test_public_top_level_names_are_pinned():
    names = sorted(name for name, value in vars(sinkflow).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == PUBLIC


def test_trace_column_typecodes_are_pinned():
    """ConvergenceTrace keeps each column as an array.array: 'q' for k and
    'd' for the nine float columns, 8 bytes a value."""
    trace = sinkflow.ConvergenceTrace(1.0, 1.0)
    columns = {f.name: getattr(trace, f.name).typecode
               for f in dataclasses.fields(trace)
               if isinstance(getattr(trace, f.name), array)}
    assert columns == {
        "k": "q", "F_gamma": "d", "res1_l1": "d", "res2_l1": "d",
        "primal_mass": "d", "u1_seminorm": "d", "u2_seminorm": "d",
        "half_mass": "d", "foc1": "d", "foc2": "d"}
    assert all(array(code).itemsize == 8 for code in columns.values())


def test_every_module_all_entry_resolves():
    for name in MODULES:
        module = importlib.import_module(f"sinkflow.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], f"sinkflow.{name}: {missing}"


def _sinkflow_imports(tree):
    """(statement, names of the sinkflow modules it imports) for every
    import of a sinkflow module in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield node, [node.module or ""]
        elif isinstance(node, ast.ImportFrom) and (
                node.module or "").split(".")[0] == "sinkflow":
            yield node, [node.module.partition(".")[2]]
        elif isinstance(node, ast.Import):
            names = [a.name.partition(".")[2] for a in node.names
                     if a.name.split(".")[0] == "sinkflow"]
            if names:
                yield node, names


def _defined_names(tree) -> set:
    """The functions and classes a module's top level defines."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_import_structure():
    """Sinkflow modules import each other at the top of the module only,
    graph, which the solvers build on, imports only numerics, no module
    defines a name of the test references in tests/reference.py, which
    live outside the package because no run path calls them, and the
    engines neither bind nor read the parts of the ascent policy that
    blocklp._Safeguard holds."""
    paths = sorted((ROOT / "src" / "sinkflow").glob("*.py"))
    assert [p.stem for p in paths] == sorted(["__init__", *MODULES])
    references = _defined_names(
        ast.parse((ROOT / "tests" / "reference.py").read_text()))
    assert "matrix_sweeps" in references
    inside, moved = [], []
    for path in paths:
        tree = ast.parse(path.read_text())
        moved += [f"{path.stem}.{name}"
                  for name in sorted(_defined_names(tree) & references)]
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside += [f"{path.stem}.{func.name}:{node.lineno}"
                           for node, _ in _sinkflow_imports(func)]
        if path.stem == "graph":
            used = {name for _, names in _sinkflow_imports(tree)
                    for name in names}
            assert used <= {"numerics"}, used
    assert inside == []
    assert moved == []
    policy = {"_Anderson", "_falls", "_F_SLACK", "_ANDERSON_PERIOD"}
    for name in ("flowsinkhorn", "sinkhorn"):
        module = importlib.import_module(f"sinkflow.{name}")
        tree = ast.parse(Path(module.__file__).read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
        assert policy & (set(vars(module)) | read) == set(), name


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
