"""Every function the benchmark tracer patches still exists in the package,
and the package calls it.

``perfbench/tracer.py`` reports a renamed or removed function as absent and
its per-layer metrics then read 0, so a refactor could silently blank them.
A function that only tests and oracles call reads 0 the same way.  The
tracer's tables are read from its source, without importing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "nnmetric"

# traced functions no run reaches, each with the reason
NOT_CALLED = {
    "gradient_metrics.gate_mask": "the gradient pass has computed its own gates since it "
    "became one pass; the span waits for the next change to the benchmark",
}


def tracer_tables():
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name.startswith(("LAYER_", "HARNESS_")):
                tables[name] = ast.literal_eval(node.value)
    return tables


TABLES = tracer_tables()


def test_tables_found():
    assert set(TABLES) == {
        "LAYER_FUNCTIONS", "HARNESS_FIT_CALLS", "HARNESS_PREDICT_CALLS", "HARNESS_METHOD_CALL"
    }


@pytest.mark.parametrize("span, module, function", TABLES["LAYER_FUNCTIONS"])
def test_layer_function_resolves(span, module, function):
    assert callable(getattr(importlib.import_module(f"nnmetric.{module}"), function, None)), span


@pytest.mark.parametrize(
    "function",
    [*TABLES["HARNESS_FIT_CALLS"], *TABLES["HARNESS_PREDICT_CALLS"], TABLES["HARNESS_METHOD_CALL"]],
)
def test_harness_binding_resolves(function):
    assert callable(getattr(importlib.import_module("nnmetric.harness"), function, None))


def called_names():
    """Names called as ``f(...)`` or ``module.f(...)`` anywhere in the package
    outside ``bruteforce``, whose references only tests and oracles run."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem == "bruteforce":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                names.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return names


CALLED = called_names()


@pytest.mark.parametrize("span, module, function", TABLES["LAYER_FUNCTIONS"])
def test_layer_function_is_called_by_the_package(span, module, function):
    if span in NOT_CALLED:
        assert function not in CALLED, f"{span} is called again; drop it from NOT_CALLED"
    else:
        assert function in CALLED, span
