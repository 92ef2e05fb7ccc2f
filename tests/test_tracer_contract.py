"""Every function the benchmark tracer patches still exists in the package.

``perfbench/tracer.py`` reports a renamed or removed function as absent and
its per-layer metrics then read 0, so a refactor could silently blank them.
The tracer's tables are read from its source, without importing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
