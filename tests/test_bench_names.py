"""The package names that the benchmark's tracer and workloads depend on.

``bench/tracing.py`` rebinds the functions it lists by module and name,
and the figures workload seeds its shuffle from ``list(cli.FIGURES)``.
A rename would only surface in a traced benchmark run; these tests read
the tracer's lists from its source, without importing or changing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

from anticipated_surprise import cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def traced_names() -> list[tuple[str, str]]:
    """(module, function) of every entry of SPANNED, RECURSIVE and COUNTED."""
    names = []
    for stmt in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANNED", "RECURSIVE", "COUNTED"):
                names += [(entry[0], entry[1]) for entry in ast.literal_eval(stmt.value)]
    return names


def test_tracer_lists_are_found():
    modules = {module for module, _ in traced_names()}
    assert modules == {"cli", "builders", "tree", "scaling", "closed_form", "core"}


@pytest.mark.parametrize("module,name", traced_names())
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"anticipated_surprise.{module}"), name))


def test_figure_ids_in_order():
    assert list(cli.FIGURES) == [
        "fig1", "fig3-left", "fig3-right", "fig5-left", "fig5-right",
        "fig7", "figA1", "figA2", "figA3",
    ]
