"""Smoke test: every demo script runs to completion through the public API.

A demo that imports numpy is skipped where numpy is missing; the others
run everywhere."""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, capsys):
    if re.search(r"^(import|from) numpy\b", path.read_text(), re.MULTILINE):
        pytest.importorskip("numpy")
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
