"""The bit checks under every other CPython from 3.10 on that pyenv holds.

The evaluator sums floats left to right from 0.0 so that its bits do not
depend on the interpreter.  This test runs the five scripts that pin
those bits, ``test_goldens.py``, ``test_evaluate_bits.py``,
``test_grid_bits.py``, ``test_spine_bits.py`` and
``test_closed_form_bits.py``, under each interpreter in
``~/.pyenv/versions/`` at 3.10 or later other than the running one, and
asserts that none drifts.  The scripts need no pytest.  It skips where no
such interpreter exists.  The CI ``bits`` job runs the same scripts under
other interpreters, and a test here keeps its steps equal to ``SCRIPTS``.
"""

from __future__ import annotations

import os
import platform
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("test_goldens.py", "test_evaluate_bits.py", "test_grid_bits.py",
           "test_spine_bits.py", "test_closed_form_bits.py")
VERSIONS = Path.home() / ".pyenv" / "versions"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def interpreters() -> list[Path]:
    """Each pyenv CPython x.y.z, x.y >= 3.10, but the running version."""
    found = []
    for folder in sorted(VERSIONS.iterdir()) if VERSIONS.is_dir() else ():
        match = re.fullmatch(r"(\d+)\.(\d+)\.\d+", folder.name)
        python = folder / "bin" / "python"
        if (match and (int(match[1]), int(match[2])) >= (3, 10) and python.is_file()
                and folder.name != platform.python_version()):
            found.append(python)
    return found


@pytest.mark.parametrize("python", interpreters() or [None],
                         ids=lambda python: python.parent.parent.name if python else "none")
def test_bit_checks_do_not_drift(python):
    if python is None:
        pytest.skip(f"no other CPython >= 3.10 in {VERSIONS}")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(str(ROOT / folder) for folder in ("src", "tests"))}
    # the five scripts run side by side, one process each
    procs = {script: subprocess.Popen([str(python), str(ROOT / "tests" / script)], env=env,
                                      cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                      text=True) for script in SCRIPTS}
    try:
        for script, proc in procs.items():
            out, err = proc.communicate(timeout=300)
            assert (proc.returncode, err) == (0, ""), f"{script}: {out}{err}"
            assert out.startswith("0 of "), f"{script}: {out}"
    finally:
        for proc in procs.values():
            proc.kill()  # a no-op once it has exited
            proc.wait()


def test_ci_bits_job_runs_the_scripts():
    # the job's lines run from its own key to the next key at its indent
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    start = lines.index("  bits:") + 1
    end = next((i for i in range(start, len(lines)) if re.match(r"  \S", lines[i])), len(lines))
    steps = [m[1] for line in lines[start:end]
             if (m := re.fullmatch(r"\s*- run: python tests/(\S+)", line))]
    assert steps == list(SCRIPTS)
