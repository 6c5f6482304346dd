"""Byte-for-byte checks of the CLI against golden output.

``bench/goldens/`` holds the output of all nine figure ids and of four
deep hazard-chain sweeps.  Each sweep golden is reproduced by sweeping
the values in its first column; the test only reads that directory.
``tests/goldens/eval.json`` maps a case name to an ``eval`` argv and its
stdout: every built-in scheme, each ``--scaling`` form, the exponential
modulation and the tree file next to it (paths relative to that folder).
``tests/goldens/sweep.json`` maps a case name to a ``sweep`` argv and its
exit code, stdout and stderr: n-sweeps of the schemes whose trees nest
in n under each ``--scaling`` form, sweeps of other targets, and value
lists that fail, so the failure each reports is pinned too.

    PYTHONPATH=src python tests/test_goldens.py --capture  # rewrite sweep.json's outputs
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from anticipated_surprise.cli import FIGURES, main

GOLDENS = Path(__file__).resolve().parent.parent / "bench" / "goldens"
EVAL_GOLDENS = Path(__file__).resolve().parent / "goldens"
EVAL_CASES = json.loads((EVAL_GOLDENS / "eval.json").read_text(encoding="utf-8"))
SWEEP_GOLDEN = EVAL_GOLDENS / "sweep.json"
SWEEP_CASES = json.loads(SWEEP_GOLDEN.read_text(encoding="utf-8"))

#: Sweep golden -> the sweep that produced it, without its --values.
SWEEPS = {
    f"n_p{p}": ["sweep", "--scheme", "hazard", "--p", p, "--k2", "10", "--target", "n"]
    for p in ("0.01", "0.03", "0.1")
}
SWEEPS["p_n400"] = ["sweep", "--scheme", "hazard", "--n", "400", "--k2", "10", "--target", "p"]


def cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def cli_run(argv: list[str]) -> dict:
    """argv's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("fig_id", FIGURES)
def test_figure_matches_golden(fig_id):
    golden = (GOLDENS / "figures" / f"{fig_id}.csv").read_text(encoding="utf-8")
    assert cli_stdout(["figure", fig_id, "--out", "-"]) == golden


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_deep_sweep_matches_golden(name):
    golden = (GOLDENS / "deep-sweep" / f"{name}.csv").read_text(encoding="utf-8")
    values = ",".join(line.split(",", 1)[0] for line in golden.splitlines()[1:])
    assert cli_stdout([*SWEEPS[name], "--values", values]) == golden


@pytest.mark.parametrize("name", EVAL_CASES)
def test_eval_matches_golden(name, monkeypatch):
    monkeypatch.chdir(EVAL_GOLDENS)
    case = EVAL_CASES[name]
    assert cli_stdout(case["argv"]) == case["stdout"]


@pytest.mark.parametrize("name", SWEEP_CASES)
def test_sweep_matches_golden(name):
    case = SWEEP_CASES[name]
    assert {"argv": case["argv"], **cli_run(case["argv"])} == case


if __name__ == "__main__" and sys.argv[1:] == ["--capture"]:
    rows = [f"{json.dumps(name)}: {json.dumps({'argv': case['argv'], **cli_run(case['argv'])})}"
            for name, case in SWEEP_CASES.items()]
    SWEEP_GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
