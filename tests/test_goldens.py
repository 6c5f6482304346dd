"""Byte-for-byte checks of the CLI against golden output.

``bench/goldens/`` holds the output of all nine figure ids and of four
deep hazard-chain sweeps.  Each sweep golden is reproduced by sweeping
the values in its first column; the test only reads that directory.
``tests/goldens/eval.json`` maps a case name to an ``eval`` argv and its
stdout: every built-in scheme, each ``--scaling`` form, the exponential
modulation and the tree file next to it (paths relative to that folder).
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from anticipated_surprise.cli import FIGURES, main

GOLDENS = Path(__file__).resolve().parent.parent / "bench" / "goldens"
EVAL_GOLDENS = Path(__file__).resolve().parent / "goldens"
EVAL_CASES = json.loads((EVAL_GOLDENS / "eval.json").read_text(encoding="utf-8"))

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
