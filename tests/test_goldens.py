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
lists and grid specs that fail, so the failure each reports is pinned too.
The check needs no pytest:

    PYTHONPATH=src python tests/test_goldens.py            # exit 1 on drift
    PYTHONPATH=src python tests/test_goldens.py --capture  # rewrite sweep.json's outputs
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from anticipated_surprise.cli import FIGURES, main
from conftest import golden_text

try:
    from pytest import mark
except ImportError:  # run as a script
    mark = None

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


def cli_run(argv: list[str]) -> dict:
    """argv's exit code, stdout and stderr, run in the folder of eval's tree file."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(EVAL_GOLDENS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def succeeds(stdout: str) -> dict:
    return {"code": 0, "stdout": stdout, "stderr": ""}


def figure_case(fig_id: str) -> tuple[list[str], dict]:
    """A golden's argv and the run it must give."""
    golden = (GOLDENS / "figures" / f"{fig_id}.csv").read_text(encoding="utf-8")
    return ["figure", fig_id, "--out", "-"], succeeds(golden)


def deep_sweep_case(name: str) -> tuple[list[str], dict]:
    golden = (GOLDENS / "deep-sweep" / f"{name}.csv").read_text(encoding="utf-8")
    values = ",".join(line.split(",", 1)[0] for line in golden.splitlines()[1:])
    return [*SWEEPS[name], "--values", values], succeeds(golden)


def eval_case(name: str) -> tuple[list[str], dict]:
    return EVAL_CASES[name]["argv"], succeeds(EVAL_CASES[name]["stdout"])


def sweep_case(name: str) -> tuple[list[str], dict]:
    case = SWEEP_CASES[name]
    return case["argv"], {key: case[key] for key in ("code", "stdout", "stderr")}


#: Each kind of golden and its case names.
CASES = {
    figure_case: list(FIGURES),
    deep_sweep_case: sorted(SWEEPS),
    eval_case: list(EVAL_CASES),
    sweep_case: list(SWEEP_CASES),
}


def each(argname: str, case):
    """pytest's parametrize over case's names; a script leaves the test as it is."""
    return (lambda test: test) if mark is None else mark.parametrize(argname, CASES[case])


@each("fig_id", figure_case)
def test_figure_matches_golden(fig_id):
    argv, want = figure_case(fig_id)
    assert cli_run(argv) == want


@each("name", deep_sweep_case)
def test_deep_sweep_matches_golden(name):
    argv, want = deep_sweep_case(name)
    assert cli_run(argv) == want


@each("name", eval_case)
def test_eval_matches_golden(name):
    argv, want = eval_case(name)
    assert cli_run(argv) == want


@each("name", sweep_case)
def test_sweep_matches_golden(name):
    argv, want = sweep_case(name)
    assert cli_run(argv) == want


def drift() -> list[str]:
    """Every case whose run differs from its golden."""
    bad = []
    for case, names in CASES.items():
        for name in names:
            argv, want = case(name)
            if cli_run(argv) != want:
                bad.append(f"{case.__name__}[{name}]")
    return bad


if __name__ == "__main__":
    if sys.argv[1:] == ["--capture"]:
        runs = {name: {"argv": case["argv"], **cli_run(case["argv"])}
                for name, case in SWEEP_CASES.items()}
        SWEEP_GOLDEN.write_text(golden_text(runs), encoding="utf-8")
        sys.exit(0)
    bad = drift()
    total = sum(map(len, CASES.values()))
    print(f"{len(bad)} of {total} goldens drift" + (f": {', '.join(bad[:10])}" if bad else ""))
    sys.exit(1 if bad else 0)
