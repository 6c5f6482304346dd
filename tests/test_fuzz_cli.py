"""Hypothesis fuzz of ``cli.main`` over its declared flags and junk values,
and over tree documents.

Each argv case draws an ``eval``, ``sweep`` or ``figure`` argv from the
flags the command line declares, with values that are valid, out of range
or junk (``nan``, ``inf``, ``-0``, ``1e-320``, ``1e400``, empty, text).
Each document case writes a JSON document made of the tree format's keys
and junk, nested up to 8 deep, and evaluates it as ``--scheme tree:<file>``
under three scalings.  Every run must exit 0, 1 or 2.  Past argparse's own
usage errors, a failure writes exactly one ``error:`` or ``i/o error:``
line on stderr and no traceback, and a success writes nothing there.  n
stays at most 64 and a grid at most 20 values, so no case builds a large
tree.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from anticipated_surprise.cli import FIGURE_FLAGS, FIGURES, POINT_FIELDS, SCHEMES, flag, main
from anticipated_surprise.core import ModelParams

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

#: Values of every other flag: junk, edges, and values that overflow a
#: float (a payoff of 1e5 or 7e192) or underflow a ratio's reference
#: (q**n falls below the smallest float at p = 0.9999999999).
JUNK = ["nan", "inf", "-inf", "-0", "1e-320", "1e400", "", "text", "0", "1", "-1", "0.5",
        "0.03", "0.99", "0.99999", "0.9999999999", "2", "10", "1e5", "7e192", "1e300", "-1e300"]
#: Values of n and of n grids: junk, and whole numbers no larger than 64.
N_JUNK = ["nan", "inf", "-0", "1e-320", "1e400", "", "text", "0", "-1", "1", "2", "4.5", "5",
          "64"]
SCALINGS = ["none", "full", "partial:0.5", "partial:nan", "partial:", "scale:2", "scale:0",
            "scale:1e-320", "scale:inf", "bogus", ""]
MODEL_FLAGS = tuple(name for name in vars(ModelParams()) if name != "modulation")
TREE = {"branches": [{"p": 0.5, "node": {"payoff": 1.0}}, {"p": 0.5, "node": {"payoff": 0.0}}]}


#: A valid value of each point flag, and valid sweep values of each target.
VALID = {"p": "0.03", "n": "4", "hi": "1", "lo": "0", "p_tr": "0.5", "k_tr": "2", "p_pr": "0.7"}
VALID_GRID = {"n": ["1", "2", "3", "5", "64"]}


def values(name: str):
    return st.sampled_from(N_JUNK if name == "n" else JUNK)


def mostly_valid(name: str):
    """A valid value four times in five, else junk."""
    return st.one_of(*[st.just(VALID[name])] * 4, values(name))


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(["eval", "sweep", "figure"]))
    if command == "figure":
        argv = ["figure", draw(st.sampled_from(list(FIGURES)))]
        out = draw(st.sampled_from([None, "-", "-", "out.csv", "no/such/dir/out.csv"]))
        argv += [] if out is None else ["--out", out]
        names = FIGURE_FLAGS
    else:
        scheme = draw(st.sampled_from([*SCHEMES, *SCHEMES, "tree:tree.json", "tree:bad.json",
                                       "tree:missing.json", "tree:", "lottery"]))
        argv = [command, "--scheme", scheme]
        # the flags the scheme reads, mostly valid
        for name in SCHEMES[scheme].fields if scheme in SCHEMES else ():
            argv.append(f"{flag(name)}={draw(mostly_valid(name))}")
        names = (*POINT_FIELDS, *MODEL_FLAGS)
        if draw(st.booleans()):
            argv.append("--scaling=" + draw(st.sampled_from(SCALINGS)))
        if draw(st.booleans()):
            modulation = draw(st.sampled_from(["hyperbolic", "exponential-negative", "bogus"]))
            argv.append("--modulation=" + modulation)
    if command == "sweep":
        target = draw(st.sampled_from([*POINT_FIELDS, "bogus"]))
        argv.append("--target=" + flag(target)[2:])
        grid = st.sampled_from(VALID_GRID.get(target, ["0.1", "0.2", "0.5", "0.9"]))
        given = draw(st.sampled_from(["values", "values", "values", "grid", "both", "neither"]))
        if given in ("values", "both"):
            element = draw(st.sampled_from([grid, grid, values(target)]))
            argv.append("--values=" + ",".join(draw(st.lists(element, min_size=1, max_size=20))))
        if given in ("grid", "both"):
            count = draw(st.sampled_from(["0", "1", "2", "5", "20", "2.5", "text", ""]))
            argv.append(f"--grid={draw(values(target))}:{draw(values(target))}:{count}")
        names = (*names, "k2_prob")
    for name in draw(st.lists(st.sampled_from(names), max_size=3, unique=True)):
        argv.append(f"{flag(name)}={draw(values(name))}")
    return argv


def run_main(argv: list[str]) -> None:
    """Run main on argv and check its exit code and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage error
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2), argv
    if code == 0:
        assert err.getvalue() == "", argv
    else:
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].endswith("\n"), (argv, lines)
        assert lines[0].startswith("i/o error: " if code == 1 else "error: "), (argv, lines)


def test_main_exits_0_1_or_2_with_one_error_line(tmp_path, monkeypatch):
    # a figure without --out writes <id>.csv in the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tree.json").write_text(json.dumps(TREE))
    (tmp_path / "bad.json").write_text("{")

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hypothesis.given(argvs())
    # one case of each failure that random draws seldom reach
    @hypothesis.example(["eval", "--scheme", "gamble", "--hi=1e5", "--lo=0", "--p=1e-5"])
    @hypothesis.example(["figure", "fig7", "--out", "-", "--p=0.9999999999", "--n=64"])
    @hypothesis.example(["figure", "figA2", "--out", "-", "--k2-prob=nan"])
    @hypothesis.example(["figure", "fig1", "--out", "no/such/dir/out.csv"])
    def check(argv):
        run_main(argv)

    check()


#: Numbers of a tree document: floats (NaN and Infinity among them, which
#: json.dumps writes as those literals), small integers and integers past
#: the float range; probabilities are mostly ones that can sum to 1.
NUMBERS = st.one_of(st.floats(), st.integers(-3, 3), st.sampled_from([10**400, -10**400]))
PROBABILITIES = st.one_of(st.sampled_from([0.5, 0.5, 1.0, 0.25]), NUMBERS)
SCALARS = st.one_of(NUMBERS, st.booleans(), st.none(), st.text(max_size=3))
KEYS = ["payoff", "branches", "p", "node", "weight", "junk"]


def nodes(depth: int = 8):
    """JSON objects nested up to depth nodes deep: nodes of the tree format,
    whose fields may hold junk, and objects over its keys and a junk key."""
    inner = nodes(depth - 1) if depth > 1 else st.fixed_dictionaries({"payoff": NUMBERS})
    values = st.one_of(inner, SCALARS, st.lists(st.one_of(inner, SCALARS), max_size=2))
    branch = st.one_of(st.fixed_dictionaries({"p": PROBABILITIES, "node": inner}),
                       st.fixed_dictionaries({"p": PROBABILITIES, "node": values}), values)
    return st.one_of(
        st.fixed_dictionaries({"payoff": NUMBERS}),
        st.fixed_dictionaries({"branches": st.lists(branch, min_size=1, max_size=3)},
                              optional={"weight": NUMBERS}),
        st.dictionaries(st.sampled_from(KEYS), values, max_size=3),
    )


def nested(depth: int) -> str:
    """A valid chain of depth binary levels as JSON text; 400 levels nest
    past what the JSON parser reads."""
    level = '{"branches": [{"p": 0.5, "node": {"payoff": 0.0}}, {"p": 0.5, "node": '
    return level * depth + '{"payoff": 1.0}' + "}]}" * depth


def test_tree_documents_exit_0_1_or_2_with_one_error_line(tmp_path):
    path = tmp_path / "doc.json"

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hypothesis.given(nodes().map(json.dumps))
    @hypothesis.example(nested(400))
    def check(text):
        path.write_text(text)
        for scaling in ("none", "full", "partial:0.5"):
            run_main(["eval", "--scheme", f"tree:{path}", "--scaling", scaling])

    check()
