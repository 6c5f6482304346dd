"""Bit-exact golden of one-shot evaluation of spine-shaped trees.

A tree is spine-shaped when its internal nodes all lie on the path of
last branches.  ``goldens/spine_bits.json`` holds, as float hex, what
``tree.validate`` and ``scaling.scaled_evaluation`` give for such trees
on the cases ``evaluate_bits.json`` and ``grid_bits.json`` leave out:
built-in schemes under ``full``, ``partial:0.6`` and ``scale:3``; a
spine whose probabilities sum to 1 - 4e-13; spines with surprise
weights 0 and 2.5 and payoffs of both zero signs; a bare payoff and a
one-level gamble; and one-shot rows of 400-level hazard chains at four
p values of the deep-sweep p-grid.  The ``dual-a-before`` cases were
pinned when its gate listed its chain first, so that the tree took the
stack walk (``conftest.walk_report`` now) and the level walk; the same
bits hold with the chain last, and under the one validation walk that
replaced the spine lane and the stack walk.  Each case
records the report's counts, payoff range (zero's sign included),
renormalized paths and expected value, and the evaluation's transform,
expected value, total surprise, utilities and a digest of its stage
surprises.  The check needs no pytest:

    PYTHONPATH=src:tests python tests/test_spine_bits.py            # exit 1 on drift
    PYTHONPATH=src:tests python tests/test_spine_bits.py --capture  # rewrite the golden
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from anticipated_surprise import Branch, Internal, ModelParams, Modulation, Terminal, validate
from anticipated_surprise.cli import SchemePoint
from anticipated_surprise.scaling import parse_scaling_mode, scaled_evaluation
from conftest import bit_script, drifted, scheme_tree

GOLDEN = Path(__file__).resolve().parent / "goldens" / "spine_bits.json"

PARAMS = {
    "k2=10": ModelParams(k2=10.0),
    "exp": ModelParams(k=2.5, alpha=2.2, modulation=Modulation.EXPONENTIAL_NEGATIVE),
}
POINTS = {
    "gamble": SchemePoint("gamble", hi=5.0, lo=-2.0, p=0.3),
    "hazard": SchemePoint("hazard", p=0.03, n=50),
    "timing": SchemePoint("timing", p=0.05, n=7, p_tr=0.3, k_tr=4.0),
    "dual-a-after": SchemePoint("dual-a-after", p=0.03, n=12, p_pr=0.6),
    "dual-a-before": SchemePoint("dual-a-before", p=0.03, n=12, p_pr=0.6),
    "dual-b": SchemePoint("dual-b", p=0.03, n=12, p_pr=0.6),
}
#: Four p values of the deep-sweep workload's p-grid, at its n = 400.
P_SWEEP = (0.005, 0.06, 0.155, 0.3)


def _level(stay: float, child, side: tuple[float, ...], weight: float = 1.0) -> Internal:
    """A node whose last branch (probability stay) leads to child and whose
    other branches end in the payoffs side, sharing 1 - stay evenly."""
    share = (1.0 - stay) / len(side)
    return Internal(tuple(Branch(share, Terminal(x)) for x in side) + (Branch(stay, child),),
                    weight)


def built_spines():
    """(name, tree) of the hand-built spines."""
    # each level's probabilities sum to 1 - 4e-13, within the tolerance
    node = Terminal(1.0)
    for _ in range(6):
        node = Internal((Branch(0.25, Terminal(-1.0)), Branch(0.75 - 4e-13, node)))
    yield "renormalized", node
    # weight 0 on a level whose jump is negative gives a -0.0 stage
    node = Terminal(-0.0)
    for level, weight in enumerate((0.0, 2.5, 1.0, 0.0, 2.5)):
        side = (0.0, -3.0) if level % 2 else (-0.0, 4.0, -2.0)
        node = _level(0.6 + 0.05 * level, node, side, weight)
    yield "weights-0-2.5", node
    # zeros of both signs: the range keeps the sign met first
    for bottom in (0.0, -0.0):
        yield f"zeros-{bottom}", _level(0.5, _level(0.4, Terminal(bottom), (-bottom,)),
                                        (0.0, -0.0))
    yield "payoff-only", Terminal(2.5)
    yield "one-level-gamble", Internal((Branch(0.3, Terminal(2.0)), Branch(0.7, Terminal(-1.0))))


def cases():
    """(name, tree, params name, scaling) for every golden case, in a fixed order."""
    for scheme, point in POINTS.items():
        tree = scheme_tree(point)
        for mode in ("none", "full", "partial:0.6", "scale:3"):
            for params in PARAMS:
                yield f"{scheme}-{mode}-{params}", tree, params, mode
    for name, tree in built_spines():
        for mode in ("none", "full", "partial:0.6", "scale:3"):
            yield f"{name}-{mode}", tree, "exp", mode
    for p in P_SWEEP:
        tree = scheme_tree(SchemePoint("hazard", p=p, n=400))
        yield f"hazard-p{p}-n400", tree, "k2=10", "none"


def digest(tree, params_name: str, mode: str) -> list[str]:
    """The case's report and evaluation as float hex and counts, and a
    digest of its stage surprises' hex."""
    report = validate(tree)
    result = scaled_evaluation(tree, PARAMS[params_name], parse_scaling_mode(mode))
    scaled = result.scaled
    stages = ",".join(float.hex(s) for s in scaled.stage_surprises)
    floats = (report.payoff_min, report.payoff_max, report.expected_value,
              result.transform.scale, result.transform.offset, scaled.expected_value,
              scaled.total_surprise, scaled.utility, result.utility, result.raw_expected_value)
    return [
        f"{report.node_count} {report.max_depth} {len(scaled.stage_surprises)}",
        "|".join(report.renormalized),
        *map(float.hex, floats),
        hashlib.sha256(stages.encode()).hexdigest()[:16],
    ]


def current() -> dict[str, list[str]]:
    return {name: digest(tree, params, mode) for name, tree, params, mode in cases()}


def test_spine_bits_match_golden():
    assert drifted(GOLDEN, current()) == []


if __name__ == "__main__":
    bit_script(GOLDEN, current())
