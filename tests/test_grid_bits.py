"""Bit-exact golden of ``cli.evaluate_grid`` and the n-sweeps' ratio column.

An n-grid evaluates the tree at each n as a node of one ``tree.Spine``
of the deepest tree, computing each node's kernel jump once.
``goldens/grid_bits.json`` holds, as float hex, what every point of
such grids gives when it is evaluated on its own tree: hazard, timing
and dual-a-after n-grids under ``none``, ``scale:2`` and ``scale:0.37``
at two parameter sets, over unsorted values with duplicates, deeper
grids (hazard to n = 3,000, timing and dual-a-after to 1,000), and the
rows of n-sweeps of every scheme with a ratio column.  The check needs
no pytest:

    PYTHONPATH=src python tests/test_grid_bits.py            # exit 1 on drift
    PYTHONPATH=src python tests/test_grid_bits.py --capture  # rewrite the golden
"""

from __future__ import annotations

from pathlib import Path

from anticipated_surprise import ModelParams, Modulation
from anticipated_surprise.cli import SCHEMES, SchemePoint, evaluate_grid, sweep_rows
from anticipated_surprise.scaling import parse_scaling_mode
from conftest import bit_script, drifted

GOLDEN = Path(__file__).resolve().parent / "goldens" / "grid_bits.json"

PARAMS = {
    "k2=10": ModelParams(k2=10.0),
    "exp": ModelParams(k=2.5, alpha=2.2, modulation=Modulation.EXPONENTIAL_NEGATIVE),
}
FIXED = {
    "hazard": SchemePoint("hazard", p=0.03),
    "timing": SchemePoint("timing", p=0.05, p_tr=0.3, k_tr=4.0),
    "dual-a-after": SchemePoint("dual-a-after", p=0.03, p_pr=0.6),
    "dual-a-before": SchemePoint("dual-a-before", p=0.03, p_pr=0.6),
    "dual-b": SchemePoint("dual-b", p=0.03, p_pr=0.6),
}
#: Unsorted, with duplicates, from the smallest valid n of each scheme.
OFFSETS = [9, 0, 3, 9, 1, 6, 3]
DEEP = [57.0, 400.0, 3.0, 211.0, 57.0, 1.0, 398.0, 120.0]
#: Deeper grids: (name, fixed point, offsets from the smallest valid n, modes).
DEEPER = [
    ("hazard-3000", SchemePoint("hazard", p=0.01),
     [1499, 2999, 0, 2998, 639, 2999, 1], ("none", "scale:0.37")),
    ("timing-1000", FIXED["timing"], [499, 998, 0, 997, 56, 998, 1], ("scale:0.37",)),
    ("dual-a-after-1000", FIXED["dual-a-after"], [499, 999, 0, 998, 56, 999, 1], ("scale:0.37",)),
]


def cases():
    """(name, rows) for every golden case, each row a list of floats."""
    for params_name, params in PARAMS.items():
        for mode in ("none", "scale:2", "scale:0.37"):
            scaling = parse_scaling_mode(mode)
            for scheme in ("hazard", "timing", "dual-a-after"):
                values = [float(SCHEMES[scheme].nests_from + i) for i in OFFSETS]
                grid = evaluate_grid(FIXED[scheme], "n", values, params, scaling)
                yield f"grid-{scheme}-{mode}-{params_name}", [list(r) for _, r in grid]
            grid = evaluate_grid(FIXED["hazard"], "n", DEEP, params, scaling)
            yield f"grid-hazard-deep-{mode}-{params_name}", [list(r) for _, r in grid]
        for name, fixed, offsets, modes in DEEPER:
            values = [float(SCHEMES[fixed.scheme].nests_from + i) for i in offsets]
            for mode in modes:
                grid = evaluate_grid(fixed, "n", values, params, parse_scaling_mode(mode))
                yield f"grid-{name}-{mode}-{params_name}", [list(r) for _, r in grid]
        for scheme in ("timing", "dual-a-after", "dual-a-before", "dual-b"):
            values = [float(SCHEMES[scheme].nests_from or 2) + i for i in OFFSETS]
            for mode in ("none", "full"):
                _, rows = sweep_rows("n", values, FIXED[scheme], params,
                                     parse_scaling_mode(mode), 2.0)
                yield f"sweep-{scheme}-{mode}-{params_name}", rows


def current() -> dict[str, list[str]]:
    return {name: [" ".join(float.hex(float(x)) for x in row) for row in rows]
            for name, rows in cases()}


def test_grid_bits_match_golden():
    assert drifted(GOLDEN, current()) == []


if __name__ == "__main__":
    now = current()
    bit_script(GOLDEN, now, f"{len(now)} cases ({sum(map(len, now.values()))} rows)")
