"""Bit-exact golden of ``cli.evaluate_grid`` and the n-sweeps' ratio column.

An n-grid evaluates the tree at each n as a sub-root of the deepest tree
and shares each node's kernel jump between them; a dual n-sweep takes
its ratios' U_t from one hazard grid.  ``goldens/grid_bits.json`` holds,
as float hex, what every point of such grids gives when it is
evaluated on its own tree with no jump shared: hazard, timing and
dual-a-after n-grids under ``none``, ``scale:2`` and ``scale:0.37`` at
two parameter sets, over unsorted values with duplicates, and the rows
of n-sweeps of every scheme with a ratio column.  The check needs no
pytest:

    PYTHONPATH=src python tests/test_grid_bits.py            # exit 1 on drift
    PYTHONPATH=src python tests/test_grid_bits.py --capture  # rewrite the golden
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from anticipated_surprise import ModelParams, Modulation
from anticipated_surprise.cli import SCHEMES, SchemePoint, evaluate_grid, sweep_rows
from anticipated_surprise.scaling import parse_scaling_mode

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
        for scheme in ("timing", "dual-a-after", "dual-a-before", "dual-b"):
            values = [float(SCHEMES[scheme].nests_from or 2) + i for i in OFFSETS]
            for mode in ("none", "full"):
                _, rows = sweep_rows("n", values, FIXED[scheme], params,
                                     parse_scaling_mode(mode), 2.0)
                yield f"sweep-{scheme}-{mode}-{params_name}", rows


def current() -> dict[str, list[str]]:
    return {name: [" ".join(float.hex(float(x)) for x in row) for row in rows]
            for name, rows in cases()}


def drift() -> list[str]:
    """Names of the cases whose bits differ from the golden."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    now = current()
    return [name for name in golden.keys() | now.keys() if golden.get(name) != now.get(name)]


def test_grid_bits_match_golden():
    assert drift() == []


if __name__ == "__main__":
    if sys.argv[1:] == ["--capture"]:
        rows = [f"{json.dumps(name)}: {json.dumps(bits)}" for name, bits in current().items()]
        GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
        sys.exit(0)
    bad = drift()
    now = current()
    print(f"{len(bad)} of {len(now)} cases ({sum(map(len, now.values()))} rows) drift from "
          f"{GOLDEN.name}" + (f": {', '.join(sorted(bad)[:10])}" if bad else ""))
    sys.exit(1 if bad else 0)
