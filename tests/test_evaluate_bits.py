"""Bit-exact golden of ``tree.evaluate``, the same on every interpreter.

``goldens/evaluate_bits.json`` holds, as float hex, the expected value,
total surprise and utility of 200 seeded random trees, hazard chains,
timing and dual-risk trees and a bare payoff, plus a digest of each
case's stage surprises, captured under Python 3.11.  The evaluator sums
floats left to right from 0.0, so every interpreter must give these
bits; the built-in ``sum`` of floats compensates from Python 3.12 on and
would not.  The check needs no pytest:

    PYTHONPATH=src python tests/test_evaluate_bits.py            # exit 1 on drift
    PYTHONPATH=src python tests/test_evaluate_bits.py --capture  # rewrite the golden
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from anticipated_surprise import (
    DualRiskSpec,
    DualScheme,
    ModelParams,
    Modulation,
    Terminal,
    TimingRiskSpec,
    build_dual_scheme_a,
    build_dual_scheme_b,
    build_hazard_chain,
    build_timing_risk,
    evaluate,
)
from conftest import bit_script, drifted, random_tree

GOLDEN = Path(__file__).resolve().parent / "goldens" / "evaluate_bits.json"

PARAMS = {
    "default": ModelParams(),
    "k2=10": ModelParams(k2=10.0),
    "exp": ModelParams(k=2.5, alpha=2.2, modulation=Modulation.EXPONENTIAL_NEGATIVE),
}


def cases():
    """(name, tree, params name) for every golden case, in a fixed order."""
    rng = random.Random(20251)
    for i in range(200):
        yield f"random-{i}", random_tree(rng, 5), ("default", "k2=10", "exp")[i % 3]
    for p in (0.01, 0.03, 0.1):
        for n in (1, 2, 3, 10, 50, 137, 400):
            yield f"hazard-p{p}-n{n}", build_hazard_chain(p, n), "k2=10"
    for n in (2, 7, 40):
        yield f"timing-n{n}", build_timing_risk(TimingRiskSpec(0.05, n, 0.3, 4.0)), "default"
    for scheme in DualScheme:
        spec = DualRiskSpec(0.03, 12, 0.6, scheme)
        build = build_dual_scheme_b if scheme is DualScheme.INCORPORATED else build_dual_scheme_a
        yield f"dual-{scheme.value}", build(spec), "k2=10"
    yield "payoff-only", Terminal(2.5), "default"


def digest(name, tree, params_name) -> list[str]:
    """The case's expected value, total surprise and utility as float hex,
    and a digest of its stage surprises' hex."""
    result = evaluate(tree, PARAMS[params_name])
    stages = ",".join(float.hex(s) for s in result.stage_surprises)
    return [
        float.hex(result.expected_value),
        float.hex(result.total_surprise),
        float.hex(result.utility),
        hashlib.sha256(stages.encode()).hexdigest()[:16],
    ]


def current() -> dict[str, list[str]]:
    return {name: digest(name, tree, params) for name, tree, params in cases()}


def test_evaluate_bits_match_golden():
    assert drifted(GOLDEN, current()) == []


def test_payoff_only_total_is_a_float_zero():
    total = evaluate(Terminal(2.5), ModelParams()).total_surprise
    assert type(total) is float and total == 0.0


if __name__ == "__main__":
    bit_script(GOLDEN, current())
