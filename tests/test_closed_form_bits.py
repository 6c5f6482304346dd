"""Bit-exact golden of the public closed forms.

``goldens/closed_form_bits.json`` holds, as float hex, what every public
function of ``closed_form`` returns at seeded points: ``discount_factor``
(at n = 0 and at a fractional n too), ``hazard_total_surprise``,
``hazard_stage_surprise`` (first, middle and last stage), the six fields
of ``timing_components``, ``mean_delay``, ``timing_ratio``,
``prob_only_surprise``, and ``dual_surprise`` and ``discount_ratio``
under each of the three dual schemes.  Points are drawn as the
benchmark's closed-form workload draws them, under both modulations, at
general p, at its p -> 0 edge (p in [1e-13, 1e-9]) and at its
alpha -> 1 edge.  A call that raises records its error instead.  The
check needs no pytest:

    PYTHONPATH=src:tests python tests/test_closed_form_bits.py            # exit 1 on drift
    PYTHONPATH=src:tests python tests/test_closed_form_bits.py --capture  # rewrite the golden
"""

from __future__ import annotations

import math
import random
from pathlib import Path

from anticipated_surprise import (DualRiskSpec, DualScheme, HazardSpec, ModelParams, Modulation,
                                  TimingRiskSpec, ValidationError, discount_factor, discount_ratio,
                                  dual_surprise, hazard_stage_surprise, hazard_total_surprise,
                                  mean_delay, prob_only_surprise, timing_components, timing_ratio)
from conftest import bit_script, drifted

GOLDEN = Path(__file__).resolve().parent / "goldens" / "closed_form_bits.json"

SEED = 7
#: Draws per edge: "" is general p, "p" the p -> 0 edge, "alpha" the alpha -> 1 edge.
DRAWS = {"": 12, "p": 6, "alpha": 4}
DUAL = {"dual-a-after": DualScheme.SEPARATE_AFTER, "dual-a-before": DualScheme.SEPARATE_BEFORE,
        "dual-b": DualScheme.INCORPORATED}


def draw(rng: random.Random, edge: str, modulation: Modulation) -> dict:
    """One seeded point: params and every field a closed form reads."""
    alpha = 1.0 + 10 ** rng.uniform(-12, -9) if edge == "alpha" else rng.uniform(1.05, 2.5)
    params = ModelParams(k=rng.uniform(1.5, 5.0), alpha=alpha, k1=rng.uniform(0.0, 3.0),
                         k2=rng.uniform(0.5, 12.0), modulation=modulation)
    if edge == "alpha":
        p, n = rng.uniform(0.01, 0.1), rng.randint(2, 30)
    elif edge == "p":
        p, n = 10 ** rng.uniform(-13, -9), rng.randint(2, 60)
    else:
        p, n = 10 ** rng.uniform(math.log10(0.005), math.log10(0.3)), rng.randint(1, 60)
    return {"params": params, "p": p, "n": n, "p_tr": rng.uniform(0.05, 0.95),
            "k_tr": rng.uniform(0.0, 10.0), "p_pr": rng.uniform(0.01, 0.99),
            "k2_prob": rng.uniform(0.0, 12.0)}


def bits(*calls) -> list[str]:
    """Each call's float as hex, or its error's type and message."""
    out = []
    for call in calls:
        try:
            out.append(float.hex(call()))
        except (ValidationError, ArithmeticError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def point_cases(name: str, pt: dict):
    """(case name, bits) of every closed form at one drawn point."""
    params, p, n = pt["params"], pt["p"], pt["n"]
    hazard = HazardSpec(p, n)
    yield f"{name}-hazard", bits(
        lambda: hazard_total_surprise(hazard, params),
        lambda: discount_factor(hazard, params),
        lambda: discount_factor(HazardSpec(p, n + 0.37), params),
        lambda: discount_factor(HazardSpec(p, 0), params),
        *(lambda t=t: hazard_stage_surprise(hazard, t, params) for t in sorted({1, n // 2 + 1, n})),
    )
    timing = TimingRiskSpec(p, max(n, 2), pt["p_tr"], pt["k_tr"])
    fields = ("delta_common", "delta_tr0", "delta_late", "delta_total", "e_tr", "e_fix")
    yield f"{name}-timing", bits(
        *(lambda f=f: getattr(timing_components(timing, params), f) for f in fields),
        lambda: mean_delay(timing),
        lambda: timing_ratio(timing, params),
    )
    yield f"{name}-prob-only", bits(lambda: prob_only_surprise(pt["p_pr"], params))
    for scheme, kind in DUAL.items():
        dual = DualRiskSpec(p, n, pt["p_pr"], kind, pt["k2_prob"])
        yield f"{name}-{scheme}", bits(lambda: dual_surprise(dual, params),
                                       lambda: discount_ratio(dual, params))


def cases():
    """(name, bits) of every golden case, in a fixed order."""
    rng = random.Random(SEED)
    modulations = list(Modulation)
    for edge, count in DRAWS.items():
        for i in range(count):
            pt = draw(rng, edge, modulations[i % len(modulations)])
            yield from point_cases(f"{edge or 'general'}-{i:02d}", pt)
    yield "prob-only-degenerate", bits(lambda: prob_only_surprise(0.0, ModelParams()),
                                       lambda: prob_only_surprise(1.0, ModelParams()))


def current() -> dict[str, list[str]]:
    return dict(cases())


def test_closed_form_bits_match_golden():
    assert drifted(GOLDEN, current()) == []


if __name__ == "__main__":
    bit_script(GOLDEN, current())
