"""The message of each input rule at every entry point that applies it.

A probability lies in (0, 1), a weight is finite and >= 0, and a delay is
a whole number >= its least value.  Each entry point below is fed nan,
inf, -inf and the values at each bound: a rejected value must raise the
rule's message byte for byte, and the closest accepted values must pass.
"""

import math

import pytest

from anticipated_surprise import (DualRiskSpec, HazardSpec, ScenarioSpec, TimingRiskSpec,
                                  ValidationError, build_binary_gamble, build_hazard_chain)
from anticipated_surprise.cli import main

NONFINITE = (math.nan, math.inf, -math.inf)

#: Entry point -> (a call that feeds x to one probability, its name in messages).
PROBABILITIES = {
    "HazardSpec.p": (lambda x: HazardSpec(x, 4), "p"),
    "TimingRiskSpec.p": (lambda x: TimingRiskSpec(x, 4, 0.5), "p"),
    "TimingRiskSpec.p_tr": (lambda x: TimingRiskSpec(0.03, 4, x), "p_tr"),
    "DualRiskSpec.p": (lambda x: DualRiskSpec(x, 4, 0.5), "p"),
    "DualRiskSpec.p_pr": (lambda x: DualRiskSpec(0.03, 4, x), "p_pr"),
    "build_binary_gamble": (lambda x: build_binary_gamble(1.0, 0.0, x), "p"),
    "build_hazard_chain.p": (lambda x: build_hazard_chain(x, 4), "p"),
    "ScenarioSpec": (lambda x: ScenarioSpec([0.5, x], [1.0, 0.5], 0.0), "step_probabilities[1]"),
}

#: Entry point -> (a call that feeds x to one weight, its name in messages).
WEIGHTS = {
    "HazardSpec.n": (lambda x: HazardSpec(0.03, x), "n"),
    "TimingRiskSpec.k_tr": (lambda x: TimingRiskSpec(0.03, 4, 0.5, x), "k_tr"),
    "DualRiskSpec.k2_prob": (lambda x: DualRiskSpec(0.03, 4, 0.5, k2_prob=x), "k2_prob"),
}

#: Entry point -> (a call that feeds x to one delay, its name, its least value).
DELAYS = {
    "TimingRiskSpec.n": (lambda x: TimingRiskSpec(0.03, x, 0.5), "n", 2),
    "DualRiskSpec.n": (lambda x: DualRiskSpec(0.03, x, 0.5), "n", 1),
    "build_hazard_chain.n": (lambda x: build_hazard_chain(0.03, x), "n", 1),
}

#: The commands that take --k2-prob, without it.
K2_PROB_COMMANDS = {
    "sweep": ["sweep", "--scheme", "dual-b", "--p", "0.03", "--n", "4", "--p-pr", "0.5",
              "--target", "p-pr", "--values", "0.5"],
    "figure fig7": ["figure", "fig7", "--out", "-"],
}


def raised(call, x) -> str:
    with pytest.raises(ValidationError) as exc:
        call(x)
    return str(exc.value)


@pytest.mark.parametrize("entry", PROBABILITIES)
@pytest.mark.parametrize("x", [*NONFINITE, 0.0, 1.0, -0.5, 1.5])
def test_probability_outside_the_open_unit_interval(entry, x):
    call, name = PROBABILITIES[entry]
    assert raised(call, x) == f"{name} must lie in (0, 1), got {x!r}"


@pytest.mark.parametrize("entry", PROBABILITIES)
@pytest.mark.parametrize("x", [math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)])
def test_probability_just_inside_the_bounds(entry, x):
    PROBABILITIES[entry][0](x)


@pytest.mark.parametrize("entry", WEIGHTS)
@pytest.mark.parametrize("x", [*NONFINITE, -math.nextafter(0.0, 1.0), -1.0])
def test_weight_not_finite_and_nonnegative(entry, x):
    call, name = WEIGHTS[entry]
    assert raised(call, x) == f"{name} must be finite and >= 0, got {x!r}"


@pytest.mark.parametrize("entry", WEIGHTS)
@pytest.mark.parametrize("x", [0.0, -0.0, 1e308])
def test_weight_at_its_bound(entry, x):
    WEIGHTS[entry][0](x)


@pytest.mark.parametrize("entry", DELAYS)
@pytest.mark.parametrize("offset", [*NONFINITE, -1, 0.5])
def test_delay_not_a_whole_number_at_least_its_least(entry, offset):
    call, name, least = DELAYS[entry]
    x = least + offset
    assert raised(call, x) == f"{name} must be an integer >= {least}, got {x!r}"


@pytest.mark.parametrize("entry", DELAYS)
def test_delay_at_its_least(entry):
    call, _, least = DELAYS[entry]
    call(least)
    call(float(least))


@pytest.mark.parametrize("command", K2_PROB_COMMANDS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-5e-324", "-1"])
def test_k2_prob_flag_not_finite_and_nonnegative(capsys, command, value):
    code = main([*K2_PROB_COMMANDS[command], f"--k2-prob={value}"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: --k2-prob must be finite and >= 0, got {float(value)!r}\n"


@pytest.mark.parametrize("command", K2_PROB_COMMANDS)
def test_k2_prob_flag_at_its_bound(capsys, command):
    code = main([*K2_PROB_COMMANDS[command], "--k2-prob", "0"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "") and out
