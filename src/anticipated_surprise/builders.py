"""Constructors for the resolution trees behind each standard scheme.

Every builder returns a tree whose exhaustive evaluation is the
reference value for the matching formula in ``closed_form``.  Each tree
is a spine: a leaf and the levels piled on it (see ``tree.pile``).  Each
``*_levels`` function checks the numbers it takes, trusts a spec's own
checks and returns (leaf, levels); each ``build_*`` function piles them
into the tree, while ``tree.stack`` of them gives the tree's
``tree.validate`` report without building a node, so the command line
builds no built-in tree.

Nodes are immutable and may be shared within a tree: every level of a
hazard chain reuses one loss branch ``Branch(p, Terminal(0.0))``.  A
shared node is visited, and counted in ``ValidationReport.node_count``,
once per path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .closed_form import DualRiskSpec, DualScheme, TimingRiskSpec
from .core import ValidationError, check_probability, check_whole
from .tree import Branch, Level, ResolutionNode, Terminal, pile

#: A spine as a leaf and its levels, the bottom level first.
Levels = tuple[Terminal, list[Level]]


def build_binary_gamble(hi: float, lo: float, p: float) -> ResolutionNode:
    """Single-stage gamble: payoff hi with probability p, else lo."""
    return pile(*gamble_levels(hi, lo, p))


def build_hazard_chain(p: float, n: int) -> ResolutionNode:
    """Depth-n survival chain: each level loses the unit reward with
    probability p; surviving all n levels pays 1."""
    return pile(*hazard_levels(p, n))


def build_timing_risk(spec: TimingRiskSpec) -> ResolutionNode:
    """Timing-risk scheme: n-1 hazard levels, then a weighted reveal node
    (early reward with probability p_tr, else a late sub-chain of two
    further hazard levels ending in the reward).

    This layout makes the depth-grouped stage surprises line up with the
    TimingComponents decomposition: stages 1..n-1 are delta_common, stage
    n is k_tr*delta_tr0, stages n+1 and n+2 sum to delta_late, and the
    expected value is p_tr*q**(n-1) + (1-p_tr)*q**(n+1).
    """
    return pile(*timing_levels(spec))


def build_dual_scheme_a(spec: DualRiskSpec) -> ResolutionNode:
    """Dual risk with the success probability as its own stage, either
    after the hazard chain (chain survival leads into the success gamble)
    or before it (the gamble's last branch leads into the chain)."""
    return pile(*dual_a_levels(spec))


def build_dual_scheme_b(spec: DualRiskSpec) -> ResolutionNode:
    """Dual risk folded into the chain: a plain hazard chain at the
    inflated per-step hazard p' = 1 - p_pr**(1/n)*(1-p); the spec must be
    of the INCORPORATED scheme, under which it checks p'."""
    return pile(*dual_b_levels(spec))


def gamble_levels(hi: float, lo: float, p: float) -> Levels:
    """``build_binary_gamble``'s leaf and levels."""
    check_probability("p", p)
    return Terminal(lo), [_gamble(hi, p)]


def hazard_levels(p: float, n: int) -> Levels:
    """``build_hazard_chain``'s leaf and levels."""
    return Terminal(1.0), [_hazard(check_probability("p", p), int(check_whole("n", n, 1)))]


def timing_levels(spec: TimingRiskSpec) -> Levels:
    """``build_timing_risk``'s leaf and levels."""
    reveal = Branch(spec.p_tr, Terminal(1.0)), 1.0 - spec.p_tr, spec.k_tr, 1
    return Terminal(1.0), [_hazard(spec.p, 2), reveal, _hazard(spec.p, int(spec.n) - 1)]


def dual_a_levels(spec: DualRiskSpec) -> Levels:
    """``build_dual_scheme_a``'s leaf and levels."""
    if spec.scheme is DualScheme.SEPARATE_AFTER:
        return Terminal(0.0), [_gamble(1.0, spec.p_pr), _hazard(spec.p, int(spec.n))]
    if spec.scheme is DualScheme.SEPARATE_BEFORE:
        gate = Branch(1.0 - spec.p_pr, Terminal(0.0)), spec.p_pr, 1.0, 1
        return Terminal(1.0), [_hazard(spec.p, int(spec.n)), gate]
    raise ValidationError(f"scheme {spec.scheme} is not a separate-resolution scheme")


def dual_b_levels(spec: DualRiskSpec) -> Levels:
    """``build_dual_scheme_b``'s leaf and levels."""
    if spec.scheme is not DualScheme.INCORPORATED:
        raise ValidationError(f"scheme {spec.scheme} is not the incorporated scheme")
    return Terminal(1.0), [_hazard(spec.inflated_hazard(), int(spec.n))]


def _gamble(hi: float, p: float) -> Level:
    """One level: payoff hi with probability p, else on down with 1 - p."""
    return Branch(p, Terminal(hi)), 1.0 - p, 1.0, 1


def _hazard(p: float, n: int) -> Level:
    """n hazard levels, each losing the reward with probability p; all
    share one loss branch."""
    return Branch(p, Terminal(0.0)), 1.0 - p, 1.0, n


@dataclass(frozen=True)
class ScenarioSpec:
    """Sequential scenario over the horizon its two step lists span.

    At step i the per-step event fires with probability
    step_probabilities[i] and ends the sequence at step_payoffs[i];
    surviving every step ends at final_payoff.  In procrastination the
    step event is completing the task (good payoffs, final_payoff the
    missed deadline); in a negotiation it is a breakdown (worsening
    losses, final_payoff the concluded agreement).  Payoffs are caller-
    supplied; the builder is purely structural.
    """

    step_probabilities: Sequence[float]
    step_payoffs: Sequence[float]
    final_payoff: float

    def __post_init__(self) -> None:
        n_probs, n_payoffs = len(self.step_probabilities), len(self.step_payoffs)
        if n_probs != n_payoffs or n_probs < 1:
            raise ValidationError(f"step_probabilities and step_payoffs need the same "
                                  f"length >= 1, got {n_probs} and {n_payoffs}")
        for i, prob in enumerate(self.step_probabilities):
            check_probability(f"step_probabilities[{i}]", prob)
        for i, payoff in enumerate(self.step_payoffs):
            if not math.isfinite(payoff):
                raise ValidationError(f"step_payoffs[{i}] must be finite, got {payoff!r}")
        if not math.isfinite(self.final_payoff):
            raise ValidationError(f"final_payoff must be finite, got {self.final_payoff!r}")


def build_scenario(spec: ScenarioSpec) -> ResolutionNode:
    """Chain the scenario's steps into a tree, last step first."""
    return pile(*scenario_levels(spec))


def scenario_levels(spec: ScenarioSpec) -> Levels:
    """``build_scenario``'s leaf and levels: a level per step, last step first."""
    steps = zip(reversed(spec.step_probabilities), reversed(spec.step_payoffs))
    return Terminal(float(spec.final_payoff)), [_gamble(float(x), prob) for prob, x in steps]
