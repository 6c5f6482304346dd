"""Constructors for the resolution trees behind each standard scheme.

Every builder returns a tree whose exhaustive evaluation is the
reference value for the matching formula in ``closed_form``.  Builders
check the numbers they take, trust a spec's own checks and do not walk
the tree they return; validation happens in ``tree.validate``.

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
from .tree import Branch, Internal, ResolutionNode, Terminal


def build_binary_gamble(hi: float, lo: float, p: float) -> ResolutionNode:
    """Single-stage gamble: payoff hi with probability p, else lo."""
    check_probability("p", p)
    return Internal((Branch(p, Terminal(hi)), Branch(1.0 - p, Terminal(lo))))


def build_hazard_chain(p: float, n: int) -> ResolutionNode:
    """Depth-n survival chain: each level loses the unit reward with
    probability p; surviving all n levels pays 1."""
    return _chain(check_probability("p", p), int(check_whole("n", n, 1)), Terminal(1.0))


def _chain(p: float, n: int, node: ResolutionNode) -> ResolutionNode:
    """Stack n hazard levels on node, each losing the reward with
    probability p; all levels share one loss branch."""
    loss, q = Branch(p, Terminal(0.0)), 1.0 - p
    for _ in range(n):
        node = Internal((loss, Branch(q, node)))
    return node


def build_timing_risk(spec: TimingRiskSpec) -> ResolutionNode:
    """Timing-risk scheme: n-1 hazard levels, then a weighted reveal node
    (early reward with probability p_tr, else a late sub-chain of two
    further hazard levels ending in the reward).

    This layout makes the depth-grouped stage surprises line up with the
    TimingComponents decomposition: stages 1..n-1 are delta_common, stage
    n is k_tr*delta_tr0, stages n+1 and n+2 sum to delta_late, and the
    expected value is p_tr*q**(n-1) + (1-p_tr)*q**(n+1).
    """
    late = _chain(spec.p, 2, Terminal(1.0))
    reveal = Internal(
        (Branch(spec.p_tr, Terminal(1.0)), Branch(1.0 - spec.p_tr, late)),
        surprise_weight=spec.k_tr,
    )
    return _chain(spec.p, int(spec.n) - 1, reveal)


def build_dual_scheme_a(spec: DualRiskSpec) -> ResolutionNode:
    """Dual risk with the success probability as its own stage, either
    after the hazard chain (chain survival leads into the success gamble)
    or before it (the gamble's last branch leads into the chain: a spine)."""
    if spec.scheme is DualScheme.SEPARATE_AFTER:
        return _chain(spec.p, int(spec.n), build_binary_gamble(1.0, 0.0, spec.p_pr))
    if spec.scheme is DualScheme.SEPARATE_BEFORE:
        chain = _chain(spec.p, int(spec.n), Terminal(1.0))
        return Internal((Branch(1.0 - spec.p_pr, Terminal(0.0)), Branch(spec.p_pr, chain)))
    raise ValidationError(f"scheme {spec.scheme} is not a separate-resolution scheme")


def build_dual_scheme_b(spec: DualRiskSpec) -> ResolutionNode:
    """Dual risk folded into the chain: a plain hazard chain at the
    inflated per-step hazard p' = 1 - p_pr**(1/n)*(1-p)."""
    return _chain(spec.inflated_hazard(), int(spec.n), Terminal(1.0))


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
    node: ResolutionNode = Terminal(float(spec.final_payoff))
    for prob, payoff in zip(
        reversed(spec.step_probabilities), reversed(spec.step_payoffs)
    ):
        node = Internal((Branch(prob, Terminal(float(payoff))), Branch(1.0 - prob, node)))
    return node
