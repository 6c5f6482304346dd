"""Outcome normalization before evaluation, inverted on the utility.

The multiplicative correction U0*g(D) misbehaves when payoffs are
negative, straddle zero, or are simply large: the surprise then works
against the expected value or blows the utility up.  The treatment is
affine: map payoffs so the worst is 0 and the best is 1 (or part of the
way there), evaluate, then map the resulting utility back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ModelParams, ValidationError, utility
from .tree import (
    Branch,
    EvaluationResult,
    Internal,
    ResolutionNode,
    Terminal,
    _stage_surprises,
    validate,
)


@dataclass(frozen=True)
class AffineTransform:
    """Payoff map x -> (x - offset) / scale with inverse U -> scale*U + offset."""

    scale: float = 1.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValidationError(f"scale must be finite and > 0, got {self.scale!r}")
        if not math.isfinite(self.offset):
            raise ValidationError(f"offset must be finite, got {self.offset!r}")

    def apply(self, x: float) -> float:
        return (x - self.offset) / self.scale

    def invert_utility(self, u: float) -> float:
        return self.scale * u + self.offset

    @property
    def is_identity(self) -> bool:
        return self.scale == 1.0 and self.offset == 0.0


# --- scaling modes ----------------------------------------------------------


@dataclass(frozen=True)
class NoScaling:
    """Evaluate raw payoffs as they are."""


@dataclass(frozen=True)
class FullScaling:
    """Map [min payoff, max payoff] onto [0, 1]."""


@dataclass(frozen=True)
class PartialScaling:
    """Shrink the payoff range by (range)**gamma instead of the full range.

    gamma = 1 recovers FullScaling; gamma -> 0 approaches NoScaling (up
    to the offset).  For a {0, xmax} lottery, gamma = 1/alpha divides
    payoffs by xmax**(1/alpha), the incomplete normalization that keeps
    a damped magnitude effect.
    """

    gamma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and 0.0 < self.gamma <= 1.0):
            raise ValidationError(f"gamma must lie in (0, 1], got {self.gamma!r}")


@dataclass(frozen=True)
class FixedScale:
    """Divide payoffs by an explicit scale (offset 0), e.g. to reproduce
    a per-problem normalization exactly."""

    scale: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValidationError(f"scale must be finite and > 0, got {self.scale!r}")


ScalingMode = NoScaling | FullScaling | PartialScaling | FixedScale


def parse_scaling_mode(text: str) -> ScalingMode:
    """Parse the command-line form: none | full | partial:<gamma> | scale:<s>."""
    if text == "none":
        return NoScaling()
    if text == "full":
        return FullScaling()
    if text.startswith("partial:"):
        try:
            return PartialScaling(float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise ValidationError(f"bad scaling spec {text!r}: {exc}") from exc
    if text.startswith("scale:"):
        try:
            return FixedScale(float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise ValidationError(f"bad scaling spec {text!r}: {exc}") from exc
    raise ValidationError(
        f"unknown scaling mode {text!r}; expected none, full, partial:<gamma> or scale:<s>"
    )


def derive_transform(node: ResolutionNode, mode: ScalingMode) -> AffineTransform:
    """The transform a mode prescribes for this tree's payoffs.

    Degenerate trees (all payoffs equal) get the identity under the
    range-based modes: there is nothing to normalize.
    """
    report = validate(node)
    return _transform_for(report.payoff_min, report.payoff_max, mode)


def _transform_for(lo: float, hi: float, mode: ScalingMode) -> AffineTransform:
    if isinstance(mode, NoScaling):
        return AffineTransform()
    if isinstance(mode, FixedScale):
        return AffineTransform(scale=mode.scale, offset=0.0)
    if hi == lo:
        return AffineTransform()
    if isinstance(mode, FullScaling):
        return AffineTransform(scale=hi - lo, offset=lo)
    return AffineTransform(scale=(hi - lo) ** mode.gamma, offset=lo)


def transform_payoffs(node: ResolutionNode, transform: AffineTransform) -> ResolutionNode:
    """Copy of the tree with every terminal payoff mapped.

    Evaluation never needs the copy (see ``scaled_evaluation``); it is the
    reference that the analytic scaling is tested against.
    """
    if isinstance(node, Terminal):
        return Terminal(transform.apply(node.payoff))
    return Internal(
        tuple(Branch(br.probability, transform_payoffs(br.child, transform)) for br in node.branches),
        node.surprise_weight,
    )


@dataclass(frozen=True)
class ScaledEvaluation:
    """Evaluation of the normalized tree plus the transform used."""

    transform: AffineTransform
    scaled: EvaluationResult
    utility: float
    #: Expected value of the tree as given, before normalization.
    raw_expected_value: float


def scaled_evaluation(
    node: ResolutionNode, params: ModelParams, mode: ScalingMode
) -> ScaledEvaluation:
    """Evaluate the normalized tree without building it.

    Mapping payoffs by x -> (x - offset) / scale maps every conditional
    expected value the same way, so the offset cancels in each jump and
    the surprise pass only divides the raw jumps by scale.  The raw
    tree's own surprise and utility are never computed, so payoffs too
    large for them still evaluate once normalized.
    """
    report = validate(node)
    transform = _transform_for(report.payoff_min, report.payoff_max, mode)
    surprises = tuple(_stage_surprises(node, report.conditional_values, params, transform.scale))
    total = sum(surprises, 0.0)
    u0 = transform.apply(report.expected_value)
    scaled = EvaluationResult(u0, surprises, total, utility(u0, total, params))
    return ScaledEvaluation(
        transform=transform,
        scaled=scaled,
        utility=transform.invert_utility(scaled.utility),
        raw_expected_value=report.expected_value,
    )


def evaluate_scaled(node: ResolutionNode, params: ModelParams, mode: ScalingMode) -> float:
    """Normalize payoffs, evaluate, and map the utility back."""
    return scaled_evaluation(node, params, mode).utility
