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

from .core import ModelParams, ValidationError
from .tree import (EvaluationResult, ResolutionNode, Terminal, ValidationReport, _fold, _rebuilt,
                   _result, validate)


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
class PartialScaling:
    """Shift payoffs by the minimum and divide by (range)**gamma.

    gamma = 1, the default, maps [min payoff, max payoff] onto [0, 1];
    gamma -> 0 approaches no scaling (up to the offset).  For a {0, xmax}
    lottery, gamma = 1/alpha divides payoffs by xmax**(1/alpha), the
    incomplete normalization that keeps a damped magnitude effect.
    """

    gamma: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and 0.0 < self.gamma <= 1.0):
            raise ValidationError(f"gamma must lie in (0, 1], got {self.gamma!r}")


#: A mode is a fixed map (``none`` is ``AffineTransform()``, ``scale:<s>``
#: is ``AffineTransform(s)``) or a rule on the tree's payoff range.  The
#: old mode names stay as aliases, so ``isinstance`` does not tell ``none``
#: from ``scale:<s>``: compare with ``AffineTransform()`` instead.
ScalingMode = AffineTransform | PartialScaling
NoScaling = FixedScale = AffineTransform
FullScaling = PartialScaling


def parse_scaling_mode(text: str) -> ScalingMode:
    """Parse the command-line form: none | full | partial:<gamma> | scale:<s>."""
    if text == "none":
        return AffineTransform()
    if text == "full":
        return PartialScaling()
    kind, colon, value = text.partition(":")
    mode = {"partial": PartialScaling, "scale": AffineTransform}.get(kind)
    if colon and mode is not None:
        try:
            return mode(float(value))
        except ValueError as exc:  # also the mode's own ValidationError
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


def reads_payoff_range(mode: ScalingMode) -> bool:
    """Whether mode's transform depends on the tree's payoff range."""
    return isinstance(mode, PartialScaling)


def _transform_for(lo: float, hi: float, mode: ScalingMode) -> AffineTransform:
    if isinstance(mode, AffineTransform):
        return mode
    if hi == lo:
        return AffineTransform()
    if not math.isfinite(hi - lo):
        raise ValidationError(f"payoff range [{lo!r}, {hi!r}] is wider than a float holds; "
                              "scaling needs hi - lo finite")
    # x ** 1.0 is x exactly, so gamma = 1 divides by the range itself
    return AffineTransform(scale=(hi - lo) ** mode.gamma, offset=lo)


def transform_payoffs(node: ResolutionNode, transform: AffineTransform) -> ResolutionNode:
    """Copy of the tree with every terminal payoff mapped.

    Evaluation never needs the copy (see ``scaled_evaluation``); it is the
    reference that the analytic scaling is tested against.
    """
    return _fold(node, lambda leaf: Terminal(transform.apply(leaf.payoff)), _rebuilt)


@dataclass(frozen=True)
class ScaledEvaluation:
    """Evaluation of the normalized tree plus the transform used."""

    transform: AffineTransform
    scaled: EvaluationResult
    utility: float
    #: Expected value of the tree as given, before normalization.
    raw_expected_value: float


def scaled_evaluation(
    node: ResolutionNode,
    params: ModelParams,
    mode: ScalingMode,
    report: ValidationReport | None = None,
) -> ScaledEvaluation:
    """Evaluate the normalized tree without building it: the surprise
    pass divides the raw jumps by the transform's scale.  The raw tree's
    own surprise and utility are never computed, so payoffs too large for
    them still evaluate once normalized.

    A caller that has validated a tree containing node may pass its
    ``report`` if mode reads no payoff range: node's conditional values
    are in it, and its range is not node's own.
    """
    if report is None:
        report = validate(node)
    transform = _transform_for(report.payoff_min, report.payoff_max, mode)
    scaled = _result(node, report, params, transform.scale, transform.offset)
    return ScaledEvaluation(
        transform=transform,
        scaled=scaled,
        utility=transform.invert_utility(scaled.utility),
        raw_expected_value=report.value_of(node),
    )


def evaluate_scaled(node: ResolutionNode, params: ModelParams, mode: ScalingMode) -> float:
    """Normalize payoffs, evaluate, and map the utility back."""
    return scaled_evaluation(node, params, mode).utility
