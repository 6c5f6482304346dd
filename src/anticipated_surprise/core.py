"""Scalar kernels of the surprise-modulated utility model.

An option is evaluated in two steps: mentally resolving its outcome
produces a (signed) surprise total, and that surprise then corrects the
option's expected value multiplicatively.  This module holds the three
scalar pieces:

    surprise_kernel     delta(z) = z**alpha            for z >= 0
                                 = -k * |z|**alpha     for z < 0
    surprise_modulation g(D)     = exp(k1 * D)         for D >= 0
                                 = 1 / (1 + k2*|D|)    for D < 0   (hyperbolic)
                                 = exp(-k2 * |D|)      for D < 0   (exponential)
    utility             U        = U0 * g(D)

Surprise values are plain floats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class Modulation(Enum):
    """Shape of the utility correction for negative surprise."""

    HYPERBOLIC = "hyperbolic"
    EXPONENTIAL_NEGATIVE = "exponential-negative"


@dataclass(frozen=True)
class ModelParams:
    """Scalar parameter bundle.

    k:     loss-weighting factor applied to negative expectation errors, k > 1
    alpha: convexity exponent of the surprise kernel, alpha > 1
    k1:    gain on positive total surprise, k1 >= 0
    k2:    gain on negative total surprise, k2 >= 0
    modulation: negative-branch shape of g (hyperbolic decays slower)

    Defaults are the reference parameterization used by the single-stage
    gamble demos (k=3, alpha=1.6, k1=k2=2).
    """

    k: float = 3.0
    alpha: float = 1.6
    k1: float = 2.0
    k2: float = 2.0
    modulation: Modulation = Modulation.HYPERBOLIC

    def __post_init__(self) -> None:
        for name in ("k", "alpha", "k1", "k2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v!r}")
        if self.k <= 1.0:
            raise ValidationError(f"k must be > 1, got {self.k}")
        if self.alpha <= 1.0:
            raise ValidationError(f"alpha must be > 1, got {self.alpha}")
        if self.k1 < 0.0 or self.k2 < 0.0:
            raise ValidationError("k1 and k2 must be non-negative")


def is_whole(x: float) -> bool:
    """Whether x is a finite whole number, such as 3 or 3.0."""
    return math.isfinite(x) and x == int(x)


def check_probability(name: str, x: float) -> float:
    """x; ValidationError unless 0 < x < 1."""
    if not 0.0 < x < 1.0:  # also rejects nan and inf
        raise ValidationError(f"{name} must lie in (0, 1), got {x!r}")
    return x


def check_nonnegative(name: str, x: float) -> float:
    """x; ValidationError unless finite and >= 0."""
    if not 0.0 <= x < math.inf:  # also rejects nan
        raise ValidationError(f"{name} must be finite and >= 0, got {x!r}")
    return x


def check_whole(name: str, x: float, k: int) -> float:
    """x; ValidationError unless a whole number >= k."""
    if not (is_whole(x) and x >= k):
        raise ValidationError(f"{name} must be an integer >= {k}, got {x!r}")
    return x


def surprise_kernel(z: float, params: ModelParams) -> float:
    """Signed convex surprise of a single expectation error z.

    Positive errors map to z**alpha, negative ones to -k*|z|**alpha, so
    the kernel is strictly increasing, zero at zero, and weighs a loss k
    times more than the equally sized gain.
    """
    if not math.isfinite(z):
        raise ValidationError(f"expectation error must be finite, got {z!r}")
    if z >= 0.0:
        return z**params.alpha
    return -params.k * (-z) ** params.alpha


def surprise_modulation(delta: float, params: ModelParams) -> float:
    """Multiplicative utility correction g(delta); positive, g(0) = 1."""
    if not math.isfinite(delta):
        raise ValidationError(f"surprise must be finite, got {delta!r}")
    return _modulation(delta, params.k1, params.k2, params.modulation)


def _modulation(delta: float, k1: float, k2: float, modulation: Modulation) -> float:
    """surprise_modulation on a finite delta and checked gains."""
    if delta >= 0.0:
        return math.exp(k1 * delta)
    if modulation is Modulation.HYPERBOLIC:
        return 1.0 / (1.0 + k2 * -delta)
    return math.exp(k2 * delta)


def utility(u0: float, delta: float, params: ModelParams) -> float:
    """Surprise-corrected utility U0 * g(delta).

    The multiplicative form presumes non-negative U0; callers evaluating
    options with negative or mixed payoffs should normalize outcomes
    first (see the scaling module) so the correction acts the right way
    around.  u0 = 0 is legal and pins U at 0 regardless of delta.
    """
    if not math.isfinite(u0):
        raise ValidationError(f"expected value must be finite, got {u0!r}")
    return u0 * surprise_modulation(delta, params)
