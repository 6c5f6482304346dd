"""Analytic surprise and utility formulas for the standard schemes.

Everything here has a brute-force counterpart: build the matching tree
with ``builders`` and run ``tree.evaluate``.  The test suite keeps the
two routes within 1e-9 of each other over a parameter grid, and where a
published formula admitted more than one reading, the tree decided.

Arguments are checked once, when a spec or ``ModelParams`` is built; a
call computes on those checked floats and builds no spec, params or
other object of its own.

Conventions: q = 1 - p, ap = alpha - 1, and the per-stage constant
C = k*p - p**alpha * q**(1-alpha), positive unless p is large.  The
chain head at a hazard p holds q, ap, q**ap, q**(1-alpha) and C; a chain
tail turns it into the chain's total surprise at one length n.  A call
computes each piece it shares once: one head per hazard feeds every
tail and stage at that hazard (``timing_ratio``'s chain ahead of the
reveal, its late stages and its fixed option at the mean delay), and
``discount_ratio`` computes the chain sum at (p, n), q**n and the
probability-only surprise once for U_pt, U_t and U_p.  Nothing is kept
between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import (ModelParams, ValidationError, _modulation, check_nonnegative, check_probability,
                   check_whole, is_whole, utility)


@dataclass(frozen=True)
class HazardSpec:
    """Survival chain: a unit reward after n steps, each step losing it
    with probability p.  Non-integer n is allowed (the geometric-sum
    closed form extends continuously); trees require integer n.
    """

    p: float
    n: float

    def __post_init__(self) -> None:
        check_probability("p", self.p)
        check_nonnegative("n", self.n)


@dataclass(frozen=True)
class TimingRiskSpec:
    """Hazard chain whose reward arrives early (n-1 steps, probability
    p_tr) or late (n+1 steps), with the timing revealed after n-1
    survived steps.  k_tr weighs the surprise of that reveal.
    """

    p: float
    n: int
    p_tr: float
    k_tr: float = 1.0

    def __post_init__(self) -> None:
        check_probability("p", self.p)
        check_whole("n", self.n, 2)
        check_probability("p_tr", self.p_tr)
        check_nonnegative("k_tr", self.k_tr)


class DualScheme(Enum):
    """How an explicit success probability is resolved against the delay."""

    SEPARATE_AFTER = "separate-after"    # own stage, after the delay risk
    SEPARATE_BEFORE = "separate-before"  # own stage, before the delay risk
    INCORPORATED = "incorporated"        # folded into a larger per-step hazard


@dataclass(frozen=True)
class DualRiskSpec:
    """Delayed reward (hazard p over n steps) that additionally pays off
    only with probability p_pr.  k2_prob is the negative-surprise gain
    used when valuing the probability-only comparison option.
    """

    p: float
    n: int
    p_pr: float
    scheme: DualScheme = DualScheme.SEPARATE_AFTER
    k2_prob: float = 2.0

    def __post_init__(self) -> None:
        check_probability("p", self.p)
        check_whole("n", self.n, 1)
        check_probability("p_pr", self.p_pr)
        check_nonnegative("k2_prob", self.k2_prob)
        if self.scheme is DualScheme.INCORPORATED:
            if not 0.0 < self.inflated_hazard() < 1.0:
                raise ValidationError(
                    f"inflated hazard {self.inflated_hazard()!r} falls outside (0, 1)"
                )

    def inflated_hazard(self) -> float:
        """Per-step hazard p' = 1 - p_pr**(1/n) * (1-p) that folds the
        success probability into the chain: (1-p')**n = p_pr*(1-p)**n."""
        return 1.0 - self.p_pr ** (1.0 / self.n) * (1.0 - self.p)


def _chain_head(p: float, params: ModelParams) -> tuple[float, float, float, float, float]:
    """What every chain tail and stage at a checked hazard p shares:
    (q, ap, q**ap, q**(1-alpha), C)."""
    a = params.alpha
    q = 1.0 - p
    ap = a - 1.0
    q_ap = q**ap
    q_inv = q ** (1.0 - a)
    # C = k*p - p**alpha * q**(1-alpha); the whole of one stage's surprise
    # up to the survival-probability prefactors.
    return q, ap, q_ap, q_inv, params.k * p - p**a * q_inv


def _chain_tail(n: float, q: float, ap: float, q_ap: float, c: float) -> float:
    """hazard_total_surprise at length n from its chain head at p.

    The q**ap == 1 check sits here, with the division it guards, and not
    in the head: hazard_stage_surprise reads the head at every p."""
    if q_ap == 1.0:
        raise ValidationError("q**(alpha-1) == 1; hazard probability too small to resolve")
    return -c * q ** (n + ap) * (1.0 - q ** (n * ap)) / (1.0 - q_ap)


def _chain_sum(p: float, n: float, params: ModelParams) -> float:
    """hazard_total_surprise on a checked hazard p and length n."""
    q, ap, q_ap, _, c = _chain_head(p, params)
    return _chain_tail(n, q, ap, q_ap, c)


def hazard_stage_surprise(spec: HazardSpec, t: int, params: ModelParams) -> float:
    """Surprise contributed by step t of the chain, 1 <= t <= n.

    q**(t-1) is the probability of still being in the game at step t;
    -C * q**(alpha*(n-t+1)) is the kernel-weighted pair of jumps (survive
    vs lose) at that step.  Later steps are worse: the stake has grown.
    """
    if not (is_whole(t) and 1 <= t <= spec.n):
        raise ValidationError(f"stage must be an integer in [1, {spec.n}], got {t!r}")
    q, _, _, _, c = _chain_head(spec.p, params)
    return q ** (t - 1) * (-c * q ** (params.alpha * (spec.n - t + 1)))


def hazard_total_surprise(spec: HazardSpec, params: ModelParams) -> float:
    """Geometric-sum closed form of the chain's total surprise:

        -C * q**(n+ap) * (1 - q**(n*ap)) / (1 - q**ap),  ap = alpha - 1.

    Defined for real n >= 0, which is how fixed options at fractional
    delays are valued.
    """
    return _chain_sum(spec.p, spec.n, params)


def discount_factor(spec: HazardSpec, params: ModelParams) -> float:
    """Value of the delayed unit reward relative to an immediate one:
    q**n * g(total surprise).  Strictly decreasing in both n and p."""
    if spec.n == 0:
        return 1.0
    q, ap, q_ap, _, c = _chain_head(spec.p, params)
    return utility(q**spec.n, _chain_tail(spec.n, q, ap, q_ap, c), params)


def prob_only_surprise(p_pr: float, params: ModelParams) -> float:
    """Single-stage surprise of the gamble paying 1 with probability p_pr:

        p_pr*(1-p_pr)**alpha - k*(1-p_pr)*p_pr**alpha

    Positive for small p_pr (risk seeking), negative once p_pr grows;
    0 for the degenerate gambles p_pr = 0 and 1.
    """
    if not (math.isfinite(p_pr) and 0.0 <= p_pr <= 1.0):
        raise ValidationError(f"p_pr must lie in [0, 1], got {p_pr!r}")
    a = params.alpha
    return p_pr * (1.0 - p_pr) ** a - params.k * (1.0 - p_pr) * p_pr**a


@dataclass(frozen=True)
class TimingComponents:
    """Decomposition of the timing-risk surprise by stage group.

    delta_common: the n-1 hazard stages ahead of the timing reveal
    delta_tr0:    the reveal itself (unweighted; k_tr multiplies it)
    delta_late:   the two hazard stages after a late reveal
    delta_total:  delta_common + k_tr*delta_tr0 + delta_late
    e_tr:         expected value of the timing lottery
    e_fix:        expected value of the fixed option at the mean delay
    """

    delta_common: float
    delta_tr0: float
    delta_late: float
    delta_total: float
    e_tr: float
    e_fix: float


def mean_delay(spec: TimingRiskSpec) -> float:
    """Probability-weighted delay p_tr*(n-1) + (1-p_tr)*(n+1); it reads
    only spec's p_tr and n."""
    return spec.p_tr * (spec.n - 1) + (1.0 - spec.p_tr) * (spec.n + 1)


def timing_components(spec: TimingRiskSpec, params: ModelParams) -> TimingComponents:
    """Closed forms for every piece of the timing-risk scheme.

    The stages ahead of the reveal behave like a chain shortened to n-1
    steps whose conditional expected values all carry the factor
    m = p_tr + (1-p_tr)*q**2 (the reveal node's own expected value), so
    their surprise is the shortened geometric sum scaled by m**alpha.
    The reveal is a plain binary gamble between payoff-equivalents 1 and
    q**2, and the late branch adds two ordinary hazard stages.  Each
    piece equals the exhaustive tree evaluation of its stage group.
    """
    q, ap, q_ap, q_inv, c = _chain_head(spec.p, params)
    return TimingComponents(*_timing(spec, params, q, ap, q_ap, q_inv, c),
                            e_fix=q ** mean_delay(spec))


def _timing(spec: TimingRiskSpec, params: ModelParams, q: float, ap: float, q_ap: float,
            q_inv: float, c: float) -> tuple[float, float, float, float, float]:
    """TimingComponents' first five fields, delta_common to e_tr, from
    the chain head at p."""
    p, n, p_tr = spec.p, spec.n, spec.p_tr
    a = params.alpha
    # m = p_tr + (1-p_tr)*q**2 is the reveal node's expected value
    d_common = (p_tr + (1.0 - p_tr) * q * q) ** a * _chain_tail(n - 1, q, ap, q_ap, c)
    q_n1 = q ** (n - 1)
    d_tr0 = q_n1 * (1.0 - q * q) ** a * prob_only_surprise(p_tr, params)
    d_late = p * q ** (n + a) * (1.0 - p_tr) * (p**ap * (1.0 + q_inv) - params.k * (1.0 + q_ap))
    e_tr = p_tr * q_n1 + (1.0 - p_tr) * q ** (n + 1)
    return d_common, d_tr0, d_late, d_common + spec.k_tr * d_tr0 + d_late, e_tr


def timing_ratio(spec: TimingRiskSpec, params: ModelParams) -> float:
    """U_tr / U_fix: the timing lottery against a fixed reward at the
    mean delay.  Below 1 means the lottery is discounted harder, i.e.
    aversion to timing risk.  ValidationError if U_fix underflows to 0."""
    q, ap, q_ap, q_inv, c = _chain_head(spec.p, params)
    _, _, _, delta_total, e_tr = _timing(spec, params, q, ap, q_ap, q_inv, c)
    # the mean delay is >= 1, so the fixed option is a chain of n > 0
    delay = mean_delay(spec)
    u_fix = utility(q**delay, _chain_tail(delay, q, ap, q_ap, c), params)
    if u_fix == 0.0:
        raise ValidationError("timing ratio undefined: U_fix underflows to 0")
    return utility(e_tr, delta_total, params) / u_fix


def dual_surprise(spec: DualRiskSpec, params: ModelParams) -> float:
    """Total surprise of the dual-risk option under the given scheme.

    SEPARATE_AFTER: every chain jump is scaled by p_pr (so chain surprise
    by p_pr**alpha) and the final success gamble, reached with
    probability q**n, adds its single-stage surprise.

    SEPARATE_BEFORE: the success gamble comes first, over jumps of size
    scaled by q**n (surprise factor q**(n*alpha)); the chain is then an
    ordinary one reached with probability p_pr.  Note the q**(n*(alpha-1))
    rescaling relative to SEPARATE_AFTER's q**n factor: resolving first
    makes the later gamble's jumps full-sized but the earlier gamble's
    jumps small.  (An alternative reading with a q**(alpha-1) prior
    factor disagrees with exhaustive tree evaluation; the tree wins.)

    INCORPORATED: plain chain at the inflated hazard p'.
    """
    if spec.scheme is DualScheme.INCORPORATED:
        # DualRiskSpec checked that the inflated hazard lies in (0, 1)
        return _chain_sum(spec.inflated_hazard(), spec.n, params)
    return _separate_surprise(spec, params, _chain_sum(spec.p, spec.n, params),
                              (1.0 - spec.p) ** spec.n, prob_only_surprise(spec.p_pr, params))


def _separate_surprise(spec: DualRiskSpec, params: ModelParams, chain: float, q_n: float,
                       delta_p: float) -> float:
    """dual_surprise under a separate scheme, from the chain's total
    surprise at (p, n), q**n and prob_only_surprise(p_pr)."""
    if spec.scheme is DualScheme.SEPARATE_AFTER:
        return spec.p_pr**params.alpha * chain + q_n * delta_p
    return spec.p_pr * chain + (1.0 - spec.p) ** (spec.n * params.alpha) * delta_p


def discount_ratio(spec: DualRiskSpec, params: ModelParams) -> float:
    """D = U_pt / (U_p * U_t): does adding the success probability soften
    (D > 1) or sharpen (D < 1) the discount attributed to the delay?

    U_pt values the dual option (expected value p_pr * q**n), U_t the
    delay-only option, and U_p the probability-only gamble, the last with
    k2 replaced by the spec's k2_prob.  ValidationError if U_p * U_t is 0.
    """
    p, n, p_pr = spec.p, spec.n, spec.p_pr
    q_n = (1.0 - p) ** n
    if spec.scheme is DualScheme.INCORPORATED:
        # dual_surprise's chain at the inflated hazard; U_pt is valued
        # before U_t's chain is summed, so the first error stays the first
        u_pt = utility(p_pr * q_n, _chain_sum(spec.inflated_hazard(), n, params), params)
        chain = _chain_sum(p, n, params)
        delta_p = prob_only_surprise(p_pr, params)
    else:
        chain = _chain_sum(p, n, params)
        delta_p = prob_only_surprise(p_pr, params)
        u_pt = utility(p_pr * q_n, _separate_surprise(spec, params, chain, q_n, delta_p), params)
    u_t = utility(q_n, chain, params)
    # prob_only_surprise reads only k and alpha; g reads k2_prob for k2
    u_p = p_pr * _modulation(delta_p, params.k1, spec.k2_prob, params.modulation)
    if u_p * u_t == 0.0:
        raise ValidationError("discount ratio undefined: U_p * U_t underflows to 0")
    return u_pt / (u_p * u_t)
