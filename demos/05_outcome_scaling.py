"""Outcome scaling: taming the utility for large or sign-mixed payoffs.

Two worked problems.  First, (-1, 0.5; 1, 0.5): the raw expected value
is 0, pinning the multiplicative utility at 0 whatever the surprise.
Mapping payoffs onto [0, 1], valuing, and mapping back yields -0.398,
the risk aversion one expects for a symmetric mixed gamble.

Second, the lottery (0, 1-p; 1/p, p) with unit expected value at every
p.  Unscaled, the kernel sees the enormous jackpot and the utility
explodes at small p; fully scaled it stays near 1; the in-between
normalization x' = p**(1/alpha) * x keeps a realistic 25-30% lift.
"""

from anticipated_surprise import (
    FixedScale,
    FullScaling,
    ModelParams,
    NoScaling,
    build_binary_gamble,
    evaluate_scaled,
)

params = ModelParams(k=3.0, alpha=1.6, k1=2.0, k2=2.0)

mixed = build_binary_gamble(1.0, -1.0, 0.5)
print("(-1, 0.5; 1, 0.5):")
print("  unscaled utility:", evaluate_scaled(mixed, params, NoScaling()))
print("  fully scaled:    ", round(evaluate_scaled(mixed, params, FullScaling()), 4))

print("\n(0, 1-p; 1/p, p), expected value 1 throughout:")
print(f"{'p':>6} {'unscaled':>12} {'full':>8} {'partial':>8}")
for p in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5):
    lottery = build_binary_gamble(1.0 / p, 0.0, p)
    none = evaluate_scaled(lottery, params, NoScaling())
    full = evaluate_scaled(lottery, params, FullScaling())
    partial = evaluate_scaled(lottery, params, FixedScale(p ** (-1.0 / params.alpha)))
    print(f"{p:6.2f} {none:12.4g} {full:8.4f} {partial:8.4f}")

print("\nunscaled values at small p say: sell everything, buy tickets")
