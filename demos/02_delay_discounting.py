"""Delay as hazard: a chain of survival stages yields hyperbolic-like discounting.

A reward promised after n steps, each of which loses it with probability
p, is worth q**n in expectation.  Every survived step also revises the
conditional expected value, and the loss-weighted kernel turns that
stream of revisions into a negative surprise that deepens with n but
flattens out (the plateau sits near n=26 at p=0.03).  The combination
q**n * g(surprise) hugs 1/(1+0.88n) over a wide range while staying far
above exp(-0.3n) -- with a constant hazard rate, no time-varying
machinery involved.
"""

import math

from anticipated_surprise import HazardSpec, ModelParams, discount_factor, hazard_total_surprise

params = ModelParams(k=3.0, alpha=1.6, k1=2.0, k2=10.0)
p = 0.03

print(f"{'n':>3} {'|surprise|':>10} {'model':>8} {'hyperbolic':>10} {'exponential':>11}")
for n in range(1, 41, 3):
    mag = abs(hazard_total_surprise(HazardSpec(p, n), params))
    u = discount_factor(HazardSpec(p, n), params)
    print(
        f"{n:3d} {mag:10.4f} {u:8.4f} {1 / (1 + 0.88 * n):10.4f} "
        f"{math.exp(-0.3 * n):11.5f}"
    )

# decreasing impatience: adding a common delay softens the relative discount
u = {n: discount_factor(HazardSpec(p, n), params) for n in (1, 5, 11, 15)}
print("\nU(5)/U(1)  =", round(u[5] / u[1], 4), " (soon vs now)")
print("U(15)/U(11) =", round(u[15] / u[11], 4), " (same gap, 10 steps later)")
print("a chooser preferring the earlier reward now may flip once both are pushed out")
