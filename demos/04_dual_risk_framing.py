"""Dual risk: the same option, two mental framings, opposite predictions.

An option that pays 1 after n hazardous steps AND only with probability
p_pr can be resolved two ways: keep the success gamble as its own stage
(separate), or fold it into a fatter per-step hazard (incorporated).
Both price the option at p_pr * q**n, but the surprise differs, and so
does D = U_pt / (U_p * U_t) -- whether the explicit risk softens (D > 1)
or sharpens (D < 1) the discount attributed to the delay.  Choice-style
elicitation is thought to go with the separate framing, pricing-style
with the incorporated one, which is how both empirical directions can
coexist.
"""

from anticipated_surprise import DualRiskSpec, DualScheme, ModelParams, discount_ratio

params = ModelParams(k=3.0, alpha=1.6, k1=2.0, k2=10.0)
p, n = 0.03, 4

print(f"{'p_pr':>5} {'separate after':>14} {'separate before':>15} {'incorporated':>13}")
for p_pr in (0.3 + i * 0.1 for i in range(7)):
    ds = [
        discount_ratio(DualRiskSpec(p, n, p_pr, scheme, k2_prob=2.0), params)
        for scheme in (
            DualScheme.SEPARATE_AFTER,
            DualScheme.SEPARATE_BEFORE,
            DualScheme.INCORPORATED,
        )
    ]
    print(f"{p_pr:5.1f} {ds[0]:14.4f} {ds[1]:15.4f} {ds[2]:13.4f}")

print("\nseparate framings keep D above 1 throughout; the incorporated one")
print("stays below 1 until p_pr ~ 0.78, where the inflated hazard gets mild")
