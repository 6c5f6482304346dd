"""Timing risk: uncertainty about WHEN, not whether, a reward arrives.

The lottery delivers at n-1 steps with probability p_tr, else at n+1.
Expected value favors it over a fixed reward at the mean delay (hazard
stops once the early reward lands), yet people avoid such lotteries.
Here the reveal of the delivery time is its own resolution stage, a
binary gamble between continuation values, and weighting that stage
(k_tr > 1 for its salience) makes the lottery worth less than the fixed
option: the ratio drops below 1.  Ignore the reveal (k_tr = 0) and the
expected-value logic returns.
"""

from anticipated_surprise import ModelParams, TimingRiskSpec, timing_components, timing_ratio

params = ModelParams(k=3.0, alpha=1.6, k1=2.0, k2=10.0)
p = 0.03

print("ratio of lottery utility to fixed-delay utility (p_tr = 0.5):")
print(f"{'n':>3} {'reveal weighted':>15} {'reveal ignored':>14}")
for n in range(2, 13):
    w = timing_ratio(TimingRiskSpec(p, n, 0.5, k_tr=10.0), params)
    z = timing_ratio(TimingRiskSpec(p, n, 0.5, k_tr=0.0), params)
    print(f"{n:3d} {w:15.4f} {z:14.4f}")

print("\nthe aversion mirrors single-gamble risk preference in p_tr (n = 4):")
for p_tr in (0.05 + i * 0.15 for i in range(7)):
    spec = TimingRiskSpec(p, 4, p_tr, k_tr=10.0)
    comps = timing_components(spec, params)
    ratio = timing_ratio(spec, params)
    print(
        f"  p_tr={p_tr:4.2f}  reveal surprise={comps.delta_tr0:+.5f}  ratio={ratio:.4f}"
        f"  e_tr-e_fix={comps.e_tr - comps.e_fix:+.5f}"
    )
print("small p_tr: the rare early windfall makes the reveal a thrill, not a threat")
