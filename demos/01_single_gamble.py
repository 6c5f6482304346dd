"""A single-stage gamble: risk seeking at long odds, risk aversion at short.

The gamble pays 1 with probability p, else 0.  Its only resolution stage
compares each payoff against the expected value p, so the surprise is
p*(1-p)**alpha - k*(1-p)*p**alpha: positive while p is small (the rare
win dwarfs the routine small loss), negative once p grows.  The utility
p*g(surprise) therefore crosses the expected value once, from above.
"""

from anticipated_surprise import ModelParams, build_binary_gamble, evaluate

params = ModelParams(k=3.0, alpha=1.6, k1=2.0, k2=2.0)

ps = [0.05 + i * 0.05 for i in range(19)]
print(f"{'p':>5} {'E':>7} {'surprise':>9} {'utility':>8}  stance")
for p in ps:
    result = evaluate(build_binary_gamble(1.0, 0.0, p), params)
    stance = "seeking" if result.utility > p else "averse"
    print(
        f"{p:5.2f} {result.expected_value:7.3f} {result.total_surprise:9.4f} "
        f"{result.utility:8.4f}  {stance}"
    )

# the crossing sits where the surprise changes sign
diffs = [
    evaluate(build_binary_gamble(1.0, 0.0, p), params).utility - p
    for p in (0.01 + i * 0.01 for i in range(99))
]
cross = next(i for i, d in enumerate(diffs) if d < 0)
print(f"\nutility crosses the expected value between p={cross / 100:.2f} and p={(cross + 1) / 100:.2f}")
