"""Open-ended scenarios: procrastination and a negotiation.

``build_scenario`` chains a step event into a tree, one stage a step.  In
procrastination the event is finishing the task: finishing sooner pays
more, and still being unfinished after the last step pays the missed
deadline.  In a negotiation the event is a breakdown, whose loss grows
round by round, and outlasting every round concludes the agreement.

Each tree is valued with its payoffs mapped onto [0, 1] and the utility
mapped back (full scaling), beside its expected value.  Both fall below
their expected values: the losses anticipated along the way, weighed k
times a gain of equal size, make the total surprise negative.
"""

from anticipated_surprise import (
    FullScaling,
    ModelParams,
    ScenarioSpec,
    build_scenario,
    evaluate_scaled,
    expected_value,
)

params = ModelParams(k=3.0, alpha=1.6, k1=2.0, k2=2.0)

scenarios = {
    "procrastination": ScenarioSpec(
        step_probabilities=[0.2, 0.25, 0.3, 0.4],  # finishing at this step
        step_payoffs=[1.0, 0.8, 0.6, 0.4],  # sooner is better
        final_payoff=-1.0,  # the missed deadline
    ),
    "negotiation": ScenarioSpec(
        step_probabilities=[0.1, 0.1, 0.15, 0.2],  # a breakdown in this round
        step_payoffs=[-0.2, -0.4, -0.6, -0.8],  # later breakdowns cost more
        final_payoff=1.0,  # the agreement
    ),
}

print(f"{'scenario':<16} {'expected value':>14} {'full scaling':>12}")
for name, spec in scenarios.items():
    tree = build_scenario(spec)
    utility = evaluate_scaled(tree, params, FullScaling())
    print(f"{name:<16} {expected_value(tree):14.4f} {utility:12.4f}")
