"""Shared test helpers.

``trajectory_stage_surprises`` is an independent oracle: it enumerates
whole root-to-leaf trajectories and averages the kernel over them, per
the definition, instead of grouping by node and level like the library
does.  Agreement between the two routes is what the tree tests check.
"""

from __future__ import annotations

import random

from anticipated_surprise import Branch, Internal, ModelParams, Terminal, surprise_kernel
from anticipated_surprise.cli import SchemePoint
# _sum: left to right, so that a seed gives the same trees on every interpreter
from anticipated_surprise.tree import _finished, _stage_surprises, _sum

#: A point of each scheme whose trees nest in n, all but n fixed.
NESTING = {
    "hazard": SchemePoint("hazard", p=0.03),
    "timing": SchemePoint("timing", p=0.05, p_tr=0.3, k_tr=4.0),
    "dual-a-after": SchemePoint("dual-a-after", p=0.03, p_pr=0.6),
}


def level_walk_result(node, report, params: ModelParams, scale: float = 1.0,
                      offset: float = 0.0):
    """``tree._result`` by the level walk, whatever the tree's shape: the
    reference that the flat loop over a spine's path must match bit for bit."""
    surprises = _stage_surprises(node, report.conditional_values, params, scale)
    return _finished(surprises, (report.expected_value - offset) / scale, params)


def result_bits(result) -> list[str]:
    """An EvaluationResult's floats as hex, stage surprises last."""
    return [float.hex(x) for x in (result.expected_value, result.total_surprise,
                                   result.utility, *result.stage_surprises)]


def _paths(node, prob=1.0, trail=()):
    """All (path probability, branch-index tuple, payoff) triples."""
    if isinstance(node, Terminal):
        yield prob, trail, node.payoff
        return
    for i, br in enumerate(node.branches):
        yield from _paths(br.child, prob * br.probability, trail + (i,))


def _node_at(root, prefix):
    nd = root
    for idx in prefix:
        nd = nd.branches[idx].child
    return nd


def _prefix_prob(root, prefix):
    nd = root
    prob = 1.0
    for idx in prefix:
        prob *= nd.branches[idx].probability
        nd = nd.branches[idx].child
    return prob


def _cond_exp(all_paths, prefix):
    num = den = 0.0
    for prob, trail, payoff in all_paths:
        if trail[: len(prefix)] == prefix:
            num += prob * payoff
            den += prob
    return num / den


def trajectory_stage_surprises(root, params: ModelParams) -> list[float]:
    """Stage surprises by direct trajectory averaging."""
    all_paths = list(_paths(root))
    max_len = max(len(trail) for _, trail, _ in all_paths)
    out = []
    for t in range(1, max_len + 1):
        seen = set()
        total = 0.0
        for _, trail, _ in all_paths:
            if len(trail) < t or trail[:t] in seen:
                continue
            prefix = trail[:t]
            seen.add(prefix)
            z = _cond_exp(all_paths, prefix) - _cond_exp(all_paths, prefix[:-1])
            weight = _node_at(root, prefix[:-1]).surprise_weight
            total += _prefix_prob(root, prefix) * weight * surprise_kernel(z, params)
        out.append(total)
    return out


def random_tree(rng: random.Random, max_depth: int = 4, payoff_range=(-5.0, 5.0)) -> object:
    """Random valid tree, mixed payoff signs, branch factor 2-3."""
    lo, hi = payoff_range
    if max_depth == 0 or rng.random() < 0.3:
        return Terminal(rng.uniform(lo, hi))
    n_branches = rng.randint(2, 3)
    raw = [rng.uniform(0.05, 1.0) for _ in range(n_branches)]
    total = _sum(raw)
    probs = [w / total for w in raw]
    # nudge so the probabilities sum to 1.0 exactly in floating point
    probs[-1] = 1.0 - _sum(probs[:-1])
    weight = rng.choice([1.0, 1.0, 1.0, rng.uniform(0.0, 3.0)])
    return Internal(
        tuple(
            Branch(p, random_tree(rng, max_depth - 1, payoff_range)) for p in probs
        ),
        surprise_weight=weight,
    )
