"""Shared test helpers, standard library only (the bit scripts import
them without pytest).

``trajectory_stage_surprises`` is an independent oracle: it enumerates
whole root-to-leaf trajectories and averages the kernel over them, per
the definition, instead of grouping by node and level like the library
does.  Agreement between the two routes is what the tree tests check.
``walk_report`` is the oracle of ``tree.validate``'s report, and
``level_walk`` that of ``tree._stage_surprises``' stages.
"""

from __future__ import annotations

import random
from math import inf, isfinite

from anticipated_surprise import (Branch, Internal, ModelParams, Terminal, ValidationError,
                                  ValidationReport, surprise_kernel)
from anticipated_surprise.cli import SchemePoint
# _sum: left to right, so that a seed gives the same trees on every interpreter
from anticipated_surprise.tree import (PROBABILITY_SUM_TOL, ResolutionNode, _finished, _jump,
                                       _sum)

#: A point of each scheme whose trees nest in n, all but n fixed.
NESTING = {
    "hazard": SchemePoint("hazard", p=0.03),
    "timing": SchemePoint("timing", p=0.05, p_tr=0.3, k_tr=4.0),
    "dual-a-after": SchemePoint("dual-a-after", p=0.03, p_pr=0.6),
}


def level_walk(
    node: ResolutionNode, values: dict[int, float], params: ModelParams, scale: float = 1.0
) -> list[float]:
    """The level-order surprise pass that ``tree._stage_surprises`` ran
    before it walked depth first, verbatim: the oracle of its stages, bit
    for bit.  ``values`` is the tree's table of conditional expected values;
    each jump is divided by ``scale``."""
    out: list[float] = []
    level: list[tuple[ResolutionNode, float]] = [(node, 1.0)]
    while level:
        nxt: list[tuple[ResolutionNode, float]] = []
        stage_total = 0.0
        saw_internal = False
        for nd, reach in level:
            if isinstance(nd, Terminal):
                continue
            saw_internal = True
            # the node's total: its branch probabilities summed from 0.0 in order
            total = 0.0
            for br in nd.branches:
                total += br.probability
            for br in nd.branches:
                nxt.append((br.child, reach * (br.probability / total)))
            stage_total += reach * nd.surprise_weight * _jump(nd, total, values, params, scale)
        if saw_internal:
            out.append(stage_total)
        level = nxt
    return out


def level_walk_result(node, report, params: ModelParams, scale: float = 1.0,
                      offset: float = 0.0):
    """``tree._result`` by the level walk, whatever the tree's shape: the
    reference that the flat loop over a spine's path and the depth-first
    pass over any other tree must match bit for bit."""
    surprises = level_walk(node, report.conditional_values, params, scale)
    return _finished(surprises, _sum(surprises), (report.expected_value - offset) / scale, params)


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


def _path(stack: list, *indices: int) -> str:
    """Path of the node reached from the walk's open ancestors (the
    post-visit entries on ``stack``) through the given branch indices."""
    trail = [i for _, _, i, post in stack if post] + list(indices)
    return "root" + "".join(f".branches[{i}]" for i in trail if i >= 0)


def walk_report(node) -> ValidationReport:
    """The explicit-stack post-order walk that ``tree.validate`` ran for
    any tree off its spine lane, verbatim: the oracle of validate's report
    on any valid tree and of its error on a tree with one fault.  It pops
    a node's last branch first, so it meets terminals in the reverse of
    validate's order and keeps the first of equal payoffs (``<``, ``>``)
    where validate keeps the last."""
    report = ValidationReport()
    values = report.conditional_values
    count = max_depth = 0
    lo, hi = inf, -inf
    # (node, depth, branch index in its parent, post-visit?)
    stack: list = [(node, 0, -1, False)]
    push, pop = stack.append, stack.pop
    while stack:
        nd, depth, index, post = pop()
        if post:
            num = total = 0.0
            for br in nd.branches:
                child = br.child
                p = br.probability
                num += p * (child.payoff if isinstance(child, Terminal) else values[id(child)])
                total += p
            values[id(nd)] = num / total
            continue
        count += 1
        if depth > max_depth:
            max_depth = depth
        if isinstance(nd, Terminal):
            payoff = nd.payoff
            if not isfinite(payoff):
                raise ValidationError(f"{_path(stack, index)}: payoff must be finite, got {payoff!r}")
            if payoff < lo:
                lo = payoff
            if payoff > hi:
                hi = payoff
            continue
        if not isinstance(nd, Internal):
            raise ValidationError(f"{_path(stack, index)}: not a resolution node: {nd!r}")
        branches = nd.branches
        if not branches:
            raise ValidationError(f"{_path(stack, index)}: internal node needs at least one branch")
        weight = nd.surprise_weight
        if not isfinite(weight) or weight < 0.0:
            raise ValidationError(
                f"{_path(stack, index)}: surprise_weight must be finite and >= 0, got {weight!r}"
            )
        # the node's post-visit entry first, so it is popped after its children
        push((nd, depth, index, True))
        depth += 1
        total = 0.0
        for i, br in enumerate(branches):
            p = br.probability
            if not 0.0 < p <= 1.0:  # also rejects nan and inf
                raise ValidationError(f"{_path(stack, i)}: probability must lie in (0, 1], got {p!r}")
            total += p
            push((br.child, depth, i, False))
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise ValidationError(
                f"{_path(stack)}: branch probabilities sum to {total!r}, expected 1 "
                f"within {PROBABILITY_SUM_TOL}"
            )
        if total != 1.0:
            report.renormalized.append(_path(stack))
    report.node_count = count
    report.max_depth = max_depth
    report.payoff_min, report.payoff_max = lo, hi
    report.expected_value = node.payoff if isinstance(node, Terminal) else values[id(node)]
    return report


def first_fault(node, path: str = "root"):
    """The message of the first fault ``tree.validate`` meets in node, or
    None for a valid tree.  A node's own checks come first: its branches,
    its weight, then each branch's probability in order, except that a
    branch other than the last that leads to an internal node has its
    subtree checked when the loop reaches it; then its probability sum;
    then its terminal and non-node children in branch order; then the
    subtree down its last branch."""
    if isinstance(node, Terminal):
        return None if isfinite(node.payoff) else f"{path}: payoff must be finite, got {node.payoff!r}"
    if not isinstance(node, Internal):
        return f"{path}: not a resolution node: {node!r}"
    if not node.branches:
        return f"{path}: internal node needs at least one branch"
    if not isfinite(node.surprise_weight) or node.surprise_weight < 0.0:
        return f"{path}: surprise_weight must be finite and >= 0, got {node.surprise_weight!r}"
    total, later = 0.0, []
    for i, br in enumerate(node.branches):
        where = f"{path}.branches[{i}]"
        if not 0.0 < br.probability <= 1.0:
            return f"{where}: probability must lie in (0, 1], got {br.probability!r}"
        total += br.probability
        if isinstance(br.child, Internal) and i < len(node.branches) - 1:
            fault = first_fault(br.child, where)
            if fault is not None:
                return fault
        else:
            later.append((br.child, where))
    if abs(total - 1.0) > PROBABILITY_SUM_TOL:
        return (f"{path}: branch probabilities sum to {total!r}, expected 1 "
                f"within {PROBABILITY_SUM_TOL}")
    return next(filter(None, (first_fault(child, where) for child, where in later)), None)
