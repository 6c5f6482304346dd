"""Independent evaluator for tree-file inputs, used to check `eval` output.

It works on the JSON dict form the benchmark writes, walks it with
explicit stacks (so any depth works), and follows the model's
definitions directly: conditional expected values bottom-up, then per
resolution level the reach-weighted kernel of each expectation jump,
then the surprise correction g and the affine scaling inverse.  It
shares no code with the package; the summation order matches the
package's level-by-level order so that agreement is to rounding.
"""

from __future__ import annotations

import math


def _flatten(root: dict) -> tuple[list, list]:
    """Pre-order node list; children[i] is [(p, child index), ...] or None."""
    nodes = [root]
    children: list = [None]
    stack = [0]
    while stack:
        i = stack.pop()
        node = nodes[i]
        if "payoff" in node:
            continue
        kids = []
        for br in node["branches"]:
            nodes.append(br["node"])
            children.append(None)
            kids.append((br["p"], len(nodes) - 1))
        children[i] = kids
        stack.extend(j for _, j in reversed(kids))
    return nodes, children


def _expected_values(nodes: list, children: list, payoff) -> list[float]:
    ev = [0.0] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        kids = children[i]
        if kids is None:
            ev[i] = payoff(nodes[i]["payoff"])
        else:
            total = sum(p for p, _ in kids)
            ev[i] = sum(p * ev[j] for p, j in kids) / total
    return ev


def _kernel(z: float, k: float, alpha: float) -> float:
    return z**alpha if z >= 0.0 else -k * (-z) ** alpha


def _modulation(delta: float, k1: float, k2: float, modulation: str) -> float:
    if delta >= 0.0:
        return math.exp(k1 * delta)
    if modulation == "hyperbolic":
        return 1.0 / (1.0 + k2 * -delta)
    return math.exp(k2 * delta)


def evaluate_tree_dict(
    root: dict, k: float, alpha: float, k1: float, k2: float, modulation: str, scaling: str
) -> tuple[float, float, float]:
    """(raw expected value, total surprise of the scaled tree, utility mapped back).

    ``scaling`` is the command-line form: none | full | partial:<gamma>.
    """
    nodes, children = _flatten(root)
    raw_ev = _expected_values(nodes, children, float)

    scale, offset = 1.0, 0.0
    if scaling != "none":
        payoffs = [nodes[i]["payoff"] for i in range(len(nodes)) if children[i] is None]
        lo, hi = float(min(payoffs)), float(max(payoffs))
        if hi != lo:
            gamma = 1.0 if scaling == "full" else float(scaling.split(":", 1)[1])
            scale, offset = (hi - lo) ** gamma, lo
    if scale == 1.0 and offset == 0.0:
        ev = raw_ev
    else:
        ev = _expected_values(nodes, children, lambda x: (x - offset) / scale)

    total_surprise = 0.0
    level = [(0, 1.0)]
    while level:
        nxt = []
        stage = 0.0
        saw_internal = False
        for i, reach in level:
            kids = children[i]
            if kids is None:
                continue
            saw_internal = True
            total = sum(p for p, _ in kids)
            jump = sum((p / total) * _kernel(ev[j] - ev[i], k, alpha) for p, j in kids)
            stage += reach * nodes[i].get("weight", 1.0) * jump
            nxt.extend((j, reach * (p / total)) for p, j in kids)
        if saw_internal:
            total_surprise += stage
        level = nxt

    scaled_utility = ev[0] * _modulation(total_surprise, k1, k2, modulation)
    return raw_ev[0], total_surprise, scale * scaled_utility + offset
