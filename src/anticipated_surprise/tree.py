"""Outcome-resolution trees and their exact, exhaustive evaluation.

A tree encodes how an option's outcome is mentally resolved stage by
stage: internal nodes are resolution events with weighted branches,
terminals are final payoffs.  Evaluation walks every path, so for each
stage t the surprise is the exact expectation of the kernel applied to
the revision of conditional expected value at that stage.  This is the
ground truth the analytic formulas in ``closed_form`` are checked
against.

Trees are immutable after construction and evaluation is pure, so any
number of threads may evaluate the same tree concurrently.  Immutability
also lets a tree share equal parts, as the builders share one loss
branch along a hazard chain.  A shared node is visited, and counted in
``ValidationReport.node_count``, once per path through it; its
conditional expected value depends only on its subtree, so one entry
keyed by its ``id()`` serves every path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import inf, isfinite
from typing import Callable, Iterable, Union

from .core import ModelParams, ValidationError, surprise_kernel, utility

#: Branch probabilities of an internal node must sum to 1 within this.
PROBABILITY_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Terminal:
    """Leaf node: resolution has finished with this payoff."""

    payoff: float


@dataclass(frozen=True)
class Branch:
    probability: float
    child: "ResolutionNode"


@dataclass(frozen=True)
class Internal:
    """One resolution stage.

    ``surprise_weight`` multiplies only the surprise contributed by this
    node's own branching (not its descendants').  The default 1 leaves
    the plain model; the timing-risk scheme uses it to emphasize the
    stage at which the delivery time is revealed.
    """

    branches: tuple[Branch, ...]
    surprise_weight: float = 1.0


ResolutionNode = Union[Terminal, Internal]


@dataclass
class ValidationReport:
    """Outcome of the validation walk.

    Renormalized paths had probability sums off from 1 by at most
    PROBABILITY_SUM_TOL and are divided through by their exact sum during
    evaluation.  The walk also yields what evaluation needs: the payoff
    range, the root's expected value and, in ``conditional_values``, the
    conditional expected value of every internal node keyed by ``id()``
    (valid while the tree it was computed from is alive).

    If the tree is spine-shaped, its internal nodes all on the path of last
    branches (each other branch ends in a terminal), ``spine`` holds that
    path as five lists: its internal nodes, root first; each one's total,
    its branch probabilities summed from 0.0 in branch order; its survival,
    the last branch's probability over that total; its surprise weight;
    and the conditional expected value of each node, the bottom terminal's
    payoff last (one entry more).  ``_result`` and a ``Spine`` evaluate the
    tree from them in one float loop.  For any other tree it is None, and
    evaluation walks the tree level by level.
    """

    node_count: int = 0
    max_depth: int = 0
    renormalized: list[str] = field(default_factory=list)
    payoff_min: float = inf
    payoff_max: float = -inf
    expected_value: float = 0.0
    conditional_values: dict[int, float] = field(
        default_factory=dict, repr=False, compare=False
    )
    spine: tuple[list[Internal], list[float], list[float], list[float], list[float]] | None = (
        field(default=None, repr=False, compare=False))


@dataclass(frozen=True)
class EvaluationResult:
    """Everything the model extracts from one tree."""

    expected_value: float
    stage_surprises: tuple[float, ...]
    total_surprise: float
    utility: float


def _path(stack: list, *indices: int) -> str:
    """Path of the node reached from the walk's open ancestors (the
    post-visit entries on ``stack``) through the given branch indices."""
    trail = [i for _, _, i, post in stack if post] + list(indices)
    return "root" + "".join(f".branches[{i}]" for i in trail if i >= 0)


def validate(node: ResolutionNode) -> ValidationReport:
    """Check payoff finiteness, branch probabilities, and weights, and
    compute every internal node's conditional expected value.

    One explicit-stack post-order walk, so any depth works.  A node's
    value is sum(p * child value) / sum(p) over its branches in order.
    Raises ValidationError naming the path of the offending node.

    A spine-shaped tree takes a flat lane instead: one loop down the last
    branches and one back up give the walk's report, float for float, and
    its path (``ValidationReport.spine``).  At its first fault, or at a
    non-last branch that does not end in a terminal, the lane gives up and
    the walk runs from the root, so every error is the walk's.
    """
    report = _spine_lane(node)
    return _walk(node) if report is None else report


def _spine_lane(node: ResolutionNode) -> ValidationReport | None:
    """validate's report of a valid spine-shaped tree, with its path;
    None for any other tree.

    One loop down the last branches makes the walk's checks of each node
    on the path and its terminals, and sums each node's terminal branches;
    one loop back up finishes each node's value with its last branch.  The
    products and sums are the walk's, in its order.  The walk visits the
    terminals in the reverse of the order met going down, so the payoff
    range takes the last of equal payoffs met here (``<=``, ``>=``) where
    the walk keeps the first (``<``, ``>``), and a zero keeps the walk's
    sign.  Any type but exactly Terminal or Internal goes to the walk.
    """
    nodes: list[Internal] = []
    totals: list[float] = []
    survivals: list[float] = []
    weights: list[float] = []
    sums: list[float] = []  # over each node's terminal branches
    renormalized: list[int] = []  # depths of the nodes whose sum is not 1.0
    count = 1  # the bottom terminal; each node adds itself and its other branches
    lo, hi = inf, -inf
    nd = node
    while type(nd) is Internal:
        branches = nd.branches
        weight = nd.surprise_weight
        if not branches or not isfinite(weight) or weight < 0.0:
            return None
        total = num = 0.0
        inner = 0  # branches whose child is not a terminal
        for br in branches:
            p = br.probability
            if not 0.0 < p <= 1.0:  # also rejects nan and inf
                return None
            total += p
            child = br.child
            if type(child) is Terminal:
                payoff = child.payoff
                if not isfinite(payoff):
                    return None
                if payoff <= lo:
                    lo = payoff
                if payoff >= hi:
                    hi = payoff
                num += p * payoff
            else:
                inner += 1
        last = branches[-1]
        if type(last.child) is not Terminal:
            inner -= 1  # the one branch that may lead on
        if inner or abs(total - 1.0) > PROBABILITY_SUM_TOL:
            return None
        if total != 1.0:
            renormalized.append(len(nodes))
        count += len(branches)
        nodes.append(nd)
        totals.append(total)
        survivals.append(last.probability / total)
        weights.append(weight)
        sums.append(num)
        nd = last.child
    if type(nd) is not Terminal:
        return None
    value = nd.payoff
    table: dict[int, float] = {}
    values = [value] * (len(nodes) + 1)
    if not nodes:  # a bare payoff
        if not isfinite(value):
            return None
        lo = hi = value
    else:
        # the bottom node's sum already holds its last branch, a terminal
        value = values[-2] = table[id(nodes[-1])] = sums[-1] / totals[-1]
        for k in range(len(nodes) - 2, -1, -1):
            nd = nodes[k]
            value = (sums[k] + nd.branches[-1].probability * value) / totals[k]
            values[k] = table[id(nd)] = value
    paths = ["root" + "".join(f".branches[{len(nodes[j].branches) - 1}]" for j in range(k))
             for k in renormalized] if renormalized else []
    return ValidationReport(count, len(nodes), paths, lo, hi, value, table,
                            (nodes, totals, survivals, weights, values))


def _walk(node: ResolutionNode) -> ValidationReport:
    """validate's explicit-stack post-order walk, for any tree."""
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


def expected_value(node: ResolutionNode) -> float:
    """Probability-weighted payoff over all resolution paths."""
    return validate(node).expected_value


def stage_surprises(node: ResolutionNode, params: ModelParams) -> list[float]:
    """Exact per-stage surprise, indexed by resolution stage (depth).

    Stage t collects, over every internal node v sitting t-1 levels below
    the root, the probability of reaching v times v's weighted expected
    kernel value of the jump in conditional expected value across its
    branches.  Grouping by node is equivalent to averaging over whole
    trajectories because each node stands for the class of trajectories
    sharing its history.
    """
    return _stage_surprises(node, validate(node).conditional_values, params)


def _stage_surprises(
    node: ResolutionNode, values: dict[int, float], params: ModelParams, scale: float = 1.0
) -> list[float]:
    """The level-order surprise pass over a validated tree; ``values`` is
    its walk's table of conditional expected values.  Each jump is divided
    by ``scale``, which evaluates the tree with payoffs divided by it."""
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


def _jump(node: Internal, total: float, values: dict[int, float], params: ModelParams,
          scale: float) -> float:
    """node's kernel jump: over its branches in order, the sum from 0.0 of
    q * surprise_kernel((child value - node value) / scale), q being the
    branch's probability over ``total``, the sum from 0.0 of node's branch
    probabilities in branch order.  It depends only on the node, the
    params and the scale."""
    e_here = values[id(node)]
    jump = 0.0
    for br in node.branches:
        child = br.child
        value = child.payoff if isinstance(child, Terminal) else values[id(child)]
        jump += br.probability / total * surprise_kernel((value - e_here) / scale, params)
    return jump


def evaluate(node: ResolutionNode, params: ModelParams) -> EvaluationResult:
    """Expected value, per-stage surprises, their sum, and the utility."""
    return _result(node, validate(node), params)


def _result(
    node: ResolutionNode,
    report: ValidationReport,
    params: ModelParams,
    scale: float = 1.0,
    offset: float = 0.0,
) -> EvaluationResult:
    """Evaluation of the tree node from its own report, with every payoff
    x read as (x - offset) / scale.  Conditional values map the same way,
    so the offset cancels in each jump and the jumps are divided by scale;
    the identity (1, 0) leaves every float as it is.  A spine-shaped tree
    is evaluated down its path in ``Spine.result``'s float loop, any other
    level by level: the same floats in the same order."""
    table = report.conditional_values
    if report.spine is None:
        surprises = _stage_surprises(node, table, params, scale)
    else:
        nodes, totals, survivals, weights, _ = report.spine
        surprises, reach = [], 1.0
        for k, nd in enumerate(nodes):
            surprises.append(0.0 + reach * weights[k] * _jump(nd, totals[k], table, params, scale))
            reach *= survivals[k]
    return _finished(surprises, (report.expected_value - offset) / scale, params)


def _finished(surprises: list[float], u0: float, params: ModelParams) -> EvaluationResult:
    """The result of a tree with these stage surprises and (mapped) expected value u0."""
    total = _sum(surprises)
    if not isfinite(total):  # a loss's -k*|z|**alpha overflows silently
        raise OverflowError(f"total surprise is {total!r}")
    return EvaluationResult(u0, tuple(surprises), total, utility(u0, total, params))


class Spine:
    """A validated spine-shaped tree (see ``ValidationReport.spine``),
    evaluated at any node of its path of last branches under one params
    and one scale.

    Path node i + k is then the one internal node on level k of the
    subtree at path node i, so that subtree's stage surprises are, for
    j = i, i+1, ..., ``0.0 + (reach * weights[j]) * jumps[j]``, reach
    starting at 1.0 and multiplied by ``survivals[j]`` after each level:
    the floats of the level walk, in its order.  Each jump is computed
    once, top-down as the rows first reach it, so a kernel error is the
    one that the row, evaluated alone, meets.
    """

    def __init__(self, report: ValidationReport, params: ModelParams, scale: float) -> None:
        self.nodes, self.totals, self.survivals, self.weights, self.values = report.spine
        self.table, self.params, self.scale = report.conditional_values, params, scale
        self.jumps = [0.0] * len(self.nodes)
        self._computed = len(self.nodes)  # jumps[_computed:] hold their values

    def result(self, i: int, offset: float) -> EvaluationResult:
        """``_result`` of the subtree at path node i, payoffs read as
        (x - offset) / scale."""
        jumps, weights, survivals = self.jumps, self.weights, self.survivals
        if i < self._computed:
            for k in range(i, self._computed):
                jumps[k] = _jump(self.nodes[k], self.totals[k], self.table, self.params, self.scale)
            self._computed = i
        surprises, reach = [], 1.0
        for k in range(i, len(jumps)):
            surprises.append(0.0 + reach * weights[k] * jumps[k])
            reach *= survivals[k]
        return _finished(surprises, (self.values[i] - offset) / self.scale, self.params)


def _sum(values: Iterable[float]) -> float:
    """Left-to-right float sum from 0.0, the same bits on every interpreter
    (the built-in ``sum`` of floats compensates from Python 3.12 on)."""
    total = 0.0
    for value in values:
        total += value
    return total


def collapse_deterministic(node: ResolutionNode) -> ResolutionNode:
    """Drop internal nodes with a single (probability-1) branch.

    Such nodes revise the conditional expected value by zero, so the
    kernel gives them zero surprise and removal leaves every evaluation
    result unchanged.
    """
    validate(node)
    return _fold(node, lambda leaf: leaf, _collapsed)


def _collapsed(node: Internal, children: list) -> ResolutionNode:
    return children[0] if len(children) == 1 else _rebuilt(node, children)


def _rebuilt(node: Internal, children: list) -> Internal:
    """node with its branches' children replaced by children, in branch order."""
    branches = tuple(Branch(br.probability, c) for br, c in zip(node.branches, children))
    return Internal(branches, node.surprise_weight)


def _fold(node: ResolutionNode, leaf: Callable, internal: Callable):
    """Fold a tree bottom-up without recursion: ``leaf(terminal)`` for a
    terminal, ``internal(node, results of its children in branch order)``
    for an internal node.  A node reached by several paths is folded once
    per path, so each occurrence gets its own result."""
    done: list = []
    stack: list = [(node, False)]
    while stack:
        nd, post = stack.pop()
        if isinstance(nd, Terminal):
            done.append(leaf(nd))
        elif post:
            first = len(done) - len(nd.branches)
            children = done[first:]
            del done[first:]
            done.append(internal(nd, children))
        else:
            stack.append((nd, True))
            stack.extend((br.child, False) for br in reversed(nd.branches))
    return done[0]


# ---------------------------------------------------------------------------
# File format: {"payoff": x} | {"branches": [{"p": p, "node": ...}, ...],
#               "weight": w}   (weight optional, default 1; no other keys)
# ---------------------------------------------------------------------------


def tree_from_dict(obj: object, path: str = "root") -> ResolutionNode:
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected an object, got {type(obj).__name__}")
    if "payoff" in obj:
        if "branches" in obj:
            raise ValidationError(f"{path}: node cannot have both payoff and branches")
        payoff = obj["payoff"]
        if not isinstance(payoff, (int, float)) or isinstance(payoff, bool):
            raise ValidationError(f"{path}: payoff must be a number, got {payoff!r}")
        if len(obj) != 1:
            raise _unknown_keys(obj, ("payoff",), path)
        try:
            return Terminal(float(payoff))
        except OverflowError:  # an int no float holds; too long, maybe, to repr
            raise ValidationError(f"{path}: payoff is an integer past the float range") from None
    if "branches" not in obj:
        raise ValidationError(f"{path}: node needs either 'payoff' or 'branches'")
    raw = obj["branches"]
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{path}: 'branches' must be a non-empty array")
    if len(obj) != 1 + ("weight" in obj):
        raise _unknown_keys(obj, ("branches", "weight"), path)
    branches = []
    for i, entry in enumerate(raw):
        where = f"{path}.branches[{i}]"
        if not isinstance(entry, dict) or "p" not in entry or "node" not in entry:
            raise ValidationError(f"{where}: expected an object with 'p' and 'node'")
        prob = entry["p"]
        if not isinstance(prob, (int, float)) or isinstance(prob, bool):
            raise ValidationError(f"{where}: 'p' must be a number, got {prob!r}")
        if len(entry) != 2:
            raise _unknown_keys(entry, ("p", "node"), where)
        try:
            prob = float(prob)
        except OverflowError:
            raise ValidationError(f"{where}: 'p' is an integer past the float range") from None
        branches.append(Branch(prob, tree_from_dict(entry["node"], where)))
    weight = obj.get("weight", 1.0)
    if not isinstance(weight, (int, float)) or isinstance(weight, bool):
        raise ValidationError(f"{path}: 'weight' must be a number, got {weight!r}")
    try:
        return Internal(tuple(branches), float(weight))
    except OverflowError:
        raise ValidationError(f"{path}: 'weight' is an integer past the float range") from None


def _unknown_keys(obj: dict, allowed: tuple[str, ...], path: str) -> ValidationError:
    extra = ", ".join(repr(k) for k in obj if k not in allowed)
    return ValidationError(f"{path}: unknown key {extra}; allowed: {', '.join(allowed)}")


def tree_to_dict(node: ResolutionNode) -> dict:
    return _fold(node, lambda leaf: {"payoff": leaf.payoff}, _node_dict)


def _node_dict(node: Internal, children: list) -> dict:
    out: dict = {"branches": [{"p": br.probability, "node": c}
                              for br, c in zip(node.branches, children)]}
    if node.surprise_weight != 1.0:
        out["weight"] = node.surprise_weight
    return out


def load_tree(path: str) -> ResolutionNode:
    """Read a tree-specification file and validate it."""
    with open(path, encoding="utf-8") as fh:
        try:
            # an integer reads as the float it rounds to (inf past the range,
            # as 1e400 does), not as an int that no float holds
            node = tree_from_dict(json.load(fh, parse_int=float))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text: {exc.reason}") from None
        except RecursionError:
            # both the JSON parser and tree_from_dict recurse per level
            raise ValidationError(f"{path}: tree nested too deep to parse") from None
    validate(node)
    return node
