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

A spine, whose internal nodes all lie on its path of last branches, is
evaluated from flat float lists (``ValidationReport.spine``), and
``stack`` fills those for a spine given as a leaf and its levels
without building a node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import inf, isfinite, nan
from typing import Callable, Iterable, Sequence, Union

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
    """Outcome of ``validate``'s walk; ``stack`` fills the same report for
    the spine of its levels, without a walk and without a node.

    Renormalized paths had probability sums off from 1 by at most
    PROBABILITY_SUM_TOL and are divided through by their exact sum during
    evaluation; they are listed as a walk taking each last branch first
    meets them.  The walk also yields what evaluation needs: the payoff
    range (of equal payoffs, the last met in branch order), the root's
    expected value and, in ``conditional_values``, the conditional expected
    value of every internal node keyed by ``id()`` (valid while the tree it
    was computed from is alive).  A report of ``stack``'s has no node to
    key, so its ``conditional_values`` is empty.

    If the walk never pushed, the tree is a spine (every built-in scheme's
    is): its internal nodes all lie on the path of last branches, and
    ``spine`` holds that path as four flat lists that name no node:
    ``values``, the path nodes' conditional values, root first, then the
    payoff at the bottom's last branch; ``sides``, for each path node, the
    (p / total, payoff) pairs of its branches before the last, total being
    its branch probabilities summed from 0.0 in order; ``survivals``, its
    last probability over that total; and ``weights``, its surprise
    weight.  ``_result`` and a ``Spine`` evaluate it in ``_stages``' float
    loop.  For any other tree it is None: evaluation walks it depth first
    in ``_stage_surprises``.
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
    spine: tuple[list[float], list[tuple[tuple[float, float], ...]], list[float],
                 list[float]] | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class EvaluationResult:
    """Everything the model extracts from one tree."""

    expected_value: float
    stage_surprises: tuple[float, ...]
    total_surprise: float
    utility: float


def validate(node: ResolutionNode) -> ValidationReport:
    """Check payoff finiteness, branch probabilities, and weights, and
    compute every internal node's conditional expected value.

    One explicit-stack walk, depth first in branch order, so any depth
    works.  A node's loop checks its branches in order and, at one not the
    last that leads on, pushes a resume point and walks that subtree first;
    then come its sum check, its first non-finite payoff or non-node child
    and the step down its last branch.  A node's value is sum(p * child
    value) / sum(p) over its branches in order.  Raises ValidationError
    naming the first fault met, or the deepest node whose value overflows.
    """
    nodes, totals, sums, survivals, weights = [], [], [], [], []  # of the internal nodes met
    leads: dict[int, tuple[int, int]] = {}  # node k not met right after its parent: (parent, index)
    renormalized: list[int] = []
    lo, hi = inf, -inf
    count, deepest, lift = 1, -1, 0  # node k's depth is k + lift
    stack, nd = [], node  # the resume points; the node to enter next
    if not isinstance(node, Internal):  # check it as the one branch of a node k = -1
        stack, nd = [((Branch(1.0, node),), -1, -1, 0.0, 0.0, 0)], None
    while True:
        if nd is not None:
            k = len(nodes)
            nodes.append(nd)
            branches, weight = nd.branches, nd.surprise_weight
            if not branches:
                raise ValidationError(f"{_where(nodes, leads, k)}: internal node needs at least one branch")
            if not isfinite(weight) or weight < 0.0:
                raise ValidationError(f"{_where(nodes, leads, k)}: surprise_weight must be finite "
                                      f"and >= 0, got {weight!r}")
            count += len(branches)
            todo, i, fresh = branches, -1, True
            total = num = 0.0
        elif stack:
            branches, k, i, total, num, lift = stack.pop()
            todo, fresh = branches[i + 1:], False
        else:
            break
        for br in todo:
            i += 1
            p = br.probability
            if not 0.0 < p <= 1.0:  # also rejects nan and inf
                raise ValidationError(
                    f"{_where(nodes, leads, k, i)}: probability must lie in (0, 1], got {p!r}")
            total += p
            child = br.child
            cls = type(child)  # exact types first; a subclass takes isinstance
            if cls is Terminal or cls is not Internal and isinstance(child, Terminal):
                payoff = child.payoff
                if payoff <= lo:
                    lo = payoff
                if payoff >= hi:
                    hi = payoff
                num += p * payoff  # a non-finite payoff leaves it non-finite
            elif cls is not Internal and not isinstance(child, Internal):
                num = nan  # not a node: named with the payoffs, below
            elif i < len(branches) - 1:  # leads on off the last branch
                if fresh:
                    totals.append(0.0)
                    sums.append(None)
                stack.append((branches, k, i, total, num, lift))
                leads[len(nodes)] = (k, i)
                lift += k + 1 - len(nodes)
                nd = child
                break
        else:
            if abs(total - 1.0) > PROBABILITY_SUM_TOL:
                raise ValidationError(f"{_where(nodes, leads, k)}: branch probabilities sum to "
                                      f"{total!r}, expected 1 within {PROBABILITY_SUM_TOL}")
            if total != 1.0:
                renormalized.append(k)
            if not isfinite(num):  # a non-finite payoff or a non-node, or an overflow
                for j, bad in enumerate(br.child for br in branches):
                    if not isinstance(bad, (Terminal, Internal)):
                        raise ValidationError(f"{_where(nodes, leads, k, j)}: not a resolution node: {bad!r}")
                    if isinstance(bad, Terminal) and not isfinite(bad.payoff):
                        raise ValidationError(
                            f"{_where(nodes, leads, k, j)}: payoff must be finite, got {bad.payoff!r}")
            nd = None
            if cls is Internal or cls is not Terminal and isinstance(child, Internal):
                if not fresh:  # not met right after node k
                    leads[len(nodes)] = (k, i)
                    lift += k + 1 - len(nodes)
                nd = child  # the step down the last branch
            elif k + lift > deepest:
                deepest = k + lift
            if fresh:
                totals.append(total)
                sums.append(num)
                survivals.append(p / total)
                weights.append(weight)
    table: dict[int, float] = {}  # back up, value running up each run of steps
    n = len(nodes)
    value, below = nodes[-1].branches[-1].child.payoff if n else node.payoff, None
    for k in range(n - 1, -1, -1):
        nd, num = nodes[k], sums[k]
        if num is None:  # it pushed: the full sum in branch order
            num = total = 0.0
            for br in nd.branches:
                child, p = br.child, br.probability
                num += p * (child.payoff if isinstance(child, Terminal) else table[id(child)])
                total += p
        else:  # its terminals' sum, and its last branch's value if it stepped to node k + 1
            total, br = totals[k], nd.branches[-1]
            if br.child is below:
                num += br.probability * value
        value = table[id(nd)] = num / total
        below = nd
    if not isfinite(value):  # a sum of finite terms overflowed: name the deepest node it reached
        depths = [0] * n
        for k in range(1, n):
            depths[k] = depths[leads[k][0] if k in leads else k - 1] + 1
        k = max((k for k in range(n) if not isfinite(table[id(nodes[k])])), key=depths.__getitem__)
        raise ValidationError(f"{_where(nodes, leads, k)}: expected value overflows the float range")
    paths = renormalized and [_where(nodes, leads, k) for k in sorted(  # as the last branch first
        renormalized, key=lambda k: [-i for i in _trail(nodes, leads, k)])]
    spine = None
    if not leads:  # a spine: every branch but a path node's last ends in a terminal
        values = [table[id(nd)] for nd in nodes]
        values.append(nodes[-1].branches[-1].child.payoff if n else node.payoff)
        sides = [tuple((br.probability / total, br.child.payoff) for br in nd.branches[:-1])
                 for nd, total in zip(nodes, totals)]
        spine = values, sides, survivals, weights
    return ValidationReport(count, deepest + 1, paths, lo, hi, value, table, spine)


def _trail(nodes: list[Internal], leads: dict[int, tuple[int, int]], k: int) -> list[int]:
    """The branch indices from the root down to node k of validate's walk."""
    trail: list[int] = []
    while k > 0:
        k, i = leads[k] if k in leads else (k - 1, len(nodes[k - 1].branches) - 1)
        trail.append(i)
    return trail[::-1]


def _where(nodes: list[Internal], leads: dict[int, tuple[int, int]], k: int, *indices: int) -> str:
    """Path of node k of validate's walk, then through indices; k = -1 is above the root."""
    trail = _trail(nodes, leads, k) + list(indices) if k >= 0 else []
    return "root" + "".join(f".branches[{i}]" for i in trail)


#: One level of a spine (see ``pile``): (side, q, weight, reps), reps
#: nodes of surprise weight ``weight``, each with two branches: side, which
#: ends in a terminal, then one of probability q to the node below.
Level = tuple[Branch, float, float, int]


def pile(leaf: Terminal, levels: Iterable[Level]) -> ResolutionNode:
    """The spine of levels stacked on leaf, the bottom level first."""
    node: ResolutionNode = leaf
    for side, q, weight, reps in levels:
        for _ in range(reps):
            node = Internal((side, Branch(q, node)), weight)
    return node


def stack(leaf: Terminal, levels: Sequence[Level]) -> ValidationReport:
    """``validate(pile(leaf, levels))``'s report, filled bottom-up in one
    float loop that builds no node, so its ``conditional_values`` is empty.

    A level is checked once, however often it repeats, and its reps share
    one tuple of side pairs.  Each float is validate's, made in validate's
    order: a node's value is 0.0 + p * x, p and x being its side's
    probability and payoff, then + q * the value below, and its total,
    0.0 + p + q, is exactly 1.0, so p and q are its side's pair and its
    survival; the payoff range keeps, of equal payoffs, the last met
    top-down, down to the sign of a zero.  Where validate could refuse the
    tree or renormalize a node, or a number is not a float, the report is
    ``validate(pile(leaf, levels))`` itself, so every error is validate's.
    """
    value = lo = hi = leaf.payoff
    fine = type(value) is float
    count, values, sides, survivals, weights = 1, [value], [], [], []
    append = values.append
    for side, q, weight, reps in levels:
        p, x = side.probability, side.child.payoff
        # validate's checks, and a total 0.0 + p + q of exactly 1.0: dividing by it changes no value
        fine = (fine and type(p) is type(q) is type(x) is type(weight) is float
                and 0.0 < p <= 1.0 and 0.0 < q <= 1.0 and 0.0 + p + q == 1.0
                and 0.0 <= weight < inf)
        if not fine:
            break
        if x < lo:  # validate meets x before the payoffs below, so an equal one wins
            lo = x
        if x > hi:
            hi = x
        s = 0.0 + p * x
        for _ in range(reps):
            value = s + q * value
            append(value)
        count += 2 * reps
        sides += [((p, x),)] * reps
        survivals += [q] * reps
        weights += [weight] * reps
    if not (fine and isfinite(value)):  # a payoff that is not finite leaves the root's value so
        return validate(pile(leaf, levels))
    for column in (values, sides, survivals, weights):
        column.reverse()
    return ValidationReport(count, len(survivals), [], lo, hi, value, {},
                            (values, sides, survivals, weights))


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
    """The surprise pass over a validated tree; ``values`` is its walk's
    table of conditional expected values.  Each jump is divided by
    ``scale``, which evaluates the tree with payoffs divided by it.

    One explicit-stack loop over the internal nodes, depth first in branch
    order: stage t adds reach * weight * jump of each node at depth t to
    0.0 in the order met, which at one depth is the level order, so each
    stage is the level-by-level sum, bit for bit.  A kernel error is the
    first met in this order."""
    out: list[float] = []
    stack = [] if isinstance(node, Terminal) else [(node, 1.0, 0)]
    while stack:
        nd, reach, depth = stack.pop()
        # the node's total: its branch probabilities summed from 0.0 in order
        total = 0.0
        for br in nd.branches:
            total += br.probability
        if depth == len(out):
            out.append(0.0)
        out[depth] += reach * nd.surprise_weight * _jump(nd, total, values, params, scale)
        for br in reversed(nd.branches):
            if not isinstance(br.child, Terminal):
                stack.append((br.child, reach * (br.probability / total), depth + 1))
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


def _result(node: ResolutionNode, report: ValidationReport, params: ModelParams,
            scale: float = 1.0, offset: float = 0.0) -> EvaluationResult:
    """Evaluation of the tree node from its own report, with every payoff
    x read as (x - offset) / scale.  Conditional values map the same way,
    so the offset cancels in each jump and the jumps are divided by scale;
    the identity (1, 0) leaves every float as it is.  A spine-shaped tree
    is evaluated down its path in ``_stages``' float loop, any other depth
    first in ``_stage_surprises``: the same floats in the same order."""
    u0 = (report.expected_value - offset) / scale
    if report.spine is None:
        surprises = _stage_surprises(node, report.conditional_values, params, scale)
        return _finished(surprises, _sum(surprises), u0, params)
    _, _, survivals, weights = report.spine
    return _stages(_spine_jumps(report.spine, 0, len(survivals), params, scale), weights,
                   survivals, 0, u0, params)


def _spine_jumps(spine: tuple, start: int, stop: int, params: ModelParams,
                 scale: float) -> list[float]:
    """The kernel jumps of path nodes start to stop - 1 of a report's flat
    spine, top-down, each ``_jump``'s floats in its order: node k's is the
    sum from 0.0, over its side pairs (q, x) and then its survival q and
    the value below, values[k + 1], of q * surprise_kernel((x - values[k])
    / scale)."""
    values, sides, survivals, _ = spine
    jumps = []
    for k in range(start, stop):
        here, jump = values[k], 0.0
        for q, x in sides[k]:
            jump += q * surprise_kernel((x - here) / scale, params)
        jumps.append(jump + survivals[k] * surprise_kernel((values[k + 1] - here) / scale, params))
    return jumps


def _stages(jumps: list[float], weights: list[float], survivals: list[float], i: int,
            u0: float, params: ModelParams) -> EvaluationResult:
    """The result of the subtree at node i of a spine's path, u0 its (mapped) expected value:
    jumps, the path nodes' kernel jumps, turn in place into ``_stage_surprises``' stages,
    0.0 + reach * w * jump with reach from 1.0 times each survival; those above i are dropped."""
    reach, total = 1.0, 0.0  # total: _sum's, in the same loop
    for k in range(i, len(jumps)):
        jumps[k] = stage = 0.0 + reach * weights[k] * jumps[k]
        total += stage
        reach *= survivals[k]
    del jumps[:i]
    return _finished(jumps, total, u0, params)


def _finished(surprises: list[float], total: float, u0: float,
              params: ModelParams) -> EvaluationResult:
    """The result of a tree with these stage surprises, their _sum and (mapped) u0."""
    if not isfinite(total):  # a loss's -k*|z|**alpha overflows silently
        raise OverflowError(f"total surprise is {total!r}")
    return EvaluationResult(u0, tuple(surprises), total, utility(u0, total, params))


class Spine:
    """A validated spine-shaped tree's flat spine (see
    ``ValidationReport.spine``), evaluated at any node of its path of last
    branches under one params and one scale.

    Each path node's kernel jump is computed once, top-down as the rows
    first reach it, so a kernel error is the one that the row, evaluated
    alone, meets.  A path node's expected value is ``values[i]``.
    """

    def __init__(self, report: ValidationReport, params: ModelParams, scale: float) -> None:
        self.spine = report.spine
        self.values, _, self.survivals, self.weights = report.spine
        self.params, self.scale = params, scale
        self.jumps = [0.0] * len(self.survivals)
        self._computed = len(self.survivals)  # jumps[_computed:] hold their values

    def result(self, i: int, offset: float) -> EvaluationResult:
        """``_result`` of the subtree at path node i, payoffs read as
        (x - offset) / scale."""
        jumps = self.jumps
        if i < self._computed:
            jumps[i:self._computed] = _spine_jumps(self.spine, i, self._computed, self.params,
                                                   self.scale)
            self._computed = i
        return _stages(jumps.copy(), self.weights, self.survivals, i,
                       (self.values[i] - offset) / self.scale, self.params)


def _sum(values: Iterable[float]) -> float:
    """Left-to-right float sum from 0.0, the same bits on every interpreter
    (the built-in ``sum`` of floats compensates from Python 3.12 on)."""
    total = 0.0
    for value in values:
        total += value
    return total


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
        payoff = _number(obj["payoff"], "payoff", path)
        if len(obj) != 1:
            raise _unknown_keys(obj, ("payoff",), path)
        return Terminal(payoff)
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
        prob = _number(entry["p"], "'p'", where)
        if len(entry) != 2:
            raise _unknown_keys(entry, ("p", "node"), where)
        branches.append(Branch(prob, tree_from_dict(entry["node"], where)))
    return Internal(tuple(branches), _number(obj.get("weight", 1.0), "'weight'", path))


def _number(value: object, name: str, path: str) -> float:
    """value, a JSON number, as a float; name says what it is at path."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{path}: {name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int no float holds; too long, maybe, to repr
        raise ValidationError(f"{path}: {name} is an integer past the float range") from None


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
