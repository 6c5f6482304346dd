"""Hypothesis properties over the built-in schemes.

Every ``SCHEMES`` entry with a closed form must agree with exhaustive
evaluation of its tree, in total surprise and in utility, within 1e-9,
at points drawn from a domain the current closed forms hold on: p down
to 1e-8 and alpha - 1 down to 1e-3 (the geometric chain sum loses
digits below those).  Every ratio column a sweep prints must match its
closed-form ratio on the same domain, and an n-sweep must be its rows
evaluated one by one, bits and first error alike.  Over the whole valid
domain, each closed-form ratio must equal, bit for bit, the composition
of public closed forms that it stands for.  On spine-shaped and bushy
trees, valid or with one injected fault, ``validate`` must give the stack
walk's report or error (``conftest.walk_report``), and ``_result`` the
level walk's bits (``conftest.level_walk``).  Draws are derandomized, so
a run is repeatable.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from anticipated_surprise import (Branch, DualRiskSpec, DualScheme, HazardSpec, Internal,
                                  ModelParams, Modulation, NoScaling, Terminal, TimingRiskSpec,
                                  ValidationError, discount_factor, discount_ratio, dual_surprise,
                                  evaluate, mean_delay, prob_only_surprise, timing_components,
                                  timing_ratio, utility, validate)
from anticipated_surprise.cli import (SCHEMES, SchemePoint, evaluate_grid, evaluate_point,
                                      sweep_rows, whole)
from anticipated_surprise.scaling import parse_scaling_mode
from anticipated_surprise.tree import _result, _sum
from conftest import (DUAL_SCHEMES, NESTING, first_fault, level_walk_result, result_bits,
                      scheme_tree, walk_report)
from test_closed_form_bits import bits

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CLOSED = [name for name, entry in SCHEMES.items() if entry.closed is not None]


def log_uniform(lo: float, hi: float):
    """Floats in [lo, hi] whose logarithm is uniform."""
    return st.floats(math.log(lo), math.log(hi)).map(lambda x: min(max(math.exp(x), lo), hi))


#: Each point field's values; n is at least 2 for timing (see points).
FIELDS = {
    "p": log_uniform(1e-8, 0.5),
    "n": st.integers(1, 60),
    "p_tr": st.floats(0.05, 0.95),
    "k_tr": st.floats(0.0, 10.0),
    "p_pr": st.floats(0.05, 0.95),
}
PARAMS = st.builds(
    ModelParams,
    k=st.floats(1.0, 5.0, exclude_min=True),
    alpha=log_uniform(1e-3, 1.5).map(lambda ap: 1.0 + ap),
    k1=st.floats(0.0, 10.0),
    k2=st.floats(0.0, 10.0),
    modulation=st.sampled_from(Modulation),
)


def points(name: str):
    """Points of scheme name: a value of each field it reads."""
    fields = {f: FIELDS[f] for f in SCHEMES[name].fields}
    if name == "timing":
        fields["n"] = st.integers(2, 60)
    return st.builds(SchemePoint, st.just(name), **fields)


def test_closed_forms_are_declared():
    assert CLOSED == ["hazard", "timing", "dual-a-after", "dual-a-before", "dual-b"]
    assert SCHEMES["gamble"].closed is None


@pytest.mark.parametrize("name", CLOSED)
def test_tree_matches_scheme_closed_form(name):
    entry = SCHEMES[name]

    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(points(name), PARAMS)
    def check(point, params):
        tree = evaluate(scheme_tree(point), params)
        delta, utility = entry.closed(point, params)
        assert abs(delta - tree.total_surprise) <= 1e-9, (point, params, delta, tree)
        assert abs(utility - tree.utility) <= 1e-9, (point, params, utility, tree)

    check()


def closed_ratio(name: str, pt: SchemePoint, params: ModelParams, k2_prob: float) -> float:
    """The closed-form ratio that scheme name's sweeps print as their ratio column."""
    if name == "timing":
        return timing_ratio(TimingRiskSpec(pt.p, pt.n, pt.p_tr, pt.k_tr), params)
    return discount_ratio(DualRiskSpec(pt.p, pt.n, pt.p_pr, DUAL_SCHEMES[name], k2_prob), params)


@pytest.mark.parametrize("name", [name for name, e in SCHEMES.items() if e.column is not None])
def test_ratio_column_matches_closed_form_ratio(name):
    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(points(name), PARAMS, st.floats(0.0, 10.0))
    def check(point, params, k2_prob):
        _, [row] = sweep_rows("p", [point.p], point, params, NoScaling(), k2_prob)
        want = closed_ratio(name, point, params, k2_prob)
        # the benchmark's closed_form_gap
        assert abs(row[-1] - want) / max(1.0, abs(want)) <= 1e-9, (point, params, row, want)

    check()


# --- the closed-form ratios against their compositions ----------------------

#: Any probability in (0, 1), small ones often.
UNIT = st.one_of(log_uniform(1e-13, 1e-3), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
#: Any valid params, alpha - 1 down to 1e-12.
ANY_PARAMS = st.builds(
    ModelParams,
    k=st.floats(1.0, 10.0, exclude_min=True),
    alpha=log_uniform(1e-12, 4.0).map(lambda ap: 1.0 + ap),
    k1=st.floats(0.0, 20.0),
    k2=st.floats(0.0, 20.0),
    modulation=st.sampled_from(Modulation),
)


def test_discount_ratio_is_its_composition():
    @hypothesis.settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @hypothesis.given(UNIT, st.integers(1, 400), UNIT, st.sampled_from(DualScheme),
                      st.floats(0.0, 20.0), ANY_PARAMS)
    def check(p, n, p_pr, scheme, k2_prob, params):
        try:
            spec = DualRiskSpec(p, n, p_pr, scheme, k2_prob)
        except ValidationError:  # an inflated hazard outside (0, 1)
            hypothesis.reject()

        def composed():
            # U_pt / (U_p * U_t), U_p valued with k2 = k2_prob
            u_pt = utility(p_pr * (1.0 - p) ** n, dual_surprise(spec, params), params)
            p_params = replace(params, k2=spec.k2_prob)
            u_p = utility(p_pr, prob_only_surprise(p_pr, p_params), p_params)
            reference = u_p * discount_factor(HazardSpec(p, n), params)
            if reference == 0.0:
                raise ValidationError("discount ratio undefined: U_p * U_t underflows to 0")
            return u_pt / reference

        assert bits(lambda: discount_ratio(spec, params)) == bits(composed), (spec, params)

    check()


def test_timing_ratio_is_its_composition():
    @hypothesis.settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @hypothesis.given(UNIT, st.integers(2, 400), UNIT, st.floats(0.0, 20.0), ANY_PARAMS)
    def check(p, n, p_tr, k_tr, params):
        spec = TimingRiskSpec(p, n, p_tr, k_tr)

        def composed():
            # U_tr over the fixed reward at the mean delay
            c = timing_components(spec, params)
            fixed = discount_factor(HazardSpec(p, mean_delay(spec)), params)
            if fixed == 0.0:
                raise ValidationError("timing ratio undefined: U_fix underflows to 0")
            return utility(c.e_tr, c.delta_total, params) / fixed

        assert bits(lambda: timing_ratio(spec, params)) == bits(composed), (spec, params)

    check()


#: n values: whole ones, valid or below a scheme's smallest n, and bad ones.
N_VALUES = st.one_of(st.integers(0, 40).map(float),
                     st.sampled_from([2.5, math.nan, math.inf, -1.0]))


def rows_one_by_one(fixed, values, params, mode, k2_prob):
    """A sweep's rows, each value evaluated alone in list order, with one
    ratio memo; the first row's ValidationError message instead, if any."""
    ratio, memo, rows = SCHEMES[fixed.scheme].ratio, {}, []
    try:
        for value in values:
            point = replace(fixed, n=whole(value, "n grid values must be whole numbers"))
            row = [point.n, *evaluate_point(point, params, mode)]
            if ratio is not None:
                u = evaluate_point(point, params, NoScaling())[2]
                row.append(ratio(point, params, k2_prob, u, memo))
            rows.append(row)
    except ValidationError as exc:
        return str(exc)
    return rows


@pytest.mark.parametrize("mode", ["none", "scale:2", "full"])
@pytest.mark.parametrize("name", NESTING)
def test_n_sweep_is_its_rows_one_by_one(name, mode):
    fixed, params, scaling = NESTING[name], ModelParams(k2=10.0), parse_scaling_mode(mode)

    @hypothesis.settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @hypothesis.given(st.lists(N_VALUES, min_size=1, max_size=8))
    def check(values):
        want = rows_one_by_one(fixed, values, params, scaling, 2.0)
        try:
            got = sweep_rows("n", values, fixed, params, scaling, 2.0)[1]
        except ValidationError as exc:
            got = str(exc)
        assert got == want, values

    check()


# --- why acceptance criterion 5 is red -------------------------------------


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(st.floats(1e-2, 0.5), st.floats(1e-2, 2.0),
                  st.floats(1.0, 10.0, exclude_min=True))
def test_hazard_surprise_peaks_at_n_star(p, alpha_less_1, k):
    """Over n, |D| of a hazard chain peaks at n* = ln a / ((a - 1) (-ln(1 - p)))
    rounded down or up (1 at least), whatever k: |D| depends on n only
    through q**n - q**(n a), which peaks there.  n* < 1 / (-ln q) for every
    a > 1, 32.8 at p = 0.03, so |D| cannot rise all the way to n = 50."""
    alpha = 1.0 + alpha_less_1
    n_star = math.log(alpha) / ((alpha - 1.0) * -math.log(1.0 - p))
    grid = [float(n) for n in range(1, int(2 * n_star) + 4)]
    rows = evaluate_grid(SchemePoint("hazard", p=p), "n", grid, ModelParams(k=k, alpha=alpha),
                         NoScaling())
    mags = [abs(delta) for _, (_, delta, _) in rows]
    peak = mags.index(max(mags)) + 1
    assert peak in {max(1, math.floor(n_star)), max(1, math.ceil(n_star))}, (n_star, peak)


# --- the spine lane of tree.validate ---------------------------------------

#: Payoffs of both zero signs and of both signs.
PAYOFFS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0))
#: The faults a tree may carry; "bushy" puts a gamble in a non-last branch.
FAULTS = ("bushy", "probability", "weight", "payoff", "empty", "not-a-node", "sum")


@st.composite
def spine_trees(draw):
    """(tree, faults): a spine-shaped tree of depth 0 to 40 with 1 to 4
    branches a node, probability sums within 1e-12 of 1, and the faults of
    0 to 2 drawn from FAULTS that it carries, injected at drawn places down
    to the bottom node."""
    levels = []  # root first: [weight, [[p, child] ...]], the last child leading down
    for _ in range(draw(st.integers(0, 40))):
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4))
        probs = [x / _sum(raw) for x in raw]
        # off from 1 by at most 5e-13, staying inside (0, 1]
        probs[-1] = min(1.0, 1.0 - _sum(probs[:-1]) + draw(st.floats(-5e-13, 5e-13)))
        weight = draw(st.one_of(st.sampled_from([1.0, 0.0]), st.floats(0.0, 5.0)))
        levels.append([weight, [[p, Terminal(draw(PAYOFFS))] for p in probs]])
    bottom = Terminal(draw(PAYOFFS))
    faults = []
    for fault in [draw(st.sampled_from(FAULTS)) for _ in range(draw(st.integers(0, 2)))]:
        if fault == "payoff":
            bottom = Terminal(draw(st.sampled_from([math.inf, -math.inf, math.nan])))
            faults.append(fault)
        level = levels[draw(st.integers(0, len(levels) - 1))] if levels else [0.0, []]
        if fault == "payoff" or not level[1] or fault == "bushy" and len(level[1]) == 1:
            continue  # no branch to put it on
        faults.append(fault)
        branch = level[1][draw(st.integers(0, len(level[1]) - 1))]
        if fault == "probability":
            branch[0] = draw(st.sampled_from([0.0, -0.25, 1.5, math.nan, math.inf]))
        elif fault == "weight":
            level[0] = draw(st.sampled_from([math.nan, -1.0, -1e-300]))
        elif fault == "empty":
            level[1] = []
        elif fault == "not-a-node":
            branch[1] = draw(st.sampled_from([None, 1.0, "payoff", Branch(1.0, Terminal(0.0))]))
        elif fault == "sum":
            branch[0] = branch[0] * (1.0 - 1e-9) if branch[0] > 0.5 else branch[0] + 1e-9
        else:  # bushy: a gamble in a non-last branch
            level[1][draw(st.integers(0, len(level[1]) - 2))][1] = Internal(
                (Branch(0.5, Terminal(draw(PAYOFFS))), Branch(0.5, Terminal(draw(PAYOFFS)))))
    node = bottom
    for weight, branches in reversed(levels):
        built = [Branch(p, child) for p, child in branches]
        if built and isinstance(built[-1].child, Terminal):  # else a fault put a non-node there
            built[-1] = Branch(built[-1].probability, node)
        node = Internal(tuple(built), weight)
    return node, faults


def report_fields(report) -> tuple:
    """Every field of a ValidationReport, floats as hex (a zero's sign too)."""
    return (report.node_count, report.max_depth, report.renormalized,
            float.hex(report.payoff_min), float.hex(report.payoff_max),
            float.hex(report.expected_value),
            {key: float.hex(value) for key, value in report.conditional_values.items()})


def outcome(validate_fn, node):
    """validate_fn's report fields, or the message of its ValidationError."""
    try:
        return report_fields(validate_fn(node))
    except ValidationError as exc:
        return f"ValidationError: {exc}"


@hypothesis.settings(max_examples=400, derandomize=True, database=None, deadline=None)
@hypothesis.given(spine_trees(), st.sampled_from([(1.0, 0.0), (0.37, 0.25), (3.0, -1.0)]))
def test_spine_lane_gives_the_walks_report_or_error(case, transform):
    """validate gives the explicit-stack walk's report, field for field, or
    raises its message; with faults in two places it raises the first that
    first_fault names.  On a valid spine its path is the tree's path of
    last branches, and _result gives the level walk's bits from it."""
    tree, faults = case
    want = outcome(walk_report, tree)
    if len([f for f in faults if f != "bushy"]) > 1:
        want = f"ValidationError: {first_fault(tree)}"
    assert outcome(validate, tree) == want, faults
    if isinstance(want, str):
        return
    report = validate(tree)
    assert (report.spine is None) == ("bushy" in faults)
    if report.spine is None:
        return
    values, sides, survivals, weights = report.spine
    path, nd = [], tree
    while isinstance(nd, Internal):
        path.append(nd)
        nd = nd.branches[-1].child
    totals = [_sum(br.probability for br in x.branches) for x in path]
    table = walk_report(tree).conditional_values
    assert [float.hex(v) for v in values] == [float.hex(v) for v in (
        *(table[id(x)] for x in path), nd.payoff)]
    assert sides == [tuple((br.probability / t, br.child.payoff) for br in x.branches[:-1])
                     for x, t in zip(path, totals)]
    assert weights == [x.surprise_weight for x in path]
    assert survivals == [x.branches[-1].probability / t for x, t in zip(path, totals)]
    params, (scale, offset) = ModelParams(k2=10.0), transform
    got = _result(tree, report, params, scale, offset)
    assert result_bits(got) == result_bits(level_walk_result(tree, walk_report(tree), params, scale,
                                                             offset))


# --- any tree: bushy shapes, shared subtrees and node subclasses ----------


class SubTerminal(Terminal):
    """A terminal of another class: validate takes it as a Terminal."""


class SubInternal(Internal):
    """An internal node of another class: validate takes it as an Internal."""


#: Payoffs with ties and zeros of both signs.
TIED_PAYOFFS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), st.floats(-5.0, 5.0))
#: The faults a bushy tree may carry, one place each.
NODE_FAULTS = FAULTS[1:]


def _fault(draw, fault: str, nodes: list, shared) -> None:
    """Inject fault at a drawn place of the mutable tree nodes (lists
    [weight, [[p, child] ...], subclass?]), outside the shared subtree."""
    nodes = [nd for nd in nodes if nd is not shared and nd[1]]
    if not nodes:
        return
    level = nodes[draw(st.integers(0, len(nodes) - 1))]
    branch = level[1][draw(st.integers(0, len(level[1]) - 1))]
    if fault == "probability":
        branch[0] = draw(st.sampled_from([0.0, -0.25, 1.5, math.nan, math.inf]))
    elif fault == "weight":
        level[0] = draw(st.sampled_from([math.nan, -1.0, -1e-300, math.inf]))
    elif fault == "payoff":
        branch[1] = Terminal(draw(st.sampled_from([math.inf, -math.inf, math.nan])))
    elif fault == "empty":
        level[1] = []
    elif fault == "not-a-node":
        branch[1] = draw(st.sampled_from([None, 1.0, "payoff", Branch(1.0, Terminal(0.0))]))
    else:  # sum
        branch[0] = branch[0] * (1.0 - 1e-9) if branch[0] > 0.5 else branch[0] + 1e-9


@st.composite
def bushy_trees(draw, min_faults: int = 0, max_faults: int = 1):
    """(tree, faults): a tree of depth up to 8 with 1 to 4 branches a node,
    any of which may lead on; payoffs with ties and both zero signs;
    probability sums off from 1 by up to 5e-13 at some nodes; weights 0, 1
    and others; one subtree shared by two branches, one internal node and
    some terminals of a subclass, where the shape allows; and min_faults
    to max_faults faults drawn from NODE_FAULTS, each at a drawn place
    outside the shared subtree."""
    nodes = []  # the internal nodes, pre-order: [weight, [[p, child] ...], subclass?]
    budget = [draw(st.integers(0, 40))]  # internal nodes still to grow

    def grow(depth: int):
        if depth == 7 or budget[0] <= 0 or draw(st.integers(0, 3)) == 0:
            return (SubTerminal if draw(st.integers(0, 9)) == 0 else Terminal)(draw(TIED_PAYOFFS))
        budget[0] -= 1
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4))
        probs = [x / _sum(raw) for x in raw]
        off = draw(st.one_of(st.just(0.0), st.floats(-5e-13, 5e-13)))
        probs[-1] = min(1.0, 1.0 - _sum(probs[:-1]) + off)
        weight = draw(st.one_of(st.sampled_from([1.0, 0.0]), st.floats(0.0, 5.0)))
        level = [weight, [], False]
        nodes.append(level)
        level[1] = [[p, grow(depth + 1)] for p in probs]
        return level

    root = grow(0)
    shared = None
    gambles = [nd for nd in nodes if all(isinstance(c, Terminal) for _, c in nd[1])]
    if gambles and len(nodes) > 1:
        # another node's branch leads to a gamble too; the gamble has no node
        # below it, so no cycle can form
        shared = gambles[draw(st.integers(0, len(gambles) - 1))]
        others = [nd for nd in nodes if nd is not shared]
        level = others[draw(st.integers(0, len(others) - 1))]
        level[1][draw(st.integers(0, len(level[1]) - 1))][1] = shared
    if nodes:
        nodes[draw(st.integers(0, len(nodes) - 1))][2] = True
    faults = [draw(st.sampled_from(NODE_FAULTS))
              for _ in range(draw(st.integers(min_faults, max_faults)))]
    for fault in faults:
        _fault(draw, fault, nodes, shared)
    built: dict[int, object] = {}

    def build(item):
        if not isinstance(item, list):
            return item
        if id(item) not in built:
            weight, branches, sub = item
            cls = SubInternal if sub else Internal
            built[id(item)] = cls(tuple(Branch(p, build(c)) for p, c in branches), weight)
        return built[id(item)]

    return build(root), faults


@hypothesis.settings(max_examples=500, derandomize=True, database=None, deadline=None)
@hypothesis.given(bushy_trees())
def test_validate_gives_the_walks_report_or_error_on_any_tree(case):
    """On a valid tree of any shape, or one with a single fault anywhere
    (inside a subtree off the last branch too), validate gives the stack
    walk's report, field for field with floats as hex, or its message;
    first_fault names that message too.  On a valid tree, _result gives
    the level walk's bits."""
    tree, faults = case
    want = outcome(walk_report, tree)
    assert outcome(validate, tree) == want, faults
    assert isinstance(want, tuple) == (first_fault(tree) is None), faults
    if isinstance(want, str):
        assert want == f"ValidationError: {first_fault(tree)}", faults
        return
    report = validate(tree)
    for params, scale, offset in [(ModelParams(), 1.0, 0.0), (ModelParams(k=5.0, alpha=2.2), 0.37, 0.25)]:
        got = _result(tree, report, params, scale, offset)
        assert result_bits(got) == result_bits(level_walk_result(tree, report, params, scale, offset))


@hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
@hypothesis.given(bushy_trees(2, 3))
def test_validate_raises_the_first_fault_met(case):
    """With faults in two or three places, validate raises the first one
    met depth first in branch order, as first_fault names it."""
    tree, faults = case
    want = first_fault(tree)
    if want is None:  # the faults fell on no place
        assert outcome(validate, tree) == outcome(walk_report, tree), faults
    else:
        assert outcome(validate, tree) == f"ValidationError: {want}", faults
