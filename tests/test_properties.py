"""Hypothesis properties over the built-in schemes.

Every ``SCHEMES`` entry with a closed form must agree with exhaustive
evaluation of its tree, in total surprise and in utility, within 1e-9,
at points drawn from a domain the current closed forms hold on: p down
to 1e-8 and alpha - 1 down to 1e-3 (the geometric chain sum loses
digits below those).  Every ratio column a sweep prints must match its
closed-form ratio on the same domain, and an n-sweep must be its rows
evaluated one by one, bits and first error alike.  Draws are
derandomized, so a run is repeatable.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from anticipated_surprise import (DualRiskSpec, DualScheme, ModelParams, Modulation, NoScaling,
                                  TimingRiskSpec, ValidationError, discount_ratio, evaluate,
                                  timing_ratio)
from anticipated_surprise.cli import SCHEMES, SchemePoint, evaluate_point, sweep_rows, whole
from anticipated_surprise.scaling import parse_scaling_mode
from conftest import NESTING

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
        tree = evaluate(entry.build(point), params)
        delta, utility = entry.closed(point, params)
        assert abs(delta - tree.total_surprise) <= 1e-9, (point, params, delta, tree)
        assert abs(utility - tree.utility) <= 1e-9, (point, params, utility, tree)

    check()


DUAL_SCHEMES = {"dual-a-after": DualScheme.SEPARATE_AFTER,
                "dual-a-before": DualScheme.SEPARATE_BEFORE, "dual-b": DualScheme.INCORPORATED}


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
