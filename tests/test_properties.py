"""Hypothesis properties over the built-in schemes.

Every ``SCHEMES`` entry with a closed form must agree with exhaustive
evaluation of its tree, in total surprise and in utility, within 1e-9,
at points drawn from a domain the current closed forms hold on: p down
to 1e-8 and alpha - 1 down to 1e-3 (the geometric chain sum loses
digits below those).  Draws are derandomized, so a run is repeatable.
"""

from __future__ import annotations

import math

import pytest

from anticipated_surprise import ModelParams, Modulation, evaluate
from anticipated_surprise.cli import SCHEMES, SchemePoint

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
