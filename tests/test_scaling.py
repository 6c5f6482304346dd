import math
import random

import pytest

from anticipated_surprise import (
    AffineTransform,
    Branch,
    DualRiskSpec,
    DualScheme,
    FixedScale,
    FullScaling,
    Internal,
    ModelParams,
    NoScaling,
    Modulation,
    PartialScaling,
    Terminal,
    TimingRiskSpec,
    ValidationError,
    build_binary_gamble,
    build_dual_scheme_a,
    build_dual_scheme_b,
    build_hazard_chain,
    build_timing_risk,
    derive_transform,
    evaluate,
    evaluate_scaled,
    parse_scaling_mode,
    scaled_evaluation,
    transform_payoffs,
)
from conftest import random_tree

P = ModelParams()


def affine_map_tree(node, a, b):
    if isinstance(node, Terminal):
        return Terminal(a * node.payoff + b)
    return Internal(
        tuple(Branch(br.probability, affine_map_tree(br.child, a, b)) for br in node.branches),
        node.surprise_weight,
    )


class TestAffineTransform:
    def test_round_trip_identity(self):
        t = AffineTransform(scale=2.0, offset=-1.0)
        for x in (-3.0, -1.0, 0.0, 0.4, 2.5):
            assert t.invert_utility(t.apply(x)) == pytest.approx(x, abs=1e-12)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValidationError):
            AffineTransform(scale=0.0)
        with pytest.raises(ValidationError):
            AffineTransform(scale=-1.0)


class TestDeriveTransform:
    def test_full_maps_range_to_unit_interval(self):
        tree = build_binary_gamble(1.0, -1.0, 0.5)
        t = derive_transform(tree, FullScaling())
        assert (t.scale, t.offset) == (2.0, -1.0)
        assert t.apply(-1.0) == 0.0 and t.apply(1.0) == 1.0

    def test_full_on_unit_tree_is_identity(self):
        t = derive_transform(build_binary_gamble(1.0, 0.0, 0.5), FullScaling())
        assert t.is_identity

    def test_full_on_degenerate_tree_is_identity(self):
        t = derive_transform(Terminal(7.0), FullScaling())
        assert t.is_identity

    def test_none_is_identity(self):
        t = derive_transform(build_binary_gamble(5.0, -5.0, 0.5), NoScaling())
        assert t.is_identity

    def test_partial_range_power(self):
        # {0, 1/p} payoffs with gamma = 1/alpha: max maps to p**(1/alpha - 1),
        # the incomplete normalization that keeps some magnitude dependence.
        p = 0.25
        tree = build_binary_gamble(1.0 / p, 0.0, p)
        t = derive_transform(tree, PartialScaling(gamma=1.0 / P.alpha))
        assert t.apply(1.0 / p) == pytest.approx(1.681792830507429, abs=1e-12)
        assert t.apply(0.0) == 0.0

    def test_partial_gamma_one_is_full(self):
        tree = build_binary_gamble(3.0, -2.0, 0.4)
        assert derive_transform(tree, PartialScaling(1.0)) == derive_transform(
            tree, FullScaling()
        )

    def test_fixed_scale(self):
        t = derive_transform(Terminal(1.0), FixedScale(4.0))
        assert (t.scale, t.offset) == (4.0, 0.0)


class TestEvaluateScaled:
    def test_mixed_gamble_reference_values(self):
        # (-1, 0.5; 1, 0.5): full scaling turns it into the unit gamble,
        # worth 0.30125 there, hence -0.39750 after inversion
        tree = build_binary_gamble(1.0, -1.0, 0.5)
        u = evaluate_scaled(tree, P, FullScaling())
        assert u == pytest.approx(-0.39750105926563917, abs=1e-9)
        unit = evaluate_scaled(build_binary_gamble(1.0, 0.0, 0.5), P, FullScaling())
        assert unit == pytest.approx(0.3012494703671804, abs=1e-9)

    def test_none_mode_equals_plain_evaluate(self):
        # both go through one result builder; the identity must keep every float
        rng = random.Random(11)
        trees = [random_tree(rng, max_depth=3) for _ in range(10)] + [
            build_binary_gamble(2.0, -1.0, 0.3),
            build_hazard_chain(0.03, 50),
            build_timing_risk(TimingRiskSpec(0.03, 4, 0.5, 10.0)),
            *(build_dual_scheme_a(DualRiskSpec(0.03, 4, 0.7, scheme))
              for scheme in (DualScheme.SEPARATE_AFTER, DualScheme.SEPARATE_BEFORE)),
            build_dual_scheme_b(DualRiskSpec(0.03, 4, 0.7, DualScheme.INCORPORATED)),
        ]
        for tree in trees:
            for params in (P, ModelParams(k2=10.0, modulation=Modulation.EXPONENTIAL_NEGATIVE)):
                got = scaled_evaluation(tree, params, NoScaling())
                assert got.scaled == evaluate(tree, params)
                assert got.utility == got.scaled.utility

    def test_full_on_unit_range_tree_is_bitwise_noop(self):
        # identity transform: (x - 0)/1 leaves the floats untouched
        tree = build_binary_gamble(1.0, 0.0, 0.3)
        assert evaluate_scaled(tree, P, FullScaling()) == evaluate(tree, P).utility

    def test_inverse_probability_lottery_pathology(self):
        # E = 1 whatever p; without scaling the utility explodes at small p
        p = 0.01
        tree = build_binary_gamble(1.0 / p, 0.0, p)
        none = evaluate_scaled(tree, P, NoScaling())
        full = evaluate_scaled(tree, P, FullScaling())
        partial = evaluate_scaled(tree, P, FixedScale(p ** (-1.0 / P.alpha)))
        assert none > 1e6
        assert full == pytest.approx(1.016060682922172, abs=1e-9)
        assert partial == pytest.approx(1.2872680932817473, abs=1e-9)

    def test_full_scaling_affine_equivariance(self):
        rng = random.Random(20240811)
        for _ in range(100):
            tree = random_tree(rng, max_depth=4)
            a = rng.uniform(0.1, 5.0)
            b = rng.uniform(-3.0, 3.0)
            mapped = affine_map_tree(tree, a, b)
            lhs = evaluate_scaled(mapped, P, FullScaling())
            rhs = a * evaluate_scaled(tree, P, FullScaling()) + b
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_analytic_scaling_matches_scaled_copy(self):
        # the scaled tree's surprises are the raw ones times scale**-alpha;
        # evaluating an explicit scaled copy is the reference
        rng = random.Random(5)
        for _ in range(100):
            tree = random_tree(rng, max_depth=4)
            params = ModelParams(
                k=rng.uniform(1.5, 4.0), alpha=rng.uniform(1.1, 2.5), k1=rng.uniform(0.0, 3.0),
                k2=rng.uniform(0.0, 10.0), modulation=rng.choice(list(Modulation)),
            )
            for mode in (FullScaling(), PartialScaling(rng.uniform(0.2, 1.0)),
                         FixedScale(rng.uniform(0.1, 20.0))):
                got = scaled_evaluation(tree, params, mode)
                ref = evaluate(transform_payoffs(tree, got.transform), params)
                pairs = [
                    (got.scaled.total_surprise, ref.total_surprise),
                    (got.scaled.utility, ref.utility),
                    (got.utility, got.transform.invert_utility(ref.utility)),
                    *zip(got.scaled.stage_surprises, ref.stage_surprises),
                ]
                assert len(got.scaled.stage_surprises) == len(ref.stage_surprises)
                for a, b in pairs:
                    assert math.isclose(a, b, rel_tol=1e-12), (mode, a, b)
                assert got.raw_expected_value == evaluate(tree, params).expected_value

    @pytest.mark.parametrize(
        "tree, mode",
        [
            (build_binary_gamble(1e5, 0.0, 1e-5), FullScaling()),
            (build_binary_gamble(1e5, 0.0, 1e-5), PartialScaling(0.5)),
            (random_tree(random.Random(11), payoff_range=(-1e200, 1e200)), FullScaling()),
        ],
    )
    def test_payoffs_too_large_to_evaluate_raw(self, tree, mode):
        # the raw utility (or kernel) overflows; only the normalized tree
        # is evaluated, so the scaled result is finite
        with pytest.raises(OverflowError):
            evaluate(tree, P)
        got = scaled_evaluation(tree, P, mode)
        ref = evaluate(transform_payoffs(tree, got.transform), P)
        assert math.isclose(got.scaled.total_surprise, ref.total_surprise, rel_tol=1e-12)
        assert math.isclose(got.scaled.utility, ref.utility, rel_tol=1e-12)
        assert math.isfinite(got.utility)

    def test_transform_payoffs_keeps_structure(self):
        tree = build_binary_gamble(4.0, -2.0, 0.25)
        t = derive_transform(tree, FullScaling())
        scaled = transform_payoffs(tree, t)
        assert isinstance(scaled, Internal)
        assert [br.probability for br in scaled.branches] == [0.25, 0.75]
        payoffs = sorted(br.child.payoff for br in scaled.branches)
        assert payoffs == [0.0, 1.0]

    def test_transform_payoffs_deep_chain(self):
        # an iterative fold, as evaluate is: 3,000 levels pass the recursion limit
        tree = build_hazard_chain(0.03, 3_000)
        params = ModelParams(k2=10.0)
        got = scaled_evaluation(tree, params, FixedScale(4.0))
        ref = evaluate(transform_payoffs(tree, got.transform), params)
        assert math.isclose(got.scaled.total_surprise, ref.total_surprise, rel_tol=1e-12)
        assert math.isclose(got.scaled.utility, ref.utility, rel_tol=1e-12)


UNKNOWN = "; expected none, full, partial:<gamma> or scale:<s>"
#: Rejected scaling specs and the messages they must keep.
REJECTED = {
    "": "unknown scaling mode ''" + UNKNOWN,
    "half": "unknown scaling mode 'half'" + UNKNOWN,
    "none:": "unknown scaling mode 'none:'" + UNKNOWN,
    "partial": "unknown scaling mode 'partial'" + UNKNOWN,
    "full:1": "unknown scaling mode 'full:1'" + UNKNOWN,
    "NONE": "unknown scaling mode 'NONE'" + UNKNOWN,
    "partial:": "bad scaling spec 'partial:': could not convert string to float: ''",
    "partial:2": "bad scaling spec 'partial:2': gamma must lie in (0, 1], got 2.0",
    "partial:nan": "bad scaling spec 'partial:nan': gamma must lie in (0, 1], got nan",
    "partial:0.5:1": "bad scaling spec 'partial:0.5:1': could not convert string to float: '0.5:1'",
    "scale:": "bad scaling spec 'scale:': could not convert string to float: ''",
    "scale:-1": "bad scaling spec 'scale:-1': scale must be finite and > 0, got -1.0",
    "scale:x": "bad scaling spec 'scale:x': could not convert string to float: 'x'",
    "scale:inf": "bad scaling spec 'scale:inf': scale must be finite and > 0, got inf",
}


class TestParseScalingMode:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("none", NoScaling()),
            ("full", FullScaling()),
            ("partial:0.5", PartialScaling(0.5)),
            ("scale:4", FixedScale(4.0)),
        ],
    )
    def test_parses(self, text, expected):
        assert parse_scaling_mode(text) == expected

    @pytest.mark.parametrize("text", REJECTED)
    def test_rejects(self, text):
        with pytest.raises(ValidationError) as exc:
            parse_scaling_mode(text)
        assert str(exc.value) == REJECTED[text]

