import math
from dataclasses import replace

import pytest

from anticipated_surprise import (
    ModelParams,
    Modulation,
    ValidationError,
    surprise_kernel,
    surprise_modulation,
    utility,
)

P = ModelParams(k=3.0, alpha=1.6, k1=2.0, k2=2.0)


class TestParams:
    def test_defaults_are_reference_values(self):
        d = ModelParams()
        assert (d.k, d.alpha, d.k1, d.k2) == (3.0, 1.6, 2.0, 2.0)
        assert d.modulation is Modulation.HYPERBOLIC

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 1.0},
            {"k": 0.5},
            {"alpha": 1.0},
            {"k1": -0.1},
            {"k2": -2.0},
            {"k": math.inf},
            {"alpha": math.nan},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValidationError):
            ModelParams(**kwargs)

    def test_replace_copies_and_validates(self):
        q = replace(P, k2=10.0)
        assert q.k2 == 10.0 and P.k2 == 2.0 and q.k == P.k
        with pytest.raises(ValidationError):
            replace(P, k2=-1.0)


class TestKernel:
    def test_zero_at_zero(self):
        assert surprise_kernel(0.0, P) == 0.0

    def test_unit_errors(self):
        # 1**alpha = 1 regardless of alpha, so the negative side is exactly -k
        assert surprise_kernel(1.0, P) == 1.0
        assert surprise_kernel(-1.0, P) == -3.0

    def test_half_power(self):
        # frozen: exp(1.6 * ln 0.5)
        assert surprise_kernel(0.5, P) == pytest.approx(0.3298769776932236, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            surprise_kernel(math.inf, P)
        with pytest.raises(ValidationError):
            surprise_kernel(math.nan, P)
        with pytest.raises(ValidationError, match="surprise must be finite"):
            surprise_modulation(math.nan, P)
        with pytest.raises(ValidationError, match="expected value must be finite"):
            utility(math.inf, 0.0, P)

    def test_odd_scaling(self):
        # delta(-z) = -k * delta(z) exactly for the power kernel
        for i in range(1, 200):
            z = i * 0.017
            assert surprise_kernel(-z, P) == pytest.approx(
                -P.k * surprise_kernel(z, P), rel=1e-15
            )

    def test_strictly_increasing(self):
        zs = [(-10.0 + i * 0.05) for i in range(401)]
        vals = [surprise_kernel(z, P) for z in zs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_convex_on_nonnegative_half(self):
        zs = [i * 0.01 for i in range(1001)]
        vals = [surprise_kernel(z, P) for z in zs]
        second = [vals[i + 2] - 2 * vals[i + 1] + vals[i] for i in range(len(vals) - 2)]
        assert all(d >= -1e-15 for d in second)


class TestModulation:
    def test_one_at_zero_both_modes(self):
        assert surprise_modulation(0.0, P) == 1.0
        q = replace(P, modulation=Modulation.EXPONENTIAL_NEGATIVE)
        assert surprise_modulation(0.0, q) == 1.0

    def test_hyperbolic_negative_branch(self):
        assert surprise_modulation(-0.32987697769322355, P) == pytest.approx(
            0.6024989407343608, abs=1e-12
        )

    def test_exponential_negative_branch(self):
        q = replace(P, modulation=Modulation.EXPONENTIAL_NEGATIVE)
        assert surprise_modulation(-0.32987697769322355, q) == pytest.approx(
            0.5169785186244024, abs=1e-12
        )

    def test_continuous_at_kink(self):
        eps = 1e-12
        for params in (P, replace(P, modulation=Modulation.EXPONENTIAL_NEGATIVE)):
            assert surprise_modulation(-eps, params) == pytest.approx(1.0, abs=1e-10)
            assert surprise_modulation(eps, params) == pytest.approx(1.0, abs=1e-10)

    def test_positive_and_increasing(self):
        for params in (P, replace(P, modulation=Modulation.EXPONENTIAL_NEGATIVE)):
            deltas = [-5.0 + i * 0.01 for i in range(1001)]
            vals = [surprise_modulation(d, params) for d in deltas]
            assert all(v > 0.0 for v in vals)
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_hyperbolic_dominates_exponential_below_zero(self):
        q = replace(P, modulation=Modulation.EXPONENTIAL_NEGATIVE)
        for i in range(1, 500):
            d = -i * 0.02
            assert surprise_modulation(d, P) >= surprise_modulation(d, q)


class TestUtility:
    def test_certain_unit_reward(self):
        assert utility(1.0, 0.0, P) == 1.0

    def test_reference_gamble_value(self):
        # 0.5 * g(-0.329877...) with k2=2
        assert utility(0.5, -0.32987697769322355, P) == pytest.approx(0.30124947, abs=1e-6)

    def test_zero_expected_value_pins_utility(self):
        # the multiplicative form cannot move off zero, whatever the surprise
        assert utility(0.0, 5.0, P) == 0.0
        assert utility(0.0, -5.0, P) == 0.0

    def test_linear_in_expected_value(self):
        d = -0.7
        base = utility(1.0, d, P)
        for u0 in (0.1, 0.25, 2.0, 7.5):
            assert utility(u0, d, P) == pytest.approx(u0 * base, rel=1e-15)
