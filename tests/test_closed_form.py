import math
from dataclasses import replace

import pytest

from anticipated_surprise import (
    DualRiskSpec,
    DualScheme,
    HazardSpec,
    ModelParams,
    Modulation,
    TimingRiskSpec,
    ValidationError,
    build_dual_scheme_a,
    build_dual_scheme_b,
    build_hazard_chain,
    build_timing_risk,
    discount_factor,
    discount_ratio,
    dual_surprise,
    evaluate,
    hazard_stage_surprise,
    hazard_total_surprise,
    mean_delay,
    prob_only_surprise,
    stage_surprises,
    surprise_modulation,
    timing_components,
    timing_ratio,
    utility,
)
from anticipated_surprise.closed_form import TimingComponents

P = ModelParams()                      # k=3, alpha=1.6, k1=k2=2
P10 = ModelParams(k2=10.0)             # the discounting parameterization
GRID_P = (0.01, 0.03, 0.1, 0.3)
GRID_FRAC = (0.1, 0.3, 0.5, 0.7, 0.9)


class TestHazardStage:
    def test_vanishes_as_hazard_vanishes(self):
        spec = HazardSpec(1e-9, 4)
        assert hazard_stage_surprise(spec, 1, P) == pytest.approx(0.0, abs=1e-8)

    def test_matches_tree_stages(self):
        for p in GRID_P:
            for n in (1, 4, 9):
                spec = HazardSpec(p, n)
                tree_stages = stage_surprises(build_hazard_chain(p, n), P)
                for t in range(1, n + 1):
                    assert hazard_stage_surprise(spec, t, P) == pytest.approx(
                        tree_stages[t - 1], abs=1e-12
                    )

    def test_last_stage_most_negative_for_small_p(self):
        spec = HazardSpec(0.03, 6)
        stages = [hazard_stage_surprise(spec, t, P) for t in range(1, 7)]
        assert min(stages) == stages[-1]
        assert all(b < a < 0 for a, b in zip(stages, stages[1:]))

    def test_stage_out_of_range(self):
        spec = HazardSpec(0.03, 4)
        with pytest.raises(ValidationError):
            hazard_stage_surprise(spec, 0, P)
        with pytest.raises(ValidationError):
            hazard_stage_surprise(spec, 5, P)


class TestHazardTotal:
    def test_telescopes_to_stage_sum(self):
        for p in GRID_P:
            for n in range(1, 13):
                spec = HazardSpec(p, n)
                total = sum(hazard_stage_surprise(spec, t, P) for t in range(1, n + 1))
                assert hazard_total_surprise(spec, P) == pytest.approx(total, abs=1e-12)

    def test_single_step_equals_single_stage_gamble_expression(self):
        # at n=1 the chain is the gamble paying 1 with probability q
        for i in range(1, 99):
            p = i / 100.0
            q = 1.0 - p
            assert hazard_total_surprise(HazardSpec(p, 1), P) == pytest.approx(
                prob_only_surprise(q, P), abs=1e-12
            )

    def test_magnitude_plateaus_then_declines(self):
        # at p=0.03 the magnitude rises to a flat peak at n=26 and decays
        # beyond it (the distant-delay expected value shrinks faster than
        # the per-stage stakes grow), with forward differences strictly
        # decreasing throughout
        mags = [abs(hazard_total_surprise(HazardSpec(0.03, n), P)) for n in range(1, 51)]
        assert all(b > a for a, b in zip(mags[:25], mags[1:26]))
        assert all(b < a for a, b in zip(mags[25:], mags[26:]))
        assert mags[25] == pytest.approx(0.8013782387805884, abs=1e-12)
        diffs = [b - a for a, b in zip(mags, mags[1:])]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
        assert abs(diffs[24]) < 1e-3  # near-flat at the plateau

    def test_chain_constant_positive_until_large_p(self):
        def c_of(p):
            return P.k * p - p**P.alpha * (1 - p) ** (1 - P.alpha)

        for i in range(1, 31):
            assert c_of(i / 100.0 * 0.3 / 0.3) != 0  # grid sanity
        for p in [i / 1000.0 for i in range(1, 301)]:
            assert c_of(p) > 0.0
        # sign change, located by bisection: ~0.8619
        lo, hi = 0.5, 0.99
        for _ in range(80):
            mid = (lo + hi) / 2
            if c_of(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert (lo + hi) / 2 == pytest.approx(0.8618832502903921, abs=1e-9)


class TestDiscountFactor:
    def test_immediate_reward_is_par(self):
        assert discount_factor(HazardSpec(0.03, 0), P10) == 1.0

    def test_strictly_decreasing_in_n(self):
        vals = [discount_factor(HazardSpec(0.03, n), P10) for n in range(0, 51)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_strictly_decreasing_in_p(self):
        vals = [discount_factor(HazardSpec(i / 100.0, 4), P10) for i in range(1, 100)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_tracks_hyperbolic_above_exponential_mid_range(self):
        # with k2=10, p=0.03: close to 1/(1+0.88 n) and above exp(-0.3 n);
        # the exponential reference only falls below around n ~ 6
        for n in range(10, 31, 5):
            u = discount_factor(HazardSpec(0.03, n), P10)
            hyper = 1.0 / (1.0 + 0.88 * n)
            assert u > math.exp(-0.3 * n)
            assert abs(u - hyper) / hyper < 0.35

    def test_decreasing_impatience_ratio(self):
        us = {n: discount_factor(HazardSpec(0.03, n), P10) for n in range(1, 42)}
        for n in range(1, 30):
            for dn in (1, 5, 10):
                assert us[n + dn] / us[n] < us[n + 1 + dn] / us[n + 1]


class TestProbOnly:
    def test_even_odds_frozen_value(self):
        assert prob_only_surprise(0.5, P) == pytest.approx(-0.32987697769322355, abs=1e-12)

    def test_boundaries_carry_no_surprise(self):
        assert prob_only_surprise(0.0, P) == 0.0
        assert prob_only_surprise(1.0, P) == 0.0
        with pytest.raises(ValidationError, match=r"p_pr must lie in \[0, 1\]"):
            prob_only_surprise(1.5, P)

    def test_small_probability_is_positive(self):
        assert prob_only_surprise(0.01, P) > 0.0
        assert prob_only_surprise(0.05, P) > 0.0

    def test_matches_gamble_tree(self):
        from anticipated_surprise import build_binary_gamble

        for p_pr in GRID_FRAC:
            tree_val = evaluate(build_binary_gamble(1.0, 0.0, p_pr), P).total_surprise
            assert prob_only_surprise(p_pr, P) == pytest.approx(tree_val, abs=1e-12)


class TestTimingComponents:
    def test_frozen_reference_point(self):
        # trajectory-oracle values at p=0.03, n=4, p_tr=0.5, k_tr=10
        comps = timing_components(TimingRiskSpec(0.03, 4, 0.5, 10.0), P)
        assert comps.delta_common == pytest.approx(-0.2170921296786279, abs=1e-12)
        assert comps.delta_tr0 == pytest.approx(-0.003259921777047232, abs=1e-12)
        assert comps.delta_late == pytest.approx(-0.07208542968844753, abs=1e-12)
        assert comps.e_tr == pytest.approx(0.8857035128500002, abs=1e-12)

    def test_depth_grouped_tree_equivalence(self):
        for p in GRID_P:
            for n in (2, 3, 5, 8, 12):
                for p_tr in GRID_FRAC:
                    for k_tr in (0.0, 1.0, 10.0):
                        spec = TimingRiskSpec(p, n, p_tr, k_tr)
                        comps = timing_components(spec, P)
                        ss = stage_surprises(build_timing_risk(spec), P)
                        assert len(ss) == n + 2
                        assert sum(ss[: n - 1]) == pytest.approx(comps.delta_common, abs=1e-9)
                        assert ss[n - 1] == pytest.approx(k_tr * comps.delta_tr0, abs=1e-9)
                        assert ss[n] + ss[n + 1] == pytest.approx(comps.delta_late, abs=1e-9)
                        assert sum(ss) == pytest.approx(comps.delta_total, abs=1e-9)

    def test_expected_values_match_tree(self):
        for p in GRID_P:
            for n in (2, 4, 9):
                for p_tr in GRID_FRAC:
                    spec = TimingRiskSpec(p, n, p_tr)
                    comps = timing_components(spec, P)
                    ev = evaluate(build_timing_risk(spec), P).expected_value
                    assert comps.e_tr == pytest.approx(ev, abs=1e-12)

    def test_degenerate_timing_lottery(self):
        for p_tr in (1e-9, 1.0 - 1e-9):
            comps = timing_components(TimingRiskSpec(0.03, 4, p_tr, 10.0), P)
            assert abs(comps.delta_tr0) < 1e-8
            assert comps.e_tr == pytest.approx(comps.e_fix, abs=1e-8)

    def test_lottery_beats_fixed_delay_in_expectation(self):
        # 19x19 grid over (p, p_tr)
        for i in range(1, 20):
            for j in range(1, 20):
                spec = TimingRiskSpec(0.05 * i * 0.95, 4, j / 20.0)
                comps = timing_components(spec, P)
                assert comps.e_tr > comps.e_fix

    def test_near_sure_early_approaches_shorter_chain(self):
        spec = TimingRiskSpec(0.03, 4, 1.0 - 1e-12, 1.0)
        got = evaluate(build_timing_risk(spec), P)
        shorter = discount_factor(HazardSpec(0.03, 3), P)
        assert utility(got.expected_value, got.total_surprise, P) == pytest.approx(
            shorter, abs=1e-6
        )


class TestTimingRatio:
    def test_emphasized_reveal_gives_aversion(self):
        ratios = [
            timing_ratio(TimingRiskSpec(0.03, n, 0.5, 10.0), P10) for n in range(2, 13)
        ]
        assert all(r < 1.0 for r in ratios)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))  # fades with delay

    def test_ignored_reveal_gives_mild_preference(self):
        ratios = [
            timing_ratio(TimingRiskSpec(0.03, n, 0.5, 0.0), P10) for n in range(2, 13)
        ]
        assert all(r > 1.0 for r in ratios)

    def test_small_early_probability_flips_preference(self):
        assert timing_ratio(TimingRiskSpec(0.03, 4, 0.05, 10.0), P10) > 1.0
        assert timing_ratio(TimingRiskSpec(0.03, 4, 0.5, 10.0), P10) < 1.0

    def test_mean_delay(self):
        assert mean_delay(TimingRiskSpec(0.03, 4, 0.5)) == pytest.approx(4.0)
        assert mean_delay(TimingRiskSpec(0.03, 4, 0.9)) == pytest.approx(3.2)


class TestDualSurprise:
    def test_sure_success_reduces_to_plain_chain(self):
        base = hazard_total_surprise(HazardSpec(0.03, 4), P)
        for scheme in DualScheme:
            spec = DualRiskSpec(0.03, 4, 1.0 - 1e-12, scheme)
            assert dual_surprise(spec, P) == pytest.approx(base, abs=1e-9)

    def test_resolve_first_prior_factor_variant_is_wrong(self, capsys):
        # the alternative reading scales the success-gamble term by
        # q**(alpha-1) instead of q**(n*(alpha-1)); exhaustive evaluation
        # rejects it for every n > 1
        p, n, p_pr = 0.03, 4, 0.7
        q = 1.0 - p
        spec = DualRiskSpec(p, n, p_pr, DualScheme.SEPARATE_BEFORE)
        tree_total = evaluate(build_dual_scheme_a(spec), P).total_surprise
        implemented = dual_surprise(spec, P)
        variant = p_pr * hazard_total_surprise(HazardSpec(p, n), P) + q ** (
            P.alpha - 1.0
        ) * prob_only_surprise(p_pr, P)
        assert implemented == pytest.approx(tree_total, abs=1e-12)
        assert abs(variant - tree_total) > 1e-3
        print(
            f"NOTE: resolve-first prior factor q**(alpha-1) deviates from the tree "
            f"by {abs(variant - tree_total):.6f}; q**(n*(alpha-1)) matches to "
            f"{abs(implemented - tree_total):.2e} and is the implemented form."
        )

    def test_inflated_hazard_identity(self):
        spec = DualRiskSpec(0.03, 4, 0.7, DualScheme.INCORPORATED)
        pp = spec.inflated_hazard()
        assert (1.0 - pp) ** 4 == pytest.approx(0.7 * 0.97**4, abs=1e-12)


class TestDiscountRatio:
    def test_separate_schemes_soften_discount(self):
        for p_pr in [0.3 + 0.05 * i for i in range(14)]:  # 0.3 .. 0.95
            for scheme in (DualScheme.SEPARATE_AFTER, DualScheme.SEPARATE_BEFORE):
                d = discount_ratio(DualRiskSpec(0.03, 4, p_pr, scheme, 2.0), P10)
                assert d > 1.0, (p_pr, scheme)

    def test_incorporated_scheme_sharpens_discount_until_high_p_pr(self):
        # D < 1 up to the crossing near p_pr ~ 0.784, then above 1
        for p_pr in (0.3, 0.4, 0.5, 0.6, 0.7, 0.75):
            d = discount_ratio(DualRiskSpec(0.03, 4, p_pr, DualScheme.INCORPORATED, 2.0), P10)
            assert d < 1.0, p_pr
        for p_pr in (0.8, 0.9):
            d = discount_ratio(DualRiskSpec(0.03, 4, p_pr, DualScheme.INCORPORATED, 2.0), P10)
            assert d > 1.0, p_pr

    def test_scheme_b_expected_value_identity(self):
        # both routes price the same option: expected value p_pr * q**n
        spec = DualRiskSpec(0.03, 4, 0.7, DualScheme.INCORPORATED)
        ev_b = evaluate(build_dual_scheme_b(spec), P).expected_value
        assert ev_b == pytest.approx(0.7 * 0.97**4, abs=1e-12)


class TestDecreasingImpatience:
    @pytest.mark.parametrize("mode", [Modulation.HYPERBOLIC, Modulation.EXPONENTIAL_NEGATIVE])
    def test_added_delay_softens_relative_discount(self, mode):
        params = replace(P10, modulation=mode)
        us = {n: discount_factor(HazardSpec(0.03, n), params) for n in range(1, 51)}
        for n in range(1, 31):
            for n1 in range(1, 11):
                for n2 in range(1, 11):
                    assert us[n + n1] / us[n] < us[n + n1 + n2] / us[n + n2]


class TestSpecValidation:
    def test_hazard_spec_bounds(self):
        with pytest.raises(ValidationError):
            HazardSpec(0.0, 4)
        with pytest.raises(ValidationError):
            HazardSpec(1.0, 4)
        with pytest.raises(ValidationError):
            HazardSpec(0.03, -1)
        # a valid spec whose q = 1 - p rounds to 1.0: the chain sum is 0/0
        with pytest.raises(ValidationError, match="hazard probability too small"):
            discount_factor(HazardSpec(1e-17, 5), ModelParams())

    def test_timing_spec_bounds(self):
        with pytest.raises(ValidationError):
            TimingRiskSpec(0.03, 1, 0.5)
        with pytest.raises(ValidationError):
            TimingRiskSpec(0.03, 4, 0.0)
        with pytest.raises(ValidationError):
            TimingRiskSpec(0.03, 4, 0.5, -1.0)
        with pytest.raises(ValidationError, match="p must lie in"):
            TimingRiskSpec(1.5, 4, 0.5)

    def test_dual_spec_bounds(self):
        with pytest.raises(ValidationError):
            DualRiskSpec(0.03, 0, 0.5)
        with pytest.raises(ValidationError):
            DualRiskSpec(0.03, 4, 1.0)
        with pytest.raises(ValidationError, match="p must lie in"):
            DualRiskSpec(0.0, 4, 0.5)
        with pytest.raises(ValidationError, match="k2_prob must be finite and >= 0"):
            DualRiskSpec(0.03, 4, 0.5, k2_prob=-1.0)
        # p_pr**(1/n) and 1 - p both round to 1.0, so the hazard is 0.0
        with pytest.raises(ValidationError, match="inflated hazard 0.0"):
            DualRiskSpec(1e-17, 10**6, 0.9999999999999999, DualScheme.INCORPORATED)
        # p_pr * (1 - p) rounds to 0.0, so the hazard is 1.0; dual_surprise
        # takes the inflated hazard as checked here
        with pytest.raises(ValidationError, match="inflated hazard 1.0"):
            DualRiskSpec(0.5, 1, 5e-324, DualScheme.INCORPORATED)

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: discount_ratio(DualRiskSpec(0.9, 400, 0.5), P),
             "discount ratio undefined: U_p * U_t underflows to 0"),
            (lambda: timing_ratio(TimingRiskSpec(0.9, 400, 0.5), P),
             "timing ratio undefined: U_fix underflows to 0"),
        ],
        ids=["discount_ratio", "timing_ratio"],
    )
    def test_ratio_of_an_underflowed_reference_is_refused(self, call, message):
        # q**n underflows to 0.0 for these valid specs, and so does the
        # utility each ratio divides by
        with pytest.raises(ValidationError) as exc:
            call()
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: HazardSpec(0.03, math.inf), "n must be finite and >= 0, got inf"),
            (lambda: TimingRiskSpec(0.03, 4, 0.5, math.nan),
             "k_tr must be finite and >= 0, got nan"),
            (lambda: DualRiskSpec(0.03, 4, 0.5, k2_prob=math.inf),
             "k2_prob must be finite and >= 0, got inf"),
        ],
        ids=["hazard-n", "timing-k_tr", "dual-k2_prob"],
    )
    def test_non_finite_value_says_finite(self, call, message):
        with pytest.raises(ValidationError) as exc:
            call()
        assert str(exc.value) == message

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda v: TimingRiskSpec(0.03, v, 0.5), "n must be an integer >= 2"),
            (lambda v: DualRiskSpec(0.03, v, 0.5), "n must be an integer >= 1"),
            (lambda v: build_hazard_chain(0.03, v), "n must be an integer >= 1"),
            (lambda v: hazard_stage_surprise(HazardSpec(0.03, 4), v, P),
             r"stage must be an integer in \[1, 4\]"),
        ],
        ids=["timing-spec", "dual-spec", "hazard-chain", "hazard-stage"],
    )
    def test_non_finite_whole_number_rejected(self, call, message, value):
        # int() of nan or inf raises ValueError or OverflowError; the
        # finiteness check comes first and keeps the usual message
        with pytest.raises(ValidationError, match=message):
            call(value)

    def test_modulation_passthrough(self):
        assert surprise_modulation(-1.0, P10) == pytest.approx(1.0 / 11.0, abs=1e-15)


class TestNoObjectPerCall:
    """A call computes on the checked floats of its spec and params."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Names of the ModelParams, HazardSpec and TimingComponents built
        from here on, in order."""
        names = []
        for cls, method in ((ModelParams, "__post_init__"), (HazardSpec, "__post_init__"),
                            (TimingComponents, "__init__")):
            def counting(self, *args, _original=getattr(cls, method), **kwargs):
                names.append(type(self).__name__)
                _original(self, *args, **kwargs)
            monkeypatch.setattr(cls, method, counting)
        return names

    def test_counts_what_is_built(self, built):
        replace(P, k2=1.0)
        HazardSpec(0.03, 4)
        timing_components(TimingRiskSpec(0.05, 7, 0.3), P)
        assert built == ["ModelParams", "HazardSpec", "TimingComponents"]

    @pytest.mark.parametrize("modulation", list(Modulation))
    @pytest.mark.parametrize(
        "spec",
        [HazardSpec(0.03, 50), TimingRiskSpec(0.05, 7, 0.3, 4.0),
         *(DualRiskSpec(0.03, 12, 0.6, scheme, 5.0) for scheme in DualScheme)],
        ids=["discount_factor", "timing_ratio", *(scheme.value for scheme in DualScheme)],
    )
    def test_call_builds_nothing(self, built, spec, modulation):
        params = replace(P10, modulation=modulation)
        call = {HazardSpec: discount_factor, TimingRiskSpec: timing_ratio,
                DualRiskSpec: discount_ratio}[type(spec)]
        del built[:]
        assert call(spec, params) > 0.0
        assert built == []
