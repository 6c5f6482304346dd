import math

import pytest

from anticipated_surprise import (
    Branch,
    DualRiskSpec,
    DualScheme,
    FullScaling,
    Internal,
    ModelParams,
    ScenarioSpec,
    Terminal,
    TimingRiskSpec,
    ValidationError,
    build_binary_gamble,
    build_dual_scheme_a,
    build_dual_scheme_b,
    build_hazard_chain,
    build_scenario,
    build_timing_risk,
    evaluate,
    evaluate_scaled,
    expected_value,
    stage_surprises,
    tree_from_dict,
    tree_to_dict,
    validate,
)

P = ModelParams()
GRID_P = (0.01, 0.03, 0.1, 0.3)


class TestBinaryGamble:
    def test_expected_value(self):
        assert expected_value(build_binary_gamble(1.0, 0.0, 0.5)) == 0.5

    def test_s_curve_crossing(self):
        # with the reference parameters, utility beats the win probability
        # below p* ~ 0.1381 and trails it above, with a single crossing
        diffs = []
        for i in range(1, 100):
            p = i / 100.0
            u = evaluate(build_binary_gamble(1.0, 0.0, p), P).utility
            diffs.append(u - p)
        signs = [d > 0 for d in diffs]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips == 1
        assert signs[0] and not signs[-1]
        assert signs[12] and not signs[13]  # crossing between 0.13 and 0.14

    def test_unit_expected_value_at_any_odds(self):
        for p in (0.01, 0.1, 0.25, 0.5):
            assert expected_value(build_binary_gamble(1.0 / p, 0.0, p)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_rejects_degenerate_probability(self):
        with pytest.raises(ValidationError):
            build_binary_gamble(1.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            build_binary_gamble(1.0, 0.0, 1.0)


class TestHazardChain:
    def test_single_step_is_gamble_on_survival(self):
        chain = build_hazard_chain(0.3, 1)
        gamble = build_binary_gamble(1.0, 0.0, 0.7)
        a, b = evaluate(chain, P), evaluate(gamble, P)
        assert a.expected_value == pytest.approx(b.expected_value, abs=1e-15)
        assert a.total_surprise == pytest.approx(b.total_surprise, abs=1e-12)

    def test_survival_probability(self):
        assert expected_value(build_hazard_chain(0.03, 4)) == pytest.approx(
            0.97**4, abs=1e-14
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            build_hazard_chain(0.03, 0)
        with pytest.raises(ValidationError):
            build_hazard_chain(1.5, 3)


class TestTimingRisk:
    def test_validates(self):
        validate(build_timing_risk(TimingRiskSpec(0.03, 4, 0.5, 10.0)))

    def test_expected_value_formula(self):
        for p in GRID_P:
            for n in (2, 5, 9):
                for p_tr in (0.1, 0.5, 0.9):
                    tree = build_timing_risk(TimingRiskSpec(p, n, p_tr))
                    q = 1.0 - p
                    want = p_tr * q ** (n - 1) + (1 - p_tr) * q ** (n + 1)
                    assert expected_value(tree) == pytest.approx(want, abs=1e-12)

    def test_reveal_weight_lands_on_reveal_stage(self):
        spec = TimingRiskSpec(0.03, 4, 0.5, 10.0)
        base = TimingRiskSpec(0.03, 4, 0.5, 1.0)
        weighted = stage_surprises(build_timing_risk(spec), P)
        plain = stage_surprises(build_timing_risk(base), P)
        assert weighted[3] == pytest.approx(10.0 * plain[3], rel=1e-12)
        for i in (0, 1, 2, 4, 5):
            assert weighted[i] == pytest.approx(plain[i], rel=1e-12)


class TestDualSchemes:
    def test_identical_expected_values_distinct_surprises(self):
        for p_pr in (0.3, 0.7):
            after = build_dual_scheme_a(DualRiskSpec(0.03, 4, p_pr, DualScheme.SEPARATE_AFTER))
            before = build_dual_scheme_a(DualRiskSpec(0.03, 4, p_pr, DualScheme.SEPARATE_BEFORE))
            b = build_dual_scheme_b(DualRiskSpec(0.03, 4, p_pr, DualScheme.INCORPORATED))
            evs = {expected_value(t) for t in (after, before, b)}
            assert max(evs) - min(evs) < 1e-12
            totals = [evaluate(t, P).total_surprise for t in (after, before, b)]
            assert len({round(t, 6) for t in totals}) == 3

    def test_scheme_a_rejects_incorporated_tag(self):
        with pytest.raises(ValidationError):
            build_dual_scheme_a(DualRiskSpec(0.03, 4, 0.5, DualScheme.INCORPORATED))

    @pytest.mark.parametrize("scheme", [DualScheme.SEPARATE_AFTER, DualScheme.SEPARATE_BEFORE])
    def test_scheme_b_rejects_separate_tags(self, scheme):
        # the spec checks p' only under INCORPORATED; here p' rounds to 0
        spec = DualRiskSpec(1e-17, 2, 0.9999999999999999, scheme)
        assert spec.inflated_hazard() == 0.0
        with pytest.raises(ValidationError) as info:
            build_dual_scheme_b(spec)
        assert str(info.value) == f"scheme {scheme} is not the incorporated scheme"

    def test_near_sure_success_approaches_plain_chain(self):
        spec = DualRiskSpec(0.03, 4, 1.0 - 1e-12, DualScheme.SEPARATE_AFTER)
        got = evaluate(build_dual_scheme_a(spec), P)
        plain = evaluate(build_hazard_chain(0.03, 4), P)
        assert got.expected_value == pytest.approx(plain.expected_value, abs=1e-9)
        assert got.total_surprise == pytest.approx(plain.total_surprise, abs=1e-9)


class TestScenario:
    def test_single_step_is_binary_gamble(self):
        spec = ScenarioSpec(
            step_probabilities=[0.4],
            step_payoffs=[1.0],
            final_payoff=-2.0,
        )
        got = evaluate(build_scenario(spec), P)
        want = evaluate(build_binary_gamble(1.0, -2.0, 0.4), P)
        assert got == want

    def test_uniform_negotiation_is_affine_hazard_chain(self):
        # constant breakdown losses shift-and-scale the survival chain, so
        # full scaling maps the two problems onto each other exactly
        loss, agreement, p, n = -2.0, 3.0, 0.1, 5
        spec = ScenarioSpec(
            step_probabilities=[p] * n,
            step_payoffs=[loss] * n,
            final_payoff=agreement,
        )
        scenario_u = evaluate_scaled(build_scenario(spec), P, FullScaling())
        chain_u = evaluate_scaled(build_hazard_chain(p, n), P, FullScaling())
        assert scenario_u == pytest.approx((agreement - loss) * chain_u + loss, abs=1e-9)

    def test_worsening_losses_hurt_most_at_the_end(self):
        spec = ScenarioSpec(
            step_probabilities=[0.1] * 4,
            step_payoffs=[-0.5, -1.0, -2.0, -4.0],
            final_payoff=3.0,
        )
        ss = stage_surprises(build_scenario(spec), P)
        assert min(ss) == ss[-1]

    def test_validation(self):
        lengths = "step_probabilities and step_payoffs need the same length >= 1"
        with pytest.raises(ValidationError, match=f"{lengths}, got 1 and 2"):
            ScenarioSpec([0.1], [-1.0, -2.0], 1.0)
        with pytest.raises(ValidationError, match=f"{lengths}, got 2 and 1"):
            ScenarioSpec([0.1, 0.2], [-1.0], 1.0)
        with pytest.raises(ValidationError, match=f"{lengths}, got 0 and 0"):
            ScenarioSpec([], [], 1.0)
        with pytest.raises(ValidationError):
            ScenarioSpec([1.5], [-1.0], 1.0)
        with pytest.raises(ValidationError, match=r"step_payoffs\[1\] must be finite, got inf"):
            ScenarioSpec([0.1, 0.2], [-1.0, math.inf], 1.0)
        with pytest.raises(ValidationError, match="final_payoff must be finite, got nan"):
            ScenarioSpec([0.1], [-1.0], math.nan)


class TestAllBuildersValidate:
    def test_every_builder_output_passes_validation(self):
        trees = [
            build_binary_gamble(1.0, 0.0, 0.5),
            build_hazard_chain(0.03, 6),
            build_timing_risk(TimingRiskSpec(0.1, 3, 0.4, 2.0)),
            build_dual_scheme_a(DualRiskSpec(0.1, 3, 0.6, DualScheme.SEPARATE_AFTER)),
            build_dual_scheme_a(DualRiskSpec(0.1, 3, 0.6, DualScheme.SEPARATE_BEFORE)),
            build_dual_scheme_b(DualRiskSpec(0.1, 3, 0.6, DualScheme.INCORPORATED)),
            build_scenario(
                ScenarioSpec([0.2, 0.3], [1.0, 0.8], -1.0)
            ),
        ]
        for tree in trees:
            report = validate(tree)
            assert report.node_count >= 3
            assert not isinstance(tree, Terminal)


def unshared_chain(p, n, node):
    """n hazard levels built one at a time, each with its own loss branch
    and its own 1 - p: the reference the shared builders must match."""
    for _ in range(n):
        node = Internal((Branch(p, Terminal(0.0)), Branch(1.0 - p, node)))
    return node


def shared_and_unshared(scheme, p, n):
    """(built tree, unshared reference, hazard-chain lengths top-down)."""
    if scheme == "hazard":
        return build_hazard_chain(p, n), unshared_chain(p, n, Terminal(1.0)), [n]
    if scheme == "timing":
        spec = TimingRiskSpec(p, n, 0.4, 2.0)
        reveal = Internal(
            (Branch(0.4, Terminal(1.0)), Branch(1.0 - 0.4, unshared_chain(p, 2, Terminal(1.0)))),
            surprise_weight=2.0,
        )
        return build_timing_risk(spec), unshared_chain(p, n - 1, reveal), [n - 1, 2]
    if scheme == "dual-a-after":
        spec = DualRiskSpec(p, n, 0.6, DualScheme.SEPARATE_AFTER)
        gamble = build_binary_gamble(1.0, 0.0, 0.6)
        return build_dual_scheme_a(spec), unshared_chain(p, n, gamble), [n]
    if scheme == "dual-a-before":
        spec = DualRiskSpec(p, n, 0.6, DualScheme.SEPARATE_BEFORE)
        gate = Internal(
            (Branch(1.0 - 0.6, Terminal(0.0)), Branch(0.6, unshared_chain(p, n, Terminal(1.0))))
        )
        return build_dual_scheme_a(spec), gate, [n]
    spec = DualRiskSpec(p, n, 0.6, DualScheme.INCORPORATED)
    return build_dual_scheme_b(spec), unshared_chain(spec.inflated_hazard(), n, Terminal(1.0)), [n]


def loss_branches(tree, gated=False):
    """The loss branch of every hazard level, top-down along the chain; a
    hazard level is an internal node whose first branch pays 0.  With
    gated, tree is a dual-a-before gate, whose own first branch pays 0 but
    is no hazard level's loss."""
    out, stack = [], [tree.branches[-1].child if gated else tree]
    while stack:
        nd = stack.pop()
        if isinstance(nd, Internal):
            if nd.branches[0].child == Terminal(0.0):
                out.append(nd.branches[0])
            stack.extend(br.child for br in nd.branches)
    return out


SHARED_SCHEMES = ("hazard", "timing", "dual-a-after", "dual-a-before", "dual-b")
SHARED_GRID = [(p, n) for p in (0.03, 0.3) for n in (2, 5, 9)]


class TestSharedStructure:
    @pytest.mark.parametrize("scheme", SHARED_SCHEMES)
    def test_each_chain_reuses_one_loss_branch(self, scheme):
        for p, n in SHARED_GRID:
            tree, _, lengths = shared_and_unshared(scheme, p, n)
            found = loss_branches(tree, gated=scheme == "dual-a-before")
            assert len(found) == sum(lengths)
            start = 0
            for length in lengths:
                chain = found[start:start + length]
                assert all(br is chain[0] for br in chain)
                start += length

    @pytest.mark.parametrize("scheme", SHARED_SCHEMES)
    def test_bit_identical_to_unshared_tree(self, scheme):
        for params in (P, ModelParams(k=1.5, alpha=1.3, k1=0.7, k2=4.0)):
            for p, n in SHARED_GRID:
                tree, reference, _ = shared_and_unshared(scheme, p, n)
                assert tree == reference
                assert evaluate(tree, params) == evaluate(reference, params)
                assert validate(tree).node_count == validate(reference).node_count

    @pytest.mark.parametrize("scheme", SHARED_SCHEMES)
    def test_round_trip_and_collapse(self, scheme):
        tree, _, _ = shared_and_unshared(scheme, 0.03, 5)
        assert tree_from_dict(tree_to_dict(tree)) == tree
