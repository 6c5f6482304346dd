import json
import math
import random

import pytest

from anticipated_surprise import (
    Branch,
    Internal,
    ModelParams,
    Terminal,
    ValidationError,
    evaluate,
    expected_value,
    load_tree,
    stage_surprises,
    surprise_kernel,
    tree_from_dict,
    tree_to_dict,
    validate,
)
from anticipated_surprise.scaling import (NoScaling, _scaled_evaluation, parse_scaling_mode,
                                          scaled_evaluation)
from anticipated_surprise.tree import Spine, _result
from conftest import (level_walk_result, random_tree, result_bits, scheme_tree,
                      trajectory_stage_surprises, walk_report)

P = ModelParams()


def gamble(hi, lo, p):
    return Internal((Branch(p, Terminal(hi)), Branch(1.0 - p, Terminal(lo))))


def chain(p, n):
    node = Terminal(1.0)
    for _ in range(n):
        node = Internal((Branch(p, Terminal(0.0)), Branch(1.0 - p, node)))
    return node


class TestValidation:
    def test_accepts_chain(self):
        report = validate(chain(0.03, 4))
        # 4 internal levels, a loss terminal at each, one reward terminal
        assert report.node_count == 9
        assert report.max_depth == 4
        assert report.renormalized == []

    def test_rejects_bad_probability_sum_with_path(self):
        bad = Internal(
            (
                Branch(0.5, Terminal(1.0)),
                Branch(
                    0.5,
                    Internal((Branch(0.6, Terminal(0.0)), Branch(0.6, Terminal(1.0)))),
                ),
            )
        )
        with pytest.raises(ValidationError, match=r"root\.branches\[1\]"):
            validate(bad)

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValidationError, match="probability"):
            validate(Internal((Branch(0.0, Terminal(1.0)), Branch(1.0, Terminal(0.0)))))

    def test_rejects_non_finite_payoff(self):
        with pytest.raises(ValidationError, match="payoff"):
            validate(Terminal(math.inf))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValidationError, match="surprise_weight"):
            validate(Internal((Branch(1.0, Terminal(1.0)),), surprise_weight=-1.0))

    def test_rejects_empty_branches(self):
        with pytest.raises(ValidationError, match="at least one branch"):
            validate(Internal(()))

    def test_rejects_branch_to_a_non_node(self):
        with pytest.raises(ValidationError, match=r"^root\.branches\[1\]: not a resolution node: 'x'$"):
            validate(Internal((Branch(0.5, Terminal(1.0)), Branch(0.5, "x"))))

    def test_near_one_sum_renormalized(self):
        # off by 2e-13: inside tolerance, recorded and renormalized
        node = Internal((Branch(0.5, Terminal(1.0)), Branch(0.5 + 2e-13, Terminal(0.0))))
        report = validate(node)
        assert report.renormalized == ["root"]
        assert expected_value(node) == pytest.approx(0.5, abs=1e-12)

    def test_paths_name_nested_nodes(self):
        # paths are rebuilt from the walk's open ancestors, past finished
        # and pending siblings alike
        near = Internal((Branch(0.5, Terminal(1.0)), Branch(0.5 + 2e-13, Terminal(0.0))))
        bad = Internal((Branch(0.5, Terminal(1.0)), Branch(0.5, Terminal(math.nan))))
        tree = Internal((
            Branch(0.25, gamble(1.0, 0.0, 0.5)),
            Branch(0.5, Internal((Branch(0.5, near), Branch(0.5, gamble(2.0, 0.0, 0.5))))),
            Branch(0.25, gamble(1.0, 0.0, 0.5)),
        ))
        report = validate(tree)
        assert report.renormalized == ["root.branches[1].branches[0]"]
        assert (report.node_count, report.max_depth) == (14, 3)
        assert (report.payoff_min, report.payoff_max) == (0.0, 2.0)
        broken = Internal((Branch(0.5, gamble(1.0, 0.0, 0.5)), Branch(0.5, Internal(
            (Branch(0.5, Terminal(0.0)), Branch(0.5, bad))))))
        with pytest.raises(ValidationError, match=r"^root\.branches\[1\]\.branches\[1\]"
                                                  r"\.branches\[1\]: payoff"):
            validate(broken)

    def test_overflowing_expected_value_names_the_deepest_node(self):
        def over():  # 0.5 * max + 0.5000000000004 * max passes the float range
            return Internal((Branch(0.5, Terminal(1.7976931348623157e308)),
                             Branch(0.5000000000004, Terminal(1.7976931348623157e308))))

        with pytest.raises(ValidationError, match="^root: expected value overflows the float range$"):
            validate(over())
        # the root and root.branches[0] overflow too, and so does the later,
        # shallower root.branches[1]
        tree = Internal((Branch(0.5, Internal((Branch(0.5, Terminal(0.0)), Branch(0.5, over())))),
                         Branch(0.5, over())))
        with pytest.raises(ValidationError, match=r"^root\.branches\[0\]\.branches\[1\]: expected "
                                                  "value overflows the float range$"):
            validate(tree)

    def test_beyond_tolerance_rejected(self):
        node = Internal((Branch(0.5, Terminal(1.0)), Branch(0.5 + 1e-9, Terminal(0.0))))
        with pytest.raises(ValidationError, match="sum"):
            validate(node)


class TestExpectedValue:
    def test_terminal(self):
        assert expected_value(Terminal(1.0)) == 1.0

    def test_gamble_linearity(self):
        assert expected_value(gamble(1.0, 0.0, 0.3)) == pytest.approx(0.3, abs=1e-15)

    def test_chain_survival_product(self):
        assert expected_value(chain(0.03, 4)) == pytest.approx(0.97**4, abs=1e-14)
        assert 0.97**4 == pytest.approx(0.88529281, abs=1e-12)


class TestDepth:
    def test_deep_hazard_chain_matches_closed_form(self):
        # the walk and the surprise pass are iterative: no recursion limit
        from anticipated_surprise import HazardSpec, build_hazard_chain, discount_factor

        params = ModelParams(k2=10.0)
        chain = build_hazard_chain(0.03, 20_000)
        assert validate(chain).max_depth == 20_000
        want = discount_factor(HazardSpec(0.03, 20_000), params)
        assert math.isclose(evaluate(chain, params).utility, want, rel_tol=1e-9)

    def test_deep_side_branches_give_the_walks_report(self):
        """5,000 levels that each leave a resume point or a side gamble on
        the walk's way: no RecursionError, the stack walk's report and the
        level walk's bits."""
        comb = Terminal(1.0)  # the path goes down branch 0; the last branch is a terminal
        side = Terminal(-0.5)  # a two-leaf gamble in a non-last branch at every level
        for level in range(5_000):
            comb = Internal((Branch(0.6, comb), Branch(0.4, Terminal(float(level % 3)))))
            side = Internal((Branch(0.2, Terminal(-1.0)), Branch(0.3, gamble(2.0, -0.0, 0.5)),
                             Branch(0.5, side)))
        for tree in (comb, side):
            want, got = walk_report(tree), validate(tree)
            assert got == want and got.max_depth == want.max_depth == 5_000 + (tree is side)
            assert got.conditional_values == want.conditional_values and got.spine is None
            assert [got.payoff_min.hex(), got.payoff_max.hex()] == [want.payoff_min.hex(),
                                                                  want.payoff_max.hex()]
            assert result_bits(_result(tree, got, P)) == result_bits(level_walk_result(tree, want, P))

    @staticmethod
    def deep_trees():
        from anticipated_surprise import TimingRiskSpec, build_hazard_chain, build_timing_risk

        return [build_hazard_chain(0.03, 5_000),
                build_timing_risk(TimingRiskSpec(0.03, 5_000, 0.5, 10.0))]

    def test_deep_tree_to_dict(self):
        # dataclass and dict == recurse, so compare level by level with a stack
        for tree in self.deep_trees():
            pairs = [(tree, tree_to_dict(tree))]
            while pairs:
                node, doc = pairs.pop()
                if isinstance(node, Terminal):
                    assert doc == {"payoff": node.payoff}
                    continue
                weighted = node.surprise_weight != 1.0
                assert list(doc) == ["branches", "weight"][: 1 + weighted]
                assert doc.get("weight", 1.0) == node.surprise_weight
                assert len(doc["branches"]) == len(node.branches)
                for br, entry in zip(node.branches, doc["branches"]):
                    assert list(entry) == ["p", "node"] and entry["p"] == br.probability
                    pairs.append((br.child, entry["node"]))


class TestStageSurprises:
    def test_terminal_has_no_stages(self):
        assert stage_surprises(Terminal(0.7), P) == []
        result = evaluate(Terminal(0.7), P)
        assert result.total_surprise == 0.0
        assert result.utility == 0.7
        scaled = scaled_evaluation(Terminal(0.7), P, NoScaling()).scaled
        assert isinstance(result.total_surprise, float)
        assert isinstance(scaled.total_surprise, float)

    def test_single_stage_matches_direct_expectation(self):
        # one stage reduces to E(delta(x - E(x)))
        node = gamble(1.0, 0.0, 0.3)
        direct = 0.3 * surprise_kernel(0.7, P) + 0.7 * surprise_kernel(-0.3, P)
        assert stage_surprises(node, P) == [pytest.approx(direct, abs=1e-15)]
        # frozen from the trajectory oracle
        assert direct == pytest.approx(-0.13638150729909596, abs=1e-12)

    def test_gamble_closed_form(self):
        # p*(1-p)**a - k*(1-p)*p**a
        p = 0.3
        expected = p * 0.7**1.6 - 3.0 * 0.7 * p**1.6
        assert stage_surprises(gamble(1.0, 0.0, p), P)[0] == pytest.approx(expected, abs=1e-14)

    def test_two_stage_chain_frozen_oracle_values(self):
        # frozen from the trajectory-enumeration oracle at p=0.1
        ss = stage_surprises(chain(0.1, 2), P)
        assert ss == [
            pytest.approx(-0.19503987186834776, abs=1e-12),
            pytest.approx(-0.2077676354911478, abs=1e-12),
        ]

    def test_four_stage_chain_frozen_oracle_values(self):
        ss = stage_surprises(chain(0.03, 4), P)
        frozen = [
            -0.07099295072815873,
            -0.07230231232974854,
            -0.0736358231994859,
            -0.07499392873545743,
        ]
        assert ss == [pytest.approx(v, abs=1e-12) for v in frozen]

    def test_matches_trajectory_oracle_on_random_trees(self):
        rng = random.Random(20240811)
        for _ in range(40):
            tree = random_tree(rng, max_depth=3)
            got = stage_surprises(tree, P)
            want = trajectory_stage_surprises(tree, P)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a == pytest.approx(b, abs=1e-12)

    def test_zero_variance_node_contributes_nothing(self):
        node = Internal((Branch(0.4, Terminal(1.0)), Branch(0.6, Terminal(1.0))))
        assert stage_surprises(node, P) == [pytest.approx(0.0, abs=1e-15)]

    def test_surprise_weight_scales_own_stage_only(self):
        inner = gamble(1.0, 0.0, 0.5)
        plain = Internal((Branch(0.5, Terminal(1.0)), Branch(0.5, inner)))
        weighted = Internal((Branch(0.5, Terminal(1.0)), Branch(0.5, inner)), surprise_weight=3.0)
        sp = stage_surprises(plain, P)
        sw = stage_surprises(weighted, P)
        assert sw[0] == pytest.approx(3.0 * sp[0], rel=1e-15)
        assert sw[1] == pytest.approx(sp[1], rel=1e-15)


class TestMartingaleAndDecomposition:
    def test_martingale_property(self):
        rng = random.Random(7)
        trees = [random_tree(rng, max_depth=4) for _ in range(30)] + [chain(0.1, 6)]
        for tree in trees:
            stack = [tree]
            while stack:
                nd = stack.pop()
                if isinstance(nd, Terminal):
                    continue
                e0 = expected_value(nd)
                drift = sum(
                    br.probability * (expected_value(br.child) - e0) for br in nd.branches
                )
                assert abs(drift) <= 1e-12
                stack.extend(br.child for br in nd.branches)

    def test_total_is_sum_of_stages(self):
        rng = random.Random(99)
        for _ in range(20):
            tree = random_tree(rng, max_depth=4)
            result = evaluate(tree, P)
            assert result.total_surprise == pytest.approx(
                sum(result.stage_surprises), abs=1e-12
            )

    @pytest.mark.parametrize("params,scale,offset",
                             [(P, 1.0, 0.0), (ModelParams(k=5.0, alpha=2.2), 0.37, 0.25)])
    def test_spine_gives_a_fresh_reports_bits(self, params, scale, offset):
        """The spine on each nesting scheme's stacked report, evaluated at
        every node of its tree's path in shuffled order (so rows read jumps
        computed for others), gives the level walk's bits for that node's
        subtree."""
        from anticipated_surprise.cli import SCHEMES, SchemePoint

        rng = random.Random(13)
        # k_tr = 0 gives timing a stage of 0.0 * a negative jump: -0.0, which 0.0 + turns to 0.0
        points = [SchemePoint(name, p=0.03, n=30, p_tr=0.3, k_tr=k_tr, p_pr=0.6)
                  for name, entry in SCHEMES.items() if entry.nests_from is not None
                  for k_tr in (3.0, 0.0)]
        for point in points:
            _, report = SCHEMES[point.scheme].build(point)
            nodes, nd = [], scheme_tree(point)
            while isinstance(nd, Internal):
                nodes.append(nd)
                nd = nd.branches[-1].child
            assert len(nodes) == report.max_depth
            spine = Spine(report, params, scale)
            order = list(range(len(nodes)))
            rng.shuffle(order)
            for i in order:
                fresh = walk_report(nodes[i])
                want = level_walk_result(nodes[i], fresh, params, scale, offset)
                assert result_bits(spine.result(i, offset)) == result_bits(want)
                assert spine.values[i] == fresh.expected_value

    @pytest.mark.parametrize("mode", ["none", "full", "partial:0.6"])
    @pytest.mark.parametrize("params", [P, ModelParams(k=5.0, alpha=2.2, k2=10.0)],
                             ids=["default", "k5"])
    def test_one_shot_evaluation_gives_the_level_walks_bits(self, params, mode):
        """scaled_evaluation of every scheme's tree, a spine, down the flat
        path gives the level walk's bits, and so does the scheme's stacked
        report, which has no tree."""
        from anticipated_surprise.cli import SCHEMES, SchemePoint

        for name, entry in SCHEMES.items():
            for k_tr in (3.0, 0.0):
                point = SchemePoint(name, p=0.03, n=30, hi=2.0, lo=-1.0, p_tr=0.3, k_tr=k_tr,
                                    p_pr=0.6)
                tree = scheme_tree(point)
                report = walk_report(tree)
                got = scaled_evaluation(tree, params, parse_scaling_mode(mode))
                t = got.transform
                want = level_walk_result(tree, report, params, t.scale, t.offset)
                assert result_bits(got.scaled) == result_bits(want), name
                stacked = _scaled_evaluation(*entry.build(point), params, parse_scaling_mode(mode))
                assert result_bits(stacked.scaled) == result_bits(want), name
                assert validate(tree).spine is not None, name


class TestFileFormat:
    def test_round_trip(self):
        tree = Internal(
            (
                Branch(0.25, Terminal(2.0)),
                Branch(0.75, gamble(1.0, -1.0, 0.5)),
            ),
            surprise_weight=4.0,
        )
        again = tree_from_dict(tree_to_dict(tree))
        assert again == tree

    def test_load_tree(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(
            json.dumps(
                {
                    "branches": [
                        {"p": 0.3, "node": {"payoff": 1.0}},
                        {"p": 0.7, "node": {"payoff": 0.0}},
                    ]
                }
            )
        )
        node = load_tree(str(path))
        assert expected_value(node) == pytest.approx(0.3, abs=1e-15)

    def test_default_weight_omitted(self):
        d = tree_to_dict(gamble(1.0, 0.0, 0.5))
        assert "weight" not in d

    @pytest.mark.parametrize(
        "obj,match",
        [
            ({}, "payoff|branches"),
            ({"payoff": "x"}, "number"),
            ({"payoff": 1.0, "branches": []}, "both"),
            ({"branches": []}, "non-empty"),
            ({"branches": [{"p": 0.5}]}, "node"),
            ({"branches": [{"p": 1.0, "node": {"payoff": 0.0}}], "weight": "w"}, "weight"),
            (
                {"branches": [{"p": 1.0, "node": {"payoff": 0.0}}], "wieght": 10},
                "^root: unknown key 'wieght'",
            ),
            (
                {"branches": [{"p": 1.0, "node": {"payoff": 0.0}, "weight": 10}]},
                r"^root\.branches\[0\]: unknown key 'weight'",
            ),
            ({"payoff": 1.0, "weight": 2.0}, "^root: unknown key 'weight'"),
            (
                {"branches": [{"p": 1.0, "node": {"branches": [
                    {"p": 1.0, "node": {"payoff": 0.0, "note": "x"}}]}}]},
                r"^root\.branches\[0\]\.branches\[0\]: unknown key 'note'",
            ),
            ([], "^root: expected an object, got list$"),
            (
                {"branches": [{"p": "0.5", "node": {"payoff": 0.0}}]},
                r"^root\.branches\[0\]: 'p' must be a number, got '0.5'$",
            ),
            # an int past the float range, named by path but not printed:
            # repr of an int over 4,300 digits raises ValueError
            (
                {"branches": [{"p": 1.0, "node": {"payoff": 10**400}}]},
                r"^root\.branches\[0\]: payoff is an integer past the float range$",
            ),
            ({"payoff": -(10**4999)}, "^root: payoff is an integer past the float range$"),
            (
                {"branches": [{"p": 10**400, "node": {"payoff": 0.0}}]},
                r"^root\.branches\[0\]: 'p' is an integer past the float range$",
            ),
            (
                {"branches": [{"p": 1.0, "node": {"payoff": 0.0}}], "weight": 10**400},
                "^root: 'weight' is an integer past the float range$",
            ),
        ],
    )
    def test_malformed_documents_rejected(self, obj, match):
        with pytest.raises(ValidationError, match=match):
            tree_from_dict(obj)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="JSON"):
            load_tree(str(path))
