import json
import math

import pytest

from anticipated_surprise import ModelParams
from anticipated_surprise.cli import (
    FIGURE_FLAGS,
    FIGURES,
    POINT_FIELDS,
    SCHEMES,
    SchemePoint,
    _params_from,
    build_parser,
    dual_ratio_point,
    evaluate_point,
    figure_rows,
    flag,
    fmt,
    grid_points,
    main,
    timing_ratio_point,
)
from anticipated_surprise.scaling import NoScaling


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestFmt:
    def test_twelve_significant_digits(self):
        assert fmt(0.8852928099999999) == "0.88529281"
        assert fmt(1.0) == "1"
        assert fmt(0.30124947036718037) == "0.301249470367"

    def test_no_negative_zero(self):
        assert fmt(-0.0) == "0"


class TestGridPoints:
    def test_endpoints_exact(self):
        pts = grid_points(0.05, 0.95, 91)
        assert pts[0] == 0.05 and pts[-1] == 0.95 and len(pts) == 91

    def test_rejects_tiny_count(self):
        from anticipated_surprise import ValidationError

        with pytest.raises(ValidationError):
            grid_points(0.0, 1.0, 1)


class TestEval:
    def test_hazard_example(self, capsys):
        code, out, err = run(
            capsys,
            ["eval", "--scheme", "hazard", "--p", "0.03", "--n", "4",
             "--k", "3", "--alpha", "1.6", "--k2", "10"],
        )
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["scheme"] == "hazard"
        assert row["u0"] == "0.88529281"
        assert float(row["delta"]) == pytest.approx(-0.2919250149928511, abs=1e-9)

    def test_gamble_example(self, capsys):
        code, out, _ = run(
            capsys,
            ["eval", "--scheme", "gamble", "--hi", "1", "--lo", "0", "--p", "0.5",
             "--k", "3", "--alpha", "1.6", "--k2", "2"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["utility"]) == pytest.approx(0.3012, abs=1e-4)

    def test_tree_scheme_single_terminal(self, capsys, tmp_path):
        path = tmp_path / "deterministic.json"
        path.write_text(json.dumps({"payoff": 0.7}))
        code, out, _ = run(capsys, ["eval", "--scheme", f"tree:{path}"])
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["utility"] == "0.7" and row["delta"] == "0"

    def test_scaling_flag(self, capsys):
        code, out, _ = run(
            capsys,
            ["eval", "--scheme", "gamble", "--hi", "1", "--lo", "-1", "--p", "0.5",
             "--scaling", "full"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["utility"]) == pytest.approx(-0.3975, abs=1e-4)
        assert row["u0"] == "0"  # raw expected value

    def test_large_payoffs_under_full_scaling(self, capsys):
        # unscaled, this gamble's utility overflows: exp(2 * ~997)
        code, out, _ = run(
            capsys,
            ["eval", "--scheme", "gamble", "--hi", "1e5", "--lo", "0", "--p", "1e-5",
             "--scaling", "full"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["utility"]) == pytest.approx(1.00001993988, rel=1e-9)

    def test_large_payoffs_unscaled_overflow_exits_2(self, capsys):
        code, out, err = run(
            capsys, ["eval", "--scheme", "gamble", "--hi", "1e5", "--lo", "0", "--p", "1e-5"]
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--scaling full" in err and "partial:<gamma>" in err

    def test_missing_flag_is_validation_failure(self, capsys):
        code, _, err = run(capsys, ["eval", "--scheme", "hazard", "--p", "0.03"])
        assert code == 2
        assert "requires --n" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--scheme", "hazard", "--p", "0.03", "--n", "4.5"],
            ["eval", "--scheme", "hazard", "--p", "0.03", "--n", "nan"],
            ["eval", "--scheme", "hazard", "--p", "0.03", "--n", "inf"],
            ["sweep", "--scheme", "hazard", "--p", "0.03", "--target", "n", "--values", "nan"],
            ["sweep", "--scheme", "hazard", "--p", "0.03", "--target", "n", "--values", "1e400"],
            ["figure", "fig5-right", "--n", "4.5", "--out", "-"],
            ["figure", "fig7", "--n", "nan", "--out", "-"],
        ],
    )
    def test_non_whole_n_is_validation_failure(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "whole number" in err

    @pytest.mark.parametrize(
        "scheme,field",
        [(name, field) for name, entry in SCHEMES.items() for field in entry.fields
         if field != "k_tr"],
    )
    def test_each_required_flag_is_reported(self, capsys, scheme, field):
        values = {"p": "0.03", "n": "4", "hi": "1", "lo": "0", "p_tr": "0.5", "p_pr": "0.7"}
        argv = ["eval", "--scheme", scheme]
        for name in SCHEMES[scheme].fields:
            if name not in (field, "k_tr"):
                argv += ["--" + name.replace("_", "-"), values[name]]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert err == f"error: scheme {scheme!r} requires --{field.replace('_', '-')}\n"

    def test_bad_probability_is_validation_failure(self, capsys):
        code, _, err = run(capsys, ["eval", "--scheme", "hazard", "--p", "1.5", "--n", "4"])
        assert code == 2 and err.startswith("error:")

    def test_unknown_scheme(self, capsys):
        code, _, err = run(capsys, ["eval", "--scheme", "lottery"])
        assert code == 2 and "unknown scheme" in err

    def test_missing_tree_file_is_io_failure(self, capsys):
        code, _, err = run(capsys, ["eval", "--scheme", "tree:/no/such/file.json"])
        assert code == 1

    def test_tree_file_too_deep_to_parse_is_validation_failure(self, capsys, tmp_path):
        depth = 2000
        head = '{"branches": [{"p": 0.1, "node": {"payoff": 0.0}}, {"p": 0.9, "node": ' * depth
        path = tmp_path / "deep.json"
        path.write_text(head + '{"payoff": 1.0}' + "}]}" * depth)
        code, out, err = run(capsys, ["eval", "--scheme", f"tree:{path}"])
        assert code == 2 and out == ""
        assert err == f"error: {path}: tree nested too deep to parse\n"


class TestFigures:
    @pytest.mark.parametrize(
        "fig_id,x_name,n_cols,n_rows",
        [
            ("fig1", "p", 2, 99),
            ("fig3-left", "n", 3, 50),
            ("fig3-right", "n", 4, 50),
            ("fig5-left", "n", 3, 11),
            ("fig5-right", "p_tr", 3, 91),
            ("fig7", "p_pr", 4, 70),
            ("figA1", "n", 3, 50),
            ("figA2", "p_pr", 4, 95),
            ("figA3", "p", 4, 50),
        ],
    )
    def test_shapes(self, fig_id, x_name, n_cols, n_rows):
        header, rows = figure_rows(fig_id)
        assert header[0] == x_name
        assert len(header) == n_cols
        assert len(rows) == n_rows
        assert all(len(r) == n_cols for r in rows)
        assert all(math.isfinite(cell) for row in rows for cell in row)

    def test_fig3_right_reference_curves(self):
        header, rows = figure_rows("fig3-right")
        at10 = rows[9]
        assert at10[0] == 10.0
        assert at10[1] > math.exp(-3.0)           # above the exponential
        assert abs(at10[1] - at10[3]) / at10[3] < 0.1  # near the hyperbolic

    def test_fig5_left_ordering(self):
        _, rows = figure_rows("fig5-left")
        assert all(r[1] < 1.0 for r in rows)   # emphasized reveal: averse
        assert all(r[2] > 1.0 for r in rows)   # ignored reveal: mild preference

    def test_fig7_scheme_split(self):
        _, rows = figure_rows("fig7")
        on_range = [r for r in rows if r[0] <= 0.75]
        assert all(r[1] > 1.0 for r in on_range)
        assert all(r[2] > 1.0 for r in on_range)
        assert all(r[3] < 1.0 for r in on_range)

    def test_figA3_modes(self):
        _, rows = figure_rows("figA3")
        first = rows[0]  # p = 0.01
        assert first[1] > 2.0
        assert 0.9 < first[2] < 1.1
        assert 1.2 < first[3] < 1.5

    def test_writes_file_and_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["figure", "fig7", "--out", str(a)]) == 0
        assert main(["figure", "fig7", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_default_output_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["figure", "fig1"]) == 0
        capsys.readouterr()
        assert (tmp_path / "fig1.csv").exists()

    def test_stdout_output(self, capsys):
        code, out, _ = run(capsys, ["figure", "fig1", "--out", "-"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["p", "utility"]
        assert len(rows) == 99

    def test_io_failure_exit_code(self, capsys):
        code, _, err = run(capsys, ["figure", "fig1", "--out", "/no/such/dir/f.csv"])
        assert code == 1 and err.startswith("i/o error:")

    def test_override_changes_output(self):
        base = figure_rows("fig1")
        tweaked = figure_rows("fig1", {"k": 4.0})
        assert base != tweaked

    def test_pointwise_consistency_with_eval(self, capsys):
        # figure cells must be exactly what eval prints for those points
        header, rows = figure_rows("fig1")
        for i in (0, 24, 49, 74, 98):
            p = grid_points(0.01, 0.99, 99)[i]
            code, out, _ = run(
                capsys,
                ["eval", "--scheme", "gamble", "--hi", "1", "--lo", "0",
                 "--p", repr(p), "--k2", "2"],
            )
            assert code == 0
            hdr, rws = parse_csv(out)
            assert dict(zip(hdr, rws[0]))["utility"] == fmt(rows[i][1])


class TestSweep:
    def test_two_point_grid(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--scheme", "hazard", "--p", "0.03", "--target", "n",
             "--grid", "1:2:2"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "u0", "delta", "utility"]
        assert len(rows) == 2

    def test_explicit_values(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--scheme", "gamble", "--hi", "1", "--lo", "0",
             "--target", "p", "--values", "0.2,0.5,0.8"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["0.2", "0.5", "0.8"]

    def test_hazard_n_sweep_reproduces_fig3_right(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--scheme", "hazard", "--p", "0.03", "--k2", "10",
             "--target", "n", "--grid", "1:50:50"],
        )
        assert code == 0
        _, sweep_rows_ = parse_csv(out)
        _, fig = figure_rows("fig3-right")
        assert [r[3] for r in sweep_rows_] == [fmt(r[1]) for r in fig]

    def test_timing_p_tr_sweep_reproduces_fig5_right(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--scheme", "timing", "--p", "0.03", "--n", "4",
             "--k-tr", "10", "--k2", "10", "--target", "p-tr",
             "--grid", "0.05:0.95:91"],
        )
        assert code == 0
        header, sweep_rows_ = parse_csv(out)
        assert header[-1] == "timing_ratio"
        _, fig = figure_rows("fig5-right")
        assert [r[-1] for r in sweep_rows_] == [fmt(r[1]) for r in fig]

    def test_dual_p_pr_sweep_reproduces_fig7(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--scheme", "dual-a-after", "--p", "0.03", "--n", "4",
             "--k2", "10", "--k2-prob", "2", "--target", "p-pr",
             "--grid", "0.3:0.99:70"],
        )
        assert code == 0
        header, sweep_rows_ = parse_csv(out)
        assert header[-1] == "discount_ratio"
        _, fig = figure_rows("fig7")
        assert [r[-1] for r in sweep_rows_] == [fmt(r[1]) for r in fig]

    def test_target_scheme_mismatch(self, capsys):
        code, _, err = run(
            capsys,
            ["sweep", "--scheme", "hazard", "--p", "0.03", "--target", "p-pr",
             "--grid", "0.1:0.9:5"],
        )
        assert code == 2 and "does not apply" in err

    def test_grid_and_values_conflict(self, capsys):
        code, _, err = run(
            capsys,
            ["sweep", "--scheme", "hazard", "--p", "0.03", "--target", "n",
             "--grid", "1:5:5", "--values", "1,2"],
        )
        assert code == 2

    def test_missing_grid(self, capsys):
        code, _, err = run(capsys, ["sweep", "--scheme", "hazard", "--p", "0.03",
                                    "--target", "n"])
        assert code == 2 and "requires" in err

    def test_fractional_n_rejected(self, capsys):
        code, _, err = run(
            capsys,
            ["sweep", "--scheme", "hazard", "--p", "0.03", "--target", "n",
             "--grid", "1:2:3"],
        )
        assert code == 2 and "whole numbers" in err

    def test_deterministic_output(self, capsys):
        argv = ["sweep", "--scheme", "dual-b", "--p", "0.03", "--n", "4",
                "--k2", "10", "--target", "p-pr", "--grid", "0.3:0.9:13"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


#: A valid value for each point flag and for --k2-prob.
VALUES = {"p": "0.03", "n": "4", "hi": "1", "lo": "0", "p_tr": "0.5", "k_tr": "2",
          "p_pr": "0.7", "k2_prob": "3"}


def flags_for(names):
    argv = []
    for name in names:
        argv += [flag(name), VALUES[name]]
    return argv


def scheme_argv(command, scheme):
    """A valid eval or sweep of scheme, every flag it reads given."""
    argv = [command, "--scheme", scheme, *flags_for(SCHEMES[scheme].fields)]
    if command == "sweep":
        argv += ["--target", "p", "--values", "0.02,0.04"]
    return argv


class TestUnreadFlags:
    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize(
        "scheme,name",
        [(scheme, name) for scheme, entry in SCHEMES.items() for name in POINT_FIELDS
         if name not in entry.fields],
    )
    def test_scheme_rejects_unread_flag(self, capsys, command, scheme, name):
        assert run(capsys, scheme_argv(command, scheme))[0] == 0
        code, out, err = run(capsys, [*scheme_argv(command, scheme), *flags_for([name])])
        assert code == 2 and out == ""
        assert err == f"error: scheme {scheme!r} does not read {flag(name)}\n"

    @pytest.mark.parametrize("name", POINT_FIELDS)
    def test_tree_file_reads_no_point_flag(self, capsys, tmp_path, name):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"payoff": 0.7}))
        code, out, err = run(capsys, ["eval", "--scheme", f"tree:{path}", *flags_for([name])])
        assert code == 2 and out == ""
        assert err == f"error: scheme 'tree:{path}' does not read {flag(name)}\n"

    @pytest.mark.parametrize(
        "fig_id,name",
        [(fig_id, name) for fig_id, reads in FIGURES.items() for name in FIGURE_FLAGS
         if name not in reads],
    )
    def test_figure_rejects_unread_flag(self, capsys, fig_id, name):
        code, out, err = run(capsys, ["figure", fig_id, "--out", "-", *flags_for([name])])
        assert code == 2 and out == ""
        assert err == f"error: figure {fig_id!r} does not read {flag(name)}\n"

    @pytest.mark.parametrize(
        "argv,flags",
        [
            (["eval", "--scheme", "dual-a-before", "--p", "0.03", "--n", "4", "--p-pr", "0.7",
              "--k-tr", "3"], "--k-tr"),
            (["eval", "--scheme", "hazard", "--p", "0.03", "--n", "4", "--hi", "5",
              "--p-tr", "0.2"], "--hi, --p-tr"),
            (["figure", "fig1", "--p", "0.5"], "--p"),
        ],
    )
    def test_reported_invocations(self, capsys, tmp_path, monkeypatch, argv, flags):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and list(tmp_path.iterdir()) == []
        assert err.startswith("error: ") and err.endswith(f" does not read {flags}\n")

    def test_eval_has_no_k2_prob(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--scheme", "dual-b", "--p", "0.03", "--n", "4", "--p-pr", "0.7",
                  "--k2-prob", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --k2-prob" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("target", POINT_FIELDS)
    def test_sweep_targets_are_the_scheme_fields(self, capsys, scheme, target):
        values = {"n": "2,3"}.get(target, "0.2,0.4")
        argv = ["sweep", "--scheme", scheme, *flags_for(SCHEMES[scheme].fields),
                "--target", flag(target)[2:], "--values", values]
        code, out, err = run(capsys, argv)
        if target in SCHEMES[scheme].fields:
            assert code == 0 and err == ""
            header, rows = parse_csv(out)
            assert header[0] == target and [r[0] for r in rows] == values.split(",")
        else:
            assert code == 2 and out == "" and "does not apply" in err

    def test_model_flags_default_to_model_params(self):
        for command in (["eval", "--scheme", "hazard"], ["sweep", "--scheme", "hazard",
                                                         "--target", "n"]):
            assert _params_from(build_parser().parse_args(command)) == ModelParams()


class TestUndefinedRatio:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--scheme", "dual-a-after", "--p", "0.99", "--n", "400", "--p-pr", "0.5",
             "--target", "p-pr", "--values", "0.5"],
            ["sweep", "--scheme", "timing", "--p", "0.99", "--n", "400", "--p-tr", "0.5",
             "--target", "p-tr", "--values", "0.5"],
            ["figure", "fig7", "--p", "0.99", "--n", "400"],
            ["figure", "fig5-right", "--p", "0.99", "--n", "400"],
        ],
    )
    def test_zero_reference_utility_exits_2(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and list(tmp_path.iterdir()) == []
        assert err == "error: ratio undefined at p=0.99, n=400: its reference utility underflows to 0\n"


class TestHelpers:
    def test_timing_ratio_point_matches_library(self):
        from anticipated_surprise import TimingRiskSpec, timing_ratio

        params = ModelParams(k2=10.0)
        point = SchemePoint("timing", p=0.03, n=4, p_tr=0.5, k_tr=10.0)
        got = timing_ratio_point(point, params)
        want = timing_ratio(TimingRiskSpec(0.03, 4, 0.5, 10.0), params)
        assert got == pytest.approx(want, abs=1e-9)

    def test_dual_ratio_point_matches_library(self):
        from anticipated_surprise import DualRiskSpec, DualScheme, discount_ratio

        params = ModelParams(k2=10.0)
        point = SchemePoint("dual-a-after", p=0.03, n=4, p_pr=0.7)
        got = dual_ratio_point(point, params, 2.0)
        want = discount_ratio(DualRiskSpec(0.03, 4, 0.7, DualScheme.SEPARATE_AFTER, 2.0), params)
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize(
        "point",
        [
            SchemePoint("gamble", hi=2.0, lo=-1.0, p=0.3),
            SchemePoint("hazard", p=0.03, n=50),
            SchemePoint("timing", p=0.03, n=4, p_tr=0.5, k_tr=10.0),
            SchemePoint("dual-a-before", p=0.03, n=4, p_pr=0.7),
        ],
    )
    @pytest.mark.parametrize("mode", ["none", "full", "partial:0.5"])
    def test_evaluate_point_walks_each_tree_once(self, monkeypatch, point, mode):
        from anticipated_surprise import scaling, tree
        from anticipated_surprise.scaling import parse_scaling_mode

        calls = []
        original = tree.validate

        def counting(node):
            calls.append(node)
            return original(node)

        for module in (tree, scaling):
            monkeypatch.setattr(module, "validate", counting)
        evaluate_point(point, ModelParams(), parse_scaling_mode(mode))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv,walks",
        [
            (["--scheme", "timing", "--p-tr", "0.5", "--k-tr", "10"], 5),
            (["--scheme", "dual-a-after", "--p-pr", "0.7"], 15),
            # scaled rows are no use to the unscaled ratio: it walks its own tree
            (["--scheme", "timing", "--p-tr", "0.5", "--scaling", "full"], 10),
            (["--scheme", "dual-a-after", "--p-pr", "0.7", "--scaling", "partial:0.5"], 20),
        ],
    )
    def test_sweep_walks_each_tree_once_per_row(self, monkeypatch, capsys, argv, walks):
        from anticipated_surprise import scaling, tree

        calls = []
        original = tree.validate

        def counting(node):
            calls.append(node)
            return original(node)

        for module in (tree, scaling):
            monkeypatch.setattr(module, "validate", counting)
        code, out, _ = run(capsys, ["sweep", *argv, "--p", "0.03", "--target", "n",
                                    "--values", "2,3,4,5,6"])
        assert code == 0 and len(out.strip().split("\n")) == 6
        assert len(calls) == walks

    def test_evaluate_point_u0_is_raw(self):
        point = SchemePoint("gamble", hi=10.0, lo=-10.0, p=0.5)
        u0, _, _ = evaluate_point(point, ModelParams(), NoScaling())
        assert u0 == 0.0
