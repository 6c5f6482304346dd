import itertools
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from anticipated_surprise import (Internal, ModelParams, Terminal, ValidationError,
                                  build_binary_gamble, evaluate, load_tree, validate)
from anticipated_surprise.cli import (
    FIGURE_FLAGS,
    FIGURES,
    POINT_FIELDS,
    SCHEMES,
    SchemePoint,
    _params_from,
    build_parser,
    evaluate_grid,
    evaluate_point,
    figure_rows,
    flag,
    fmt,
    grid_points,
    main,
    sweep_rows,
)
from anticipated_surprise.scaling import NoScaling, parse_scaling_mode
from conftest import NESTING, level_walk_result


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
        # a gain's z**alpha raises OverflowError; a loss's -k*|z|**alpha
        # overflows to -inf without raising, and must be reported alike
        for hi, p in (("1e5", "1e-5"), ("7e192", "0.5")):
            code, out, err = run(
                capsys, ["eval", "--scheme", "gamble", "--hi", hi, "--lo", "0", "--p", p]
            )
            assert code == 2 and out == ""
            assert err.startswith("error: numeric overflow") and err.count("\n") == 1
            assert "--scaling full" in err and "partial:<gamma>" in err

    @pytest.mark.parametrize("scaling", ["full", "partial:0.5"])
    def test_payoff_range_past_the_float_range_names_the_range(self, capsys, scaling):
        # hi - lo overflows to inf; the scale it would give was never the user's
        code, out, err = run(capsys, ["eval", "--scheme", "gamble", "--hi", "1.5e308",
                                      "--lo=-1.5e308", "--p", "0.5", "--scaling", scaling])
        assert (code, out) == (2, "")
        assert err == ("error: payoff range [-1.5e+308, 1.5e+308] is wider than a float holds; "
                       "scaling needs hi - lo finite\n")

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

    def test_non_finite_k_tr_says_finite(self, capsys):
        code, out, err = run(capsys, ["eval", "--scheme", "timing", "--p", "0.03", "--n", "4",
                                      "--p-tr", "0.5", "--k-tr", "nan"])
        assert (code, out, err) == (2, "", "error: k_tr must be finite and >= 0, got nan\n")

    def test_unknown_scheme(self, capsys):
        code, _, err = run(capsys, ["eval", "--scheme", "lottery"])
        assert code == 2 and "unknown scheme" in err

    def test_tree_scheme_without_path_exits_2(self, capsys):
        code, out, err = run(capsys, ["eval", "--scheme", "tree:"])
        assert (code, out, err) == (2, "", "error: tree scheme needs a path: tree:<path>\n")

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

    def test_tree_file_not_utf8_is_validation_failure(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"caf\u00e9": 1.0}'.encode("latin-1"))
        code, out, err = run(capsys, ["eval", "--scheme", f"tree:{path}"])
        assert (code, out, err) == (2, "", f"error: {path}: not UTF-8 text: invalid continuation byte\n")

    def test_tree_file_integer_past_int_digit_limit_is_validation_failure(self, capsys, tmp_path):
        # int() refuses literals over 4,300 digits; read as a float it is inf
        path = tmp_path / "long.json"
        path.write_text('{"payoff": ' + "1" * 5000 + "}")
        code, out, err = run(capsys, ["eval", "--scheme", f"tree:{path}"])
        assert (code, out, err) == (2, "", "error: root: payoff must be finite, got inf\n")

    def test_tree_file_with_two_faults_names_the_first_met(self, capsys, tmp_path):
        # the walk goes depth first in branch order: branch 0's subtree comes
        # before the payoff of branch 2
        path = tmp_path / "two-faults.json"
        path.write_text('{"branches": [{"p": 0.5, "node": {"branches": [{"p": 1.5, "node": '
                        '{"payoff": 1}}]}}, {"p": 0.25, "node": {"payoff": 0}}, '
                        '{"p": 0.25, "node": {"payoff": 1e400}}]}')
        code, out, err = run(capsys, ["eval", "--scheme", f"tree:{path}"])
        assert (code, out, err) == (
            2, "", "error: root.branches[0].branches[0]: probability must lie in (0, 1], got 1.5\n")

    @pytest.mark.parametrize("mode", ["none", "full"])
    def test_tree_file_whose_expected_value_overflows_names_the_node(self, capsys, tmp_path, mode):
        # two finite terms whose sum passes the float range (the root is renormalized)
        path = tmp_path / "overflow.json"
        path.write_text('{"branches": [{"p": 0.5, "node": {"payoff": 1.7976931348623157e308}}, '
                        '{"p": 0.5000000000004, "node": {"payoff": 1.7976931348623157e308}}]}')
        code, out, err = run(capsys, ["eval", "--scheme", f"tree:{path}", "--scaling", mode])
        assert (code, out, err) == (
            2, "", "error: root: expected value overflows the float range\n")

    def test_bushy_tree_file_kernel_error_is_the_first_met_depth_first(self, capsys, tmp_path):
        # under scale 1e-310 root.branches[0].branches[0]'s jump is +inf and
        # root.branches[1]'s is -inf; every other jump is 0.  Depth first meets
        # the deeper node first, where a level walk met root.branches[1] first.
        path = tmp_path / "bushy.json"
        gamble = '{"branches": [{"p": 0.5, "node": {"payoff": %s}}, {"p": 0.5, "node": {"payoff": %s}}]}'
        path.write_text('{"branches": [{"p": 0.5, "node": {"branches": [{"p": 0.5, "node": %s}, '
                        '{"p": 0.5, "node": {"payoff": 0}}]}}, {"p": 0.5, "node": %s}]}'
                        % (gamble % (1, -1), gamble % (-1, 1)))
        code, out, err = run(capsys, ["eval", "--scheme", f"tree:{path}", "--scaling", "scale:1e-310"])
        assert (code, out, err) == (2, "", "error: expectation error must be finite, got inf\n")
        tree = load_tree(str(path))
        with pytest.raises(ValidationError, match="got -inf$"):
            level_walk_result(tree, validate(tree), ModelParams(), 1e-310)

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"payoff": 1%s}', "root: payoff must be finite, got inf"),
            ('{"payoff": -1%s}', "root: payoff must be finite, got -inf"),
            ('{"branches": [{"p": 1%s, "node": {"payoff": 1}}]}',
             "root.branches[0]: probability must lie in (0, 1], got inf"),
            ('{"branches": [{"p": 1, "node": {"payoff": 1}}], "weight": 1%s}',
             "root: surprise_weight must be finite and >= 0, got inf"),
        ],
    )
    def test_tree_file_integer_past_float_range_is_validation_failure(
        self, capsys, tmp_path, text, message
    ):
        path = tmp_path / "huge.json"
        path.write_text(text % ("0" * 400))
        code, out, err = run(capsys, ["eval", "--scheme", f"tree:{path}"])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_integer_payoffs_read_as_the_floats_they_round_to(self, capsys, tmp_path):
        def row(text):
            path = tmp_path / "tree.json"
            path.write_text(text)
            code, out, _ = run(capsys, ["eval", "--scheme", f"tree:{path}", "--scaling", "full"])
            assert code == 0
            return out.split("\n")[1].split(",", 1)[1]

        big = 2**60 + 1  # rounds to 2**60 as a float
        ints = '{"branches": [{"p": 0.5, "node": {"payoff": %d}}, {"p": 0.5, "node": {"payoff": 1}}]}'
        floats = '{"branches": [{"p": 0.5, "node": {"payoff": %r}}, {"p": 0.5, "node": {"payoff": 1.0}}]}'
        assert row(ints % big) == row(floats % float(big))

    @pytest.mark.parametrize("name,field", [("a,b.json", '"tree:a,b.json"'),
                                            ('say "hi".json', '"tree:say ""hi"".json"')])
    def test_eval_quotes_a_field_holding_a_comma_or_quote(self, capsys, tmp_path, monkeypatch,
                                                          name, field):
        import csv

        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text('{"payoff": 0.5}')
        code, out, _ = run(capsys, ["eval", "--scheme", f"tree:{name}"])
        assert code == 0 and out.split("\n")[1].startswith(field + ",")
        header, row = csv.reader(out.splitlines())
        assert len(row) == len(header) == 17 and row[0] == f"tree:{name}"


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

    def test_unknown_id_rejected(self):
        # the command line's choices stop it first; the library call checks too
        with pytest.raises(ValidationError, match="unknown figure id 'fig2'; expected one of fig1, "):
            figure_rows("fig2")

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


GAMBLE_LO_SWEEP = ["sweep", "--scheme", "gamble", "--hi", "1", "--lo", "0", "--p", "0.5",
                   "--target", "lo"]


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

    def test_tree_file_sweep_names_its_scheme(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"payoff": 0.7}))
        code, out, err = run(capsys, ["sweep", "--scheme", f"tree:{path}", "--target", "n",
                                      "--values", "1,2"])
        assert (code, out) == (2, "")
        assert err == f"error: target 'n' does not apply to scheme 'tree:{path}'\n"

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

    @pytest.mark.parametrize(
        "grid,message",
        [
            ("3:3:2", "grid endpoints must be finite and distinct, got 3.0:3.0"),
            ("1:2:1", "grid count must be an integer >= 2, got 1"),
            ("nan:1:3", "grid endpoints must be finite and distinct, got nan:1.0"),
        ],
    )
    def test_well_formed_bad_grid_keeps_its_message(self, capsys, grid, message):
        code, out, err = run(
            capsys,
            ["sweep", "--scheme", "hazard", "--p", "0.03", "--target", "n", "--grid", grid],
        )
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_fractional_n_rejected(self, capsys):
        code, _, err = run(
            capsys,
            ["sweep", "--scheme", "hazard", "--p", "0.03", "--target", "n",
             "--grid", "1:2:3"],
        )
        assert code == 2 and "whole numbers" in err

    @pytest.mark.parametrize(
        "argv,los",
        [
            (["eval", "--scheme", "gamble", "--hi", "1", "--lo=-1e3", "--p", "0.5"], ["-1000"]),
            ([*GAMBLE_LO_SWEEP, "--values=-2,-1"], ["-2", "-1"]),
            ([*GAMBLE_LO_SWEEP, "--grid=-3:-1:3"], ["-3", "-2", "-1"]),
        ],
    )
    def test_negative_values_in_equals_form(self, capsys, argv, los):
        # argparse reads "-1e3", "-2,-1" or "-3:-1:3" after a space as a
        # flag; the --flag=value form always reads it as the value
        code, out, err = run(capsys, argv)
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        for row, lo in zip(rows, los, strict=True):
            cells = dict(zip(header, row))
            assert cells["lo"] == lo and cells["u0"] == fmt(0.5 + 0.5 * float(lo))
            tree = build_binary_gamble(1.0, float(lo), 0.5)
            assert cells["utility"] == fmt(evaluate(tree, ModelParams()).utility)

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
    @pytest.mark.parametrize(
        "scheme,name,command",
        [(scheme, name, command) for scheme, entry in SCHEMES.items() for name in POINT_FIELDS
         if name not in entry.fields for command in ("eval", "sweep")]
        + [(scheme, "k2_prob", "sweep") for scheme, entry in SCHEMES.items()
           if "k2_prob" not in entry.ratio_flags],
    )
    def test_scheme_rejects_unread_flag(self, capsys, scheme, name, command):
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
        [(fig_id, name) for fig_id, fig in FIGURES.items() for name in FIGURE_FLAGS
         if name not in fig.reads],
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

    @pytest.mark.parametrize("scheme", ["dual-a-after", "dual-a-before", "dual-b"])
    def test_dual_sweep_reads_k2_prob(self, capsys, scheme):
        argv = scheme_argv("sweep", scheme)
        code, default, err = run(capsys, argv)
        assert code == 0 and err == ""
        assert run(capsys, [*argv, "--k2-prob", "2"]) == (0, default, "")
        code, out, err = run(capsys, [*argv, "--k2-prob", "5"])
        assert code == 0 and out != default

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_k2_prob_names_the_flag(self, capsys, tmp_path, monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        for argv in (scheme_argv("sweep", "dual-b"), ["figure", "fig7"], ["figure", "figA2"]):
            code, out, err = run(capsys, [*argv, "--k2-prob", value])
            assert code == 2 and out == "" and list(tmp_path.iterdir()) == []
            assert err == f"error: --k2-prob must be finite and >= 0, got {float(value)!r}\n"

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


class TestParser:
    def test_main_builds_its_parser_once(self, monkeypatch, capsys):
        from anticipated_surprise import cli

        built = []

        def counting():
            built.append(build_parser())
            return built[-1]

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting)
        for argv in (["eval", "--scheme", "hazard", "--p", "0.03", "--n", "4"],
                     ["figure", "fig1", "--out", "-"],
                     ["sweep", "--scheme", "hazard", "--p", "0.03", "--target", "n", "--values", "2"],
                     ["eval", "--scheme", "hazard", "--p", "0.03", "--n", "5"]):
            assert run(capsys, argv)[0] == 0
        assert len(built) == 1

    def test_a_usage_error_leaves_the_parser_usable(self, capsys):
        argv = ["eval", "--scheme", "hazard", "--p", "0.03", "--n", "4"]
        want = run(capsys, argv)
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--scheme", "hazard", "--p", "0.03", "--bogus", "1"])
        assert exc.value.code == 2 and "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert run(capsys, argv) == want

    def test_a_flag_does_not_carry_to_the_next_call(self, capsys):
        argv = ["eval", "--scheme", "hazard", "--p", "0.03", "--n", "4"]
        for k, want in (("5", "5"), (None, "3")):
            code, out, _ = run(capsys, argv + (["--k", k] if k else []))
            header, rows = parse_csv(out)
            assert code == 0 and dict(zip(header, rows[0]))["k"] == want

    @pytest.mark.parametrize("command", [[], ["eval"], ["figure"], ["sweep"]])
    def test_help_matches_a_fresh_parsers(self, capsys, command):
        run(capsys, ["eval", "--scheme", "hazard", "--p", "0.03", "--n", "4", "--k", "5"])
        helps = []
        for parse in (main, build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse([*command, "--help"])
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1] and "usage: anticipated-surprise" in helps[0]


class TestUndefinedRatio:
    @pytest.mark.parametrize(
        "argv, row",
        [
            (["sweep", "--scheme", "dual-a-after", "--p", "0.99", "--n", "400", "--p-pr", "0.5",
              "--target", "p-pr", "--values", "0.5"], "p_pr=0.5"),
            (["sweep", "--scheme", "timing", "--p", "0.99", "--n", "400", "--p-tr", "0.5",
              "--target", "p-tr", "--values", "0.5"], "p_tr=0.5, k_tr=1.0"),
            # each figure stops at its grid's first value, in its first series
            (["figure", "fig7", "--p", "0.99", "--n", "400"], "p_pr=0.3"),
            (["figure", "fig5-right", "--p", "0.99", "--n", "400"], "p_tr=0.05, k_tr=10.0"),
        ],
        ids=[f"argv{i}" for i in range(4)],
    )
    def test_zero_reference_utility_exits_2(self, capsys, tmp_path, monkeypatch, argv, row):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and list(tmp_path.iterdir()) == []
        assert err == (f"error: ratio undefined at p=0.99, n=400, {row}: its reference utility "
                       "underflows to 0\n")

    def test_subnormal_utility_exits_2(self, capsys):
        # q**n stalls among the subnormals past ~23,300 levels at p=0.03
        argv = ["sweep", "--scheme", "dual-a-after", "--p", "0.03", "--p-pr", "0.5",
                "--target", "n", "--values", "20000,23500,30000"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ratio undefined at p=0.03, n=23500, p_pr=0.5: its utility "
                              "underflows to the subnormal 6.83") and err.count("\n") == 1


class TestSubnormalColumns:
    """A printed u0 or utility below the smallest normal float exits 2: a
    deep chain's value stalls among the subnormals instead of shrinking."""

    @pytest.mark.parametrize(
        "argv, line",
        [
            # q**n is about 1e-397, yet the tree's value stalls at 8e-323
            (["eval", "--scheme", "hazard", "--p", "0.03", "--n", "30000"],
             "u0 at p=0.03, n=30000 underflows to the subnormal 8e-323"),
            (["eval", "--scheme", "gamble", "--hi", "1e-320", "--lo", "0", "--p", "0.5"],
             "u0 at hi=1e-320, lo=0.0, p=0.5 underflows to the subnormal 5e-321"),
            # the 20,000 row is normal; the 24,000 row is off by 2e-6 relative
            (["sweep", "--scheme", "hazard", "--p", "0.03", "--target", "n",
              "--values", "20000,24000,30000"],
             "u0 at p=0.03, n=24000 underflows to the subnormal 3.3237e-318"),
            (["sweep", "--scheme", "hazard", "--n", "24000", "--target", "p", "--values",
              "0.01,0.03", "--scaling", "full"],
             "u0 at p=0.03, n=24000 underflows to the subnormal 3.3237e-318"),
            (["figure", "fig3-right", "--p", "0.99999999", "--out", "-"],
             "u0 at p=0.99999999, n=39 underflows to the subnormal 1.000000195965e-312"),
            (["figure", "figA3", "--k", "1e155", "--k2", "1e155", "--out", "-"],
             "utility_partial at hi=100.0, lo=0.0, p=0.01 underflows to the subnormal "
             "1.0101010101010137e-308"),
        ],
    )
    def test_exits_2_naming_column_row_and_value(self, capsys, argv, line):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", f"error: {line}\n")

    def test_tree_file_row_is_named_by_its_path(self, capsys, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text('{"payoff": 1e-320}')
        code, out, err = run(capsys, ["eval", "--scheme", f"tree:{path}"])
        assert (code, out) == (2, "")
        assert err == f"error: u0 at tree:{path} underflows to the subnormal 1e-320\n"

    def test_subnormal_delta_prints(self, capsys):
        # only u0 and utility are refused
        code, out, err = run(capsys, ["eval", "--scheme", "gamble", "--hi", "1e-200", "--lo", "0",
                                      "--p", "0.5"])
        assert (code, err) == (0, "")
        assert out.splitlines()[1].endswith(",none,5e-201,-3.30035851422e-321,5e-201")


def test_exhausted_memory_exits_2_with_one_line():
    """Run in a child process that limits its own address space."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no address-space limit on this platform")
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))\n"
             "from anticipated_surprise.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", child, "eval", "--scheme", "hazard", "--p", "0.03", "--n", "1e7"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: out of memory: ") and proc.stderr.count("\n") == 1
    assert "closed forms" in proc.stderr


def count_kernel(monkeypatch) -> list:
    """The list each call of the kernel from now on appends its z to; the
    kernel is rebound in the tree module, as a tracer does."""
    from anticipated_surprise import tree

    calls = []
    kernel = tree.surprise_kernel

    def counting(z, params):
        calls.append(z)
        return kernel(z, params)

    monkeypatch.setattr(tree, "surprise_kernel", counting)
    return calls


def count_walks(monkeypatch) -> list:
    """The list each validation walk from now on appends its tree to."""
    from anticipated_surprise import cli, scaling, tree

    calls = []
    original = tree.validate

    def counting(node):
        calls.append(node)
        return original(node)

    for module in (tree, scaling, cli):
        monkeypatch.setattr(module, "validate", counting)
    return calls


def count_builds(monkeypatch) -> list:
    """The list each build of a built-in scheme's tree from now on appends
    its leaf to; ``stack`` is rebound in the cli module, as a tracer does."""
    from anticipated_surprise import cli

    calls = []
    original = cli.stack

    def counting(leaf, levels):
        calls.append(leaf)
        return original(leaf, levels)

    monkeypatch.setattr(cli, "stack", counting)
    return calls


#: (figure id, builds, kernel calls) of one figure_rows call; no point walks
#: its tree, since each build comes with its report.
FIGURE_WORK = [
    # a tree per point, two branches each
    ("fig1", 99, 198), ("figA3", 150, 300),
    # one shared n-grid tree, for fig5-left one per k_tr
    ("fig3-left", 1, 100), ("fig3-right", 1, 100), ("figA1", 1, 100), ("fig5-left", 2, 56),
    # a p_tr grid shares nothing: 91 points at each of two k_tr
    ("fig5-right", 182, 2184),
    # three dual series share one memo: U_t once, U_p once per p_pr
    ("fig7", 1 + 70 + 3 * 70, 2108), ("figA2", 1 + 95 + 3 * 95, 2858),
]


class TestHelpers:
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
        # one build, whose report spares the point a validation walk
        from anticipated_surprise.scaling import parse_scaling_mode

        builds, walks = count_builds(monkeypatch), count_walks(monkeypatch)
        evaluate_point(point, ModelParams(), parse_scaling_mode(mode))
        assert (len(builds), len(walks)) == (1, 0)

    @pytest.mark.parametrize(
        "argv,builds",
        [
            # one shared n-grid tree; the dual ratio adds U_t per row and U_p once
            (["--scheme", "timing", "--p-tr", "0.5", "--k-tr", "10"], 1),
            (["--scheme", "dual-a-after", "--p-pr", "0.7"], 7),
            # a range-reading scaling builds each row's tree; the ratio's
            # unscaled utilities still come from one shared tree
            (["--scheme", "timing", "--p-tr", "0.5", "--scaling", "full"], 6),
            (["--scheme", "dual-a-after", "--p-pr", "0.7", "--scaling", "partial:0.5"], 12),
            # dual-b does not nest: a tree per row, then U_t and U_p as above
            (["--scheme", "dual-b", "--p-pr", "0.7"], 11),
        ],
    )
    def test_sweep_walks_each_tree_once_per_row(self, monkeypatch, capsys, argv, builds):
        built, walks = count_builds(monkeypatch), count_walks(monkeypatch)
        code, out, _ = run(capsys, ["sweep", *argv, "--p", "0.03", "--target", "n",
                                    "--values", "2,3,4,5,6"])
        assert code == 0 and len(out.strip().split("\n")) == 6
        assert (len(built), len(walks)) == (builds, 0)

    @pytest.mark.parametrize("scheme", ["dual-a-after", "dual-b"])
    def test_p_pr_sweep_walks_the_hazard_denominator_once(self, monkeypatch, capsys, scheme):
        # a tree per row, U_p per distinct p_pr, and U_t once at the one (p, n)
        builds, walks = count_builds(monkeypatch), count_walks(monkeypatch)
        code, out, _ = run(capsys, ["sweep", "--scheme", scheme, "--p", "0.03", "--n", "4",
                                    "--target", "p-pr", "--values", "0.3,0.5,0.7,0.8,0.9"])
        assert code == 0 and len(out.strip().split("\n")) == 6
        assert (len(builds), len(walks)) == (11, 0)

    @pytest.mark.parametrize("fig_id,builds,kernels", FIGURE_WORK,
                             ids=[f"{fig_id}-{builds}" for fig_id, builds, _ in FIGURE_WORK])
    def test_figure_walks_each_tree_once_per_grid(self, monkeypatch, fig_id, builds, kernels):
        built, walks = count_builds(monkeypatch), count_walks(monkeypatch)
        kernel_calls = count_kernel(monkeypatch)
        figure_rows(fig_id)
        assert (len(built), len(walks), len(kernel_calls)) == (builds, 0, kernels)

    @pytest.mark.parametrize("fig_id", ["fig7", "figA2"])
    def test_dual_figure_builds_u_p_params_once(self, monkeypatch, fig_id):
        built, original = [], ModelParams.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(ModelParams, "__post_init__", counting)
        figure_rows(fig_id)
        # the figure's params, then U_p's (k2 = k2_prob) for all its rows
        assert len(built) == 2

    def test_evaluate_point_u0_is_raw(self):
        point = SchemePoint("gamble", hi=10.0, lo=-10.0, p=0.5)
        u0, _, _ = evaluate_point(point, ModelParams(), NoScaling())
        assert u0 == 0.0


class TestNGrid:
    @pytest.mark.parametrize("mode", ["none", "scale:2", "full", "partial:0.5"])
    @pytest.mark.parametrize("scheme", NESTING)
    def test_grid_equals_point_by_point(self, scheme, mode):
        fixed, first = NESTING[scheme], SCHEMES[scheme].nests_from
        # unsorted, with a duplicate and the smallest valid n
        ns = [first + 6, first, first + 2, first + 6, first + 1]
        params, scaling = ModelParams(k2=10.0), parse_scaling_mode(mode)
        points = [replace(fixed, n=n) for n in ns]
        grid = evaluate_grid(fixed, "n", [float(n) for n in ns], params, scaling)
        assert list(grid) == [(pt, evaluate_point(pt, params, scaling)) for pt in points]
        ratio, memo = SCHEMES[scheme].ratio, {}
        _, rows = sweep_rows("n", [float(n) for n in ns], fixed, params, scaling, 2.0)
        assert rows == [[n, *evaluate_point(pt, params, scaling),
                         *([] if ratio is None else [ratio(
                             pt, params, 2.0, evaluate_point(pt, params, NoScaling())[2], memo)])]
                        for n, pt in zip(ns, points)]

    @pytest.mark.parametrize("mode", ["none", "scale:2"])
    def test_n_sweep_computes_each_nodes_jump_once(self, monkeypatch, mode):
        # each of the 400 levels has two branches: 2 * max n kernel calls
        # where a walk from every sub-root would make 2 * sum(n)
        calls = count_kernel(monkeypatch)
        values = [float(n) for n in random.Random(16).sample(range(1, 400), 15)] + [400.0]
        random.Random(17).shuffle(values)
        _, rows = sweep_rows("n", values, NESTING["hazard"], ModelParams(k2=10.0),
                             parse_scaling_mode(mode), 2.0)
        assert len(rows) == 16 and len(calls) == 2 * 400 < 2 * sum(values)

    @pytest.mark.parametrize("mode", ["none", "full"])
    @pytest.mark.parametrize("n", [1, 2, 57, 400])
    def test_one_shot_hazard_row_makes_two_kernel_calls_a_level(self, monkeypatch, n, mode):
        calls = count_kernel(monkeypatch)
        evaluate_point(replace(NESTING["hazard"], n=n), ModelParams(k2=10.0),
                       parse_scaling_mode(mode))
        assert len(calls) == 2 * n

    @pytest.mark.parametrize("workload,kernels", [("DeepSweep", 16_078), ("Figures", 8_004)])
    def test_a_benchmark_pass_makes_as_many_kernel_calls_as_before(self, monkeypatch, workload,
                                                                   kernels):
        """One seed-7 pass of a benchmark workload, whose outputs pass its
        checks, calls the kernel as often as the level walk did: a faster
        pass skips and repeats no jump."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        import workloads

        w = getattr(workloads, workload)(7)
        calls = count_kernel(monkeypatch)
        results = [workloads.execute(op) for op in w.ops]
        assert len(calls) == kernels
        assert [w.check(op, result) for op, result in zip(w.ops, results)] == [None] * len(w.ops)

    def test_points_before_a_bad_value_are_yielded_first(self):
        grid = evaluate_grid(NESTING["hazard"], "n", [3.0, 5.0, 0.0, 4.0], ModelParams(), NoScaling())
        assert [point.n for point, _ in itertools.islice(grid, 2)] == [3, 5]
        with pytest.raises(ValidationError, match="n must be an integer >= 1, got 0"):
            next(grid)

    def test_other_targets_evaluate_point_by_point(self):
        fixed = SchemePoint("timing", p=0.05, n=6, k_tr=4.0)
        values = [0.1, 0.5, 0.9]
        grid = evaluate_grid(fixed, "p_tr", values, ModelParams(), NoScaling())
        points = [replace(fixed, p_tr=v) for v in values]
        assert list(grid) == [(pt, evaluate_point(pt, ModelParams(), NoScaling())) for pt in points]

    @pytest.mark.parametrize("scheme", [s for s in SCHEMES if "n" in SCHEMES[s].fields])
    def test_descent_reaches_the_smaller_tree_iff_declared(self, scheme):
        entry = SCHEMES[scheme]
        point = SchemePoint(scheme, p=0.03, p_tr=0.3, k_tr=4.0, p_pr=0.6)
        first = entry.nests_from or 2
        trees = [entry.build(replace(point, n=n))[0] for n in range(first, first + 5)]
        descents = [big.branches[-1].child == small for big, small in zip(trees[1:], trees)]
        assert descents == [entry.nests_from is not None] * 4
        if entry.nests_from is not None:
            with pytest.raises(ValidationError):
                entry.build(replace(point, n=first - 1))

    def test_only_chains_over_an_n_free_base_nest(self):
        nesting = [name for name, entry in SCHEMES.items() if entry.nests_from is not None]
        assert nesting == list(NESTING)

    @pytest.mark.parametrize(
        "scheme,values,message",
        [
            *((s, "0,3", f"n must be an integer >= {SCHEMES[s].nests_from}, got 0") for s in NESTING),
            *((s, "3,nan", "n grid values must be whole numbers, got nan") for s in NESTING),
            *((s, "2.5", "n grid values must be whole numbers, got 2.5") for s in NESTING),
            # the first bad value in list order wins
            *((s, "0,2.5", f"n must be an integer >= {SCHEMES[s].nests_from}, got 0")
              for s in NESTING),
            ("hazard", "4,2.5,0", "n grid values must be whole numbers, got 2.5"),
            ("timing", "1", "n must be an integer >= 2, got 1"),
            ("timing", "5,1,3", "n must be an integer >= 2, got 1"),
        ],
    )
    def test_bad_values_exit_2_naming_the_first(self, capsys, scheme, values, message):
        fixed = NESTING[scheme]
        argv = ["sweep", "--scheme", scheme, "--target", "n", "--values", values]
        for name in SCHEMES[scheme].fields:
            if name != "n":
                argv += [flag(name), str(getattr(fixed, name))]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_failing_shared_pass_reports_the_first_failing_point(self, capsys):
        argv = ["sweep", "--scheme", "hazard", "--p", "0.03", "--target", "n",
                "--values", "3,5", "--scaling", "scale:1e-300"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and err.startswith("error: numeric overflow")

    @pytest.mark.parametrize("values", ["1,400", "400,1"])
    def test_shared_grid_fails_as_its_first_row_alone(self, capsys, values):
        # under this scale the bottom level's expectation error is -inf and
        # the top level's kernel overflows: each row meets its own walk's error
        flags = ["--scheme", "hazard", "--p", "0.03", "--scaling", "scale:1e-310"]
        code, out, err = run(capsys, ["sweep", *flags, "--target", "n", "--values", values])
        alone = run(capsys, ["eval", *flags, "--n", values.split(",")[0]])
        assert (code, out, err) == alone and code == 2

    @pytest.mark.parametrize("n", [2, 5, 40])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_nesting_trees_are_spines(self, scheme, n):
        """Every scheme's tree is a spine, the nesting ones' (see
        Scheme.nests_from) included: each internal node lies on the path of
        last branches, each other branch ends in a terminal, and validate
        reports that path."""
        tree, _ = SCHEMES[scheme].build(SchemePoint(scheme, p=0.03, n=n, hi=2.0, lo=-1.0,
                                                    p_tr=0.3, k_tr=4.0, p_pr=0.6))
        path, node = [], tree
        while isinstance(node, Internal):
            assert all(isinstance(br.child, Terminal) for br in node.branches[:-1])
            path.append(node)
            node = node.branches[-1].child
        spine = validate(tree).spine
        assert spine is not None and len(spine[0]) == len(path)
        assert all(got is want for got, want in zip(spine[0], path))
