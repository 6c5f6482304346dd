"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with -rP to see the lines for passing tests too).

Every check is asserted at its stated tolerance.  Three sub-clauses are
known to sit outside what the model actually produces and are left
failing deliberately rather than loosened; each failure message carries
the exact computed values:

  * criterion 5: the hazard-chain surprise magnitude at p=0.03 peaks at
    n=26 (0.80138) and declines toward larger n, so "strictly increasing
    on 1..50" cannot hold (the forward-difference clause does hold);
  * criterion 7: the incorporated-scheme discount ratio crosses 1 near
    p_pr ~ 0.784, inside the required p_pr <= 0.9 window;
  * criterion 11: the fully scaled inverse-probability lottery at
    p=0.01 is worth exactly exp(2*(0.01*0.99**1.6 - 2.97*0.01**1.6))
    = 1.016061 > 1, outside the required [0.9, 1.0] band.
"""

import itertools
import math
import random
from dataclasses import replace

import pytest

from anticipated_surprise import (
    DualRiskSpec,
    DualScheme,
    FixedScale,
    FullScaling,
    HazardSpec,
    ModelParams,
    Modulation,
    Terminal,
    TimingRiskSpec,
    build_binary_gamble,
    build_dual_scheme_a,
    build_dual_scheme_b,
    build_hazard_chain,
    build_timing_risk,
    discount_factor,
    discount_ratio,
    evaluate,
    evaluate_scaled,
    expected_value,
    hazard_total_surprise,
    timing_components,
    timing_ratio,
)
from anticipated_surprise.cli import (
    SCHEMES,
    SchemePoint,
    dual_ratio_point,
    evaluate_point,
    figure_rows,
    fmt,
    grid_points,
    main,
)
from anticipated_surprise.scaling import NoScaling
from conftest import random_tree, scheme_tree

FIG1 = ModelParams(k=3.0, alpha=1.6, k1=2.0, k2=2.0)
FIG3 = ModelParams(k=3.0, alpha=1.6, k1=2.0, k2=10.0)
P_HAZARD = 0.03


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid:>3} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


def test_criterion_01_mixed_gamble_anchor():
    inner = evaluate_scaled(build_binary_gamble(1.0, 0.0, 0.5), FIG1, FullScaling())
    outer = evaluate_scaled(build_binary_gamble(1.0, -1.0, 0.5), FIG1, FullScaling())
    ok = abs(inner - 0.301) <= 0.001 and abs(outer - -0.398) <= 0.002
    report("1", ok, f"U'={inner:.6f} (0.301±0.001), U={outer:.6f} (-0.398±0.002)")


def test_criterion_02_oracle_equivalence():
    # every scheme with a closed form, over the product of its fields' values
    frac = (0.1, 0.3, 0.5, 0.7, 0.9)
    grid = {"p": (0.01, 0.03, 0.1, 0.3), "n": range(1, 13), "p_tr": frac,
            "k_tr": (0.0, 1.0, 10.0), "p_pr": frac}
    worst = 0.0
    checks = 0
    for name, entry in SCHEMES.items():
        if entry.closed is None:
            continue
        for values in itertools.product(*(grid[f] for f in entry.fields)):
            point = SchemePoint(name, **dict(zip(entry.fields, values)))
            if name == "timing" and point.n == 1:  # the one point a scheme rejects
                continue
            tree = evaluate(scheme_tree(point), FIG3).total_surprise
            worst = max(worst, abs(entry.closed(point, FIG3)[0] - tree))
            checks += 1
    assert checks == 1428, checks
    print(
        "NOTE: the resolve-first prior factor is implemented as "
        "q**(n*(alpha-1)); the q**(alpha-1) variant disagrees with the "
        "tree (see test_closed_form for the quantified mismatch)."
    )
    report("2", worst <= 1e-9, f"{checks} closed-form/tree pairs, max |diff| = {worst:.3e}")


def test_criterion_03_martingale():
    trees = [build_hazard_chain(p, n) for p in (0.01, 0.1, 0.3) for n in (1, 4, 9)]
    trees += [build_timing_risk(TimingRiskSpec(0.03, n, f, 10.0)) for n in (2, 6) for f in (0.2, 0.8)]
    trees += [
        build_dual_scheme_a(DualRiskSpec(0.1, 4, f, s))
        for f in (0.3, 0.7)
        for s in (DualScheme.SEPARATE_AFTER, DualScheme.SEPARATE_BEFORE)
    ]
    trees += [build_dual_scheme_b(DualRiskSpec(0.1, 4, 0.6, DualScheme.INCORPORATED))]
    worst = 0.0
    nodes = 0
    for tree in trees:
        stack = [tree]
        while stack:
            nd = stack.pop()
            if isinstance(nd, Terminal):
                continue
            e0 = expected_value(nd)
            drift = sum(br.probability * (expected_value(br.child) - e0) for br in nd.branches)
            worst = max(worst, abs(drift))
            nodes += 1
            stack.extend(br.child for br in nd.branches)
    report("3", worst <= 1e-12, f"{nodes} internal nodes, max |drift| = {worst:.3e}")


def test_criterion_04_decreasing_impatience():
    violations = []
    for mode in (Modulation.HYPERBOLIC, Modulation.EXPONENTIAL_NEGATIVE):
        params = replace(FIG3, modulation=mode)
        us = {n: discount_factor(HazardSpec(P_HAZARD, n), params) for n in range(1, 51)}
        for n in range(1, 31):
            for n1 in range(1, 11):
                for n2 in range(1, 11):
                    if not us[n + n1] / us[n] < us[n + n1 + n2] / us[n + n2]:
                        violations.append((mode.value, n, n1, n2))
    report(
        "4",
        not violations,
        f"strict inequality over both modes, 6000 triples; violations: {violations[:3]}",
    )


def test_criterion_05_surprise_saturation():
    mags = [abs(hazard_total_surprise(HazardSpec(P_HAZARD, n), FIG3)) for n in range(1, 51)]
    not_increasing = [
        (n + 1, n + 2) for n in range(49) if not mags[n + 1] > mags[n]
    ]
    diffs = [b - a for a, b in zip(mags, mags[1:])]
    not_decreasing = [
        (i + 1, i + 2) for i in range(len(diffs) - 1) if not diffs[i + 1] < diffs[i]
    ]
    detail = (
        f"|D| strictly increasing on 1..50: {not not_increasing} "
        f"(peak |D({mags.index(max(mags)) + 1})| = {max(mags):.5f}, "
        f"first violation at n={not_increasing[0][0] if not_increasing else '-'}"
        f"); forward differences strictly decreasing: {not not_decreasing}"
    )
    report("5", not not_increasing and not not_decreasing, detail)


def test_criterion_06_timing_risk():
    failures = []
    # (a) 19x19 lattice over (p, p_tr) covering (0.05, 0.95) in both axes
    for i in range(1, 20):
        for j in range(1, 20):
            spec = TimingRiskSpec(i / 20.0, 4, j / 20.0)
            comps = timing_components(spec, FIG3)
            if not comps.e_tr > comps.e_fix:
                failures.append(("a", spec.p, spec.p_tr))
    ratios = [timing_ratio(TimingRiskSpec(P_HAZARD, n, 0.5, 10.0), FIG3) for n in range(2, 13)]
    if not all(r < 1.0 for r in ratios):
        failures.append(("b<1", ratios))
    if not all(b > a for a, b in zip(ratios, ratios[1:])):
        failures.append(("b-increasing", ratios))
    ratios0 = [timing_ratio(TimingRiskSpec(P_HAZARD, n, 0.5, 0.0), FIG3) for n in range(2, 13)]
    if not all(r > 1.0 for r in ratios0):
        failures.append(("c", ratios0))
    small = [
        timing_ratio(TimingRiskSpec(P_HAZARD, 4, p_tr, 10.0), FIG3)
        for p_tr in (0.01, 0.02, 0.05, 0.1)
    ]
    if not any(r > 1.0 for r in small):
        failures.append(("d", small))
    report(
        "6",
        not failures,
        f"e_tr>e_fix on 19x19, ratio(K=10)<1 rising {ratios[0]:.4f}->{ratios[-1]:.4f}, "
        f"ratio(K=0)>1, small-p_tr ratio {max(small):.4f}>1; failures: {failures[:2]}",
    )


def test_criterion_07_dual_risk():
    grid = [round(0.3 + 0.01 * i, 2) for i in range(61)]  # 0.30 .. 0.90
    bad = {"separate-after": [], "separate-before": [], "incorporated": []}
    for p_pr in grid:
        for scheme in (DualScheme.SEPARATE_AFTER, DualScheme.SEPARATE_BEFORE):
            d = discount_ratio(DualRiskSpec(P_HAZARD, 4, p_pr, scheme, 2.0), FIG3)
            if not d > 1.0:
                bad[scheme.value].append((p_pr, round(d, 4)))
        d = discount_ratio(
            DualRiskSpec(P_HAZARD, 4, p_pr, DualScheme.INCORPORATED, 2.0), FIG3
        )
        if not d < 1.0:
            bad["incorporated"].append((p_pr, round(d, 4)))
    ok = not any(bad.values())
    detail = (
        f"separate-after>1: {not bad['separate-after']}, "
        f"separate-before>1: {not bad['separate-before']}, "
        f"incorporated<1 on [0.3,0.9]: {not bad['incorporated']}"
        + (
            f" (first D>=1 at p_pr={bad['incorporated'][0][0]}, D={bad['incorporated'][0][1]};"
            f" {len(bad['incorporated'])} of {len(grid)} points)"
            if bad["incorporated"]
            else ""
        )
    )
    report("7", ok, detail)


def test_criterion_08_s_shape_single_crossing():
    diffs = []
    for i in range(1, 100):
        p = i / 100.0
        u = evaluate(build_binary_gamble(1.0, 0.0, p), FIG1).utility
        diffs.append(u - p)
    signs = [d > 0 for d in diffs]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    ok = flips == 1 and signs[0] and not signs[-1]
    cross = next(i for i, s in enumerate(signs) if not s)
    report("8", ok, f"single sign change of U(p)-p at p in ({cross / 100.0:.2f}, {(cross + 1) / 100.0:.2f})")


def test_criterion_09_affine_equivariance():
    from test_scaling import affine_map_tree

    rng = random.Random(20240811)
    worst = 0.0
    for _ in range(100):
        tree = random_tree(rng, max_depth=4)
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(-3.0, 3.0)
        lhs = evaluate_scaled(affine_map_tree(tree, a, b), FIG1, FullScaling())
        rhs = a * evaluate_scaled(tree, FIG1, FullScaling()) + b
        worst = max(worst, abs(lhs - rhs))
    report("9", worst <= 1e-9, f"100 random trees (depth<=4, seed 20240811), max |diff| = {worst:.3e}")


def test_criterion_10_monotonicity():
    in_n = [discount_factor(HazardSpec(P_HAZARD, n), FIG3) for n in range(1, 51)]
    ok_n = all(b < a for a, b in zip(in_n, in_n[1:]))
    in_p = [discount_factor(HazardSpec(i / 100.0, 4), FIG3) for i in range(1, 100)]
    ok_p = all(b < a for a, b in zip(in_p, in_p[1:]))
    report("10", ok_n and ok_p, f"decreasing in n (1..50): {ok_n}, in p (0.01..0.99): {ok_p}")


def test_criterion_11_scaling_pathology():
    p = 0.01
    lottery = build_binary_gamble(1.0 / p, 0.0, p)
    none = evaluate_scaled(lottery, FIG1, NoScaling())
    full = evaluate_scaled(lottery, FIG1, FullScaling())
    partial = evaluate_scaled(lottery, FIG1, FixedScale(p ** (-1.0 / FIG1.alpha)))
    ok_none = none > 2.0
    ok_full = 0.9 <= full <= 1.0
    ok_partial = 1.2 <= partial / 1.0 <= 1.5
    report(
        "11",
        ok_none and ok_full and ok_partial,
        f"none={none:.3e} (>2: {ok_none}), full={full:.6f} (in [0.9,1.0]: {ok_full}), "
        f"partial/E={partial:.6f} (in [1.2,1.5]: {ok_partial})",
    )


def test_criterion_12_cli_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["figure", "fig7", "--out", str(a)]) == 0
    assert main(["figure", "fig7", "--out", str(b)]) == 0
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()

    header, rows = figure_rows("fig7")
    xs = grid_points(0.3, 0.99, 70)
    csv_lines = a.read_text().strip().split("\n")[1:]
    rng = random.Random(1234)
    picks = rng.sample(range(len(xs)), 5)
    consistent = True
    for i in picks:
        p_pr = xs[i]
        cells = csv_lines[i].split(",")
        # recombine the ratio from the same per-point evaluations eval uses
        point = SchemePoint("dual-a-after", p=P_HAZARD, n=4, p_pr=p_pr)
        _, _, u_pt = evaluate_point(point, FIG3, NoScaling())
        d = dual_ratio_point(point, FIG3, 2.0, u_pt, {})
        if cells[1] != fmt(d):
            consistent = False
        # and check the dual-option utility straight off the eval command
        code = main(
            ["eval", "--scheme", "dual-a-after", "--p", repr(P_HAZARD), "--n", "4",
             "--p-pr", repr(p_pr), "--k2", "10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        u_from_eval = out.strip().split("\n")[1].split(",")[-1]
        if u_from_eval != fmt(u_pt):
            consistent = False
    report(
        "12",
        identical and consistent,
        f"double run byte-identical: {identical}; 5 random points eval-consistent: {consistent}",
    )
