"""Command-line front end: single evaluations, figure data, parameter sweeps.

Three subcommands, all emitting CSV (comma-separated, header row, LF
newlines, UTF-8, floats printed with 12 significant digits):

    eval    one scheme at one parameter point -> one row on stdout
    figure  a named data set over its standard grid -> CSV file
    sweep   one scheme over a parameter grid -> CSV on stdout

Every number is produced by the same single-point evaluator (exhaustive
tree evaluation after optional outcome scaling), so figure cells equal
what ``eval`` prints for the matching point.  The only closed-form-only
quantity is the fixed-delay comparison utility inside timing ratios,
whose fractional delay has no tree.

Exit codes: 0 ok, 1 i/o failure, 2 validation failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from .builders import (
    build_binary_gamble,
    build_dual_scheme_a,
    build_dual_scheme_b,
    build_hazard_chain,
    build_timing_risk,
)
from .closed_form import (
    DualRiskSpec,
    DualScheme,
    HazardSpec,
    TimingRiskSpec,
    discount_factor,
    mean_delay,
)
from .core import ModelParams, Modulation, ValidationError
from .scaling import NoScaling, FixedScale, ScalingMode, parse_scaling_mode, scaled_evaluation
from .tree import ResolutionNode, load_tree

SCHEMES = ("gamble", "hazard", "timing", "dual-a-after", "dual-a-before", "dual-b")
FIGURES = (
    "fig1",
    "fig3-left",
    "fig3-right",
    "fig5-left",
    "fig5-right",
    "fig7",
    "figA1",
    "figA2",
    "figA3",
)
SWEEP_TARGETS = ("p", "n", "p_tr", "p_pr", "k_tr")


def fmt(value: float) -> str:
    """Canonical number formatting: 12 significant digits."""
    v = float(value)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return format(v, ".12g")


def grid_points(start: float, stop: float, count: int) -> list[float]:
    """count evenly spaced points from start to stop, endpoints exact."""
    if int(count) != count or count < 2:
        raise ValidationError(f"grid count must be an integer >= 2, got {count!r}")
    if not (math.isfinite(start) and math.isfinite(stop)) or start == stop:
        raise ValidationError(f"grid endpoints must be finite and distinct, got {start!r}:{stop!r}")
    step = (stop - start) / (count - 1)
    pts = [start + i * step for i in range(int(count))]
    pts[-1] = stop
    return pts


@dataclass
class SchemePoint:
    """One scheme at one parameter point."""

    scheme: str
    p: float | None = None
    n: int | None = None
    hi: float | None = None
    lo: float | None = None
    p_tr: float | None = None
    k_tr: float = 1.0
    p_pr: float | None = None
    tree_path: str | None = None

    def require(self, name: str) -> float:
        value = getattr(self, name)
        if value is None:
            flag = "--" + name.replace("_", "-")
            raise ValidationError(f"scheme {self.scheme!r} requires {flag}")
        return value


def build_scheme_tree(point: SchemePoint) -> ResolutionNode:
    s = point.scheme
    if s == "gamble":
        return build_binary_gamble(point.require("hi"), point.require("lo"), point.require("p"))
    if s == "hazard":
        return build_hazard_chain(point.require("p"), int(point.require("n")))
    if s == "timing":
        spec = TimingRiskSpec(
            point.require("p"), int(point.require("n")), point.require("p_tr"), point.k_tr
        )
        return build_timing_risk(spec)
    if s in ("dual-a-after", "dual-a-before"):
        scheme = DualScheme.SEPARATE_AFTER if s == "dual-a-after" else DualScheme.SEPARATE_BEFORE
        spec = DualRiskSpec(
            point.require("p"), int(point.require("n")), point.require("p_pr"), scheme
        )
        return build_dual_scheme_a(spec)
    if s == "dual-b":
        spec = DualRiskSpec(
            point.require("p"), int(point.require("n")), point.require("p_pr"),
            DualScheme.INCORPORATED,
        )
        return build_dual_scheme_b(spec)
    if point.tree_path is not None:
        return load_tree(point.tree_path)
    raise ValidationError(f"unknown scheme {s!r}")


def evaluate_point(
    point: SchemePoint, params: ModelParams, mode: ScalingMode
) -> tuple[float, float, float]:
    """(raw expected value, surprise of the scaled tree, final utility)."""
    result = scaled_evaluation(build_scheme_tree(point), params, mode)
    return result.raw_expected_value, result.scaled.total_surprise, result.utility


def timing_ratio_point(point: SchemePoint, params: ModelParams) -> float:
    """Tree-based timing-lottery utility over the fixed-delay closed form."""
    _, _, u_tr = evaluate_point(point, params, NoScaling())
    spec = TimingRiskSpec(point.require("p"), int(point.require("n")), point.require("p_tr"),
                          point.k_tr)
    u_fix = discount_factor(HazardSpec(spec.p, mean_delay(spec)), params)
    return u_tr / u_fix


def hazard_utility(p: float | None, n: int | None, params: ModelParams) -> float:
    """U_t of the dual ratio: the plain hazard chain at p and n."""
    return evaluate_point(SchemePoint("hazard", p=p, n=n), params, NoScaling())[2]


def gamble_utility(p_pr: float | None, params: ModelParams, k2_prob: float) -> float:
    """U_p of the dual ratio: the unit gamble won with probability p_pr,
    at the probability-only gain k2_prob."""
    gamble = SchemePoint("gamble", hi=1.0, lo=0.0, p=p_pr)
    return evaluate_point(gamble, params.with_k2(k2_prob), NoScaling())[2]


def dual_ratio_point(
    point: SchemePoint,
    params: ModelParams,
    k2_prob: float,
    u_t: float | None = None,
    u_p: float | None = None,
) -> float:
    """Tree-based discount ratio U_pt / (U_p * U_t).

    Callers that share a denominator between points with the same p and
    n (``u_t``) or p_pr (``u_p``) may pass it in.
    """
    if u_t is None:
        u_t = hazard_utility(point.p, point.n, params)
    if u_p is None:
        u_p = gamble_utility(point.require("p_pr"), params, k2_prob)
    _, _, u_pt = evaluate_point(point, params, NoScaling())
    return u_pt / (u_p * u_t)


# --- eval -------------------------------------------------------------------

EVAL_HEADER = (
    "scheme,p,n,hi,lo,p_tr,k_tr,p_pr,k,alpha,k1,k2,modulation,scaling,u0,delta,utility"
)


def cmd_eval(args: argparse.Namespace) -> int:
    params = _params_from(args)
    mode = parse_scaling_mode(args.scaling)
    point = _point_from(args)
    u0, delta, util = evaluate_point(point, params, mode)
    cells = [
        point.scheme if point.tree_path is None else f"tree:{point.tree_path}",
        "" if point.p is None else fmt(point.p),
        "" if point.n is None else fmt(point.n),
        "" if point.hi is None else fmt(point.hi),
        "" if point.lo is None else fmt(point.lo),
        "" if point.p_tr is None else fmt(point.p_tr),
        fmt(point.k_tr) if point.scheme == "timing" else "",
        "" if point.p_pr is None else fmt(point.p_pr),
        fmt(params.k),
        fmt(params.alpha),
        fmt(params.k1),
        fmt(params.k2),
        params.modulation.value,
        args.scaling,
        fmt(u0),
        fmt(delta),
        fmt(util),
    ]
    print(EVAL_HEADER)
    print(",".join(cells))
    return 0


# --- figures ----------------------------------------------------------------


def figure_rows(fig_id: str, overrides: dict | None = None) -> tuple[list[str], list[list[float]]]:
    """Header and value rows for one named figure data set.

    Grid and parameter defaults follow the standard presentation of each
    data set; ``overrides`` may replace k, alpha, k1, k2, p, n, k2_prob.
    """
    ov = overrides or {}

    def pick(name: str, default: float) -> float:
        value = ov.get(name)
        return default if value is None else value

    k = pick("k", 3.0)
    alpha = pick("alpha", 1.6)

    if fig_id == "fig1":
        params = ModelParams(k, alpha, pick("k1", 2.0), pick("k2", 2.0))
        rows = []
        for p in grid_points(0.01, 0.99, 99):
            point = SchemePoint("gamble", hi=1.0, lo=0.0, p=p)
            _, _, util = evaluate_point(point, params, NoScaling())
            rows.append([p, util])
        return ["p", "utility"], rows

    if fig_id in ("fig3-left", "fig3-right"):
        p = pick("p", 0.03)
        params = ModelParams(k, alpha, pick("k1", 2.0), pick("k2", 10.0))
        rows = []
        for n in range(1, 51):
            point = SchemePoint("hazard", p=p, n=n)
            _, delta, util = evaluate_point(point, params, NoScaling())
            if fig_id == "fig3-left":
                rows.append([float(n), abs(delta), 0.088 * n])
            else:
                rows.append([float(n), util, math.exp(-0.3 * n), 1.0 / (1.0 + 0.88 * n)])
        if fig_id == "fig3-left":
            return ["n", "surprise_magnitude", "linear_reference"], rows
        return ["n", "discount_factor", "exponential", "hyperbolic"], rows

    if fig_id in ("fig5-left", "fig5-right"):
        p = pick("p", 0.03)
        params = ModelParams(k, alpha, pick("k1", 2.0), pick("k2", 10.0))
        rows = []
        if fig_id == "fig5-left":
            xs = [float(n) for n in range(2, 13)]
            for n in xs:
                ratios = [
                    timing_ratio_point(
                        SchemePoint("timing", p=p, n=int(n), p_tr=0.5, k_tr=k_tr), params
                    )
                    for k_tr in (10.0, 0.0)
                ]
                rows.append([n, *ratios])
            return ["n", "ratio_weighted", "ratio_unweighted"], rows
        n = int(pick("n", 4))
        for p_tr in grid_points(0.05, 0.95, 91):
            ratios = [
                timing_ratio_point(
                    SchemePoint("timing", p=p, n=n, p_tr=p_tr, k_tr=k_tr), params
                )
                for k_tr in (10.0, 0.0)
            ]
            rows.append([p_tr, *ratios])
        return ["p_tr", "ratio_weighted", "ratio_unweighted"], rows

    if fig_id in ("fig7", "figA2"):
        p = pick("p", 0.03)
        n = int(pick("n", 4))
        params = ModelParams(k, alpha, pick("k1", 2.0), pick("k2", 10.0))
        k2_prob = pick("k2_prob", 2.0 if fig_id == "fig7" else 10.0)
        xs = grid_points(0.3, 0.99, 70) if fig_id == "fig7" else grid_points(0.05, 0.99, 95)
        u_t = hazard_utility(p, n, params)
        rows = []
        for p_pr in xs:
            u_p = gamble_utility(p_pr, params, k2_prob)
            ratios = [
                dual_ratio_point(SchemePoint(s, p=p, n=n, p_pr=p_pr), params, k2_prob, u_t, u_p)
                for s in ("dual-a-after", "dual-a-before", "dual-b")
            ]
            rows.append([p_pr, *ratios])
        return ["p_pr", "ratio_separate_after", "ratio_separate_before", "ratio_incorporated"], rows

    if fig_id == "figA1":
        p = pick("p", 0.03)
        params = ModelParams(
            k, alpha, pick("k1", 2.0), pick("k2", 2.0),
            modulation=Modulation.EXPONENTIAL_NEGATIVE,
        )
        rows = []
        for n in range(1, 51):
            point = SchemePoint("hazard", p=p, n=n)
            _, _, util = evaluate_point(point, params, NoScaling())
            rows.append([float(n), util, math.exp(-0.2 * n)])
        return ["n", "discount_factor", "exponential"], rows

    if fig_id == "figA3":
        params = ModelParams(k, alpha, pick("k1", 2.0), pick("k2", 2.0))
        rows = []
        for p in grid_points(0.01, 0.5, 50):
            point = SchemePoint("gamble", hi=1.0 / p, lo=0.0, p=p)
            utils = [
                evaluate_point(point, params, mode)[2]
                for mode in (
                    NoScaling(),
                    # full range is [0, 1/p]; partial divides by (1/p)**(1/alpha)
                    parse_scaling_mode("full"),
                    FixedScale(p ** (-1.0 / params.alpha)),
                )
            ]
            rows.append([p, *utils])
        return ["p", "utility_unscaled", "utility_full", "utility_partial"], rows

    raise ValidationError(f"unknown figure id {fig_id!r}; expected one of {', '.join(FIGURES)}")


def render_csv(header: list[str], rows: list[list[float]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def cmd_figure(args: argparse.Namespace) -> int:
    overrides = {
        name: getattr(args, name)
        for name in ("k", "alpha", "k1", "k2", "p", "n", "k2_prob")
    }
    header, rows = figure_rows(args.id, overrides)
    text = render_csv(header, rows)
    out = args.out if args.out is not None else f"{args.id}.csv"
    if out == "-":
        sys.stdout.write(text)
        return 0
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return 0


# --- sweep ------------------------------------------------------------------

_TARGET_SCHEMES = {
    "p": {"gamble", "hazard", "timing", "dual-a-after", "dual-a-before", "dual-b"},
    "n": {"hazard", "timing", "dual-a-after", "dual-a-before", "dual-b"},
    "p_tr": {"timing"},
    "p_pr": {"dual-a-after", "dual-a-before", "dual-b"},
    "k_tr": {"timing"},
}


def sweep_rows(
    scheme: str,
    target: str,
    values: list[float],
    fixed: SchemePoint,
    params: ModelParams,
    mode: ScalingMode,
    k2_prob: float,
) -> tuple[list[str], list[list[float]]]:
    if target not in _TARGET_SCHEMES:
        raise ValidationError(f"unknown sweep target {target!r}")
    if scheme not in _TARGET_SCHEMES[target]:
        raise ValidationError(f"target {target!r} does not apply to scheme {scheme!r}")
    header = [target, "u0", "delta", "utility"]
    if scheme == "timing":
        header.append("timing_ratio")
    elif scheme.startswith("dual"):
        header.append("discount_ratio")
    rows = []
    for value in values:
        point = SchemePoint(
            scheme, p=fixed.p, n=fixed.n, hi=fixed.hi, lo=fixed.lo,
            p_tr=fixed.p_tr, k_tr=fixed.k_tr, p_pr=fixed.p_pr,
        )
        if target == "n":
            if value != int(value):
                raise ValidationError(f"n grid values must be whole numbers, got {value!r}")
            point.n = int(value)
        else:
            setattr(point, target, value)
        u0, delta, util = evaluate_point(point, params, mode)
        row = [value, u0, delta, util]
        if scheme == "timing":
            row.append(timing_ratio_point(point, params))
        elif scheme.startswith("dual"):
            row.append(dual_ratio_point(point, params, k2_prob))
        rows.append(row)
    return header, rows


def cmd_sweep(args: argparse.Namespace) -> int:
    params = _params_from(args)
    mode = parse_scaling_mode(args.scaling)
    fixed = _point_from(args)
    if args.grid is not None and args.values is not None:
        raise ValidationError("give either --grid or --values, not both")
    if args.grid is not None:
        try:
            start, stop, count = args.grid.split(":")
            values = grid_points(float(start), float(stop), int(count))
        except ValueError as exc:
            raise ValidationError(f"bad grid spec {args.grid!r}: expected start:stop:count") from exc
    elif args.values is not None:
        try:
            values = [float(v) for v in args.values.split(",") if v != ""]
        except ValueError as exc:
            raise ValidationError(f"bad values list {args.values!r}") from exc
        if not values:
            raise ValidationError("empty values list")
    else:
        raise ValidationError("sweep requires --grid or --values")
    target = args.target.replace("-", "_")
    header, rows = sweep_rows(fixed.scheme, target, values, fixed, params, mode, args.k2_prob)
    text = render_csv(header, rows)
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


# --- wiring -----------------------------------------------------------------


def _params_from(args: argparse.Namespace) -> ModelParams:
    return ModelParams(
        k=args.k,
        alpha=args.alpha,
        k1=args.k1,
        k2=args.k2,
        modulation=Modulation(args.modulation),
    )


def _point_from(args: argparse.Namespace) -> SchemePoint:
    scheme = args.scheme
    tree_path = None
    if scheme.startswith("tree:"):
        tree_path = scheme.split(":", 1)[1]
        if not tree_path:
            raise ValidationError("tree scheme needs a path: tree:<path>")
        scheme = "tree"
    elif scheme not in SCHEMES:
        raise ValidationError(
            f"unknown scheme {args.scheme!r}; expected one of "
            f"{', '.join(SCHEMES)} or tree:<path>"
        )
    n = args.n
    if n is not None:
        if n != int(n):
            raise ValidationError(f"--n must be a whole number, got {n!r}")
        n = int(n)
    return SchemePoint(
        scheme, p=args.p, n=n, hi=args.hi, lo=args.lo,
        p_tr=args.p_tr, k_tr=args.k_tr, p_pr=args.p_pr, tree_path=tree_path,
    )


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=float, default=3.0, help="loss weight, > 1")
    sub.add_argument("--alpha", type=float, default=1.6, help="kernel convexity, > 1")
    sub.add_argument("--k1", type=float, default=2.0, help="positive-surprise gain")
    sub.add_argument("--k2", type=float, default=2.0, help="negative-surprise gain")
    sub.add_argument(
        "--modulation",
        choices=[m.value for m in Modulation],
        default=Modulation.HYPERBOLIC.value,
        help="negative-surprise correction shape",
    )
    sub.add_argument(
        "--scaling",
        default="none",
        help="outcome scaling: none | full | partial:<gamma> | scale:<s>",
    )


def _add_scheme_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scheme", required=True,
                     help="gamble | hazard | timing | dual-a-after | dual-a-before"
                          " | dual-b | tree:<path>")
    sub.add_argument("--p", type=float, help="per-step hazard (or gamble win) probability")
    sub.add_argument("--n", type=float, help="number of delay steps")
    sub.add_argument("--hi", type=float, help="gamble: high payoff")
    sub.add_argument("--lo", type=float, help="gamble: low payoff")
    sub.add_argument("--p-tr", dest="p_tr", type=float, help="timing: early-delivery probability")
    sub.add_argument("--k-tr", dest="k_tr", type=float, default=1.0,
                     help="timing: weight on the reveal stage (default 1)")
    sub.add_argument("--p-pr", dest="p_pr", type=float, help="dual: success probability")
    sub.add_argument("--k2-prob", dest="k2_prob", type=float, default=2.0,
                     help="negative-surprise gain for the probability-only comparison")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anticipated-surprise",
        description="Surprise-modulated utilities for risky and intertemporal options",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate one scheme at one parameter point")
    _add_scheme_flags(p_eval)
    _add_model_flags(p_eval)

    p_fig = subs.add_parser("figure", help="emit a named figure data set as CSV")
    p_fig.add_argument("id", choices=FIGURES)
    p_fig.add_argument("--out", help="output path (default <id>.csv, '-' for stdout)")
    p_fig.add_argument("--k", type=float)
    p_fig.add_argument("--alpha", type=float)
    p_fig.add_argument("--k1", type=float)
    p_fig.add_argument("--k2", type=float)
    p_fig.add_argument("--p", type=float)
    p_fig.add_argument("--n", type=float)
    p_fig.add_argument("--k2-prob", dest="k2_prob", type=float)

    p_sweep = subs.add_parser("sweep", help="sweep one parameter of a scheme")
    _add_scheme_flags(p_sweep)
    _add_model_flags(p_sweep)
    p_sweep.add_argument("--target", required=True,
                         choices=["p", "n", "p-tr", "p-pr", "k-tr"],
                         help="parameter to sweep")
    p_sweep.add_argument("--grid", help="start:stop:count")
    p_sweep.add_argument("--values", help="comma-separated explicit values")
    p_sweep.add_argument("--out", help="output path (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "figure":
            return cmd_figure(args)
        return cmd_sweep(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
