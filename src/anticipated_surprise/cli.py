"""Command-line front end: single evaluations, figure data, parameter sweeps.

Three subcommands, all emitting CSV (comma-separated, header row, LF
newlines, UTF-8, floats printed with 12 significant digits):

    eval    one scheme at one parameter point -> one row on stdout
    figure  a named data set over its standard grid -> CSV file
    sweep   one scheme over a parameter grid -> CSV on stdout

The flags derive from ``ModelParams`` (model flags, defaults),
``SchemePoint`` (point flags, their help, ``eval``'s point columns),
``SCHEMES`` (what each scheme reads: required flags, sweep targets) and
``FIGURES`` (what each figure reads, at its defaults); an unread flag exits 2.
Every number is produced by the same single-point evaluator (exhaustive
tree evaluation after optional outcome scaling), so figure cells equal
what ``eval`` prints for the matching point; an unscaled sweep row hands
its utility to its ratio instead of evaluating the tree again.  The only
closed-form-only quantity is the fixed-delay comparison utility inside
timing ratios, whose fractional delay has no tree.

Exit codes: 0 ok, 1 i/o failure, 2 validation failure, overflow or undefined ratio.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterator, NamedTuple, Sequence

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
from .core import ModelParams, Modulation, ValidationError, is_whole
from .scaling import (AffineTransform, PartialScaling, ScalingMode, parse_scaling_mode,
                      reads_payoff_range, scaled_evaluation)
from .tree import ResolutionNode, ValidationReport, load_tree, validate


def fmt(value: float) -> str:
    """Canonical number formatting: 12 significant digits."""
    v = float(value)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return format(v, ".12g")


def whole(value: float, message: str) -> int:
    """value as an int; ValidationError(message) unless finite and whole."""
    if not is_whole(value):
        raise ValidationError(f"{message}, got {value!r}")
    return int(value)


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


def flag(name: str) -> str:
    """The command-line flag of a parameter: p_tr -> --p-tr."""
    return "--" + name.replace("_", "-")


def _flag_field(text: str, default: float | None = None):
    """A point field that is also an eval and sweep flag with help text."""
    return field(default=default, metadata={"help": text})


@dataclass
class SchemePoint:
    """One scheme at one parameter point; its ``_flag_field`` fields are the point flags."""

    scheme: str
    p: float | None = _flag_field("per-step hazard (or gamble win) probability")
    n: int | None = _flag_field("number of delay steps")
    hi: float | None = _flag_field("gamble: high payoff")
    lo: float | None = _flag_field("gamble: low payoff")
    p_tr: float | None = _flag_field("timing: early-delivery probability")
    k_tr: float = _flag_field("timing: weight on the reveal stage", 1.0)
    p_pr: float | None = _flag_field("dual: success probability")
    tree_path: str | None = None


POINT_FIELDS = tuple(f.name for f in fields(SchemePoint) if "help" in f.metadata)


class Scheme(NamedTuple):
    """A built-in scheme.

    fields: the point fields it reads: its required flags, in reporting
        order, its sweep targets and the only point flags it takes
    build: the point's tree
    column, ratio: its sweeps' ratio column, and
        ratio(point, params, k2_prob, u, memo), u being the point's unscaled
        utility and memo a dict that lives for one sweep (see dual_ratio_point)
    ratio_flags: the sweep flags that ratio reads
    nests_from: if its trees nest in n, the smallest n it takes; the tree
        at n + 1 is then one level whose last branch leads to the tree at
        n (see evaluate_grid)
    """

    fields: tuple[str, ...]
    build: Callable[[SchemePoint], ResolutionNode]
    column: str | None = None
    ratio: Callable[..., float] | None = None
    ratio_flags: tuple[str, ...] = ()
    nests_from: int | None = None


def _dual(build: Callable[[DualRiskSpec], ResolutionNode], scheme: DualScheme) -> Scheme:
    """A dual-risk entry: build a DualRiskSpec of the point under scheme."""
    return Scheme(
        ("p", "n", "p_pr"),
        lambda pt: build(DualRiskSpec(pt.p, pt.n, pt.p_pr, scheme)),
        "discount_ratio",
        lambda pt, params, k2_prob, u, memo: dual_ratio_point(pt, params, k2_prob, u, memo),
        ("k2_prob",),
    )


# Entries call builders and ratio helpers by their module-level names at
# call time, so rebinding those names (as a tracer does) reaches them.
SCHEMES = {
    "gamble": Scheme(("hi", "lo", "p"), lambda pt: build_binary_gamble(pt.hi, pt.lo, pt.p)),
    "hazard": Scheme(("p", "n"), lambda pt: build_hazard_chain(pt.p, pt.n), nests_from=1),
    "timing": Scheme(
        ("p", "n", "p_tr", "k_tr"),
        lambda pt: build_timing_risk(TimingRiskSpec(pt.p, pt.n, pt.p_tr, pt.k_tr)),
        "timing_ratio",
        lambda pt, params, k2_prob, u, memo: timing_ratio_point(pt, params, u),
        nests_from=2,
    ),
    "dual-a-after": _dual(lambda spec: build_dual_scheme_a(spec),
                          DualScheme.SEPARATE_AFTER)._replace(nests_from=1),
    "dual-a-before": _dual(lambda spec: build_dual_scheme_a(spec), DualScheme.SEPARATE_BEFORE),
    "dual-b": _dual(lambda spec: build_dual_scheme_b(spec), DualScheme.INCORPORATED),
}


def reads(point: SchemePoint) -> tuple[str, ...]:
    """The point fields that point's scheme reads; a tree file reads none."""
    return () if point.tree_path is not None else SCHEMES[point.scheme].fields


def build_scheme_tree(point: SchemePoint) -> ResolutionNode:
    if point.tree_path is not None:
        return load_tree(point.tree_path)
    for name in reads(point):
        if getattr(point, name) is None:
            raise ValidationError(f"scheme {point.scheme!r} requires {flag(name)}")
    return SCHEMES[point.scheme].build(point)


def evaluate_point(
    point: SchemePoint,
    params: ModelParams,
    mode: ScalingMode,
    tree: ResolutionNode | None = None,
    report: ValidationReport | None = None,
) -> tuple[float, float, float]:
    """(raw expected value, surprise of the scaled tree, final utility).

    A caller that holds point's tree may pass it, with the report of a
    validated tree that contains it (see ``scaled_evaluation``).
    """
    if tree is None:
        tree = build_scheme_tree(point)
    result = scaled_evaluation(tree, params, mode, report)
    return result.raw_expected_value, result.scaled.total_surprise, result.utility


def evaluate_grid(
    fixed: SchemePoint, target: str, values: Sequence[float], params: ModelParams, mode: ScalingMode
) -> Iterator[tuple[SchemePoint, tuple[float, float, float]]]:
    """(point, evaluate_point(point, params, mode)) for fixed with its field
    target set to each value, in list order; a bad value raises when reached.

    Where target is n, fixed's scheme nests in n and mode reads no payoff
    range, the leading values that are valid n share one build and one
    validation: those of the tree at the largest of them, N.  The tree at n
    is then the node N - n levels down the last branches of the tree at N,
    whose report holds its conditional values and, once computed, each
    node's kernel jump, so a node below several of these trees has its jump
    computed once.  The shared build waits for the first point, whose own
    build would raise the same errors: none depends on n.
    """
    first = SCHEMES[fixed.scheme].nests_from if target == "n" else None
    shared = 0
    if first is not None and not reads_payoff_range(mode):
        while shared < len(values) and is_whole(values[shared]) and values[shared] >= first:
            shared += 1
    attrs, spine = vars(fixed).copy(), []
    for i, value in enumerate(values):
        if target == "n":
            value = whole(value, "n grid values must be whole numbers")
        attrs[target] = value
        point = SchemePoint(**attrs)
        if i >= shared:
            yield point, evaluate_point(point, params, mode)
            continue
        if not spine:
            depth = int(max(values[:shared]))
            spine = [build_scheme_tree(SchemePoint(**{**attrs, "n": depth}))]
            report = validate(spine[0])
            # one params and one fixed scale for every point of this grid
            report.jumps = dict.fromkeys(report.conditional_values)
            for _ in range(depth - int(min(values[:shared]))):
                spine.append(spine[-1].branches[-1].child)
        yield point, evaluate_point(point, params, mode, spine[depth - value], report)


def _ratio(utility: float, reference: float, point: SchemePoint) -> float:
    """utility / reference; ValidationError if the reference underflowed to 0."""
    if reference == 0.0:
        raise ValidationError(f"ratio undefined at p={point.p!r}, n={point.n!r}: "
                              "its reference utility underflows to 0")
    return utility / reference


def timing_ratio_point(point: SchemePoint, params: ModelParams, u: float | None = None) -> float:
    """Tree-based timing-lottery utility over the fixed-delay closed form.

    A caller that has already evaluated the point unscaled may pass its
    utility ``u``.
    """
    if u is None:
        u = evaluate_point(point, params, AffineTransform())[2]
    spec = TimingRiskSpec(point.p, point.n, point.p_tr, point.k_tr)
    return _ratio(u, discount_factor(HazardSpec(spec.p, mean_delay(spec)), params), point)


def dual_ratio_point(point: SchemePoint, params: ModelParams, k2_prob: float,
                     u: float | None = None, memo: dict | None = None) -> float:
    """Tree-based discount ratio U_pt / (U_p * U_t).

    U_t is the plain hazard chain at p and n, and U_p the unit gamble won
    with probability p_pr at the probability-only gain k2_prob.  memo, a
    dict that lives for one sweep or one figure (one params and k2_prob),
    keeps each under (p, n) and p_pr once evaluated.  A caller that has
    already evaluated the point unscaled may pass its utility ``u`` (U_pt).
    """
    if memo is None:
        memo = {}
    u_t = memo.get((point.p, point.n))
    if u_t is None:
        hazard = SchemePoint("hazard", p=point.p, n=point.n)
        u_t = memo[point.p, point.n] = evaluate_point(hazard, params, AffineTransform())[2]
    u_p = memo.get(point.p_pr)
    if u_p is None:
        gamble = SchemePoint("gamble", hi=1.0, lo=0.0, p=point.p_pr)
        u_p = memo[point.p_pr] = evaluate_point(gamble, replace(params, k2=k2_prob), AffineTransform())[2]
    if u is None:
        u = evaluate_point(point, params, AffineTransform())[2]
    return _ratio(u, u_p * u_t, point)


# --- eval -------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    params = _params_from(args)
    mode = parse_scaling_mode(args.scaling)
    point = _point_from(args)
    u0, delta, util = evaluate_point(point, params, mode)
    read = reads(point)
    row = {
        "scheme": args.scheme,
        **{name: fmt(getattr(point, name)) if name in read else "" for name in POINT_FIELDS},
        **{name: value.value if isinstance(value, Modulation) else fmt(value)
           for name, value in vars(params).items()},
        "scaling": args.scaling, "u0": fmt(u0), "delta": fmt(delta), "utility": fmt(util),
    }
    print(",".join(row))
    print(",".join(map(csv_field, row.values())))
    return 0


def csv_field(text: str) -> str:
    """text as one CSV field: quoted, quotes doubled, iff it holds , " CR or LF (RFC 4180)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


# --- figures ----------------------------------------------------------------

#: Hazard-chain figures over n = 1..50: header, and the columns after n
#: as a function of (n, surprise, utility).
_HAZARD_FIGURES = {
    "fig3-left": (["n", "surprise_magnitude", "linear_reference"],
                  lambda n, delta, util: [abs(delta), 0.088 * n]),
    "fig3-right": (["n", "discount_factor", "exponential", "hyperbolic"],
                   lambda n, delta, util: [util, math.exp(-0.3 * n), 1.0 / (1.0 + 0.88 * n)]),
    "figA1": (["n", "discount_factor", "exponential"],
              lambda n, delta, util: [util, math.exp(-0.2 * n)]),
}


def _figure(**defaults) -> dict:
    """A figure's parameters: the model's at their defaults, updated by defaults."""
    return {**vars(ModelParams()), **defaults}


#: Each figure id, in presentation order, and the parameters it reads at
#: their defaults; its grid and columns are code in figure_rows.
FIGURES = {
    "fig1": _figure(),
    "fig3-left": _figure(k2=10.0, p=0.03),
    "fig3-right": _figure(k2=10.0, p=0.03),
    "fig5-left": _figure(k2=10.0, p=0.03),
    "fig5-right": _figure(k2=10.0, p=0.03, n=4),
    "fig7": _figure(k2=10.0, p=0.03, n=4, k2_prob=2.0),
    "figA1": _figure(modulation=Modulation.EXPONENTIAL_NEGATIVE, p=0.03),
    "figA2": _figure(k2=10.0, p=0.03, n=4, k2_prob=10.0),
    "figA3": _figure(),
}
#: The figure command's flags: every number some figure reads.
FIGURE_FLAGS = tuple(dict.fromkeys(name for defaults in FIGURES.values() for name, value
                                   in defaults.items() if not isinstance(value, Modulation)))


def figure_rows(fig_id: str, overrides: dict | None = None) -> tuple[list[str], list[list[float]]]:
    """Header and value rows for one named figure data set.

    Grid and parameter defaults follow the standard presentation of each
    data set; ``overrides`` may replace the parameters the figure reads,
    its ``FIGURES`` entry, and no other (None values are ignored).
    """
    if fig_id not in FIGURES:
        raise ValidationError(f"unknown figure id {fig_id!r}; expected one of {', '.join(FIGURES)}")
    given = {name: value for name, value in (overrides or {}).items() if value is not None}
    unread = [flag(name) for name in given if name not in FIGURES[fig_id]]
    if unread:
        raise ValidationError(f"figure {fig_id!r} does not read {', '.join(unread)}")
    v = {**FIGURES[fig_id], **given}
    params = ModelParams(**{f.name: v[f.name] for f in fields(ModelParams)})
    p, n = v.get("p"), v.get("n")
    if n is not None:
        n = whole(n, "--n must be a whole number")
    rows = []

    if fig_id == "fig1":
        for x in grid_points(0.01, 0.99, 99):
            point = SchemePoint("gamble", hi=1.0, lo=0.0, p=x)
            rows.append([x, evaluate_point(point, params, AffineTransform())[2]])
        return ["p", "utility"], rows

    if fig_id in _HAZARD_FIGURES:
        header, columns = _HAZARD_FIGURES[fig_id]
        grid = evaluate_grid(SchemePoint("hazard", p=p), "n", range(1, 51), params, AffineTransform())
        for point, (_, delta, util) in grid:
            rows.append([float(point.n), *columns(point.n, delta, util)])
        return header, rows

    if fig_id in ("fig5-left", "fig5-right"):
        # left: n = 2..12 at p_tr = 0.5; right: the p_tr grid at n; a grid per k_tr
        left = fig_id == "fig5-left"
        target, xs = ("n", range(2, 13)) if left else ("p_tr", grid_points(0.05, 0.95, 91))
        grids = [evaluate_grid(SchemePoint("timing", p=p, n=n, p_tr=0.5, k_tr=k_tr),
                               target, xs, params, AffineTransform()) for k_tr in (10.0, 0.0)]
        for x in xs:
            cells = map(next, grids)
            rows.append([float(x), *(timing_ratio_point(point, params, u) for point, (_, _, u) in cells)])
        return ["n" if left else "p_tr", "ratio_weighted", "ratio_unweighted"], rows

    if fig_id in ("fig7", "figA2"):
        xs = grid_points(0.3, 0.99, 70) if fig_id == "fig7" else grid_points(0.05, 0.99, 95)
        memo: dict = {}
        for p_pr in xs:
            points = [SchemePoint(s, p=p, n=n, p_pr=p_pr)
                      for s in ("dual-a-after", "dual-a-before", "dual-b")]
            rows.append([p_pr, *(dual_ratio_point(pt, params, v["k2_prob"], memo=memo)
                                 for pt in points)])
        return ["p_pr", "ratio_separate_after", "ratio_separate_before", "ratio_incorporated"], rows

    # figA3: the full range is [0, 1/p]; partial divides by (1/p)**(1/alpha)
    for x in grid_points(0.01, 0.5, 50):
        point = SchemePoint("gamble", hi=1.0 / x, lo=0.0, p=x)
        modes = (AffineTransform(), PartialScaling(), AffineTransform(x ** (-1.0 / params.alpha)))
        rows.append([x, *(evaluate_point(point, params, mode)[2] for mode in modes)])
    return ["p", "utility_unscaled", "utility_full", "utility_partial"], rows


def render_csv(header: list[str], rows: list[list[float]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write(text: str, out: str) -> None:
    """Write text to the file out, or to stdout if out is '-'."""
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_figure(args: argparse.Namespace) -> int:
    overrides = {name: getattr(args, name) for name in FIGURE_FLAGS}
    header, rows = figure_rows(args.id, overrides)
    _write(render_csv(header, rows), args.out if args.out is not None else f"{args.id}.csv")
    return 0


# --- sweep ------------------------------------------------------------------


def sweep_rows(
    target: str,
    values: list[float],
    fixed: SchemePoint,
    params: ModelParams,
    mode: ScalingMode,
    k2_prob: float,
) -> tuple[list[str], list[list[float]]]:
    """Header and rows of fixed's scheme with its field target set to each value."""
    entry = SCHEMES.get(fixed.scheme)
    if entry is None or target not in entry.fields:
        raise ValidationError(f"target {target!r} does not apply to scheme {fixed.scheme!r}")
    header = [target, "u0", "delta", "utility"]
    if entry.column is not None:
        header.append(entry.column)
    # a ratio is made of unscaled utilities: the row's own if unscaled
    unscaled = mode == AffineTransform()
    plain = None if unscaled else evaluate_grid(fixed, target, values, params, AffineTransform())
    memo: dict = {}
    rows = []
    for point, (u0, delta, util) in evaluate_grid(fixed, target, values, params, mode):
        row = [getattr(point, target), u0, delta, util]
        if entry.ratio is not None:
            u = util if unscaled else next(plain)[1][2]
            row.append(entry.ratio(point, params, k2_prob, u, memo))
        rows.append(row)
    return header, rows


def cmd_sweep(args: argparse.Namespace) -> int:
    params = _params_from(args)
    mode = parse_scaling_mode(args.scaling)
    fixed = _point_from(args)
    k2_prob = args.k2_prob
    if k2_prob is None:
        k2_prob = DualRiskSpec.k2_prob
    elif "k2_prob" not in getattr(SCHEMES.get(fixed.scheme), "ratio_flags", ()):
        raise ValidationError(f"scheme {args.scheme!r} does not read --k2-prob")
    elif not (math.isfinite(k2_prob) and k2_prob >= 0.0):
        raise ValidationError(f"--k2-prob must be finite and >= 0, got {k2_prob!r}")
    if args.grid is not None and args.values is not None:
        raise ValidationError("give either --grid or --values, not both")
    if args.grid is not None:
        try:
            start, stop, count = args.grid.split(":")
            start, stop, count = float(start), float(stop), int(count)
        except ValueError as exc:
            raise ValidationError(f"bad grid spec {args.grid!r}: expected start:stop:count") from exc
        values = grid_points(start, stop, count)
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
    header, rows = sweep_rows(target, values, fixed, params, mode, k2_prob)
    _write(render_csv(header, rows), "-" if args.out is None else args.out)
    return 0


# --- wiring -----------------------------------------------------------------


def _params_from(args: argparse.Namespace) -> ModelParams:
    values = {f.name: getattr(args, f.name) for f in fields(ModelParams)}
    return ModelParams(**{**values, "modulation": Modulation(args.modulation)})


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
    given = {name: value for name in POINT_FIELDS if (value := getattr(args, name)) is not None}
    point = SchemePoint(scheme, tree_path=tree_path, **given)
    unread = [flag(name) for name in given if name not in reads(point)]
    if unread:
        raise ValidationError(f"scheme {args.scheme!r} does not read {', '.join(unread)}")
    if point.n is not None:
        point.n = whole(point.n, "--n must be a whole number")
    return point


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    """A flag per ModelParams field, at its default, with help from its docstring."""
    docs = dict(line.strip().partition(":")[::2] for line in (ModelParams.__doc__ or "").splitlines())
    for f in fields(ModelParams):
        if isinstance(f.default, Modulation):
            kind = {"choices": [m.value for m in Modulation], "default": f.default.value}
        else:
            kind = {"type": float, "default": f.default}
        sub.add_argument("--" + f.name, help=docs.get(f.name, "").strip(), **kind)
    sub.add_argument(
        "--scaling",
        default="none",
        help="outcome scaling: none | full | partial:<gamma> | scale:<s>",
    )


def _add_scheme_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scheme", required=True, help=" | ".join([*SCHEMES, "tree:<path>"]))
    for f in fields(SchemePoint):
        if "help" in f.metadata:
            default = "" if f.default is None else f" (default {fmt(f.default)})"
            sub.add_argument(flag(f.name), dest=f.name, type=float, help=f.metadata["help"] + default)


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
    for name in FIGURE_FLAGS:
        p_fig.add_argument(flag(name), dest=name, type=float)

    p_sweep = subs.add_parser("sweep", help="sweep one parameter of a scheme")
    _add_scheme_flags(p_sweep)
    _add_model_flags(p_sweep)
    p_sweep.add_argument("--target", required=True, help="point flag of the scheme to sweep")
    p_sweep.add_argument("--k2-prob", dest="k2_prob", type=float,
                         help="dual: negative-surprise gain for the probability-only "
                         f"comparison (default {fmt(DualRiskSpec.k2_prob)})")
    p_sweep.add_argument("--grid", help="start:stop:count")
    p_sweep.add_argument("--values", help="comma-separated explicit values")
    p_sweep.add_argument("--out", help="output path (default stdout)")
    return parser


#: The parser main reuses, built on its first call: building it costs
#: about as much as a small op, and importing the module stays cheap.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "figure":
            return cmd_figure(args)
        return cmd_sweep(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(
            f"error: numeric overflow ({exc}): the surprise is too large for a float; "
            "rescale the payoffs with --scaling full or --scaling partial:<gamma>",
            file=sys.stderr,
        )
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
