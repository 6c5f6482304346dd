"""Command-line front end: single evaluations, figure data, parameter sweeps.

Three subcommands, all emitting CSV (comma-separated, header row, LF
newlines, UTF-8, floats printed with 12 significant digits):

    eval    one scheme at one parameter point -> one row on stdout
    figure  a named data set over its standard grid -> CSV file
    sweep   one scheme over a parameter grid -> CSV on stdout

The flags derive from ``ModelParams`` (model flags, defaults),
``SchemePoint`` (point flags, their help, ``eval``'s point columns),
``SCHEMES`` (what each scheme reads: required flags, sweep targets) and
``FIGURES`` (what each figure reads, at its defaults, and what it sweeps);
an unread flag exits 2.  Every number is produced by the same single-point
evaluator (exhaustive tree evaluation after optional outcome scaling), so
figure cells equal what ``eval`` prints for the matching point; an
unscaled sweep row hands its utility to its ratio instead of evaluating
the tree again.  A figure is sweeps of a few fixed points over one grid,
so its columns are sweep columns: ``sweep`` and every figure but figA3
draw their rows from one generator, ``iter_rows``.  The only
closed-form-only quantity is the fixed-delay comparison utility inside
timing ratios, whose fractional delay has no tree.

Exit codes: 0 ok, 1 i/o failure, 2 validation failure, overflow, undefined
ratio, subnormal u0 or utility, or exhausted memory.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterator, NamedTuple, Sequence

from .builders import dual_a_levels, dual_b_levels, gamble_levels, hazard_levels, timing_levels
from .closed_form import (
    DualRiskSpec,
    DualScheme,
    HazardSpec,
    TimingRiskSpec,
    discount_factor,
    dual_surprise,
    hazard_total_surprise,
    mean_delay,
    timing_components,
)
from .core import (ModelParams, Modulation, ValidationError, check_nonnegative, check_whole,
                   is_whole, utility)
from .scaling import (AffineTransform, PartialScaling, ScalingMode, _scaled_evaluation,
                      parse_scaling_mode, reads_payoff_range)
from .tree import ResolutionNode, Spine, ValidationReport, load_tree, stack, validate


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
    check_whole("grid count", count, 2)
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


POINT_FIELDS = tuple(f.name for f in fields(SchemePoint) if "help" in f.metadata)


#: A tree and its ``tree.validate`` report.
Built = tuple[ResolutionNode, ValidationReport]


class Scheme(NamedTuple):
    """A built-in scheme.

    fields: the point fields it reads: its required flags, in reporting
        order, its sweep targets and the only point flags it takes
    build: the point's tree and its ``tree.validate`` report
    column, ratio: its sweeps' ratio column, and
        ratio(point, params, k2_prob, u, memo), u being the point's unscaled
        utility and memo a dict that lives for one sweep or one figure, all
        its series (see dual_ratio_point)
    ratio_flags: the sweep flags that ratio reads
    nests_from: if its trees nest in n, the smallest n it takes; the tree
        at n + 1 is then one level whose last branch leads to the tree at
        n and whose other branches end in terminals, so every tree of the
        scheme is a spine: its internal nodes all lie on the path of last
        branches (see evaluate_grid and tree.Spine)
    closed: closed(point, params), the point's (total surprise, utility)
        from the closed forms, which the tree must match; None if it has none
    """

    fields: tuple[str, ...]
    build: Callable[[SchemePoint], Built]
    column: str | None = None
    ratio: Callable[..., float] | None = None
    ratio_flags: tuple[str, ...] = ()
    nests_from: int | None = None
    closed: Callable[[SchemePoint, ModelParams], tuple[float, float]] | None = None


def _dual(build: Callable[[DualRiskSpec], Built], scheme: DualScheme) -> Scheme:
    """A dual-risk entry: build a DualRiskSpec of the point under scheme."""
    def spec(pt: SchemePoint) -> DualRiskSpec:
        return DualRiskSpec(pt.p, pt.n, pt.p_pr, scheme)
    return Scheme(
        ("p", "n", "p_pr"),
        lambda pt: build(spec(pt)),
        "discount_ratio",
        lambda pt, params, k2_prob, u, memo: dual_ratio_point(pt, params, k2_prob, u, memo),
        ("k2_prob",),
        closed=lambda pt, params: _closed(dual_surprise(spec(pt), params),
                                          pt.p_pr * (1.0 - pt.p) ** pt.n, params),
    )


def _closed(delta: float, u0: float, params: ModelParams) -> tuple[float, float]:
    """A closed form's total surprise delta and the utility of expected value u0."""
    return delta, utility(u0, delta, params)


def _timing_closed(pt: SchemePoint, params: ModelParams) -> tuple[float, float]:
    comps = timing_components(TimingRiskSpec(pt.p, pt.n, pt.p_tr, pt.k_tr), params)
    return _closed(comps.delta_total, comps.e_tr, params)


# Entries call stack, the builders' levels, closed forms and ratio helpers by
# their module-level names at call time, so rebinding those names (as a
# tracer does) reaches them.  Each tree comes with its report from stack.
SCHEMES = {
    "gamble": Scheme(("hi", "lo", "p"), lambda pt: stack(*gamble_levels(pt.hi, pt.lo, pt.p))),
    "hazard": Scheme(
        ("p", "n"), lambda pt: stack(*hazard_levels(pt.p, pt.n)), nests_from=1,
        closed=lambda pt, params: (hazard_total_surprise(HazardSpec(pt.p, pt.n), params),
                                   discount_factor(HazardSpec(pt.p, pt.n), params)),
    ),
    "timing": Scheme(
        ("p", "n", "p_tr", "k_tr"),
        lambda pt: stack(*timing_levels(TimingRiskSpec(pt.p, pt.n, pt.p_tr, pt.k_tr))),
        "timing_ratio",
        lambda pt, params, k2_prob, u, memo: timing_ratio_point(pt, params, u),
        nests_from=2,
        closed=_timing_closed,
    ),
    "dual-a-after": _dual(lambda spec: stack(*dual_a_levels(spec)),
                          DualScheme.SEPARATE_AFTER)._replace(nests_from=1),
    "dual-a-before": _dual(lambda spec: stack(*dual_a_levels(spec)), DualScheme.SEPARATE_BEFORE),
    "dual-b": _dual(lambda spec: stack(*dual_b_levels(spec)), DualScheme.INCORPORATED),
}


def scheme_of(name: str) -> Scheme:
    """name's SCHEMES entry, or for tree:<path> a Scheme that reads no field and loads path."""
    if name.startswith("tree:"):
        path = name.removeprefix("tree:")
        if not path:
            raise ValidationError("tree scheme needs a path: tree:<path>")
        return Scheme((), lambda pt: _validated(load_tree(path)))
    if name not in SCHEMES:
        raise ValidationError(f"unknown scheme {name!r}; expected one of "
                              f"{', '.join(SCHEMES)} or tree:<path>")
    return SCHEMES[name]


def _validated(node: ResolutionNode) -> Built:
    return node, validate(node)


def build_scheme_tree(point: SchemePoint) -> Built:
    """The point's tree and its ``tree.validate`` report."""
    scheme = scheme_of(point.scheme)
    for name in scheme.fields:
        if getattr(point, name) is None:
            raise ValidationError(f"scheme {point.scheme!r} requires {flag(name)}")
    return scheme.build(point)


def evaluate_point(
    point: SchemePoint, params: ModelParams, mode: ScalingMode
) -> tuple[float, float, float]:
    """(raw expected value, surprise of the scaled tree, final utility)."""
    result = _scaled_evaluation(*build_scheme_tree(point), params, mode)
    return result.raw_expected_value, result.scaled.total_surprise, result.utility


def evaluate_grid(
    fixed: SchemePoint, target: str, values: Sequence[float], params: ModelParams, mode: ScalingMode
) -> Iterator[tuple[SchemePoint, tuple[float, float, float]]]:
    """(point, evaluate_point(point, params, mode)) for fixed with its field
    target set to each value, in list order; a bad value raises when reached.

    Where target is n, fixed's scheme nests in n, mode reads no payoff
    range and every value is a valid n, the rows share one build and its
    report: those of the tree at the largest value, N.  That tree is a
    spine (see ``Scheme.nests_from``), and the tree at n is its node N - n
    levels down the last branches, so a ``tree.Spine`` of it under the
    grid's one params and scale gives each row from flat lists, computing
    each node's kernel jump once.  Otherwise every row is evaluated alone.
    The shared build waits for the first point, whose own build would
    raise the same errors: none depends on n.
    """
    first = scheme_of(fixed.scheme).nests_from if target == "n" else None
    shared = (first is not None and not reads_payoff_range(mode)
              and all(is_whole(value) and value >= first for value in values))
    attrs, spine = vars(fixed).copy(), None
    for value in values:
        if target == "n":
            value = whole(value, "n grid values must be whole numbers")
        attrs[target] = value
        point = SchemePoint(**attrs)
        if not shared:
            yield point, evaluate_point(point, params, mode)
            continue
        if spine is None:
            depth = int(max(values))
            _, report = build_scheme_tree(SchemePoint(**{**attrs, "n": depth}))
            # mode is a fixed map here: scaled_evaluation's transform
            spine = Spine(report, params, mode.scale)
        yield point, _spine_point(spine, depth - value, mode)


def _spine_point(spine: Spine, i: int, transform: AffineTransform) -> tuple[float, float, float]:
    """evaluate_point's triple for the tree at path node i of spine, whose
    scale is transform's.  Its stage surprises die here, not at the next row."""
    scaled = spine.result(i, transform.offset)
    return (spine.table[id(spine.nodes[i])], scaled.total_surprise,
            transform.invert_utility(scaled.utility))


def _subnormal(values: dict[str, float]) -> str | None:
    """The first name in values whose float is nonzero and subnormal (short of digits), or None."""
    for name, value in values.items():
        if 0.0 < abs(value) < sys.float_info.min:
            return name
    return None


def _row(point: SchemePoint) -> str:
    """point's row in a message: each field its scheme reads, or its scheme if none."""
    return (", ".join(f"{name}={getattr(point, name)!r}" for name in scheme_of(point.scheme).fields)
            or point.scheme)


def _ratio(utility: float, reference: float, point: SchemePoint) -> float:
    """utility / reference; ValidationError if reference is 0 or either is subnormal."""
    values = {"utility": utility, "reference utility": reference}
    name = _subnormal(values)
    if reference == 0.0 or name is not None:
        why = ("reference utility underflows to 0" if reference == 0.0
               else f"{name} underflows to the subnormal {values[name]!r}")
        raise ValidationError(f"ratio undefined at {_row(point)}: its {why}")
    return utility / reference


def _refuse_subnormal(point: SchemePoint, **columns: float) -> None:
    """ValidationError if a column of point's row is a subnormal float."""
    column = _subnormal(columns)
    if column is not None:
        raise ValidationError(f"{column} at {_row(point)} underflows "
                              f"to the subnormal {columns[column]!r}")


def timing_ratio_point(point: SchemePoint, params: ModelParams, u: float) -> float:
    """Tree-based timing-lottery utility u, point's unscaled utility, over
    the fixed-delay closed form.  The mean delay reads the point's n and
    p_tr, which the row's own build checked."""
    return _ratio(u, discount_factor(HazardSpec(point.p, mean_delay(point)), params), point)


def dual_ratio_point(point: SchemePoint, params: ModelParams, k2_prob: float,
                     u: float, memo: dict) -> float:
    """Tree-based discount ratio U_pt / (U_p * U_t), U_pt being u, point's
    unscaled utility.

    U_t is the plain hazard chain at p and n, and U_p the unit gamble won
    with probability p_pr at the probability-only gain k2_prob.  memo, a
    dict that lives for one sweep or one figure (one params and k2_prob),
    keeps each under (p, n) and p_pr once evaluated, and U_p's params
    under None.
    """
    if (point.p, point.n) not in memo:
        hazard = SchemePoint("hazard", p=point.p, n=point.n)
        memo[point.p, point.n] = evaluate_point(hazard, params, AffineTransform())[2]
    if point.p_pr not in memo:
        if None not in memo:
            memo[None] = replace(params, k2=k2_prob)
        gamble = SchemePoint("gamble", hi=1.0, lo=0.0, p=point.p_pr)
        memo[point.p_pr] = evaluate_point(gamble, memo[None], AffineTransform())[2]
    return _ratio(u, memo[point.p_pr] * memo[point.p, point.n], point)


def iter_rows(fixed: SchemePoint, target: str, values: Sequence[float], params: ModelParams,
              mode: ScalingMode, k2_prob: float | None, memo: dict) -> Iterator[list[float]]:
    """[value, u0, delta, utility] of fixed with its field target set to
    each value, in list order, plus its scheme's ratio if it has one, with
    the ratio's memo (see ``Scheme``); a bad value raises when reached."""
    ratio = scheme_of(fixed.scheme).ratio
    # a ratio is made of unscaled utilities: the row's own if unscaled
    unscaled = mode == AffineTransform()
    plain = None if unscaled else evaluate_grid(fixed, target, values, params, AffineTransform())
    for point, (u0, delta, util) in evaluate_grid(fixed, target, values, params, mode):
        row = [getattr(point, target), u0, delta, util]
        if ratio is not None:
            u = util if unscaled else next(plain)[1][2]
            row.append(ratio(point, params, k2_prob, u, memo))
        _refuse_subnormal(point, u0=u0, utility=util)
        yield row


# --- eval -------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    params = _params_from(args)
    mode = parse_scaling_mode(args.scaling)
    point = _point_from(args)
    u0, delta, util = evaluate_point(point, params, mode)
    _refuse_subnormal(point, u0=u0, utility=util)
    read = scheme_of(point.scheme).fields
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


class Figure(NamedTuple):
    """A named figure data set: sweeps of its series over one grid, read a
    row of each at a time.

    reads: the parameters it reads, at their defaults: its flags
    columns: the names of its columns after the target's
    target, grid: the swept point field and its values
    series: the fixed points it sweeps, each given the p and n it reads
    cells: a row's cells after the target, from the series' sweep rows
        [x, u0, delta, utility, ratio if the scheme has one], in order
    """

    reads: dict
    columns: tuple[str, ...]
    target: str
    grid: Sequence[float]
    series: tuple[SchemePoint, ...] = ()
    cells: Callable[..., list[float]] = lambda *rows: [row[4] for row in rows]


def _reads(**defaults) -> dict:
    """The model's parameters at their defaults, updated by defaults."""
    return {**vars(ModelParams()), **defaults}


_HAZARD = (SchemePoint("hazard"),)
_TIMING = tuple(SchemePoint("timing", p_tr=0.5, k_tr=k_tr) for k_tr in (10.0, 0.0))
_DUAL = tuple(map(SchemePoint, ("dual-a-after", "dual-a-before", "dual-b")))
_TIMING_COLUMNS = ("ratio_weighted", "ratio_unweighted")
_DUAL_COLUMNS = ("ratio_separate_after", "ratio_separate_before", "ratio_incorporated")

#: Each figure id, in presentation order: the parameters it reads at their
#: defaults, and the sweeps its rows are made of.  figA3, whose x sets hi,
#: p and a scale together, is evaluated point by point (see figure_rows).
FIGURES = {
    "fig1": Figure(_reads(), ("utility",), "p", grid_points(0.01, 0.99, 99),
                   (SchemePoint("gamble", hi=1.0, lo=0.0),), lambda row: [row[3]]),
    "fig3-left": Figure(_reads(k2=10.0, p=0.03), ("surprise_magnitude", "linear_reference"), "n",
                        range(1, 51), _HAZARD, lambda row: [abs(row[2]), 0.088 * row[0]]),
    "fig3-right": Figure(_reads(k2=10.0, p=0.03), ("discount_factor", "exponential", "hyperbolic"),
                         "n", range(1, 51), _HAZARD, lambda row: [row[3], math.exp(-0.3 * row[0]),
                                                                  1.0 / (1.0 + 0.88 * row[0])]),
    "fig5-left": Figure(_reads(k2=10.0, p=0.03), _TIMING_COLUMNS, "n", range(2, 13), _TIMING),
    "fig5-right": Figure(_reads(k2=10.0, p=0.03, n=4), _TIMING_COLUMNS, "p_tr",
                         grid_points(0.05, 0.95, 91), _TIMING),
    "fig7": Figure(_reads(k2=10.0, p=0.03, n=4, k2_prob=2.0), _DUAL_COLUMNS, "p_pr",
                   grid_points(0.3, 0.99, 70), _DUAL),
    "figA1": Figure(_reads(modulation=Modulation.EXPONENTIAL_NEGATIVE, p=0.03),
                    ("discount_factor", "exponential"), "n", range(1, 51), _HAZARD,
                    lambda row: [row[3], math.exp(-0.2 * row[0])]),
    "figA2": Figure(_reads(k2=10.0, p=0.03, n=4, k2_prob=10.0), _DUAL_COLUMNS, "p_pr",
                    grid_points(0.05, 0.99, 95), _DUAL),
    "figA3": Figure(_reads(), ("utility_unscaled", "utility_full", "utility_partial"), "p",
                    grid_points(0.01, 0.5, 50)),
}
#: The figure command's flags: every number some figure reads.
FIGURE_FLAGS = tuple(dict.fromkeys(name for fig in FIGURES.values() for name, value
                                   in fig.reads.items() if not isinstance(value, Modulation)))


def figure_rows(fig_id: str, overrides: dict | None = None) -> tuple[list[str], list[list[float]]]:
    """Header and value rows for one named figure data set.

    Grid and parameter defaults follow the standard presentation of each
    data set; ``overrides`` may replace the parameters the figure reads,
    its ``FIGURES`` entry, and no other (None values are ignored).
    """
    if fig_id not in FIGURES:
        raise ValidationError(f"unknown figure id {fig_id!r}; expected one of {', '.join(FIGURES)}")
    fig = FIGURES[fig_id]
    given = {name: value for name, value in (overrides or {}).items() if value is not None}
    unread = [flag(name) for name in given if name not in fig.reads]
    if unread:
        raise ValidationError(f"figure {fig_id!r} does not read {', '.join(unread)}")
    v = {**fig.reads, **given}
    params = ModelParams(**{f.name: v[f.name] for f in fields(ModelParams)})
    if v.get("n") is not None:
        v["n"] = whole(v["n"], "--n must be a whole number")
    k2_prob = check_nonnegative("--k2-prob", v["k2_prob"]) if "k2_prob" in v else None
    header, rows = [fig.target, *fig.columns], []
    if not fig.series:
        # figA3: the full range is [0, 1/p]; partial divides by (1/p)**(1/alpha)
        for x in fig.grid:
            point = SchemePoint("gamble", hi=1.0 / x, lo=0.0, p=x)
            modes = (AffineTransform(), PartialScaling(), AffineTransform(x ** (-1.0 / params.alpha)))
            utilities = [evaluate_point(point, params, mode)[2] for mode in modes]
            _refuse_subnormal(point, **dict(zip(fig.columns, utilities)))
            rows.append([x, *utilities])
        return header, rows
    # one ratio memo serves every series (see Scheme); zip reads a row of each
    # at a time, in the order of a row-by-row evaluation, and lists no series
    memo: dict = {}
    fixed = {name: v[name] for name in POINT_FIELDS if name in v}
    series = [iter_rows(replace(point, **fixed), fig.target, fig.grid, params, AffineTransform(),
                        k2_prob, memo) for point in fig.series]
    return header, [[float(cells[0][0]), *fig.cells(*cells)] for cells in zip(*series)]


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


def sweep_rows(target: str, values: list[float], fixed: SchemePoint, params: ModelParams,
               mode: ScalingMode, k2_prob: float) -> tuple[list[str], list[list[float]]]:
    """Header and rows of fixed's scheme with its field target set to each value."""
    entry = scheme_of(fixed.scheme)
    if target not in entry.fields:
        raise ValidationError(f"target {target!r} does not apply to scheme {fixed.scheme!r}")
    header = [target, "u0", "delta", "utility", *[entry.column] * (entry.column is not None)]
    return header, list(iter_rows(fixed, target, values, params, mode, k2_prob, {}))


def cmd_sweep(args: argparse.Namespace) -> int:
    params = _params_from(args)
    mode = parse_scaling_mode(args.scaling)
    fixed = _point_from(args)
    if args.k2_prob is not None and "k2_prob" not in scheme_of(fixed.scheme).ratio_flags:
        raise ValidationError(f"scheme {args.scheme!r} does not read --k2-prob")
    k2_prob = (DualRiskSpec.k2_prob if args.k2_prob is None
               else check_nonnegative("--k2-prob", args.k2_prob))
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
    reads = scheme_of(args.scheme).fields
    given = {name: value for name in POINT_FIELDS if (value := getattr(args, name)) is not None}
    point = SchemePoint(args.scheme, **given)
    unread = [flag(name) for name in given if name not in reads]
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
    except MemoryError:
        pass  # reported below, once leaving the handler has freed the half-built tree
    print("error: out of memory: the tree is too large to build or evaluate; "
          "the closed forms (anticipated_surprise.closed_form) cover any n", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
