"""``tree.stack``'s report against ``tree.validate``'s, field by field.

Every built-in point is a leaf and its levels, and ``stack`` fills the
report of the tree they pile into in one float loop, building no node.
This check takes every ``cli.SCHEMES`` entry and ``scenario_levels`` at
seeded points and at their edges (p -> 0, k_tr = 0, hi == lo, payoffs of
both zero signs, n = 1 and n = 3,000), plus hand-made levels that
``validate`` renormalizes or reads as ints, and asserts that each report
equals ``validate`` of the piled tree (``conftest.scheme_tree`` for an
entry): counts and renormalized paths equal, every float the same bits
(the sign of a zero and the type included), and the flat spine's values,
survivals and weights the same bits, list by list, and its sides the
same, pair by pair.  An entry hands over no tree.  A tree that
``validate`` refuses, a gamble with a payoff that is not finite or
hand-made levels with a weight or probabilities out of range, raises
``validate``'s own message.  The check needs no pytest:

    PYTHONPATH=src:tests python tests/test_stack_bits.py    # exit 1 on drift
"""

from __future__ import annotations

import random
import sys
from math import inf, nan
from typing import Callable

from anticipated_surprise import (Branch, Internal, ScenarioSpec, Terminal, ValidationError,
                                  validate)
from anticipated_surprise.builders import scenario_levels
from anticipated_surprise.cli import SCHEMES, SchemePoint
from anticipated_surprise.tree import pile, stack
from conftest import scheme_tree

SEED = 20261021
POINTS_PER_SCHEME = 300


def _bits(x: object) -> str:
    """x's type and, for a float, its hex: the sign of a zero included."""
    return f"{type(x).__name__}:{float.hex(x) if isinstance(x, float) else repr(x)}"


def _side_bits(sides: list) -> list[list[tuple[str, str]]]:
    """A flat spine's sides, each (p / total, payoff) pair as bits."""
    return [[(_bits(q), _bits(x)) for q, x in pairs] for pairs in sides]


def report_drift(root, report) -> list[str]:
    """The fields of report that differ from validate(root)'s."""
    want = validate(root)
    bad = [name for name in ("node_count", "max_depth", "renormalized")
           if getattr(report, name) != getattr(want, name)]
    bad += [name for name in ("payoff_min", "payoff_max", "expected_value")
            if _bits(getattr(report, name)) != _bits(getattr(want, name))]
    if (report.spine is None) != (want.spine is None):
        bad.append("spine")
    elif report.spine is not None:
        (values, sides, *columns), (want_values, want_sides, *want_columns) = report.spine, want.spine
        for name, got, exp in zip(("values", "survivals", "weights"), (values, *columns),
                                  (want_values, *want_columns)):
            if list(map(_bits, got)) != list(map(_bits, exp)):
                bad.append(f"spine {name}")
        if _side_bits(sides) != _side_bits(want_sides):
            bad.append("spine sides")
    return bad


def _point(rng: random.Random, scheme: str) -> SchemePoint:
    """A seeded valid point of scheme; a fifth of them at p in [1e-13, 1e-9]."""
    p = 10 ** rng.uniform(-13, -9) if rng.random() < 0.2 else 10 ** rng.uniform(-4, -0.3)
    return SchemePoint(scheme, p=p, n=rng.randint(2, 60), hi=rng.uniform(-5.0, 5.0),
                       lo=rng.uniform(-5.0, 5.0), p_tr=rng.uniform(0.01, 0.99),
                       k_tr=rng.uniform(0.0, 10.0), p_pr=rng.uniform(0.05, 0.99))


def _scenario(rng: random.Random) -> ScenarioSpec:
    steps = rng.randint(1, 12)
    return ScenarioSpec([rng.uniform(0.01, 0.99) for _ in range(steps)],
                        [rng.choice((0.0, -0.0, rng.uniform(-5.0, 5.0))) for _ in range(steps)],
                        rng.choice((0.0, -0.0, rng.uniform(-5.0, 5.0))))


def edge_points() -> list[SchemePoint]:
    """Each scheme at p -> 0, k_tr = 0, hi == lo, zeros of both signs, n = 1 and n = 3,000."""
    base = SchemePoint("", p=0.03, n=4, hi=2.0, lo=-1.0, p_tr=0.3, k_tr=4.0, p_pr=0.6)
    out = []
    for scheme in SCHEMES:
        first = 2 if scheme == "timing" else 1
        for change in ({"p": 5e-324}, {"p": 1e-17}, {"p": 0.5}, {"p": 0.9999999999999999},
                       {"k_tr": 0.0}, {"n": first}, {"n": 3000}):
            out.append(SchemePoint(**{**vars(base), "scheme": scheme, **change}))
    for hi, lo in ((2.0, 2.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0),
                   (1e308, 1.7e308), (-5e-324, 5e-324)):
        out.append(SchemePoint("gamble", p=0.3, hi=hi, lo=lo))
    return out


def hand_stacks() -> list[tuple[str, Terminal, list]]:
    """(name, leaf, levels) that validate takes with renormalized nodes, weights
    or payoffs that are not 1.0 or not floats."""
    loss = Branch(0.25, Terminal(-1.0))
    return [
        ("renormalized", Terminal(1.0), [(loss, 0.75 - 4e-13, 1.0, 6)]),
        ("weights", Terminal(-0.0), [(Branch(0.4, Terminal(0.0)), 0.6, 0.0, 2),
                                     (Branch(0.5, Terminal(-0.0)), 0.5, 1.0, 1),
                                     (loss, 0.75, 2.5, 3)]),
        ("renormalized below", Terminal(2.0), [(loss, 0.75 + 2e-16, 1.0, 1), (loss, 0.75, 1.0, 4)]),
        ("int payoff", Terminal(3), [(Branch(0.5, Terminal(-1)), 0.5, 1.0, 2)]),
        ("int weight", Terminal(1.0), [(loss, 0.75, 2, 2)]),
        ("bare leaf", Terminal(-0.0), []),
    ]


def _stacked(leaf, levels) -> tuple:
    """pile(leaf, levels) and stack(leaf, levels)."""
    return pile(leaf, levels), stack(leaf, levels)


def _built(point: SchemePoint) -> tuple:
    """point's tree and its scheme entry's report, the entry's tree checked to be None."""
    tree, report = SCHEMES[point.scheme].build(point)
    assert tree is None
    return scheme_tree(point), report


def cases():
    """(name, root, report) of every case, in a fixed order."""
    rng = random.Random(SEED)
    for scheme in SCHEMES:
        for i in range(POINTS_PER_SCHEME):
            point = _point(rng, scheme)
            try:
                root, report = _built(point)
            except ValidationError:  # dual-b's inflated hazard outside (0, 1)
                continue
            yield f"{scheme}-{i}", root, report
    for i in range(POINTS_PER_SCHEME):
        yield f"scenario-{i}", *_stacked(*scenario_levels(_scenario(rng)))
    for point in edge_points():
        yield f"edge-{point}", *_built(point)
    for name, leaf, levels in hand_stacks():
        yield name, *_stacked(leaf, levels)


#: (hi, lo, p) of gambles that validate refuses.
REFUSED_GAMBLES = [(inf, 0.0, 0.3), (1.0, -inf, 0.3), (nan, 0.0, 0.3), (1.0, nan, 0.5),
                   (-inf, inf, 0.5)]


def refused() -> list[tuple[str, Callable, object]]:
    """(name, a build, the tree it builds) of each case that validate refuses:
    the gambles through their scheme entry, and hand-made levels whose
    weight or probabilities no builder makes."""
    out = []
    for hi, lo, p in REFUSED_GAMBLES:
        point = SchemePoint("gamble", hi=hi, lo=lo, p=p)
        out.append((f"gamble {point}", lambda point=point: SCHEMES["gamble"].build(point),
                    Internal((Branch(p, Terminal(hi)), Branch(1.0 - p, Terminal(lo))))))
    loss = Branch(0.25, Terminal(0.0))
    for level in ((loss, 0.75, inf, 1), (loss, 0.75, nan, 2), (loss, 0.75, -1.0, 1),
                  (Branch(0.0, Terminal(0.0)), 1.0, 1.0, 1), (loss, 1.5, 1.0, 1),
                  (loss, 0.75 + 1e-9, 1.0, 1), (Branch(1.0, Terminal(0.0)), 0.0, 1.0, 1),
                  (Branch(1.0, Terminal(0.0)), -1e-17, 1.0, 1)):
        levels = [(loss, 0.75, 1.0, 2), level, (loss, 0.75, 1.0, 1)]
        out.append((f"level {level}", lambda levels=levels: stack(Terminal(1.0), levels),
                    pile(Terminal(1.0), levels)))
    return out


def _message(run: Callable) -> str:
    try:
        run()
    except ValidationError as exc:
        return str(exc)
    return "no error"


def refused_messages() -> list[tuple[str, str, str]]:
    """(name, the build's message, validate's message) of each refused case."""
    return [(name, _message(build), _message(lambda tree=tree: validate(tree)))
            for name, build, tree in refused()]


def drift() -> tuple[int, list[str]]:
    """The number of cases, and the names of those whose report drifts, each with its fields."""
    count, bad = 0, []
    for name, root, report in cases():
        count += 1
        fields = report_drift(root, report)
        if fields:
            bad.append(f"{name} ({', '.join(fields)})")
    for name, got, want in refused_messages():
        count += 1
        if got != want or want == "no error":
            bad.append(f"refused {name}: {got!r} != {want!r}")
    return count, bad


def test_stacked_reports_equal_validate():
    count, bad = drift()
    assert count > 6 * POINTS_PER_SCHEME and bad == []


def test_refused_inputs_raise_validates_message():
    for name, got, want in refused_messages():
        assert got == want and want.startswith("root"), name


if __name__ == "__main__":
    total, drifted = drift()
    print(f"{len(drifted)} of {total} stacked reports drift from validate's"
          + (f": {'; '.join(drifted[:10])}" if drifted else ""))
    sys.exit(1 if drifted else 0)
