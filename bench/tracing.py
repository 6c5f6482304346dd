"""Per-layer tracing from outside the package.

Every traced function is replaced, in every module namespace that bound
it, by a wrapper that records a span (name, start, end, parent, op id).
Because calls between modules go through those namespaces, nested calls
nest as spans: ``scaling.scaled_evaluation`` -> ``tree.evaluate`` ->
``tree.stage_surprises`` -> ``tree.validate``.  Recursive functions
open a span only at their outermost call.  The scalar kernels of
``core`` run once per tree node, so they are counted, not spanned.

Spans are kept in flat arrays in memory and written out when the run
ends.  A span's self time is its duration minus its direct children's;
node counting done for a span is wrapped in a ``trace.bookkeeping`` span
so that it lands in no layer's self time.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from anticipated_surprise.tree import Internal

PACKAGE = "anticipated_surprise"
#: Layers with spans; ``core`` is only counted.
SPANNED_LAYERS = ("cli", "builders", "tree", "scaling", "closed_form")

#: (module, function, span name).  Builders share one span name: a layer
#: metric counts outermost builder calls, whichever builder it was.
SPANNED = [
    ("cli", "evaluate_point", "cli.evaluate_point"),
    ("cli", "timing_ratio_point", "cli.timing_ratio_point"),
    ("cli", "dual_ratio_point", "cli.dual_ratio_point"),
    ("cli", "figure_rows", "cli.figure_rows"),
    ("cli", "sweep_rows", "cli.sweep_rows"),
    ("cli", "render_csv", "cli.render_csv"),
    ("builders", "build_binary_gamble", "builders.build"),
    ("builders", "build_hazard_chain", "builders.build"),
    ("builders", "build_timing_risk", "builders.build"),
    ("builders", "build_dual_scheme_a", "builders.build"),
    ("builders", "build_dual_scheme_b", "builders.build"),
    ("tree", "validate", "tree.validate"),
    ("tree", "evaluate", "tree.evaluate"),
    ("tree", "stage_surprises", "tree.stage_surprises"),
    ("tree", "expected_value", "tree.expected_value"),
    ("tree", "load_tree", "tree.load_tree"),
    ("scaling", "derive_transform", "scaling.derive_transform"),
    ("scaling", "scaled_evaluation", "scaling.scaled_evaluation"),
    ("closed_form", "discount_factor", "closed_form.discount_factor"),
    ("closed_form", "timing_ratio", "closed_form.timing_ratio"),
    ("closed_form", "discount_ratio", "closed_form.discount_ratio"),
]
RECURSIVE = [
    ("scaling", "transform_payoffs", "scaling.transform_payoffs"),
    ("tree", "tree_from_dict", "tree.tree_from_dict"),
]
COUNTED = [
    ("core", "surprise_kernel"),
    ("core", "surprise_modulation"),
    ("core", "utility"),
]
BOOKKEEPING = "trace.bookkeeping"


def count_nodes(node) -> int:
    count = 0
    stack = [node]
    while stack:
        nd = stack.pop()
        count += 1
        if isinstance(nd, Internal):
            stack.extend(br.child for br in nd.branches)
    return count


class Recorder:
    """Spans in flat arrays; index order is start order."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.nodes = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.nodes.append(-1)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def set_nodes(self, i: int, count_fn, *args) -> None:
        """Attach a node count to span i, timing the counting as bookkeeping."""
        b = self.open(self.name_id(BOOKKEEPING))
        try:
            self.nodes[i] = count_fn(*args)
        finally:
            self.close(b)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\tnodes\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i]}\t{self.end[i]}\t{self.nodes[i]}\n")


def _modules() -> list:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Installs the wrappers into every namespace that binds a traced
    function, and restores the originals on exit."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []

    def _rebind(self, original, replacement) -> list:
        bound = []
        for mod in _modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    bound.append((mod, attr))
        return bound

    def __enter__(self):
        rec = self.rec
        for modname, fname, span in SPANNED:
            fn = getattr(sys.modules[f"{PACKAGE}.{modname}"], fname)
            self._rebind(fn, self._span_wrapper(fn, rec.name_id(span)))
        for modname, fname, span in RECURSIVE:
            fn = getattr(sys.modules[f"{PACKAGE}.{modname}"], fname)
            wrapper = self._outermost_wrapper(fn, rec.name_id(span))
            wrapper.bindings = self._rebind(fn, wrapper)
        for modname, fname in COUNTED:
            fn = getattr(sys.modules[f"{PACKAGE}.{modname}"], fname)
            self._rebind(fn, self._count_wrapper(fn, f"{modname}.{fname}"))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _span_wrapper(self, fn, name_id: int):
        rec = self.rec
        is_build = rec.names[name_id] == "builders.build"
        is_validate = rec.names[name_id] == "tree.validate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = rec.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(i)
            if is_validate:
                rec.nodes[i] = result.node_count
            elif is_build:
                rec.set_nodes(i, count_nodes, result)
            return result

        return wrapper

    def _outermost_wrapper(self, fn, name_id: int):
        rec = self.rec
        is_transform = rec.names[name_id] == "scaling.transform_payoffs"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # run the recursion unwrapped, then put the wrapper back
            for mod, attr in wrapper.bindings:
                setattr(mod, attr, fn)
            i = rec.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(i)
                for mod, attr in wrapper.bindings:
                    setattr(mod, attr, wrapper)
                if is_transform:
                    rec.set_nodes(i, count_nodes, args[0])
                    if args[1].is_identity:
                        rec.counts["scaling.identity_copy_nodes"] += rec.nodes[i]

        return wrapper

    def _count_wrapper(self, fn, key: str):
        counts = self.rec.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


# --- per-layer metrics ------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def analyse(rec: Recorder, passes: int, rows_per_pass: int, scales) -> tuple[dict, dict]:
    """Per-pass layer metrics, plus the self-time accounting by layer.

    ``scales[op]`` converts op ``op``'s wall times to reference time (see
    run.Phase).  Checks that spans nest and that the layers' self times add
    up to the traced operations' time; raises RuntimeError otherwise.
    """
    n = len(rec.start)
    names = [rec.names[rec.name[i]] for i in range(n)]
    for i in range(n):
        p = rec.parent[i]
        if p >= 0 and not (rec.start[p] <= rec.start[i] and rec.end[i] <= rec.end[p]):
            raise RuntimeError(f"span {i} ({names[i]}) is not inside its parent {p}")
    dur = [(rec.end[i] - rec.start[i]) * scales[rec.op[i]] for i in range(n)]
    child_time = [0.0] * n
    for i in range(n):
        if rec.parent[i] >= 0:
            child_time[rec.parent[i]] += dur[i]
    self_time = [dur[i] - child_time[i] for i in range(n)]

    # node counts of evaluate/load_tree come from the validate they run
    for i in range(n):
        if names[i] == "tree.validate":
            p = rec.parent[i]
            while p >= 0 and names[p] not in ("tree.evaluate", "tree.load_tree"):
                p = rec.parent[p]
            if p >= 0 and rec.nodes[p] < 0:
                rec.nodes[p] = rec.nodes[i]

    def outermost(i: int) -> bool:
        p = rec.parent[i]
        while p >= 0:
            if names[p] == names[i]:
                return False
            p = rec.parent[p]
        return True

    calls, total, nodes, selfs = Counter(), Counter(), Counter(), Counter()
    outer_calls, outer_total, outer_nodes = Counter(), Counter(), Counter()
    layer_self = Counter()
    roots_total = 0.0
    for i in range(n):
        name = names[i]
        calls[name] += 1
        total[name] += dur[i]
        selfs[name] += self_time[i]
        if rec.nodes[i] > 0:
            nodes[name] += rec.nodes[i]
        if outermost(i):
            outer_calls[name] += 1
            outer_total[name] += dur[i]
            outer_nodes[name] += max(rec.nodes[i], 0)
        layer_self[layer_of(name)] += self_time[i]
        if rec.parent[i] < 0:
            roots_total += dur[i]
    if not math.isclose(math.fsum(layer_self.values()), roots_total, rel_tol=1e-9):
        raise RuntimeError("layer self times do not add up to the traced op time")

    ns_per_ms_pass = 1e6 * passes  # reference ns over the run -> ms per pass

    def ratio(a, b):
        return a / b if b else 0.0

    cf = ("closed_form.discount_factor", "closed_form.timing_ratio", "closed_form.discount_ratio")
    m = {
        "tree.validate.calls": calls["tree.validate"] / passes,
        "tree.validate.nodes": nodes["tree.validate"] / passes,
        "tree.validate.ms": total["tree.validate"] / ns_per_ms_pass,
        "tree.validates_per_point": ratio(calls["tree.validate"], calls["cli.evaluate_point"]),
        "tree.evaluate.calls": calls["tree.evaluate"] / passes,
        "tree.evaluate.ms": total["tree.evaluate"] / ns_per_ms_pass,
        "tree.evaluate.ns_per_node": ratio(total["tree.evaluate"], nodes["tree.evaluate"]),
        "tree.expected_value.calls": calls["tree.expected_value"] / passes,
        "tree.expected_value.ms": total["tree.expected_value"] / ns_per_ms_pass,
        "tree.load_tree.ms": total["tree.load_tree"] / ns_per_ms_pass,
        "tree.load_tree.ns_per_node": ratio(total["tree.load_tree"], nodes["tree.load_tree"]),
        "scaling.derive_transform.ms": total["scaling.derive_transform"] / ns_per_ms_pass,
        "scaling.transform_payoffs.calls": calls["scaling.transform_payoffs"] / passes,
        "scaling.transform_payoffs.nodes": nodes["scaling.transform_payoffs"] / passes,
        "scaling.transform_payoffs.ms": total["scaling.transform_payoffs"] / ns_per_ms_pass,
        "scaling.identity_copy_nodes": rec.counts["scaling.identity_copy_nodes"] / passes,
        "builders.build.calls": outer_calls["builders.build"] / passes,
        "builders.build.ms": outer_total["builders.build"] / ns_per_ms_pass,
        "builders.nodes_built": outer_nodes["builders.build"] / passes,
        "cli.evaluate_point.calls": calls["cli.evaluate_point"] / passes,
        "cli.evaluate_point.self_ms": selfs["cli.evaluate_point"] / ns_per_ms_pass,
        "cli.points_per_row": ratio(calls["cli.evaluate_point"], rows_per_pass * passes),
        "cli.render_csv.ms": total["cli.render_csv"] / ns_per_ms_pass,
        "closed_form.calls": sum(outer_calls[c] for c in cf) / passes,
        "closed_form.discount_factor.us": 1e-3 * ratio(total[cf[0]], calls[cf[0]]),
        "closed_form.timing_ratio.us": 1e-3 * ratio(total[cf[1]], calls[cf[1]]),
        "closed_form.discount_ratio.us": 1e-3 * ratio(total[cf[2]], calls[cf[2]]),
        "core.surprise_kernel.calls": rec.counts["core.surprise_kernel"] / passes,
    }
    for layer in SPANNED_LAYERS:
        m[f"{layer}.self_ms"] = layer_self[layer] / ns_per_ms_pass
    breakdown = {layer: layer_self[layer] / ns_per_ms_pass for layer in sorted(layer_self)}
    return m, breakdown
