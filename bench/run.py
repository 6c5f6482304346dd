"""Benchmark for the anticipated-surprise package: one workload per run.

    python3 bench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
this checkout, in-process; one caller, closed loop, no threads.  The
run repeats its workload's seeded pass of operations for ``--seconds``
(whole passes), then checks every output outside the timed region.
Op times are scaled to the host's current speed (see ``Phase``).

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it runs half the time untraced and half traced and reports the per-layer
metrics.  Human-readable lines come first; the last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``attempted`` and ``failed`` count executions of the timed operations;
the known-defect probes, which fail on purpose, are reported apart.
See README.md for the metrics and the known defects.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "anticipated_surprise"

CALIBRATE_EVERY_S = 0.1
#: An untraced run makes at least this many passes, so that op_tail_ms
#: on tree-file (16 ops a pass of several seconds) stays at p75.
MIN_PASSES = 3
#: Fresh interpreters timed for setup_s, spread over the timed ops, after
#: one untimed launch that writes the bytecode cache.
SETUP_LAUNCHES = 11
#: Candidate percentiles for op_tail_ms, highest first.  Beyond p99, the
#: microsecond closed-form calls measured host interrupts more than the
#: program (spread over runs 0.11-0.15 at p99.9, 0.02 at p99).
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
#: The traced phase also ends (after a whole pass) once it holds this many
#: spans, which bounds its memory and the spans file on microsecond ops.
SPAN_BUDGET = 300_000

END_TO_END_UNITS = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_alloc_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith((".calls", ".nodes", ".failed", "nodes_built", "identity_copy_nodes")):
        return "count"
    if name.endswith("ms"):
        return "ms"
    if name.endswith(".ns_per_node"):
        return "ns"
    if name.endswith(".us"):
        return "us"
    if name.endswith("max_abs_residual"):
        return "abs"
    return "ratio"


def load_package():
    """Import the package from this checkout's src/, or exit non-zero."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        sys.exit(f"bench: no package at {PACKAGE_DIR}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import anticipated_surprise

    if Path(anticipated_surprise.__file__).resolve().parent != PACKAGE_DIR:
        sys.exit(f"bench: imported {anticipated_surprise.__file__}, not this checkout's package")


# --- measuring ---------------------------------------------------------------


def _reference_doc(depth: int, rng: random.Random) -> dict:
    if depth == 0:
        return {"payoff": rng.uniform(-5.0, 5.0)}
    kids = [{"p": 0.5, "node": _reference_doc(depth - 1, rng)} for _ in range(2)]
    return {"branches": kids, "weight": 1.5}


#: A fixed 511-node binary tree as JSON, shaped like the benchmark's tree files.
REFERENCE_DOC = json.dumps(_reference_doc(8, random.Random(0)))


class _RefNode:
    __slots__ = ("value", "kids")

    def __init__(self, value: float, kids: tuple):
        self.value = value
        self.kids = kids


def _reference_walk(d: dict) -> _RefNode:
    if "payoff" in d:
        return _RefNode(d["payoff"], ())
    kids = tuple(_reference_walk(b["node"]) for b in d["branches"])
    value = sum(b["p"] * k.value for b, k in zip(d["branches"], kids))
    return _RefNode(value * d.get("weight", 1.0), kids)


def tree_reference_work() -> float:
    """Parse REFERENCE_DOC and evaluate it into new objects: dict lookups,
    calls, allocation and float arithmetic, like the CLI's tree work."""
    return _reference_walk(json.loads(REFERENCE_DOC)).value


def float_reference_work() -> float:
    """Float powers, small tuples and a dict, like a closed-form call."""
    acc = 0.0
    table = {}
    for i in range(5500):
        pair = (i, i * 0.5)
        table[i & 63] = pair
        acc += (pair[1] + 1.0) ** 1.6
    return acc


class Reference:
    """Fixed pure-Python work, none of it the package's, timed to track the
    host's speed (see Phase)."""

    def __init__(self, work, seconds: float, best: bool):
        self.work = work
        self.seconds = seconds  # its time on the reference machine, host quiet
        self.best = best  # best of three runs, else their mean

    def time(self) -> float:
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            self.work()
            runs.append(time.perf_counter() - t0)
        return min(runs) if self.best else statistics.fmean(runs)


#: Each workload's reference work resembles its ops.  CLI ops ran at the
#: host's mean speed, closed-form calls of microseconds at its best; these
#: choices gave the smallest spread over runs (see README.md).
REFERENCES = {
    "tree": Reference(tree_reference_work, 1.2e-3, best=False),
    "float": Reference(float_reference_work, 1e-3, best=True),
}


class Phase:
    """Latencies and results of one timed stretch of whole passes.

    The host's speed drifts by up to 2x as other tenants load it, and
    changes within a second.  So the reference work is timed before the
    first op, after the last, and between ops at least every
    CALIBRATE_EVERY_S, and each op's wall time is scaled by
    reference.seconds / t_ref, with t_ref the mean of the two timings
    around it.  Times are thus in *reference seconds*: on a quiet
    reference machine they are wall seconds, and on a loaded host they
    are corrected for its slowdown.
    """

    def __init__(self, reference: Reference = REFERENCES["tree"]):
        self.reference = reference
        self.latencies = array("d")  # wall seconds per op
        self.results: list = []
        self.passes = 0
        self.cal_at: list[int] = []  # op index at which each calibration ran
        self.cal_ref: list[float] = []

    def calibrate(self) -> None:
        self.cal_at.append(len(self.latencies))
        self.cal_ref.append(self.reference.time())

    def scales(self) -> array:
        """Per op: reference.seconds over the reference time around it."""
        ref_s = self.reference.seconds
        out = array("d")
        for j in range(len(self.cal_at) - 1):
            factor = ref_s / ((self.cal_ref[j] + self.cal_ref[j + 1]) / 2.0)
            out.extend([factor] * (self.cal_at[j + 1] - self.cal_at[j]))
        return out

    def normalized(self) -> list[float]:
        """Op latencies in reference seconds."""
        return [t * f for t, f in zip(self.latencies, self.scales())]

    def host_slowdown(self) -> float:
        """Mean reference time over reference.seconds: 1 on a quiet host."""
        return statistics.fmean(self.cal_ref) / self.reference.seconds


def run_passes(w, seconds: float, rec=None, max_spans: int | None = None,
               setup: SetupTimer | None = None, min_passes: int = 1) -> Phase:
    from workloads import call_cli
    from anticipated_surprise import closed_form

    ph = Phase(REFERENCES[w.reference])
    perf = time.perf_counter
    lat = ph.latencies
    results = ph.results
    root = None
    if rec is not None:
        root = rec.name_id("cli.main" if w.cli_ops else "bench.op")
    if w.cli_ops:
        calls = [(call_cli, (op.argv,)) for op in w.ops]
    else:
        calls = [(getattr(closed_form, op.func), (op.spec, op.params)) for op in w.ops]
    ph.calibrate()
    start = last_cal = perf()
    while True:
        for fn, args in calls:
            if w.cli_ops:
                # start each CLI op from a collected heap, as a fresh process
                # would; otherwise earlier ops' garbage sets when the
                # collector runs inside the next op
                gc.collect()
            if rec is not None:
                rec.op_id += 1
                span = rec.open(root)
            t0 = perf()
            try:
                result = fn(*args)
            except (Exception, SystemExit) as exc:
                result = exc
            t1 = perf()
            if rec is not None:
                rec.close(span)
            lat.append(t1 - t0)
            results.append(result)
            recalibrate = t1 - last_cal >= CALIBRATE_EVERY_S
            if setup is not None and setup.due(t1 - start):
                setup.launch()
                recalibrate = True
            if recalibrate:
                ph.calibrate()
                last_cal = perf()
        ph.passes += 1
        if max_spans and len(rec.start) >= max_spans:
            ph.calibrate()
            return ph
        if ph.passes >= min_passes and perf() - start >= seconds:
            ph.calibrate()
            return ph


class Tally:
    """Checks every execution of the timed ops, and the probes apart."""

    def __init__(self, w, probes):
        self.w = w
        self.probes = probes
        self.attempted = 0
        self.failed = 0
        self.op_failed = [False] * len(w.ops)
        self.failures: list[str] = []  # the first failures, one per distinct op
        self.known: dict[str, list[str]] = {}  # defect class -> failed probes
        self.rows = 0
        self._memo: dict = {}

    def _reason(self, k: int, result) -> str | None:
        if isinstance(result, BaseException):
            return f"{type(result).__name__}: {str(result)[:120]}"
        key = (k, result)
        if key not in self._memo:
            self._memo[key] = self.w.check(self.w.ops[k], result)
        return self._memo[key]

    def add_phase(self, ph: Phase) -> None:
        ops = self.w.ops
        for idx, result in enumerate(ph.results):
            k = idx % len(ops)
            reason = self._reason(k, result)
            self.attempted += 1
            if not isinstance(result, BaseException):
                self.rows += self.w.rows(ops[k], result)
            if reason is not None:
                self.failed += 1
                if not self.op_failed[k] and len(self.failures) < 20:
                    self.failures.append(f"{ops[k].describe()[:160]} -> {reason}")
                self.op_failed[k] = True

    def run_probes(self) -> None:
        for op in self.probes.ops:
            reason = self.probes.check(op, self.probes.run(op))
            if reason is not None:
                self.known.setdefault(op.known_defect, []).append(f"{op.kind}: {reason}")

    @property
    def known_failed(self) -> int:
        return sum(len(v) for v in self.known.values())


def closed_form_results(w, ph: Phase) -> None:
    """Closed-form ops are checked once per point; every other pass must
    return the bitwise-identical value, else the execution is replaced by
    an error."""
    n = len(w.ops)
    first = ph.results[:n]
    for idx in range(n, len(ph.results)):
        r, f = ph.results[idx], first[idx % n]
        if not isinstance(r, BaseException) and not isinstance(f, BaseException) and r != f:
            if not (math.isnan(r) and math.isnan(f)):
                ph.results[idx] = RuntimeError(f"value changed between passes: {f!r} -> {r!r}")


def tail(latencies) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest listed percentile
    that still has TAIL_MIN_BEYOND samples above it (nearest rank)."""
    data = sorted(latencies)
    n = len(data)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, data[rank - 1], n - rank
    rank = max(1, math.ceil(n / 2))
    return 50.0, data[rank - 1], n - rank


def rows_per_second(w, rows: int, ph: Phase, norm: list[float]) -> float:
    """Rows of a pass over the pass's time, each op's time being its median
    over the run's passes."""
    n = len(w.ops)
    pass_s = math.fsum(statistics.median(norm[k::n]) for k in range(n))
    return rows / ph.passes / pass_s


class SetupTimer:
    """Wall time of fresh interpreters importing the CLI module.

    Plain wall time: launch cost (exec, loading, page faults) does not
    follow the reference loop's speed, so scaling it would add noise.
    The launches are spread over the timed ops, between two ops, because
    launches in one burst all see the host's speed of that moment: over
    240 launches, medians of 12 consecutive ones spread 0.12, and medians
    of 12 spread over 35 s spread 0.04.
    """

    CODE = "import sys; sys.path.insert(0, 'src'); import anticipated_surprise.cli"

    def __init__(self, count: int, seconds: float):
        self.count = count
        self.interval = seconds / count
        self.times: list[float] = []
        self._run()  # untimed: writes the bytecode cache

    def _run(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", self.CODE], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"importing the CLI failed: {proc.stderr.decode()[-300:]}")
        return dt

    def due(self, elapsed: float) -> bool:
        return len(self.times) < self.count and elapsed >= len(self.times) * self.interval

    def launch(self) -> None:
        self.times.append(self._run())

    def median(self) -> float:
        """Median over all launches; makes the ones the run had no time for."""
        while len(self.times) < self.count:
            self.launch()
        return statistics.median(self.times)


def measure_peak_alloc(w) -> tuple[float, int]:
    """Largest tracemalloc peak over the workload's allocation sample, in MB,
    counted from what was allocated when the op started."""
    from workloads import execute

    ops = w.alloc_ops()
    peaks = []
    tracemalloc.start()
    try:
        for op in ops:
            gc.collect()  # start each op from the same heap state
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            execute(op)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return max(peaks) / 1e6, len(peaks)


# --- reporting ---------------------------------------------------------------


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["figures", "deep-sweep", "tree-file", "closed-form"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    load_package()
    os.chdir(ROOT)
    import tracing
    import workloads

    t_setup = time.perf_counter()
    w = workloads.WORKLOADS[args.workload](args.seed)
    probes = workloads.Probes(args.seed)
    bench_setup_s = time.perf_counter() - t_setup
    workloads.execute(w.warmup_op())

    tally = Tally(w, probes)
    env = environment(args)
    samples: dict = {}
    metrics: dict = {}
    lines = [f"workload {w.name}, seed {args.seed}: {len(w.ops)} ops per pass; "
             f"benchmark set-up {bench_setup_s:.2f} s"]

    if args.trace == 0:
        setup = SetupTimer(SETUP_LAUNCHES, args.seconds)
        ph = run_passes(w, args.seconds, setup=setup, min_passes=MIN_PASSES)
        setup_s = setup.median()
        if not w.cli_ops:
            closed_form_results(w, ph)
        tally.add_phase(ph)
        tally.run_probes()
        peak_mb, traced_ops = measure_peak_alloc(w)
        norm = ph.normalized()
        pct, tail_s, beyond = tail(norm)
        n = len(norm)
        values = {
            "setup_s": setup_s,
            "rows_per_s": rows_per_second(w, tally.rows, ph, norm),
            "op_p50_ms": statistics.median(norm) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "peak_alloc_mb": peak_mb,
        }
        samples = {"setup_s": len(setup.times), "rows_per_s": n, "op_p50_ms": n, "op_tail_ms": n,
                   "peak_alloc_mb": traced_ops}
        env["op_tail_percentile"] = pct
        env["op_tail_samples_beyond"] = beyond
        env["host_slowdown"] = ph.host_slowdown()
        lines.append(f"  measured {ph.passes} passes, {n} ops, {tally.rows} rows in "
                     f"{math.fsum(ph.latencies):.2f} s wall; host slowdown "
                     f"{ph.host_slowdown():.2f} over {len(ph.cal_ref)} calibrations")
        by_kind: dict = {}
        for idx, t in enumerate(norm):
            by_kind.setdefault(w.ops[idx % len(w.ops)].kind, []).append(t)
        lines.append("  p50 ms by kind: " + ", ".join(
            f"{kind} {statistics.median(ts) * 1e3:.4g}" for kind, ts in sorted(by_kind.items())))
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
            note = f" p{pct:g}, {beyond} beyond" if name == "op_tail_ms" else ""
            lines.append(f"  {name:<14} {value:<14.6g} {END_TO_END_UNITS[name]:<6} "
                         f"n={samples[name]}{note}")
    else:
        half = args.seconds / 2.0
        plain = run_passes(w, half)
        rec = tracing.Recorder()
        with tracing.Tracer(rec):
            traced = run_passes(w, half, rec, SPAN_BUDGET)
        for ph in (plain, traced):
            if not w.cli_ops:
                closed_form_results(w, ph)
        traced_rows = Tally(w, probes)
        traced_rows.add_phase(traced)
        tally.add_phase(plain)
        tally.add_phase(traced)
        tally.run_probes()
        rows_per_pass = traced_rows.rows // traced.passes
        layer, breakdown = tracing.analyse(rec, traced.passes, rows_per_pass, traced.scales())
        layer["closed_form.max_abs_residual"] = max(w.residuals, default=0.0)
        layer["known_defects.failed"] = tally.known_failed
        layer["trace.overhead"] = math.fsum(plain.normalized()) / plain.passes / (
            math.fsum(traced.normalized()) / traced.passes)
        rec.write(workloads.WORK / f"spans-{w.name}.tsv.gz")
        samples = {"traced_passes": traced.passes, "untraced_passes": plain.passes,
                   "spans": len(rec.start)}
        lines.append(f"  traced {traced.passes} passes ({len(rec.start)} spans), "
                     f"untraced {plain.passes} passes; per pass:")
        lines.append("  self ms by layer: " + ", ".join(f"{k} {v:.3f}" for k, v in breakdown.items()))
        for name, value in layer.items():
            metrics[name] = {"value": value, "unit": per_layer_unit(name)}
            lines.append(f"  {name:<34} {value:<14.6g} {per_layer_unit(name)}")

    lines.append(f"  checks: {tally.attempted} executions, {tally.failed} failed; "
                 f"distinct ops failed {sum(tally.op_failed)}/{len(w.ops)}")
    for msg in tally.failures:
        lines.append(f"    FAILED: {msg}")
    lines.append(f"  known-defect probes (untimed, not in attempted/failed): "
                 f"{tally.known_failed} of {len(probes.ops)} failed")
    for defect, failed in tally.known.items():
        lines.append(f"    {defect}: {len(failed)} failed, e.g. {failed[0]}")
    env["samples"] = samples
    env["known_defect_failures"] = {defect: len(failed) for defect, failed in tally.known.items()}
    for path in w.files + probes.files:
        path.unlink()
    print("\n".join(lines))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
