"""Quick self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that:
  * BENCHMARK.json names exactly the metrics the runs print;
  * the same seed generates byte-identical inputs and another seed different ones;
  * a perturbed output, or a perturbed golden, registers as a failed op
    and makes the run incorrect;
  * every workload runs end to end in a short run, traced and untraced,
    with no failed op, and the known-defect probes still fail;
  * a directory holding only BENCHMARK.json and bench/ makes the
    benchmark exit non-zero without printing a result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

run.load_package()
os.chdir(run.ROOT)

import workloads  # noqa: E402

SEED = 7
SCRATCH = workloads.WORK / "selftest"


def fail(msg: str) -> None:
    sys.exit(f"selftest FAILED: {msg}")


def check_benchmark_json() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        fail(f"end_to_end in BENCHMARK.json {e2e} != printed {run.END_TO_END_UNITS}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        fail("workload names in BENCHMARK.json differ from the benchmark's")
    for m in spec["per_layer"]:
        if m["unit"] != run.per_layer_unit(m["name"]):
            fail(f"per_layer unit of {m['name']} is {m['unit']}, printed {run.per_layer_unit(m['name'])}")
    return spec


def check_determinism() -> None:
    for name, cls in workloads.WORKLOADS.items():
        first = cls(SEED).inputs_digest_material()
        again = cls(SEED).inputs_digest_material()
        other = cls(SEED + 1).inputs_digest_material()
        if first != again:
            fail(f"{name}: the same seed generated different inputs")
        if first == other:
            fail(f"{name}: different seeds generated the same inputs")
    probe_a = [op.describe() for op in workloads.Probes(SEED).ops]
    probe_b = [op.describe() for op in workloads.Probes(SEED).ops]
    if probe_a != probe_b:
        fail("probes: the same seed generated different inputs")
    print("ok  inputs: same seed -> same bytes, other seed -> other bytes")


def _tally_of(w, results) -> run.Tally:
    ph = run.Phase()
    ph.results = list(results)
    ph.passes = 1
    tally = run.Tally(w, workloads.Probes(SEED))
    tally.add_phase(ph)
    return tally


def _perturb(text: str) -> str:
    """Change the leading digit of the text's last CSV cell."""
    i = text.rstrip("\n").rfind(",") + 1
    while not text[i].isdigit():
        i += 1
    return text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]


def check_perturbation() -> None:
    for name, cls in workloads.WORKLOADS.items():
        w = cls(SEED)
        good = [workloads.execute(op) for op in w.ops]
        baseline = _tally_of(w, good)
        if baseline.failed:
            fail(f"{name}: unperturbed outputs failed the check: {baseline.failures}")
        bad = list(good)
        if w.cli_ops:
            code, text = bad[0]
            bad[0] = (code, _perturb(text))
        else:
            bad[0] = good[0] * (1.0 + 1e-6) + 1e-6
        tally = _tally_of(w, bad)
        if tally.failed != 1 or not tally.failures:
            fail(f"{name}: a perturbed output did not register as one failed op")

    figs = workloads.Figures(SEED)
    goldens = dict(figs.goldens)
    fid = figs.ops[0].kind
    goldens[fid] = _perturb(goldens[fid])
    bent = workloads.Figures(SEED, goldens=goldens)
    if _tally_of(bent, [workloads.execute(op) for op in bent.ops]).failed != 1:
        fail("figures: a perturbed golden did not register as a failed op")

    sweep_goldens = workloads.load_sweep_goldens()
    sweep = workloads.DeepSweep(SEED, goldens=sweep_goldens)
    op = sweep.ops[0]
    header, rows = sweep_goldens[op.expect["golden"]]
    value = op.expect["values"][0]
    bent_rows = dict(rows, **{value: _perturb(rows[value])})
    bent_goldens = dict(sweep_goldens, **{op.expect["golden"]: (header, bent_rows)})
    bent = workloads.DeepSweep(SEED, goldens=bent_goldens)
    if _tally_of(bent, [workloads.execute(o) for o in bent.ops]).failed < 1:
        fail("deep-sweep: a perturbed golden did not register as a failed op")
    print("ok  perturbed outputs and goldens register as failed ops")


def check_runs(spec: dict) -> None:
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", name, "--seed", str(SEED),
                 "--seconds", "0.2", "--trace", str(trace)],
                capture_output=True, text=True, timeout=180,
            )
            if proc.returncode != 0:
                fail(f"{name} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{name}: result keys {sorted(result)}")
            wanted = set(run.END_TO_END_UNITS) if trace == 0 else per_layer
            if set(result["metrics"]) != wanted:
                fail(f"{name} trace={trace}: metrics {sorted(set(result['metrics']) ^ wanted)} "
                     "differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                fail(f"{name} trace={trace}: failed ops:\n{proc.stdout[-1500:]}")
            if trace == 0 and not all(m["value"] > 0 for m in result["metrics"].values()):
                fail(f"{name}: an end-to-end metric is 0: {result['metrics']}")
            if trace == 1 and not result["metrics"]["known_defects.failed"]["value"]:
                fail(f"{name}: no known-defect probe failed")
            print(f"ok  {name} trace={trace}: {result['attempted']} attempted, none failed")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("a directory without the package did not make the benchmark fail")
    print("ok  without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    spec = check_benchmark_json()
    check_determinism()
    check_perturbation()
    check_bare_directory()
    check_runs(spec)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
