"""Capture the benchmark's goldens from the package as it is now.

    python3 bench/capture_goldens.py [--seed 1]

Writes, under bench/goldens/:
  figures/<id>.csv           every figure, as `figure <id> --out -` prints it
  deep-sweep/<name>.csv      full sweeps covering every row a deep-sweep op can ask for
  tree-file-seed<N>.csv      the tree-file eval rows for seed N, in generation order
  MANIFEST.json              commit, seed, Python version and file digests

Run it only at a commit whose output is the reference: the benchmark's
figures and deep-sweep checks require byte-identical output afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description="capture benchmark goldens")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    run.load_package()
    os.chdir(run.ROOT)
    import workloads
    from workloads import GOLDENS, call_cli

    written = {}

    def write(rel: str, text: str) -> None:
        path = GOLDENS / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="\n")
        written[rel] = hashlib.sha256(text.encode()).hexdigest()

    from anticipated_surprise import cli

    for fid in cli.FIGURES:
        code, text = call_cli(["figure", fid, "--out", "-"])
        assert code == 0, fid
        write(f"figures/{fid}.csv", text)
    for name, argv in workloads.sweep_golden_specs().items():
        code, text = call_cli(argv)
        assert code == 0, name
        write(f"deep-sweep/{name}.csv", text)

    tf = workloads.TreeFile(args.seed)
    rows = [None] * len(tf.ops)
    for op in tf.ops:
        code, text = call_cli(op.argv)
        assert code == 0, op.argv
        rows[op.expect["index"]] = text.split("\n")[1]
    write(f"tree-file-seed{args.seed}.csv", "\n".join(rows) + "\n")

    env = run.environment(argparse.Namespace(workload=None, seed=args.seed, seconds=None, trace=None))
    manifest = {
        "commit": env["commit"],
        "src_sha256": env["src_sha256"],
        "seed": args.seed,
        "python": platform.python_version(),
        "files": written,
    }
    (GOLDENS / "MANIFEST.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(written)} goldens for commit {env['commit']} (seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
