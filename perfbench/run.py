#!/usr/bin/env python3
"""Benchmark of hierkg: build, query and cold CLI query costs.

    python3 perfbench/run.py --workload build-2k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones from a
traced pass (see perfbench/README.md). Results and spans are also written
under perfbench/results/. `--workload all` runs every workload in its own
process and prints one combined object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ["build-2k", "query-topical-2k", "cli-query-1k"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "hierkg" / "__init__.py").is_file():
        print(f"error: no hierkg sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)

    # one BLAS thread (at most nproc): a single client, and no idle BLAS
    # threads spinning against the measured one
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workdir = HERE / "work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, tracer = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(results / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    combined = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined[name] = result
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:44s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
