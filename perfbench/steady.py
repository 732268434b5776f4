"""Exact-counter check of the benchmark itself.

::

    python3 perfbench/steady.py --workload serve --seed 3 --ops 40

runs ``run.py --trace 1 --ops N`` twice and exits 1 unless every counter
below is identical in both runs: for a fixed op count and seed, the work the
program does is a function of its inputs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer metrics that are exact counts for a fixed op count and seed.
EXACT_COUNTERS = (
    "frontend.specializations",
    "compiler.cc_calls",
    "compiler.disk_hits",
    "compiler.artifact_misses",
    "service.dispatches",
    "service.rejected",
    "bench.ops",
)


def run_once(workload, seed, ops):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--trace", "1", "--ops", str(ops),
    ]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=1000)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect outputs ({result['failed']} failed)")
    return {name: m["value"] for name, m in result["metrics"].items()}


def counters(args) -> int:
    first, second = (run_once(args.workload, args.seed, args.ops) for _ in range(2))
    status = 0
    for name in EXACT_COUNTERS:
        same = first[name] == second[name]
        status = status or int(not same)
        print(f"{name:28s} {first[name]:10g} {second[name]:10g}  {'same' if same else 'DIFFER'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=20)
    return counters(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
