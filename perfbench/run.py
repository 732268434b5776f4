"""The repo benchmark: Sympiler's compiled-kernel stack driven through its public API.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload refactor --seed 1 --seconds 10 --trace 0

Workloads (each run is its own set of processes with its own
``REPRO_SYMPILER_CACHE`` directory; everything uses the C backend):

``refactor``       closed loop of same-structure value updates over the
                   eleven Table-2 SPD matrices (Cholesky route), round-robin;
``refactor_lu``    closed loop of value updates on one unsymmetric
                   diagonally dominant matrix (LU route);
``pattern_churn``  every op is a first solve on a never-seen structure,
                   cycling the Cholesky, LDLᵀ, LU and PCG routes, from an
                   empty disk cache;
``serve``          ``python -m repro.service --backend c`` in its own
                   process, driven over one pipelined connection at a light
                   and a heavy fixed rate, lock-step and at capacity.

``refactor``, ``refactor_lu`` and ``serve`` are restarts: a pre-pass in
another process fills a disk cache once per source tree (under
``.bench_build/perfbench/prepass``, keyed by a hash of ``src/`` and of the
benchmark's code); every run copies it into a fresh
directory and its set-up reads it back.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones from the benchmark's own spans
(written to ``.bench_build/perfbench/traces``).  The last stdout line is the
JSON result; progress goes to stderr.  ``--ops N`` replaces the timed phases
by N ops each, for the exact-counter check in ``steady.py``.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("refactor", "refactor_lu", "pattern_churn", "serve")
RESTARTS = ("refactor", "refactor_lu", "serve")
#: Set-ups per untraced run; ``setup_s`` is their median.  The restart
#: set-ups of ``refactor`` and ``refactor_lu`` take 4-7 s each, so they run
#: fewest: five of them would take the whole benchmark past its time budget.
#: ``pattern_churn``'s, an import of about 0.2 s, spread the most and are cheap.
SETUP_REPS = {"refactor": 3, "refactor_lu": 3, "pattern_churn": 9, "serve": 5}
#: Whole-run limits (seconds): the pre-pass runs once per source tree.
PREPASS_TIMEOUT = 600
RUN_TIMEOUT = 170


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def child(role, args, cache_dir, out, timeout, extra=()):
    """Run one ``work.py`` role to completion; returns its JSON result."""
    env = dict(os.environ)
    env["REPRO_SYMPILER_CACHE"] = str(cache_dir)
    # The C compiler's and Python's temporary files stay inside the checkout.
    env["TMPDIR"] = str(WORK / "tmp")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "work.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--ops", str(args.ops), "--out", str(out), *extra,
    ]
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{role} process timed out after {timeout:.0f} s")
    if code != 0:
        raise RuntimeError(f"{role} process exited with code {code}")
    with open(out) as fh:
        return json.load(fh)


def source_key() -> str:
    """Content hash of the program's sources and the benchmark's own code.

    A pre-pass cache is read back only by the code that filled it: ``.bench_build``
    outlives a checkout of another commit in the same tree, and a restart
    set-up that found a stale cache would compile cold.
    """
    digest = hashlib.sha256()
    files = [p for p in (ROOT / "src").rglob("*") if "__pycache__" not in p.parts]
    files += list(HERE.glob("*.py"))
    for path in sorted(p for p in files if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_prepass(args) -> Path:
    """The workload's filled disk cache, built once per source tree under a lock."""
    base = WORK / "prepass" / args.workload
    final = base / source_key()
    base.mkdir(parents=True, exist_ok=True)
    with open(WORK / "prepass.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if (final / "COMPLETE").is_file():
            return final
        # Caches of other source trees are never read again.
        for old in base.iterdir():
            if old.is_dir():
                shutil.rmtree(old, ignore_errors=True)
            else:
                old.unlink()
        tmp = base / f"tmp-{os.getpid()}"
        tmp.mkdir()
        log(f"pre-pass: filling the {args.workload} disk cache (once per source tree)")
        start = time.perf_counter()
        child("prepass", args, tmp, tmp / "prepass.json", PREPASS_TIMEOUT)
        (tmp / "prepass.json").unlink()
        (tmp / "COMPLETE").write_text("")
        tmp.rename(final)
        log(f"pre-pass done in {time.perf_counter() - start:.1f} s")
    return final


def run(args) -> dict:
    run_dir = WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        cache = run_dir / "cache"
        if args.workload in RESTARTS:
            shutil.copytree(ensure_prepass(args), cache)
            (cache / "COMPLETE").unlink()
        else:
            cache.mkdir()
        start = time.perf_counter()

        def remaining():
            return RUN_TIMEOUT - (time.perf_counter() - start)

        def setup(rep):
            out = child("setup", args, cache, run_dir / f"setup{rep}.json", min(60, remaining()))
            return out["setup_s"], out["setup_raw_s"]

        # The extra set-ups run half before the work and half after it, so
        # their median spans the run's stretches of machine speed.
        extra_setups = 0 if args.trace else SETUP_REPS[args.workload] - 1
        setups = [setup(rep) for rep in range(extra_setups // 2)]
        extra = []
        if args.trace:
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            extra = ["--trace-file", str(traces / f"{args.workload}-{args.seed}.json")]
        result = child("work", args, cache, run_dir / "work.json", remaining(), extra)
        setups += [setup(rep) for rep in range(extra_setups // 2, extra_setups)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setups.append((result.pop("setup_s"), result.pop("setup_raw_s")))
    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = median(paced for paced, _ in setups)
        log(f"set-ups at the reference pace: {', '.join(f'{p:.3f}' for p, _ in setups)} s")
        log(f"set-ups as measured: {', '.join(f'{r:.3f}' for _, r in setups)} s")
    # BENCHMARK.json names every metric and its unit; a layer the workload
    # does not reach reports 0.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    unknown = set(values) - {m["name"] for m in spec}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    result["metrics"] = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in spec}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0, help="fixed op count per phase (0: timed phases)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no repro sources under {ROOT / 'src'}; run from the root of a checkout")
        return 2
    try:
        result = run(args)
    except RuntimeError as exc:
        log(f"run failed: {exc}")
        return 1
    for name, m in result["metrics"].items():
        log(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
