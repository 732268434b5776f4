"""One process of a benchmark run, started by ``run.py`` with a role.

``--role prepass``  specializes (or registers) a restart workload's patterns
                    into an empty disk cache and exits;
``--role setup``    measures one set-up of the workload and exits;
``--role work``     sets up, drives the timed streams, checks every op against
                    the scipy oracle and writes the metrics as JSON to ``--out``.

Set-up time is the time to import ``repro`` (numpy is already loaded by the
benchmark) plus the time to make the first timed op runnable: a first solve
and one refactorization on every pattern (restarts re-specialize from the
disk cache the pre-pass filled) or, for ``serve``, starting the server
process and registering every pattern over the wire, given at a reference
pace of the machine (see ``SetupClock``).  Input generation is not part of
it.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

#: The untraced serve run is the light-rate open loop, in this many rounds
#: with scipy timed before each, so that each pool entry's best scipy time
#: is taken at several points of the run.  The lock-step, heavy-rate and
#: capacity phases run in the traced run and report per layer: every
#: end-to-end metric is reported by every workload, and they exist on serve
#: only.
SERVE_ROUNDS = 5
#: Light and heavy open-loop rates (requests per second).  The heavy rate is
#: about half the capacity measured when the benchmark was defined (800–950
#: req/s on a 2-vCPU x86 VM in its fast stretches), fixed so that later runs
#: load the server equally.  It also sits at the bottom of the latency curve:
#: slower rates wait on delayed ACKs (p50 21 ms at 150 req/s, 13 ms at 250,
#: 8 ms at 400), faster ones queue (14 ms at 600).
LIGHT_RATE = 50.0
HEAVY_RATE = 400.0
#: Requests kept in flight on the one connection in the capacity phase: the
#: window that saturated the server when the benchmark was defined (16 left it
#: waiting on delayed ACKs at about 300 req/s; the admission limit is 256).
CAPACITY_WINDOW = 32
#: A serve run whose generator sends a request this late is invalid: its
#: offered load no longer follows the schedule.  (The largest lag seen when
#: the benchmark was defined was about 15 ms.)
GEN_LATE_LIMIT_S = 0.25
SERVER_START_TIMEOUT = 60.0
#: ``pattern_churn`` reads its peak memory after this many whole cycles of
#: routes: every structure it meets stays cached, so the high-water mark
#: grows by about 6 MB a cycle and a run's figure would follow its op count.
CHURN_RSS_CYCLES = 2
#: Timing of scipy's reference on each serving pool entry, per round.
SERVE_SPLU_BUDGET_S = 0.012
SERVE_SPLU_REPEATS = 20


def log(msg: str) -> None:
    print(f"[perfbench {os.getpid()}] {msg}", file=sys.stderr, flush=True)


def percentile(values, q):
    """Linear-interpolation percentile (``numpy.percentile``'s default)."""
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def peak_rss_mb(pid="self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def generated_bytes(cache_dir) -> int:
    """Bytes of generated ``.c``/``.so``/``.npz`` files in the disk cache."""
    total = 0
    for entry in os.scandir(cache_dir):
        if entry.is_file() and entry.name.endswith((".c", ".so", ".npz")):
            total += entry.stat().st_size
    return total


class Pace:
    """The machine's pace: a reference kernel the program cannot change.

    The machine the benchmark was defined on runs faster and slower by up to
    a third, in stretches of a second up to tens of minutes (a fixed Python
    loop took 6 or 9 ms by stretch).  A sample is scipy's best
    ``splu(A).solve(b)`` on a fixed 400-unknown Laplacian built with scipy
    alone; ``REF_S`` is its time in a middling stretch of that machine
    (2-vCPU x86 VM, Python 3.11).  Closed-loop ops and scipy timed next to
    them are slowed alike (their ratio spreads 0.01-0.03 over seeds where the
    op time spreads 0.15-0.18), so a time divided by a sample taken next to
    it and multiplied by ``REF_S`` is the time at the reference pace.
    """

    REF_S = 0.0008
    BUDGET_S = 0.020
    REPEATS = 40

    def __init__(self):
        import scipy.sparse as sp

        T = sp.diags([-1.0, 2.1, -1.0], [-1, 0, 1], shape=(20, 20))
        I = sp.identity(20)
        self.A = (sp.kron(I, T) + sp.kron(T, I)).tocsc()
        self.b = np.ones(self.A.shape[0])

    def sample(self, count: int = 1) -> float:
        """Median of ``count`` samples, in seconds."""
        import oracle

        return median(oracle.reference(self.A, self.b, self.BUDGET_S, self.REPEATS)[1] for _ in range(count))


class SetupClock:
    """Set-up time, as measured and at the reference pace.

    A set-up is a few seconds of Python and numpy, slowed by the machine's
    stretches like an op.  The clock samples the pace outside the timed
    pieces of set-up, before the first piece and after each one; a piece
    counts ``seconds * Pace.REF_S / pace``, with ``pace`` the mean of the
    samples on either side of it.
    """

    #: A piece longer than a second is followed by one sample per second of
    #: it, up to this many, and their median taken.
    MAX_SAMPLES = 5

    def __init__(self):
        self.pacer = Pace()
        self.raw = 0.0
        self.paced = 0.0
        self.samples = [self.pacer.sample()]

    def add(self, seconds: float) -> None:
        before = self.samples[-1]
        self.samples.append(self.pacer.sample(min(self.MAX_SAMPLES, max(1, int(seconds)))))
        self.raw += seconds
        self.paced += seconds * Pace.REF_S / ((before + self.samples[-1]) / 2)

    def timed(self, fn, *args):
        """Call ``fn(*args)`` as a piece of set-up; returns its result."""
        start = time.perf_counter()
        result = fn(*args)
        self.add(time.perf_counter() - start)
        return result


def import_stack(workload: str, clock: SetupClock) -> None:
    """Import the layers the workload drives, as a piece of set-up."""

    def load():
        if workload == "serve":
            import repro.service.client  # noqa: F401
        else:
            import repro.frontend.specialized  # noqa: F401

    clock.timed(load)


def c_options():
    from repro import SympilerOptions

    return SympilerOptions(backend="c")


# --------------------------------------------------------------------------- #
# Counters
# --------------------------------------------------------------------------- #
def counters():
    """Exact process-wide counters: disk cache and shared artifact cache."""
    from repro.compiler.codegen.c_backend import disk_cache_stats
    from repro.compiler.sympiler import Sympiler

    disk = disk_cache_stats().as_dict()
    cache = Sympiler().cache_stats
    return {
        "cc_calls": disk["compiles"],
        "disk_hits": disk["reuses"],
        "artifact_misses": cache.misses,
        "artifact_hits": cache.hits,
    }


def delta(after, before):
    return {k: after[k] - before[k] for k in after}


# --------------------------------------------------------------------------- #
# Closed-loop workloads: refactor, refactor_lu, pattern_churn
# --------------------------------------------------------------------------- #
class Op:
    """One timed op: its time, its pattern (or route), scipy's time and the oracle's verdict."""

    __slots__ = ("seconds", "group", "splu", "ok", "op_id")

    def __init__(self, seconds, group, splu, ok, op_id):
        self.seconds, self.group, self.splu, self.ok, self.op_id = seconds, group, splu, ok, op_id


class ClosedLoopWorkload:
    """A stream of ``SpecializedSolver.solve`` calls driven in a closed loop."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.solver = None
        self.churn_next = 0
        self.rss_mb = None

    # --- set-up ------------------------------------------------------------
    def setup(self, clock: SetupClock) -> None:
        """Build the inputs (untimed), then time the set-up of every pattern.

        Set-up solves once on each pattern (a restart re-specializes it from
        the disk cache) and refactorizes it once with new values, since the
        first refactorization of a pattern costs about 1.6 times a later one.
        """
        from repro import SpecializedSolver
        import inputs

        if self.name == "refactor":
            mats = [A for _, A in inputs.table2()]
            self.update = inputs.spd_values
        elif self.name == "refactor_lu":
            mats = [inputs.lu_matrix()]
            self.update = inputs.dominant_values
        else:
            mats = []
        self.mats = [(A, inputs.column_rows(A)) for A in mats]
        first = [(inputs.as_scipy(A, A.data), np.ones(A.n)) for A in mats]
        first += [
            (inputs.as_scipy(A, self.update(A, cols, self.rng)), self.rng.standard_normal(A.n))
            for A, cols in self.mats
        ]
        solver = clock.timed(lambda: SpecializedSolver(options=c_options()))
        for A, b in first:
            clock.timed(solver.solve, A, b)
        self.solver = solver
        expected = {"refactor": "cholesky", "refactor_lu": "lu"}.get(self.name)
        if expected is not None:
            methods = solver.stats.methods
            if set(methods) != {expected}:
                raise RuntimeError(f"{self.name}: expected the {expected} route, got {methods}")

    # --- op stream ---------------------------------------------------------
    def make_op(self, k: int, rng):
        """Inputs of the ``k``-th op, generated before the op is timed.

        Returns ``(A, b, oracle kind, group)``; the group is the pattern (or,
        for ``pattern_churn``, the route) the op belongs to.
        """
        import inputs

        if self.name == "pattern_churn":
            route, A = inputs.churn_structure(self.churn_next, rng)
            self.churn_next += 1
            A = A.to_scipy()
            return A, rng.standard_normal(A.shape[0]), "pcg" if route == "pcg" else "direct", route
        m = k % len(self.mats)
        A, cols = self.mats[m]
        return inputs.as_scipy(A, self.update(A, cols, rng)), rng.standard_normal(A.n), "direct", m

    def phase(self, tag, seconds, max_ops, recorder=None):
        """The closed loop, until the deadline (or for ``max_ops`` ops).

        ``pattern_churn`` stops on a whole cycle of routes only, so every run
        weighs the routes equally; its structure counter runs across phases,
        so no structure comes twice.
        """
        import zlib

        import inputs
        import oracle

        rng = np.random.default_rng([self.seed, zlib.crc32(tag.encode())])
        cycle = len(inputs.CHURN_ROUTES) if self.name == "pattern_churn" else 1
        ops = []
        deadline = time.perf_counter() + seconds
        while (len(ops) < max_ops) if max_ops else (time.perf_counter() < deadline or len(ops) % cycle):
            A, b, kind, group = self.make_op(len(ops), rng)
            op_id = (tag, len(ops))
            if recorder is not None:
                recorder.set_op(op_id)
            x = None
            start = time.perf_counter()
            try:
                x = self.solver.solve(A, b)
            except Exception as exc:  # noqa: BLE001 - an op failure is counted, not fatal
                log(f"op {op_id} raised {exc!r}")
            end = time.perf_counter()
            # The oracle runs outside the timed op and the deadline.  scipy
            # is timed for a twentieth of the op, at least: a millisecond
            # solve read once next to a second-long op is mostly noise.
            x_ref, t_ref = oracle.reference(A, b, budget=max(oracle.TIMING_BUDGET_S, (end - start) / 20))
            ok = x is not None and oracle.check(A, b, x, x_ref, kind)
            deadline += time.perf_counter() - end
            ops.append(Op(end - start, group, t_ref, ok, op_id))
            if self.name == "pattern_churn" and self.rss_mb is None and len(ops) == CHURN_RSS_CYCLES * cycle:
                self.rss_mb = peak_rss_mb()
        return ops

    def specializations(self) -> int:
        return self.solver.stats.specializations


def best_by_input(pairs):
    """Each input's best time over its repeats, in ms: timeit's min-of-repeats rule.

    ``pairs`` are ``(input, seconds)``; returns ``{input: ms}``.
    """
    best = {}
    for key, seconds in pairs:
        best[key] = min(seconds, best.get(key, seconds))
    return {key: 1e3 * s for key, s in best.items()}


def geomean(values) -> float:
    return float(np.exp(np.mean(np.log(list(values)))))


def stream_metrics(ops):
    """Figures of a closed-loop op stream.

    ``speedup_vs_splu`` is the geometric mean over ops of scipy's time on the
    op's inputs, taken right after the op, over the op's time.  It is the one
    timing figure that repeats from run to run on the machine the benchmark
    was defined on: that machine runs in fast and slow stretches (a fixed
    Python loop took 6 ms or 9 ms by stretch) and scipy, timed next to each
    op, is slowed alike.  Over five seeds the refactor stream's best-of-repeats
    ``latency_p50_ms`` spread by 0.18; over ten, the speedup spread by 0.016.

    The absolute figures, reported per layer, are over the stream's inputs
    (patterns, or routes for ``pattern_churn``), each at its best repeat:
    percentiles over inputs, and the rate of one op per input.
    """
    lat = list(best_by_input((op.group, op.seconds) for op in ops).values())
    return {
        "speedup_vs_splu": geomean(op.splu / op.seconds for op in ops),
        "latency_p50_ms": median(lat),
        "latency_p90_ms": percentile(lat, 90),
        "throughput_ops_s": 1e3 * len(lat) / sum(lat),
    }


#: The absolute figures, reported per layer from the traced run's untraced half.
ABSOLUTE = ("latency_p50_ms", "latency_p90_ms", "throughput_ops_s")


def run_closed(args, cache_dir, recorder):
    wl = ClosedLoopWorkload(args.workload, args.seed)
    before = counters()
    wl.setup(args.setup_clock)
    setup_s = args.setup_clock.paced
    n_setup_specs = wl.specializations()
    after_setup = counters()
    if args.trace:
        return (*closed_traced(args, wl, recorder, before, n_setup_specs), setup_s)
    ops = wl.phase("single", args.seconds, args.ops)
    rss = wl.rss_mb or peak_rss_mb()
    failed = sum(not op.ok for op in ops)
    figures = stream_metrics(ops)
    metrics = {
        "setup_s": setup_s,
        "speedup_vs_splu": figures["speedup_vs_splu"],
        "ok_frac": 1.0 - failed / len(ops),
        "peak_rss_mb": rss,
        "generated_mb": generated_bytes(cache_dir) / 1e6 / max(wl.specializations(), 1),
    }
    log(f"{wl.name}: {len(ops)} ops, {failed} failed, setup counters {delta(after_setup, before)}")
    log(", ".join(f"{k} {figures[k]:.4g}" for k in ABSOLUTE))
    return metrics, len(ops), failed, setup_s


def closed_traced(args, wl, recorder, before, n_setup_specs):
    """Traced closed loop: an untraced reference half, then a traced half."""
    recorder.uninstall()
    ref_ops = wl.phase("reference", args.seconds / 2, args.ops)
    specs_before = wl.specializations()
    recorder.install()
    stream_before = counters()
    ops = wl.phase("stream", args.seconds / 2, args.ops, recorder=recorder)
    stream = delta(counters(), stream_before)
    recorder.uninstall()
    run = delta(counters(), before)
    every = ref_ops + ops
    failed = sum(not op.ok for op in every)
    layers = recorder.layer_medians([op.op_id for op in ops], [op.seconds for op in ops])
    compiled_specs = (n_setup_specs if wl.name != "pattern_churn" else 0) + (
        wl.specializations() - specs_before
    )
    metrics = layer_metrics(layers, recorder, compiled_specs)
    lookups = stream["artifact_hits"] + stream["artifact_misses"]
    ref = stream_metrics(ref_ops)
    metrics.update({f"bench.{k}": ref[k] for k in ABSOLUTE})
    metrics.update(
        {
            "frontend.specializations": wl.specializations(),
            "compiler.cc_calls": run["cc_calls"],
            "compiler.disk_hits": run["disk_hits"],
            "compiler.artifact_misses": run["artifact_misses"],
            "compiler.cache_hit_ratio": stream["artifact_hits"] / lookups if lookups else 0.0,
            "compiler.cache_lookups": lookups,
            "compiler.call_us": call_us(),
            # Set against scipy, like speedup_vs_splu, so the machine's
            # stretches of speed cancel out.
            "bench.trace_overhead_pct": 100.0 * (ref["speedup_vs_splu"] / stream_metrics(ops)["speedup_vs_splu"] - 1.0),
            "bench.ops": len(ops),
            "bench.failed_frac": failed / len(every),
        }
    )
    return metrics, len(every), failed


def layer_metrics(layers, recorder, compiled_specs):
    """Per-layer metrics from the span medians and the compiled artifacts' timings."""
    sums, source_bytes = recorder.compile_totals()
    per = max(compiled_specs, 1)
    return {
        "frontend.ingest_ms": layers["frontend.ingest"],
        "frontend.lookup_ms": layers["frontend.lookup"],
        "frontend.probe_ms": layers["frontend.probe"],
        "sparse.permute_ms": layers["sparse.permute"],
        "sparse.ordering_ms": layers["sparse.ordering"],
        "solvers.backward_factor_ms": layers["solvers.backward_factor"],
        "compiler.factorize_ms": layers["compiler.factorize"],
        "compiler.trisolve_ms": layers["compiler.trisolve"],
        "compiler.flops": layers["flops"],
        "compiler.inspect_s": sums["inspection"] / per,
        "compiler.transform_s": sums["transformation"] / per,
        "compiler.codegen_s": sums["codegen"] / per,
        "compiler.cc_s": sums["compile"] / per,
        "compiler.source_bytes": source_bytes / per,
        "bench.unattributed_ms": layers["unattributed"],
    }


def call_us() -> float:
    """Cost of one compiled call on a 16-column pattern, in microseconds.

    The wrapper plus the ctypes boundary: a triangular solve on the Cholesky
    factor of a 4x4-grid Laplacian, timed in batches of 200 calls; the best
    batch counts (timeit's rule; the median batch spread by 0.44 over runs).
    """
    from repro import Sympiler, laplacian_2d

    sym = Sympiler(c_options())
    A = laplacian_2d(4, shift=0.1)
    L = sym.compile("cholesky", A).factorize(A)
    tri = sym.compile("triangular-solve", L)
    b = np.ones(A.n)
    batches = []
    for _ in range(25):
        start = time.perf_counter()
        for _ in range(200):
            tri.solve_arrays(L.indptr, L.indices, L.data, b)
        batches.append((time.perf_counter() - start) / 200)
    return 1e6 * min(batches)


# --------------------------------------------------------------------------- #
# serve: the wire service in its own process
# --------------------------------------------------------------------------- #
def start_server():
    """Start ``python -m repro.service --backend c``; returns ``(process, address)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--backend", "c", "--port", "0"],
        cwd=str(ROOT),
        env=env,
        stdout=subprocess.PIPE,
        stderr=sys.stderr,
        text=True,
    )
    ready, _, _ = select.select([proc.stdout], [], [], SERVER_START_TIMEOUT)
    line = proc.stdout.readline() if ready else ""
    if "listening on" not in line:
        stop_server(proc, None)
        raise RuntimeError(f"the service did not start: {line!r}")
    host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
    return proc, (host, int(port))


def stop_server(proc, client):
    """Ask the server to stop, then make sure it has ended."""
    if client is not None:
        try:
            client.shutdown_server()
        except Exception as exc:  # noqa: BLE001 - the kill below still stops it
            log(f"shutdown request failed: {exc!r}")
        client.close()
    try:
        proc.wait(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


class ServeWorkload:
    """Seeded request pools over a few small patterns, driven over one connection."""

    def __init__(self, seed: int):
        import inputs
        import oracle

        self.rng = np.random.default_rng(seed)
        self.patterns = [A for _, A in inputs.serve_patterns()]
        self.pool = []
        for A in self.patterns:
            cols = inputs.column_rows(A)
            entries = []
            for _ in range(inputs.SERVE_POOL):
                values = inputs.spd_values(A, cols, self.rng)
                b = self.rng.standard_normal(A.n)
                As = inputs.as_scipy(A, values)
                entries.append((values, b, As, oracle.reference(As, b)[0]))
            self.pool.append(entries)
        self.splu_times = []
        self.pacer = Pace()
        self.proc = self.client = None

    def time_splu(self):
        """Time scipy's ``splu`` on every pool entry, at the reference pace.

        ``run_serve`` does it each round.  The light-rate latency it is set
        against is mostly a fixed delayed-ACK wait that does not slow with
        the machine, so each pattern's scipy times are brought to the
        reference pace by the pace samples on either side of them (see
        ``Pace``), and scipy's sub-millisecond solves take more repeats here
        than in the closed loops.
        """
        import oracle

        before = self.pacer.sample()
        for p, entries in enumerate(self.pool):
            times = [
                oracle.reference(As, b, budget=SERVE_SPLU_BUDGET_S, max_repeats=SERVE_SPLU_REPEATS)[1]
                for _, b, As, _ in entries
            ]
            after = self.pacer.sample()
            scale = Pace.REF_S / ((before + after) / 2)
            self.splu_times += [((p, j), t * scale) for j, t in enumerate(times)]
            before = after

    def splu_at_pace(self):
        """Each pool entry's median scipy time over the rounds, at the reference pace.

        The median, not the best: a round's time is scaled by pace samples,
        and the best of the scaled times would pick the rounds whose samples
        ran slow.
        """
        by_entry = {}
        for key, seconds in self.splu_times:
            by_entry.setdefault(key, []).append(seconds)
        return [median(times) for times in by_entry.values()]

    def setup(self, clock: SetupClock) -> None:
        from repro.service.client import ServiceClient

        def connect():
            self.proc, address = start_server()
            self.client = ServiceClient(address)

        clock.timed(connect)
        self.handles = [clock.timed(self.client.register_pattern, A) for A in self.patterns]

    def stop(self):
        if self.proc is not None:
            stop_server(self.proc, self.client)
            self.proc = self.client = None

    def pick(self, rng):
        """One seeded ``(pattern, pool entry)`` request."""
        return int(rng.integers(len(self.patterns))), int(rng.integers(len(self.pool[0])))

    def open_loop(self, submit, rate, seconds, max_ops, rng, recorder=None, tag="open"):
        """Send at fixed ``rate``; latency runs from each request's due time."""
        count = max_ops or max(1, int(rate * seconds))
        picks = [self.pick(rng) for _ in range(count)]
        recs = []
        lock = threading.Condition()
        t0 = time.perf_counter() + 0.01
        for i, (p, j) in enumerate(picks):
            due = t0 + i / rate
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            rec = {"p": p, "j": j, "due": due, "sent": time.perf_counter(), "done": None, "x": None, "error": None}
            if recorder is not None:
                recorder.set_op((tag, i))
            values, b = self.pool[p][j][:2]
            try:
                fut = submit(p, values, b)
            except Exception as exc:  # noqa: BLE001 - refused requests count as failed
                rec["error"] = repr(exc)
                rec["done"] = time.perf_counter()
                recs.append(rec)
                continue

            def finish(f, rec=rec):
                done = time.perf_counter()
                try:
                    rec["x"] = f.result()
                except Exception as exc:  # noqa: BLE001
                    rec["error"] = repr(exc)
                with lock:
                    rec["done"] = done
                    lock.notify_all()

            recs.append(rec)
            fut.add_done_callback(finish)
        with lock:
            lock.wait_for(lambda: all(r["done"] is not None for r in recs), timeout=60)
        return recs

    def lockstep(self, seconds, max_ops, rng):
        """One request at a time (the client waits for each reply)."""
        recs = []
        deadline = time.perf_counter() + seconds
        while (len(recs) < max_ops) if max_ops else (time.perf_counter() < deadline):
            p, j = self.pick(rng)
            values, b = self.pool[p][j][:2]
            rec = {"p": p, "j": j, "due": time.perf_counter(), "x": None, "error": None}
            rec["sent"] = rec["due"]
            try:
                rec["x"] = self.client.solve(self.handles[p], values, b)
            except Exception as exc:  # noqa: BLE001
                rec["error"] = repr(exc)
            rec["done"] = time.perf_counter()
            recs.append(rec)
        return recs

    def capacity(self, seconds, max_ops, rng):
        """Closed loop with ``CAPACITY_WINDOW`` pipelined requests in flight."""
        recs = []
        window = threading.Semaphore(CAPACITY_WINDOW)
        deadline = time.perf_counter() + seconds
        start = time.perf_counter()
        while (len(recs) < max_ops) if max_ops else (time.perf_counter() < deadline):
            window.acquire()
            p, j = self.pick(rng)
            values, b = self.pool[p][j][:2]
            rec = {"p": p, "j": j, "due": time.perf_counter(), "x": None, "error": None, "done": None}
            rec["sent"] = rec["due"]
            recs.append(rec)
            try:
                fut = self.client.submit(self.handles[p], values, b)
            except Exception as exc:  # noqa: BLE001
                rec["error"] = repr(exc)
                rec["done"] = time.perf_counter()
                window.release()
                continue

            def finish(f, rec=rec):
                try:
                    rec["x"] = f.result()
                except Exception as exc:  # noqa: BLE001
                    rec["error"] = repr(exc)
                rec["done"] = time.perf_counter()
                window.release()

            fut.add_done_callback(finish)
        for _ in range(CAPACITY_WINDOW):
            window.acquire()
        return recs, completion_rate([r["done"] for r in recs], start)

    def wire_submit(self, p, values, b):
        return self.client.submit(self.handles[p], values, b)

    def check(self, recs):
        """Oracle pass against the pool's precomputed scipy solutions."""
        import oracle

        failed = 0
        for r in recs:
            values, b, As, x_ref = self.pool[r["p"]][r["j"]]
            if r["error"] is not None or not oracle.check(As, b, r["x"], x_ref):
                failed += 1
        return failed


def completion_rate(done_times, start, width=0.5):
    """Completions per second in the best whole ``width``-second slice (see ``best_by_input``)."""
    slices = int((max(done_times) - start) // width)
    if slices < 1:
        return len(done_times) / (max(done_times) - start)
    counts = np.histogram(done_times, bins=slices, range=(start, start + slices * width))[0]
    return float(counts.max()) / width


def latencies_ms(recs):
    return [1e3 * (r["done"] - r["due"]) for r in recs]


def gen_late_s(recs):
    return max((r["sent"] - r["due"] for r in recs), default=0.0)


def batch_stats(client):
    counters_ = client.stats()["counters"]
    return counters_.get("batches", 0), counters_.get("solves_ok", 0) + counters_.get("solves_failed", 0)


def run_serve(args, cache_dir, recorder):
    wl = ServeWorkload(args.seed)
    rng = np.random.default_rng([args.seed, 1])
    wl.setup(args.setup_clock)
    setup_s = args.setup_clock.paced
    rounds = []
    try:
        if args.trace:
            return serve_traced(args, wl, rng, recorder, setup_s)
        for _ in range(SERVE_ROUNDS):
            wl.time_splu()
            rounds.append(wl.open_loop(wl.wire_submit, LIGHT_RATE, args.seconds / SERVE_ROUNDS, args.ops, rng))
        rss = peak_rss_mb(wl.proc.pid)
    finally:
        wl.stop()
    late = max(gen_late_s(r) for r in rounds)
    if late > GEN_LATE_LIMIT_S:
        raise InvalidRun(f"generator ran {1e3 * late:.1f} ms late (limit {1e3 * GEN_LATE_LIMIT_S:.0f} ms)")
    every = [rec for r in rounds for rec in r]
    failed = wl.check(every)
    light = [latencies_ms(r) for r in rounds]
    # The best round, by the rule of ``best_by_input``.
    p50 = min(median(v) for v in light)
    metrics = {
        "setup_s": setup_s,
        "speedup_vs_splu": 1e3 * geomean(wl.splu_at_pace()) / p50,
        "ok_frac": 1.0 - failed / len(every),
        "peak_rss_mb": rss,
        "generated_mb": generated_bytes(cache_dir) / 1e6 / len(wl.patterns),
    }
    log(f"serve: {len(every)} requests over {SERVE_ROUNDS} rounds, {failed} failed")
    log(f"latency_p50_ms {p50:.4g}, latency_p90_ms {min(percentile(v, 90) for v in light):.4g}")
    return metrics, len(every), failed, setup_s


def serve_traced(args, wl, rng, recorder, setup_s):
    """Traced serve run: the wire phases, then the same light stream in process."""
    from repro.service.session import SolverService

    sec = args.seconds
    recorder.uninstall()
    marks = [batch_stats(wl.client)]
    ref = wl.open_loop(wl.wire_submit, LIGHT_RATE, sec * 0.2, args.ops, rng)
    recorder.install()
    light = wl.open_loop(wl.wire_submit, LIGHT_RATE, sec * 0.2, args.ops, rng, recorder, "stream")
    recorder.uninstall()
    marks.append(batch_stats(wl.client))
    heavy = wl.open_loop(wl.wire_submit, HEAVY_RATE, sec * 0.2, args.ops, rng)
    marks.append(batch_stats(wl.client))
    lock = wl.lockstep(sec * 0.05, args.ops, rng)
    marks.append(batch_stats(wl.client))
    cap, capacity = wl.capacity(sec * 0.15, args.ops, rng)
    marks.append(batch_stats(wl.client))
    stats = wl.client.stats()
    wl.stop()

    def batch_mean(i):
        (b0, s0), (b1, s1) = marks[i], marks[i + 1]
        return (s1 - s0) / max(b1 - b0, 1)

    # In process: the same light stream through SolverService.submit, then
    # the direct compiled factorize+solve of the same requests.
    service = SolverService(options=c_options())
    try:
        handles = [service.register_pattern(A) for A in wl.patterns]
        recorder.install()
        inproc = wl.open_loop(
            lambda p, v, b: service.submit(handles[p], v, b),
            LIGHT_RATE, sec * 0.1, args.ops, rng, recorder, "inproc",
        )
        recorder.uninstall()
    finally:
        service.close()
    direct = direct_ms(wl, inproc)
    every = ref + light + heavy + lock + cap + inproc
    failed = wl.check(every)
    lat = latencies_ms(light)
    p50 = median(lat)
    inproc_p50 = median(latencies_ms(inproc))
    layers = recorder.layer_medians(
        [("stream", i) for i in range(len(light))], [x / 1e3 for x in lat]
    )
    late = max(gen_late_s(recs) for recs in (ref, light, heavy, inproc))
    if late > GEN_LATE_LIMIT_S:
        raise InvalidRun(f"generator ran {1e3 * late:.1f} ms late (limit {1e3 * GEN_LATE_LIMIT_S:.0f} ms)")
    disk = stats["disk_cache"]
    metrics = {
        "service.loaded_p50_ms": median(latencies_ms(heavy)),
        "service.loaded_p90_ms": percentile(latencies_ms(heavy), 90),
        "service.capacity_ops_s": capacity,
        "service.inproc_p50_ms": inproc_p50,
        "service.wire_ms": p50 - inproc_p50,
        "service.window_ms": inproc_p50 - direct,
        "service.batch_mean_light": batch_mean(0),
        "service.batch_mean_heavy": batch_mean(1),
        "service.batch_mean_capacity": batch_mean(3),
        "service.dispatches": marks[3][0] - marks[2][0],
        "service.rejected": stats["counters"].get("rejected", 0),
        "compiler.cc_calls": disk["compiles"],
        "compiler.disk_hits": disk["reuses"],
        "compiler.artifact_misses": stats.get("artifact_cache", {}).get("misses", 0),
        "compiler.call_us": call_us(),
        "bench.unattributed_ms": layers["unattributed"],
        "bench.latency_p50_ms": median(latencies_ms(ref)),
        "bench.latency_p90_ms": percentile(latencies_ms(ref), 90),
        "bench.throughput_ops_s": 1e3 * len(lock) / sum(1e3 * (r["done"] - r["sent"]) for r in lock),
        "bench.trace_overhead_pct": 100.0 * (p50 / median(latencies_ms(ref)) - 1.0),
        "bench.gen_late_ms": 1e3 * late,
        "bench.ops": len(light),
        "bench.failed_frac": failed / len(every),
    }
    return metrics, len(every), failed, setup_s


def direct_ms(wl, recs):
    """Median ms of the compiled kernels alone on the given requests.

    One ``factorize_arrays`` and the two ``solve_arrays`` sweeps per request
    (the serving patterns use the natural ordering); the backward operand's
    values are gathered through an index map built once per pattern.
    """
    from repro import Sympiler
    from repro.solvers.linear_solver import backward_factor

    sym = Sympiler(c_options())
    kernels = []
    for A in wl.patterns:
        fact = sym.compile("cholesky", A)
        L = fact.factorize(A)
        Lt = backward_factor(L.with_values(np.arange(L.nnz, dtype=np.float64)))
        gather = Lt.data.astype(np.int64)
        fwd = sym.compile("triangular-solve", L)
        bwd = sym.compile("triangular-solve", Lt.with_values(L.data[gather]))
        kernels.append((A, fact, L, Lt, gather, fwd, bwd))
    times = []
    for r in recs:
        values, b, _, x_ref = wl.pool[r["p"]][r["j"]]
        A, fact, L, Lt, gather, fwd, bwd = kernels[r["p"]]
        start = time.perf_counter()
        lx = fact.factorize_arrays(A.indptr, A.indices, values)
        y = fwd.solve_arrays(L.indptr, L.indices, lx, b)
        z = bwd.solve_arrays(Lt.indptr, Lt.indices, lx[gather], y[::-1].copy())
        times.append(time.perf_counter() - start)
        if not np.allclose(z[::-1], x_ref, rtol=1e-8, atol=1e-10):
            raise RuntimeError("the direct compiled solve disagrees with scipy")
    return 1e3 * median(times)


class InvalidRun(RuntimeError):
    """The load generator could not keep its schedule; the run is not reported."""


# --------------------------------------------------------------------------- #
# Roles
# --------------------------------------------------------------------------- #
def prepass(workload: str) -> None:
    """Fill the (empty) disk cache with every artifact the restart set-up reads."""
    clock = SetupClock()
    import_stack(workload, clock)
    if workload == "serve":
        from repro.service.session import SolverService
        import inputs

        service = SolverService(options=c_options())
        try:
            for _, A in inputs.serve_patterns():
                service.register_pattern(A)
        finally:
            service.close()
    else:
        ClosedLoopWorkload(workload, 0).setup(clock)
    log(f"pre-pass for {workload}: {counters()}")


def measure_setup(workload: str, seed: int) -> SetupClock:
    clock = SetupClock()
    import_stack(workload, clock)
    if workload == "serve":
        wl = ServeWorkload(seed)
        try:
            wl.setup(clock)
        finally:
            wl.stop()
    else:
        ClosedLoopWorkload(workload, seed).setup(clock)
    return clock


def work(args) -> dict:
    recorder = None
    args.setup_clock = SetupClock()
    import_stack(args.workload, args.setup_clock)
    cache_dir = os.environ["REPRO_SYMPILER_CACHE"]
    if args.trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    runner = run_serve if args.workload == "serve" else run_closed
    metrics, attempted, failed, setup_s = runner(args, cache_dir, recorder)
    if args.trace and args.trace_file:
        recorder.dump(args.trace_file)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: float(value) for name, value in metrics.items()},
        "setup_s": setup_s,
        "setup_raw_s": args.setup_clock.raw,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=["prepass", "setup", "work"], required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--ops", type=int, default=0, help="fixed op count per phase (0: timed)")
    parser.add_argument("--trace-file", default="")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.role == "prepass":
        prepass(args.workload)
        result = {"ok": True}
    elif args.role == "setup":
        clock = measure_setup(args.workload, args.seed)
        result = {"setup_s": clock.paced, "setup_raw_s": clock.raw}
    else:
        try:
            result = work(args)
        except InvalidRun as exc:
            log(f"invalid run: {exc}")
            return 3
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
