"""The benchmark's own spans around the public function of each layer.

``repro.observe`` stays disabled: the traced run instead replaces each
layer's public entry point, in the benchmark process only, by a wrapper that
records one span (name, start, end, parent, op id) in memory.  The records
are written out once, when the run ends.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from statistics import median

import numpy as np

import repro.frontend.specialized as frontend
import repro.solvers.linear_solver as linear_solver
from repro.compiler.artifacts import SympiledFactorization, SympiledTriangularSolve
from repro.compiler.sympiler import Sympiler
from repro.service.client import ServiceClient
from repro.service.session import SolverService
from repro.sparse.permutation import Permutation

#: (owner, attribute, span name) of every wrapped layer entry point.
TARGETS = [
    (frontend, "ingest", "frontend.ingest"),
    (frontend, "structure_fingerprint", "frontend.lookup"),
    (frontend, "probe_structure", "frontend.probe"),
    (Permutation, "symmetric_permute", "sparse.permute"),
    (linear_solver, "backward_factor", "solvers.backward_factor"),
    (SympiledFactorization, "factorize_arrays", "compiler.factorize"),
    (SympiledTriangularSolve, "solve_arrays", "compiler.trisolve"),
    (Sympiler, "compile", "compiler.compile"),
    (ServiceClient, "submit", "service.submit"),
    (SolverService, "submit", "service.submit_inproc"),
]


def factor_flops(artifact) -> float:
    """Flop count of one numeric factorization, from the artifact's factor pattern.

    With ``l_k``/``u_k`` the off-diagonal entries of column ``k`` of ``L`` and
    row ``k`` of ``U``: LU costs ``sum(l_k * (2 u_k + 1))`` and the symmetric
    factorizations ``sum(l_k * (l_k + 2))``.
    """
    L = artifact.l_pattern
    l_k = np.diff(L.indptr) - 1
    u_pattern = getattr(artifact, "u_pattern", None)
    if u_pattern is None:
        return float(np.sum(l_k * (l_k + 2)))
    U = u_pattern
    cols = np.repeat(np.arange(U.n_cols), np.diff(U.indptr))
    u_k = np.bincount(U.indices[U.indices != cols], minlength=U.n_rows)
    return float(np.sum(l_k * (2 * u_k + 1)))


class SpanRecorder:
    """In-memory span records; wraps the layer entry points while installed."""

    def __init__(self) -> None:
        self.records = []
        self.artifacts = {}
        self._flops = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []
        self._next_id = 0

    # ------------------------------------------------------------------ #
    def set_op(self, op) -> None:
        """Tag the spans this thread records next with ``op``."""
        self._local.op = op

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, fn, args, kwargs):
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        record = {
            "id": span_id,
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "op": getattr(self._local, "op", None),
        }
        if name == "compiler.compile":
            self.artifacts[id(out)] = out
        elif name == "compiler.factorize":
            record["flops"] = self._flops_of(args[0])
        with self._lock:
            self.records.append(record)
        return out

    def _flops_of(self, artifact) -> float:
        key = id(artifact)
        if key not in self._flops:
            self._flops[key] = factor_flops(artifact)
        return self._flops[key]

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(name, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every target by its span-recording wrapper."""
        if self._saved:
            return
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        # The fill-reducing ordering is looked up by name per solver.
        lookup = linear_solver.ordering_by_name
        self._saved.append((linear_solver, "ordering_by_name", lookup))
        linear_solver.ordering_by_name = lambda name: self._wrap("sparse.ordering", lookup(name))

    def uninstall(self) -> None:
        """Restore the original entry points."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # ------------------------------------------------------------------ #
    def per_op(self, ops):
        """Per-op layer totals for the op ids in ``ops``.

        Only spans without a recorded parent count, so nested spans (the
        permutation inside ``backward_factor``) are attributed to their
        outermost layer and the layer totals never overlap.  Returns
        ``{op: {span name: seconds}}`` and ``{op: flops}``.
        """
        wanted = set(ops)
        totals = defaultdict(lambda: defaultdict(float))
        flops = defaultdict(float)
        for r in self.records:
            if r["op"] not in wanted:
                continue
            if r["name"] == "compiler.factorize":
                flops[r["op"]] += r["flops"]
            if r["parent"] is None:
                totals[r["op"]][r["name"]] += r["end"] - r["start"]
        return totals, flops

    def layer_medians(self, ops, walls):
        """Median per op of every layer total, plus the unattributed remainder (ms)."""
        totals, flops = self.per_op(ops)
        names = [name for _, _, name in TARGETS] + ["sparse.ordering"]
        out = {}
        for name in names:
            out[name] = 1e3 * median(totals[op].get(name, 0.0) for op in ops) if ops else 0.0
        unattributed = [1e3 * (walls[i] - sum(totals[op].values())) for i, op in enumerate(ops)]
        out["unattributed"] = median(unattributed) if ops else 0.0
        out["flops"] = median(flops[op] for op in ops) if ops else 0.0
        return out

    def compile_totals(self):
        """Sums of the public ``timings`` fields over every distinct artifact compiled."""
        sums = {"inspection": 0.0, "transformation": 0.0, "codegen": 0.0, "compile": 0.0}
        source_bytes = 0
        for artifact in self.artifacts.values():
            for field, value in artifact.timings.as_dict().items():
                if field in sums:
                    sums[field] += value
            source_bytes += len(artifact.source)
        return sums, source_bytes

    def dump(self, path) -> None:
        """Write every span record as JSON (once, at the end of the run)."""
        with open(path, "w") as fh:
            json.dump({"spans": self.records}, fh)
