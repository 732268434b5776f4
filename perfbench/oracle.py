"""The scipy oracle every op is checked against, outside the timed interval."""

from __future__ import annotations

import time

import numpy as np
from scipy.sparse.linalg import splu

#: Normwise backward-error bound of a direct solve, and of a PCG solve (whose
#: stopping test is a relative residual of 1e-8).
BACKWARD_BOUND = {"direct": 1e-10, "pcg": 1e-7}
#: Bound on the relative distance to scipy's solution.
FORWARD_BOUND = {"direct": 1e-7, "pcg": 1e-4}
#: Timing of the scipy reference: runs add up to this many seconds, or stop
#: at ``MAX_REPEATS``.
TIMING_BUDGET_S = 0.005
MAX_REPEATS = 10


def backward_error(A, x, b) -> float:
    """``|b - A x|_inf / (|A|_inf |x|_inf + |b|_inf)``."""
    r = b - A @ x
    norm_a = float(abs(A).sum(axis=1).max())
    return float(np.abs(r).max() / (norm_a * np.abs(x).max() + np.abs(b).max()))


def reference(A, b, budget=TIMING_BUDGET_S, max_repeats=MAX_REPEATS):
    """scipy's ``splu(A).solve(b)`` and the best of its timings, in seconds.

    Repeats until the runs add up to ``budget`` seconds (at most
    ``max_repeats`` runs), as ``timeit`` sizes its loops: a sub-millisecond
    solve read once is mostly timer and cache noise.
    """
    times = []
    while len(times) < max_repeats and sum(times) < budget:
        start = time.perf_counter()
        x = splu(A.tocsc()).solve(b)
        times.append(time.perf_counter() - start)
    return x, min(times)


def check(A, b, x, x_ref, kind="direct") -> bool:
    """True when ``x`` solves ``A x = b`` within the bounds for ``kind``."""
    if x is None or not np.all(np.isfinite(x)):
        return False
    forward = float(np.abs(x - x_ref).max() / max(np.abs(x_ref).max(), 1e-300))
    return backward_error(A, x, b) <= BACKWARD_BOUND[kind] and forward <= FORWARD_BOUND[kind]
