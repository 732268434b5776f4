"""Seeded inputs of the four workloads, built from the public ``repro`` generators.

Structures that a restart workload reads back from its disk cache are fixed
here (the Table-2 parameters, one LU structure, the serving patterns); the
run seed only draws the *values* and right-hand sides, so the cache a
pre-pass fills once per checkout serves every seed.  ``pattern_churn`` draws
its structures from the seed, because every op must meet a structure no
cache has seen.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import (
    block_tridiagonal_spd,
    circuit_like_spd,
    fem_stencil_2d,
    laplacian_2d,
    laplacian_3d,
    saddle_point_indefinite,
    unsymmetric_diag_dominant,
)

#: The eleven SPD matrices of the paper's Table 2 (full-suite sizes, n = 504–2500,
#: in the table's order).  Each entry: name, generator thunk.
TABLE2 = [
    ("cbuckle", lambda: block_tridiagonal_spd(36, 14, seed=101, dense_coupling=True)),
    ("pres_poisson", lambda: fem_stencil_2d(24, 24, shift=0.5)),
    ("gyro", lambda: circuit_like_spd(700, avg_degree=5.0, hub_fraction=0.01, seed=102)),
    ("gyro_k", lambda: circuit_like_spd(700, avg_degree=5.0, hub_fraction=0.02, seed=103)),
    ("dubcova2", lambda: fem_stencil_2d(30, 30, shift=0.25)),
    ("msc23052", lambda: block_tridiagonal_spd(30, 26, seed=104, dense_coupling=True)),
    ("thermomech", lambda: laplacian_3d(9, 9, 9, shift=0.5)),
    ("dubcova3", lambda: fem_stencil_2d(38, 38, shift=0.25)),
    ("parabolic_fem", lambda: laplacian_2d(38, 38, shift=0.25)),
    ("ecology2", lambda: laplacian_2d(45, 45, shift=0.1)),
    ("tmt_sym", lambda: laplacian_2d(50, 50, shift=0.1)),
]

#: The LU workload's structure: one fixed unsymmetric diagonally dominant pattern.
LU_ORDER = 1200
LU_STRUCTURE_SEED = 7

#: The serving workload's patterns (n = 144–400), registered as Cholesky.
SERVE_PATTERNS = [
    ("lap12", lambda: laplacian_2d(12, shift=0.1)),
    ("fem15", lambda: fem_stencil_2d(15, shift=0.25)),
    ("circ300", lambda: circuit_like_spd(300, avg_degree=4.0, seed=11)),
    ("lap20", lambda: laplacian_2d(20, shift=0.1)),
]

#: Requests per serving pattern drawn from a seeded pool (each pool entry is
#: checked once against scipy before the run).
SERVE_POOL = 16


#: The routes ``pattern_churn`` cycles through, one op each per cycle.
CHURN_ROUTES = ("cholesky", "ldlt", "lu", "pcg")


def table2():
    """The Table-2 matrices as ``(name, CSCMatrix)`` pairs."""
    return [(name, make()) for name, make in TABLE2]


def lu_matrix():
    """The LU workload's matrix."""
    return unsymmetric_diag_dominant(LU_ORDER, seed=LU_STRUCTURE_SEED)


def serve_patterns():
    """The serving patterns as ``(name, CSCMatrix)`` pairs."""
    return [(name, make()) for name, make in SERVE_PATTERNS]


def column_rows(A):
    """Column index of every stored entry of CSC ``A`` (row indices are ``A.indices``)."""
    return np.repeat(np.arange(A.n_cols), np.diff(A.indptr))


def spd_values(A, cols, rng):
    """New values for SPD ``A`` on its own pattern: ``D A D`` for a random positive ``D``.

    A symmetric diagonal scaling keeps the matrix SPD and its pattern fixed.
    """
    d = np.exp(0.25 * rng.standard_normal(A.n))
    return A.data * d[A.indices] * d[cols]


def dominant_values(A, cols, rng):
    """New values for diagonally dominant ``A``: shrink off-diagonals, grow the diagonal.

    Off-diagonal magnitudes only shrink and diagonal ones only grow, so strict
    row and column dominance is kept.
    """
    diag = A.indices == cols
    factor = np.where(diag, rng.uniform(1.0, 1.5, A.nnz), rng.uniform(0.5, 1.0, A.nnz))
    return A.data * factor


def as_scipy(A, values):
    """A scipy CSC matrix with ``A``'s pattern and the given values."""
    return sp.csc_matrix((values, A.indices, A.indptr), shape=(A.n_rows, A.n_cols))


def churn_structure(k, rng):
    """The ``k``-th never-seen structure of ``pattern_churn`` and its expected route.

    The routes cycle Cholesky, LDLᵀ, LU, PCG (``CHURN_ROUTES``) so that every
    window of whole cycles sees the same mix.  Orders are fixed per route and
    the generator seeds come from ``rng``, so each op meets a new structure of
    a steady cost.  PCG needs n at or above the front end's iterative
    threshold (4000); its grid grows with ``k`` so no two PCG ops of a run
    share one.
    """
    route = CHURN_ROUTES[k % len(CHURN_ROUTES)]
    s = int(rng.integers(0, 1 << 30))
    if route == "cholesky":
        A = circuit_like_spd(300, avg_degree=4.0, seed=s)
    elif route == "ldlt":
        A = saddle_point_indefinite(200, 60, seed=s)
    elif route == "lu":
        A = unsymmetric_diag_dominant(300, seed=s)
    else:
        A = laplacian_2d(64, 64 + k // len(CHURN_ROUTES), shift=0.1)
    return route, A
