"""Runtime support for generated Python code.

The Python backend emits source that refers to a tiny runtime namespace named
``_rt`` providing the dense micro-kernels (the analogue of linking generated C
against BLAS or against Sympiler's own specialized kernels).  The namespace is
deliberately minimal and read-only so that generated code stays auditable:
everything else the generated code touches is either a NumPy primitive or an
embedded constant.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import types

import numpy as np

from repro.kernels.dense import (
    dense_cholesky,
    dense_ldlt,
    dense_lower_solve,
    dense_solve_transposed_right,
    small_cholesky,
    small_lower_solve,
)

__all__ = [
    "runtime_namespace",
    "pattern_fingerprint",
    "rhs_fingerprint_extra",
    "generated_code_dir",
    "check_input_lengths",
]


def runtime_namespace() -> types.SimpleNamespace:
    """The ``_rt`` namespace injected into generated Python modules."""
    return types.SimpleNamespace(
        dense_cholesky=dense_cholesky,
        dense_ldlt=dense_ldlt,
        dense_lower_solve=dense_lower_solve,
        dense_solve_transposed_right=dense_solve_transposed_right,
        small_cholesky=small_cholesky,
        small_lower_solve=small_lower_solve,
    )


def check_input_lengths(names, arrays, n: int, nnz: int) -> None:
    """O(1) guard of a compiled entry's input arrays against its pattern.

    ``arrays`` are the entry's inputs in ``names`` order: column pointers,
    row indices, values, then any right-hand sides.  Generated code trusts
    the compiled pattern and indexes these arrays without bounds checks, so
    the column pointers must have ``n + 1`` entries ending at the compiled
    ``nnz``, the row indices and values at least ``nnz``, and right-hand
    sides exactly ``n``.  A mismatch raises ``ValueError`` naming the array.
    A same-size array with another pattern passes; only the full
    fingerprint (``check_pattern=True``) catches that.
    """
    indptr, indices, values, *rhs = arrays
    if (
        indptr.size != n + 1
        or indptr[-1] != nnz
        or indices.size < nnz
        or values.size < nnz
        or any([r.size != n for r in rhs])
    ):
        _raise_length_error(names, arrays, n, nnz)


def _raise_length_error(names, arrays, n: int, nnz: int) -> None:
    """Name the first input whose length does not fit the compiled pattern."""
    indptr = arrays[0]
    if indptr.size != n + 1:
        raise ValueError(
            f"{names[0]} has {indptr.size} entries; the compiled pattern "
            f"needs n + 1 = {n + 1}"
        )
    if indptr[-1] != nnz:
        raise ValueError(
            f"{names[0]}[-1] is {int(indptr[-1])}; the compiled pattern has "
            f"nnz = {nnz}"
        )
    for name, arr in zip(names[1:3], arrays[1:3]):
        if arr.size < nnz:
            raise ValueError(
                f"{name} has {arr.size} entries; the compiled pattern needs "
                f"at least nnz = {nnz}"
            )
    for name, arr in zip(names[3:], arrays[3:]):
        if arr.size != n:
            raise ValueError(
                f"{name} has {arr.size} entries; the compiled pattern needs n = {n}"
            )


def pattern_fingerprint(*arrays: np.ndarray, extra: str = "") -> str:
    """A short stable fingerprint of one or more integer pattern arrays.

    Used to name cached artifacts and to verify at solve/factorize time that
    the numeric inputs carry the same sparsity pattern the code was generated
    for.
    """
    digest = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    if extra:
        digest.update(extra.encode())
    return digest.hexdigest()[:16]


def rhs_fingerprint_extra(n: int, rhs: "np.ndarray | None") -> str:
    """Fingerprint suffix encoding a (normalized) RHS pattern.

    ``rhs`` must be ``None`` (dense) or sorted unique in-range indices, as the
    triangular inspector produces.  A dense RHS — explicit or implicit — maps
    to the constant token ``"dense"`` rather than an O(n) index listing, so
    fingerprinting stays cheap on the factor-once/solve-many hot path.  Used
    by both the registry's cache fingerprint and the compiled artifact's
    ``verify_pattern``, which therefore always agree.
    """
    if rhs is None or rhs.size == n:
        return "dense"
    return ",".join(str(int(i)) for i in rhs)


def generated_code_dir() -> str:
    """Directory where generated sources / shared objects are cached.

    Controlled by the ``REPRO_SYMPILER_CACHE`` environment variable; defaults
    to a per-user directory under the system temp dir.  The directory is
    created on first use.
    """
    root = os.environ.get(
        "REPRO_SYMPILER_CACHE",
        os.path.join(tempfile.gettempdir(), f"repro-sympiler-{os.getuid()}"),
    )
    os.makedirs(root, exist_ok=True)
    return root
