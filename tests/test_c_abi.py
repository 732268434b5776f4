"""The C backend's kernel ABI table: one row per method, one ctypes wrapper.

Every method × {serial, wavefront} entry is checked against the python
backend (same outputs bit for bit, same types and shapes, same breakdown
message) and its generated C signature is pinned, so a change to the table
cannot change the ABI unnoticed.  The O(1) length guard both backends run
before the generated code indexes caller arrays is covered too.
"""

import numpy as np
import pytest

from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen.c_backend import c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.sparse.generators import laplacian_2d, unsymmetric_diag_dominant
from repro.sparse.ordering import ordering_by_name

pytestmark = pytest.mark.skipif(
    not c_compiler_available("cc"), reason="no C compiler available"
)

_A = "const int64_t* Ap, const int64_t* Ai, const double* Ax"

#: The pinned parameter list of each method's serial entry point; the
#: wavefront entry appends ``int64_t n_threads``.
SIGNATURES = {
    "triangular-solve": (
        "void",
        "const int64_t* Lp, const int64_t* Li, const double* Lx, "
        "const double* b, double* x",
    ),
    "cholesky": ("int64_t", f"{_A}, double* Lx"),
    "ldlt": ("int64_t", f"{_A}, double* Lx, double* D"),
    "lu": ("int64_t", f"{_A}, double* Lx, double* Ux"),
    "ic0": ("int64_t", f"{_A}, double* Lx"),
    "ilu0": ("int64_t", f"{_A}, double* Lx, double* Ux"),
}


def _permuted_laplacian(side):
    # Wide level sets, so the wavefront entries take their parallel bodies.
    grid = laplacian_2d(side, shift=0.1)
    return ordering_by_name("mindeg")(grid).symmetric_permute(grid)


def _matrix(method):
    if method == "ilu0":
        return unsymmetric_diag_dominant(48, seed=5)
    return _permuted_laplacian(12)


def _sympilers(parallel):
    # Simplicial bodies: the supernodal ones sum dense panels in another
    # order than the python backend, so they agree only to rounding.
    c = SympilerOptions(backend="c", enable_vs_block=False, parallel=parallel)
    python = SympilerOptions(backend="python", enable_vs_block=False)
    return Sympiler(c, cache=ArtifactCache()), Sympiler(python, cache=ArtifactCache())


def _breakdown_values(method, A):
    """``A``'s values with one diagonal zeroed so ``method`` breaks down."""
    values = A.data.copy()
    col = A.n // 2 if method in ("cholesky", "ic0") else 0
    lo, hi = A.indptr[col], A.indptr[col + 1]
    values[lo + int(np.flatnonzero(A.indices[lo:hi] == col)[0])] = 0.0
    return values


def _run(artifact, arrays):
    if artifact.kernel_name == "triangular-solve":
        return artifact.solve_arrays(*arrays)
    return artifact.factorize_arrays(*arrays)


def _message(artifact, arrays):
    with pytest.raises(ValueError) as info:
        _run(artifact, arrays)
    return str(info.value)


def _signature_line(artifact):
    entry = artifact.module.entry_name
    lines = artifact.source.splitlines()
    return next(line for line in lines if f" {entry}(" in line and line.endswith("{"))


@pytest.mark.parametrize("parallel", ["none", "wavefront"])
@pytest.mark.parametrize("method", sorted(SIGNATURES))
def test_entry_matches_python_backend(method, parallel, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
    sym_c, sym_py = _sympilers(parallel)
    A = _matrix("cholesky" if method == "triangular-solve" else method)
    if method == "triangular-solve":
        A = sym_py.compile("cholesky", A).factorize(A)
        good = bad = (A.indptr, A.indices, A.data, np.cos(np.arange(A.n)))
    else:
        good = (A.indptr, A.indices, A.data)
        bad = (A.indptr, A.indices, _breakdown_values(method, A))
    art_c, art_py = sym_c.compile(method, A), sym_py.compile(method, A)
    assert art_c.parallel_mode == parallel

    ret, params = SIGNATURES[method]
    if parallel == "wavefront":
        params += ", int64_t n_threads"
    entry = art_c.module.entry_name
    assert _signature_line(art_c) == f"{ret} {entry}({params}) {{"

    out_c, out_py = _run(art_c, good), _run(art_py, good)
    assert type(out_c) is type(out_py)
    for c, py in zip(*(o if isinstance(o, tuple) else (o,) for o in (out_c, out_py))):
        assert c.dtype == py.dtype and c.shape == py.shape
        assert np.array_equal(c, py)

    if method != "triangular-solve":
        message = _message(art_py, bad)
        assert "column" in message
        assert _message(art_c, bad) == message


@pytest.mark.parametrize(
    "backend,parallel",
    [("c", "none"), ("c", "wavefront"), ("python", "none")],
    ids=["none", "wavefront", "python"],
)
class TestLengthGuard:
    """Short or mis-sized arrays raise instead of reaching the kernel."""

    @staticmethod
    def _compiled(backend, parallel):
        sym = Sympiler(SympilerOptions(backend=backend, parallel=parallel))
        A = laplacian_2d(10, 10)
        chol = sym.compile("cholesky", A)
        return sym, A, chol

    def test_factorize_rejects_truncated_arrays(self, backend, parallel):
        _, A, chol = self._compiled(backend, parallel)
        with pytest.raises(ValueError, match="Ap has 5 entries"):
            chol.factorize_arrays(A.indptr[:5], A.indices[:3], A.data[:3])

    def test_trisolve_rejects_short_values_and_rhs(self, backend, parallel):
        sym, A, chol = self._compiled(backend, parallel)
        L = chol.factorize(A)
        tri = sym.compile("triangular-solve", L)
        with pytest.raises(ValueError, match="Lx has 10 entries"):
            tri.solve_arrays(L.indptr, L.indices, L.data[:10], np.ones(3))
        with pytest.raises(ValueError, match="b has 3 entries"):
            tri.solve_arrays(L.indptr, L.indices, L.data, np.ones(3))
        with pytest.raises(ValueError, match="b has 101 entries"):
            tri.solve_arrays(L.indptr, L.indices, L.data, np.ones(L.n + 1))

    def test_each_array_is_named(self, backend, parallel):
        _, A, chol = self._compiled(backend, parallel)
        shifted = A.indptr.copy()
        shifted[-1] -= 1
        cases = {
            r"Ap\[-1\] is": (shifted, A.indices, A.data),
            "Ai has": (A.indptr, A.indices[:-1], A.data),
            "Ax has": (A.indptr, A.indices, A.data[:-1]),
        }
        for match, arrays in cases.items():
            with pytest.raises(ValueError, match=match):
                chol.factorize_arrays(*arrays)
        # Longer value buffers (a view into a bigger array) are accepted.
        padded = np.concatenate([A.data, [7.0]])
        assert np.array_equal(
            chol.factorize_arrays(A.indptr, A.indices, padded),
            chol.factorize_arrays(A.indptr, A.indices, A.data),
        )
