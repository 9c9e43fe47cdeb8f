"""Dense BLAS/LAPACK routines that run without the GIL.

scipy's f2py wrappers (``scipy.linalg.cho_factor``, ``cho_solve`` and
``scipy.linalg.blas``) hold the GIL for the whole call, so two seed workers
calling them run one after the other. Here every routine is resolved by
name, under the ``scipy_`` prefix of scipy's wheels or as it is, through one
handle on the extension ``scipy/linalg/cython_lapack``, found on disk
without importing ``scipy.linalg``. A lookup through that handle also
searches the libraries it links, scipy's bundled OpenBLAS among them (so
do ELF and Mach-O loaders; Windows ``GetProcAddress`` does not). The
routines are called through ctypes, which releases the GIL for the length
of a foreign call, and they are the ones the f2py wrappers call, so results
are the same bits. A routine the library lacks raises ImportError.

The eigenvalue helper ``syevd`` calls LAPACK's two-stage ``dsyevd_2stage``
(a BLAS-3 reduction to band form, then bulge chasing to tridiagonal form;
Haidar, Ltaief & Dongarra, SC'11), else the one-stage ``dsyevd``;
``EIGEN_DRIVER`` names the routine that was resolved.

Two OpenBLAS libraries do a run's dense work: scipy's, behind the routines
here, and numpy's, behind its matrix products, reached through a handle on
numpy's ``_multiarray_umath`` extension. ``lapack_threads`` and
``numpy_blas_threads`` read their thread counts, and ``one_lapack_thread``
runs a block on one thread per call in both, the one place the thread
count is set.

The Cholesky helpers and ``symv`` read opposite triangles of one array:
``potrf`` factors the F-order view ``K.T`` of a C-order symmetric K in
place, writing its factor over K's upper triangle and diagonal, and
``symv`` reads K's strict lower triangle and diagonal alone. So K's
untouched triangle still gives K's products, once the caller corrects for
the factor's diagonal (``krr.RidgeFactor``).

Each helper asserts the memory layout it needs (InvalidArgumentError
otherwise) and never copies: the caller makes the one copy it means to.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from importlib.machinery import PathFinder

import numpy as np
import scipy

from .errors import InvalidArgumentError, NumericalFailureError

_spec = PathFinder.find_spec("cython_lapack", [os.path.join(path, "linalg") for path in scipy.__path__])
if _spec is None:
    raise ImportError("scipy.linalg.cython_lapack not found under %s" % list(scipy.__path__))
_LIBRARY = ctypes.CDLL(_spec.origin)
try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath


def _symbol(library: ctypes.CDLL, name: str):
    """The address of ``name`` in ``library``, under the ``scipy_`` prefix of
    scipy's and numpy's wheels or as it is; None where neither is exported."""
    for symbol in ("scipy_" + name, name):
        if hasattr(library, symbol):
            return ctypes.cast(getattr(library, symbol), ctypes.c_void_p).value
    return None


def _library_symbol(name: str):
    """The address of ``name`` in ``_LIBRARY`` (see ``_symbol``)."""
    return _symbol(_LIBRARY, name)


def _thread_count(library: ctypes.CDLL, suffix: str):
    """The getter and setter of the thread count of the OpenBLAS that
    ``library`` links (``openblas_get_num_threads`` and
    ``openblas_set_num_threads``, each with ``suffix``) as ctypes functions;
    (None, None) unless both are exported."""
    get, put = (_symbol(library, "openblas_%s_num_threads%s" % (verb, suffix)) for verb in ("get", "set"))
    if get is None or put is None:
        return None, None
    return ctypes.CFUNCTYPE(ctypes.c_int)(get), ctypes.CFUNCTYPE(None, ctypes.c_int)(put)


def _routine(name: str, nargs: int):
    """The Fortran routine ``name`` of ``_LIBRARY``, taking ``nargs`` pointers
    (Fortran passes every argument by reference)."""
    address = _library_symbol(name)
    if address is None:
        raise ImportError("%s exports no %s" % (_LIBRARY._name, name))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)


_dsymv = _routine("dsymv_", 10)
_dpotrf = _routine("dpotrf_", 5)
_dpotrs = _routine("dpotrs_", 8)
# Both drivers take the same 11 arguments, and jobz N asks both for
# eigenvalues alone.
EIGEN_DRIVER = "dsyevd" if _library_symbol("dsyevd_2stage_") is None else "dsyevd_2stage"
_dsyevd = _routine(EIGEN_DRIVER + "_", 11)
_SCIPY_THREADS = _thread_count(_LIBRARY, "")
# numpy's wheels build OpenBLAS with 64-bit integers, its symbols suffixed 64_.
_NUMPY_THREADS = _thread_count(ctypes.CDLL(_multiarray_umath.__file__), "64_")
_EIGENVALUES_ONLY = ctypes.c_char(b"N")
_LOWER = ctypes.c_char(b"L")
_UPPER = ctypes.c_char(b"U")
_ONE = ctypes.c_int(1)
_ALPHA = ctypes.c_double(1.0)
_BETA = ctypes.c_double(0.0)

_at = ctypes.addressof


def _check(a: np.ndarray, ndims: tuple[int, ...], order: str, what: str, writable: bool = False) -> None:
    """``order`` is "C", "F", or "C or F"."""
    contiguous = (order != "F" and a.flags.c_contiguous) or (order != "C" and a.flags.f_contiguous)
    if a.dtype != np.float64 or a.ndim not in ndims or not contiguous or (writable and not a.flags.writeable):
        raise InvalidArgumentError(
            "%s must be a %sfloat64 %s-contiguous array with %s dimensions (got %s of shape %s)"
            % (what, "writable " if writable else "", order, " or ".join(map(str, ndims)), a.dtype, a.shape)
        )


def _square(a: np.ndarray, order: str, what: str, writable: bool = False) -> int:
    _check(a, (2,), order, what, writable)
    if a.shape[0] != a.shape[1]:
        raise InvalidArgumentError("%s must be square, got %s" % (what, a.shape))
    return a.shape[0]


def potrf(a: np.ndarray) -> int:
    """Cholesky factor L of the symmetric F-order ``a``, read from and written
    over its lower triangle in place (LAPACK ``dpotrf``, uplo L); the strict
    upper triangle is left as it was. Returns LAPACK's info: 0, or k > 0 when
    the leading minor of order k is not positive definite."""
    n = ctypes.c_int(_square(a, "F", "potrf: a", writable=True))
    info = ctypes.c_int(0)
    lda = ctypes.c_int(max(1, n.value))
    _dpotrf(_at(_LOWER), _at(n), a.ctypes.data, _at(lda), _at(info))
    if info.value < 0:
        raise InvalidArgumentError("dpotrf: argument %d is invalid" % -info.value)
    return info.value


def potrs(c: np.ndarray, b: np.ndarray) -> None:
    """Overwrite ``b`` (an n-vector, or an F-order n x r block) with the
    solution of L L' x = b, for the factor L in the lower triangle of the
    F-order ``c`` that ``potrf`` wrote (LAPACK ``dpotrs``, uplo L)."""
    n = _square(c, "F", "potrs: c")
    _check(b, (1, 2), "F", "potrs: b", writable=True)
    if b.shape[0] != n:
        raise InvalidArgumentError("potrs: b has %d rows, the factor %d" % (b.shape[0], n))
    info = ctypes.c_int(0)
    order, nrhs, lead = ctypes.c_int(n), ctypes.c_int(b.shape[1] if b.ndim == 2 else 1), ctypes.c_int(max(1, n))
    _dpotrs(_at(_LOWER), _at(order), _at(nrhs), c.ctypes.data, _at(lead), b.ctypes.data, _at(lead), _at(info))
    if info.value < 0:
        raise InvalidArgumentError("dpotrs: argument %d is invalid" % -info.value)


def symv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a symmetric C-order ``a``, read from its strict lower
    triangle and its diagonal alone (BLAS ``dsymv``; the strict upper
    triangle, where ``potrf`` writes the factor of ``a.T``, is never read),
    into a fresh n-vector. ``x`` must be a contiguous float64 n-vector."""
    n = _square(a, "C", "symv: a")
    _check(x, (1,), "C", "symv: x")
    if x.size != n:
        raise InvalidArgumentError("symv: x has %d entries, a is %d x %d" % (x.size, n, n))
    # Zeroed although beta = 0: the product then never depends on what the
    # buffer held.
    out = np.zeros(n)
    order, lead = ctypes.c_int(n), ctypes.c_int(max(1, n))
    # Read column-major, a C-order matrix is its transpose: its lower
    # triangle is the upper triangle there.
    _dsymv(_at(_UPPER), _at(order), _at(_ALPHA), a.ctypes.data, _at(lead), x.ctypes.data, _at(_ONE),
           _at(_BETA), out.ctypes.data, _at(_ONE))
    return out


def lapack_threads() -> int | None:
    """The number of threads the OpenBLAS behind these routines runs a call
    on (its ``openblas_get_num_threads``), or None where that library does
    not export its thread-count getter and setter."""
    get = _SCIPY_THREADS[0]
    return None if get is None else get()


def numpy_blas_threads() -> int | None:
    """The same count for the OpenBLAS behind numpy's matrix products."""
    get = _NUMPY_THREADS[0]
    return None if get is None else get()


@contextlib.contextmanager
def one_lapack_thread():
    """Inside the block, scipy's and numpy's OpenBLAS run each call on one
    thread; their counts are restored as the block ends, however it ends. A
    library that exports no thread-count getter and setter is left as it is.

    The count is the library's, not the thread's: it holds for every thread
    of the process, so seed workers started inside the block all run on it.
    Two blocks must not overlap in time on different threads: the second
    would read the first's 1 and restore it. Both counts are read before
    either is set, so that where numpy and scipy share one library, its own
    count comes back and not 1."""
    pins = [(put, get()) for get, put in (_SCIPY_THREADS, _NUMPY_THREADS) if get is not None]
    for put, _ in pins:
        put(1)
    try:
        yield
    finally:
        for put, threads in reversed(pins):
            put(threads)


def syevd(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric, C- or F-contiguous ``a``, which
    the solve overwrites (``EIGEN_DRIVER``, jobz N, uplo L). Read column-major,
    a contiguous symmetric matrix is itself in either order, so one triangle
    alone is read: the upper of a C-order array, the lower of an F-order one.
    NumericalFailureError when the tridiagonal solve does not converge."""
    n = ctypes.c_int(_square(a, "C or F", "syevd: a", writable=True))
    lda = ctypes.c_int(max(1, n.value))
    w = np.empty(n.value)
    info = ctypes.c_int(0)

    def call(work, lwork, iwork, liwork):
        _dsyevd(_at(_EIGENVALUES_ONLY), _at(_LOWER), _at(n), a.ctypes.data, _at(lda), w.ctypes.data,
                work.ctypes.data, _at(lwork), iwork.ctypes.data, _at(liwork), _at(info))
        if info.value < 0:
            raise InvalidArgumentError("%s: argument %d is invalid" % (EIGEN_DRIVER, -info.value))

    # Workspace query first (lwork = liwork = -1), then the solve.
    work, iwork = np.zeros(1), np.zeros(1, dtype=np.int32)
    call(work, ctypes.c_int(-1), iwork, ctypes.c_int(-1))
    work, iwork = np.zeros(max(1, int(work[0]))), np.zeros(max(1, int(iwork[0])), dtype=np.int32)
    call(work, ctypes.c_int(work.size), iwork, ctypes.c_int(iwork.size))
    if info.value > 0:
        raise NumericalFailureError(
            "eigensolver failed: %s left %d off-diagonal elements of the tridiagonal form unconverged"
            % (EIGEN_DRIVER, info.value)
        )
    return w
