"""Inner-product kernels, the quadratic surrogate, and spectral gap tools.

The kernel matrix is K_ij = f(<x_i, x_j>/d). Its quadratic surrogate is

    K2 = a0 11' + a1 XX' + a2 (XX')^{o2} + a I

with coefficients that carry trace corrections beyond the plain Taylor
expansion of f at zero; the corrections are what make the spectral-norm
approximation work in the n ~ d^2 regime.

``kernel_matrix`` and ``quad_kernel_matrix`` form K and K2 whole.
``gap_matrix`` forms their difference D = K - K2, the matrix
``spectral_norm_gap`` solves, without either: row strips of the upper
triangle, mirrored below it, into one n x n array. ``shift_gap_matrix``
turns that D into the difference for other coefficients in place, so a
comparison of surrogates holds one n x n array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _lapack
from .datagen import CovarianceSpec, _as_matrix
from .errors import AssumptionWarning, InvalidArgumentError, NumericalFailureError
from .spectra import _checked_symmetric

__all__ = [
    "KernelFunction",
    "QuadCoeffs",
    "quad_coeffs",
    "kernel_matrix",
    "quad_kernel_matrix",
    "cross_kernel",
    "spectral_norm_gap",
]

DERIV_RTOL = 1e-4  # KernelFunction.validate_derivatives: claimed vs finite differences


def _horner(x, coeffs):
    """sum_k coeffs[k] x^k (low to high degree) by Horner's rule.

    Multiplies and adds in place on one fresh output buffer; ``x`` itself
    is never written to.
    """
    if len(coeffs) == 1:
        return np.full_like(x, coeffs[0], dtype=np.float64)
    out = x * coeffs[-1]
    out += coeffs[-2]
    for c in coeffs[-3::-1]:
        out *= x
        out += c
    return out


def _power_plan(poly: tuple[float, ...]) -> tuple[bool, tuple[float, ...]]:
    """How to evaluate f = sum_k poly[k] t^k: whether to work in s = t*t (f
    even), and f's coefficients in that base, low to high degree, up to its
    last nonzero one. ``KernelFunction`` evaluates f by Horner's rule in the
    base; ``krr._predict`` sums its powers against the weights."""
    c = list(poly)
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    square = not any(c[1::2])
    return square, tuple(c[0::2] if square else c)


@dataclass(frozen=True)
class KernelFunction:
    """Scalar kernel profile f with its derivatives at zero.

    ``fn`` must be vectorised: called on a float64 array, 0-d array or
    float64 scalar, it returns f entrywise with the same shape, in a fresh
    array that the caller owns. It must never write to its argument:
    ``eval`` hands it the caller's array without copying.
    ``derivs0`` holds (f(0), f'(0), f''(0), f'''(0), f''''(0)). Builtins are
    supplied analytically; user-defined kernels must pass explicit values,
    which are validated against central finite differences.
    ``bounded_high_derivs`` records whether the ninth derivative is globally
    bounded (needed by the generalization-error formulas; exp and cosh fail
    it but stay usable at desk scale, with a warning).
    ``poly`` holds f's coefficients in t, low to high degree, when f is a
    polynomial, and is None for ``exp``, ``cosh`` and ``from_callable``. It
    defines a polynomial kernel: ``quartic`` and ``custom_poly`` derive
    ``fn`` from it through ``_power_plan``, and the risk prediction reads
    the same plan to evaluate f(G/d) @ w as a sum of power terms (see
    ``krr._predict``).
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    derivs0: tuple[float, float, float, float, float]
    bounded_high_derivs: bool = True
    poly: tuple[float, ...] | None = None

    def eval(self, t):
        out = self.fn(np.asarray(t, dtype=np.float64))
        return float(out) if np.isscalar(t) else out

    @staticmethod
    def exp() -> "KernelFunction":
        return KernelFunction("exp", np.exp, (1.0, 1.0, 1.0, 1.0, 1.0), bounded_high_derivs=False)

    @staticmethod
    def cosh() -> "KernelFunction":
        return KernelFunction("cosh", np.cosh, (1.0, 0.0, 1.0, 0.0, 1.0), bounded_high_derivs=False)

    @staticmethod
    def quartic(b0: float, b2: float, b4: float) -> "KernelFunction":
        name = "quartic:%g,%g,%g" % (b0, b2, b4)
        poly = (float(b0), 0.0, b2 / 2.0, 0.0, b4 / 24.0)
        return KernelFunction._polynomial(name, poly, (float(b0), 0.0, float(b2), 0.0, float(b4)))

    @staticmethod
    def custom_poly(coeffs) -> "KernelFunction":
        """Polynomial sum_k c_k t^k from low to high degree."""
        c = tuple(float(v) for v in coeffs)
        if not c:
            raise InvalidArgumentError("custom_poly needs at least one coefficient")
        derivs = tuple(math.factorial(k) * c[k] if k < len(c) else 0.0 for k in range(5))
        return KernelFunction._polynomial("custom_poly:" + ",".join("%g" % v for v in c), c, derivs)

    @staticmethod
    def _polynomial(name: str, poly: tuple[float, ...], derivs0) -> "KernelFunction":
        """The kernel f = sum_k poly[k] t^k, evaluated by Horner's rule in
        t*t for an even f and in t otherwise (see ``_power_plan``).
        ``derivs0`` is passed in, not derived from ``poly``: quartic's
        f''''(0) is b4 itself, which 24 * (b4/24) can miss by a bit."""
        square, coeffs = _power_plan(poly)

        def fn(t):
            return _horner(t * t if square else t, coeffs)

        return KernelFunction(name, fn, derivs0, poly=poly)

    @staticmethod
    def from_callable(name: str, fn: Callable, derivs0, bounded_high_derivs: bool = True) -> "KernelFunction":
        kernel = KernelFunction(name, fn, tuple(float(v) for v in derivs0), bounded_high_derivs)
        kernel.validate_derivatives()
        return kernel

    def validate_derivatives(self) -> None:
        """Check ``derivs0`` against central finite differences at zero,
        within ``DERIV_RTOL`` relative to max(1, |claimed|).

        Orders up to 2 use step 1e-3. Orders 3 and 4 use step 1e-2: at step
        1e-3 the float64 rounding noise in the high-order stencils already
        exceeds the tolerance.
        """
        f = self.eval
        h = 1e-3
        fd = [
            float(f(0.0)),
            (f(h) - f(-h)) / (2 * h),
            (f(h) - 2 * f(0.0) + f(-h)) / h**2,
        ]
        h = 1e-2
        fd.append((f(2 * h) - 2 * f(h) + 2 * f(-h) - f(-2 * h)) / (2 * h**3))
        fd.append((f(2 * h) - 4 * f(h) + 6 * f(0.0) - 4 * f(-h) + f(-2 * h)) / h**4)
        for order, (approx, claimed) in enumerate(zip(fd, self.derivs0)):
            if abs(approx - claimed) > DERIV_RTOL * max(1.0, abs(claimed)):
                raise InvalidArgumentError(
                    "derivative %d mismatch: claimed %r, finite difference %r" % (order, claimed, approx)
                )

    def assumption_check(self) -> tuple[str, ...]:
        """Violations of the generalization-formula requirements (empty when clean)."""
        f0, f1, f2, f3, _ = self.derivs0
        issues = []
        if f1 != 0.0:
            issues.append("f'(0) = %g must vanish" % f1)
        if f3 != 0.0:
            issues.append("f'''(0) = %g must vanish" % f3)
        if f2 <= 0.0:
            issues.append("f''(0) = %g must be positive" % f2)
        return tuple(issues)


@dataclass(frozen=True)
class QuadCoeffs:
    """Surrogate coefficients. ``a_star`` is the diagonal offset ``a`` of the
    surrogate at the realized mean diagonal value tau = Tr(Sigma)/d."""

    a0: float
    a1: float
    a2: float
    a_star: float


def quad_coeffs(kernel: KernelFunction, cov: CovarianceSpec, corrected: bool = True) -> QuadCoeffs:
    """Surrogate coefficients for the given kernel and covariance.

    With ``corrected=False`` the trace correction terms are dropped and the
    plain Taylor coefficients f(0), f'(0)/d, f''(0)/(2 d^2) are returned
    (the diagonal offset ``a_star`` is unchanged); useful for measuring how much
    the corrections buy. A non-finite coefficient raises NumericalFailureError.
    """
    d = cov.d
    f0, f1, f2, f3, f4 = kernel.derivs0
    # On float64 an overflow gives inf, not OverflowError; the error below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        tr2 = np.float64(cov.trace_square())
        if corrected:
            a0 = f0 - f4 * tr2**2 / (8.0 * d**4)
            a1 = f1 / d + f3 * tr2 / (2.0 * d**3)
            a2 = f2 / (2.0 * d**2) + f4 * tr2 / (4.0 * d**4)
        else:
            a0, a1, a2 = f0, f1 / d, f2 / (2.0 * d**2)
        tau = np.float64(cov.tau())
        a = kernel.eval(tau) - f0 - f1 * tau - 0.5 * f2 * tau**2
    coeffs = QuadCoeffs(a0=float(a0), a1=float(a1), a2=float(a2), a_star=float(a))
    if not all(map(math.isfinite, astuple(coeffs))):
        raise NumericalFailureError("surrogate coefficients are non-finite: %r" % (coeffs,))
    if a <= 0.0:
        warnings.warn(
            "diagonal offset a_star = %g is not positive; ridge-less fits and the "
            "risk formulas assume a_star > 0" % a,
            AssumptionWarning,
            stacklevel=2,
        )
    return coeffs


def kernel_matrix(data, kernel: KernelFunction) -> np.ndarray:
    """K_ij = f(<x_i, x_j>/d), symmetric, K_ii = f(|x_i|^2/d), built in
    place on the scaled Gram matrix (see ``cross_kernel``)."""
    x = _as_matrix(data)
    # Both sides are the same array, so numpy forms x @ x.T by a symmetric
    # rank-k update (BLAS syrk) and the Gram matrix is exactly symmetric.
    return cross_kernel(x, x, kernel)


def quad_kernel_matrix(data, coeffs: QuadCoeffs) -> np.ndarray:
    """Quadratic surrogate a0 11' + a1 XX' + a2 (XX')^{o2} + a I.

    The quadratic term squares the Gram matrix entrywise (O(n^2 d)). Built
    in place on the Gram matrix and one more n x n array, with the rounding
    of (a0 + a1 G) + a2 (G o G).
    """
    x = _as_matrix(data)
    gram = x @ x.T
    _surrogate(gram, coeffs, out=gram)
    gram.flat[:: len(x) + 1] += coeffs.a_star
    return gram


# Rows per strip of gap_matrix and shift_gap_matrix. One BLAS thread, 2-CPU
# Xeon, exp kernel, best of 5, building D (then shifting it): at n=2048,
# 46 + 27 ms with 64-row strips, 42 + 26 with 128, 59 + 44 with 256 and
# 106 + 90 with 1024, against 192 ms for kernel_matrix - quad_kernel_matrix;
# at n=4608, 238 + 178, 244 + 176 and 262 + 189 ms for 64, 128 and 256 rows.
# cross_kernel (and so kernel_matrix) applies f in strips of the same height.
GAP_STRIP_ROWS = 128
# Strip-sized float64 temporaries alive at once in the strip loop: the Gram
# strip plus at most two more (the surrogate's square, or the two arrays of a
# polynomial kernel's Horner evaluation); one more is margin.
GAP_STRIP_TEMPS = 4


def gap_matrix(data, kernel: KernelFunction, coeffs: QuadCoeffs) -> np.ndarray:
    """D = K - K2, the difference ``spectral_norm_gap`` solves, as one n x n array.

    Equal to ``kernel_matrix(data, kernel) - quad_kernel_matrix(data, coeffs)``
    up to rounding (each strip forms its Gram block by gemm, where those use
    syrk), but never holds K or K2: row strips of the upper triangle are
    written as f(G/d) - ((a0 + a1 G) + a2 G o G) and mirrored below the
    diagonal, so D is exactly symmetric and f is evaluated on half the
    entries. A strip with a non-finite entry raises NumericalFailureError as
    soon as it is formed.
    """
    x = _as_matrix(data)
    n, d = x.shape
    diff = np.empty((n, n))

    def fill(gram, block):
        _surrogate(gram, coeffs, out=block)
        gram /= d
        np.subtract(kernel.eval(gram), block, out=block)

    _by_strips(x, diff, fill)
    diff.flat[:: n + 1] -= coeffs.a_star
    return diff


def shift_gap_matrix(diff: np.ndarray, data, old: QuadCoeffs, new: QuadCoeffs) -> None:
    """Turn ``diff`` = K - K2(old) from ``gap_matrix`` into K - K2(new) in place.

    Adds K2(old) - K2(new) strip by strip, over the same strips and mirror
    as ``gap_matrix``, so K is never formed again.
    """
    x = _as_matrix(data)
    delta = QuadCoeffs(*(a - b for a, b in zip(astuple(old), astuple(new))))

    def fill(gram, block):
        block += _surrogate(gram, delta, out=gram)

    _by_strips(x, diff, fill)
    diff.flat[:: len(x) + 1] += delta.a_star


def strip_build_bytes(n: int, d: int) -> int:
    """Bytes that a strip build (``kernel_matrix``, or ``gap_matrix`` and then
    ``shift_gap_matrix``) holds at its peak for n points in d dimensions: the
    n x n result, the data and the strip temporaries."""
    return 8 * (n * n + n * d + GAP_STRIP_TEMPS * min(n, GAP_STRIP_ROWS) * n)


def _surrogate(gram: np.ndarray, coeffs: QuadCoeffs, out: np.ndarray) -> np.ndarray:
    """(a0 + a1 G) + a2 G o G into ``out``, which may be ``gram`` itself."""
    square = gram * gram
    square *= coeffs.a2
    np.multiply(gram, coeffs.a1, out=out)
    out += coeffs.a0
    out += square
    return out


def _by_strips(x: np.ndarray, diff: np.ndarray, fill) -> None:
    """Walk the upper triangle of the n x n ``diff`` in row strips of
    GAP_STRIP_ROWS: ``fill(G, strip)`` writes diff[i:j, i:] given the Gram
    strip G = x[i:j] @ x[i:].T, which it may overwrite. Each strip is then
    checked for finite entries and mirrored into diff[i:, i:j]."""
    n = len(x)
    # gemm need not round the diagonal block's two triangles alike, so its
    # strict lower triangle is mirrored too.
    below = np.tri(GAP_STRIP_ROWS, k=-1, dtype=bool)
    for i in range(0, n, GAP_STRIP_ROWS):
        j = min(i + GAP_STRIP_ROWS, n)
        strip = diff[i:j, i:]
        # An overflow gives inf, not a RuntimeWarning; the check reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            fill(x[i:j] @ x[i:].T, strip)
        if not np.isfinite(strip).all():
            raise NumericalFailureError("spectral norm gap: K - K2 has non-finite entries in rows %d to %d" % (i, j - 1))
        diff[j:, i:j] = strip[:, j - i:].T
        square = strip[:, : j - i]
        np.copyto(square, square.T, where=below[: j - i, : j - i])


def cross_kernel(data, x_test, kernel: KernelFunction) -> np.ndarray:
    """Kernel values f(<x_test, x_i>/d) against every training row.

    ``x_test`` may be a single d-vector (returns an n-vector) or an m x d
    matrix (returns m x n). f overwrites the scaled inner products in place,
    GAP_STRIP_ROWS rows at a time, so the result is the one array of its
    size that the call allocates; entry for entry it equals f applied to
    the whole array.
    """
    x = _as_matrix(data)
    t = np.asarray(x_test, dtype=np.float64)
    if t.shape[-1] != x.shape[1]:
        raise InvalidArgumentError(
            "test point dimension %d does not match data dimension %d" % (t.shape[-1], x.shape[1])
        )
    inner = t @ x.T
    inner /= x.shape[1]
    rows = inner.reshape(-1, len(x))
    for i in range(0, len(rows), GAP_STRIP_ROWS):
        rows[i:i + GAP_STRIP_ROWS] = kernel.eval(rows[i:i + GAP_STRIP_ROWS])
    return inner


# ARPACK's stopping tolerance for spectral_norm_gap: the relative accuracy
# asked of the Ritz value, |beta e_k' y| <= tol |theta| (tol = 0 asks for
# machine precision). Chosen by measurement below the 1e-8 certificate, on
# the exp kernel with gh_discrete:5 data at d = 24, 48, 64 and seeds 0, 1,
# 5, 6 (one BLAS thread): the corrected solve took 31-51 matvecs at tol = 0
# and 21-41 at 1e-10, with every gap within 1.1e-15 relative of the tol = 0
# value and every eigen-residual at most 7.4e-11 relative, more than 100
# times inside the certificate. 1e-9 took the same counts; 1e-11 took up to
# one restart (10 matvecs) more.
LANCZOS_TOL = 1e-10


class _GapSolve(NamedTuple):
    """One Lanczos solve of ``_lanczos_gap``: the gap |theta|, the unit Ritz
    vector (None when no Lanczos ran: an all-zero D, or n = 1), the matvec
    count, and the certified eigen-residual |D v - theta v| with its bound."""

    gap: float
    vector: np.ndarray | None
    matvecs: int
    residual: float
    bound: float


def spectral_norm_gap(diff: np.ndarray) -> float:
    """Spectral norm of the square difference D = K - K2 (largest |eigenvalue|).

    One route for every n: Lanczos (ARPACK ``eigsh``, the one eigenpair of
    largest magnitude, stopped at ``LANCZOS_TOL``) on D, from a fixed seeded
    start vector, so the result is deterministic. D is used as it is when
    exactly symmetric, averaged with its transpose when symmetric within
    1e-10 max(1, max|D|), and rejected (InvalidArgumentError) otherwise. The
    floor of 1 absorbs the round-off that cancellation in K - K2 leaves.
    This is the one symmetry check, since the solve itself reads D's lower
    triangle alone (see ``_lanczos_gap``). The Ritz pair
    (theta, v) is certified by its eigen-residual
    |D v - theta v| <= 1e-8 max(1, |theta|). An all-zero D gives exactly
    0.0. Non-finite entries in D, an ARPACK failure or a residual above the
    bound raise NumericalFailureError.
    """
    diff = _checked_symmetric(diff, "spectral norm gap: K - K2")
    return _lanczos_gap(np.ascontiguousarray(diff)).gap


def _lanczos_gap(diff: np.ndarray, start: np.ndarray | None = None) -> _GapSolve:
    """``spectral_norm_gap`` of a C-order float64 D with its Ritz vector and
    solver statistics, warm-started from ``start`` when given.

    D is not checked for symmetry: every product with it, in the Lanczos
    iteration and in the certificate, is BLAS ``dsymv`` on its lower
    triangle and diagonal (without the GIL, see ``_lapack``), so the
    operator is the symmetric matrix that triangle defines. ``gap_matrix``
    mirrors the upper triangle it builds into the lower one, so that matrix
    is D exactly; ``spectral_norm_gap`` checks any other input. Only the
    extremes are checked here: non-finite entries raise
    NumericalFailureError, and an all-zero D or n = 1 returns max |D_ij|.

    The start vector is ``start`` normalized plus 0.1 times the normalized
    seeded vector of the cold route, so it keeps a component along every
    eigen-direction: from an exact eigenvector of a non-extreme eigenvalue
    alone, Lanczos could return that eigenvalue, whose residual passes the
    certificate.
    """
    # Imported here: scipy.sparse.linalg costs ~20 ms of import time that
    # experiments which never compute a gap should not pay.
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    # ARPACK fails on inf/NaN entries and on an all-zero D, and cannot take
    # n = 1 (where the norm is |D_11|); max |D_ij| settles all three. From
    # the extremes, NaN included, with no n x n copy.
    scale = max(abs(float(diff.max())), abs(float(diff.min())))
    if not math.isfinite(scale):
        raise NumericalFailureError("spectral norm gap: K - K2 has non-finite entries")
    if scale == 0.0 or len(diff) == 1:
        return _GapSolve(scale, None, 0, 0.0, 1e-8 * max(1.0, scale))
    v0 = np.random.default_rng(0x51B).standard_normal(len(diff))
    if start is not None:
        v0 = start / np.linalg.norm(start) + 0.1 / np.linalg.norm(v0) * v0
    matvecs = 0

    def matvec(v):
        nonlocal matvecs
        matvecs += 1
        return _lapack.symv(diff, v)

    op = LinearOperator(diff.shape, matvec=matvec, dtype=diff.dtype)
    try:
        theta, vec = eigsh(op, k=1, which="LM", v0=v0, tol=LANCZOS_TOL)
    except ArpackError as exc:  # includes ArpackNoConvergence
        raise NumericalFailureError("spectral norm gap: Lanczos failed on K - K2 (%s)" % exc) from exc
    theta, v = float(theta[0]), vec[:, 0]
    residual = float(np.linalg.norm(_lapack.symv(diff, v) - theta * v))
    bound = 1e-8 * max(1.0, abs(theta))
    if residual > bound:
        raise NumericalFailureError(
            "spectral norm gap: Lanczos residual %g exceeds %g" % (residual, bound), residual=residual
        )
    return _GapSolve(abs(theta), v, matvecs, residual, bound)
