"""Inner-product kernels, the quadratic surrogate, and spectral gap tools.

The kernel matrix is K_ij = f(<x_i, x_j>/d). Its quadratic surrogate is

    K2 = a0 11' + a1 XX' + a2 (XX')^{o2} + a I

with coefficients that carry trace corrections beyond the plain Taylor
expansion of f at zero; the corrections are what make the spectral-norm
approximation work in the n ~ d^2 regime.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass
from typing import Callable

import numpy as np

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
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    derivs0: tuple[float, float, float, float, float]
    bounded_high_derivs: bool = True

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
        coeffs = (b0, b2 / 2.0, b4 / 24.0)

        def fn(t):
            return _horner(t * t, coeffs)

        name = "quartic:%g,%g,%g" % (b0, b2, b4)
        return KernelFunction(name, fn, (float(b0), 0.0, float(b2), 0.0, float(b4)))

    @staticmethod
    def custom_poly(coeffs) -> "KernelFunction":
        """Polynomial sum_k c_k t^k from low to high degree."""
        c = [float(v) for v in coeffs]
        if not c:
            raise InvalidArgumentError("custom_poly needs at least one coefficient")

        def fn(t):
            return _horner(t, c)

        derivs = tuple(math.factorial(k) * c[k] if k < len(c) else 0.0 for k in range(5))
        return KernelFunction("custom_poly:" + ",".join("%g" % v for v in c), fn, derivs)

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
    """K_ij = f(<x_i, x_j>/d), symmetric, K_ii = f(|x_i|^2/d)."""
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
    n, _ = x.shape
    gram = x @ x.T
    out = gram * gram
    out *= coeffs.a2
    gram *= coeffs.a1
    gram += coeffs.a0
    out += gram
    out[np.diag_indices(n)] += coeffs.a_star
    return out


def cross_kernel(data, x_test, kernel: KernelFunction) -> np.ndarray:
    """Kernel values f(<x_test, x_i>/d) against every training row.

    ``x_test`` may be a single d-vector (returns an n-vector) or an m x d
    matrix (returns m x n).
    """
    x = _as_matrix(data)
    t = np.asarray(x_test, dtype=np.float64)
    if t.shape[-1] != x.shape[1]:
        raise InvalidArgumentError(
            "test point dimension %d does not match data dimension %d" % (t.shape[-1], x.shape[1])
        )
    inner = t @ x.T
    inner /= x.shape[1]
    return kernel.eval(inner)


def spectral_norm_gap(k_mat: np.ndarray, k2_mat: np.ndarray) -> float:
    """Spectral norm of K - K2 (largest absolute eigenvalue).

    One route for every n: Lanczos (ARPACK ``eigsh``, the one eigenpair of
    largest magnitude) on the difference D, from a fixed seeded start vector,
    so the result is deterministic. D is used as it is when exactly
    symmetric, averaged with its transpose when symmetric within 1e-10
    relative to its largest entry, and rejected (InvalidArgumentError)
    otherwise. The Ritz pair (theta, v) is certified by its eigen-residual
    |D v - theta v| <= 1e-8 max(1, |theta|). An all-zero D gives exactly 0.0.
    Non-finite entries in D, an ARPACK failure or a residual above the bound
    raise NumericalFailureError.
    """
    # Imported here: scipy.sparse.linalg costs ~20 ms of import time that
    # experiments which never compute a gap should not pay.
    from scipy.sparse.linalg import ArpackError, eigsh

    k_mat = np.asarray(k_mat, dtype=np.float64)
    k2_mat = np.asarray(k2_mat, dtype=np.float64)
    if k_mat.shape != k2_mat.shape or k_mat.ndim != 2 or k_mat.shape[0] != k_mat.shape[1]:
        raise InvalidArgumentError("K and K2 must be square matrices of the same shape")
    # ARPACK fails on inf/NaN entries and on an all-zero D, and cannot take
    # n = 1 (where the norm is |D_11|); max |D_ij| settles all three.
    diff, scale = _checked_symmetric(k_mat - k2_mat, "spectral norm gap: K - K2")
    if scale == 0.0 or len(diff) == 1:
        return scale
    v0 = np.random.default_rng(0x51B).standard_normal(len(diff))
    try:
        theta, vec = eigsh(diff, k=1, which="LM", v0=v0)
    except ArpackError as exc:  # includes ArpackNoConvergence
        raise NumericalFailureError("spectral norm gap: Lanczos failed on K - K2 (%s)" % exc) from exc
    theta, v = float(theta[0]), vec[:, 0]
    residual = float(np.linalg.norm(diff @ v - theta * v))
    bound = 1e-8 * max(1.0, abs(theta))
    if residual > bound:
        raise NumericalFailureError(
            "spectral norm gap: Lanczos residual %g exceeds %g" % (residual, bound), residual=residual
        )
    return abs(theta)
