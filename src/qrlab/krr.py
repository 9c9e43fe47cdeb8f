"""Kernel ridge regression: fits, empirical errors, asymptotic predictors.

The asymptotic side evaluates the quadratic-regime limits: the training error and the variance/bias
pair (V, B) all read one certified root, the effective regularization lambda_* (the companion fixed
point at z = -s), through J1 = int x/(x+lambda_*)^2 dnu and J2 = int x^2/(x+lambda_*)^2 dnu.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _lapack
from .datagen import (
    CovarianceSpec,
    Dataset,
    MomentMatchedSampler,
    _as_matrix,
    reduced_tensor_features,
    sigma2_diagonal,
    tensor_mean_vector,
)
from .errors import (
    AssumptionViolationError,
    AssumptionWarning,
    InvalidArgumentError,
    NumericalFailureError,
    SingularSystemError,
)
from .kernels import (
    GAP_STRIP_ROWS,
    KernelFunction,
    QuadCoeffs,
    _power_plan,
    cross_kernel,
    kernel_matrix,
    quad_coeffs,
    strip_build_bytes,
)
from .seeding import NOISE, TEACHER, TEST, substream
from .spectra import DiscreteLaw, companion_stieltjes

__all__ = [
    "TeacherModel",
    "RiskPrediction",
    "LambdaStarResult",
    "make_labels",
    "RidgeFactor",
    "RidgeSolve",
    "krr_fit",
    "training_error",
    "train_error_limit",
    "asymptotic_training_error",
    "lambda_star_solve",
    "limit_inputs",
    "risk_limit",
    "asymptotic_risk",
    "empirical_risk",
    "empirical_training_error",
    "deterministic_equivalents",
]

RISK_TEACHERS = ("pure_quadratic", "deterministic_sigma")

# Ridge solves must reach |K w + lambda w - y| <= RIDGE_RESIDUAL_RTOL |y|.
# Cholesky does unless K + lambda I is too ill-conditioned for float64 (at
# condition number 1e12 the residual is ~4e-6 |y|, with refinement or without).
RIDGE_RESIDUAL_RTOL = 1e-8
LAMBDA_STAR_TOL = 1e-12  # lambda_star_solve: root residual, relative to the largest term
# Test rows per block of empirical_risk's prediction. One BLAS thread, 2-CPU
# Xeon, 4000 test rows against n=1800 at d=60, best of 7: with blocks of
# 250, 500, 1000, 2000 and 4000 rows, power sums (quartic:1,6,1) took 46,
# 43, 46, 48 and 46 ms and held 3.6, 7.2, 14.4, 28.9 and 57.7 MB, and the
# cross-kernel route (cosh) took 43, 45, 46, 51 and 66 ms (the Horner route
# that quartic took before power sums: 68 ms at 500 rows). Under one BLAS
# thread, blocks of 500 rows or more predict bit-identically to the whole
# block on either route and 250 rows do not (4e-16 and 7e-15 relative);
# more BLAS threads split a block's rows between them, so the last digits
# can move with the thread count (a CLI run pins one thread).
RISK_BLOCK_ROWS = 500
# Block-sized float64 buffers of one power-sum prediction: the scaled
# products G (squared in place for an even f) and, for a power above the
# second, the running power. The cross-kernel route holds its block and f's
# strip temporaries instead: at most two strips of GAP_STRIP_ROWS rows.
RISK_BLOCK_TEMPS = 2


def _draw_g_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Symmetric matrix with independent N(0,1) entries on the upper triangle."""
    g = rng.standard_normal((d, d))
    upper = np.triu(g)
    return upper + np.triu(g, 1).T


@dataclass(frozen=True, eq=False)
class TeacherModel:
    """Target function f_*(x) = c0 + c1 <x, beta> + (c2/d) x' G x.

    ``beta`` is a unit vector and ``G`` a symmetric matrix. The constructor
    takes both as given; :meth:`draw` realizes the two teacher kinds of the
    risk formulas.
    """

    c0: float
    c1: float
    beta: np.ndarray
    c2: float
    G: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.G, dtype=np.float64)
        object.__setattr__(self, "G", g)
        if not np.allclose(g, g.T, atol=1e-12 * max(1.0, float(np.abs(g).max()))):
            raise InvalidArgumentError("G must be symmetric")
        beta = np.asarray(self.beta, dtype=np.float64)
        object.__setattr__(self, "beta", beta)
        if abs(float(np.linalg.norm(beta)) - 1.0) > 1e-12:
            raise InvalidArgumentError("beta must be a unit vector")

    @staticmethod
    def draw(
        kind: str,
        cov: CovarianceSpec,
        rng: np.random.Generator,
        c0: float = 0.0,
        c1: float = 0.0,
        c2: float = 1.0,
    ) -> "TeacherModel":
        """Realize a teacher of the given kind: ``pure_quadratic`` draws a
        random symmetric G from ``rng``, ``deterministic_sigma`` fixes
        G = Sigma. Both take offset ``c0`` and a linear term ``c1`` along the
        deterministic unit direction 1/sqrt(d).
        """
        if kind == "deterministic_sigma":
            g = np.diag(cov.diag)
        elif kind == "pure_quadratic":
            g = _draw_g_matrix(cov.d, rng)
        else:
            raise InvalidArgumentError("unknown teacher kind %r" % kind)
        beta = np.full(cov.d, 1.0 / math.sqrt(cov.d))
        return TeacherModel(float(c0), float(c1), beta, float(c2), g)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        d = x.shape[-1]
        out = np.full(x.shape[0], self.c0) if x.ndim == 2 else self.c0
        if self.c1 != 0.0:
            out = out + self.c1 * (x @ self.beta)
        quad = np.einsum("ij,ij->i", x @ self.G, x) if x.ndim == 2 else float(x @ self.G @ x)
        return out + self.c2 / d * quad


def make_labels(
    dataset: Dataset,
    teacher: TeacherModel,
    sigma_eps: float,
    seed: int,
    replicate: int = 0,
) -> np.ndarray:
    """Noisy labels y_i = f_*(x_i) + eps_i with iid N(0, sigma_eps^2) noise."""
    if sigma_eps < 0:
        raise InvalidArgumentError("sigma_eps must be nonnegative")
    y = teacher.predict(dataset.X)
    if sigma_eps > 0:
        y = y + sigma_eps * substream(seed, NOISE, replicate).standard_normal(dataset.n)
    return y


class RidgeSolve(NamedTuple):
    """Weights of one ``RidgeFactor.solve`` and its largest residual relative
    to the bound the solve checked it against (at most 1)."""

    weights: np.ndarray
    residual_ratio: float


class RidgeFactor:
    """Cholesky factorization of K + lambda I, reusable across label vectors.

    Factored in place: the factor takes the storage of K, which must be
    symmetric, and no second n x n array is made. Read column-major, a
    C-order K is itself; LAPACK ``dpotrf`` writes the factor over its upper
    triangle and diagonal (the lower triangle of the F-order view ``K.T``)
    and leaves the strict lower triangle as it was. Each solve checks its
    residual against K from that untouched triangle and K's diagonal, kept
    as an n-vector, so a K whose two triangles differ beyond rounding fails
    the check. A K that is not a writable C-contiguous float64 array is
    factored on a copy; pass a copy to keep K. On failure K's lower triangle
    and diagonal are as given.

    Factored, solved and checked by LAPACK ``dpotrf``/``dpotrs`` and BLAS
    ``dsymv`` without the GIL (see ``_lapack``), so seed workers fit their
    ridge systems side by side. A solve writes nothing but its weights, so
    one factor can be solved from several threads at once.
    """

    def __init__(self, k_mat: np.ndarray, lam: float):
        if lam < 0:
            raise InvalidArgumentError("lambda must be nonnegative")
        k = np.require(k_mat, np.float64, ["C", "W"])
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise InvalidArgumentError("K must be a square matrix, got shape %s" % (k.shape,))
        self._lam = float(lam)
        self._k = k
        self._diag = k.diagonal().copy()
        self._set_diagonal(self._diag + self._lam)
        # The unchecked Cholesky below would factor inf/NaN silently. Checked
        # from the extremes (NaN and +-inf reach max or min), with no n x n mask.
        if not math.isfinite(max(abs(float(k.max())), abs(float(k.min())))):
            self._set_diagonal(self._diag)
            raise NumericalFailureError("ridge factorization: K + lambda I has non-finite entries")
        if _lapack.potrf(k.T):
            # K's lower triangle is untouched and its diagonal is back: all
            # that eigvalsh (UPLO L) reads of K + lambda I.
            self._set_diagonal(self._diag)
            lam_min = float(np.linalg.eigvalsh(k + self._lam * np.eye(len(k)))[0])
            raise SingularSystemError(
                "K + lambda I is not positive definite (lambda_min about %g)" % lam_min,
                lambda_min=lam_min,
            )

    def _set_diagonal(self, values: np.ndarray) -> None:
        self._k.flat[:: len(self._k) + 1] = values

    def solve(self, y: np.ndarray) -> RidgeSolve:
        """Weights (K + lambda I)^{-1} y for a label n-vector y, or for each
        column of an n x r label block at once: one pair of triangular solves
        for the whole block and one residual product K w per column. Each
        column must meet its own residual bound (NumericalFailureError
        otherwise); the largest residual over its bound is returned with the
        weights."""
        # The copy that dpotrs overwrites with the weights.
        w = np.array(y, dtype=np.float64, order="F")
        _lapack.potrs(self._k.T, w)
        # (K + lambda I) w - y, column by column. symv reads K's untouched
        # strict lower triangle and the factor's diagonal, so the difference
        # of K + lambda I's diagonal from the factor's is added on.
        columns = w.reshape(len(w), -1, order="F")
        residual = np.empty(columns.shape)
        for j, column in enumerate(columns.T):
            residual[:, j] = _lapack.symv(self._k, column)
        residual += (self._diag + self._lam - self._k.diagonal())[:, None] * columns
        labels = np.reshape(y, columns.shape)
        residual -= labels
        residual = np.linalg.norm(residual, axis=0)
        bound = RIDGE_RESIDUAL_RTOL * np.maximum(np.linalg.norm(labels, axis=0), 1e-300)
        # Negated so that a NaN residual (non-finite labels) fails too.
        failed = np.flatnonzero(~(residual <= bound))
        if failed.size:
            j = failed[0]
            where = " in label column %d" % j if np.ndim(y) == 2 else ""
            raise NumericalFailureError(
                "ridge solve residual %g exceeds %g%s" % (residual[j], bound[j], where), residual=float(residual[j])
            )
        return RidgeSolve(w, float((residual / bound).max()))


def krr_fit(k_mat: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Representer weights (K + lambda I)^{-1} y. Factored on a copy of K, so
    the caller's K is left as it was."""
    factor = RidgeFactor(np.array(k_mat, dtype=np.float64, order="C"), lam)
    return factor.solve(np.asarray(y, dtype=np.float64)).weights


def training_error(k_mat: np.ndarray, y: np.ndarray, lam: float) -> float:
    """Mean squared training residual of the ridge fit, (lambda^2/n) |w|^2 =
    (lambda^2/n) y'(K+lambda I)^{-2} y for the weights w of ``krr_fit``,
    which leaves the caller's K as it was."""
    w = krr_fit(k_mat, y, lam)
    return float(lam**2 / w.size * (w @ w))


def _check_risk_kernel(kernel: KernelFunction) -> None:
    issues = kernel.assumption_check()
    if issues:
        raise AssumptionViolationError(
            "kernel %s violates the generalization assumptions: %s (even kernels with f''(0) > 0 pass, "
            "such as quartic:b0,b2,b4 with b2 > 0, or cosh)" % (kernel.name, "; ".join(issues)),
            detail={"issues": issues},
        )
    if not kernel.bounded_high_derivs:
        warnings.warn(
            "kernel %s has unbounded high-order derivatives; desk-scale inner products stay "
            "in a compact set, so the asymptotic formulas are still evaluated" % kernel.name,
            AssumptionWarning,
            stacklevel=3,
        )


def _limit_shift(alpha: float, a_star: float, lam: float, second_deriv: float) -> float:
    """The shift s = 4 alpha (a_star + lambda) / f''(0) of the limit formulas, which
    hold for f''(0) > 0 and a_star + lambda > 0 only (AssumptionViolationError)."""
    if second_deriv <= 0:
        raise AssumptionViolationError("f''(0) must be positive")
    if a_star + lam <= 0:
        raise AssumptionViolationError("a_star + lambda must be positive")
    return 4.0 * alpha * (a_star + lam) / second_deriv


def _limit_sums(alpha: float, nu: DiscreteLaw, a_star: float, lam: float, second_deriv: float):
    """The certified root t = lambda_* of ``lambda_star_solve`` with J1 = int x/(x+t)^2 dnu, J2 = int x^2/(x+t)^2 dnu
    and the limits' denominator 1 - alpha J2, which must exceed 1e-8 (AssumptionViolationError otherwise)."""
    ls = lambda_star_solve(alpha, nu, a_star, lam, second_deriv)
    x, w, t = nu.atoms, nu.weights, ls.value
    j1 = float(np.sum(w * x / (x + t) ** 2))
    j2 = float(np.sum(w * x**2 / (x + t) ** 2))
    denom = 1.0 - alpha * j2
    if denom <= 1e-8:
        raise AssumptionViolationError("limit denominator 1 - alpha J2 = %g is not above 1e-8" % denom,
                                       detail={"alpha_j2": alpha * j2})
    return ls, j1, j2, denom


def _finite(name: str, value: float) -> float:
    """A limit value; inf or NaN (an overflow) raises NumericalFailureError."""
    if not math.isfinite(value):
        raise NumericalFailureError("%s is non-finite" % name)
    return value


def train_error_limit(
    alpha: float,
    nu: DiscreteLaw,
    a_star: float,
    second_deriv: float,
    lam: float,
    c2: float,
    sigma_eps: float,
) -> float:
    """Limiting training error lambda^2 int (c2^2 x / alpha + sigma^2) / (f''(0) x / (4 alpha) + a_star + lambda)^2
    dmu(x) over the deformed MP law mu, read off the certified root lambda_* as the sum of positive terms
    (4 alpha lambda / f''(0))^2 (c2^2 J1 + sigma^2 / lambda_*^2) / (1 - alpha J2). It holds for f''(0) > 0 and
    a_star + lambda > 0; anything else raises AssumptionViolationError, even at lambda = 0, where it is 0."""
    if lam == 0:
        _limit_shift(alpha, a_star, lam, second_deriv)
        return 0.0
    ls, j1, _, denom = _limit_sums(alpha, nu, a_star, lam, second_deriv)
    # Squares are products: a float's ** raises OverflowError where a product goes to inf.
    scale = 4.0 * alpha * lam / second_deriv
    ratio = scale / ls.value
    signal = c2 * c2 * (scale * scale * j1)
    return _finite("training error limit", (signal + sigma_eps * sigma_eps * (ratio * ratio)) / denom)


def asymptotic_training_error(
    kernel: KernelFunction,
    cov: CovarianceSpec,
    alpha: float,
    lam: float,
    c2: float,
    sigma_eps: float,
) -> float:
    a_star, nu = limit_inputs(kernel, cov)
    return train_error_limit(alpha, nu, a_star, kernel.derivs0[2], lam, c2, sigma_eps)


@dataclass(frozen=True)
class LambdaStarResult:
    """The root, its residual, the companion solve's iterations, and whether the Newton step was kept."""

    value: float
    residual: float
    iterations: int
    newton_kept: bool


def lambda_star_solve(
    alpha: float,
    nu: DiscreteLaw,
    a_star: float,
    lam: float,
    second_deriv: float,
) -> LambdaStarResult:
    """Unique positive root of the self-consistent equation

        1/alpha - s/(alpha t) = integral x/(x+t) dnu(x),  s = 4 alpha (a_star + lambda)/f''(0).

    Times alpha t it is the companion fixed point at z = -s, so the root is t = 1/mt(-s). One Newton step on
    the equation, whose left side minus right side increases in t, polishes that root; the step is kept only
    when t stays positive and the residual shrinks. The residual must then be at most ``LAMBDA_STAR_TOL`` times
    the equation's largest term, 1/alpha or s/(alpha t) (NumericalFailureError otherwise). The equation holds
    for f''(0) > 0 and a_star + lambda > 0; anything else raises AssumptionViolationError.
    The certificate bounds the residual, not the root: near the hard edge (alpha = 1, a_star + lambda -> 0) the
    terms are O(1) at a root t << 1, so rounding moves t by about eps/t relative, and the limits' 1/(1 - alpha J2)
    ~ 1/t carries that over (the training error is 2.3e-9 relative off at nu = delta_2, lambda = 1e-15, t ~ 9e-8).
    """
    s = _limit_shift(alpha, a_star, lam, second_deriv)
    x, w = nu.atoms, nu.weights

    def equation(t: float) -> float:
        return 1.0 / alpha - s / (alpha * t) - float(np.sum(w * x / (x + t)))

    try:
        companion = companion_stieltjes(-s, alpha, nu)
        t = 1.0 / float(companion.m_tilde.real)
        residual = equation(t)
        step = t - residual / (s / (alpha * t * t) + float(np.sum(w * x / (x + t) ** 2)))
        step_residual = equation(step) if step > 0 else math.inf
        kept = abs(step_residual) < abs(residual)
        if kept:
            t, residual = step, step_residual
        residual = abs(residual)
        tol_eff = LAMBDA_STAR_TOL * max(1.0 / alpha, s / (alpha * t))
    except (OverflowError, ZeroDivisionError) as exc:  # e.g. alpha * t * t underflows to 0
        raise NumericalFailureError("effective regularization root left the float range (%s)" % exc) from exc
    # Negated so that a NaN residual fails too.
    if not residual <= tol_eff:
        raise NumericalFailureError("effective regularization root residual %g" % residual, residual=residual)
    return LambdaStarResult(value=float(t), residual=residual, iterations=companion.iterations, newton_kept=kept)


def limit_inputs(
    kernel: KernelFunction,
    cov: CovarianceSpec,
    a_star_override: float | None = None,
    asymptotic_nu: bool = False,
) -> tuple[float, DiscreteLaw]:
    """The diagonal offset a_star and the population law nu of the limit formulas.

    ``a_star_override`` substitutes the diagonal offset. ``asymptotic_nu``
    swaps the finite-size atom law of the tensor covariance for its large-d
    limit (identity covariance: a single atom at 2).
    """
    a_star = quad_coeffs(kernel, cov).a_star if a_star_override is None else float(a_star_override)
    if not asymptotic_nu:
        return a_star, sigma2_diagonal(cov).compressed()
    # Large-d limit: diagonal tensor coordinates carry vanishing weight,
    # leaving the law of 2 * sigma * sigma' for independent sigma, sigma'.
    if cov.kind == "identity":
        return a_star, DiscreteLaw.delta(2.0)
    values = 2.0 * np.outer(cov.diag, cov.diag).ravel()
    return a_star, DiscreteLaw.from_values(values).compressed()


@dataclass(frozen=True)
class RiskPrediction:
    """Asymptotic risk bundle: total = sigma_eps^2 V (+ B for random teachers),
    with the lambda_* solve it was evaluated at."""

    solution: LambdaStarResult
    V: float
    B: float
    total: float


def risk_limit(
    alpha: float,
    nu: DiscreteLaw,
    a_star: float,
    second_deriv: float,
    lam: float,
    sigma_eps: float,
    teacher_kind: str,
) -> RiskPrediction:
    """Variance/bias limits:

        V = alpha J2 / (1 - alpha J2),
        B = (lambda_*/(a_star + lambda))^2 J1 / (1 - alpha J2),

    with J1 = int x/(x+lambda_*)^2 dnu and J2 = int x^2/(x+lambda_*)^2 dnu.
    The bias enters only for the random quadratic teacher; the deterministic
    teacher's B is 0.0 and is not formed. A non-finite B, sigma_eps^2 V or
    total raises NumericalFailureError.
    """
    if teacher_kind not in RISK_TEACHERS:
        raise InvalidArgumentError("teacher_kind must be one of %r" % (RISK_TEACHERS,))
    ls, j1, j2, denom = _limit_sums(alpha, nu, a_star, lam, second_deriv)
    v = alpha * j2 / denom
    b = 0.0
    if teacher_kind != "deterministic_sigma":
        ratio = ls.value / (a_star + lam)
        b = _finite("bias B", ratio * ratio * j1 / denom)
    return RiskPrediction(solution=ls, V=v, B=b, total=_finite("risk total", sigma_eps * sigma_eps * v + b))


def asymptotic_risk(
    kernel: KernelFunction,
    cov: CovarianceSpec,
    alpha: float,
    lam: float,
    sigma_eps: float,
    teacher_kind: str,
) -> RiskPrediction:
    _check_risk_kernel(kernel)
    a_star, nu = limit_inputs(kernel, cov)
    if a_star <= 0:
        raise AssumptionViolationError("a_star = %g must be positive for the risk formulas" % a_star)
    return risk_limit(alpha, nu, a_star, kernel.derivs0[2], lam, sigma_eps, teacher_kind)


def _fit_replicates(dataset: Dataset, kernel: KernelFunction, teacher_kind: str, lam: float, sigma_eps: float,
                    seed: int, n_repl: int, c0=0.0, c1=0.0, c2=1.0) -> tuple[list[TeacherModel], np.ndarray, float]:
    """One seed's ridge fit for replicates r < n_repl: replicate r's teacher
    and labels, each from its own substreams, solved as one block on K, which
    is built, factored in place and freed here. Returns the teachers, the
    n x n_repl weights and the solve's largest residual over its bound."""
    if teacher_kind not in RISK_TEACHERS:
        raise InvalidArgumentError("teacher_kind must be one of %r" % (RISK_TEACHERS,))
    factor = RidgeFactor(kernel_matrix(dataset, kernel), lam)
    teachers = [TeacherModel.draw(teacher_kind, dataset.covariance, substream(seed, TEACHER, r), c0, c1, c2)
                for r in range(n_repl)]
    labels = np.stack([make_labels(dataset, t, sigma_eps, seed, replicate=r) for r, t in enumerate(teachers)], axis=1)
    return teachers, *factor.solve(labels)


def empirical_training_error(dataset: Dataset, kernel: KernelFunction, teacher_kind: str, lam: float,
                             sigma_eps: float, seed: int, c0=0.0, c1=0.0, c2=1.0) -> tuple[float, float]:
    """Training error (lambda^2/n) |w|^2 of one seed's ridge fit and the solve's largest residual
    over its bound. The fit is replicate 0 of ``empirical_risk``'s, with the teacher's offset ``c0``,
    linear term ``c1`` and quadratic scale ``c2``; it factors K in place (``training_error`` copies K)."""
    _, weights, ratio = _fit_replicates(dataset, kernel, teacher_kind, lam, sigma_eps, seed, 1, c0, c1, c2)
    return float(lam**2 / dataset.n * (weights[:, 0] @ weights[:, 0])), ratio


def empirical_risk(
    dataset: Dataset,
    kernel: KernelFunction,
    teacher_kind: str,
    lam: float,
    sigma_eps: float,
    n_test: int,
    n_repl: int,
    seed: int,
) -> tuple[float, float, float]:
    """Monte Carlo generalization error, conditioned on the training inputs:
    (mean, standard error, the ridge solve's largest residual over its bound).

    Each of the ``n_repl`` replicates redraws the teacher randomness (for
    the random quadratic teacher), the label noise, and a fresh batch of
    ``n_test`` Gaussian test points; the replicate means are averaged and
    their spread gives the standard error. Every replicate draws from its
    own substreams, so all label vectors are drawn first and fitted by one
    block solve, which frees K before the first prediction. The test points
    are predicted in blocks of ``RISK_BLOCK_ROWS`` rows (see ``_predict``),
    so the cross kernel against the training set is never held whole.
    """
    if n_repl < 1 or n_test < 1:
        raise InvalidArgumentError("need n_repl >= 1 and n_test >= 1")
    teachers, weights, ridge_ratio = _fit_replicates(dataset, kernel, teacher_kind, lam, sigma_eps, seed, n_repl)
    sampler, cov = MomentMatchedSampler.gaussian(), dataset.covariance
    scale = np.sqrt(cov.diag)[None, :]
    means = []
    for r, teacher in enumerate(teachers):
        x_test = sampler.sample(substream(seed, TEST, r), (n_test, cov.d)) * scale
        predictions = _predict(dataset, x_test, kernel, np.ascontiguousarray(weights[:, r]))
        truth = teacher.predict(x_test)
        means.append(float(np.mean((predictions - truth) ** 2)))
    mean = float(np.mean(means))
    stderr = float(np.std(means, ddof=1) / math.sqrt(n_repl)) if n_repl > 1 else 0.0
    return mean, stderr, ridge_ratio


def _predict(dataset: Dataset, x_test: np.ndarray, kernel: KernelFunction, w: np.ndarray) -> np.ndarray:
    """cross_kernel(dataset, x_test, kernel) @ w, formed RISK_BLOCK_ROWS test
    rows at a time.

    A kernel without ``poly`` takes exactly that route. A polynomial
    f(t) = sum_k c_k t^k goes by power sums instead, on the plan that
    ``kernels._power_plan`` also evaluates f by: each block's scaled
    products G = x_blk X'/d (cross_kernel's own) are formed into a block
    buffer and the block's predictions are c_0 sum(w) + sum_k
    c_k (G^{ok} @ w), with the entrywise powers taken in place (an even f
    squares G once and runs over powers of G o G), so f(G/d) is never
    formed. The block buffers are allocated once per call: G alone up to
    the base's second power, which is squared in place, and G with the
    running power above it.
    """
    x = _as_matrix(dataset)
    out = np.empty(len(x_test))
    if kernel.poly is None:
        for i in range(0, len(x_test), RISK_BLOCK_ROWS):
            out[i:i + RISK_BLOCK_ROWS] = cross_kernel(x, x_test[i:i + RISK_BLOCK_ROWS], kernel) @ w
        return out
    square, coeffs = _power_plan(kernel.poly)
    out[:] = coeffs[0] * w.sum()
    if len(coeffs) == 1:
        return out
    blocks = np.empty((1 if len(coeffs) <= 3 else 2, min(len(x_test), RISK_BLOCK_ROWS), len(x)))
    for i in range(0, len(x_test), RISK_BLOCK_ROWS):
        rows = x_test[i:i + RISK_BLOCK_ROWS]
        acc = out[i:i + RISK_BLOCK_ROWS]
        base = np.matmul(rows, x.T, out=blocks[0, : len(rows)])
        base /= x.shape[1]
        if square:
            np.multiply(base, base, out=base)
        # A top power of 2 squares the base in place; above that the base
        # stays and its running power goes to the second buffer.
        power = base
        for k, c in enumerate(coeffs[1:], start=1):
            if k == 2 and len(coeffs) > 3:
                power = np.multiply(base, base, out=blocks[1, : len(rows)])
            elif k >= 2:
                power *= base
            if c != 0.0:
                acc += c * (power @ w)
    return out


def empirical_risk_bytes(n: int, d: int, n_test: int, n_repl: int) -> int:
    """Bytes that ``empirical_risk`` holds at its peak for n training points
    in d dimensions, ``n_test`` test points and ``n_repl`` replicates: the
    largest of the strip build of K, the fit (the data, K factored in place
    with two n-vectors of diagonals, and four n x n_repl arrays for the
    labels, the weights, the residual and its diagonal update) and
    the predictions (the data, the weights and a prediction's block
    buffers, for either route; K is freed by then), plus, for the test
    points, three arrays of their size and six n_test-vectors (a replicate
    draws its points while the last replicate's are held)."""
    rows = min(n_test, RISK_BLOCK_ROWS)
    block = max(RISK_BLOCK_TEMPS * rows, rows + 2 * min(rows, GAP_STRIP_ROWS)) * n
    fit = 8 * (n * d + max(n * n + 2 * n + 4 * n * n_repl, n * n_repl + block))
    return max(strip_build_bytes(n, d), fit) + 8 * 3 * n_test * (d + 2)


def deterministic_equivalents(
    dataset: Dataset,
    kernel: KernelFunction,
    alpha: float,
    lam: float,
) -> dict[str, tuple[float, float]]:
    """Resolvent-trace functionals of the centered tensor sample covariance
    against their deterministic limits.

    With M = a2 Xbar' Xbar + (a + lambda) I and S2 the tensor covariance
    diagonal, returns (empirical, predicted) for
      first:  a2 Tr(M^{-1} S2)            -> f''(0) lambda_* / (4 alpha (a_star+lambda)) - 1
      second: a2 (a+lambda) Tr(M^{-2} S2) -> same minus 1/(1 - alpha J2) = 1 + V
      bias:   (2/d^2) Tr(M^{-2} S2)       -> B(lambda_*)
    """
    cov = dataset.covariance
    coeffs: QuadCoeffs = quad_coeffs(kernel, cov)
    second_deriv = kernel.derivs0[2]
    nu = sigma2_diagonal(cov)
    x2 = reduced_tensor_features(dataset, allow_large=True)
    x2_bar = x2 - tensor_mean_vector(cov)[None, :]
    p = x2.shape[1]
    # Fortran order, which dpotrf factors in place.
    m_mat = np.asfortranarray(coeffs.a2 * (x2_bar.T @ x2_bar) + (coeffs.a_star + lam) * np.eye(p))
    if _lapack.potrf(m_mat):
        raise SingularSystemError("tensor resolvent is not positive definite")
    inv = np.eye(p, order="F")
    _lapack.potrs(m_mat, inv)
    first = float(np.sum(np.diag(inv) * nu.atoms))  # Tr(M^{-1} S2)
    second = float(np.sum((inv * inv).sum(axis=0) * nu.atoms))  # Tr(M^{-2} S2)

    pred = risk_limit(alpha, nu.compressed(), coeffs.a_star, second_deriv, lam, 0.0, "pure_quadratic")
    head = pred.solution.value / _limit_shift(alpha, coeffs.a_star, lam, second_deriv)
    return {
        "first": (coeffs.a2 * first, head - 1.0),
        "second": (coeffs.a2 * (coeffs.a_star + lam) * second, head - (1.0 + pred.V)),
        "bias": (2.0 / cov.d**2 * second, pred.B),
    }
