"""Slow, independent reference implementations used as test oracles.

Everything here is deliberately naive: exhaustive pairing enumeration,
plain recurrences, Monte Carlo companions, and second routes to main-path
results (the surrogate from tensor features, the training error from the
fit residual, the population-side Stieltjes transform). Main-path modules
never import this one; it exists to validate them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datagen import _as_matrix, reduced_tensor_features
from .errors import CapacityError, InvalidArgumentError, NumericalFailureError
from .kernels import QuadCoeffs
from .spectra import DiscreteLaw, _check_point

__all__ = [
    "hermite",
    "hermite_gram",
    "wick_matching_count",
    "PairingSum",
    "wick_pairing_sum",
    "wick_moment",
    "gaussian_quadform_moments",
    "gaussian_quadform_moments_printed",
    "quadform_cross_moment",
    "quadform_moment_mc",
    "random_projector",
    "quadform_concentration_stat",
    "quad_kernel_matrix_tensor",
    "training_error_residual",
    "population_stieltjes",
    "oracle_check",
]


def hermite(r: int, x):
    """Normalized (orthonormal under the standard Gaussian) Hermite value.

    Three-term recurrence h_{r+1} = (x h_r - sqrt(r) h_{r-1}) / sqrt(r+1),
    stable for the supported orders.
    """
    if not 0 <= r <= 20:
        raise InvalidArgumentError("order must be in [0, 20]")
    xv = np.asarray(x, dtype=np.float64)
    h_prev = np.ones_like(xv)
    if r == 0:
        return float(h_prev) if np.isscalar(x) else h_prev
    h = xv.copy()
    for k in range(1, r):
        h, h_prev = (xv * h - math.sqrt(k) * h_prev) / math.sqrt(k + 1), h
    return float(h) if np.isscalar(x) else h


def _gauss_hermite_standard(m: int) -> tuple[np.ndarray, np.ndarray]:
    # Probabilists' rule for N(0,1): independent of the datagen module.
    nodes, weights = np.polynomial.hermite_e.hermegauss(m)
    return nodes, weights / weights.sum()


def hermite_gram(jmax: int) -> np.ndarray:
    """Gram matrix <h_j, h_k> under the Gaussian weight, j,k <= jmax.

    Quadrature with jmax+1 nodes integrates the degree <= 2*jmax products
    exactly, so the result should be the identity to round-off.
    """
    if not 0 <= jmax <= 12:
        raise InvalidArgumentError("jmax must be in [0, 12]")
    x, w = _gauss_hermite_standard(jmax + 1)
    vals = np.stack([hermite(j, x) for j in range(jmax + 1)])
    return vals @ (vals * w).T


def wick_matching_count(t: int) -> int:
    """Number of perfect pairings of t items: (t-1)!! for even t, else 0."""
    if t < 0:
        raise InvalidArgumentError("t must be nonnegative")
    if t % 2 == 1:
        return 0
    out = 1
    for k in range(t - 1, 0, -2):
        out *= k
    return out


def _pairings(items: tuple[int, ...]):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for i, second in enumerate(rest):
        pair = (first, second)
        remaining = rest[:i] + rest[i + 1 :]
        for tail in _pairings(remaining):
            yield (pair,) + tail


@dataclass(frozen=True)
class PairingSum:
    """Wick expansion bookkeeping: one product term per perfect pairing."""

    a: int
    b: int
    terms: tuple[float, ...]
    value: float


def wick_pairing_sum(a: int, b: int, sigma_diag: np.ndarray, xi: np.ndarray, xk: np.ndarray) -> PairingSum:
    """E[<x, xi>^a <x, xk>^b] for x = Sigma^(1/2) z by exhaustive pairing.

    Slots 0..a-1 carry label i, slots a..a+b-1 carry label k; a pairing
    contributes the product of xi' Sigma xi / xi' Sigma xk / xk' Sigma xk
    over its pairs. Enumeration is capped at a+b = 12.
    """
    if a < 0 or b < 0:
        raise InvalidArgumentError("a and b must be nonnegative")
    if a + b > 12:
        raise CapacityError("pairing enumeration capped at a+b=12, got %d" % (a + b))
    if (a + b) % 2 == 1:
        return PairingSum(a, b, (), 0.0)
    sig = np.asarray(sigma_diag, dtype=np.float64).ravel()
    xi = np.asarray(xi, dtype=np.float64).ravel()
    xk = np.asarray(xk, dtype=np.float64).ravel()
    s_ii = float(np.sum(sig * xi * xi))
    s_ik = float(np.sum(sig * xi * xk))
    s_kk = float(np.sum(sig * xk * xk))
    lookup = {(0, 0): s_ii, (0, 1): s_ik, (1, 0): s_ik, (1, 1): s_kk}
    labels = (0,) * a + (1,) * b
    terms = []
    for pairing in _pairings(tuple(range(a + b))):
        prod = 1.0
        for l, j in pairing:
            prod *= lookup[(labels[l], labels[j])]
        terms.append(prod)
    return PairingSum(a, b, tuple(terms), float(math.fsum(terms)))


def wick_moment(a: int, b: int, sigma_diag: np.ndarray, xi: np.ndarray, xk: np.ndarray) -> float:
    return wick_pairing_sum(a, b, sigma_diag, xi, xk).value


def _traces(a: np.ndarray, upto: int) -> list[float]:
    t = [float("nan")]
    power = np.eye(a.shape[0])
    for _ in range(upto):
        power = power @ a
        t.append(float(np.trace(power)))
    return t


def gaussian_quadform_moments(a_mat: np.ndarray, s: int) -> float:
    """E[(g' A g)^s] for standard Gaussian g, symmetric A, s in {2,3,4}.

    Uses the cumulant expansion with kappa_r = 2^(r-1) (r-1)! Tr A^r.
    """
    a_mat = np.asarray(a_mat, dtype=np.float64)
    if a_mat.ndim != 2 or a_mat.shape[0] != a_mat.shape[1]:
        raise InvalidArgumentError("A must be square")
    if not np.allclose(a_mat, a_mat.T, atol=1e-12 * max(1.0, float(np.abs(a_mat).max()))):
        raise InvalidArgumentError("A must be symmetric")
    if s not in (2, 3, 4):
        raise InvalidArgumentError("s must be 2, 3, or 4")
    t = _traces(a_mat, 4)
    if s == 2:
        return t[1] ** 2 + 2.0 * t[2]
    if s == 3:
        return t[1] ** 3 + 6.0 * t[1] * t[2] + 8.0 * t[3]
    return t[1] ** 4 + 32.0 * t[1] * t[3] + 12.0 * t[2] ** 2 + 12.0 * t[1] ** 2 * t[2] + 48.0 * t[4]


def gaussian_quadform_moments_printed(a_mat: np.ndarray, s: int) -> float:
    """Third-moment variant with the 6 Tr A (Tr A^2)^2 cross term.

    This printed form of the cubic moment is dimensionally inconsistent
    with the cumulant expansion; it is kept so the Monte Carlo companion
    can arbitrate between it and :func:`gaussian_quadform_moments`.
    Orders 2 and 4 coincide with the standard form.
    """
    if s != 3:
        return gaussian_quadform_moments(a_mat, s)
    a_mat = np.asarray(a_mat, dtype=np.float64)
    t = _traces(a_mat, 3)
    return t[1] ** 3 + 6.0 * t[1] * t[2] ** 2 + 8.0 * t[3]


def quadform_cross_moment(a_mat: np.ndarray, b_mat: np.ndarray) -> float:
    """E[(g' A g)(g' B g)] = Tr A Tr B + 2 Tr(AB) for symmetric A, B."""
    a_mat = np.asarray(a_mat, dtype=np.float64)
    b_mat = np.asarray(b_mat, dtype=np.float64)
    return float(np.trace(a_mat) * np.trace(b_mat) + 2.0 * np.trace(a_mat @ b_mat))


def quadform_moment_mc(
    a_mat: np.ndarray,
    s: int,
    draws: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo (mean, stderr) of E[(g' A g)^s], in chunks of a million
    draws; the arbiter for the formulas."""
    a_mat = np.asarray(a_mat, dtype=np.float64)
    d = a_mat.shape[0]
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < draws:
        m = min(1_000_000, draws - done)
        g = rng.standard_normal((m, d))
        q = ((g @ a_mat) * g).sum(1) ** s
        total += float(q.sum())
        total_sq += float((q * q).sum())
        done += m
    mean = total / draws
    var = max(total_sq / draws - mean**2, 0.0)
    return mean, math.sqrt(var / draws)


def random_projector(p: int, rank: int, seed: int = 0) -> np.ndarray:
    """Orthogonal projector onto a random rank-dimensional subspace (norm 1)."""
    if not 1 <= rank <= p:
        raise InvalidArgumentError("rank must be in [1, p]")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((p, rank)))
    return q @ q.T


def _operator_norm_upper(a_mat: np.ndarray) -> float:
    rng = np.random.default_rng(0)
    v = rng.standard_normal(a_mat.shape[0])
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(200):
        w = a_mat @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        if abs(nw - est) <= 1e-9 * max(1.0, nw):
            return nw
        est, v = nw, w / nw
    return est


def quadform_concentration_stat(
    x2_centered: np.ndarray,
    sigma2: DiscreteLaw,
    a_mat: np.ndarray,
) -> np.ndarray:
    """Per-row |v' A v - Tr(A Sigma2)| / n for centered tensor rows v.

    ``sigma2`` must list the Sigma2 diagonal in the same coordinate order as
    the columns of ``x2_centered``. The caller certifies ||A|| <= 1; a power
    iteration double-checks it.
    """
    x2 = np.asarray(x2_centered, dtype=np.float64)
    a_mat = np.asarray(a_mat, dtype=np.float64)
    if a_mat.shape != (x2.shape[1], x2.shape[1]):
        raise InvalidArgumentError("A must be p x p with p matching the feature count")
    if not np.allclose(a_mat, a_mat.T, atol=1e-10):
        raise InvalidArgumentError("A must be symmetric")
    if _operator_norm_upper(a_mat) > 1.0 + 1e-8:
        raise InvalidArgumentError("A must have spectral norm at most 1")
    if sigma2.atoms.size != x2.shape[1]:
        raise InvalidArgumentError("sigma2 must carry one atom per tensor coordinate")
    n = x2.shape[0]
    target = float(np.sum(np.diag(a_mat) * sigma2.atoms))
    quad = np.einsum("ij,ij->i", x2 @ a_mat, x2)
    return np.abs(quad - target) / n


def quad_kernel_matrix_tensor(data, coeffs: QuadCoeffs) -> np.ndarray:
    """The surrogate of :func:`qrlab.kernels.quad_kernel_matrix`, with its
    quadratic term built as the Gram matrix of the reduced tensor features
    instead of the entrywise square of XX'."""
    x = _as_matrix(data)
    x2 = reduced_tensor_features(x, allow_large=True)
    out = coeffs.a0 + coeffs.a1 * (x @ x.T) + coeffs.a2 * (x2 @ x2.T)
    out[np.diag_indices(len(x))] += coeffs.a_star
    return out


def training_error_residual(k_mat: np.ndarray, y: np.ndarray, lam: float) -> float:
    """(1/n) |K (K+lambda I)^{-1} y - y|^2 by a dense LU solve: the second
    route to :func:`qrlab.krr.training_error`."""
    k_mat = np.asarray(k_mat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.linalg.solve(k_mat + lam * np.eye(y.size), y)
    r = k_mat @ w - y
    return float((r @ r) / y.size)


def population_stieltjes(
    z: complex,
    alpha: float,
    nu: DiscreteLaw,
) -> complex:
    """Stieltjes transform m(z) of the population-side deformed MP law.

    Solves m = int dnu(x) / (x (1 - alpha - alpha z m) - z) by damped
    iteration with a Newton polish, to a residual of 1e-13 within 2000
    steps. Kept independent of ``companion_stieltjes`` so the identity
    mt = alpha m + (1-alpha)(-1/z) can be cross-checked between two solvers.
    """
    z = _check_point(z)

    def g(m: complex) -> complex:
        u = 1.0 - alpha - alpha * z * m
        return complex(np.sum(nu.weights / (nu.atoms * u - z)))

    m = -1.0 / z
    resid = math.inf
    for _ in range(2000):
        gm = g(m)
        resid = abs(gm - m)
        if resid <= 1e-13:
            break
        # Newton on r(m) = g(m) - m once close, damped picard otherwise.
        if resid < 1e-2:
            u = 1.0 - alpha - alpha * z * m
            dg = complex(np.sum(nu.weights * nu.atoms * alpha * z / (nu.atoms * u - z) ** 2))
            if dg != 1.0:
                cand = m - (gm - m) / (dg - 1.0)
                if np.isfinite(cand.real) and np.isfinite(cand.imag):
                    m = cand
                    continue
        m = 0.5 * (m + gm)
    else:
        raise NumericalFailureError("population fixed point did not converge at z=%r" % z, residual=resid)
    return m


@dataclass(frozen=True)
class OracleResult:
    name: str
    passed: bool
    detail: str


def oracle_check(mc_draws: int = 10_000_000, seed: int = 0) -> list[OracleResult]:
    """Run the oracle suite; returns one pass/fail record per check."""
    rng = np.random.default_rng(seed)
    results: list[OracleResult] = []

    gram = hermite_gram(8)
    off = float(np.abs(gram - np.eye(9)).max())
    results.append(OracleResult("hermite_gram_identity", off <= 1e-10, "max deviation %.3g" % off))

    d = 5
    sig = rng.uniform(0.5, 1.5, d)
    xi = rng.standard_normal(d)
    xk = rng.standard_normal(d)
    w_i = np.sqrt(sig) * xi
    w_k = np.sqrt(sig) * xk
    dot = float(w_i @ w_k)
    ni = float(w_i @ w_i)
    nk = float(w_k @ w_k)
    checks = {
        "wick_31": (wick_moment(3, 1, sig, xi, xk), 3.0 * dot * ni),
        "wick_33": (wick_moment(3, 3, sig, xi, xk), 9.0 * dot * ni * nk + 6.0 * dot**3),
        "wick_44": (
            wick_moment(4, 4, sig, xi, xk),
            72.0 * dot**2 * ni * nk + 24.0 * dot**4 + 9.0 * ni**2 * nk**2,
        ),
    }
    for name, (got, want) in checks.items():
        rel = abs(got - want) / max(1.0, abs(want))
        results.append(OracleResult(name, rel <= 1e-10, "relative deviation %.3g" % rel))

    a_sym = rng.standard_normal((3, 3))
    a_sym = (a_sym + a_sym.T) / 2.0
    for s in (2, 3, 4):
        mc, se = quadform_moment_mc(a_sym, s, mc_draws, seed=seed + s)
        std = gaussian_quadform_moments(a_sym, s)
        ok = abs(std - mc) <= 5.0 * se
        results.append(
            OracleResult("quadform_moment_s%d_vs_mc" % s, ok, "formula %.6g, mc %.6g +- %.2g" % (std, mc, se))
        )
        if s == 3:
            printed = gaussian_quadform_moments_printed(a_sym, 3)
            printed_ok = abs(printed - mc) <= 5.0 * se
            results.append(
                OracleResult(
                    "quadform_cubic_printed_vs_mc",
                    not printed_ok or abs(printed - std) < 1e-12,
                    "printed %.6g vs mc %.6g +- %.2g (standard form %s)"
                    % (printed, mc, se, "matches" if ok else "fails"),
                )
            )

    b_sym = rng.standard_normal((3, 3))
    b_sym = (b_sym + b_sym.T) / 2.0
    cross = quadform_cross_moment(a_sym, b_sym)
    g = rng.standard_normal((min(mc_draws, 2_000_000), 3))
    qa = ((g @ a_sym) * g).sum(1)
    qb = ((g @ b_sym) * g).sum(1)
    prod = qa * qb
    se = float(prod.std() / math.sqrt(prod.size))
    ok = abs(cross - float(prod.mean())) <= 5.0 * se
    results.append(OracleResult("quadform_cross_vs_mc", ok, "formula %.6g, mc %.6g +- %.2g" % (cross, prod.mean(), se)))

    count = len(list(_pairings(tuple(range(8)))))
    results.append(OracleResult("pairing_count_8", count == wick_matching_count(8) == 105, "count %d" % count))
    return results
