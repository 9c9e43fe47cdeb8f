"""Spectral laws for the quadratic regime.

Empirical spectra, the Marchenko-Pastur density, and the deformed MP law
obtained by free multiplicative convolution of the MP law with a population
law ``nu``. The deformed law is computed through the companion Stieltjes
transform ``mt`` solving the scalar fixed point

    z = -1/mt + alpha * integral x / (1 + x*mt) dnu(x),

valid for z in the upper half plane or on the negative real axis. The
density is recovered by Stieltjes inversion in one place, the sweep of a
``LawSegment``: ``deformed_mp_law`` assembles its grid's segments, and
densities at any points come from ``LawSegment(alpha, nu.compressed(), x)()``.
Integrals of the law come from ``mt`` (``law_integrals``), and the point mass
at zero (present when ``alpha < 1``) is handled analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _lapack
from .errors import InvalidArgumentError, NumericalFailureError

__all__ = [
    "DiscreteLaw",
    "StieltjesEval",
    "SpectralLaw",
    "LawSegment",
    "LawSweep",
    "esd",
    "mp_support",
    "mp_density",
    "companion_stieltjes",
    "law_segments",
    "deformed_mp_law",
    "law_integrals",
    "ks_distance",
    "law_to_csv",
]

# Companion fixed point: the step budget of each stage of a cold start's
# ladder, the smaller one of a warm start (a caller that misses it falls back
# to a cold start), and every stage's residual tolerance, relative to the
# equation's largest term max(|stage|, |1/mt|): no absolute scale.
STIELTJES_MAX_STEPS = 500
STIELTJES_WARM_STEPS = 100
STIELTJES_TOL = 1e-12

# Deformed-MP inversion grid: LAW_GRID_POINTS points, sqrt-concentrated near
# zero (where the density can blow up like x^(-1/2)), out to LAW_GRID_PAD times
# the support scale s = max_atom(nu) (1 + sqrt(alpha))^2, trimmed to where the
# density exceeds LAW_DENSITY_FLOOR times its peak. The bandwidth is eta =
# LAW_ETA_SCALE * s: a hard edge at zero loses mass of order sqrt(eta) to the
# negative axis under Cauchy smearing, which must stay far below the 2e-3
# normalization budget; 1e-8 * s keeps the loss near 1e-6 (1e-4 * s fails).
LAW_GRID_POINTS = 4000
LAW_GRID_PAD = 1.3
LAW_ETA_SCALE = 1e-8
LAW_DENSITY_FLOOR = 1e-8
# The grid is cut into LAW_SEGMENTS contiguous segments of equal point count,
# each swept downward from a cold start at its top, so the segments are
# independent tasks. The count is fixed here, not by a worker count, so the
# law's bytes do not depend on how its segments are scheduled.
LAW_SEGMENTS = 2


@dataclass(frozen=True, eq=False)
class DiscreteLaw:
    """Atomic probability law: finite atoms with positive weights summing to 1."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=np.float64).ravel()
        weights = np.asarray(self.weights, dtype=np.float64).ravel()
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if atoms.shape != weights.shape or atoms.size == 0:
            raise InvalidArgumentError("atoms and weights must be non-empty and congruent")
        if not np.all(np.isfinite(atoms)):
            raise InvalidArgumentError("atoms must be finite")
        if np.any(weights <= 0):
            raise InvalidArgumentError("weights must be positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise InvalidArgumentError("weights must sum to 1 within 1e-12, got %r" % float(weights.sum()))
        # Numerators of the companion fixed point's atom sums, complex so that
        # the sums are complex dot products with no cast per call.
        object.__setattr__(self, "_wa", (weights * atoms).astype(np.complex128))
        object.__setattr__(self, "_wa2", (weights * atoms**2).astype(np.complex128))

    @staticmethod
    def delta(c: float) -> "DiscreteLaw":
        return DiscreteLaw(np.array([float(c)]), np.array([1.0]))

    @staticmethod
    def from_values(values: np.ndarray) -> "DiscreteLaw":
        """Uniform weights over a list of values (atom per entry, in order)."""
        values = np.asarray(values, dtype=np.float64).ravel()
        return DiscreteLaw(values, np.full(values.size, 1.0 / values.size))

    def mean(self) -> float:
        return float(self.atoms @ self.weights)

    @property
    def support_max(self) -> float:
        return float(self.atoms.max())

    def compressed(self) -> "DiscreteLaw":
        """Merge duplicate atoms; useful before dense grid sweeps."""
        vals, inv = np.unique(self.atoms, return_inverse=True)
        w = np.zeros_like(vals)
        np.add.at(w, inv, self.weights)
        return DiscreteLaw(vals, w)


@dataclass(frozen=True)
class StieltjesEval:
    """One converged companion fixed-point solve."""

    m_tilde: complex
    iterations: int
    residual: float


# Few strips keep the numpy calls few: each may wait a switch interval for
# the GIL while a law segment runs on another worker.
_SYMMETRY_STRIP_ROWS = 256


def _exactly_symmetric(m: np.ndarray) -> bool:
    """Whether the square ``m`` equals its transpose, compared one strip of
    rows of its upper triangle at a time against the matching columns."""
    rows = _SYMMETRY_STRIP_ROWS
    return all(np.array_equal(m[i : i + rows, i:], m[i:, i : i + rows].T) for i in range(0, m.shape[0], rows))


def _checked_symmetric(m, what: str) -> np.ndarray:
    """A symmetric float64 matrix for a finite, non-empty square input whose
    max|M - M^T| is within 1e-10 max(1, max|M|). Exactly symmetric input
    comes back as it is; a smaller asymmetry is averaged out.

    The floor of 1 makes the bound absolute below unit scale. It is there
    for ``spectral_norm_gap``, which passes the difference K - K2: the
    cancellation in that difference can leave round-off asymmetry that is
    large beside the difference's own largest entry, the only scale seen
    here."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise InvalidArgumentError("%s must be a non-empty square matrix" % what)
    # From the extremes: the value of np.abs(m).max(), NaN included, with no n x n copy.
    peak = max(abs(float(m.max())), abs(float(m.min())))
    if not math.isfinite(peak):
        raise NumericalFailureError("%s has non-finite entries" % what)
    if _exactly_symmetric(m):
        return m
    asym = float(np.abs(m - m.T).max())
    if asym > 1e-10 * max(1.0, peak):
        raise InvalidArgumentError("%s is not symmetric: max|M - M^T| = %g" % (what, asym))
    return (m + m.T) / 2.0


def esd(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (nearly) symmetric matrix.

    The input must be finite and symmetric within 1e-10 max(1, max|M|)
    (see ``_checked_symmetric`` for the floor); it is symmetrized before the
    dense solve unless it is exactly symmetric. The solve works in place
    (``_lapack.syevd``), so an exactly symmetric, writable, C- or
    F-contiguous float64 ``matrix`` is overwritten; pass a copy to keep it.
    Any other input is solved on a copy.
    """
    sym = _checked_symmetric(matrix, "esd: matrix")
    if not (sym.flags.writeable and (sym.flags.c_contiguous or sym.flags.f_contiguous)):
        sym = np.array(sym)
    return _lapack.syevd(sym)


def mp_support(gamma: float) -> tuple[float, float]:
    """Support edges ((1 - sqrt(gamma))**2, (1 + sqrt(gamma))**2)."""
    if gamma <= 0:
        raise InvalidArgumentError("gamma must be positive")
    r = math.sqrt(gamma)
    return (1.0 - r) ** 2, (1.0 + r) ** 2


def mp_density(gamma: float, x) -> np.ndarray | float:
    """Marchenko-Pastur density sqrt((g+ - x)(x - g-)) / (2 pi gamma x).

    This is the absolutely continuous part; its total mass is 1 for
    gamma <= 1 and 1/gamma for gamma > 1.
    """
    lo, hi = mp_support(gamma)
    xv = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(xv, dtype=np.float64)
    inside = (xv > lo) & (xv < hi) & (xv > 0)
    xi = xv[inside]
    out[inside] = np.sqrt((hi - xi) * (xi - lo)) / (2.0 * math.pi * gamma * xi)
    if np.isscalar(x):
        return float(out)
    return out


def _first_integral(nu: DiscreteLaw, m: complex) -> tuple[np.ndarray, complex]:
    """(1/(1 + a m) over the atoms a, integral x/(1+x m) dnu); the second
    integral x^2/(1+x m)^2 dnu is _second_integral of that reciprocal."""
    inv = 1.0 / (1.0 + nu.atoms * m)
    return inv, complex(inv @ nu._wa)


def _second_integral(nu: DiscreteLaw, inv: np.ndarray) -> complex:
    return complex((inv * inv) @ nu._wa2)


def _check_point(z: complex) -> complex:
    z = complex(z)
    if z.imag > 0 or (z.imag == 0 and z.real < 0):
        return z
    raise InvalidArgumentError("z must lie in the upper half plane or on the negative real axis, got %r" % z)


def _support_scale(alpha: float, nu: DiscreteLaw) -> float:
    return nu.support_max * (1.0 + math.sqrt(alpha)) ** 2


def companion_stieltjes(z: complex, alpha: float, nu: DiscreteLaw, initial: complex | None = None) -> StieltjesEval:
    """Solve z = -1/mt + alpha * int x/(1+x*mt) dnu for the companion transform.

    A cold start runs a continuation ladder of z values from the support
    scale down toward z (the -1/z guess is far off when |z| is small), then
    z, starting from -1/(first stage); a warm start from ``initial`` runs z
    alone. Each stage takes damped fixed-point steps (theta = 0.5), or a
    Newton step when it shrinks the residual, until the residual is within
    ``STIELTJES_TOL * max(|stage|, |1/mt|)``, relative to the equation's
    largest term at every stage. The Newton acceptance and the Nevanlinna
    guard are relative to |mt| too: for nu and z scaled by a power of two c,
    every iterate is the unscaled one over c, bit for bit.
    Each stage may take ``STIELTJES_MAX_STEPS`` residual evaluations (cold) or
    ``STIELTJES_WARM_STEPS`` (warm); ``iterations`` sums them.
    """
    z = _check_point(z)
    if alpha < 0:
        raise InvalidArgumentError("alpha must be nonnegative")
    on_axis = z.imag == 0.0

    if initial is None:
        stages = []
        level = _support_scale(alpha, nu)
        level = level if level > 0 else 1.0  # atoms may be <= 0
        while level > 4.0 * (abs(z.real) if on_axis else z.imag):
            stages.append(complex(-level, 0.0) if on_axis else complex(z.real, level))
            level /= 4.0
        stages.append(z)
        m = -1.0 / stages[0]
        budget = STIELTJES_MAX_STEPS
    else:
        stages = [z]
        m = complex(initial)
        budget = STIELTJES_WARM_STEPS
    if on_axis and m.real <= 0:
        m = -1.0 / z.real

    used = 0
    resid = math.inf
    try:
        inv, f1 = _first_integral(nu, m)
        for stage in stages:
            stage_end = used + budget
            while True:
                if used == stage_end:
                    raise NumericalFailureError(
                        "companion fixed point did not converge at z=%r (residual %.3g)" % (z, resid),
                        residual=resid, iterations=used,
                    )
                used += 1
                r = stage + 1.0 / m - alpha * f1
                resid = abs(r)
                if resid <= STIELTJES_TOL * max(abs(stage), abs(1.0 / m)):
                    break
                # Newton step, accepted only when it actually shrinks the residual
                # (it can diverge far from the root, e.g. near the support edge);
                # an accepted candidate hands its inv and f1 on to the next step.
                dr = -1.0 / m**2 + alpha * _second_integral(nu, inv)
                if dr != 0:
                    cand = m - r / dr
                    ok = math.isfinite(cand.real) and math.isfinite(cand.imag) and cand != 0
                    if ok and (cand.real > 0 if on_axis else cand.imag >= -1e-13 * abs(cand)):
                        cand_inv, cand_f1 = _first_integral(nu, cand)
                        if abs(stage + 1.0 / cand - alpha * cand_f1) < 0.9 * resid:
                            m, inv, f1 = cand, cand_inv, cand_f1
                            continue
                denom = alpha * f1 - stage
                if denom == 0:
                    raise NumericalFailureError(
                        "degenerate fixed-point map at z=%r" % stage, residual=resid, iterations=used
                    )
                m = 0.5 * (m + 1.0 / denom)
                if on_axis:
                    m = complex(max(m.real, 1e-300), 0.0)
                inv, f1 = _first_integral(nu, m)

        if not on_axis and m.imag < -1e-10 * abs(m):
            raise NumericalFailureError(
                "Nevanlinna violation: Im m = %g < 0 for Im z > 0" % m.imag, residual=resid, iterations=used
            )
    except (OverflowError, ZeroDivisionError) as exc:
        # Python complex arithmetic raises where numpy would return inf: m**2
        # overflows once |m| passes ~1e154, and 1/m**2 divides by zero once
        # m**2 underflows (|m| below ~1e-162).
        raise NumericalFailureError(
            "companion fixed point left the float range at z=%r (%s)" % (z, exc), residual=resid, iterations=used
        ) from exc
    return StieltjesEval(m_tilde=m, iterations=used, residual=resid)


@dataclass(frozen=True, eq=False)
class SpectralLaw:
    """Deformed MP law: point mass at zero plus a density on a grid.

    ``solvers`` holds, for a law built by ``deformed_mp_law``, one dict of
    companion-solver statistics per grid segment (see ``LawSweep``)."""

    atom0_mass: float
    grid: np.ndarray
    density: np.ndarray
    solvers: tuple = ()

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        dens = np.asarray(self.density, dtype=np.float64)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", dens)
        if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
            raise InvalidArgumentError("grid must be strictly increasing with at least 2 points")
        if dens.shape != grid.shape or np.any(dens < 0):
            raise InvalidArgumentError("density must be nonnegative and match the grid")
        if not 0.0 <= self.atom0_mass <= 1.0:
            raise InvalidArgumentError("atom0_mass must lie in [0, 1]")
        cum = np.concatenate([[0.0], np.cumsum(np.diff(grid) * (dens[1:] + dens[:-1]) / 2.0)])
        object.__setattr__(self, "_cumulative", cum)

    def continuous_mass(self) -> float:
        return float(self._cumulative[-1])

    def total_mass(self) -> float:
        return self.atom0_mass + self.continuous_mass()

    def cdf(self, x) -> np.ndarray | float:
        """Law CDF: atom at 0 plus cumulative trapezoid of the density.

        Eigenvalues a hair below zero (symmetric-solver round-off) still
        collect the atom, hence a negative tolerance of 1e-8 times the grid top.
        """
        xv = np.asarray(x, dtype=np.float64)
        tol = 1e-8 * float(self.grid[-1])
        out = self.atom0_mass * (xv >= -tol).astype(np.float64)
        out = out + np.interp(xv, self.grid, self._cumulative, left=0.0, right=self._cumulative[-1])
        if np.isscalar(x):
            return float(out)
        return out


class LawSweep(NamedTuple):
    """One sweep: its points (in the segment's order), their densities, and
    its solver statistics: ``calls`` to companion_stieltjes (the failed warm
    attempts included), the sum and maximum of the converged solves'
    ``iterations``, the ``cold_restarts`` after a failed warm attempt and the
    ``failed_warm_steps`` those attempts spent, plus the segment's ``points``
    and its ``x_min`` and ``x_max``."""

    x: np.ndarray
    density: np.ndarray
    solver: dict


@dataclass(frozen=True, eq=False)
class LawSegment:
    """Points of the deformed MP law for ``alpha > 0`` and a compressed ``nu``:
    a segment of the inversion grid of ``deformed_mp_law``, or any points.

    Calling it sweeps the points from the largest (cold start) down,
    warm-starting each solve from the last root. Near band edges a warm start
    can sit on the wrong side of the square-root branch point; a failed warm
    solve is repeated from a cold start, whose continuation ladder tracks the
    root down in eta instead. The density is Im mt(x + i eta) / pi at
    eta = LAW_ETA_SCALE s, less the smeared atom at zero when alpha < 1.
    """

    alpha: float
    nu: DiscreteLaw
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))
        if self.alpha <= 0:
            raise InvalidArgumentError("alpha must be positive")

    def __call__(self) -> LawSweep:
        alpha, nu, xs = self.alpha, self.nu, self.x
        eta = LAW_ETA_SCALE * _support_scale(alpha, nu)
        atom0 = max(1.0 - alpha, 0.0)
        dens = np.empty_like(xs)
        stats = {"points": int(xs.size), "x_min": float(xs.min()), "x_max": float(xs.max()), "calls": 0,
                 "iterations": 0, "iterations_max": 0, "cold_restarts": 0, "failed_warm_steps": 0}
        warm = None
        for idx in np.argsort(xs)[::-1]:
            z = complex(xs[idx], eta)
            for start in (warm, None):
                stats["calls"] += 1
                try:
                    ev = companion_stieltjes(z, alpha, nu, initial=start)
                    break
                except NumericalFailureError as exc:
                    if start is None:
                        raise NumericalFailureError(
                            "density inversion failed: %s" % exc, residual=exc.residual, iterations=exc.iterations
                        ) from exc
                    stats["cold_restarts"] += 1
                    stats["failed_warm_steps"] += exc.iterations
            stats["iterations"] += ev.iterations
            stats["iterations_max"] = max(stats["iterations_max"], ev.iterations)
            warm = ev.m_tilde
            val = ev.m_tilde.imag / math.pi
            if atom0 > 0:
                val -= atom0 * eta / (xs[idx] * xs[idx] + eta * eta) / math.pi
            dens[idx] = max(val, 0.0)
        return LawSweep(xs, dens, stats)


def law_segments(alpha: float, nu: DiscreteLaw) -> list[LawSegment]:
    """The LAW_SEGMENTS segments of the law's inversion grid, top first.

    The grid has LAW_GRID_POINTS points, sqrt-concentrated near zero, from 0
    to LAW_GRID_PAD times the support scale.
    """
    if alpha <= 0:
        raise InvalidArgumentError("alpha must be positive")
    nu_c = nu.compressed()
    t = np.linspace(0.0, 1.0, LAW_GRID_POINTS)
    grid = LAW_GRID_PAD * _support_scale(alpha, nu_c) * t**2
    grid[0] = 0.0
    return [LawSegment(alpha, nu_c, x) for x in np.array_split(grid, LAW_SEGMENTS)[::-1]]


def deformed_mp_law(alpha: float, nu: DiscreteLaw, sweeps: list[LawSweep] | None = None) -> SpectralLaw:
    """Deformed MP law for ratio ``alpha`` and population law ``nu``.

    The returned law carries the analytic atom max(1-alpha, 0) at zero and
    the inverted density on the grid of ``law_segments``, trimmed to where
    the density exceeds ``LAW_DENSITY_FLOOR`` times its peak, and each
    segment's solver statistics in ``solvers`` (top segment first). The law
    holds no absolute scale: for nu scaled by 2^k the grid scales by 2^k and
    the density by 2^-k, bit for bit. A caller that schedules the segments
    itself passes their ``sweeps``, in the order of ``law_segments``; by
    default they are swept here, one after another.
    """
    segments = law_segments(alpha, nu)
    if sweeps is None:
        sweeps = [segment() for segment in segments]
    elif len(sweeps) != len(segments) or not all(
        np.array_equal(sweep.x, segment.x) for sweep, segment in zip(sweeps, segments)
    ):
        raise InvalidArgumentError("sweeps must be those of law_segments(alpha, nu), in its order")
    grid = np.concatenate([sweep.x for sweep in sweeps[::-1]])
    dens = np.concatenate([sweep.density for sweep in sweeps[::-1]])
    atom0 = max(1.0 - alpha, 0.0)
    # Trim flat tails but keep one padding point on each side.
    live = np.nonzero(dens > LAW_DENSITY_FLOOR * dens.max())[0]
    if live.size:
        lo = max(int(live[0]) - 1, 0)
        hi = min(int(live[-1]) + 2, grid.size)
        grid, dens = grid[lo:hi], dens[lo:hi]
    return SpectralLaw(atom0_mass=atom0, grid=grid, density=dens, solvers=tuple(sweep.solver for sweep in sweeps))


def law_integrals(alpha: float, nu: DiscreteLaw, s: float) -> tuple[float, float, float]:
    """Resolvent moments of the deformed MP law at shift ``s > 0``.

    Returns (I0, I1, I2) with
        I0 = int dmu/(x+s) = mt(-s),
        I1 = int x dmu/(x+s)^2 = I0 - s*I2,
        I2 = int dmu/(x+s)^2 = mt'(-s),
    the derivative in closed form at the root: mt' = 1 / (1/mt^2 - alpha * int x^2/(1+x*mt)^2 dnu).
    I0 - s*I2 loses relative precision of order eps s I0 / I1 as s grows: at alpha = 1, nu = delta_2,
    s^2 I1 reads 1.99999988 at s = 1e8, 2.0000969 at 1e12 and 0.0 at 1e14 (the limit is 2).
    """
    if s <= 0:
        raise InvalidArgumentError("s must be positive")
    z, alpha = complex(-float(s)), float(alpha)
    m = companion_stieltjes(z, alpha, nu).m_tilde
    try:  # m**2 overflows past |m| ~ 1e154 and underflows below ~1e-162, as in companion_stieltjes
        m_prime = 1.0 / (1.0 / m**2 - alpha * _second_integral(nu, _first_integral(nu, m)[0]))
    except (OverflowError, ZeroDivisionError) as exc:
        raise NumericalFailureError("companion fixed point left the float range at z=%r (%s)" % (z, exc)) from exc
    i0, i2 = float(m.real), float(m_prime.real)
    i1 = i0 - s * i2
    if min(i0, i2) < -1e-12 or i1 < -1e-12:
        raise NumericalFailureError("negative resolvent moment: %r" % ((i0, i1, i2),))
    return max(i0, 0.0), max(i1, 0.0), max(i2, 0.0)


def ks_distance(eigs: np.ndarray, law: SpectralLaw) -> float:
    """Kolmogorov-Smirnov distance between sorted eigenvalues and the law."""
    e = np.sort(np.asarray(eigs, dtype=np.float64).ravel())
    if e.size == 0:
        raise InvalidArgumentError("eigs must be non-empty")
    n = e.size
    f = np.asarray(law.cdf(e), dtype=np.float64)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(max(np.abs(upper - f).max(), np.abs(lower - f).max()))


def law_to_csv(law: SpectralLaw) -> str:
    """CSV text: comment line with the atom mass, then x,density rows."""
    rows = "".join("%r,%r\n" % (float(x), float(d)) for x, d in zip(law.grid, law.density))
    return "# atom0_mass=%r\nx,density\n" % float(law.atom0_mass) + rows
