"""Dataset generation with diagonal covariance and moment-matched entries.

Rows are x_i = Sigma^(1/2) z_i with z entries iid, mean 0, variance 1, and
(for the discrete sampler) Gaussian moments matched exactly up to order
2m-1 through an m-point Gauss-Hermite distribution. Also provides the
reduced degree-2 tensor feature map and the diagonal of its covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidArgumentError
from .seeding import DATA, substream
from .spectra import DiscreteLaw

__all__ = [
    "CovarianceSpec",
    "MomentMatchedSampler",
    "Dataset",
    "gauss_hermite_rule",
    "sample_dataset",
    "reduced_tensor_features",
    "tensor_mean_vector",
    "sigma2_diagonal",
    "pair_index_columns",
]


def gauss_hermite_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and probability weights of the m-point Gauss-Hermite rule.

    Scaled so the rule is a discrete distribution with mean exactly 0 and
    variance exactly 1; it then reproduces the standard Gaussian moments
    E[g^t] for every t <= 2m-1.
    """
    if not 1 <= m <= 64:
        raise InvalidArgumentError("node count must be in [1, 64], got %r" % m)
    if m == 1:
        return np.zeros(1), np.ones(1)
    nodes, weights = np.polynomial.hermite.hermgauss(m)
    nodes = nodes * math.sqrt(2.0)
    weights = weights / weights.sum()
    # Exact symmetry, then exact unit variance, both to the last ulp.
    nodes = (nodes - nodes[::-1]) / 2.0
    nodes = nodes / math.sqrt(float(np.sum(weights * nodes**2)))
    return nodes, weights


@dataclass(frozen=True, eq=False)
class CovarianceSpec:
    """Diagonal population covariance.

    ``diag`` holds the realized nonnegative diagonal. Uniform and two-point
    kinds realize their value distribution by quantiles when ``seed`` is
    None (deterministic, matches the limiting law exactly) or by seeded
    draws otherwise.
    """

    kind: str
    d: int
    diag: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=np.float64)
        object.__setattr__(self, "diag", diag)
        if self.d < 1 or diag.shape != (self.d,):
            raise InvalidArgumentError("diagonal must have length d >= 1")
        if np.any(diag < 0):
            raise InvalidArgumentError("diagonal values must be nonnegative")
        if diag.mean() <= 0:
            raise InvalidArgumentError("mean diagonal value must be positive")

    @staticmethod
    def identity(d: int) -> "CovarianceSpec":
        return CovarianceSpec("identity", d, np.ones(d))

    @staticmethod
    def uniform(d: int, lo: float, hi: float, seed: int | None = None) -> "CovarianceSpec":
        if not 0 <= lo <= hi:
            raise InvalidArgumentError("need 0 <= lo <= hi")
        if seed is None:
            diag = lo + (hi - lo) * (np.arange(d) + 0.5) / d
        else:
            diag = substream(seed, 0).uniform(lo, hi, d)
        return CovarianceSpec("uniform", d, diag)

    @staticmethod
    def two_point(d: int, v1: float, v2: float, p: float, seed: int | None = None) -> "CovarianceSpec":
        if min(v1, v2) < 0 or not 0.0 <= p <= 1.0:
            raise InvalidArgumentError("need v1, v2 >= 0 and p in [0, 1]")
        if seed is None:
            k = int(round(p * d))
            diag = np.concatenate([np.full(k, v1), np.full(d - k, v2)])
        else:
            mask = substream(seed, 0).random(d) < p
            diag = np.where(mask, v1, v2)
        return CovarianceSpec("two_point", d, diag)

    def tau(self) -> float:
        """Realized mean diagonal value, Tr(Sigma)/d."""
        return float(self.diag.mean())

    def trace_square(self) -> float:
        """Tr(Sigma^2) for the diagonal covariance."""
        return float(np.sum(self.diag**2))


@dataclass(frozen=True)
class MomentMatchedSampler:
    """Entry distribution: standard Gaussian or an m-point GH discrete law.

    The discrete law matches E[g^t] exactly for t <= 2m-1, so m=5 covers
    the 8-moment training-data requirement. Test points are always Gaussian.
    """

    mode: str
    m: int = 0

    @staticmethod
    def gaussian() -> "MomentMatchedSampler":
        return MomentMatchedSampler("gaussian")

    @staticmethod
    def gh_discrete(m: int) -> "MomentMatchedSampler":
        if not 1 <= m <= 64:
            raise InvalidArgumentError("node count must be in [1, 64]")
        return MomentMatchedSampler("gh_discrete", int(m))

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        if self.mode == "gaussian":
            return rng.standard_normal(shape)
        if self.mode == "gh_discrete":
            nodes, weights = gauss_hermite_rule(self.m)
            idx = rng.choice(self.m, size=shape, p=weights)
            return nodes[idx]
        raise InvalidArgumentError("unknown sampler mode %r" % self.mode)


@dataclass(frozen=True, eq=False)
class Dataset:
    """n x d data matrix with the covariance it was drawn under."""

    X: np.ndarray
    covariance: CovarianceSpec

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def sample_dataset(
    n: int,
    d: int,
    cov: CovarianceSpec,
    sampler: MomentMatchedSampler,
    seed: int,
) -> Dataset:
    """Draw n independent rows x_i(k) = sqrt(Sigma_kk) z_i(k), deterministically in ``seed``."""
    if n < 1 or d < 1:
        raise InvalidArgumentError("need n >= 1 and d >= 1")
    if cov.d != d:
        raise InvalidArgumentError("covariance dimension %d does not match d=%d" % (cov.d, d))
    rng = substream(seed, DATA)
    z = sampler.sample(rng, (n, d))
    x = z * np.sqrt(cov.diag)[None, :]
    return Dataset(X=x, covariance=cov)


def pair_index_columns(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (k, l) pairs with k <= l; fixes the tensor coordinate order."""
    return np.triu_indices(d)


def _as_matrix(data) -> np.ndarray:
    if isinstance(data, Dataset):
        return data.X
    return np.asarray(data, dtype=np.float64)


def reduced_tensor_features(data, allow_large: bool = False) -> np.ndarray:
    """Degree-2 feature rows: sqrt(2) x_k x_l for k < l, x_k^2 for k = l.

    The sqrt(2) off-diagonal scaling makes row inner products equal the
    squared inner products of the original rows. Refuses d > 512 (about
    131k columns) unless ``allow_large`` is set.
    """
    x = _as_matrix(data)
    n, d = x.shape
    p = d * (d + 1) // 2
    if d > 512 and not allow_large:
        raise CapacityError(
            "reduced tensor features need %d columns for d=%d; pass allow_large=True to override"
            % (p, d),
            required_bytes=8 * n * p,
        )
    rows, cols = pair_index_columns(d)
    x2 = x[:, rows] * x[:, cols]
    x2[:, rows != cols] *= math.sqrt(2.0)
    return x2


def tensor_mean_vector(cov: CovarianceSpec) -> np.ndarray:
    """Mean of the reduced tensor feature: Sigma_kk on k = l coordinates, else 0."""
    rows, cols = pair_index_columns(cov.d)
    mean = np.zeros(rows.size)
    on_diag = rows == cols
    mean[on_diag] = cov.diag[rows[on_diag]]
    return mean


def sigma2_diagonal(cov: CovarianceSpec) -> DiscreteLaw:
    """Diagonal of the centered tensor covariance as a uniform-weight atom list.

    Coordinate order matches :func:`reduced_tensor_features`. Entries are
    2 Sigma_kk Sigma_ll for k < l and Var(x_k^2) = 2 Sigma_kk^2 for k = l
    (fourth moment 3 under Gaussian moment matching). The atom list doubles
    as the finite-d stand-in for the limiting population law.
    """
    rows, cols = pair_index_columns(cov.d)
    with np.errstate(over="ignore"):  # an inf atom fails from_values' finite check
        values = 2.0 * cov.diag[rows] * cov.diag[cols]
    return DiscreteLaw.from_values(values)
