import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrlab.datagen import (
    CovarianceSpec,
    MomentMatchedSampler,
    gauss_hermite_rule,
    pair_index_columns,
    reduced_tensor_features,
    sample_dataset,
    sigma2_diagonal,
    tensor_mean_vector,
)
from qrlab.errors import CapacityError, InvalidArgumentError
from qrlab.oracles import wick_matching_count


def test_gh_rule_single_node():
    nodes, weights = gauss_hermite_rule(1)
    assert nodes.tolist() == [0.0]
    assert weights.tolist() == [1.0]


def test_gh_rule_two_nodes_is_symmetric_bernoulli():
    nodes, weights = gauss_hermite_rule(2)
    assert np.allclose(sorted(nodes), [-1.0, 1.0], atol=1e-15)
    assert np.allclose(weights, [0.5, 0.5], atol=1e-15)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 20, 64])
def test_gh_rule_normalization(m):
    nodes, weights = gauss_hermite_rule(m)
    assert abs(weights.sum() - 1.0) < 1e-14
    assert abs(float(weights @ nodes)) < 1e-12
    if m > 1:
        assert abs(float(weights @ nodes**2) - 1.0) < 1e-12


@pytest.mark.parametrize("m", [0, -3, 65])
def test_gh_rule_rejects_bad_node_count(m):
    with pytest.raises(InvalidArgumentError):
        gauss_hermite_rule(m)


def test_gh5_matches_gaussian_moments_through_order_nine():
    # Gaussian even moments come from the pairing-count oracle: E[g^t] = (t-1)!!
    nodes, weights = gauss_hermite_rule(5)
    for t in range(10):
        expected = float(wick_matching_count(t))
        got = float(weights @ nodes**t)
        assert abs(got - expected) < 1e-9, (t, got, expected)


def test_gh5_eighth_moment_is_105():
    nodes, weights = gauss_hermite_rule(5)
    assert wick_matching_count(8) == 105
    assert abs(float(weights @ nodes**8) - 105.0) < 1e-9


def test_sample_dataset_deterministic():
    cov = CovarianceSpec.identity(3)
    s = MomentMatchedSampler.gaussian()
    a = sample_dataset(4, 3, cov, s, seed=7)
    b = sample_dataset(4, 3, cov, s, seed=7)
    assert np.array_equal(a.X, b.X)
    c = sample_dataset(4, 3, cov, s, seed=8)
    assert not np.array_equal(a.X, c.X)


def test_gh_discrete_fourth_moment_monte_carlo():
    cov = CovarianceSpec.identity(1)
    data = sample_dataset(10_000, 1, cov, MomentMatchedSampler.gh_discrete(5), seed=11)
    x4 = data.X.ravel() ** 4
    se = x4.std(ddof=1) / math.sqrt(x4.size)
    assert abs(x4.mean() - 3.0) <= 5 * se


def test_two_point_variance_scale():
    cov = CovarianceSpec.two_point(1, 2.0, 2.0, 1.0)
    data = sample_dataset(10_000, 1, cov, MomentMatchedSampler.gaussian(), seed=5)
    x2 = data.X.ravel() ** 2
    se = x2.std(ddof=1) / math.sqrt(x2.size)
    assert abs(x2.mean() - 2.0) <= 5 * se


def test_column_variances_track_the_diagonal():
    cov = CovarianceSpec.uniform(4, 0.5, 1.5)
    data = sample_dataset(40_000, 4, cov, MomentMatchedSampler.gaussian(), seed=2)
    for k in range(4):
        col2 = data.X[:, k] ** 2
        se = col2.std(ddof=1) / math.sqrt(col2.size)
        assert abs(col2.mean() - cov.diag[k]) <= 5 * se


def test_covariance_spec_invariants():
    with pytest.raises(InvalidArgumentError):
        CovarianceSpec.two_point(3, -1.0, 2.0, 0.5)
    with pytest.raises(InvalidArgumentError):
        CovarianceSpec.uniform(3, 1.5, 0.5)
    cov = CovarianceSpec.uniform(5, 0.5, 1.5)
    assert cov.tau() == pytest.approx(1.0)
    assert cov.trace_square() == pytest.approx(float(np.sum(cov.diag**2)))
    seeded = CovarianceSpec.uniform(5, 0.5, 1.5, seed=3)
    assert np.all((seeded.diag >= 0.5) & (seeded.diag <= 1.5))
    seeded_tp = CovarianceSpec.two_point(50, 1.0, 3.0, 0.4, seed=5)
    assert set(np.unique(seeded_tp.diag)) <= {1.0, 3.0}
    quantile_tp = CovarianceSpec.two_point(10, 1.0, 3.0, 0.4)
    assert quantile_tp.diag.tolist() == [1.0] * 4 + [3.0] * 6


def test_reduced_tensor_unit_vectors():
    x2 = reduced_tensor_features(np.array([[1.0, 0.0]]))
    assert np.allclose(x2, [[1.0, 0.0, 0.0]])
    x2 = reduced_tensor_features(np.array([[1.0, 1.0]]))
    assert np.allclose(x2, [[1.0, math.sqrt(2.0), 1.0]])
    assert (x2 @ x2.T).item() == pytest.approx(4.0)


def test_reduced_tensor_gram_equals_squared_gram():
    data = sample_dataset(50, 8, CovarianceSpec.identity(8), MomentMatchedSampler.gaussian(), 3)
    x2 = reduced_tensor_features(data)
    gram = data.X @ data.X.T
    assert np.abs(x2 @ x2.T - gram**2).max() <= 1e-10 * 8**2


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 12),
    d=st.integers(1, 10),
    seed=st.integers(0, 10_000),
)
def test_tensor_identity_property(n, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * rng.uniform(0.2, 2.0)
    x2 = reduced_tensor_features(x)
    lhs = x2 @ x2.T
    rhs = (x @ x.T) ** 2
    scale = max(1.0, float(np.abs(rhs).max()))
    assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_reduced_tensor_capacity_guard():
    x = np.zeros((2, 600))
    with pytest.raises(CapacityError) as err:
        reduced_tensor_features(x)
    assert err.value.required_bytes == 2 * (600 * 601 // 2) * 8
    out = reduced_tensor_features(x, allow_large=True)
    assert out.shape == (2, 600 * 601 // 2)


def test_sigma2_diagonal_values():
    # Entries are variances of the centered tensor coordinates:
    # Var(sqrt(2) x_k x_l) = 2 s_k s_l and Var(x_k^2) = 2 s_k^2.
    cov = CovarianceSpec("two_point", 2, np.array([1.0, 4.0]))
    law = sigma2_diagonal(cov)
    assert law.atoms.tolist() == [2.0, 8.0, 32.0]
    assert np.allclose(law.weights, 1.0 / 3.0)
    ident = sigma2_diagonal(CovarianceSpec.identity(6))
    assert np.all(ident.atoms == 2.0)


def test_sigma2_diagonal_matches_monte_carlo_variance():
    cov = CovarianceSpec.uniform(4, 0.5, 1.5)
    data = sample_dataset(60_000, 4, cov, MomentMatchedSampler.gaussian(), 9)
    x2 = reduced_tensor_features(data)
    centered = x2 - x2.mean(axis=0)
    n = centered.shape[0]
    var = (centered**2).sum(axis=0) / (n - 1)
    second = (centered**4).mean(axis=0)
    se = np.sqrt(np.maximum(second - var**2, 0.0) / n)
    assert np.all(np.abs(var - sigma2_diagonal(cov).atoms) <= 5 * se)


def test_tensor_mean_and_cross_covariance():
    cov = CovarianceSpec.uniform(5, 0.5, 1.5)
    data = sample_dataset(40_000, 5, cov, MomentMatchedSampler.gaussian(), 13)
    x2 = reduced_tensor_features(data)
    mean = tensor_mean_vector(cov)
    n = x2.shape[0]
    se_mean = x2.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(x2.mean(axis=0) - mean) <= 5 * se_mean)
    # A few distinct coordinate pairs must be uncorrelated.
    centered = x2 - x2.mean(axis=0)
    rng = np.random.default_rng(0)
    p = x2.shape[1]
    for _ in range(10):
        i, j = rng.choice(p, size=2, replace=False)
        prod = centered[:, i] * centered[:, j]
        se = prod.std(ddof=1) / math.sqrt(n)
        assert abs(prod.mean()) <= 5 * se


def test_pair_index_order_is_row_major():
    rows, cols = pair_index_columns(3)
    assert list(zip(rows.tolist(), cols.tolist())) == [
        (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2),
    ]
