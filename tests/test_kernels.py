import math
import warnings

import numpy as np
import pytest

from qrlab.datagen import CovarianceSpec, MomentMatchedSampler, sample_dataset
from qrlab.errors import AssumptionWarning, InvalidArgumentError, NumericalFailureError
from qrlab.kernels import (
    KernelFunction,
    cross_kernel,
    kernel_matrix,
    quad_coeffs,
    quad_kernel_matrix,
    spectral_norm_gap,
)
from qrlab.oracles import quad_kernel_matrix_tensor


@pytest.mark.parametrize(
    "kernel",
    [
        KernelFunction.exp(),
        KernelFunction.cosh(),
        KernelFunction.quartic(1.0, 1.0, 1.0),
        KernelFunction.quartic(0.5, 3.0, -2.0),
        KernelFunction.custom_poly([1.0, 0.5, 0.25, 0.125, 0.0625]),
    ],
)
def test_builtin_derivatives_match_finite_differences(kernel):
    kernel.validate_derivatives()


def test_from_callable_rejects_wrong_derivatives():
    with pytest.raises(InvalidArgumentError):
        KernelFunction.from_callable("bad", np.exp, (1.0, 1.0, 2.0, 1.0, 1.0))


def test_assumption_check_flags():
    assert KernelFunction.exp().assumption_check()
    assert not KernelFunction.cosh().assumption_check()
    assert not KernelFunction.quartic(1, 1, 1).assumption_check()
    flagged = KernelFunction.quartic(1, -1, 1).assumption_check()
    assert any("f''(0)" in msg for msg in flagged)


def test_quad_coeffs_exp_identity():
    cov = CovarianceSpec.identity(10)
    coeffs = quad_coeffs(KernelFunction.exp(), cov)
    assert coeffs.a_star == pytest.approx(math.e - 2.5, abs=1e-12)
    assert coeffs.a0 == pytest.approx(1.0 - 100.0 / 80_000.0, abs=1e-15)
    assert coeffs.a1 == pytest.approx(1.0 / 10.0 + 10.0 / (2.0 * 10.0**3), abs=1e-15)
    assert coeffs.a2 == pytest.approx(1.0 / 200.0 + 10.0 / (4.0 * 10.0**4), abs=1e-15)


def test_quad_coeffs_quartic_a_star():
    cov = CovarianceSpec.identity(12)
    coeffs = quad_coeffs(KernelFunction.quartic(1, 1, 1), cov)
    assert coeffs.a_star == pytest.approx(1.0 / 24.0, abs=1e-14)


def test_quad_coeffs_naive_drops_corrections():
    cov = CovarianceSpec.identity(10)
    naive = quad_coeffs(KernelFunction.exp(), cov, corrected=False)
    assert naive.a0 == 1.0
    assert naive.a1 == pytest.approx(0.1)
    assert naive.a2 == pytest.approx(1.0 / 200.0)
    assert naive.a_star == pytest.approx(math.e - 2.5, abs=1e-12)


def test_quad_coeffs_warns_for_nonpositive_offset():
    cov = CovarianceSpec.identity(8)
    with pytest.warns(AssumptionWarning):
        quad_coeffs(KernelFunction.quartic(1.0, 1.0, -1.0), cov)


@pytest.mark.parametrize("kernel, cov", [
    # exp(tau) overflows at tau = 900; a0, a1, a2 stay finite.
    (KernelFunction.exp(), CovarianceSpec.two_point(4, 0.0, 1800.0, 0.5)),
    # Tr(Sigma^2) overflows, and with it every corrected coefficient.
    (KernelFunction.quartic(1.0, 1.0, 1.0), CovarianceSpec.two_point(4, 0.0, 1e200, 0.5)),
], ids=["exp-a-star", "quartic-trace"])
def test_quad_coeffs_refuses_non_finite_coefficients(kernel, cov):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalFailureError, match="non-finite"):
            quad_coeffs(kernel, cov)


def test_kernel_matrix_orthogonal_rows():
    x = np.eye(4) * 2.0  # orthogonal rows
    k = kernel_matrix(x, KernelFunction.exp())
    off = k[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 1.0)
    assert np.allclose(np.diag(k), math.exp(1.0))


def test_kernel_matrix_identical_rows():
    d = 9
    row = np.zeros(d)
    row[0] = math.sqrt(d)
    x = np.stack([row, row])
    k = kernel_matrix(x, KernelFunction.exp())
    assert np.allclose(k, math.exp(1.0))


def test_kernel_matrix_against_extended_precision():
    data = sample_dataset(20, 10, CovarianceSpec.identity(10), MomentMatchedSampler.gaussian(), 1)
    kern = KernelFunction.exp()
    k = kernel_matrix(data, kern)
    xl = data.X.astype(np.longdouble)
    for i in range(20):
        for j in range(20):
            ip = math.fsum((xl[i] * xl[j]).tolist())
            assert abs(k[i, j] - math.exp(ip / 10.0)) < 1e-12


def test_quad_kernel_matrix_zero_data():
    coeffs = quad_coeffs(KernelFunction.exp(), CovarianceSpec.identity(3))
    k2 = quad_kernel_matrix(np.zeros((4, 3)), coeffs)
    expected = coeffs.a0 * np.ones((4, 4)) + coeffs.a_star * np.eye(4)
    assert np.allclose(k2, expected, atol=1e-15)


def test_quad_kernel_matrix_scalar_case():
    cov = CovarianceSpec.identity(3)
    coeffs = quad_coeffs(KernelFunction.exp(), cov)
    x = np.array([[1.0, 2.0, -1.0]])
    norm2 = (x @ x.T).item()
    k2 = quad_kernel_matrix(x, coeffs)
    assert k2[0, 0] == pytest.approx(
        coeffs.a0 + coeffs.a1 * norm2 + coeffs.a2 * norm2**2 + coeffs.a_star
    )


def test_quad_kernel_matrix_routes_agree():
    data = sample_dataset(30, 12, CovarianceSpec.identity(12), MomentMatchedSampler.gaussian(), 4)
    coeffs = quad_coeffs(KernelFunction.exp(), data.covariance)
    via_hadamard = quad_kernel_matrix(data, coeffs)
    via_tensor = quad_kernel_matrix_tensor(data, coeffs)
    assert np.abs(via_hadamard - via_tensor).max() <= 1e-10


def test_quad_kernel_decomposition_is_exact():
    data = sample_dataset(25, 9, CovarianceSpec.identity(9), MomentMatchedSampler.gaussian(), 6)
    coeffs = quad_coeffs(KernelFunction.exp(), data.covariance)
    k2 = quad_kernel_matrix(data, coeffs)
    gram = data.X @ data.X.T
    gram = (gram + gram.T) / 2.0
    recon = coeffs.a0 * np.ones_like(k2) + coeffs.a1 * gram + coeffs.a2 * gram**2 + coeffs.a_star * np.eye(25)
    assert np.abs(k2 - recon).max() == 0.0


def test_quad_kernel_eigenvalue_floor():
    data = sample_dataset(40, 10, CovarianceSpec.identity(10), MomentMatchedSampler.gaussian(), 8)
    coeffs = quad_coeffs(KernelFunction.exp(), data.covariance)
    assert min(coeffs.a0, coeffs.a1, coeffs.a2) >= 0
    k2 = quad_kernel_matrix(data, coeffs)
    eig_min = float(np.linalg.eigvalsh(k2)[0])
    assert eig_min >= coeffs.a_star - 1e-10


def test_spectral_norm_gap_trivial_cases():
    k = np.array([[1.0, 0.2], [0.2, 1.0]])
    assert spectral_norm_gap(k, k) == 0.0
    k2 = k - np.diag([3.0, -5.0])
    assert spectral_norm_gap(k, k2) == pytest.approx(5.0)


def test_spectral_norm_gap_single_entry_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spectral_norm_gap(np.array([[2.0]]), np.array([[5.5]])) == 3.5


def test_spectral_norm_gap_rejects_asymmetric_difference():
    k = np.array([[1.0, 0.2], [0.2, 1.0]])
    k2 = k.copy()
    k2[0, 1] += 0.5
    with pytest.raises(InvalidArgumentError, match="not symmetric"):
        spectral_norm_gap(k, k2)
    # Round-off asymmetry is averaged out: D = [[0, -e], [0, 0]] acts as
    # [[0, -e/2], [-e/2, 0]].
    k2[0, 1] = 0.2 + 1e-13
    e = k2[0, 1] - k[0, 1]
    assert spectral_norm_gap(k, k2) == pytest.approx(e / 2.0, rel=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("n", [2048, 2])
def test_spectral_norm_gap_rejects_non_finite(bad, n, capfd):
    # The check runs before Lanczos at every size, smallest and large alike.
    k = np.eye(n)
    k[0, 1] = k[1, 0] = bad
    with pytest.raises(NumericalFailureError, match="non-finite"):
        spectral_norm_gap(k, np.zeros((n, n)))
    out, err = capfd.readouterr()
    assert out == "" and err == ""


def test_spectral_norm_gap_matches_dense_at_d70():
    # n = 2450, above every size the acceptance ladders reach.
    d = 70
    kern = KernelFunction.exp()
    cov = CovarianceSpec.identity(d)
    data = sample_dataset(d * d // 2, d, cov, MomentMatchedSampler.gh_discrete(5), 0)
    k = kernel_matrix(data, kern)
    k2 = quad_kernel_matrix(data, quad_coeffs(kern, cov))
    dense = float(np.abs(np.linalg.eigvalsh(k - k2)).max())
    assert spectral_norm_gap(k, k2) == pytest.approx(dense, rel=1e-10)


def test_cross_kernel_values():
    data = sample_dataset(15, 6, CovarianceSpec.identity(6), MomentMatchedSampler.gaussian(), 5)
    kern = KernelFunction.exp()
    k = kernel_matrix(data, kern)
    row = cross_kernel(data, data.X[0], kern)
    assert row[0] == pytest.approx(k[0, 0], abs=1e-12)
    assert np.allclose(cross_kernel(data, np.zeros(6), kern), 1.0)
    xt = np.linspace(-1, 1, 6)
    vals = cross_kernel(data, xt, kern)
    for i in range(15):
        ip = math.fsum((data.X[i].astype(np.longdouble) * xt).tolist())
        assert abs(vals[i] - math.exp(ip / 6.0)) < 1e-12
    with pytest.raises(InvalidArgumentError):
        cross_kernel(data, np.zeros(5), kern)


def test_gap_decay_two_point_check():
    # Coarse two-rung version of the decay experiment; bounded entries keep
    # the extreme-diagonal statistic stable at small d.
    kern = KernelFunction.exp()
    sampler = MomentMatchedSampler.gh_discrete(5)
    medians = []
    for d in (16, 32):
        cov = CovarianceSpec.identity(d)
        coeffs = quad_coeffs(kern, cov)
        gaps = []
        for seed in range(3):
            data = sample_dataset(d * d // 2, d, cov, sampler, seed)
            gaps.append(spectral_norm_gap(kernel_matrix(data, kern), quad_kernel_matrix(data, coeffs)))
        medians.append(np.median(gaps))
    assert medians[1] < medians[0]
