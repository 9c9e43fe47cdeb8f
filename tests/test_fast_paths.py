"""The in-place kernel and teacher evaluations, the strip-built kernel and
gap matrices, the blocked risk prediction, the surrogate coefficients on float64 scalars,
the Lanczos spectral-norm gap, the one-sum companion solver, the GIL-free
BLAS/LAPACK layer and the in-place ridge factor against their plain forms."""

import ctypes
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qrlab.datagen import CovarianceSpec, MomentMatchedSampler, sample_dataset
from qrlab.kernels import (
    GAP_STRIP_ROWS,
    LANCZOS_TOL,
    KernelFunction,
    QuadCoeffs,
    _lanczos_gap,
    cross_kernel,
    gap_matrix,
    kernel_matrix,
    quad_coeffs,
    quad_kernel_matrix,
    shift_gap_matrix,
    spectral_norm_gap,
    strip_build_bytes,
)
from qrlab import _lapack
from qrlab.cli import main
from qrlab.errors import InvalidArgumentError, NumericalFailureError, SingularSystemError
from qrlab.krr import RISK_BLOCK_ROWS, RidgeFactor, TeacherModel, _predict, empirical_risk, empirical_risk_bytes
from qrlab.spectra import (
    STIELTJES_MAX_STEPS,
    STIELTJES_TOL,
    STIELTJES_WARM_STEPS,
    DiscreteLaw,
    companion_stieltjes,
)

COEF = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
POINTS = arrays(
    np.float64,
    array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
    elements=st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)
# Terms that underflow are resolved only to the subnormal spacing.
UNDERFLOW = 1e-300


def _assert_matches_terms(got, terms):
    expected = sum(terms)
    scale = sum(np.abs(term) for term in terms)
    assert np.shape(got) == np.shape(expected)
    assert np.all(np.abs(got - expected) <= 1e-12 * scale + UNDERFLOW)


def _poly_terms(poly, t):
    """The terms c_k t^k of ``poly``, f's coefficients in t from low to high degree."""
    return [np.full_like(t, c) if k == 0 else c * t**k for k, c in enumerate(poly)]


@settings(max_examples=200, deadline=None)
@given(COEF, COEF, COEF, POINTS)
def test_quartic_matches_power_form(b0, b2, b4, t):
    kernel = KernelFunction.quartic(b0, b2, b4)
    got = kernel.eval(t)
    _assert_matches_terms(got, [np.full_like(t, b0), b2 * t**2 / 2.0, b4 * t**4 / 24.0])
    assert kernel.poly == (b0, 0.0, b2 / 2.0, 0.0, b4 / 24.0)
    _assert_matches_terms(got, _poly_terms(kernel.poly, t))


@settings(max_examples=200, deadline=None)
@given(st.lists(COEF, min_size=1, max_size=8), POINTS)
def test_custom_poly_matches_power_form(coeffs, t):
    kernel = KernelFunction.custom_poly(coeffs)
    assert kernel.poly == tuple(coeffs)
    _assert_matches_terms(kernel.eval(t), _poly_terms(kernel.poly, t))


@pytest.mark.parametrize("b0, b2, b4", [(1.0, 6.0, 1.0), (1.0, 1.0, 0.5), (1.0, 1.0, 1.0)])
def test_quartic_kernel_matrix_is_horner_in_the_square(b0, b2, b4):
    d = 20
    x = np.random.default_rng(7).normal(size=(300, d))
    t = x @ x.T
    t /= d
    s = t * t
    expected = s * (b4 / 24.0)
    expected += b2 / 2.0
    expected *= s
    expected += b0
    assert np.array_equal(kernel_matrix(x, KernelFunction.quartic(b0, b2, b4)), expected)


def test_even_custom_poly_is_the_same_kernel_as_its_quartic():
    quartic = KernelFunction.quartic(1.0, 1.0, 0.5)
    poly = KernelFunction.custom_poly([1.0, 0.0, 0.5, 0.0, 0.020833333333333332])
    assert poly.poly == quartic.poly
    x = np.random.default_rng(8).normal(size=(300, 20))
    assert np.array_equal(kernel_matrix(x, poly), kernel_matrix(x, quartic))


def test_only_polynomial_kernels_carry_coefficients():
    assert KernelFunction.exp().poly is None
    assert KernelFunction.cosh().poly is None
    assert KernelFunction.from_callable("sq", lambda t: 1.0 + t * t, (1, 0, 2, 0, 0)).poly is None


KERNELS = [
    KernelFunction.quartic(1.0, 6.0, 1.0),
    KernelFunction.custom_poly([2.5]),
    KernelFunction.custom_poly([1.0, -0.5]),
    KernelFunction.custom_poly([1.0, 0.5, 0.25, 0.125, 0.0625]),
    KernelFunction.exp(),
    KernelFunction.cosh(),
]


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("shape", [(), (0,), (5,), (3, 4)])
def test_eval_keeps_argument_and_shape(kernel, shape):
    t = np.linspace(-1.5, 1.5, int(np.prod(shape))).reshape(shape)
    before = t.copy()
    out = kernel.eval(t)
    assert np.array_equal(t, before)
    assert np.shape(out) == shape
    if shape:
        assert not np.shares_memory(out, t)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_scalar_in_float_out(kernel):
    for t in (0.3, np.float64(-0.7), 0):
        out = kernel.eval(t)
        assert type(out) is float
        assert out == kernel.eval(np.array([t]))[0]


# Memory layouts of the data matrix: C order, Fortran order, and views that
# skip every other row or column.
LAYOUTS = {
    "C": lambda x: x,
    "F": np.asfortranarray,
    "row_strided": lambda x: np.repeat(x, 2, axis=0)[::2],
    "col_strided": lambda x: np.repeat(x, 2, axis=1)[:, ::2],
}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 5), st.integers(1, 6),
       st.sampled_from(KERNELS), st.sampled_from(sorted(LAYOUTS)))
def test_kernel_blocks_match_entrywise_definition(seed, n, m, d, kernel, layout):
    rng = np.random.default_rng(seed)
    x = LAYOUTS[layout](rng.normal(size=(n, d)))
    y = rng.normal(size=(m, d))
    cross_ref = np.array([[kernel.eval(float(y[i] @ x[j]) / d) for j in range(n)] for i in range(m)])
    gram_ref = np.array([[kernel.eval(float(x[i] @ x[j]) / d) for j in range(n)] for i in range(n)])
    np.testing.assert_allclose(cross_kernel(x, y, kernel), cross_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(cross_kernel(x, y[0], kernel), cross_ref[0], rtol=1e-12, atol=1e-12)
    k = kernel_matrix(x, kernel)
    np.testing.assert_allclose(k, gram_ref, rtol=1e-12, atol=1e-12)
    # Exactly symmetric without an explicit (G + G')/2.
    assert np.array_equal(k, k.T)
    k2 = quad_kernel_matrix(x, QuadCoeffs(*rng.normal(size=4)))
    assert np.array_equal(k2, k2.T)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_desk_scale_gram_is_exactly_symmetric(layout):
    # BLAS blocks large products differently from the small ones above.
    x = LAYOUTS[layout](np.random.default_rng(7).normal(size=(1800, 60)))
    k = kernel_matrix(x, KernelFunction.exp())
    assert np.array_equal(k, k.T)
    k2 = quad_kernel_matrix(x, QuadCoeffs(1.0, 0.5, 0.25, 0.125))
    assert np.array_equal(k2, k2.T)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_surrogate_matches_written_formula(layout):
    # The in-place build keeps the rounding of (a0 + a1 G) + a2 (G o G).
    rng = np.random.default_rng(11)
    for n, d in [(1, 1), (7, 3), (300, 24)]:
        coeffs = QuadCoeffs(*rng.normal(size=4))
        x = LAYOUTS[layout](rng.normal(size=(n, d)))
        gram = x @ x.T
        want = coeffs.a0 + coeffs.a1 * gram + coeffs.a2 * (gram * gram)
        want[np.diag_indices(n)] += coeffs.a_star
        assert np.array_equal(quad_kernel_matrix(x, coeffs), want)


def _assert_difference_of(diff, k, k2):
    # Rounding differs from K - K2 (gemm strips against one syrk Gram), so
    # compare against the scale of the two terms that were subtracted.
    scale = max(np.abs(k).max(), np.abs(k2).max())
    assert np.abs(diff - (k - k2)).max() <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, GAP_STRIP_ROWS, GAP_STRIP_ROWS + 1, 3 * GAP_STRIP_ROWS - 5]),
       st.integers(1, 6), st.sampled_from(KERNELS), st.sampled_from(sorted(LAYOUTS)))
def test_gap_matrix_matches_explicit_difference(seed, n, d, kernel, layout):
    # n = 1, exactly one strip, one strip and a row, and several strips.
    rng = np.random.default_rng(seed)
    x = LAYOUTS[layout](rng.normal(size=(n, d)))
    coeffs, naive = QuadCoeffs(*rng.normal(size=4)), QuadCoeffs(*rng.normal(size=4))
    k = kernel_matrix(x, kernel)
    diff = gap_matrix(x, kernel, coeffs)
    _assert_difference_of(diff, k, quad_kernel_matrix(x, coeffs))
    assert np.array_equal(diff, diff.T)
    shift_gap_matrix(diff, x, coeffs, naive)
    _assert_difference_of(diff, k, quad_kernel_matrix(x, naive))
    assert np.array_equal(diff, diff.T)


def test_gap_matrix_fails_at_the_overflowing_strip(monkeypatch):
    import scipy.sparse.linalg

    def forbidden(*args, **kwargs):
        raise AssertionError("Lanczos called on a non-finite K - K2")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", forbidden)
    # Only K's entry (300, 300) overflows: t = |x_300|^2/d = 1e80 and t^4 > 1e308,
    # while the off-diagonal t of row 300 stays near 1e40.
    x = np.random.default_rng(5).normal(size=(3 * GAP_STRIP_ROWS, 4))
    x[300] *= 2e40 / np.linalg.norm(x[300])
    first = 300 - 300 % GAP_STRIP_ROWS
    with pytest.raises(NumericalFailureError, match="non-finite entries in rows %d to %d"
                       % (first, first + GAP_STRIP_ROWS - 1)):
        spectral_norm_gap(gap_matrix(x, KernelFunction.quartic(1.0, 1.0, 1.0), QuadCoeffs(1.0, 0.5, 0.25, 0.1)))


@pytest.mark.parametrize("kernel", [KernelFunction.exp(), KernelFunction.quartic(1.0, 6.0, 1.0)], ids=lambda k: k.name)
def test_gap_matrix_holds_one_n_by_n_array(kernel):
    n, d = 8 * GAP_STRIP_ROWS, 8
    x = np.random.default_rng(6).normal(size=(n, d))
    coeffs, naive = QuadCoeffs(1.0, 0.5, 0.25, 0.1), QuadCoeffs(1.0, 0.4, 0.2, 0.1)
    tracemalloc.start()
    try:
        diff = gap_matrix(x, kernel, coeffs)
        shift_gap_matrix(diff, x, coeffs, naive)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Within the estimate approx-norm's capacity check uses, which is itself
    # below the two n x n arrays of K - K2.
    assert peak <= strip_build_bytes(n, d) < 2 * 8 * n * n


@pytest.mark.parametrize("kernel", [KernelFunction.exp(), KernelFunction.quartic(1.0, 6.0, 1.0)], ids=lambda k: k.name)
def test_kernel_matrix_is_built_in_place_by_strips(kernel):
    # f overwrites the scaled Gram matrix strip by strip: entry for entry the
    # same as f of the whole matrix, for K and for a cross-kernel block, with
    # one n x n array and a few strips at the peak (1.14 n x n at n = 1800,
    # where the whole-matrix evaluation held 3.0).
    n, d = 1800, 60
    rng = np.random.default_rng(11)
    x, x_test = rng.normal(size=(n, d)), rng.normal(size=(RISK_BLOCK_ROWS, d))
    assert np.array_equal(kernel_matrix(x, kernel), kernel.eval(x @ x.T / d))
    assert np.array_equal(cross_kernel(x, x_test, kernel), kernel.eval(x_test @ x.T / d))
    assert np.array_equal(cross_kernel(x, x_test[0], kernel), kernel.eval(x @ x_test[0] / d))
    tracemalloc.start()
    try:
        kernel_matrix(x, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (n * n + 2 * GAP_STRIP_ROWS * n) + 4096
    assert peak <= strip_build_bytes(n, d)


def test_risk_block_rows_predict_bit_identically_on_one_blas_thread(monkeypatch):
    # Pins RISK_BLOCK_ROWS at the desk shape for both routes of _predict:
    # under one BLAS thread, power sums in blocks equal power sums over the
    # whole 4000-row block bit for bit, and the cross-kernel route equals
    # the whole cross-kernel block's product.
    data = sample_dataset(1800, 60, CovarianceSpec.identity(60), MomentMatchedSampler.gaussian(), 0)
    rng = np.random.default_rng(3)
    x_test, w = rng.standard_normal((4000, 60)), rng.standard_normal(1800)
    polynomials = (KernelFunction.quartic(1.0, 6.0, 1.0), KernelFunction.custom_poly([1, 0, 3, 0, 0.04, 0.01]))
    cosh = KernelFunction.cosh()
    with _lapack.one_lapack_thread():
        blocked = [_predict(data, x_test, kernel, w) for kernel in (*polynomials, cosh)]
        whole_cosh = cross_kernel(data, x_test, cosh) @ w
        monkeypatch.setattr("qrlab.krr.RISK_BLOCK_ROWS", len(x_test))
        whole = [_predict(data, x_test, kernel, w) for kernel in polynomials]
    for kernel, in_blocks, at_once in zip(polynomials, blocked, whole):
        assert np.array_equal(in_blocks, at_once), kernel.name
    assert np.array_equal(blocked[-1], whole_cosh)


# Both routes of _predict: power sums for the polynomial kernels (even, with
# one squaring; constant; linear; with a t^5 term, which holds the running
# power in a second buffer) and the cross-kernel product for cosh.
PREDICT_KERNELS = [
    KernelFunction.quartic(1.0, 6.0, 1.0),
    KernelFunction.custom_poly([2.5]),
    KernelFunction.custom_poly([1.0, -0.5]),
    KernelFunction.custom_poly([1.0, 0.0, 3.0, 0.0, 0.04, 0.01]),
    KernelFunction.custom_poly([1.0, 0.5, 0.25, 0.125, 0.0625]),
    KernelFunction.cosh(),
]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3 * RISK_BLOCK_ROWS + 7), st.integers(0, 2**32 - 1), st.sampled_from(PREDICT_KERNELS))
@example(1, 0, PREDICT_KERNELS[0])
@example(RISK_BLOCK_ROWS - 1, 0, PREDICT_KERNELS[0])
@example(RISK_BLOCK_ROWS, 0, PREDICT_KERNELS[0])
@example(RISK_BLOCK_ROWS + 1, 0, PREDICT_KERNELS[0])
@example(3 * RISK_BLOCK_ROWS + 7, 0, PREDICT_KERNELS[0])
@example(RISK_BLOCK_ROWS + 1, 0, PREDICT_KERNELS[1])
@example(RISK_BLOCK_ROWS + 1, 0, PREDICT_KERNELS[2])
@example(RISK_BLOCK_ROWS + 1, 0, PREDICT_KERNELS[3])
@example(RISK_BLOCK_ROWS + 1, 0, PREDICT_KERNELS[5])
def test_blocked_prediction_matches_the_whole_block(n_test, seed, kernel):
    rng = np.random.default_rng(seed)
    x, x_test, w = rng.normal(size=(40, 6)), rng.normal(size=(n_test, 6)), rng.normal(size=40)
    cross = cross_kernel(x, x_test, kernel)
    # Relative to the sum of the terms' magnitudes, which bounds the rounding
    # of any order of the sum: sum_k |c_k| |G/d|^{ok} @ |w| for a polynomial,
    # |f(G/d)| @ |w| otherwise.
    if kernel.poly is None:
        scale = np.abs(cross) @ np.abs(w)
    else:
        gram = np.abs(x_test @ x.T / x.shape[1])
        scale = sum(abs(c) * (gram**k @ np.abs(w)) for k, c in enumerate(kernel.poly))
    assert np.all(np.abs(_predict(x, x_test, kernel, w) - cross @ w) <= 1e-13 * scale)


def test_empirical_risk_peak_is_the_kernel_build():
    d, n, n_test, n_repl = 60, 1800, 4000, 2
    data = sample_dataset(n, d, CovarianceSpec.identity(d), MomentMatchedSampler.gaussian(), 0)
    # quartic predicts by power sums, cosh through the cross-kernel blocks.
    for kernel in (KernelFunction.quartic(1.0, 6.0, 1.0), KernelFunction.cosh()):
        tracemalloc.start()
        try:
            empirical_risk(data, kernel, "deterministic_sigma", 1.0, 0.5, n_test, n_repl, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # K is built in place, factored in place and freed before the
        # predictions, so the peak is K beside its last build strips (1.14
        # n x n arrays for quartic, 1.07 for cosh; 2.04 while the fit held a
        # Cholesky copy of K, 2.50 while the predictions ran beside K and
        # its factor, 3.0 while f was applied to the whole Gram matrix).
        assert peak <= 1.2 * 8 * n * n, kernel.name
        assert peak <= empirical_risk_bytes(n, d, n_test, n_repl), kernel.name


def _coeffs_on_python_floats(kernel, cov, corrected):
    """The surrogate coefficients written out on Python floats; None where a
    power overflows (Python raises where float64 gives inf)."""
    d, tr2, tau = cov.d, cov.trace_square(), cov.tau()
    f0, f1, f2, f3, f4 = kernel.derivs0
    try:
        if corrected:
            a0 = f0 - f4 * tr2**2 / (8.0 * d**4)
            a1 = f1 / d + f3 * tr2 / (2.0 * d**3)
            a2 = f2 / (2.0 * d**2) + f4 * tr2 / (4.0 * d**4)
        else:
            a0, a1, a2 = f0, f1 / d, f2 / (2.0 * d**2)
        return QuadCoeffs(a0, a1, a2, kernel.eval(tau) - f0 - f1 * tau - 0.5 * f2 * tau**2)
    except OverflowError:
        return None


# Diagonal values from moderate (every coefficient finite) to past the
# overflow of exp(tau) (tau > 709) and of Tr(Sigma^2)^2 (values > 1e76).
DIAG_VALUE = st.one_of(st.floats(1e-3, 10.0), st.floats(1e-3, 2000.0), st.floats(1e-3, 1e200))


@pytest.mark.filterwarnings("ignore::qrlab.errors.AssumptionWarning")
@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.sampled_from([KernelFunction.exp(), KernelFunction.cosh()]),
        st.builds(KernelFunction.quartic, COEF, COEF, COEF),
        st.builds(KernelFunction.custom_poly, st.lists(COEF, min_size=1, max_size=6)),
    ),
    st.integers(1, 199), DIAG_VALUE, DIAG_VALUE, st.floats(0.0, 1.0),
    st.one_of(st.none(), st.integers(0, 2**32 - 1)), st.booleans(), st.booleans(),
)
def test_quad_coeffs_match_python_float_formula(kernel, d, v1, v2, p, seed, two_point, corrected):
    if two_point:
        cov = CovarianceSpec.two_point(d, v1, v2, p, seed)
    else:
        cov = CovarianceSpec.uniform(d, min(v1, v2), max(v1, v2), seed)
    with np.errstate(all="ignore"):
        want = _coeffs_on_python_floats(kernel, cov, corrected)
    if want is not None and all(map(math.isfinite, astuple(want))):
        # Bit for bit: float64 scalars take the same operations as Python floats.
        assert quad_coeffs(kernel, cov, corrected) == want
    else:
        with pytest.raises(NumericalFailureError, match="non-finite"):
            quad_coeffs(kernel, cov, corrected)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 8), COEF, COEF, COEF)
def test_teacher_predict_matches_row_loop(seed, m, d, c0, c1, c2):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d))
    g = g + g.T
    beta = rng.normal(size=d)
    beta /= np.linalg.norm(beta)
    c1 = c1 or 1.0  # keep the linear term
    teacher = TeacherModel(c0, c1, beta, c2, g)
    x = rng.normal(size=(m, d))
    ref = np.array([c0 + c1 * (row @ beta) + c2 / d * (row @ g @ row) for row in x])
    abs_x = np.abs(x)
    scale = abs(c0) + np.abs(c1 * (x @ beta)) + abs(c2 / d) * np.einsum("ij,jk,ik->i", abs_x, np.abs(g), abs_x)
    got = teacher.predict(x)
    assert got.shape == (m,)
    assert np.all(np.abs(got - ref) <= 1e-12 * scale + UNDERFLOW)
    assert teacher.predict(x[0]) == pytest.approx(ref[0], rel=0, abs=1e-12 * scale[0] + UNDERFLOW)


def _symmetric(m):
    return (m + m.T) / 2.0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    top=st.sampled_from(["random", "plus_minus", "near_tie"]),
)
def test_spectral_norm_gap_matches_dense_eigvalsh(n, seed, top):
    rng = np.random.default_rng(seed)
    b = _symmetric(rng.normal(size=(n, n)))
    if top == "random":
        a = _symmetric(rng.normal(size=(n, n)))
    else:
        # a - b has its two largest |eigenvalues| at +-lam or tied to 1e-3.
        eigs = rng.uniform(-1.0, 1.0, n)
        lam = rng.uniform(1.5, 3.0)
        eigs[0] = lam
        if n > 1:
            eigs[1] = -lam if top == "plus_minus" else lam * (1.0 - 1e-3)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a = b + _symmetric((q * eigs) @ q.T)
    want = float(np.abs(np.linalg.eigvalsh(_symmetric(a - b))).max())
    assert spectral_norm_gap(a - b) == pytest.approx(want, rel=1e-10)
    # The solve reads a C-order upper triangle; other layouts are copied once.
    assert spectral_norm_gap(np.asfortranarray(a - b)) == pytest.approx(want, rel=1e-10)


def test_lanczos_tolerance_is_inside_the_certificate():
    # ARPACK stops at a Ritz estimate of tol |theta|; the certificate then
    # asks |D v - theta v| <= 1e-8 max(1, |theta|).
    assert 0.0 < LANCZOS_TOL < 1e-8


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1), start=st.sampled_from(["random", "eigenvector"]))
def test_warm_started_gap_matches_dense_eigvalsh(n, seed, start):
    # The cold route and the warm-started helper both find max |eigenvalue|.
    # The adversarial start is an eigenvector of the eigenvalue of median
    # magnitude: Lanczos from it alone can return that eigenvalue, whose
    # residual passes the certificate, or stall on it; the seeded blend
    # restores a component along every eigen-direction.
    rng = np.random.default_rng(seed)
    diff = _symmetric(rng.normal(size=(n, n)))
    eigs, vecs = np.linalg.eigh(diff)
    want = float(np.abs(eigs).max())
    v = rng.normal(size=n) if start == "random" else vecs[:, np.argsort(np.abs(eigs))[(n - 1) // 2]]
    assert spectral_norm_gap(diff) == pytest.approx(want, rel=1e-10)
    warm = _lanczos_gap(diff, start=v)
    assert warm.gap == pytest.approx(want, rel=1e-10)
    assert 0 < warm.matvecs and warm.residual <= warm.bound


@pytest.mark.parametrize("n", [3, 21, 60])
def test_warm_start_from_an_exact_null_vector_recovers_the_norm(n):
    # D e_k = 0 exactly: ARPACK started from e_k alone stops with "starting
    # vector is zero"; the blend still reaches the extreme eigenvalue 3.
    eigs = np.linspace(-1.0, 1.0, n)
    eigs[n // 2], eigs[-1] = 0.0, 3.0
    diff = np.diag(eigs)
    null = np.zeros(n)
    null[n // 2] = 1.0
    assert _lanczos_gap(diff, start=null).gap == pytest.approx(3.0, rel=1e-10)


def test_warm_started_naive_gaps_match_a_cold_solve_at_the_ladder_shapes():
    # The gap-ladder benchmark's shapes: approx-norm's naive solve starts from
    # the corrected solve's Ritz vector and lands where a cold solve does.
    kernel, sampler = KernelFunction.exp(), MomentMatchedSampler.gh_discrete(5)
    for d in (24, 48, 64):
        cov = CovarianceSpec.identity(d)
        coeffs, naive = quad_coeffs(kernel, cov), quad_coeffs(kernel, cov, corrected=False)
        for seed in (0, 1):
            data = sample_dataset(d * d // 2, d, cov, sampler, seed)
            diff = gap_matrix(data, kernel, coeffs)
            corrected = _lanczos_gap(diff)
            assert corrected.gap == spectral_norm_gap(diff)
            shift_gap_matrix(diff, data, coeffs, naive)
            warm = _lanczos_gap(diff, start=corrected.vector)
            assert warm.gap == pytest.approx(spectral_norm_gap(diff), rel=1e-12)
            assert warm.residual <= warm.bound


def _two_sum_companion(z, alpha, nu, initial=None):
    """Companion solve that sums both atom integrals at every iterate and
    again at every Newton candidate, one call per continuation stage: the
    plain form of ``companion_stieltjes``, same steps and same floating-point
    operations (one reciprocal 1/(1 + a m) per iterate, then complex dot
    products with the weighted atoms), with a budget per stage. A warm start
    from ``initial`` runs the stage z alone on the smaller budget."""
    wa = (nu.weights * nu.atoms).astype(complex)
    wa2 = (nu.weights * nu.atoms**2).astype(complex)

    def frac_integrals(m):
        inv = 1.0 / (1.0 + nu.atoms * m)
        return complex(inv @ wa), complex((inv * inv) @ wa2)

    def solve(z, m, budget):
        on_axis = z.imag == 0.0
        resid = math.inf
        for it in range(1, budget + 1):
            f1, f2 = frac_integrals(m)
            r = z + 1.0 / m - alpha * f1
            resid = abs(r)
            # Relative to the largest term, max(|z|, |1/m|), at every stage.
            if resid <= STIELTJES_TOL * max(abs(z), abs(1.0 / m)):
                return m, it, resid, True
            stepped = False
            dr = -1.0 / m**2 + alpha * f2
            if dr != 0:
                cand = m - r / dr
                ok = np.isfinite(cand.real) and np.isfinite(cand.imag) and cand != 0
                if ok and not on_axis and cand.imag < -1e-13 * abs(cand):
                    ok = False
                if ok and on_axis and cand.real <= 0:
                    ok = False
                if ok and abs(z + 1.0 / cand - alpha * frac_integrals(cand)[0]) < 0.9 * resid:
                    m = cand
                    stepped = True
            if not stepped:
                denom = alpha * f1 - z
                if denom == 0:
                    raise NumericalFailureError("degenerate fixed-point map")
                m = 0.5 * (m + 1.0 / denom)
                if on_axis:
                    m = complex(max(m.real, 1e-300), 0.0)
        return m, budget, resid, False

    on_axis = z.imag == 0.0
    stages = []
    level = nu.support_max * (1.0 + math.sqrt(alpha)) ** 2
    level = level if level > 0 else 1.0
    while level > 4.0 * (abs(z.real) if on_axis else z.imag):
        stages.append(complex(-level, 0.0) if on_axis else complex(z.real, level))
        level /= 4.0
    stages.append(z)
    m = -1.0 / stages[0]
    budget = STIELTJES_MAX_STEPS
    if initial is not None:
        stages, m, budget = [z], complex(initial), STIELTJES_WARM_STEPS
    if on_axis and m.real <= 0:
        m = -1.0 / z.real
    used = 0
    for stage in stages:
        m, its, resid, converged = solve(stage, m, budget)
        used += its
        if not converged:
            raise NumericalFailureError("did not converge")
    if not on_axis and m.imag < -1e-10 * abs(m):
        raise NumericalFailureError("Nevanlinna violation")
    return m, used, resid


def _outcome(solve):
    try:
        return solve()
    except NumericalFailureError:
        return "failed"


UPPER_HALF_PLANE = st.builds(complex, st.floats(-5.0, 20.0), st.floats(-8.0, 1.0).map(lambda e: 10.0**e))
NEGATIVE_AXIS = st.floats(-4.0, 2.0).map(lambda e: complex(-(10.0**e), 0.0))
WARM_START = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).filter(lambda m: abs(m) > 1e-3)


@settings(max_examples=150, deadline=None)
@given(
    atoms=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=12),
    raw_weights=st.lists(st.floats(0.05, 1.0), min_size=12, max_size=12),
    alpha=st.floats(0.05, 4.0),
    z=st.one_of(UPPER_HALF_PLANE, NEGATIVE_AXIS),
    initial=st.one_of(st.none(), WARM_START),
)
# On the negative axis with 1/mt below 1: the stopping rule relative at every scale.
@example(atoms=[0.0, 1.0], raw_weights=[0.5] * 12, alpha=0.5, z=complex(-1e-3, 0.0), initial=None)
def test_companion_matches_two_sum_loop(atoms, raw_weights, alpha, z, initial):
    w = np.array(raw_weights[: len(atoms)])
    nu = DiscreteLaw(np.array(atoms), w / w.sum())

    def one_sum():
        ev = companion_stieltjes(z, alpha, nu, initial=initial)
        return ev.m_tilde, ev.iterations, ev.residual

    got = _outcome(one_sum)
    want = _outcome(lambda: _two_sum_companion(z, alpha, nu, initial))
    # Bit for bit: equal floats, including the iteration count.
    assert got == want


def _spd_matrix(n, seed):
    m = np.random.default_rng(seed).normal(size=(n, n))
    return m @ m.T / n + np.eye(n)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), rhs=st.sampled_from([0, 1, 3]))
@example(n=1, seed=0, rhs=0)
@example(n=1, seed=0, rhs=2)
def test_lapack_cholesky_is_bit_equal_to_scipy(n, seed, rhs):
    # The same dpotrf/dpotrs of the same bundled library as scipy's f2py
    # wrappers; rhs 0 is one label n-vector, otherwise an n x rhs block.
    import scipy.linalg

    a = _spd_matrix(n, seed)
    b = np.random.default_rng(seed + 1).normal(size=(n, rhs) if rhs else n)
    want = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    factor = np.array(a, order="F")
    assert _lapack.potrf(factor) == 0
    assert np.array_equal(factor, want[0])
    x = np.array(b, order="F")
    _lapack.potrs(factor, x)
    assert np.array_equal(x, scipy.linalg.cho_solve(want, b, check_finite=False))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1), shift=st.floats(1e-3, 5.0))
@example(n=1, seed=0, shift=1.0)
def test_ridge_factor_on_a_non_pd_system_fails_as_scipy_does(n, seed, shift):
    # K + lambda I with its smallest eigenvalue at -shift.
    import scipy.linalg

    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = rng.uniform(0.5, 2.0, n)
    eigs[rng.integers(n)] = -shift
    k = _symmetric((q * eigs) @ q.T) - 0.25 * np.eye(n)
    shifted = np.array(k + 0.25 * np.eye(n), order="F")
    with pytest.raises(scipy.linalg.LinAlgError, match=r"(\d+)-th leading minor") as scipy_err:
        scipy.linalg.cho_factor(shifted.copy(order="F"), lower=True, check_finite=False)
    assert _lapack.potrf(shifted) == int(str(scipy_err.value).split("-th")[0])
    with pytest.raises(SingularSystemError) as err:
        RidgeFactor(k, 0.25)
    assert err.value.lambda_min == float(np.linalg.eigvalsh(k + 0.25 * np.eye(n))[0])


def _layout(k, layout):
    """k as a C-order, F-order or strided array of the same values."""
    if layout == "strided":
        base = np.zeros((2 * len(k), 2 * len(k)))
        base[::2, ::2] = k
        return base[::2, ::2]
    return np.array(k, order=layout)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    rhs=st.sampled_from([0, 1, 3]),
    layout=st.sampled_from(["C", "F", "strided"]),
)
@example(n=1, seed=0, rhs=0, layout="C")
@example(n=7, seed=0, rhs=3, layout="strided")
def test_ridge_factor_in_place_is_bit_equal_to_scipy(n, seed, rhs, layout):
    # One label n-vector (rhs 0) or an n x rhs block. A C-order K is factored
    # in place; any other layout on one copy, which leaves the caller's K.
    import scipy.linalg

    k = _spd_matrix(n, seed) - 0.5 * np.eye(n)
    y = np.random.default_rng(seed + 1).normal(size=(n, rhs) if rhs else n)
    want = scipy.linalg.cho_solve(
        scipy.linalg.cho_factor(k + 0.5 * np.eye(n), lower=True, check_finite=False), y, check_finite=False
    )
    given_k = _layout(k, layout)
    # Every 1 x 1 array is C-contiguous.
    in_place = given_k.flags.c_contiguous
    assert in_place == (layout == "C" or n == 1)
    w, ratio = RidgeFactor(given_k, 0.5).solve(y)
    assert np.array_equal(w, want) and w.shape == y.shape and ratio <= 1.0
    # The strict lower triangle is K's in every case; a K factored in place
    # holds the factor on and above its diagonal.
    assert np.array_equal(np.tril(given_k, -1), np.tril(k, -1))
    assert np.array_equal(given_k, k) != in_place


def test_ridge_solve_writes_nothing():
    # K is factored in place, so it is the factor's own buffer; frozen after
    # that, every solve (a label vector and a block, from one thread and from
    # several at once) must leave it alone and give cho_solve's bits.
    import scipy.linalg

    n = 300
    k = _spd_matrix(n, 2)
    cho = scipy.linalg.cho_factor(k + 0.5 * np.eye(n), lower=True, check_finite=False)
    factor = RidgeFactor(k, 0.5)
    k.flags.writeable = False
    rng = np.random.default_rng(3)
    labels = [rng.normal(size=n), rng.normal(size=(n, 4))]
    alone = [factor.solve(y).weights for y in labels]
    for w, y in zip(alone, labels):
        assert np.array_equal(w, scipy.linalg.cho_solve(cho, y, check_finite=False))
    # More threads than cores, switching often.
    barrier = threading.Barrier(4, timeout=60.0)
    side_by_side = [None] * 4

    def solve(i):
        barrier.wait()
        side_by_side[i] = [factor.solve(y).weights for y in labels * 5]

    threads = [threading.Thread(target=solve, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and None not in side_by_side
    for weights in side_by_side:
        assert all(np.array_equal(w, want) for w, want in zip(weights, alone * 5))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
def test_symv_reads_the_lower_triangle_alone(n, seed):
    rng = np.random.default_rng(seed)
    a = _symmetric(rng.normal(size=(n, n)))
    v = rng.normal(size=n)
    got = _lapack.symv(a, v)
    want = a @ v
    assert np.linalg.norm(got - want) <= 1e-13 * max(np.linalg.norm(want), 1e-300)
    a[np.triu_indices(n, 1)] = np.nan
    assert np.array_equal(_lapack.symv(a, v), got)


def _fallback_eigen_routine():
    """What ``_lapack`` resolves on a library that exports no two-stage
    driver: the one-stage ``dsyevd`` of the same handle."""
    return "dsyevd", _lapack._routine("dsyevd_", 11)


EIGEN_ROUTINES = {"resolved": (_lapack.EIGEN_DRIVER, _lapack._dsyevd), "fallback": _fallback_eigen_routine()}


def _address(routine):
    return ctypes.cast(routine, ctypes.c_void_p).value


def test_eigen_routine_falls_back_to_one_stage_dsyevd():
    two_stage = _lapack._library_symbol("dsyevd_2stage_")
    assert _lapack.EIGEN_DRIVER == ("dsyevd" if two_stage is None else "dsyevd_2stage")
    assert _address(_lapack._dsyevd) == _lapack._library_symbol(_lapack.EIGEN_DRIVER + "_")
    assert EIGEN_ROUTINES["fallback"][0] == "dsyevd"
    assert _address(EIGEN_ROUTINES["fallback"][1]) == _lapack._library_symbol("dsyevd_")


def _handle_without_lapack():
    """A real library handle through which no BLAS, LAPACK or OpenBLAS symbol
    resolves: the one of the ctypes extension itself."""
    import _ctypes

    return ctypes.CDLL(_ctypes.__file__)


def test_lapack_threads_reads_the_library(monkeypatch):
    # OpenBLAS sets its thread count from the environment as it loads.
    script = "from qrlab import _lapack; print(_lapack.lapack_threads())"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"
    assert _lapack.lapack_threads() >= 1
    monkeypatch.setattr(_lapack, "_SCIPY_THREADS", _lapack._thread_count(_handle_without_lapack(), ""))
    assert _lapack.lapack_threads() is None


def test_a_missing_routine_is_an_import_error(monkeypatch):
    handle = _handle_without_lapack()
    monkeypatch.setattr(_lapack, "_LIBRARY", handle)
    with pytest.raises(ImportError, match="exports no dpotrf_") as err:
        _lapack._routine("dpotrf_", 5)
    assert handle._name in str(err.value)


def _eigen_test_matrix(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return _symmetric(rng.normal(size=(n, n)))
    if kind == "diagonal":
        return np.diag(rng.normal(size=n))
    if kind == "rank_one":
        v = rng.normal(size=n)
        return np.outer(v, v)
    # Three distinct eigenvalues, each repeated, in a random basis.
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return _symmetric((q * rng.choice(rng.normal(size=3), size=n)) @ q.T)


@pytest.mark.parametrize("routine", sorted(EIGEN_ROUTINES))
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 120),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "diagonal", "rank_one", "repeated"]),
    scale=st.sampled_from([1.0, 1e150, 1e-150]),
    order=st.sampled_from("CF"),
)
@example(n=0, seed=0, kind="random", scale=1.0, order="C")
@example(n=1, seed=0, kind="rank_one", scale=1e150, order="F")
def test_syevd_matches_numpy_eigvalsh(routine, n, seed, kind, scale, order):
    m = _eigen_test_matrix(kind, n, seed) * scale
    want = np.linalg.eigvalsh(m.copy())
    a = np.array(m, order=order)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_lapack, "EIGEN_DRIVER", EIGEN_ROUTINES[routine][0])
        patch.setattr(_lapack, "_dsyevd", EIGEN_ROUTINES[routine][1])
        got = _lapack.syevd(a)
    assert got.shape == (n,) and np.all(np.diff(got) >= 0)
    peak = np.abs(want).max() if n else 0.0
    assert np.abs(got - want).max(initial=0.0) <= 4 * np.finfo(float).eps * n * peak


def test_eigensolver_failure_is_a_numerical_failure(monkeypatch):
    from qrlab.spectra import esd

    def unconverged(*args):
        ctypes.c_int.from_address(args[10]).value = 2

    monkeypatch.setattr(_lapack, "_dsyevd", ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 11)(unconverged))
    with pytest.raises(NumericalFailureError, match="eigensolver failed: .* left 2 off-diagonal elements"):
        esd(np.eye(3))


def test_lapack_layer_rejects_the_wrong_layout():
    spd = _spd_matrix(6, 0)
    vec = np.ones(6)
    factor = np.array(spd, order="F")
    assert _lapack.potrf(factor) == 0
    frozen = np.array(spd, order="F")
    frozen.flags.writeable = False
    wrong = {
        "potrf: a": [
            lambda: _lapack.potrf(np.array(spd, order="C")),
            lambda: _lapack.potrf(np.asfortranarray(spd, dtype=np.float32)),
            lambda: _lapack.potrf(frozen),
            lambda: _lapack.potrf(np.zeros((3, 4), order="F")),
        ],
        "potrs: c": [lambda: _lapack.potrs(np.ascontiguousarray(factor), vec.copy())],
        "potrs: b": [
            lambda: _lapack.potrs(factor, np.ones((6, 2))),
            lambda: _lapack.potrs(factor, np.ones(12)[::2]),
            lambda: _lapack.potrs(factor, np.ones(5)),
        ],
        "symv: a": [
            lambda: _lapack.symv(np.asfortranarray(spd), vec),
            lambda: _lapack.symv(spd[:, :5], vec[:5]),
        ],
        "symv: x": [
            lambda: _lapack.symv(spd, np.ones(12)[::2]),
            lambda: _lapack.symv(spd, np.ones((6, 1))),
            lambda: _lapack.symv(spd, np.ones(5)),
        ],
        "syevd: a": [
            lambda: _lapack.syevd(spd[::2, ::2]),
            lambda: _lapack.syevd(np.array(spd, dtype=np.float32)),
            lambda: _lapack.syevd(frozen),
            lambda: _lapack.syevd(np.zeros((3, 4))),
            lambda: _lapack.syevd(np.zeros(6)),
        ],
    }
    for what, calls in wrong.items():
        for call in calls:
            with pytest.raises(InvalidArgumentError, match=what):
                call()


GIL_BIN_S = 5e-5
# On two CPUs, the calls of the tests below read 0.003-0.12 on the share
# below when bound so that they hold the GIL, and 0.64-1 as they are.
GIL_SHARE_CUT = 0.3


def _python_share(work, calls):
    """Share of the wall time of ``work(0)``, ..., ``work(calls - 1)`` during
    which a thread running a pure-Python loop advanced: the time is cut into
    bins of ``GIL_BIN_S``, and a bin counts when the loop marked it.

    Under a switch interval of 1e-4 s, a call that holds the GIL stops the
    loop for the whole call, and the loop runs only between calls; a call
    that releases it lets the loop run beside it. Both OpenBLAS libraries
    run on one thread meanwhile, so that a BLAS thread spinning on the other
    CPU cannot keep the calling thread from taking the GIL back."""
    marks = bytearray(int(120 / GIL_BIN_S))
    origin = time.perf_counter()
    running = True

    def tick():
        while running:
            marks[min(int((time.perf_counter() - origin) / GIL_BIN_S), len(marks) - 1)] = 1

    interval = sys.getswitchinterval()
    ticker = threading.Thread(target=tick)
    sys.setswitchinterval(1e-4)
    try:
        with _lapack.one_lapack_thread():
            ticker.start()
            start = time.perf_counter()
            for i in range(calls):
                work(i)
            end = time.perf_counter()
    finally:
        running = False
        ticker.join(timeout=60.0)
        sys.setswitchinterval(interval)
    assert not ticker.is_alive()
    first, last = int((start - origin) / GIL_BIN_S), int((end - origin) / GIL_BIN_S)
    return sum(marks[first:last]) / max(1, last - first)


def test_lapack_cholesky_releases_the_gil():
    # Two 1200 x 1200 factorizations; a second and third attempt only guard
    # against a loop thread the OS did not schedule.
    spd = _spd_matrix(1200, 0)

    def attempt():
        copies = [np.array(spd, order="F") for _ in range(2)]
        return _python_share(lambda i: _lapack.potrf(copies[i]), 2)

    assert any(attempt() >= GIL_SHARE_CUT for _ in range(3))


def test_lapack_symv_releases_the_gil(monkeypatch):
    # 20 products on a 4000 x 4000 matrix, about 5 ms each, each with the
    # np.zeros of its output, which releases the GIL around its calloc. The
    # control binds the same dsymv pointer through PYFUNCTYPE, which holds
    # the GIL for the call: it must read as holding in every attempt.
    a = np.full((4000, 4000), 0.5)
    x = np.ones(4000)

    def attempt():
        return _python_share(lambda i: _lapack.symv(a, x), 20)

    assert any(attempt() >= GIL_SHARE_CUT for _ in range(3))
    address = ctypes.cast(_lapack._dsymv, ctypes.c_void_p).value
    monkeypatch.setattr(_lapack, "_dsymv", ctypes.PYFUNCTYPE(None, *[ctypes.c_void_p] * 10)(address))
    assert all(attempt() < GIL_SHARE_CUT for _ in range(3))


def test_lapack_eigensolve_releases_the_gil():
    spd = _spd_matrix(1000, 0)

    def attempt():
        copies = [spd.copy() for _ in range(2)]
        return _python_share(lambda i: _lapack.syevd(copies[i]), 2)

    assert any(attempt() >= GIL_SHARE_CUT for _ in range(3))


def test_seed_workers_never_call_scipy_f2py_blas_or_lapack(tmp_path, monkeypatch):
    # The GIL-holding routes stay gone: scipy's Cholesky wrappers and its f2py
    # BLAS module raise. ARPACK's own calls inside eigsh do not go through them.
    import scipy.linalg
    import scipy.sparse.linalg  # noqa: F401  (loaded before the BLAS module is replaced)

    def forbidden(*args, **kwargs):
        raise AssertionError("scipy f2py BLAS/LAPACK called on a seed worker")

    class ForbiddenModule(types.ModuleType):
        def __getattr__(self, name):
            forbidden()

    monkeypatch.setenv("QRLAB_THREADS", "2")
    monkeypatch.setattr(scipy.linalg, "cho_factor", forbidden)
    monkeypatch.setattr(scipy.linalg, "cho_solve", forbidden)
    monkeypatch.setattr(scipy.linalg, "blas", ForbiddenModule("scipy.linalg.blas"))
    monkeypatch.setitem(sys.modules, "scipy.linalg.blas", ForbiddenModule("scipy.linalg.blas"))
    runs = [
        ["risk", "--d", "8", "--kernel", "quartic:1,1,1", "--seeds", "2", "--n-test", "50", "--n-repl", "2"],
        ["train-error", "--d", "8", "--kernel", "quartic:1,1,1", "--seeds", "2"],
        ["approx-norm", "--d", "8,12", "--seeds", "2", "--compare-naive"],
    ]
    for i, args in enumerate(runs):
        assert main(args + ["--out", str(tmp_path / str(i))]) == 0
