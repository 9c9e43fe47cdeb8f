"""The in-place kernel and teacher evaluations, the surrogate coefficients
on float64 scalars, the Lanczos spectral-norm gap and the one-sum companion
solver against their plain forms."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qrlab.datagen import CovarianceSpec
from qrlab.kernels import (
    KernelFunction,
    QuadCoeffs,
    cross_kernel,
    kernel_matrix,
    quad_coeffs,
    quad_kernel_matrix,
    spectral_norm_gap,
)
from qrlab.errors import NumericalFailureError
from qrlab.krr import TeacherModel
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


@settings(max_examples=200, deadline=None)
@given(COEF, COEF, COEF, POINTS)
def test_quartic_matches_power_form(b0, b2, b4, t):
    got = KernelFunction.quartic(b0, b2, b4).eval(t)
    _assert_matches_terms(got, [np.full_like(t, b0), b2 * t**2 / 2.0, b4 * t**4 / 24.0])


@settings(max_examples=200, deadline=None)
@given(st.lists(COEF, min_size=1, max_size=8), POINTS)
def test_custom_poly_matches_power_form(coeffs, t):
    got = KernelFunction.custom_poly(coeffs).eval(t)
    _assert_matches_terms(got, [np.full_like(t, c) if k == 0 else c * t**k for k, c in enumerate(coeffs)])


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
    assert spectral_norm_gap(a, b) == pytest.approx(want, rel=1e-10)


def _two_sum_companion(z, alpha, nu, initial=None):
    """Companion solve that sums both atom integrals at every iterate and
    again at every Newton candidate, one call per continuation stage: the
    plain form of ``companion_stieltjes``, same steps and same floating-point
    operations. A warm start from ``initial`` runs the stage z alone on the
    smaller budget."""

    def frac_integrals(m):
        den = 1.0 + nu.atoms * m
        f1 = np.sum(nu.weights * nu.atoms / den)
        f2 = np.sum(nu.weights * nu.atoms**2 / den**2)
        return complex(f1), complex(f2)

    def solve(z, m, budget, tol):
        on_axis = z.imag == 0.0
        resid = math.inf
        tol_abs = tol * max(1.0, abs(z))
        for it in range(1, budget + 1):
            f1, f2 = frac_integrals(m)
            r = z + 1.0 / m - alpha * f1
            resid = abs(r)
            if resid <= tol_abs:
                return m, it, resid
            stepped = False
            dr = -1.0 / m**2 + alpha * f2
            if dr != 0:
                cand = m - r / dr
                ok = np.isfinite(cand.real) and np.isfinite(cand.imag) and cand != 0
                if ok and not on_axis and cand.imag < -1e-13:
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
        return m, budget, resid

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
    resid = math.inf
    final_tol = STIELTJES_TOL * max(1.0, abs(z))
    for stage in stages:
        stage_tol = STIELTJES_TOL if stage == z else min(1e-9, 1e-6 * abs(stage))
        m, its, resid = solve(stage, m, budget - used, stage_tol)
        used += its
        if used >= budget and (stage != z or resid > final_tol):
            raise NumericalFailureError("did not converge")
    if resid > final_tol:
        raise NumericalFailureError("did not converge")
    if not on_axis and m.imag < -1e-10:
        raise NumericalFailureError("Nevanlinna violation")
    _, f2 = frac_integrals(m)
    dprime_den = 1.0 / m**2 - alpha * f2
    m_prime = 1.0 / dprime_den if dprime_den != 0 else complex(math.inf)
    return m, m_prime, used, resid


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
def test_companion_matches_two_sum_loop(atoms, raw_weights, alpha, z, initial):
    w = np.array(raw_weights[: len(atoms)])
    nu = DiscreteLaw(np.array(atoms), w / w.sum())

    def one_sum():
        ev = companion_stieltjes(z, alpha, nu, initial=initial)
        return ev.m_tilde, ev.m_tilde_prime, ev.iterations, ev.residual

    got = _outcome(one_sum)
    want = _outcome(lambda: _two_sum_companion(z, alpha, nu, initial))
    # Bit for bit: equal floats, including the iteration count.
    assert got == want
