import math
import sys
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from qrlab import krr, spectra
from qrlab.datagen import CovarianceSpec, MomentMatchedSampler, sample_dataset
from qrlab.errors import (
    AssumptionViolationError,
    InvalidArgumentError,
    NumericalFailureError,
    SingularSystemError,
)
from qrlab.kernels import KernelFunction, cross_kernel, kernel_matrix, quad_coeffs, quad_kernel_matrix
from qrlab.krr import (
    RidgeFactor,
    TeacherModel,
    asymptotic_risk,
    asymptotic_training_error,
    deterministic_equivalents,
    empirical_risk,
    empirical_training_error,
    krr_fit,
    lambda_star_solve,
    limit_inputs,
    make_labels,
    risk_limit,
    train_error_limit,
    training_error,
)
from qrlab.oracles import training_error_residual
from qrlab.seeding import TEACHER, substream
from qrlab.spectra import DiscreteLaw, deformed_mp_law

PHI_PLUS = 1.0 + math.sqrt(5.0)


def _brentq_lambda_star(alpha, nu, s):
    """The root of 1/alpha - s/(alpha t) = int x/(x+t) dnu by scipy's brentq,
    to a few ulp (the absolute xtol is negligible, so rtol alone stops it).
    The root exceeds s; the bracket starts at s/2, where the equation is
    below -1/alpha (at s itself 1/alpha - s/(alpha s) can round above 0 for
    a tiny alpha), and its upper end doubles from s until the equation is
    not negative. Independent of qrlab's solvers."""
    x, w = nu.atoms, nu.weights

    def equation(t):
        return 1.0 / alpha - s / (alpha * t) - float(np.sum(w * x / (x + t)))

    hi = s
    while equation(hi) < 0:
        hi *= 2.0
    return brentq(equation, s / 2, hi, xtol=np.finfo(float).tiny, rtol=4 * np.finfo(float).eps)


def _dataset(n=30, d=6, seed=0, cov=None):
    cov = cov or CovarianceSpec.identity(d)
    return sample_dataset(n, cov.d, cov, MomentMatchedSampler.gaussian(), seed)


def test_labels_deterministic_sigma():
    data = _dataset()
    teacher = TeacherModel.draw("deterministic_sigma", data.covariance, substream(0, TEACHER))
    y = make_labels(data, teacher, 0.0, seed=1)
    assert np.allclose(y, (data.X**2).sum(axis=1) / data.d)


@pytest.mark.parametrize("kind, c0, c1", [
    ("pure_quadratic", 0.0, 0.0),
    ("deterministic_sigma", 0.0, 0.0),
    ("pure_quadratic", 1.5, -0.75),
], ids=["pure_quadratic", "deterministic_sigma", "pure_quadratic-offsets"])
def test_teacher_draw_scales_with_c2(kind, c0, c1):
    cov = CovarianceSpec.uniform(7, 0.5, 1.5)
    x = np.random.default_rng(4).normal(size=(9, 7))
    one = TeacherModel.draw(kind, cov, substream(5, TEACHER), c0=c0, c1=c1, c2=1.0)
    two = TeacherModel.draw(kind, cov, substream(5, TEACHER), c0=2 * c0, c1=2 * c1, c2=2.0)
    assert two.c2 == 2.0
    # Doubling every coefficient is exact in floating point.
    assert np.array_equal(two.predict(x), 2.0 * one.predict(x))


def test_teacher_draw_offsets_keep_deterministic_sigma():
    cov = CovarianceSpec.uniform(7, 0.5, 1.5)
    teacher = TeacherModel.draw("deterministic_sigma", cov, substream(5, TEACHER), c0=5.0, c1=0.5)
    assert np.array_equal(teacher.G, np.diag(cov.diag))
    x = np.random.default_rng(4).normal(size=(9, 7))
    expected = 5.0 + 0.5 * x.sum(axis=1) / math.sqrt(7) + (x**2 * cov.diag).sum(axis=1) / 7
    assert np.allclose(teacher.predict(x), expected, rtol=1e-14, atol=1e-14)


def test_labels_constant_teacher():
    data = _dataset()
    teacher = TeacherModel(2.5, 0.0, np.eye(data.d)[0], 0.0, np.zeros((data.d, data.d)))
    y = make_labels(data, teacher, 0.0, seed=1)
    assert np.allclose(y, 2.5)


def test_labels_pure_quadratic_unit_direction():
    d = 5
    g = substream(3, TEACHER)
    teacher = TeacherModel.draw("pure_quadratic", CovarianceSpec.identity(d), g)
    x = np.zeros((1, d))
    x[0, 0] = math.sqrt(d)
    assert teacher.predict(x)[0] == pytest.approx(teacher.G[0, 0])


def test_labels_noise_options():
    data = _dataset(n=2000)
    teacher = TeacherModel.draw("deterministic_sigma", data.covariance, substream(0, TEACHER))
    y_gauss = make_labels(data, teacher, 0.7, seed=5)
    base = teacher.predict(data.X)
    assert abs((y_gauss - base).std() - 0.7) < 0.05


def test_teacher_validation():
    with pytest.raises(InvalidArgumentError):
        TeacherModel(0.0, 1.0, np.array([1.0, 1.0]), 0.0, np.zeros((2, 2)))
    with pytest.raises(InvalidArgumentError, match="G must be symmetric"):
        TeacherModel(0.0, 0.0, np.array([1.0, 0.0]), 1.0, np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(InvalidArgumentError):
        TeacherModel.draw("mystery", CovarianceSpec.identity(3), substream(0, TEACHER))


def test_krr_fit_scalar_resolvents():
    y = np.array([1.0, -2.0, 0.5])
    assert np.allclose(krr_fit(np.eye(3), y, 1.0), y / 2.0)
    assert np.allclose(krr_fit(np.zeros((3, 3)), y, 2.0), y / 2.0)


def _ridge_system(cond, n=25, lam=0.3, seed=8):
    """K, y and lambda with K + lambda I SPD of condition number ``cond``."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = np.geomspace(1.0, 1.0 / cond, n) * lam * cond
    k = (q * (eigs - lam)) @ q.T
    return (k + k.T) / 2.0, rng.normal(size=n), lam


@pytest.mark.parametrize("cond", [1e2, 1e6], ids=["cond1e2", "cond1e6"])
def test_krr_fit_matches_dense_solve(cond):
    k, y, lam = _ridge_system(cond)
    w = krr_fit(k, y, lam)
    w_ref = np.linalg.solve(k + lam * np.eye(len(y)), y)
    assert np.linalg.norm(w - w_ref) <= 1e-9 * np.linalg.norm(w_ref)


def test_ridge_solve_residual_check_rejects_ill_conditioned_system():
    # The residual bound, not refinement, guards the solve: at condition
    # number 1e12 float64 cannot resolve w to it.
    k, y, lam = _ridge_system(1e12)
    with pytest.raises(NumericalFailureError, match="ridge solve residual"):
        krr_fit(k, y, lam)


def test_krr_fit_singular_system_reports_lambda_min():
    with pytest.raises(SingularSystemError) as err:
        krr_fit(-np.eye(3), np.ones(3), 0.0)
    assert err.value.lambda_min == pytest.approx(-1.0, abs=1e-10)


def test_failed_factorization_leaves_k_and_reports_its_lambda_min():
    # The smallest eigenvalue of K + lambda I is negative, so dpotrf fails
    # part way, after writing over part of K's upper triangle and diagonal.
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
    k = (q * np.r_[-0.5, np.linspace(1.0, 3.0, 29)]) @ q.T
    k = (k + k.T) / 2.0
    given = k.copy()
    with pytest.raises(SingularSystemError) as err:
        RidgeFactor(k, 0.25)
    assert err.value.lambda_min == float(np.linalg.eigvalsh(given + 0.25 * np.eye(30))[0])
    assert np.array_equal(np.tril(k), np.tril(given))


def _spd(n=50, seed=3):
    m = np.random.default_rng(seed).normal(size=(n, n))
    return m @ m.T / n + np.eye(n)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_ridge_factor_rejects_non_finite_matrix(bad):
    k = _spd()
    k[4, 17] = k[17, 4] = bad
    with pytest.raises(NumericalFailureError, match="ridge factorization"):
        RidgeFactor(k, 1.0)


@pytest.mark.parametrize("k, lam, message", [
    (np.eye(3), -1.0, "lambda must be nonnegative"),
    (np.zeros((3, 4)), 1.0, "K must be a square matrix"),
    (np.ones(3), 1.0, "K must be a square matrix"),
], ids=["negative-lambda", "rectangular", "vector"])
def test_ridge_factor_rejects_bad_arguments(k, lam, message):
    with pytest.raises(InvalidArgumentError, match=message):
        RidgeFactor(k, lam)


@pytest.mark.parametrize("triangle", ["upper", "lower"])
def test_ridge_solve_rejects_an_asymmetric_matrix(triangle):
    # The factor reads one triangle of K and the residual product the other,
    # so a difference between them above rounding fails the residual check.
    k = _spd()
    i, j = (4, 17) if triangle == "upper" else (17, 4)
    k[i, j] += 1e-3
    y = np.random.default_rng(5).normal(size=50)
    with pytest.raises(NumericalFailureError, match="ridge solve residual"):
        RidgeFactor(k, 1.0).solve(y)


def test_krr_fit_and_training_error_leave_the_callers_matrix():
    k = _spd()
    given = k.copy()
    y = np.random.default_rng(7).normal(size=50)
    krr_fit(k, y, 0.5)
    assert np.array_equal(k, given)
    training_error(k, y, 0.5)
    assert np.array_equal(k, given)
    f_order = np.asfortranarray(k)
    training_error(f_order, y, 0.5)
    assert np.array_equal(f_order, given)


def test_ridge_solve_rejects_nan_labels():
    y = np.random.default_rng(4).normal(size=50)
    y[9] = np.nan
    with pytest.raises(NumericalFailureError, match="ridge solve"):
        RidgeFactor(_spd(), 1.0).solve(y)


def test_block_solve_matches_one_column_at_a_time():
    k, _, lam = _ridge_system(1e6)
    labels = np.random.default_rng(5).normal(size=(len(k), 6)) * np.geomspace(1e-3, 1e3, 6)
    factor = RidgeFactor(k, lam)
    block = factor.solve(labels).weights
    assert block.shape == labels.shape
    for j in range(labels.shape[1]):
        w = factor.solve(labels[:, j]).weights
        assert np.linalg.norm(block[:, j] - w) <= 1e-12 * np.linalg.norm(w)


def test_block_solve_rejects_a_nan_in_one_column():
    labels = np.random.default_rng(4).normal(size=(50, 3))
    labels[9, 1] = np.nan
    with pytest.raises(NumericalFailureError, match="ridge solve residual nan exceeds .* in label column 1"):
        RidgeFactor(_spd(), 1.0).solve(labels)


def test_fit_and_training_error_keep_one_label_vector_one_dimensional():
    k = _spd()
    y = np.random.default_rng(6).normal(size=50)
    w = krr_fit(k, y, 0.5)
    assert w.shape == (50,)
    # RidgeFactor overwrites its K; k is used again below.
    assert np.array_equal(w, RidgeFactor(k.copy(), 0.5).solve(y).weights)
    assert type(training_error(k, y, 0.5)) is float
    assert training_error(k, y, 0.5) == float(0.25 / 50 * (w @ w))


def test_training_error_closed_forms():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(10, 10))
    k = m @ m.T + np.eye(10)
    y = rng.normal(size=10)
    assert training_error(k, y, 0.0) == 0.0
    ones = np.ones(6)
    assert training_error(np.eye(6), ones, 1.0) == pytest.approx(0.25)


def test_training_error_routes_agree():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(40, 40))
    k = m @ m.T + 0.2 * np.eye(40)
    y = rng.normal(size=40)
    for lam in (0.1, 1.0, 7.5):
        a = training_error(k, y, lam)
        b = training_error_residual(k, y, lam)
        assert a == pytest.approx(b, rel=1e-10)


def test_lambda_star_closed_form():
    res = lambda_star_solve(1.0, DiscreteLaw.delta(2.0), 0.0, 0.5, 1.0)
    assert res.value == pytest.approx(PHI_PLUS, abs=1e-10)
    assert res.residual <= 1e-12


def test_lambda_star_homogeneity():
    base = lambda_star_solve(0.7, DiscreteLaw.delta(1.0), 0.3, 0.2, 1.0)
    scaled = lambda_star_solve(0.7, DiscreteLaw.delta(3.0), 0.9, 0.6, 1.0)
    assert scaled.value / base.value == pytest.approx(3.0, abs=1e-10)


def test_lambda_star_dual_routes_random_draws():
    rng = np.random.default_rng(17)
    for _ in range(10):
        atoms = rng.uniform(0.2, 4.0, rng.integers(1, 5))
        nu = DiscreteLaw.from_values(atoms)
        alpha = rng.uniform(0.2, 3.0)
        a_star = rng.uniform(0.01, 1.0)
        lam = rng.uniform(0.0, 2.0)
        fpp = rng.uniform(0.2, 3.0)
        res = lambda_star_solve(alpha, nu, a_star, lam, fpp)
        root = _brentq_lambda_star(alpha, nu, 4.0 * alpha * (a_star + lam) / fpp)
        assert abs(res.value - root) <= 1e-10 * max(1.0, res.value)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.0, 3.0).map(lambda e: 10.0**e),
    nu=st.lists(st.floats(0.2, 4.0), min_size=1, max_size=5).map(lambda a: DiscreteLaw.from_values(np.array(a))),
    a_star=st.floats(0.01, 1.0),
    lam=st.floats(0.0, 2.0),
    f2=st.floats(0.2, 3.0),
)
# lambda-star --d 60 --alpha 800 --kernel quartic:1,1,1 --cov identity --lambda 1
@example(alpha=800.0, nu=DiscreteLaw.delta(2.0), a_star=1 / 24, lam=1.0, f2=1.0)
def test_lambda_star_root_at_large_alpha(alpha, nu, a_star, lam, f2):
    # For alpha > 1 every term of alpha times the equation is at most 1, so the
    # root is resolved to 1e-12 absolute there, and both routes must agree.
    res = lambda_star_solve(alpha, nu, a_star, lam, f2)
    t, s = res.value, 4.0 * alpha * (a_star + lam) / f2
    integral = float(np.sum(nu.weights * nu.atoms / (nu.atoms + t)))
    assert abs(1.0 - s / t - alpha * integral) <= 1e-12


def test_lambda_star_at_large_alpha_and_wide_population():
    # The Stieltjes route solves at z = -s with s = 4 alpha lambda, at an
    # alpha where the residual is resolvable only relative to 1/mt.
    alpha, s = 711.7537509149355, 0.0013016696154710618
    nu = DiscreteLaw.from_values([0.004787792912800229, 0.2877205887386512, 64.07417129618355])
    res = lambda_star_solve(alpha, nu, 0.0, s / (4.0 * alpha), 1.0)
    assert abs(res.value - _brentq_lambda_star(alpha, nu, s)) <= 1e-10 * max(1.0, res.value)


def test_lambda_star_root_far_above_the_support():
    # t = s = 4e20: the root sits far above any bracket a search would cap.
    res = lambda_star_solve(1.0, DiscreteLaw.delta(2.0), 0.0, 1e20, 1.0)
    assert res.value == pytest.approx(4e20, rel=1e-12)
    assert res.residual <= 1e-12


@pytest.mark.parametrize("alpha, atom, a_star, lam", [
    (1e-10, 2.0, 1 / 24, 1.0),
    (1e-20, 2.0, 1 / 24, 1.0),
    (1.0, 1e-9, 0.0, 1e-9),
    (1.0, 1e-30, 0.0, 1e-30),
    (0.5, 2.0, 0.0, 1e-9),
    (0.5, 2.0, 0.0, 1e-20),
], ids=["alpha-1e-10", "alpha-1e-20", "scale-1e-9", "scale-1e-30", "lambda-1e-9", "lambda-1e-20"])
def test_lambda_star_root_below_unit_scale(alpha, atom, a_star, lam):
    # The equation is invariant under scaling the atoms, lambda and t
    # together, so a root far below 1 is resolved to the same relative
    # accuracy: the companion solve on the negative axis stops relative to
    # its largest term at every scale.
    nu = DiscreteLaw.delta(atom)
    res = lambda_star_solve(alpha, nu, a_star, lam, 1.0)
    root = _brentq_lambda_star(alpha, nu, 4.0 * alpha * (a_star + lam))
    assert abs(res.value - root) <= 1e-12 * root


@pytest.mark.parametrize("alpha", [1e-50, 1e-100])
def test_lambda_star_solves_far_below_unit_scale(alpha):
    # The law of `lambda-star --d 8`. The companion cold start walks down from
    # the support scale to |z| = s in factors of 4, about 80 and 160 stages
    # here, more steps in all than one stage's budget: each stage has its own.
    kernel = KernelFunction.exp()
    a_star, nu = limit_inputs(kernel, CovarianceSpec.identity(8))
    res = lambda_star_solve(alpha, nu, a_star, 1.0, kernel.derivs0[2])
    s = 4.0 * alpha * (a_star + 1.0)
    assert res.iterations > spectra.STIELTJES_MAX_STEPS
    assert res.residual <= krr.LAMBDA_STAR_TOL * max(1.0 / alpha, s / (alpha * res.value))
    root = _brentq_lambda_star(alpha, nu, s)
    assert abs(res.value - root) <= 1e-12 * root


def test_lambda_star_refuses_a_newton_step_to_the_negative_root(monkeypatch):
    # alpha = 1, nu = delta(2), s = 1: 1 - 1/t = 2/(2+t) has the roots t = 2
    # and t = -1, and the Newton step from t = 2 + 2 sqrt(2) lands on -1
    # exactly, where the residual vanishes. From that start the step is
    # refused, and the start fails its certificate.
    start = types.SimpleNamespace(m_tilde=complex(1.0 / (2.0 + 2.0 * math.sqrt(2.0))))
    monkeypatch.setattr(krr, "companion_stieltjes", lambda *args: start)
    with pytest.raises(NumericalFailureError, match="residual 0.5"):
        lambda_star_solve(1.0, DiscreteLaw.delta(2.0), 0.0, 0.25, 1.0)


@pytest.mark.parametrize("second_deriv, a_star, lam, message", [
    (0.0, 0.1, 0.5, "f''(0) must be positive"),
    (-1.0, 0.1, 0.5, "f''(0) must be positive"),
    (-1.0, 0.1, 0.0, "f''(0) must be positive"),
    (1.0, -0.5, 0.5, "a_star + lambda must be positive"),
    (1.0, -0.6, 0.5, "a_star + lambda must be positive"),
])
def test_limit_formulas_share_one_regime_rule(second_deriv, a_star, lam, message):
    nu = DiscreteLaw.delta(2.0)
    solves = [
        lambda: train_error_limit(1.0, nu, a_star, second_deriv, lam, 1.0, 0.5),
        lambda: lambda_star_solve(1.0, nu, a_star, lam, second_deriv),
    ]
    for solve in solves:
        with pytest.raises(AssumptionViolationError) as info:
            solve()
        assert str(info.value) == message


def test_lambda_star_kernel_wrapper_with_override():
    kernel = KernelFunction.quartic(1, 1, 1)
    a_star, nu = limit_inputs(kernel, CovarianceSpec.identity(40), a_star_override=0.0, asymptotic_nu=True)
    val = lambda_star_solve(1.0, nu, a_star, 0.5, kernel.derivs0[2])
    assert val.value == pytest.approx(PHI_PLUS, abs=1e-10)


def test_risk_limit_closed_form_variance():
    pred = risk_limit(1.0, DiscreteLaw.delta(2.0), 0.0, 1.0, 0.5, 1.0, "pure_quadratic")
    j2 = 4.0 / (3.0 + math.sqrt(5.0)) ** 2
    assert pred.solution.value == pytest.approx(PHI_PLUS, abs=1e-10)
    assert pred.V == pytest.approx(j2 / (1.0 - j2), abs=1e-10)
    assert pred.total == pytest.approx(pred.V + pred.B)


def test_risk_limit_deterministic_teacher_drops_bias():
    pred = risk_limit(1.0, DiscreteLaw.delta(2.0), 0.1, 1.0, 1.0, 0.5, "deterministic_sigma")
    assert pred.B == 0.0
    assert pred.total == pytest.approx(0.25 * pred.V)


def test_risk_limit_vanishing_alpha():
    pred = risk_limit(1e-6, DiscreteLaw.delta(2.0), 0.1, 1.0, 1.0, 1.0, "deterministic_sigma")
    assert pred.V < 1e-4


def test_asymptotic_risk_rejects_inadmissible_kernel():
    with pytest.raises(AssumptionViolationError):
        asymptotic_risk(KernelFunction.exp(), CovarianceSpec.identity(20), 1.0, 1.0, 0.5, "pure_quadratic")


def test_train_error_limit_zero_ridge():
    assert train_error_limit(1.0, DiscreteLaw.delta(2.0), 0.1, 1.0, 0.0, 1.0, 0.5) == 0.0


def test_train_error_limit_point_mass_population():
    # All population mass at zero collapses the integral to a constant.
    val = train_error_limit(1.0, DiscreteLaw.delta(0.0), 0.4, 1.0, 0.6, 1.0, 0.8)
    assert val == pytest.approx(0.6**2 * 0.8**2 / (0.4 + 0.6) ** 2, rel=1e-12)


def test_train_error_limit_against_quadrature():
    alpha, lam, c2, sig = 1.0, 0.5, 0.0, 1.0
    nu = DiscreteLaw.delta(2.0)
    a_star, fpp = 0.5, 1.0
    val = train_error_limit(alpha, nu, a_star, fpp, lam, c2, sig)
    s = 4.0 * alpha * (a_star + lam) / fpp
    _, _, i2 = spectra.law_integrals(alpha, nu, s)
    assert val == pytest.approx(lam**2 * (4.0 * alpha / fpp) ** 2 * i2, rel=1e-12)
    law = deformed_mp_law(alpha, nu)
    integrand = (c2**2 / alpha * law.grid + sig**2) / (fpp * law.grid / (4 * alpha) + a_star + lam) ** 2
    quad = lam**2 * np.trapezoid(integrand * law.density, law.grid)
    assert val == pytest.approx(quad, rel=1e-3)


def _delta_train_error(alpha, x, a_star, fpp, lam, c2, sig):
    """The training-error limit on nu = delta_x from the closed-form root of
    (t - s)(x + t) = alpha x t, taken in its cancellation-free form."""
    s = 4.0 * alpha * (a_star + lam) / fpp
    b = x - s - alpha * x
    root = math.sqrt(b * b + 4.0 * s * x)
    t = 2.0 * s * x / (b + root) if b > 0 else (root - b) / 2.0
    scale = 4.0 * alpha * lam / fpp
    return scale**2 * (c2**2 * x / (x + t) ** 2 + sig**2 / t**2) / (1.0 - alpha * (x / (x + t)) ** 2)


@pytest.mark.parametrize("x, a_star, fpp", [(2.0, 0.1, 1.0), (0.7, 1.0 / 24.0, 2.0)])
def test_train_error_limit_on_a_point_mass_matches_its_closed_form_root(x, a_star, fpp):
    # Up to lambda = 1e100, where the limit is c2^2 x + sigma^2: no I0 - s I2 cancellation.
    nu = DiscreteLaw.delta(x)
    for alpha in (0.1, 1.0, 4.0):
        for lam in (1e-4, 1.0, 1e8, 1e14, 1e100):
            for c2 in (0.0, 1.0, 2.0):
                for sig in (0.0, 0.5):
                    want = _delta_train_error(alpha, x, a_star, fpp, lam, c2, sig)
                    got = train_error_limit(alpha, nu, a_star, fpp, lam, c2, sig)
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0), (alpha, lam, c2, sig)


@pytest.mark.parametrize("lam, want, denominator", [
    (1e-15, 5.590169943749562503e-09, 8.94427e-08),
    (1e-12, 1.767766952994211083e-07, 2.82842e-06),
    (1e-9, 5.590170031790651097e-06, 8.94387e-05),
])
def test_train_error_limit_near_the_hard_edge_loses_eps_over_its_denominator(lam, want, denominator):
    # want is a 60-digit mpmath limit from the delta_2 root at alpha = 1, a_star = 0, and denominator
    # is 1 - alpha J2 there. lambda_star_solve certifies 1/alpha - s/(alpha t) - int x/(x+t) dnu, a
    # difference of O(1) terms, while the root sits at t ~ 1e-7 to 1e-4; rounding moves t by about
    # eps/t relative, and 1/(1 - alpha J2) ~ 1/t carries that into the limit. (_delta_train_error
    # forms 1 - alpha J2 with cancellation, so it is no reference here.)
    got = train_error_limit(1.0, DiscreteLaw.delta(2.0), 0.0, 1.0, lam, 1.0, 0.5)
    assert abs(got - want) <= 10.0 * sys.float_info.epsilon / denominator * want


def test_train_error_limit_refuses_a_vanishing_denominator():
    # At alpha = 1 and a_star + lambda = 1e-18 the root sits at the hard edge: 1 - alpha J2 = 2.8e-9.
    with pytest.raises(AssumptionViolationError, match="limit denominator 1 - alpha J2"):
        train_error_limit(1.0, DiscreteLaw.delta(2.0), 0.0, 1.0, 1e-18, 1.0, 0.5)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.2, 4.0),
    lam=st.floats(0.01, 2.0),
    atoms=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=4),
    a_star=st.floats(0.0, 1.0),
    fpp=st.floats(0.5, 2.0),
    c2=st.floats(0.0, 2.0),
    sig=st.floats(0.0, 1.0),
)
def test_train_error_limit_matches_the_law_integrals_route(alpha, lam, atoms, a_star, fpp, c2, sig):
    # law_integrals' uncertified route, lambda^2 (4 alpha/f'')^2 ((c2^2/alpha) I1 + sigma^2 I2), as the arbiter.
    nu = DiscreteLaw.from_values(np.array(atoms))
    _, i1, i2 = spectra.law_integrals(alpha, nu, 4.0 * alpha * (a_star + lam) / fpp)
    want = lam**2 * (4.0 * alpha / fpp) ** 2 * ((c2**2 / alpha) * i1 + sig**2 * i2)
    assert train_error_limit(alpha, nu, a_star, fpp, lam, c2, sig) == pytest.approx(want, rel=1e-9, abs=0.0)


def test_train_error_limit_monotonicity():
    nu = DiscreteLaw.delta(2.0)
    vals_sigma = [
        train_error_limit(1.0, nu, 0.1, 1.0, 1.0, 1.0, sig) for sig in (0.0, 0.3, 0.6, 1.0)
    ]
    assert all(b >= a for a, b in zip(vals_sigma, vals_sigma[1:]))
    vals_lam = [train_error_limit(1.0, nu, 0.1, 1.0, lam, 1.0, 0.5) for lam in (0.0, 0.05, 0.1, 0.2)]
    assert all(b >= a for a, b in zip(vals_lam, vals_lam[1:]))


def test_empirical_risk_interpolates_training_rows():
    # The ridgeless fit of noiseless labels predicts them back at the training rows.
    d, n = 10, 60
    data = _dataset(n=n, d=d, seed=4)
    kern = KernelFunction.quartic(1, 1, 1)
    teacher = TeacherModel.draw("deterministic_sigma", data.covariance, substream(4, TEACHER, 0))
    y = teacher.predict(data.X)
    w = krr_fit(kernel_matrix(data, kern), y, 0.0)
    predictions = cross_kernel(data, data.X, kern) @ w
    assert float(np.mean((predictions - y) ** 2)) <= 1e-16


def test_constant_functions_are_recovered():
    # With f(0) != 0 a ridgeless fit reproduces constants exactly on the
    # training rows; off-sample the representer span only approximates the
    # constant function (an O(1/d) effect, independent of n).
    d, n = 6, 40
    data = _dataset(n=n, d=d, seed=9)
    kern = KernelFunction.quartic(1, 1, 1)
    k = kernel_matrix(data, kern)
    y = np.full(n, 3.0)
    w = krr_fit(k, y, 0.0)
    on_train = cross_kernel(data, data.X, kern) @ w
    assert np.abs(on_train - 3.0).max() <= 1e-10
    rng = np.random.default_rng(0)
    x_test = rng.normal(size=(50, d))
    preds = cross_kernel(data, x_test, kern) @ w
    assert np.abs(preds - 3.0).max() <= 0.2


def test_empirical_risk_guards():
    data = _dataset()
    kern = KernelFunction.quartic(1, 1, 1)
    with pytest.raises(InvalidArgumentError):
        empirical_risk(data, kern, "general", 1.0, 0.5, 10, 2, 0)


@pytest.mark.parametrize("kind", krr.RISK_TEACHERS)
def test_empirical_training_error_is_replicate_zero_of_the_risk_fit(kind):
    data = _dataset(n=40, d=8, seed=3, cov=CovarianceSpec.uniform(8, 0.5, 1.5))
    kern = KernelFunction.quartic(1, 1, 1)
    lam, sigma_eps, seed = 0.3, 0.5, 5
    for c0, c1, c2 in [(0.7, -0.4, 1.5), (0.0, 0.0, 1.0)]:
        # Replicate 0's teacher and labels, fitted on a copy of K.
        teacher = TeacherModel.draw(kind, data.covariance, substream(seed, TEACHER, 0), c0, c1, c2)
        y0 = make_labels(data, teacher, sigma_eps, seed)
        emp, ratio = empirical_training_error(data, kern, kind, lam, sigma_eps, seed, c0, c1, c2)
        assert emp == training_error(kernel_matrix(data, kern), y0, lam)
    # With c0 = c1 = 0 and c2 = 1 the fit is empirical_risk's at one replicate.
    assert ratio == empirical_risk(data, kern, kind, lam, sigma_eps, 20, 1, seed)[2]


def test_surrogate_transfer_training_error_gap_decays():
    kern = KernelFunction.quartic(1, 1, 1)
    sampler = MomentMatchedSampler.gh_discrete(5)
    medians = []
    for d in (24, 48):
        cov = CovarianceSpec.identity(d)
        coeffs = quad_coeffs(kern, cov)
        gaps = []
        for seed in range(5):
            data = sample_dataset(d * d // 2, d, cov, sampler, seed)
            teacher = TeacherModel.draw("pure_quadratic", cov, substream(seed, TEACHER, 0))
            y = make_labels(data, teacher, 0.5, seed)
            k = kernel_matrix(data, kern)
            k2 = quad_kernel_matrix(data, coeffs)
            gaps.append(abs(training_error(k, y, 1.0) - training_error(k2, y, 1.0)))
        medians.append(np.median(gaps))
    assert medians[1] < medians[0]


def test_deterministic_equivalents_smoke():
    d, n = 30, 450
    data = _dataset(n=n, d=d, seed=2)
    eq = deterministic_equivalents(data, KernelFunction.quartic(1, 1, 1), alpha=1.0, lam=1.0)
    for emp, pred in eq.values():
        assert emp == pytest.approx(pred, rel=0.25)


def test_asymptotic_training_error_wrapper():
    val = asymptotic_training_error(
        KernelFunction.quartic(1, 1, 1), CovarianceSpec.identity(60), 1.0, 1.0, 1.0, 0.5
    )
    assert 0.0 < val < 10.0


def test_cosh_kernel_allowed_with_warning():
    # cosh satisfies the vanishing odd derivatives but its high-order
    # derivatives are unbounded; the formulas still evaluate, with a warning.
    import warnings

    from qrlab.errors import AssumptionWarning

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pred = asymptotic_risk(
            KernelFunction.cosh(), CovarianceSpec.identity(40), 1.0, 1.0, 0.5, "deterministic_sigma"
        )
    assert any(issubclass(w.category, AssumptionWarning) for w in caught)
    assert pred.total > 0
