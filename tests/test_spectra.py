import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrlab import spectra
from qrlab.datagen import CovarianceSpec, MomentMatchedSampler, sample_dataset, sigma2_diagonal
from qrlab.errors import InvalidArgumentError, NumericalFailureError
from qrlab.spectra import (
    DiscreteLaw,
    LawSegment,
    _checked_symmetric,
    companion_stieltjes,
    deformed_mp_law,
    esd,
    ks_distance,
    law_integrals,
    law_to_csv,
    mp_density,
    mp_support,
)
from qrlab.oracles import population_stieltjes

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def test_discrete_law_validation():
    with pytest.raises(InvalidArgumentError):
        DiscreteLaw(np.array([1.0, 2.0]), np.array([0.5, 0.6]))
    with pytest.raises(InvalidArgumentError):
        DiscreteLaw(np.array([1.0]), np.array([-1.0]))
    law = DiscreteLaw.from_values([2.0, 2.0, 3.0])
    packed = law.compressed()
    assert packed.atoms.tolist() == [2.0, 3.0]
    assert np.allclose(packed.weights, [2.0 / 3.0, 1.0 / 3.0])
    assert law.mean() == pytest.approx(7.0 / 3.0)


def test_esd_basics():
    assert np.allclose(esd(np.eye(3)), [1.0, 1.0, 1.0])
    assert np.allclose(esd(np.diag([2.0, -1.0])), [-1.0, 2.0])
    rng = np.random.default_rng(0)
    m = rng.normal(size=(8, 8))
    m = (m + m.T) / 2.0
    eigs = esd(m.copy())
    assert abs(eigs.sum() - np.trace(m)) < 1e-10
    with pytest.raises(InvalidArgumentError):
        esd(rng.normal(size=(5, 5)))
    with pytest.raises(InvalidArgumentError, match="square"):
        esd(np.zeros((3, 4)))
    with pytest.raises(InvalidArgumentError, match="non-empty"):
        esd(np.zeros((0, 0)))


def test_esd_copies_only_a_matrix_it_cannot_solve_in_place():
    import tracemalloc

    rng = np.random.default_rng(1)
    m = rng.normal(size=(12, 12))
    m = m + m.T
    want = esd(m.copy())
    # A read-only, a strided and a list input are solved on a copy and kept.
    frozen = m.copy()
    frozen.flags.writeable = False
    strided = np.repeat(m, 2, axis=1)[:, ::2]
    for keep in (frozen, strided, m.tolist()):
        assert np.array_equal(esd(keep), want)
    assert np.array_equal(frozen, m) and np.array_equal(strided, m)
    # A writable contiguous one is solved in place: besides LAPACK's workspace
    # (0.65 MB at n = 800), nothing near n x n is allocated.
    n = 800
    m = rng.normal(size=(n, n))
    m = m + m.T
    want = esd(m.copy())
    for order in "CF":
        mine = np.array(m, order=order)
        tracemalloc.start()
        try:
            got = esd(mine)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < 8 * n * n // 4


def test_symmetric_input_check_keeps_exact_input():
    m = np.random.default_rng(3).normal(size=(6, 6))
    m = m + m.T
    assert _checked_symmetric(m, "m") is m
    near = m.copy()
    near[0, 1] += 1e-12
    sym = _checked_symmetric(near, "m")
    assert np.array_equal(sym, sym.T)
    near[0, 1] += 1e-3
    with pytest.raises(InvalidArgumentError, match="m is not symmetric"):
        _checked_symmetric(near, "m")


def test_symmetry_bound_is_absolute_below_unit_scale():
    # The bound is 1e-10 max(1, max|M|). At a largest entry of 2e-6 it is
    # 1e-10, so an asymmetry of 1e-11, 1e-5 of the entries it lies between,
    # is averaged out; the same relative asymmetry at unit scale is refused.
    eigs = esd([[1e-6, 1e-6 + 1e-11], [1e-6, 2e-6]])
    assert eigs.shape == (2,) and np.all(np.isfinite(eigs)) and eigs[0] < eigs[1]
    with pytest.raises(InvalidArgumentError, match="not symmetric"):
        esd([[1.0, 1.0 + 1e-5], [1.0, 2.0]])


@pytest.mark.parametrize("row, col", [(-1, -3), (-1, 2), (2, -1)], ids=["diagonal", "below", "above"])
def test_symmetric_input_check_reaches_the_last_partial_tile(row, col):
    # One asymmetric entry in the last row or column, at an n that no
    # power-of-two block width divides.
    n = 261
    m = np.random.default_rng(5).normal(size=(n, n))
    m = m + m.T
    m[row, col] += 1e-3
    with pytest.raises(InvalidArgumentError, match="m is not symmetric"):
        _checked_symmetric(m, "m")
    m[row, col] -= 1e-3 - 1e-12
    sym = _checked_symmetric(m, "m")
    assert sym is not m and np.array_equal(sym, sym.T)


def test_symmetric_input_check_copies_no_matrix():
    m = np.random.default_rng(4).normal(size=(1000, 1000))
    m = m + m.T
    tracemalloc.start()
    try:
        sym = _checked_symmetric(m, "m")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One 1000 x 1000 float64 array is 8 MB.
    assert sym is m and peak < 4e6


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(0, 600),
    seed=st.integers(0, 2**32 - 1),
    entry=st.none() | st.tuples(st.integers(0, 599), st.integers(0, 599)),
    order=st.sampled_from("CF"),
)
@example(n=0, seed=0, entry=None, order="C")
@example(n=1, seed=0, entry=(0, 0), order="C")
@example(n=spectra._SYMMETRY_STRIP_ROWS, seed=0, entry=(0, 255), order="C")
@example(n=spectra._SYMMETRY_STRIP_ROWS + 1, seed=0, entry=(256, 3), order="C")
@example(n=spectra._SYMMETRY_STRIP_ROWS + 1, seed=0, entry=(3, 256), order="F")
@example(n=600, seed=0, entry=(599, 598), order="C")
@example(n=600, seed=0, entry=(520, 599), order="F")
def test_exact_symmetry_stage_agrees_with_scipy(n, seed, entry, order):
    # One entry, anywhere, moved by one ulp; the last strip of rows is a
    # partial one unless the strip height divides n.
    import scipy.linalg

    m = np.random.default_rng(seed).normal(size=(n, n))
    m = np.array(m + m.T, order=order)
    if entry is not None and n:
        row, col = entry[0] % n, entry[1] % n
        m[row, col] = np.nextafter(m[row, col], np.inf)
    assert spectra._exactly_symmetric(m) == scipy.linalg.issymmetric(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_esd_rejects_non_finite(bad):
    m = np.eye(4)
    m[1, 2] = m[2, 1] = bad
    with pytest.raises(NumericalFailureError, match="non-finite"):
        esd(m)


def test_mp_density_point_values():
    # gamma=1, x=2: sqrt((4-2)(2-0)) / (2 pi * 1 * 2) = 1/(2 pi).
    assert mp_density(1.0, 2.0) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-15)
    assert mp_density(1.0, 5.0) == 0.0
    assert mp_density(1.0, -0.5) == 0.0


@pytest.mark.parametrize("gamma,mass", [(0.25, 1.0), (0.5, 1.0), (1.0, 1.0), (4.0, 0.25)])
def test_mp_density_total_mass(gamma, mass):
    lo, hi = mp_support(gamma)
    val, _ = scipy.integrate.quad(lambda x: mp_density(gamma, x), lo, hi, limit=200)
    assert val == pytest.approx(mass, abs=1e-6)


def test_companion_golden_ratio():
    ev = companion_stieltjes(-1.0, 1.0, DiscreteLaw.delta(1.0))
    assert ev.residual <= 1e-12
    assert ev.m_tilde.imag == 0.0
    assert abs(ev.m_tilde.real - GOLDEN) <= 1e-12


def test_companion_small_alpha_collapses_to_point_mass():
    ev = companion_stieltjes(-1.0, 1e-8, DiscreteLaw.delta(3.0))
    assert abs(ev.m_tilde.real - 1.0) <= 1e-6


def test_companion_delta2_closed_form_and_simulation():
    # -1 = -1/m + 2/(1+2m) has the positive root m = 1/2.
    ev = companion_stieltjes(-1.0, 1.0, DiscreteLaw.delta(2.0))
    assert ev.residual <= 1e-12
    assert abs(ev.m_tilde.real - 0.5) <= 1e-12
    d, n = 60, 1800
    data = sample_dataset(n, d, CovarianceSpec.identity(d), MomentMatchedSampler.gaussian(), 0)
    gram = data.X @ data.X.T
    eigs = esd(gram * gram / n)
    assert abs(np.mean(1.0 / (eigs + 1.0)) - ev.m_tilde.real) <= 0.02


def test_companion_rejects_bad_points():
    law = DiscreteLaw.delta(1.0)
    for z in (1.0, complex(0.5, -1e-3), 0.0):
        with pytest.raises(InvalidArgumentError):
            companion_stieltjes(z, 1.0, law)


@pytest.mark.parametrize("z, alpha, nu, initial", [
    # m**2 overflows in the Newton step: the ladder tracks mt = 1/|z| past 1e154.
    (-1e-160 + 0j, 1.0, DiscreteLaw.delta(0.0), None),
    # m**2 underflows to zero in the Newton step; needs a negative atom.
    (-8.983555745460331e-120 + 0j, 1.718050048202382,
     DiscreteLaw.from_values([-0.8656121489724296, 0.2583457905858513]), None),
    # A warm start at m = 0 divides by zero in the first residual.
    (1j, 1.0, DiscreteLaw.delta(1.0), 0j),
], ids=["overflow", "underflow", "zero_start"])
def test_companion_out_of_float_range_is_typed(z, alpha, nu, initial):
    with pytest.raises(NumericalFailureError, match="left the float range"):
        companion_stieltjes(z, alpha, nu, initial=initial)


def test_law_integrals_out_of_float_range_is_typed():
    # The solve stops at its first residual check with mt = 1e-170; the derivative's mt**2 underflows.
    assert companion_stieltjes(-1e170, 1.0, DiscreteLaw.delta(1.0)).iterations == 1
    with pytest.raises(NumericalFailureError, match="left the float range"):
        law_integrals(1.0, DiscreteLaw.delta(1.0), 1e170)


def test_a_converged_solve_forms_no_derivative(monkeypatch):
    # A warm start at the root stops at its first residual check, with no
    # Newton step; mt' is formed by law_integrals alone.
    z, nu = complex(0.7, 0.3), DiscreteLaw.from_values([0.5, 1.0, 2.0])
    root = companion_stieltjes(z, 1.3, nu)
    calls = []
    second = spectra._second_integral
    monkeypatch.setattr(spectra, "_second_integral", lambda *args: calls.append(args) or second(*args))
    ev = companion_stieltjes(z, 1.3, nu, initial=root.m_tilde)
    assert (ev.m_tilde, ev.iterations, len(calls)) == (root.m_tilde, 1, 0)


def test_companion_identity_against_population_solver():
    rng = np.random.default_rng(42)
    law = DiscreteLaw.from_values([0.5, 1.0, 2.0, 3.5])
    for alpha in (0.5, 1.0, 2.0):
        for _ in range(20):
            z = complex(rng.uniform(-3.0, 8.0), rng.uniform(0.05, 3.0))
            mt = companion_stieltjes(z, alpha, law).m_tilde
            m = population_stieltjes(z, alpha, law)
            combo = alpha * m + (1.0 - alpha) * (-1.0 / z)
            assert abs(mt - combo) <= 1e-10


def test_companion_nevanlinna_property():
    rng = np.random.default_rng(3)
    law = DiscreteLaw.from_values([1.0, 2.0])
    for _ in range(20):
        z = complex(rng.uniform(-2, 6), rng.uniform(1e-4, 2.0))
        ev = companion_stieltjes(z, 1.3, law)
        assert ev.m_tilde.imag > 0.0


def test_companion_mass_normalization():
    law = DiscreteLaw.from_values([0.5, 2.0])
    for alpha in (0.5, 1.0, 2.0):
        scale = 2.0 * (1.0 + math.sqrt(alpha)) ** 2
        z = -1e6 * scale
        mt = companion_stieltjes(z, alpha, law).m_tilde.real
        assert abs(-z * mt - 1.0) <= 1e-4


def test_deformed_law_matches_mp_closed_form():
    xs = np.linspace(0.05, 3.95, 80)
    dens = LawSegment(1.0, DiscreteLaw.delta(1.0), xs)().density
    assert np.abs(dens - mp_density(1.0, xs)).max() <= 2e-3


def test_deformed_law_atom_and_mass():
    law = deformed_mp_law(0.5, DiscreteLaw.delta(2.0))
    assert law.atom0_mass == pytest.approx(0.5, abs=1e-10)
    assert law.total_mass() == pytest.approx(1.0, abs=2e-3)
    for alpha, nu in ((1.0, DiscreteLaw.delta(1.0)), (3.0, DiscreteLaw.delta(1.0)),
                      (0.8, DiscreteLaw.from_values([1.0, 2.0, 3.0]))):
        law = deformed_mp_law(alpha, nu)
        assert law.atom0_mass == pytest.approx(max(1.0 - alpha, 0.0), abs=1e-10)
        assert law.total_mass() == pytest.approx(1.0, abs=2e-3)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_isotropic_collapse_rescaling(alpha):
    # The delta_2 law at 2x, times 2, is the delta_1 law at x.
    xs = np.linspace(0.05, 0.95, 40) * (1.0 + math.sqrt(alpha)) ** 2
    via_delta2 = 2.0 * LawSegment(alpha, DiscreteLaw.delta(2.0), 2.0 * xs)().density
    via_delta1 = LawSegment(alpha, DiscreteLaw.delta(1.0), xs)().density
    assert np.abs(via_delta2 - via_delta1).max() <= 2e-3


def test_law_integrals_point_mass_at_zero():
    i0, i1, i2 = law_integrals(0.0, DiscreteLaw.delta(1.0), 2.0)
    assert (i0, i1, i2) == pytest.approx((0.5, 0.0, 0.25), abs=1e-14)


def test_law_integrals_golden_value():
    i0, _, _ = law_integrals(1.0, DiscreteLaw.delta(1.0), 1.0)
    assert i0 == pytest.approx(GOLDEN, abs=1e-12)


def test_law_integrals_against_quadrature():
    alpha, nu, s = 1.0, DiscreteLaw.delta(2.0), 4.0
    i0, i1, i2 = law_integrals(alpha, nu, s)
    law = deformed_mp_law(alpha, nu)
    q0 = np.trapezoid(law.density / (law.grid + s), law.grid)
    q2 = np.trapezoid(law.density / (law.grid + s) ** 2, law.grid)
    q1 = np.trapezoid(law.grid * law.density / (law.grid + s) ** 2, law.grid)
    assert i0 == pytest.approx(q0, rel=1e-3)
    assert i1 == pytest.approx(q1, rel=1e-3)
    assert i2 == pytest.approx(q2, rel=1e-3)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.1, 4.0),
    s=st.floats(0.05, 20.0),
    atoms=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=4),
)
def test_law_integrals_algebraic_identity(alpha, s, atoms):
    nu = DiscreteLaw.from_values(np.array(atoms))
    i0, i1, i2 = law_integrals(alpha, nu, s)
    assert abs(i1 + s * i2 - i0) <= 1e-12 * max(1.0, i0)
    assert min(i0, i1, i2) >= 0.0


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.2, 4.0),
    s=st.floats(0.05, 20.0),
    atoms=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=4),
)
def test_law_integrals_derivative_matches_a_central_difference(alpha, s, atoms):
    # I2 = -dI0/ds. The difference's truncation error is about h^2/s^2 = 1e-8
    # relative; the worst of 3000 random draws was 1.0e-8.
    nu = DiscreteLaw.from_values(np.array(atoms))
    h = 1e-4 * s
    _, _, i2 = law_integrals(alpha, nu, s)
    central = -(law_integrals(alpha, nu, s + h)[0] - law_integrals(alpha, nu, s - h)[0]) / (2.0 * h)
    assert i2 == pytest.approx(central, rel=1e-6, abs=0.0)


def test_ks_distance_quantile_construction():
    law = deformed_mp_law(1.0, DiscreteLaw.delta(1.0))
    cum = np.concatenate([[0.0], np.cumsum(np.diff(law.grid) * (law.density[1:] + law.density[:-1]) / 2)])
    cum /= cum[-1]
    n = 200
    targets = (np.arange(1, n + 1) - 0.5) / n
    quantiles = np.interp(targets, cum, law.grid)
    assert ks_distance(quantiles, law) <= 1.0 / n + 5e-3


def test_ks_distance_disjoint_mass():
    law = deformed_mp_law(1.0, DiscreteLaw.delta(1.0))
    eigs = np.full(50, 10.0)
    assert ks_distance(eigs, law) >= 1.0 - 5e-3


def test_law_csv_export():
    law = deformed_mp_law(0.5, DiscreteLaw.delta(1.0))
    text = law_to_csv(law)
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0].startswith("# atom0_mass=0.5")
    assert lines[1] == "x,density"
    assert len(lines) == 2 + law.grid.size
    assert lines[2] == "%r,%r" % (float(law.grid[0]), float(law.density[0]))


def test_deformed_law_disconnected_support():
    # Widely separated population atoms can split the support; the trimmed
    # grid keeps the interior gap and the mass still normalizes.
    nu = DiscreteLaw(np.array([0.05, 30.0]), np.array([0.5, 0.5]))
    for alpha in (0.3, 1.0, 5.0):
        law = deformed_mp_law(alpha, nu)
        assert law.total_mass() == pytest.approx(1.0, abs=2e-3)
        assert law.atom0_mass == pytest.approx(max(1.0 - alpha, 0.0), abs=1e-10)
        i0, i1, i2 = law_integrals(alpha, nu, 1.7)
        assert abs(i1 + 1.7 * i2 - i0) <= 1e-12


@pytest.mark.parametrize("alpha", [0.01, 100.0])
def test_deformed_law_extreme_aspect_ratios(alpha):
    law = deformed_mp_law(alpha, DiscreteLaw.delta(1.0))
    assert law.total_mass() == pytest.approx(1.0, abs=2e-3)


def test_companion_wide_scale_population():
    nu = DiscreteLaw.from_values(np.geomspace(1e-3, 1e3, 13))
    ev = companion_stieltjes(complex(-1e-9, 0.0), 1.0, nu)
    assert ev.residual <= 1e-12 * max(1.0, 1e-9)
    assert deformed_mp_law(1.0, nu).total_mass() == pytest.approx(1.0, abs=2e-3)


# A population spread over decades at large alpha: at z = -s the largest term
# of the fixed-point equation is 1/mt = alpha * int x/(1+x mt) dnu + s, far
# above max(1, s), and the residual is resolvable only relative to it.
def test_companion_negative_axis_large_alpha():
    nu = DiscreteLaw.from_values([0.004787792912800229, 0.2877205887386512, 64.07417129618355])
    ev = companion_stieltjes(-0.0013016696154710618, 711.7537509149355, nu)
    assert ev.m_tilde.real > 0
    assert ev.residual <= 1e-12 / ev.m_tilde.real


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(
    alpha=_log_uniform(0.0, 3.0),
    atoms=st.lists(_log_uniform(-3.0, 3.0), min_size=1, max_size=5),
    s=_log_uniform(-3.0, 3.0),
)
def test_companion_negative_axis_converges(alpha, atoms, s):
    ev = companion_stieltjes(complex(-s, 0.0), alpha, DiscreteLaw.from_values(atoms))
    m = ev.m_tilde.real
    assert m > 0
    assert ev.residual <= 1e-12 * max(1.0, s, 1.0 / m)


@pytest.mark.parametrize("cov, alpha", [
    (CovarianceSpec.uniform(60, 0.5, 1.5), 1.0),  # the esd-law benchmark law
    (CovarianceSpec.uniform(60, 0.5, 1.5), 0.5),  # the README mp-law example
    (CovarianceSpec.identity(60), 1.0),
], ids=["esd-law", "mp-law", "identity"])
def test_law_build_solves_within_warm_budget(monkeypatch, cov, alpha):
    # A warm start that stalls at a support edge gives up after
    # STIELTJES_WARM_STEPS and falls back to the cold ladder, which needs
    # far fewer steps than the 400-500 the stall used to take.
    solve = spectra.companion_stieltjes
    iterations = []

    def counting(*args, **kwargs):
        ev = solve(*args, **kwargs)
        iterations.append(ev.iterations)
        return ev

    monkeypatch.setattr(spectra, "companion_stieltjes", counting)
    law = deformed_mp_law(alpha, sigma2_diagonal(cov))
    assert len(iterations) >= spectra.LAW_GRID_POINTS
    assert max(iterations) <= 100
    assert law.total_mass() == pytest.approx(1.0, abs=2e-3)


LAWS = pytest.mark.parametrize("cov, alpha", [
    (CovarianceSpec.uniform(60, 0.5, 1.5), 1.0),  # the esd-law benchmark law
    (CovarianceSpec.uniform(60, 0.5, 1.5), 0.5),  # the README mp-law example
    (CovarianceSpec.identity(60), 1.0),
], ids=["esd-law", "mp-law", "identity"])


@LAWS
def test_segmented_law_matches_one_sweep(cov, alpha):
    nu = sigma2_diagonal(cov)
    law = deformed_mp_law(alpha, nu)
    grid = np.concatenate([segment.x for segment in spectra.law_segments(alpha, nu)[::-1]])
    assert grid.size == spectra.LAW_GRID_POINTS and np.all(np.diff(grid) > 0)
    dens = LawSegment(alpha, nu.compressed(), grid)().density
    live = np.nonzero(dens > spectra.LAW_DENSITY_FLOOR * dens.max())[0]
    lo, hi = max(int(live[0]) - 1, 0), min(int(live[-1]) + 2, grid.size)
    np.testing.assert_array_equal(law.grid, grid[lo:hi])
    # An absolute bound: near x = 0 with alpha < 1 the density is a
    # difference of terms of order 1e2, so its relative error is larger there.
    assert np.abs(law.density - dens[lo:hi]).max() <= 1e-10 * dens.max()


@LAWS
def test_law_records_each_segment_solve(monkeypatch, cov, alpha):
    solve = spectra.companion_stieltjes
    calls = []  # (x, iterations, converged)

    def counting(z, *args, **kwargs):
        try:
            ev = solve(z, *args, **kwargs)
        except NumericalFailureError as exc:
            calls.append((z.real, exc.iterations, False))
            raise
        calls.append((z.real, ev.iterations, True))
        return ev

    monkeypatch.setattr(spectra, "companion_stieltjes", counting)
    law = deformed_mp_law(alpha, sigma2_diagonal(cov))
    assert len(law.solvers) == spectra.LAW_SEGMENTS
    assert [s["x_max"] for s in law.solvers] == sorted((s["x_max"] for s in law.solvers), reverse=True)
    assert sum(s["points"] for s in law.solvers) == spectra.LAW_GRID_POINTS
    # Each of these laws has a warm start that stalls at a support edge.
    assert any(not ok for _, _, ok in calls)
    for stats in law.solvers:
        mine = [(steps, ok) for x, steps, ok in calls if stats["x_min"] <= x <= stats["x_max"]]
        done = [steps for steps, ok in mine if ok]
        failed = [steps for steps, ok in mine if not ok]
        assert stats["calls"] == len(mine)
        assert stats["iterations"] == sum(done) and stats["iterations_max"] == max(done)
        assert stats["cold_restarts"] == len(failed)
        assert stats["failed_warm_steps"] == sum(failed)
        assert all(0 < steps <= spectra.STIELTJES_WARM_STEPS for steps in failed)


def test_law_segments_do_not_depend_on_their_schedule():
    alpha, nu = 0.5, DiscreteLaw.from_values([1.0, 2.0, 3.0])
    segments = spectra.law_segments(alpha, nu)
    assert len(segments) == spectra.LAW_SEGMENTS
    # Top first, contiguous and of equal size.
    for upper, lower in zip(segments, segments[1:]):
        assert lower.x[-1] < upper.x[0]
    assert {segment.x.size for segment in segments} == {spectra.LAW_GRID_POINTS // spectra.LAW_SEGMENTS}
    bottom_first = [segment() for segment in segments[::-1]][::-1]
    law = deformed_mp_law(alpha, nu)
    again = deformed_mp_law(alpha, nu, bottom_first)
    assert law_to_csv(again) == law_to_csv(law)
    assert again.solvers == law.solvers
    for wrong in (bottom_first[::-1], bottom_first[:1]):
        with pytest.raises(InvalidArgumentError, match="law_segments"):
            deformed_mp_law(alpha, nu, wrong)


_ESD_LAW_ATOMS = tuple(sigma2_diagonal(CovarianceSpec.uniform(60, 0.5, 1.5)).atoms.tolist())


@settings(max_examples=4, deadline=None)
@given(
    atoms=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=4),
    alpha=st.floats(0.1, 4.0),
    k=st.integers(-45, 40),
)
@example(atoms=[1.0, 2.0], alpha=0.5, k=-43)
@example(atoms=_ESD_LAW_ATOMS, alpha=1.0, k=-5)  # the esd-law benchmark law
def test_law_scales_with_its_population_bit_for_bit(atoms, alpha, k):
    # The law holds no absolute scale: for nu scaled by 2^k (exact in
    # floating point) the grid scales by 2^k and the density by 2^-k exactly,
    # and every solve takes the same steps.
    nu = DiscreteLaw.from_values(atoms)
    c = 2.0**k
    law = deformed_mp_law(alpha, nu)
    scaled = deformed_mp_law(alpha, DiscreteLaw(nu.atoms * c, nu.weights))
    assert np.array_equal(scaled.grid, law.grid * c)
    assert np.array_equal(scaled.density, law.density / c)
    assert scaled.atom0_mass == law.atom0_mass
    assert scaled.solvers == tuple(dict(s, x_min=s["x_min"] * c, x_max=s["x_max"] * c) for s in law.solvers)


@pytest.mark.parametrize("initial, budget", [(None, "STIELTJES_MAX_STEPS"), (complex(5.0, 1.0), "STIELTJES_WARM_STEPS")],
                         ids=["cold", "warm"])
def test_unconverged_companion_solve_reports_its_steps(monkeypatch, initial, budget):
    monkeypatch.setattr(spectra, budget, 3)
    with pytest.raises(NumericalFailureError, match="did not converge") as info:
        companion_stieltjes(complex(1.0, 1e-8), 1.0, DiscreteLaw.delta(1.0), initial=initial)
    assert info.value.iterations == 3 and info.value.residual > 0


@pytest.mark.parametrize("alpha", [0.0, -1.0])
def test_law_segment_rejects_nonpositive_alpha(alpha):
    with pytest.raises(InvalidArgumentError, match="alpha must be positive"):
        LawSegment(alpha, DiscreteLaw.delta(1.0), np.linspace(0.1, 3.0, 5))


def test_law_segment_reports_a_failed_cold_start(monkeypatch):
    # The top point has no warm start to fall back from: its cold failure is the segment's.
    monkeypatch.setattr(spectra, "STIELTJES_MAX_STEPS", 1)
    segment = spectra.law_segments(1.0, DiscreteLaw.delta(1.0))[0]
    with pytest.raises(NumericalFailureError, match="density inversion failed: .*did not converge") as info:
        segment()
    assert info.value.iterations == 1 and info.value.residual > 0


def test_law_segment_sweeps_any_order_largest_first():
    nu = DiscreteLaw.from_values([1.0, 2.0, 3.0])
    xs = np.linspace(0.05, 8.0, 60)
    ascending = LawSegment(0.5, nu, xs)()
    order = np.random.default_rng(0).permutation(xs.size)
    shuffled = LawSegment(0.5, nu, xs[order])()
    np.testing.assert_array_equal(shuffled.density, ascending.density[order])
    assert shuffled.solver == ascending.solver
    assert (ascending.solver["x_min"], ascending.solver["x_max"]) == (0.05, 8.0)
    # Points may be any array-like, integers included: they are swept as float64.
    as_ints = LawSegment(0.5, nu, [1, 2, 3])()
    np.testing.assert_array_equal(as_ints.density, LawSegment(0.5, nu, np.array([1.0, 2.0, 3.0]))().density)
    assert as_ints.density.dtype == np.float64 and as_ints.density.min() > 0
