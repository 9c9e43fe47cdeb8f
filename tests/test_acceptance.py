"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole module takes a few minutes at desk scale.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from qrlab._lapack import one_lapack_thread
from qrlab.datagen import (
    CovarianceSpec,
    MomentMatchedSampler,
    reduced_tensor_features,
    sample_dataset,
    sigma2_diagonal,
    tensor_mean_vector,
)
from qrlab.kernels import (
    KernelFunction,
    kernel_matrix,
    quad_coeffs,
    quad_kernel_matrix,
    spectral_norm_gap,
)
from qrlab.krr import (
    TeacherModel,
    asymptotic_risk,
    asymptotic_training_error,
    deterministic_equivalents,
    empirical_risk,
    lambda_star_solve,
    make_labels,
    training_error,
)
from qrlab.oracles import oracle_check, population_stieltjes, quadform_concentration_stat, random_projector
from qrlab.seeding import TEACHER, substream
from qrlab.spectra import (
    DiscreteLaw,
    companion_stieltjes,
    deformed_mp_law,
    esd,
    ks_distance,
)
from test_krr import _brentq_lambda_star

GAUSS = MomentMatchedSampler.gaussian()


def _report(num: int, ok: bool, detail: str, t0: float) -> None:
    line = "criterion %02d %s :: %s (%.1fs)" % (num, "PASS" if ok else "FAIL", detail, time.time() - t0)
    print(line)
    assert ok, line


def test_criterion_01_tensor_identity():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 33))
        n = int(rng.integers(2, 201))
        data = sample_dataset(n, d, CovarianceSpec.identity(d), GAUSS, int(rng.integers(10_000)))
        x2 = reduced_tensor_features(data)
        gram = data.X @ data.X.T
        worst = max(worst, float(np.abs(gram**2 - x2 @ x2.T).max()))
    _report(1, worst <= 1e-9, "max |(XX')^2 - X2 X2'| = %.3g <= 1e-9" % worst, t0)


def test_criterion_02_sigma2_covariance_monte_carlo():
    t0 = time.time()
    d, n = 6, 200_000
    cov = CovarianceSpec.uniform(d, 0.5, 1.5)
    data = sample_dataset(n, d, cov, GAUSS, 202)
    x2 = reduced_tensor_features(data)
    centered = x2 - x2.mean(axis=0)
    emp_cov = centered.T @ centered / (n - 1)
    sq = centered**2
    second = sq.T @ sq / n
    se = np.sqrt(np.maximum(second - emp_cov**2, 0.0) / n)
    target = sigma2_diagonal(cov).atoms
    diag_dev = np.abs(np.diag(emp_cov) - target) / np.diag(se)
    p = target.size
    off_mask = ~np.eye(p, dtype=bool)
    off_dev = np.abs(emp_cov[off_mask]) / se[off_mask]
    ok = diag_dev.max() <= 5.0 and off_dev.max() <= 5.0
    _report(2, ok, "diag dev %.2f SE, off-diag dev %.2f SE (<= 5)" % (diag_dev.max(), off_dev.max()), t0)


def test_criterion_03_gap_decay_and_corrections():
    t0 = time.time()
    kern = KernelFunction.exp()
    # Bounded moment-matched entries keep the extreme-diagonal statistic
    # stable across seeds at these small dimensions.
    sampler = MomentMatchedSampler.gh_discrete(5)
    medians, medians_naive = {}, {}
    for d in (16, 24, 32, 48):
        cov = CovarianceSpec.identity(d)
        corrected = quad_coeffs(kern, cov)
        naive = quad_coeffs(kern, cov, corrected=False)
        gaps, gaps_naive = [], []
        for seed in range(5):
            data = sample_dataset(d * d // 2, d, cov, sampler, seed)
            k = kernel_matrix(data, kern)
            gaps.append(spectral_norm_gap(k - quad_kernel_matrix(data, corrected)))
            gaps_naive.append(spectral_norm_gap(k - quad_kernel_matrix(data, naive)))
        medians[d] = float(np.median(gaps))
        medians_naive[d] = float(np.median(gaps_naive))
    ladder = [medians[d] for d in (16, 24, 32, 48)]
    decreasing = all(a > b for a, b in zip(ladder, ladder[1:]))
    beats_naive = all(medians[d] <= medians_naive[d] for d in (32, 48))
    _report(
        3,
        decreasing and beats_naive,
        "medians %s strictly decreasing=%s, corrected<=naive at d>=32=%s"
        % (["%.3f" % v for v in ladder], decreasing, beats_naive),
        t0,
    )


def test_criterion_04_limit_law_ks():
    t0 = time.time()
    d, n, alpha = 60, 1800, 1.0
    # b4 = 0.5 keeps every correction term active; larger quartic tails push
    # the finite-size diagonal offset (f(1) - a0 - a2 d^2 - a, proportional
    # to b4) through the hard-edge sensitivity of the KS statistic.
    kern = KernelFunction.quartic(1.0, 1.0, 0.5)
    law_iso = deformed_mp_law(alpha, DiscreteLaw.delta(1.0))
    cov_i = CovarianceSpec.identity(d)
    coeffs_i = quad_coeffs(kern, cov_i)
    cov_u = CovarianceSpec.uniform(d, 0.5, 1.5)
    coeffs_u = quad_coeffs(kern, cov_u)
    law_uni = deformed_mp_law(alpha, sigma2_diagonal(cov_u))

    def seed_ks(seed):
        data = sample_dataset(n, d, cov_i, GAUSS, seed)
        k = kernel_matrix(data, kern)
        scaled = (2.0 * alpha / kern.derivs0[2]) * (k - coeffs_i.a_star * np.eye(n))
        ks_k = ks_distance(esd(scaled), law_iso)
        gram = data.X @ data.X.T
        ks_h = ks_distance(esd(gram * gram / (2.0 * n)), law_iso)
        data_u = sample_dataset(n, d, cov_u, GAUSS, seed)
        k_u = kernel_matrix(data_u, kern)
        scaled_u = (4.0 * alpha / kern.derivs0[2]) * (k_u - coeffs_u.a_star * np.eye(n))
        return ks_k, ks_h, ks_distance(esd(scaled_u), law_uni)

    # The eigensolves (_lapack.syevd) release the GIL, so the seeds run two at
    # a time, each solve on one BLAS thread: two threads apiece contend.
    with one_lapack_thread(), ThreadPoolExecutor(max_workers=2) as pool:
        per_seed = list(pool.map(seed_ks, range(3)))
    m_k, m_h, m_u = (float(np.median(v)) for v in zip(*per_seed))
    ok = m_k <= 0.06 and m_h <= 0.06 and m_u <= 0.08
    _report(4, ok, "KS kernel %.4f<=0.06, hadamard %.4f<=0.06, non-isotropic %.4f<=0.08" % (m_k, m_h, m_u), t0)


def test_criterion_05_stieltjes_exactness():
    t0 = time.time()
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    ev = companion_stieltjes(-1.0, 1.0, DiscreteLaw.delta(1.0))
    golden_ok = abs(ev.m_tilde.real - golden) <= 1e-12 and ev.residual <= 1e-12

    rng = np.random.default_rng(505)
    nu = DiscreteLaw.from_values([0.5, 1.0, 2.0, 3.0])
    worst_id = 0.0
    for alpha in (0.6, 1.3):
        for _ in range(10):
            z = complex(rng.uniform(-3.0, 9.0), rng.uniform(0.05, 2.5))
            mt = companion_stieltjes(z, alpha, nu).m_tilde
            combo = alpha * population_stieltjes(z, alpha, nu) + (1.0 - alpha) * (-1.0 / z)
            worst_id = max(worst_id, abs(mt - combo))
    identity_ok = worst_id <= 1e-10

    scale = nu.support_max * (1.0 + math.sqrt(1.3)) ** 2
    z_far = -1e6 * scale
    mass = -z_far * companion_stieltjes(z_far, 1.3, nu).m_tilde.real
    mass_ok = abs(mass - 1.0) <= 1e-4
    ok = golden_ok and identity_ok and mass_ok
    _report(
        5, ok,
        "golden dev %.2e<=1e-12, companion identity %.2e<=1e-10, mass dev %.2e<=1e-4"
        % (abs(ev.m_tilde.real - golden), worst_id, abs(mass - 1.0)),
        t0,
    )


def test_criterion_06_lambda_star_dual_route():
    # The second route is scipy's brentq on the scalar equation.
    t0 = time.time()
    closed = lambda_star_solve(1.0, DiscreteLaw.delta(2.0), 0.0, 0.5, 1.0)
    closed_ok = abs(closed.value - (1.0 + math.sqrt(5.0))) <= 1e-10
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(10):
        nu = DiscreteLaw.from_values(rng.uniform(0.2, 4.0, int(rng.integers(1, 5))))
        alpha, a_star = rng.uniform(0.2, 3.0), rng.uniform(0.01, 1.0)
        lam, fpp = rng.uniform(0.0, 2.0), rng.uniform(0.2, 3.0)
        res = lambda_star_solve(alpha, nu, a_star, lam, fpp)
        root = _brentq_lambda_star(alpha, nu, 4.0 * alpha * (a_star + lam) / fpp)
        worst = max(worst, abs(res.value - root) / max(1.0, res.value))
    ok = closed_ok and worst <= 1e-10
    _report(6, ok, "closed form dev %.2e, worst gap to brentq %.2e<=1e-10" % (
        abs(closed.value - (1.0 + math.sqrt(5.0))), worst), t0)


def test_criterion_07_training_error_limit():
    t0 = time.time()
    d, n, alpha = 60, 1800, 1.0
    cov = CovarianceSpec.identity(d)
    lam, sig, c2 = 1.0, 0.5, 1.0
    beta = np.full(d, 1.0 / math.sqrt(d))

    def run(pool, kern, c0, c1):
        pred = asymptotic_training_error(kern, cov, alpha, lam, c2, sig)

        def seed_error(seed):
            data = sample_dataset(n, d, cov, GAUSS, seed)
            base = TeacherModel.draw("pure_quadratic", cov, substream(seed, TEACHER, 0))
            teacher = base if (c0 == 0 and c1 == 0) else TeacherModel(c0, c1, beta, c2, base.G)
            y = make_labels(data, teacher, sig, seed)
            return training_error(kernel_matrix(data, kern), y, lam)

        return abs(float(np.mean(list(pool.map(seed_error, range(8))))) - pred) / pred

    quartic = KernelFunction.quartic(1, 1, 1)
    # The linear-term invariance requires a kernel whose expansion carries a
    # linear component (f'(0) > 0); a purely even kernel turns the c1 term
    # into effective noise instead of absorbing it.
    expk = KernelFunction.exp()
    # The kernel build and the Cholesky solve release the GIL, so the seeds
    # run two at a time, as in criterion 04.
    with one_lapack_thread(), ThreadPoolExecutor(max_workers=2) as pool:
        rel_base = run(pool, quartic, 0.0, 0.0)
        rel_c0 = run(pool, quartic, 1.0, 0.0)
        rel_exp = run(pool, expk, 0.0, 0.0)
        rel_exp_c01 = run(pool, expk, 1.0, 1.0)
    ok = max(rel_base, rel_c0, rel_exp, rel_exp_c01) <= 0.10
    _report(
        7, ok,
        "rel gaps: quartic %.3f, quartic+c0 %.3f, exp %.3f, exp+c0+c1 %.3f (<= 0.10)"
        % (rel_base, rel_c0, rel_exp, rel_exp_c01),
        t0,
    )


def test_criterion_08_deterministic_teacher_risk():
    t0 = time.time()
    d, n, alpha = 60, 1800, 1.0
    cov = CovarianceSpec.identity(d)
    # A dominant quadratic component (b2 = 6) keeps the effective
    # regularization small enough that the vanishing-bias regime is visible
    # at this scale; the shrinkage left at d=60 scales like
    # (lambda_*/(2+lambda_*))^2 * 2/d.
    kern = KernelFunction.quartic(1.0, 6.0, 1.0)
    lam, sig = 1.0, 0.5
    pred = asymptotic_risk(kern, cov, alpha, lam, sig, "deterministic_sigma")

    def seed_risks(seed):
        data = sample_dataset(n, d, cov, GAUSS, seed)
        mean, _, _ = empirical_risk(data, kern, "deterministic_sigma", lam, sig, 4000, 8, seed)
        bias, _, _ = empirical_risk(data, kern, "deterministic_sigma", lam, 0.0, 4000, 2, seed)
        return mean, bias

    with one_lapack_thread(), ThreadPoolExecutor(max_workers=2) as pool:
        vals, bias_vals = zip(*pool.map(seed_risks, range(4)))
    emp = float(np.mean(vals))
    bias = float(np.mean(bias_vals))
    rel = abs(emp - pred.total) / pred.total
    ok = rel <= 0.15 and bias <= 0.2 * pred.total
    _report(
        8, ok,
        "risk %.5f vs sigma^2 V %.5f (rel %.3f<=0.15), bias proxy %.5f <= %.5f"
        % (emp, pred.total, rel, bias, 0.2 * pred.total),
        t0,
    )


def test_criterion_09_random_teacher_risk():
    t0 = time.time()
    d, n, alpha = 60, 1800, 1.0
    cov = CovarianceSpec.identity(d)
    kern = KernelFunction.quartic(1.0, 1.0, 1.0)
    lam, sig = 1.0, 0.5
    pred = asymptotic_risk(kern, cov, alpha, lam, sig, "pure_quadratic")

    def seed_risk(seed):
        data = sample_dataset(n, d, cov, GAUSS, seed)
        return empirical_risk(data, kern, "pure_quadratic", lam, sig, 4000, 8, seed)[0]

    with one_lapack_thread(), ThreadPoolExecutor(max_workers=2) as pool:
        vals = list(pool.map(seed_risk, range(4)))
    emp = float(np.mean(vals))
    rel = abs(emp - pred.total) / pred.total
    _report(
        9, rel <= 0.15,
        "risk %.4f vs sigma^2 V + B = %.4f (rel %.3f <= 0.15)" % (emp, pred.total, rel),
        t0,
    )


def test_criterion_10_deterministic_equivalences():
    t0 = time.time()
    d, n, alpha = 60, 1800, 1.0
    cov = CovarianceSpec.identity(d)
    kern = KernelFunction.quartic(1.0, 1.0, 1.0)
    firsts, seconds = [], []
    for seed in range(3):
        data = sample_dataset(n, d, cov, GAUSS, seed)
        eq = deterministic_equivalents(data, kern, alpha, lam=1.0)
        firsts.append(eq["first"])
        seconds.append(eq["second"])
    rel1 = abs(np.mean([e for e, _ in firsts]) - firsts[0][1]) / abs(firsts[0][1])
    rel2 = abs(np.mean([e for e, _ in seconds]) - seconds[0][1]) / abs(seconds[0][1])
    ok = rel1 <= 0.05 and rel2 <= 0.05
    _report(10, ok, "resolvent traces rel %.4f and %.4f (<= 0.05)" % (rel1, rel2), t0)


def test_criterion_11_oracle_suite():
    t0 = time.time()
    results = oracle_check(mc_draws=10_000_000, seed=0)
    failed = [r.name for r in results if not r.passed]
    cubic = next(r for r in results if r.name == "quadform_cubic_printed_vs_mc")
    _report(
        11, not failed,
        "oracle checks %d/%d pass; cubic-moment log: %s" % (
            len(results) - len(failed), len(results), cubic.detail),
        t0,
    )


def test_criterion_12_concentration_decay():
    t0 = time.time()
    medians = []
    for d in (16, 32, 64):
        n = d * d // 2
        cov = CovarianceSpec.identity(d)
        data = sample_dataset(n, d, cov, GAUSS, 1200 + d)
        x2 = reduced_tensor_features(data) - tensor_mean_vector(cov)[None, :]
        p = x2.shape[1]
        projector = random_projector(p, p // 2, seed=d)
        devs = quadform_concentration_stat(x2, sigma2_diagonal(cov), projector)
        medians.append(float(np.median(devs)))
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    _report(12, decreasing, "median deviations %s strictly decreasing" % (["%.4f" % v for v in medians],), t0)
