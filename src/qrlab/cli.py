"""Experiment runner.

Subcommands (each one's --help lists the config keys it reads):

  approx-norm   spectral-norm gap between K and its quadratic surrogate
  esd           empirical spectrum of the recentered kernel vs the limit law
  mp-law        limit-law density export (no data involved)
  train-error   empirical vs asymptotic training error
  lambda-star   effective regularization and the (V, B) risk bundle
  risk          empirical vs asymptotic generalization error
  oracle-check  reference-oracle self-test table

Configuration comes from an optional JSON file (--config) plus flag
overrides; flags win. The file's keys are the flag names with "_" for "-"
(--lambda is "lambda"), plus an optional "experiment" that must be the
subcommand's name, as results.json records it ("mp-law"). A subcommand
takes only the keys it reads, as flags or file keys; any other key is a
configuration error. A value may be the flag's text or its JSON type; a
non-finite number (nan, inf) is a configuration error. A spec (kernel, cov,
sampler, teacher) may be the spec string or an object such as
{"type": "quartic", "b0": 1, "b2": 1, "b4": 1}, and both give the flag's
canonical config and hash. Objects also take the JSON-only keys
"seed" (uniform and two_point covariances) and "c0", "c1" (teachers;
train-error only, other experiments reject them). Unknown keys in a spec
are a configuration error. The sample count is derived as
n = round(d^2/(2 alpha)); an n whose n x n float64 array this platform
cannot address is a configuration error. Only approx-norm takes a ladder of
d values; the other experiments take one, and oracle-check one seed. A
trailing comma makes a one-seed list (--seeds 3, is seed 3; --seeds 3 is
the count of seeds 0, 1, 2). Per-seed work fans
out to a thread pool capped by QRLAB_THREADS (an integer >= 1; default the
CPU count): approx-norm checks every rung before it pools the (d, seed)
tasks, and esd pools its limit law's grid segments beside the seeds'
spectra, the top segment first and the others last, one segment at a time.
Every run writes results.json (deterministic given config,
seeds and the BLAS thread count; its config and sha256 config hash cover
the experiment's name and the keys it reads, less out), results.csv (one
row per record of results.json, headed by the first record's keys), and a
results.meta.json sidecar holding the wall-clock data (runtime_ms per seed
task, or of the whole run for experiments off the pool; law_build_ms for
esd and mp-law, summed over the law's segments), the solver statistics
under solvers (approx-norm: per task, Lanczos matvec counts and certified
residuals; esd and mp-law: per law segment, companion solves, their
iterations, and the cold restarts with the steps the failed warm starts
spent; train-error and risk: per seed, the ridge solve's largest residual
over its bound, ridge_residual_ratio, at most 1) and the environment (library
versions, CPU count, BLAS thread variables, seed workers). esd and mp-law
also write an SVG density overlay (with the first seed's eigenvalue
histogram for esd) and law.csv, and esd eigs.csv.

Seed discipline: each record's master seed is split into fixed consumer
substreams (data=1, teacher=2, noise=3, test=4) so adding a consumer never
shifts another consumer's stream.

Exit codes: 0 success, 1 configuration error, 2 assumption violation,
3 numerical failure or capacity error. Every experiment that reads a kernel
exits 3 before any n x n work when a surrogate coefficient (a0, a1, a2,
a_star) overflows; lambda-star with --a-star-override does not compute
a_star. A task of approx-norm, esd, train-error or risk holds one n x n
array, besides blocks of a few rows; each exits 3 with a capacity error
before any n x n work when its largest tasks, one per seed worker, would
need more than the MemAvailable of /proc/meminfo. Warnings print as one
"warning: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from . import _lapack, datagen, kernels, krr, oracles, plots, spectra
from .seeding import TEACHER, substream
from .errors import (
    AssumptionViolationError,
    CapacityError,
    InvalidArgumentError,
    NumericalFailureError,
    QrlabError,
)

# Loaders turn a JSON value or a flag's text into the canonical value and
# raise ValueError or TypeError on anything else.
def _float(v) -> float:
    if isinstance(v, bool):
        raise ValueError("expected a number, got %r" % v)
    out = float(v)
    if not math.isfinite(out):
        raise ValueError("expected a finite number, got %r" % out)
    return out


def _int(v) -> int:
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError("expected an integer, got %r" % v)
    return int(v)


def _bool(v) -> bool:
    if not isinstance(v, bool):
        raise ValueError("expected true or false, got %r" % v)
    return v


def _checked(load, test, what):
    """``load``, then reject a value failing ``test`` as not ``what``."""

    def checked(v):
        out = load(v)
        if not test(out):
            raise ValueError("must be %s, got %r" % (what, out))
        return out

    return checked


def _list(load):
    """A non-empty list of ``load`` values from a JSON list, a scalar or comma
    text; one trailing comma is dropped, so "3," is the list [3]."""

    def parse(v):
        items = v.removesuffix(",").split(",") if isinstance(v, str) else v if isinstance(v, list) else [v]
        if not items:
            raise ValueError("expected at least one value")
        return [load(x) for x in items]

    return parse


def _seeds(v) -> list[int]:
    """A list of seeds (a JSON list or comma text), else a seed count."""
    if isinstance(v, list) or (isinstance(v, str) and "," in v):
        return _list(_checked(_int, lambda s: s >= 0, "a nonnegative seed"))(v)
    return list(range(_checked(_int, lambda n: n >= 1, "a positive seed count")(v)))


# Spec kinds per spec field: the library class, the key naming the kind and,
# per kind, its parameters in the order of the flag form ``name:v1,v2,...``.
# A kind with one parameter takes the whole text after the colon. Each kind
# is a constructor of the class, except that teachers are drawn per seed by
# ``TeacherModel.draw(kind, ...)``. Parameters ending in "?" are optional and
# come only from a JSON object.
_SPECS = {
    "kernel": (kernels.KernelFunction, "type", {
        "exp": (), "cosh": (), "quartic": ("b0", "b2", "b4"), "custom_poly": ("coeffs",)}),
    "cov": (datagen.CovarianceSpec, "kind", {
        "identity": (), "uniform": ("lo", "hi", "seed?"), "two_point": ("v1", "v2", "p", "seed?")}),
    "sampler": (datagen.MomentMatchedSampler, "mode", {"gaussian": (), "gh_discrete": ("m",)}),
    "teacher": (krr.TeacherModel, "kind", dict.fromkeys(krr.RISK_TEACHERS, ("c0?", "c1?"))),
}
_PARAM_LOADERS = {"coeffs": _list(_float), "m": _int, "seed": _int}


def _required(params) -> list[str]:
    return [p for p in params if not p.endswith("?")]


def _spec_grammar(spec_field: str, only: str | None = None) -> str:
    """The flag forms of a spec field's kinds (of kind ``only``, if given)."""
    kinds = _SPECS[spec_field][2]
    return " | ".join(
        ":".join([name, ",".join(_required(params))]) if _required(params) else name
        for name, params in kinds.items() if only in (None, name)
    )


def _spec(spec_field: str):
    """Loader of a spec field: a spec string or a JSON object, to the canonical dict."""
    _, key, kinds = _SPECS[spec_field]

    def load(v) -> dict:
        if isinstance(v, str):
            name, sep, text = v.partition(":")
            required = _required(kinds.get(name, ()))
            items = ([text] if len(required) == 1 else text.split(",")) if sep else []
            if name in kinds and len(items) != len(required):
                raise ValueError("expected %s, got %r" % (_spec_grammar(spec_field, name), v))
            v = {key: name, **dict(zip(required, items))}
        if not isinstance(v, dict):
            raise ValueError("expected a spec string or a JSON object")
        name = v.get(key)
        if name not in kinds:
            raise ValueError("unknown %s %s %r; expected %s" % (spec_field, key, name, _spec_grammar(spec_field)))
        params = {p.rstrip("?"): p.endswith("?") for p in kinds[name]}
        unknown = sorted(set(v) - set(params) - {key})
        if unknown:
            raise ValueError("unknown %s key(s) %s for %r" % (spec_field, ", ".join(unknown), name))
        out = {key: name}
        for p, optional in params.items():
            if p in v:
                out[p] = _PARAM_LOADERS.get(p, _float)(v[p])
            elif not optional:
                raise ValueError("%s %r needs %r" % (spec_field, name, p))
        return out

    return load


def _field(default, load, help=None, key=None, hashed=True):
    """A config field: ``default`` (a JSON value or flag text, passed through
    ``load``), flag help and, where it differs from the attribute name, the
    JSON key. The flag is ``--`` plus the key with dashes. An unhashed field
    is left out of ``canonical()`` and of equality."""
    metadata = {"load": load, "help": help} | ({"key": key} if key else {})
    return field(default_factory=lambda: load(default), compare=hashed, metadata=metadata)


@dataclass
class ExperimentConfig:
    experiment: str
    d: list[int] = _field(
        [24], _list(_checked(_int, lambda n: n >= 1, "a positive dimension")),
        "dimension, or comma list for approx-norm ladders",
    )
    alpha: float = _field(1.0, _checked(_float, lambda a: a > 0, "positive"))
    kernel: dict = _field("exp", _spec("kernel"), _spec_grammar("kernel"))
    cov: dict = _field("identity", _spec("cov"), _spec_grammar("cov"))
    sampler: dict = _field("gaussian", _spec("sampler"), _spec_grammar("sampler"))
    lam: float = _field(1.0, _float, key="lambda")
    sigma_eps: float = _field(0.5, _float)
    teacher: dict = _field(krr.RISK_TEACHERS[0], _spec("teacher"), _spec_grammar("teacher"))
    seeds: list[int] = _field([0], _seeds, "count, or comma list of seeds")
    out: str = _field("qrlab-out", str, hashed=False)
    n_test: int = _field(2000, _int)
    n_repl: int = _field(8, _int)
    c2: float = _field(1.0, _float)
    a_star_override: float | None = _field(None, lambda v: None if v is None else _float(v))
    asymptotic_nu: bool = _field(False, _bool)
    compare_naive: bool = _field(False, _bool)
    mc_draws: int = _field(1_000_000, _int)

    def n_for(self, d: int) -> int:
        """n = round(d^2/(2 alpha)), refused unless this platform can address
        an n x n float64 array."""
        exact = d * d / (2.0 * self.alpha)
        n = round(exact) if math.isfinite(exact) else None
        if n is None or 8 * n * n > sys.maxsize:
            raise InvalidArgumentError("derived n = round(d^2/(2 alpha)) = %.4g is too large for an n x n "
                                       "float64 array on this platform" % exact)
        if n < 1:
            raise InvalidArgumentError("derived n = round(d^2/(2 alpha)) must be >= 1, got %d" % n)
        return n

    def canonical(self) -> dict:
        """The experiment and the hashed config keys it reads."""
        keys = _EXPERIMENT_TABLE[self.experiment][1]
        out = {key: getattr(self, _FIELDS[key].name) for key in keys if _FIELDS[key].compare}
        return {"experiment": self.experiment, **out}

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# JSON key -> dataclass field, for every field but ``experiment``.
_FIELDS = {f.metadata.get("key", f.name): f for f in fields(ExperimentConfig) if f.metadata}


def _build(spec_field: str, spec: dict, *lead):
    """The library object of a canonical spec dict: its kind's constructor
    called with ``lead`` (a covariance's d), then the kind's parameters, with
    None for an absent optional one."""
    cls, key, kinds = _SPECS[spec_field]
    return getattr(cls, spec[key])(*lead, *(spec.get(p.rstrip("?")) for p in kinds[spec[key]]))


def _thread_limit() -> int:
    """Seed-worker cap: QRLAB_THREADS (an integer >= 1) or the CPU count."""
    cap = os.environ.get("QRLAB_THREADS")
    if not cap:
        return os.cpu_count() or 1
    try:
        limit = int(cap)
    except ValueError:
        limit = 0
    if limit < 1:
        raise InvalidArgumentError("QRLAB_THREADS must be an integer >= 1, got %r" % cap)
    return limit


def _worker_count(n_tasks: int) -> int:
    return max(1, min(_thread_limit(), n_tasks))


def _environment(seed_workers: int) -> dict:
    """Library versions, the LAPACK eigenvalue routine ``_lapack`` resolved
    and the thread count of its OpenBLAS (None where unreported), CPUs, raw
    BLAS thread variables (None when unset), seed workers."""
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "eigen_driver": _lapack.EIGEN_DRIVER,
        "lapack_threads": _lapack.lapack_threads(),
        "cpu_count": os.cpu_count(),
        **{var: os.environ.get(var) for var in blas_vars},
        "seed_workers": seed_workers,
    }


def _map_seeds(fn, seeds):
    """fn over the seeds (or per-seed tasks) on the seed pool: the records, in
    order, and a dict of the per-task ``runtime_ms`` and the ``seed_workers``
    count."""
    records = [None] * len(seeds)
    timings = [0.0] * len(seeds)

    def call(i: int):
        t0 = time.perf_counter()
        records[i] = fn(seeds[i])
        timings[i] = (time.perf_counter() - t0) * 1000.0

    workers = _worker_count(len(seeds))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(call, range(len(seeds))))
    return records, {"runtime_ms": timings, "seed_workers": workers}


def _write_outputs(cfg: ExperimentConfig, records, summary, stats: dict, files: dict) -> Path:
    """results.json, results.csv (one row per record), results.meta.json and
    the runner's ``files`` (name -> text); ``stats`` holds the run's timings
    and, for experiments run on the seed pool, its ``seed_workers`` (1
    otherwise)."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    config_hash = cfg.config_hash()
    payload = {
        "config_hash": config_hash,
        "config": cfg.canonical(),
        "records": records,
        "summary": summary,
    }
    (out / "results.json").write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    with open(out / "results.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(records[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
    meta = {"written_at_unix": time.time(), **stats, "config_hash": config_hash}
    meta["environment"] = _environment(meta.pop("seed_workers", 1))
    (out / "results.meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")
    for name, text in files.items():
        (out / name).write_text(text)
    return out


def _mem_available() -> int | None:
    """MemAvailable from /proc/meminfo in bytes, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_capacity(task_bytes: list[int]) -> None:
    """Refuse a pool whose largest tasks, one per worker, would together hold
    more than the available memory (CapacityError); pass when it is unknown."""
    required = sum(sorted(task_bytes, reverse=True)[:_worker_count(len(task_bytes))])
    available = _mem_available()
    if available is not None and required > available:
        raise CapacityError(
            "the largest concurrent tasks need about %d MB, and %d MB of memory is available"
            % (required // 2**20, available // 2**20),
            required_bytes=required,
        )


def _run_approx_norm(cfg: ExperimentConfig):
    kernel = _build("kernel", cfg.kernel)
    sampler = _build("sampler", cfg.sampler)
    # The naive surrogate is built only under --compare-naive. Every rung is
    # built and checked, and the pool's memory estimated, before the first
    # n x n matrix exists.
    rungs = {}
    for d in cfg.d:
        cov = _build("cov", cfg.cov, d)
        coeffs = kernels.quad_coeffs(kernel, cov)
        naive = kernels.quad_coeffs(kernel, cov, corrected=False) if cfg.compare_naive else None
        rungs[d] = (cfg.n_for(d), cov, coeffs, naive)
    tasks = [(d, seed) for d in cfg.d for seed in cfg.seeds]
    _check_capacity([kernels.strip_build_bytes(rungs[d][0], d) for d, _ in tasks])

    def one(task):
        d, seed = task
        n, cov, coeffs, naive = rungs[d]
        data = datagen.sample_dataset(n, d, cov, sampler, seed)
        # One n x n array per task: D = K - K2, then shifted in place to the
        # naive surrogate's difference, whose solve starts from the corrected
        # solve's Ritz vector.
        diff = kernels.gap_matrix(data, kernel, coeffs)
        solves = {"gap": kernels._lanczos_gap(diff)}
        if naive is not None:
            kernels.shift_gap_matrix(diff, data, coeffs, naive)
            solves["gap_naive"] = kernels._lanczos_gap(diff, start=solves["gap"].vector)
        rec = {"d": d, "n": data.n, "seed": seed}
        solver = {"d": d, "seed": seed}
        for key, solve in solves.items():
            rec[key] = solve.gap
            solver[key] = {"matvecs": solve.matvecs, "residual": solve.residual, "bound": solve.bound}
        return rec, solver

    results, stats = _map_seeds(one, tasks)
    records = [rec for rec, _ in results]
    stats["solvers"] = [solver for _, solver in results]
    keys = ("gap", "gap_naive") if cfg.compare_naive else ("gap",)

    def medians(key):
        return {str(d): float(np.median([r[key] for r in records if r["d"] == d])) for d in cfg.d}

    return records, {"median_%s_by_d" % key: medians(key) for key in keys}, stats, {}


def _run_esd(cfg: ExperimentConfig):
    d = cfg.d[0]
    n = cfg.n_for(d)
    cov = _build("cov", cfg.cov, d)
    kernel = _build("kernel", cfg.kernel)
    sampler = _build("sampler", cfg.sampler)
    # Both checks (f''(0) and the surrogate coefficients) fail the run here,
    # before the law and K. The spectral law holds for either sign of f''(0).
    second = kernel.derivs0[2]
    if second == 0:
        raise AssumptionViolationError("f''(0) must be nonzero for the spectral limit")
    a_star, nu = krr.limit_inputs(kernel, cov)
    factor = 4.0 * cfg.alpha / second
    # A seed task peaks in the strip build of K: it then solves K in place
    # (``_lapack.syevd``), beside the data and LAPACK's workspace (about
    # 1.5 MB at n = 1800, less than the strip temporaries).
    _check_capacity([kernels.strip_build_bytes(n, d)] * len(cfg.seeds))

    # The law does not depend on the seeds. Its grid segments are pool tasks:
    # the top segment first, then the seeds, then the other segments last,
    # and one lock keeps two segments from ever running at once. A segment is
    # a Python loop, and two of them on two threads hold the GIL in turns:
    # the esd-law benchmark's two segments took 0.79-0.86 s side by side
    # against 0.42-0.49 s one after the other (2-CPU machine, one BLAS thread).
    segments = spectra.law_segments(cfg.alpha, nu)
    one_segment_at_a_time = threading.Lock()

    def one(task):
        if isinstance(task, spectra.LawSegment):
            with one_segment_at_a_time:
                return task()
        data = datagen.sample_dataset(n, d, cov, sampler, task)
        # Recentred and scaled in place: (4 alpha / f''(0)) (K - a_star I).
        k_mat = kernels.kernel_matrix(data, kernel)
        k_mat[np.diag_indices(n)] -= a_star
        k_mat *= factor
        return spectra.esd(k_mat)

    seeds = len(cfg.seeds)
    results, pool = _map_seeds(one, [segments[0], *cfg.seeds, *segments[1:]])
    spectrum = results[1:1 + seeds]
    law = spectra.deformed_mp_law(cfg.alpha, nu, [results[0], *results[1 + seeds:]])
    records = [{"d": d, "n": n, "seed": seed, "ks": spectra.ks_distance(eigs, law)}
               for seed, eigs in zip(cfg.seeds, spectrum)]
    # The first seed's spectrum goes into the overlay and eigs.csv.
    files = {
        "overlay.svg": plots.svg_histogram_overlay(spectrum[0], law, title="recentered kernel spectrum, d=%d" % d),
        "law.csv": spectra.law_to_csv(law),
        "eigs.csv": "eigenvalue\n" + "".join("%r\n" % float(v) for v in spectrum[0]),
    }
    summary = {"median_ks": float(np.median([r["ks"] for r in records]))}
    print("KS median over %d seeds: %.4f" % (len(records), summary["median_ks"]))
    runtime_ms = pool["runtime_ms"]
    stats = {
        "runtime_ms": runtime_ms[1:1 + seeds],
        "law_build_ms": runtime_ms[0] + sum(runtime_ms[1 + seeds:]),
        "solvers": list(law.solvers),
        "seed_workers": pool["seed_workers"],
    }
    return records, summary, stats, files


def _run_mp_law(cfg: ExperimentConfig):
    d = cfg.d[0]
    cov = _build("cov", cfg.cov, d)
    nu = datagen.sigma2_diagonal(cov)
    t0 = time.perf_counter()
    law = spectra.deformed_mp_law(cfg.alpha, nu)
    law_build_ms = (time.perf_counter() - t0) * 1000.0
    files = {
        "law.csv": spectra.law_to_csv(law),
        "overlay.svg": plots.svg_histogram_overlay(None, law, title="limit law, alpha=%g" % cfg.alpha),
    }
    records = [{
        "alpha": cfg.alpha,
        "atom0_mass": law.atom0_mass,
        "total_mass": law.total_mass(),
        "grid_points": int(law.grid.size),
    }]
    return records, records[0], {"law_build_ms": law_build_ms, "solvers": list(law.solvers)}, files


def _run_train_error(cfg: ExperimentConfig):
    d = cfg.d[0]
    n = cfg.n_for(d)
    cov = _build("cov", cfg.cov, d)
    kernel = _build("kernel", cfg.kernel)
    sampler = _build("sampler", cfg.sampler)
    teacher_kind = cfg.teacher["kind"]
    c0 = cfg.teacher.get("c0", 0.0)
    c1 = cfg.teacher.get("c1", 0.0)
    # A seed task peaks in the strip build of K, which the ridge fit then
    # factors in place (``krr.RidgeFactor``).
    _check_capacity([kernels.strip_build_bytes(n, d)] * len(cfg.seeds))
    predicted = krr.asymptotic_training_error(kernel, cov, cfg.alpha, cfg.lam, cfg.c2, cfg.sigma_eps)

    def one(seed):
        data = datagen.sample_dataset(n, d, cov, sampler, seed)
        teacher = krr.TeacherModel.draw(teacher_kind, cov, substream(seed, TEACHER, 0), c0, c1, cfg.c2)
        y = krr.make_labels(data, teacher, cfg.sigma_eps, seed)
        emp, ratio = krr._training_fit(kernels.kernel_matrix(data, kernel), y, cfg.lam)
        record = {"seed": seed, "empirical": emp, "predicted": predicted}
        return record, {"seed": seed, "ridge_residual_ratio": ratio}

    results, stats = _map_seeds(one, cfg.seeds)
    records = [rec for rec, _ in results]
    stats["solvers"] = [solver for _, solver in results]
    mean = float(np.mean([r["empirical"] for r in records]))
    summary = {
        "mean_empirical": mean,
        "predicted": predicted,
        "relative_gap": abs(mean - predicted) / abs(predicted) if predicted else None,
    }
    print("train error: mean empirical %.6g vs predicted %.6g" % (mean, predicted))
    return records, summary, stats, {}


def _run_lambda_star(cfg: ExperimentConfig):
    d = cfg.d[0]
    cov = _build("cov", cfg.cov, d)
    kernel = _build("kernel", cfg.kernel)
    a_star, nu = krr.limit_inputs(kernel, cov, cfg.a_star_override, cfg.asymptotic_nu)
    pred = krr.risk_limit(cfg.alpha, nu, a_star, kernel.derivs0[2], cfg.lam, cfg.sigma_eps, cfg.teacher["kind"])
    ls = pred.solution
    record = {
        "lambda_star": ls.value,
        "residual": ls.residual,
        "V": pred.V,
        "B": pred.B,
        "total": pred.total,
    }
    print("lambda_star = %.12g" % ls.value)
    return [record], record, {}, {}


def _run_risk(cfg: ExperimentConfig):
    d = cfg.d[0]
    n = cfg.n_for(d)
    cov = _build("cov", cfg.cov, d)
    kernel = _build("kernel", cfg.kernel)
    sampler = _build("sampler", cfg.sampler)
    teacher_kind = cfg.teacher["kind"]
    _check_capacity([krr.empirical_risk_bytes(n, d, cfg.n_test, cfg.n_repl)] * len(cfg.seeds))
    pred = krr.asymptotic_risk(kernel, cov, cfg.alpha, cfg.lam, cfg.sigma_eps, teacher_kind)

    def one(seed):
        data = datagen.sample_dataset(n, d, cov, sampler, seed)
        mean, stderr, ratio = krr.empirical_risk(
            data, kernel, teacher_kind, cfg.lam, cfg.sigma_eps, cfg.n_test, cfg.n_repl, seed
        )
        record = {"seed": seed, "empirical": mean, "stderr": stderr, "predicted": pred.total}
        return record, {"seed": seed, "ridge_residual_ratio": ratio}

    results, stats = _map_seeds(one, cfg.seeds)
    records = [rec for rec, _ in results]
    stats["solvers"] = [solver for _, solver in results]
    per_seed = [r["empirical"] for r in records]
    mean = float(np.mean(per_seed))
    summary = {
        "mean_empirical": mean,
        "empirical_dispersion": float(np.std(per_seed, ddof=1)) if len(per_seed) > 1 else 0.0,
        "predicted": pred.total,
        "lambda_star": pred.solution.value,
        "V": pred.V,
        "B": pred.B,
        "relative_gap": abs(mean - pred.total) / abs(pred.total) if pred.total else None,
    }
    print("risk: mean empirical %.6g vs predicted %.6g" % (mean, pred.total))
    return records, summary, stats, {}


def _run_oracle_check(cfg: ExperimentConfig):
    results = oracles.oracle_check(mc_draws=cfg.mc_draws, seed=cfg.seeds[0])
    records = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    width = max(len(r.name) for r in results)
    for r in results:
        print("%-*s  %s  %s" % (width, r.name, "PASS" if r.passed else "FAIL", r.detail))
    summary = {"passed": all(r.passed for r in results), "checks": len(results)}
    if not summary["passed"]:
        raise NumericalFailureError("oracle suite reported failures")
    return records, summary, {}, {}


# Each experiment's runner and the config keys it reads. A subcommand takes
# only these keys, as flags or config-file keys, and results.json records
# and hashes only these.
_EXPERIMENT_TABLE = {
    "approx-norm": (_run_approx_norm, ("d", "alpha", "kernel", "cov", "sampler", "seeds", "compare_naive", "out")),
    "esd": (_run_esd, ("d", "alpha", "kernel", "cov", "sampler", "seeds", "out")),
    "mp-law": (_run_mp_law, ("d", "alpha", "cov", "out")),
    "train-error": (_run_train_error, (
        "d", "alpha", "kernel", "cov", "sampler", "lambda", "sigma_eps", "teacher", "seeds", "c2", "out")),
    "lambda-star": (_run_lambda_star, (
        "d", "alpha", "kernel", "cov", "lambda", "sigma_eps", "teacher", "a_star_override", "asymptotic_nu", "out")),
    "risk": (_run_risk, (
        "d", "alpha", "kernel", "cov", "sampler", "lambda", "sigma_eps", "teacher", "seeds", "n_test", "n_repl", "out")),
    "oracle-check": (_run_oracle_check, ("seeds", "mc_draws", "out")),
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code."""
    try:
        runner = _EXPERIMENT_TABLE[cfg.experiment][0]
    except KeyError:
        raise InvalidArgumentError("unknown experiment %r" % cfg.experiment) from None
    if cfg.experiment != "approx-norm" and len(cfg.d) > 1:
        raise InvalidArgumentError("%s takes one d, got the ladder %s" % (cfg.experiment, ",".join(map(str, cfg.d))))
    if cfg.experiment == "oracle-check" and len(cfg.seeds) > 1:
        raise InvalidArgumentError("oracle-check takes one seed, got %s" % ",".join(map(str, cfg.seeds)))
    if cfg.experiment != "train-error" and {"c0", "c1"} & set(cfg.teacher):
        raise InvalidArgumentError("teacher c0/c1 apply only to train-error, not to %s" % cfg.experiment)
    _thread_limit()  # a bad QRLAB_THREADS fails before any work starts
    t0 = time.perf_counter()
    records, summary, stats, files = runner(cfg)
    # Runners off the seed pool are timed as a whole.
    stats.setdefault("runtime_ms", [(time.perf_counter() - t0) * 1000.0])
    out = _write_outputs(cfg, records, summary, stats, files)
    print("wrote %s" % (out / "results.json"))
    return 0


class _Parser(argparse.ArgumentParser):
    # Config/flag problems must exit 1, not argparse's default 2.
    def error(self, message):
        raise InvalidArgumentError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qrlab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
                     allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in _EXPERIMENT_TABLE.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        for key in keys:
            f = _FIELDS[key]
            flag = "--" + key.replace("_", "-")
            if f.metadata["load"] is _bool:
                p.add_argument(flag, dest=f.name, action="store_true", default=None)
            else:
                p.add_argument(flag, dest=f.name, help=f.metadata["help"])
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    experiment = args.command
    keys = _EXPERIMENT_TABLE[experiment][1]
    base: dict = {}
    if args.config:
        try:
            base = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidArgumentError("cannot read config file: %s" % exc) from exc
        if not isinstance(base, dict):
            raise InvalidArgumentError("config file must hold a JSON object")
    named = base.pop("experiment", experiment)
    if named != experiment:
        raise InvalidArgumentError("config file experiment %r conflicts with %r" % (named, experiment))
    unknown = sorted(set(base) - set(keys))
    if unknown:
        raise InvalidArgumentError("%s does not read config key(s): %s" % (experiment, ", ".join(unknown)))
    cfg = ExperimentConfig(experiment=experiment)
    for key in keys:
        f = _FIELDS[key]
        given = [("config key %r" % key, base[key])] if key in base else []
        if getattr(args, f.name) is not None:
            given.append(("--" + key.replace("_", "-"), getattr(args, f.name)))
        for source, value in given:  # the flag comes last, so it wins
            try:
                setattr(cfg, f.name, f.metadata["load"](value))
            except (TypeError, ValueError) as exc:
                raise InvalidArgumentError("%s: %s" % (source, exc)) from exc
    return cfg


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return "warning: %s\n" % message


def main(argv: list[str] | None = None) -> int:
    # Warnings print as one line, like the error lines below; library callers
    # keep Python's format, with the source file and line.
    format_warning, warnings.formatwarning = warnings.formatwarning, _format_warning
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        return run(cfg)
    except InvalidArgumentError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 1
    except AssumptionViolationError as exc:
        print("assumption violation: %s" % exc, file=sys.stderr)
        return 2
    except CapacityError as exc:
        print("capacity error: %s" % exc, file=sys.stderr)
        return 3
    except QrlabError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    raise SystemExit(main())
