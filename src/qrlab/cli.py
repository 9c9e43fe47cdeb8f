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
cannot address is a configuration error. approx-norm, esd, train-error and
risk take a ladder of distinct d values (--d 24,40), mp-law and lambda-star
one d, oracle-check one seed. Listed seeds are distinct; a trailing comma
makes a one-seed list (--seeds 3, is seed 3; --seeds 3 is the count of seeds
0, 1, 2). train-error and risk take lambda >= 0. The seeded experiments
check every rung, then pool all (d, seed) tasks d-major on threads capped by
QRLAB_THREADS (an integer >= 1; default the CPU count); esd pools its laws'
grid segments beside them, each rung's top segment first and the others
last, one at a time. A ladder's summary key k becomes k_by_d, by str(d), as
approx-norm's median_*_by_d are at every length. Every run writes
results.json (deterministic given config and seeds, since every run pins
numpy's and scipy's OpenBLAS to one thread per call and restores their
counts after; its config and sha256 config hash cover the experiment's name and the keys
it reads, less out), results.csv (one row per record of results.json,
headed by the first record's keys), and a results.meta.json sidecar holding
the wall-clock data (runtime_ms per task, or of the whole run for
experiments off the pool; law_build_ms for esd and mp-law, summed over the
laws' segments), the solver statistics under solvers (approx-norm: per
task, Lanczos matvec counts and certified residuals; esd and mp-law: per
law segment, rung by rung, companion solves, their iterations, and the cold
restarts with the steps the failed warm starts spent; train-error and risk:
per task, the ridge solve's largest residual over its bound,
ridge_residual_ratio, at most 1; lambda-star and risk: per rung, the
lambda_* solve) and the environment (library versions, CPU count, BLAS
thread variables, seed workers). esd and mp-law also write an SVG density
overlay and law.csv, and esd eigs.csv; esd's describe the first rung.

Seed discipline: each record's master seed is split into fixed consumer
substreams (data=1, teacher=2, noise=3, test=4) so adding a consumer never
shifts another consumer's stream.

A run prints after its files are written; a closed stdout still exits 0.
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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from . import _lapack, datagen, kernels, krr, oracles, plots, spectra
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


_count = _checked(_int, lambda n: n >= 1, "a positive count")


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
    """A list of distinct seeds (a JSON list or comma text), else a seed count."""
    if isinstance(v, list) or (isinstance(v, str) and "," in v):
        seeds = _list(_checked(_int, lambda s: s >= 0, "a nonnegative seed"))
        return _checked(seeds, lambda ss: len(set(ss)) == len(ss), "distinct seeds")(v)
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
        [24], _checked(_list(_checked(_int, lambda n: n >= 1, "a positive dimension")),
                       lambda ds: len(set(ds)) == len(ds), "distinct dimensions"),
        "dimension, or comma list for a ladder (experiments with seeds)",
    )
    alpha: float = _field(1.0, _checked(_float, lambda a: a > 0, "positive"))
    kernel: dict = _field("exp", _spec("kernel"), _spec_grammar("kernel"))
    cov: dict = _field("identity", _spec("cov"), _spec_grammar("cov"))
    sampler: dict = _field("gaussian", _spec("sampler"), _spec_grammar("sampler"))
    lam: float = _field(1.0, _float, key="lambda")
    sigma_eps: float = _field(0.5, _checked(_float, lambda s: s >= 0, "nonnegative"))
    teacher: dict = _field(krr.RISK_TEACHERS[0], _spec("teacher"), _spec_grammar("teacher"))
    seeds: list[int] = _field([0], _seeds, "count, or comma list of seeds")
    out: str = _field("qrlab-out", str, hashed=False)
    n_test: int = _field(2000, _count)
    n_repl: int = _field(8, _count)
    c2: float = _field(1.0, _float)
    a_star_override: float | None = _field(None, lambda v: None if v is None else _float(v))
    asymptotic_nu: bool = _field(False, _bool)
    compare_naive: bool = _field(False, _bool)
    mc_draws: int = _field(1_000_000, _count)

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
    """Library versions, the LAPACK eigenvalue routine ``_lapack`` resolved,
    the thread counts of scipy's and numpy's OpenBLAS as the run's pin left
    them (1, or None for a library that reports none), CPUs, raw BLAS thread
    variables (None when unset), seed workers."""
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "eigen_driver": _lapack.EIGEN_DRIVER,
        "lapack_threads": _lapack.lapack_threads(),
        "numpy_blas_threads": _lapack.numpy_blas_threads(),
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


def _run_tasks(cfg: ExperimentConfig, task_bytes, rung, task, law=None):
    """Every (d, seed) task of a seeded experiment, d-major, on the seed pool.

    Before any n x n work: each rung's n, one capacity check over all tasks
    (``task_bytes(n, d)`` each), then each rung's inputs, ``rung(cov)``.
    ``task(inputs, data, seed)`` returns its record's fields and its solver
    entry; d, n and seed (the entry: d and seed) go in front. With ``law``,
    each rung also gets the limit law of the population law ``law(inputs)``.
    Returns the inputs and the laws by d, the records and the stats."""
    sampler = _build("sampler", cfg.sampler)
    ns = {d: cfg.n_for(d) for d in cfg.d}
    tasks = [(d, seed) for d in cfg.d for seed in cfg.seeds]
    _check_capacity([task_bytes(ns[d], d) for d, _ in tasks])
    covs = {d: _build("cov", cfg.cov, d) for d in cfg.d}
    rungs = {d: rung(cov) for d, cov in covs.items()}
    nus = {d: law(inputs) for d, inputs in rungs.items()} if law else {}
    # The laws' grid segments are pool tasks: each rung's top segment first,
    # then the (d, seed) tasks, then the other segments, one at a time. Two
    # segments (Python loops) on two threads hold the GIL in turns: esd-law's
    # took 0.79-0.86 s side by side, 0.42-0.49 s in turn (2 CPUs, 1 BLAS thread).
    segments = [[(d, s) for s in spectra.law_segments(cfg.alpha, nu)] for d, nu in nus.items()]
    before, after = [s[0] for s in segments], [x for s in segments for x in s[1:]]
    one_segment_at_a_time = threading.Lock()

    def one(item):
        d, job = item  # a seed or a law segment
        if isinstance(job, spectra.LawSegment):
            with one_segment_at_a_time:
                return job()
        return task(rungs[d], datagen.sample_dataset(ns[d], d, covs[d], sampler, job), job)

    results, stats = _map_seeds(one, [*before, *tasks, *after])
    ours = slice(len(before), len(before) + len(tasks))
    ms, done = stats["runtime_ms"], list(zip(tasks, results[ours]))
    stats["runtime_ms"] = ms[ours]
    stats["solvers"] = [{"d": d, "seed": seed, **solver} for (d, seed), (_, solver) in done]
    if law:
        stats["law_build_ms"] = sum(ms[:ours.start]) + sum(ms[ours.stop:])
    records = [{"d": d, "n": ns[d], "seed": seed, **fields} for (d, seed), (fields, _) in done]
    sweeps = list(zip(before + after, results[:ours.start] + results[ours.stop:]))
    laws = {d: spectra.deformed_mp_law(cfg.alpha, nu, [s for (e, _), s in sweeps if e == d]) for d, nu in nus.items()}
    return rungs, laws, records, stats


def _summary(cfg: ExperimentConfig, records, rungs, per_rung, line=None, by_d=False):
    """``per_rung(records, inputs)`` of each rung and its stdout lines, one per
    rung as ``line`` (a %-format of its keys and ``seeds``): for one d that
    summary, unless ``by_d``; else each key becomes ``<key>_by_d``, {str(d): value}."""
    per_d = {d: per_rung([r for r in records if r["d"] == d], inputs) for d, inputs in rungs.items()}
    ladder = len(cfg.d) > 1
    lines = [("d=%d: " % d if ladder else "") + line % {**s, "seeds": len(cfg.seeds)}
             for d, s in per_d.items()] if line else []
    if not (ladder or by_d):
        return per_d[cfg.d[0]], lines
    return {"%s_by_d" % key: {str(d): s[key] for d, s in per_d.items()} for key in per_d[cfg.d[0]]}, lines


def _versus(records, predicted: float) -> dict:
    """The records' mean empirical value against the prediction."""
    mean = float(np.mean([r["empirical"] for r in records]))
    return {"mean_empirical": mean, "predicted": predicted,
            "relative_gap": abs(mean - predicted) / abs(predicted) if predicted else None}


def _run_approx_norm(cfg: ExperimentConfig):
    kernel = _build("kernel", cfg.kernel)

    def rung(cov):  # the naive surrogate only under --compare-naive
        coeffs = kernels.quad_coeffs(kernel, cov)
        return coeffs, kernels.quad_coeffs(kernel, cov, corrected=False) if cfg.compare_naive else None

    def task(inputs, data, seed):
        coeffs, naive = inputs
        # One n x n array per task: D = K - K2, then shifted in place to the
        # naive surrogate's difference, whose solve starts from the corrected
        # solve's Ritz vector.
        diff = kernels.gap_matrix(data, kernel, coeffs)
        solves = {"gap": kernels._lanczos_gap(diff)}
        if naive is not None:
            kernels.shift_gap_matrix(diff, data, coeffs, naive)
            solves["gap_naive"] = kernels._lanczos_gap(diff, start=solves["gap"].vector)
        return ({key: s.gap for key, s in solves.items()},
                {key: {"matvecs": s.matvecs, "residual": s.residual, "bound": s.bound} for key, s in solves.items()})

    rungs, _, records, stats = _run_tasks(cfg, kernels.strip_build_bytes, rung, task)
    keys = ("gap", "gap_naive") if cfg.compare_naive else ("gap",)
    summary = _summary(cfg, records, rungs, lambda recs, _: {
        "median_" + key: float(np.median([r[key] for r in recs])) for key in keys}, by_d=True)
    return records, *summary, stats, {}


def _run_esd(cfg: ExperimentConfig):
    kernel = _build("kernel", cfg.kernel)
    # The spectral law holds for either sign of f''(0).
    if kernel.derivs0[2] == 0:
        raise AssumptionViolationError("f''(0) must be nonzero for the spectral limit")
    factor = 4.0 * cfg.alpha / kernel.derivs0[2]

    def task(inputs, data, seed):
        # (4 alpha / f''(0)) (K - a_star I), in place; the task peaks in K's
        # strip build, then solves K in place (``_lapack.syevd``).
        k_mat = kernels.kernel_matrix(data, kernel)
        k_mat[np.diag_indices(data.n)] -= inputs[0]
        k_mat *= factor
        return {"eigs": spectra.esd(k_mat)}, {}

    rungs, laws, records, stats = _run_tasks(
        cfg, kernels.strip_build_bytes, lambda cov: krr.limit_inputs(kernel, cov), task, law=lambda inputs: inputs[1])
    stats["solvers"] = [s for law in laws.values() for s in law.solvers]
    # The files describe the first rung: its law and its first seed's spectrum.
    d, eigs = cfg.d[0], records[0]["eigs"]
    for r in records:
        r["ks"] = spectra.ks_distance(r.pop("eigs"), laws[r["d"]])
    files = {
        "overlay.svg": plots.svg_histogram_overlay(eigs, laws[d], title="recentered kernel spectrum, d=%d" % d),
        "law.csv": spectra.law_to_csv(laws[d]),
        "eigs.csv": "eigenvalue\n" + "".join("%r\n" % float(v) for v in eigs),
    }
    summary = _summary(cfg, records, rungs, lambda recs, _: {"median_ks": float(np.median([r["ks"] for r in recs]))},
                       "KS median over %(seeds)d seeds: %(median_ks).4f")
    return records, *summary, stats, files


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
    return records, records[0], [], {"law_build_ms": law_build_ms, "solvers": list(law.solvers)}, files


def _run_train_error(cfg: ExperimentConfig):
    kernel = _build("kernel", cfg.kernel)
    kind, c0, c1 = cfg.teacher["kind"], cfg.teacher.get("c0", 0.0), cfg.teacher.get("c1", 0.0)
    # The deterministic teacher's (c2/d) x'Sigma x concentrates on a constant the fit absorbs: no signal term.
    limit_c2 = 0.0 if kind == "deterministic_sigma" else cfg.c2

    def task(predicted, data, seed):  # replicate 0 of risk's ridge fit
        emp, ratio = krr.empirical_training_error(data, kernel, kind, cfg.lam, cfg.sigma_eps, seed, c0, c1, cfg.c2)
        return {"empirical": emp, "predicted": predicted}, {"ridge_residual_ratio": ratio}

    rungs, _, records, stats = _run_tasks(
        cfg, kernels.strip_build_bytes,
        lambda cov: krr.asymptotic_training_error(kernel, cov, cfg.alpha, cfg.lam, limit_c2, cfg.sigma_eps), task)
    line = "train error: mean empirical %(mean_empirical).6g vs predicted %(predicted).6g"
    return records, *_summary(cfg, records, rungs, _versus, line), stats, {}


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
    return [record], record, ["lambda_star = %.12g" % ls.value], {"solvers": [{"d": d, "lambda_star": asdict(ls)}]}, {}


def _run_risk(cfg: ExperimentConfig):
    kernel = _build("kernel", cfg.kernel)
    teacher_kind = cfg.teacher["kind"]

    def rung(cov):
        return krr.asymptotic_risk(kernel, cov, cfg.alpha, cfg.lam, cfg.sigma_eps, teacher_kind)

    def task(pred, data, seed):
        mean, stderr, ratio = krr.empirical_risk(data, kernel, teacher_kind, cfg.lam, cfg.sigma_eps, cfg.n_test,
                                                 cfg.n_repl, seed)
        return {"empirical": mean, "stderr": stderr, "predicted": pred.total}, {"ridge_residual_ratio": ratio}

    def per_rung(recs, pred):
        spread = float(np.std([r["empirical"] for r in recs], ddof=1)) if len(recs) > 1 else 0.0
        return {**_versus(recs, pred.total), "empirical_dispersion": spread,
                "lambda_star": pred.solution.value, "V": pred.V, "B": pred.B}

    rungs, _, records, stats = _run_tasks(
        cfg, lambda n, d: krr.empirical_risk_bytes(n, d, cfg.n_test, cfg.n_repl), rung, task)
    stats["solvers"] += [{"d": d, "lambda_star": asdict(pred.solution)} for d, pred in rungs.items()]
    line = "risk: mean empirical %(mean_empirical).6g vs predicted %(predicted).6g"
    return records, *_summary(cfg, records, rungs, per_rung, line), stats, {}


def _run_oracle_check(cfg: ExperimentConfig):
    results = oracles.oracle_check(mc_draws=cfg.mc_draws, seed=cfg.seeds[0])
    records = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    width = max(len(r.name) for r in results)
    lines = ["%-*s  %s  %s" % (width, r.name, "PASS" if r.passed else "FAIL", r.detail) for r in results]
    summary = {"passed": all(r.passed for r in results), "checks": len(results)}
    if not summary["passed"]:
        _emit(lines)  # the table explains the failure; no files are written
        raise NumericalFailureError("oracle suite reported failures")
    return records, summary, lines, {}, {}


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
    """Execute one experiment; returns the process exit code. A runner returns
    its records, summary, stdout lines, stats and files; the lines print last."""
    try:
        runner = _EXPERIMENT_TABLE[cfg.experiment][0]
    except KeyError:
        raise InvalidArgumentError("unknown experiment %r" % cfg.experiment) from None
    if cfg.experiment in ("mp-law", "lambda-star") and len(cfg.d) > 1:
        raise InvalidArgumentError("%s takes one d, got the ladder %s" % (cfg.experiment, ",".join(map(str, cfg.d))))
    if cfg.experiment == "oracle-check" and len(cfg.seeds) > 1:
        raise InvalidArgumentError("oracle-check takes one seed, got %s" % ",".join(map(str, cfg.seeds)))
    if cfg.experiment in ("train-error", "risk") and cfg.lam < 0:
        raise InvalidArgumentError("lambda must be nonnegative for %s, got %r" % (cfg.experiment, cfg.lam))
    if cfg.experiment != "train-error" and {"c0", "c1"} & set(cfg.teacher):
        raise InvalidArgumentError("teacher c0/c1 apply only to train-error, not to %s" % cfg.experiment)
    _thread_limit()  # a bad QRLAB_THREADS fails before any work starts
    # One BLAS thread per call: the seed workers are the run's parallelism,
    # and the bytes of a matrix product depend on how OpenBLAS splits it.
    with _lapack.one_lapack_thread():
        t0 = time.perf_counter()
        records, summary, lines, stats, files = runner(cfg)
        # Runners off the seed pool are timed as a whole.
        stats.setdefault("runtime_ms", [(time.perf_counter() - t0) * 1000.0])
        out = _write_outputs(cfg, records, summary, stats, files)
    _emit([*lines, "wrote %s" % (out / "results.json")])
    return 0


def _emit(lines) -> None:
    """Print ``lines`` on stdout. A closed stdout (``| head``) drops them, and
    /dev/null takes its place so that the interpreter's last flush succeeds."""
    try:
        print("".join(line + "\n" for line in lines), end="", flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


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
