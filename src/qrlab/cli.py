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
tasks, and esd builds its limit law as the pool's first task, next to the
seeds' spectra. Every run writes results.json (deterministic given config,
seeds and the BLAS thread count; its config and sha256 config hash cover
the experiment's name and the keys it reads, less out), results.csv (one
row per record of results.json, headed by the first record's keys), and a
results.meta.json sidecar holding the wall-clock data (runtime_ms per pool
task, or of the whole run for experiments off the pool; law_build_ms for
esd and mp-law) and the environment (library versions, CPU count, BLAS
thread variables, seed workers). esd and mp-law also write an SVG
density overlay (with the first seed's eigenvalue histogram for esd) and
law.csv, and esd eigs.csv.

Seed discipline: each record's master seed is split into fixed consumer
substreams (data=1, teacher=2, noise=3, test=4) so adding a consumer never
shifts another consumer's stream.

Exit codes: 0 success, 1 configuration error, 2 assumption violation,
3 numerical failure. Every experiment that reads a kernel exits 3 before any
n x n work when a surrogate coefficient (a0, a1, a2, a_star) overflows;
lambda-star with --a-star-override does not compute a_star.
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
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from . import datagen, kernels, krr, oracles, plots, spectra
from .seeding import TEACHER, substream
from .errors import (
    AssumptionViolationError,
    InvalidArgumentError,
    NumericalFailureError,
    QrlabError,
)

class _ConfigError(Exception):
    pass


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


# Spec kinds per spec field: the key naming the kind and, per kind, its
# parameters in the order of the flag form ``name:v1,v2,...``. A kind with
# one parameter takes the whole text after the colon. Each kind is named
# after its library constructor. Parameters ending in "?" are optional and
# come only from a JSON object.
_SPECS = {
    "kernel": ("type", {"exp": (), "cosh": (), "quartic": ("b0", "b2", "b4"), "custom_poly": ("coeffs",)}),
    "cov": ("kind", {"identity": (), "uniform": ("lo", "hi", "seed?"), "two_point": ("v1", "v2", "p", "seed?")}),
    "sampler": ("mode", {"gaussian": (), "gh_discrete": ("m",)}),
    "teacher": ("kind", {"pure_quadratic": ("c0?", "c1?"), "deterministic_sigma": ("c0?", "c1?")}),
}
_PARAM_LOADERS = {"coeffs": _list(_float), "m": _int, "seed": _int}


def _required(params) -> list[str]:
    return [p for p in params if not p.endswith("?")]


def _spec_grammar(spec_field: str, only: str | None = None) -> str:
    """The flag forms of a spec field's kinds (of kind ``only``, if given)."""
    kinds = _SPECS[spec_field][1]
    return " | ".join(
        ":".join([name, ",".join(_required(params))]) if _required(params) else name
        for name, params in kinds.items() if only in (None, name)
    )


def _spec(spec_field: str):
    """Loader of a spec field: a spec string or a JSON object, to the canonical dict."""
    key, kinds = _SPECS[spec_field]

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


def _spec_args(spec_field: str, spec: dict) -> list:
    """Constructor arguments of a canonical spec dict; absent optionals are None."""
    key, kinds = _SPECS[spec_field]
    return [spec.get(p.rstrip("?")) for p in kinds[spec[key]]]


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
    teacher: dict = _field("pure_quadratic", _spec("teacher"), _spec_grammar("teacher"))
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
            raise _ConfigError("derived n = round(d^2/(2 alpha)) = %.4g is too large for an n x n float64 array "
                               "on this platform" % exact)
        if n < 1:
            raise _ConfigError("derived n = round(d^2/(2 alpha)) must be >= 1, got %d" % n)
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


def _build_kernel(spec: dict) -> kernels.KernelFunction:
    return getattr(kernels.KernelFunction, spec["type"])(*_spec_args("kernel", spec))


def _build_cov(spec: dict, d: int) -> datagen.CovarianceSpec:
    return getattr(datagen.CovarianceSpec, spec["kind"])(d, *_spec_args("cov", spec))


def _build_sampler(spec: dict) -> datagen.MomentMatchedSampler:
    return getattr(datagen.MomentMatchedSampler, spec["mode"])(*_spec_args("sampler", spec))


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
        raise _ConfigError("QRLAB_THREADS must be an integer >= 1, got %r" % cap)
    return limit


def _worker_count(n_tasks: int) -> int:
    return max(1, min(_thread_limit(), n_tasks))


def _environment(seed_workers: int) -> dict:
    """Library versions, CPUs, raw BLAS thread variables (None when unset), seed workers."""
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
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


def _run_approx_norm(cfg: ExperimentConfig):
    kernel = _build_kernel(cfg.kernel)
    sampler = _build_sampler(cfg.sampler)
    # Every rung is built and checked before the first n x n matrix exists.
    rungs = {}
    for d in cfg.d:
        cov = _build_cov(cfg.cov, d)
        coeffs = kernels.quad_coeffs(kernel, cov)
        rungs[d] = (cfg.n_for(d), cov, coeffs, kernels.quad_coeffs(kernel, cov, corrected=False))

    def one(task):
        d, seed = task
        n, cov, coeffs, naive = rungs[d]
        data = datagen.sample_dataset(n, d, cov, sampler, seed)
        k_mat = kernels.kernel_matrix(data, kernel)
        rec = {"d": d, "n": data.n, "seed": seed,
               "gap": kernels.spectral_norm_gap(k_mat, kernels.quad_kernel_matrix(data, coeffs))}
        if cfg.compare_naive:
            rec["gap_naive"] = kernels.spectral_norm_gap(k_mat, kernels.quad_kernel_matrix(data, naive))
        return rec

    records, stats = _map_seeds(one, [(d, seed) for d in cfg.d for seed in cfg.seeds])

    def medians(key):
        return {str(d): float(np.median([r[key] for r in records if r["d"] == d])) for d in cfg.d}

    summary = {"median_gap_by_d": medians("gap")}
    if cfg.compare_naive:
        summary["median_gap_naive_by_d"] = medians("gap_naive")
    return records, summary, stats, {}


def _run_esd(cfg: ExperimentConfig):
    d = cfg.d[0]
    n = cfg.n_for(d)
    cov = _build_cov(cfg.cov, d)
    kernel = _build_kernel(cfg.kernel)
    sampler = _build_sampler(cfg.sampler)
    # Both checks fail the run here, before the law and K.
    second = kernel.derivs0[2]
    if second == 0:
        raise AssumptionViolationError("f''(0) must be nonzero for the spectral limit")
    a_star, factor = kernels.quad_coeffs(kernel, cov).a_star, 4.0 * cfg.alpha / second
    nu = datagen.sigma2_diagonal(cov)

    # The law does not depend on the seeds: it is the pool's first (and
    # longest) task, None, while the other tasks compute the spectra.
    def one(seed):
        if seed is None:
            return spectra.deformed_mp_law(cfg.alpha, nu)
        data = datagen.sample_dataset(n, d, cov, sampler, seed)
        # Recentred and scaled in place: (4 alpha / f''(0)) (K - a_star I).
        k_mat = kernels.kernel_matrix(data, kernel)
        k_mat[np.diag_indices(n)] -= a_star
        k_mat *= factor
        return spectra.esd(k_mat)

    (law, *spectrum), pool = _map_seeds(one, [None] + cfg.seeds)
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
    law_build_ms, *runtime_ms = pool["runtime_ms"]
    stats = {"runtime_ms": runtime_ms, "law_build_ms": law_build_ms, "seed_workers": pool["seed_workers"]}
    return records, summary, stats, files


def _run_mp_law(cfg: ExperimentConfig):
    d = cfg.d[0]
    cov = _build_cov(cfg.cov, d)
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
    return records, records[0], {"law_build_ms": law_build_ms}, files


def _run_train_error(cfg: ExperimentConfig):
    d = cfg.d[0]
    n = cfg.n_for(d)
    cov = _build_cov(cfg.cov, d)
    kernel = _build_kernel(cfg.kernel)
    sampler = _build_sampler(cfg.sampler)
    teacher_kind = cfg.teacher["kind"]
    c0 = cfg.teacher.get("c0", 0.0)
    c1 = cfg.teacher.get("c1", 0.0)
    predicted = krr.asymptotic_training_error(kernel, cov, cfg.alpha, cfg.lam, cfg.c2, cfg.sigma_eps)

    def one(seed):
        data = datagen.sample_dataset(n, d, cov, sampler, seed)
        teacher = krr.TeacherModel.draw(teacher_kind, cov, substream(seed, TEACHER, 0), c0, c1, cfg.c2)
        y = krr.make_labels(data, teacher, cfg.sigma_eps, seed)
        k_mat = kernels.kernel_matrix(data, kernel)
        emp = krr.training_error(k_mat, y, cfg.lam)
        return {"seed": seed, "empirical": emp, "predicted": predicted}

    records, stats = _map_seeds(one, cfg.seeds)
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
    cov = _build_cov(cfg.cov, d)
    kernel = _build_kernel(cfg.kernel)
    a_star, nu = krr.limit_inputs(kernel, cov, cfg.a_star_override, cfg.asymptotic_nu)
    pred = krr.risk_limit(cfg.alpha, nu, a_star, kernel.derivs0[2], cfg.lam, cfg.sigma_eps, cfg.teacher["kind"])
    ls = pred.solution
    record = {
        "lambda_star": ls.value,
        "lambda_star_stieltjes": ls.alt_value,
        "residual": ls.residual,
        "V": pred.V,
        "B": pred.B,
        "total": pred.total,
    }
    print("lambda_star = %.10f (stieltjes route %.10f)" % (ls.value, ls.alt_value))
    return [record], record, {}, {}


def _run_risk(cfg: ExperimentConfig):
    d = cfg.d[0]
    n = cfg.n_for(d)
    cov = _build_cov(cfg.cov, d)
    kernel = _build_kernel(cfg.kernel)
    sampler = _build_sampler(cfg.sampler)
    teacher_kind = cfg.teacher["kind"]
    pred = krr.asymptotic_risk(kernel, cov, cfg.alpha, cfg.lam, cfg.sigma_eps, teacher_kind)

    def one(seed):
        data = datagen.sample_dataset(n, d, cov, sampler, seed)
        mean, stderr = krr.empirical_risk(
            data, kernel, teacher_kind, cfg.lam, cfg.sigma_eps, cfg.n_test, cfg.n_repl, seed
        )
        return {"seed": seed, "empirical": mean, "stderr": stderr, "predicted": pred.total}

    records, stats = _map_seeds(one, cfg.seeds)
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
        raise _ConfigError("unknown experiment %r" % cfg.experiment) from None
    if cfg.experiment != "approx-norm" and len(cfg.d) > 1:
        raise _ConfigError("%s takes one d, got the ladder %s" % (cfg.experiment, ",".join(map(str, cfg.d))))
    if cfg.experiment == "oracle-check" and len(cfg.seeds) > 1:
        raise _ConfigError("oracle-check takes one seed, got %s" % ",".join(map(str, cfg.seeds)))
    if cfg.experiment != "train-error" and {"c0", "c1"} & set(cfg.teacher):
        raise _ConfigError("teacher c0/c1 apply only to train-error, not to %s" % cfg.experiment)
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
        raise _ConfigError(message)


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
            raise _ConfigError("cannot read config file: %s" % exc) from exc
        if not isinstance(base, dict):
            raise _ConfigError("config file must hold a JSON object")
    named = base.pop("experiment", experiment)
    if named != experiment:
        raise _ConfigError("config file experiment %r conflicts with %r" % (named, experiment))
    unknown = sorted(set(base) - set(keys))
    if unknown:
        raise _ConfigError("%s does not read config key(s): %s" % (experiment, ", ".join(unknown)))
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
                raise _ConfigError("%s: %s" % (source, exc)) from exc
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        return run(cfg)
    except (_ConfigError, InvalidArgumentError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 1
    except AssumptionViolationError as exc:
        print("assumption violation: %s" % exc, file=sys.stderr)
        return 2
    except QrlabError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
