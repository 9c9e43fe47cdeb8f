"""Experiment runner.

Subcommands (also reachable as ``qrlab run <experiment>``):

  approx_norm   spectral-norm gap between K and its quadratic surrogate
  esd           empirical spectrum of the recentered kernel vs the limit law
  mp_law        limit-law density export (no data involved)
  train_error   empirical vs asymptotic training error
  lambda_star   effective regularization and the (V, B) risk bundle
  risk          empirical vs asymptotic generalization error
  oracle_check  reference-oracle self-test table

Configuration comes from an optional JSON file (--config) plus flag
overrides; flags win. The sample count is derived as n = round(d^2/(2 alpha)).
Seeds fan out to a thread pool capped by QRLAB_THREADS (an integer >= 1;
default the CPU count). Every run writes results.json (deterministic given
config, seeds and the BLAS thread count; its sha256 config hash is
embedded), results.csv, and a results.meta.json sidecar holding the
wall-clock data. esd runs also emit an SVG histogram/density overlay,
law.csv, and eigs.csv.

results.csv columns by experiment:
  approx_norm   d,n,seed,gap[,gap_naive]   (plus one median row per d)
  esd           d,n,seed,ks
  mp_law        alpha,atom0_mass,total_mass
  train_error   seed,empirical,predicted
  lambda_star   lambda_star,lambda_star_stieltjes,V,B,total
  risk          seed,empirical,stderr,predicted
  oracle_check  name,passed,detail

Seed discipline: each record's master seed is split into fixed consumer
substreams (data=1, teacher=2, noise=3, test=4) so adding a consumer never
shifts another consumer's stream.

Exit codes: 0 success, 1 configuration error, 2 assumption violation,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import datagen, kernels, krr, oracles, plots, spectra
from .seeding import TEACHER, substream
from .errors import (
    AssumptionViolationError,
    InvalidArgumentError,
    NumericalFailureError,
    QrlabError,
)

EXPERIMENTS = (
    "approx_norm",
    "esd",
    "mp_law",
    "train_error",
    "lambda_star",
    "risk",
    "oracle_check",
)


class _ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    d: list[int] = field(default_factory=lambda: [24])
    alpha: float = 1.0
    kernel: dict = field(default_factory=lambda: {"type": "exp"})
    cov: dict = field(default_factory=lambda: {"kind": "identity"})
    sampler: dict = field(default_factory=lambda: {"mode": "gaussian"})
    lam: float = 1.0
    sigma_eps: float = 0.5
    teacher: dict = field(default_factory=lambda: {"kind": "pure_quadratic"})
    seeds: list[int] = field(default_factory=lambda: [0])
    out: str = "qrlab-out"
    n_test: int = 2000
    n_repl: int = 8
    c2: float = 1.0
    a_star_override: float | None = None
    asymptotic_nu: bool = False
    compare_naive: bool = False
    mc_draws: int = 1_000_000

    def n_for(self, d: int) -> int:
        n = int(round(d * d / (2.0 * self.alpha)))
        if n < 1:
            raise _ConfigError("derived n = round(d^2/(2 alpha)) must be >= 1, got %d" % n)
        return n

    def canonical(self) -> dict:
        return {
            "experiment": self.experiment,
            "d": list(self.d),
            "alpha": self.alpha,
            "kernel": self.kernel,
            "cov": self.cov,
            "sampler": self.sampler,
            "lambda": self.lam,
            "sigma_eps": self.sigma_eps,
            "teacher": self.teacher,
            "seeds": list(self.seeds),
            "n_test": self.n_test,
            "n_repl": self.n_repl,
            "c2": self.c2,
            "a_star_override": self.a_star_override,
            "asymptotic_nu": self.asymptotic_nu,
            "compare_naive": self.compare_naive,
            "mc_draws": self.mc_draws,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _build_kernel(spec: dict) -> kernels.KernelFunction:
    kind = spec.get("type")
    if kind == "exp":
        return kernels.KernelFunction.exp()
    if kind == "cosh":
        return kernels.KernelFunction.cosh()
    if kind == "quartic":
        return kernels.KernelFunction.quartic(float(spec["b0"]), float(spec["b2"]), float(spec["b4"]))
    if kind == "custom_poly":
        return kernels.KernelFunction.custom_poly(spec["coeffs"])
    raise _ConfigError("unknown kernel type %r" % kind)


def _build_cov(spec: dict, d: int) -> datagen.CovarianceSpec:
    kind = spec.get("kind")
    if kind == "identity":
        return datagen.CovarianceSpec.identity(d)
    if kind == "uniform":
        return datagen.CovarianceSpec.uniform(d, float(spec["lo"]), float(spec["hi"]), spec.get("seed"))
    if kind == "two_point":
        return datagen.CovarianceSpec.two_point(
            d, float(spec["v1"]), float(spec["v2"]), float(spec["p"]), spec.get("seed")
        )
    raise _ConfigError("unknown covariance kind %r" % kind)


def _build_sampler(spec: dict) -> datagen.MomentMatchedSampler:
    mode = spec.get("mode")
    if mode == "gaussian":
        return datagen.MomentMatchedSampler.gaussian()
    if mode == "gh_discrete":
        return datagen.MomentMatchedSampler.gh_discrete(int(spec["m"]))
    raise _ConfigError("unknown sampler mode %r" % mode)


def _parse_kernel_flag(text: str) -> dict:
    name, _, args = text.partition(":")
    if name == "exp":
        return {"type": "exp"}
    if name == "cosh":
        return {"type": "cosh"}
    if name == "quartic":
        vals = [float(v) for v in args.split(",")]
        if len(vals) != 3:
            raise _ConfigError("quartic kernel needs b0,b2,b4")
        return {"type": "quartic", "b0": vals[0], "b2": vals[1], "b4": vals[2]}
    if name == "custom_poly":
        return {"type": "custom_poly", "coeffs": [float(v) for v in args.split(",")]}
    raise _ConfigError("cannot parse kernel %r" % text)


def _parse_cov_flag(text: str) -> dict:
    name, _, args = text.partition(":")
    if name == "identity":
        return {"kind": "identity"}
    if name == "uniform":
        lo, hi = (float(v) for v in args.split(","))
        return {"kind": "uniform", "lo": lo, "hi": hi}
    if name == "two_point":
        v1, v2, p = (float(v) for v in args.split(","))
        return {"kind": "two_point", "v1": v1, "v2": v2, "p": p}
    raise _ConfigError("cannot parse covariance %r" % text)


def _parse_sampler_flag(text: str) -> dict:
    name, _, args = text.partition(":")
    if name == "gaussian":
        return {"mode": "gaussian"}
    if name == "gh_discrete":
        return {"mode": "gh_discrete", "m": int(args)}
    raise _ConfigError("cannot parse sampler %r" % text)


def _parse_teacher_flag(text: str) -> dict:
    if text in ("pure_quadratic", "deterministic_sigma"):
        return {"kind": text}
    raise _ConfigError("cannot parse teacher %r" % text)


def _parse_seeds(text: str) -> list[int]:
    if "," in text:
        return [int(v) for v in text.split(",")]
    count = int(text)
    if count <= 0:
        raise _ConfigError("seed count must be positive")
    return list(range(count))


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


def _map_seeds(fn, seeds):
    records = [None] * len(seeds)
    timings = [0.0] * len(seeds)

    def call(i: int):
        t0 = time.perf_counter()
        records[i] = fn(seeds[i])
        timings[i] = (time.perf_counter() - t0) * 1000.0

    workers = _worker_count(len(seeds))
    if workers == 1:
        for i in range(len(seeds)):
            call(i)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(call, range(len(seeds))))
    return records, timings


def _write_outputs(cfg: ExperimentConfig, records, summary, csv_header, csv_rows, timings) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "config_hash": cfg.config_hash(),
        "config": cfg.canonical(),
        "records": records,
        "summary": summary,
    }
    (out / "results.json").write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    with open(out / "results.csv", "w") as fh:
        fh.write(csv_header + "\n")
        for row in csv_rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    meta = {
        "written_at_unix": time.time(),
        "runtime_ms": timings,
        "config_hash": cfg.config_hash(),
    }
    (out / "results.meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")
    return out


def _scaled_kernel_eigs(cfg: ExperimentConfig, d: int, seed: int):
    cov = _build_cov(cfg.cov, d)
    kernel = _build_kernel(cfg.kernel)
    sampler = _build_sampler(cfg.sampler)
    data = datagen.sample_dataset(cfg.n_for(d), d, cov, sampler, seed)
    k_mat = kernels.kernel_matrix(data, kernel)
    coeffs = kernels.quad_coeffs(kernel, cov)
    second = kernel.derivs0[2]
    if second == 0:
        raise AssumptionViolationError("f''(0) must be nonzero for the spectral limit")
    n = data.n
    scaled = (4.0 * cfg.alpha / second) * (k_mat - coeffs.a * np.eye(n))
    return spectra.esd(scaled)


def _run_approx_norm(cfg: ExperimentConfig):
    kernel = _build_kernel(cfg.kernel)
    sampler = _build_sampler(cfg.sampler)
    records = []
    csv_rows = []
    timings = []
    for d in cfg.d:
        cov = _build_cov(cfg.cov, d)
        coeffs = kernels.quad_coeffs(kernel, cov)
        naive = kernels.quad_coeffs(kernel, cov, corrected=False)

        def one(seed, d=d, cov=cov, coeffs=coeffs, naive=naive):
            data = datagen.sample_dataset(cfg.n_for(d), d, cov, sampler, seed)
            k_mat = kernels.kernel_matrix(data, kernel)
            gap = kernels.spectral_norm_gap(k_mat, kernels.quad_kernel_matrix(data, coeffs))
            rec = {"d": d, "n": data.n, "seed": seed, "gap": gap}
            if cfg.compare_naive:
                rec["gap_naive"] = kernels.spectral_norm_gap(
                    k_mat, kernels.quad_kernel_matrix(data, naive)
                )
            return rec

        recs, times = _map_seeds(one, cfg.seeds)
        records.extend(recs)
        timings.extend(times)
        for rec in recs:
            csv_rows.append([rec["d"], rec["n"], rec["seed"], rec["gap"]] + (
                [rec["gap_naive"]] if cfg.compare_naive else []))
    summary = {"median_gap_by_d": {}}
    for d in cfg.d:
        gaps = [r["gap"] for r in records if r["d"] == d]
        med = float(np.median(gaps))
        summary["median_gap_by_d"][str(d)] = med
        med_row = [d, cfg.n_for(d), "median", med]
        if cfg.compare_naive:
            med_naive = float(np.median([r["gap_naive"] for r in records if r["d"] == d]))
            summary.setdefault("median_gap_naive_by_d", {})[str(d)] = med_naive
            med_row.append(med_naive)
        csv_rows.append(med_row)
    header = "d,n,seed,gap" + (",gap_naive" if cfg.compare_naive else "")
    return records, summary, header, csv_rows, timings


def _run_esd(cfg: ExperimentConfig):
    d = cfg.d[0]
    cov = _build_cov(cfg.cov, d)
    nu = datagen.sigma2_diagonal(cov)
    law = spectra.deformed_mp_law(cfg.alpha, nu)

    # The first seed's spectrum is kept for the overlay and eigs.csv.
    first = {}

    def one(seed):
        eigs = _scaled_kernel_eigs(cfg, d, seed)
        if seed == cfg.seeds[0]:
            first["eigs"] = eigs
        return {"d": d, "n": cfg.n_for(d), "seed": seed, "ks": spectra.ks_distance(eigs, law)}

    records, timings = _map_seeds(one, cfg.seeds)
    eigs0 = first["eigs"]
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    plots.svg_histogram_overlay(eigs0, law, out / "overlay.svg", title="recentered kernel spectrum, d=%d" % d)
    spectra.law_to_csv(law, out / "law.csv")
    with open(out / "eigs.csv", "w") as fh:
        fh.write("eigenvalue\n")
        for v in eigs0:
            fh.write("%r\n" % float(v))
    summary = {"median_ks": float(np.median([r["ks"] for r in records]))}
    rows = [[r["d"], r["n"], r["seed"], r["ks"]] for r in records]
    print("KS median over %d seeds: %.4f" % (len(records), summary["median_ks"]))
    return records, summary, "d,n,seed,ks", rows, timings


def _run_mp_law(cfg: ExperimentConfig):
    d = cfg.d[0]
    cov = _build_cov(cfg.cov, d)
    nu = datagen.sigma2_diagonal(cov)
    law = spectra.deformed_mp_law(cfg.alpha, nu)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    spectra.law_to_csv(law, out / "law.csv")
    plots.svg_histogram_overlay(np.array([0.0]), law, out / "overlay.svg", title="limit law, alpha=%g" % cfg.alpha)
    records = [{
        "alpha": cfg.alpha,
        "atom0_mass": law.atom0_mass,
        "total_mass": law.total_mass(),
        "grid_points": int(law.grid.size),
    }]
    rows = [[cfg.alpha, law.atom0_mass, law.total_mass()]]
    return records, records[0], "alpha,atom0_mass,total_mass", rows, [0.0]


def _run_train_error(cfg: ExperimentConfig):
    d = cfg.d[0]
    cov = _build_cov(cfg.cov, d)
    kernel = _build_kernel(cfg.kernel)
    sampler = _build_sampler(cfg.sampler)
    teacher_kind = cfg.teacher.get("kind", "pure_quadratic")
    c0 = float(cfg.teacher.get("c0", 0.0))
    c1 = float(cfg.teacher.get("c1", 0.0))
    predicted = krr.asymptotic_training_error(kernel, cov, cfg.alpha, cfg.lam, cfg.c2, cfg.sigma_eps)

    def one(seed):
        data = datagen.sample_dataset(cfg.n_for(d), d, cov, sampler, seed)
        teacher = krr.TeacherModel.draw(
            "general" if (c0 or c1) else teacher_kind,
            cov,
            substream(seed, TEACHER, 0),
            c0=c0,
            c1=c1,
            c2=cfg.c2,
        )
        y = krr.make_labels(data, teacher, cfg.sigma_eps, seed)
        k_mat = kernels.kernel_matrix(data, kernel)
        emp = krr.training_error(k_mat, y, cfg.lam)
        return {"seed": seed, "empirical": emp, "predicted": predicted, "config_hash": cfg.config_hash()}

    records, timings = _map_seeds(one, cfg.seeds)
    mean = float(np.mean([r["empirical"] for r in records]))
    summary = {
        "mean_empirical": mean,
        "predicted": predicted,
        "relative_gap": abs(mean - predicted) / abs(predicted) if predicted else None,
    }
    rows = [[r["seed"], r["empirical"], r["predicted"]] for r in records]
    print("train error: mean empirical %.6g vs predicted %.6g" % (mean, predicted))
    return records, summary, "seed,empirical,predicted", rows, timings


def _run_lambda_star(cfg: ExperimentConfig):
    d = cfg.d[0]
    cov = _build_cov(cfg.cov, d)
    kernel = _build_kernel(cfg.kernel)
    ls = krr.lambda_star(
        kernel, cov, cfg.alpha, cfg.lam,
        a_star_override=cfg.a_star_override,
        asymptotic_nu=cfg.asymptotic_nu,
    )
    teacher_kind = cfg.teacher.get("kind", "pure_quadratic")
    coeffs = kernels.quad_coeffs(kernel, cov)
    a_star = coeffs.a_star if cfg.a_star_override is None else cfg.a_star_override
    nu = krr._population_law(cov, cfg.asymptotic_nu)
    pred = krr.risk_limit(cfg.alpha, nu, a_star, kernel.derivs0[2], cfg.lam, cfg.sigma_eps, teacher_kind)
    record = {
        "lambda_star": ls.value,
        "lambda_star_stieltjes": ls.alt_value,
        "residual": ls.residual,
        "V": pred.V,
        "B": pred.B,
        "total": pred.total,
    }
    print("lambda_star = %.10f (stieltjes route %.10f)" % (ls.value, ls.alt_value))
    rows = [[ls.value, ls.alt_value, pred.V, pred.B, pred.total]]
    return [record], record, "lambda_star,lambda_star_stieltjes,V,B,total", rows, [0.0]


def _run_risk(cfg: ExperimentConfig):
    d = cfg.d[0]
    cov = _build_cov(cfg.cov, d)
    kernel = _build_kernel(cfg.kernel)
    sampler = _build_sampler(cfg.sampler)
    teacher_kind = cfg.teacher.get("kind", "pure_quadratic")
    pred = krr.asymptotic_risk(kernel, cov, cfg.alpha, cfg.lam, cfg.sigma_eps, teacher_kind)

    def one(seed):
        data = datagen.sample_dataset(cfg.n_for(d), d, cov, sampler, seed)
        mean, stderr = krr.empirical_risk(
            data, kernel, teacher_kind, cfg.lam, cfg.sigma_eps, cfg.n_test, cfg.n_repl, seed
        )
        return {
            "seed": seed,
            "empirical": mean,
            "stderr": stderr,
            "predicted": pred.total,
            "config_hash": cfg.config_hash(),
        }

    records, timings = _map_seeds(one, cfg.seeds)
    per_seed = [r["empirical"] for r in records]
    mean = float(np.mean(per_seed))
    summary = {
        "mean_empirical": mean,
        "empirical_dispersion": float(np.std(per_seed, ddof=1)) if len(per_seed) > 1 else 0.0,
        "predicted": pred.total,
        "lambda_star": pred.lambda_star,
        "V": pred.V,
        "B": pred.B,
        "relative_gap": abs(mean - pred.total) / abs(pred.total) if pred.total else None,
    }
    rows = [[r["seed"], r["empirical"], r["stderr"], r["predicted"]] for r in records]
    print("risk: mean empirical %.6g vs predicted %.6g" % (mean, pred.total))
    return records, summary, "seed,empirical,stderr,predicted", rows, timings


def _run_oracle_check(cfg: ExperimentConfig):
    results = oracles.oracle_check(mc_draws=cfg.mc_draws, seed=cfg.seeds[0])
    records = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    width = max(len(r.name) for r in results)
    for r in results:
        print("%-*s  %s  %s" % (width, r.name, "PASS" if r.passed else "FAIL", r.detail))
    summary = {"passed": all(r.passed for r in results), "checks": len(results)}
    rows = [[r.name, int(r.passed), '"%s"' % r.detail] for r in results]
    if not summary["passed"]:
        raise NumericalFailureError("oracle suite reported failures")
    return records, summary, "name,passed,detail", rows, [0.0]


_RUNNERS = {
    "approx_norm": _run_approx_norm,
    "esd": _run_esd,
    "mp_law": _run_mp_law,
    "train_error": _run_train_error,
    "lambda_star": _run_lambda_star,
    "risk": _run_risk,
    "oracle_check": _run_oracle_check,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code."""
    try:
        runner = _RUNNERS[cfg.experiment]
    except KeyError:
        raise _ConfigError("unknown experiment %r" % cfg.experiment) from None
    _thread_limit()  # a bad QRLAB_THREADS fails before any work starts
    records, summary, header, rows, timings = runner(cfg)
    out = _write_outputs(cfg, records, summary, header, rows, timings)
    print("wrote %s" % (out / "results.json"))
    return 0


class _Parser(argparse.ArgumentParser):
    # Config/flag problems must exit 1, not argparse's default 2.
    def error(self, message):
        raise _ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qrlab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--d", help="dimension, or comma list for approx_norm ladders")
        p.add_argument("--alpha", type=float)
        p.add_argument("--kernel", help="exp | cosh | quartic:b0,b2,b4 | custom_poly:c0,c1,...")
        p.add_argument("--cov", help="identity | uniform:lo,hi | two_point:v1,v2,p")
        p.add_argument("--sampler", help="gaussian | gh_discrete:m")
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--sigma-eps", type=float)
        p.add_argument("--teacher", help="pure_quadratic | deterministic_sigma")
        p.add_argument("--seeds", help="count, or comma list of seeds")
        p.add_argument("--out")
        p.add_argument("--n-test", type=int)
        p.add_argument("--n-repl", type=int)
        p.add_argument("--c2", type=float)
        p.add_argument("--a-star-override", type=float)
        p.add_argument("--asymptotic-nu", action="store_true", default=None)
        p.add_argument("--compare-naive", action="store_true", default=None)
        p.add_argument("--mc-draws", type=int)

    for name in EXPERIMENTS:
        add_common(sub.add_parser(name.replace("_", "-"), aliases=[name] if "_" in name else []))
    runp = sub.add_parser("run")
    runp.add_argument("experiment", choices=EXPERIMENTS)
    add_common(runp)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    experiment = getattr(args, "experiment", None) or args.command.replace("-", "_")
    base: dict = {}
    if args.config:
        try:
            base = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise _ConfigError("cannot read config file: %s" % exc) from exc
        if not isinstance(base, dict):
            raise _ConfigError("config file must hold a JSON object")
    cfg = ExperimentConfig(experiment=experiment)
    loaders = {
        "d": lambda v: [int(x) for x in (v if isinstance(v, list) else [v])],
        "alpha": float,
        "kernel": dict,
        "cov": dict,
        "sampler": dict,
        "lambda": float,
        "sigma_eps": float,
        "teacher": dict,
        "seeds": lambda v: [int(x) for x in v],
        "out": str,
        "n_test": int,
        "n_repl": int,
        "c2": float,
        "a_star_override": lambda v: None if v is None else float(v),
        "asymptotic_nu": bool,
        "compare_naive": bool,
        "mc_draws": int,
    }
    attr = {"lambda": "lam"}
    for key, load in loaders.items():
        if key in base:
            try:
                setattr(cfg, attr.get(key, key), load(base[key]))
            except (TypeError, ValueError) as exc:
                raise _ConfigError("config field %r: %s" % (key, exc)) from exc
    if base.get("experiment") and base["experiment"] != experiment:
        raise _ConfigError("config file experiment %r conflicts with %r" % (base["experiment"], experiment))
    if args.d is not None:
        cfg.d = [int(v) for v in str(args.d).split(",")]
    if args.alpha is not None:
        cfg.alpha = args.alpha
    if args.kernel is not None:
        cfg.kernel = _parse_kernel_flag(args.kernel)
    if args.cov is not None:
        cfg.cov = _parse_cov_flag(args.cov)
    if args.sampler is not None:
        cfg.sampler = _parse_sampler_flag(args.sampler)
    if args.lam is not None:
        cfg.lam = args.lam
    if args.sigma_eps is not None:
        cfg.sigma_eps = args.sigma_eps
    if args.teacher is not None:
        cfg.teacher = _parse_teacher_flag(args.teacher)
    if args.seeds is not None:
        cfg.seeds = _parse_seeds(args.seeds)
    if args.out is not None:
        cfg.out = args.out
    for flag in ("n_test", "n_repl", "c2", "a_star_override", "mc_draws"):
        val = getattr(args, flag)
        if val is not None:
            setattr(cfg, flag, val)
    if args.asymptotic_nu is not None:
        cfg.asymptotic_nu = args.asymptotic_nu
    if args.compare_naive is not None:
        cfg.compare_naive = args.compare_naive
    if cfg.alpha <= 0:
        raise _ConfigError("alpha must be positive")
    if not cfg.seeds:
        raise _ConfigError("at least one seed is required")
    if any(d < 1 for d in cfg.d):
        raise _ConfigError("dimensions must be positive")
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        return run(cfg)
    except _ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 1
    except InvalidArgumentError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 1
    except AssumptionViolationError as exc:
        print("assumption violation: %s" % exc, file=sys.stderr)
        return 2
    except (NumericalFailureError, QrlabError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
