import csv
import json
import math
import re

import numpy as np
import pytest

from qrlab.cli import main


def _read(outdir):
    return json.loads((outdir / "results.json").read_text())


def test_lambda_star_closed_form_via_cli(tmp_path, capsys):
    out = tmp_path / "ls"
    code = main([
        "lambda-star",
        "--alpha", "1", "--kernel", "quartic:1,1,1", "--cov", "identity",
        "--lambda", "0.5", "--a-star-override", "0", "--asymptotic-nu",
        "--d", "40", "--out", str(out),
    ])
    assert code == 0
    payload = _read(out)
    assert payload["records"][0]["lambda_star"] == pytest.approx(1.0 + math.sqrt(5.0), abs=1e-9)
    assert "3.23606797" in capsys.readouterr().out


def test_results_json_is_reproducible(tmp_path):
    args = [
        "lambda-star", "--alpha", "1", "--kernel", "quartic:1,1,1",
        "--cov", "identity", "--lambda", "0.5", "--d", "30",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()
    assert (out1 / "results.meta.json").exists()


@pytest.mark.parametrize("experiment, seeds, workers", [
    ("approx-norm", "3", 2), ("approx-norm", "1", 1), ("lambda-star", "3", 1),
    # esd's law build is a pool task of its own.
    ("esd", "1", 2), ("mp-law", "1", 1), ("train-error", "3", 2), ("risk", "1", 1),
])
def test_meta_records_environment(tmp_path, monkeypatch, experiment, seeds, workers):
    import numpy
    import scipy
    from qrlab import _lapack

    monkeypatch.setenv("QRLAB_THREADS", "2")
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "o"
    args = [experiment, "--d", "6", "--out", str(out)]
    if experiment != "mp-law":
        args += ["--kernel", "quartic:1,1,1"]
    if experiment not in ("mp-law", "lambda-star"):
        args += ["--seeds", seeds]
    if experiment == "risk":
        args += ["--n-test", "50", "--n-repl", "2"]
    assert main(args) == 0
    meta = json.loads((out / "results.meta.json").read_text())
    env = meta["environment"]
    assert set(env) == {"python", "numpy", "scipy", "eigen_driver", "lapack_threads", "numpy_blas_threads",
                        "cpu_count", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "seed_workers"}
    assert (env["numpy"], env["scipy"]) == (numpy.__version__, scipy.__version__)
    assert env["eigen_driver"] == _lapack.EIGEN_DRIVER and env["eigen_driver"] in ("dsyevd_2stage", "dsyevd")
    # scipy's and numpy's wheels each bundle an OpenBLAS, which reports its
    # thread count, read inside the run's pin.
    assert env["lapack_threads"] == 1 and env["numpy_blas_threads"] == 1
    assert env["OMP_NUM_THREADS"] == "3" and env["MKL_NUM_THREADS"] is None
    assert env["seed_workers"] == workers
    assert "environment" not in _read(out)
    pooled = ("approx-norm", "esd", "train-error", "risk")
    assert len(meta["runtime_ms"]) == (int(seeds) if experiment in pooled else 1)
    # Experiments off the pool record the measured run.
    assert all(ms > 0 for ms in meta["runtime_ms"])
    if experiment in ("esd", "mp-law"):
        assert meta["law_build_ms"] > 0
    else:
        assert "law_build_ms" not in meta


def test_config_hash_tracks_fields(tmp_path):
    base = ["lambda-star", "--alpha", "1", "--kernel", "quartic:1,1,1", "--d", "30"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--lambda", "0.5", "--out", str(out1)]) == 0
    assert main(base + ["--lambda", "0.6", "--out", str(out2)]) == 0
    assert _read(out1)["config_hash"] != _read(out2)["config_hash"]


def test_approx_norm_experiment(tmp_path):
    out = tmp_path / "gap"
    code = main([
        "approx-norm", "--d", "8,12", "--alpha", "1", "--kernel", "exp",
        "--sampler", "gh_discrete:5", "--seeds", "2", "--compare-naive",
        "--out", str(out),
    ])
    assert code == 0
    payload = _read(out)
    assert len(payload["records"]) == 4
    assert set(payload["summary"]["median_gap_by_d"]) == {"8", "12"}
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "d,n,seed,gap,gap_naive"
    # One row per record; the medians are in results.json's summary only.
    assert len(lines) == 5
    assert not any("median" in line for line in lines)


def test_esd_experiment_writes_overlay(tmp_path):
    out = tmp_path / "esd"
    code = main([
        "esd", "--d", "20", "--alpha", "1", "--kernel", "quartic:1,1,1",
        "--cov", "identity", "--seeds", "1", "--out", str(out),
    ])
    assert code == 0
    svg = (out / "overlay.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg
    law_lines = (out / "law.csv").read_text().splitlines()
    assert law_lines[0].startswith("# atom0_mass=")
    payload = _read(out)
    assert 0.0 <= payload["records"][0]["ks"] <= 1.0


def test_mp_law_experiment(tmp_path):
    out = tmp_path / "law"
    code = main([
        "mp-law", "--d", "10", "--alpha", "0.5", "--cov", "identity", "--out", str(out),
    ])
    assert code == 0
    payload = _read(out)
    assert payload["records"][0]["atom0_mass"] == pytest.approx(0.5, abs=1e-10)
    assert payload["records"][0]["total_mass"] == pytest.approx(1.0, abs=2e-3)
    # No eigenvalues: no histogram bars, and the density, not the atom marker,
    # sets the height (its peak is near the top of the 480 px plot).
    svg = (out / "overlay.svg").read_text()
    assert 'fill="#9ecae1"' not in svg
    points = re.search(r'<polyline points="([^"]*)"', svg).group(1).split()
    assert min(float(p.split(",")[1]) for p in points) < 100


@pytest.mark.parametrize("d, cov", [("8", "uniform:1e-7,2e-7"), ("60", "uniform:500,1500")])
def test_mp_law_mass_at_any_population_scale(tmp_path, d, cov):
    # The law is built with no absolute scale, so a population far from unit
    # scale keeps its whole mass.
    out = tmp_path / "law"
    assert main(["mp-law", "--d", d, "--alpha", "0.5", "--cov", cov, "--out", str(out)]) == 0
    assert _read(out)["records"][0]["total_mass"] == pytest.approx(1.0, abs=1e-5)


def test_train_error_experiment(tmp_path):
    out = tmp_path / "tr"
    code = main([
        "train-error", "--d", "24", "--alpha", "1", "--kernel", "quartic:1,1,1",
        "--cov", "identity", "--seeds", "2", "--sigma-eps", "0.5", "--lambda", "1",
        "--out", str(out),
    ])
    assert code == 0
    payload = _read(out)
    assert payload["summary"]["predicted"] > 0
    assert len(payload["records"]) == 2


def test_train_error_c2_scales_the_empirical_teacher(tmp_path):
    means = []
    for c2 in ("1", "2"):
        out = tmp_path / ("c2_" + c2)
        code = main([
            "train-error", "--d", "16", "--alpha", "1", "--kernel", "quartic:1,1,1",
            "--lambda", "0.5", "--seeds", "2", "--c2", c2, "--out", str(out),
        ])
        assert code == 0
        means.append(_read(out)["summary"]["mean_empirical"])
    # The teacher's share of the error grows by c2^2 = 4; the noise's does not.
    assert means[1] / means[0] > 2.0


def test_risk_experiment_small(tmp_path):
    out = tmp_path / "risk"
    code = main([
        "risk", "--d", "20", "--alpha", "1", "--kernel", "quartic:1,1,1",
        "--cov", "identity", "--teacher", "deterministic_sigma", "--seeds", "1",
        "--n-test", "200", "--n-repl", "2", "--out", str(out),
    ])
    assert code == 0
    payload = _read(out)
    assert payload["records"][0]["empirical"] > 0


def test_oracle_check_subcommand(tmp_path, capsys):
    out = tmp_path / "oracle"
    code = main(["oracle-check", "--mc-draws", "200000", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text


def test_oracle_check_takes_one_seed(tmp_path, capsys):
    assert main(["oracle-check", "--seeds", "3,4", "--mc-draws", "1000", "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "one seed" in err
    assert not (tmp_path / "x").exists()


# Small runs of every experiment.
_SMALL = {
    "approx-norm": ["--d", "6,8", "--kernel", "exp", "--seeds", "2", "--compare-naive"],
    "esd": ["--d", "8", "--kernel", "quartic:1,1,1", "--seeds", "2"],
    "mp-law": ["--d", "8"],
    "train-error": ["--d", "8", "--kernel", "quartic:1,1,1", "--seeds", "2"],
    "lambda-star": ["--d", "8", "--kernel", "quartic:1,1,1"],
    "risk": ["--d", "8", "--kernel", "quartic:1,1,1", "--seeds", "2", "--n-test", "50", "--n-repl", "2"],
    "oracle-check": ["--mc-draws", "20000"],
}


@pytest.mark.parametrize("experiment", list(_SMALL))
def test_results_csv_matches_records(tmp_path, monkeypatch, experiment):
    import qrlab.cli as cli

    # The records as the runner returns them: results.json sorts their keys.
    written = []
    write_outputs = cli._write_outputs

    def capture(cfg, records, *rest):
        written.append(records)
        return write_outputs(cfg, records, *rest)

    monkeypatch.setattr(cli, "_write_outputs", capture)
    out = tmp_path / "o"
    assert main([experiment] + _SMALL[experiment] + ["--out", str(out)]) == 0
    records = written[0]
    assert _read(out)["records"] == records
    raw = (out / "results.csv").read_bytes()
    assert b"\r" not in raw
    reader = csv.DictReader(raw.decode().splitlines())
    rows = list(reader)
    assert reader.fieldnames == list(records[0])
    assert rows == [{key: str(value) for key, value in rec.items()} for rec in records]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "d": [30],
        "alpha": 1.0,
        "kernel": {"type": "quartic", "b0": 1, "b2": 1, "b4": 1},
        "lambda": 0.25,
        "a_star_override": 0.0,
        "asymptotic_nu": True,
    }))
    out = tmp_path / "o"
    code = main(["lambda-star", "--config", str(cfg), "--lambda", "0.5", "--out", str(out)])
    assert code == 0
    # The flag overrides the file: a_star + lambda = 0.5 gives 1 + sqrt(5).
    assert _read(out)["records"][0]["lambda_star"] == pytest.approx(1.0 + math.sqrt(5.0), abs=1e-9)
    assert _read(out)["config"]["lambda"] == 0.5


def test_exit_codes():
    # Unparseable kernel spec is a configuration error.
    assert main(["esd", "--kernel", "mystery", "--d", "10"]) == 1
    # Broken config file.
    assert main(["esd", "--config", "/nonexistent/cfg.json"]) == 1
    # exp kernel violates the generalization assumptions in a risk run.
    assert main(["risk", "--d", "10", "--kernel", "exp", "--seeds", "1", "--n-test", "10",
                 "--n-repl", "1", "--out", "/tmp/qrlab-exit2"]) == 2


def test_thread_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("QRLAB_THREADS", "1")
    out = tmp_path / "seq"
    code = main([
        "approx-norm", "--d", "8", "--alpha", "1", "--kernel", "exp",
        "--seeds", "2", "--out", str(out),
    ])
    assert code == 0
    assert len(_read(out)["records"]) == 2


def test_approx_norm_bytes_independent_of_worker_count(tmp_path, monkeypatch):
    args = ["approx-norm", "--d", "8,12", "--alpha", "1", "--kernel", "exp",
            "--sampler", "gh_discrete:5", "--seeds", "3", "--compare-naive"]
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("QRLAB_THREADS", threads)
        outs.append(tmp_path / ("threads_" + threads))
        assert main(args + ["--out", str(outs[-1])]) == 0
    assert (outs[0] / "results.json").read_bytes() == (outs[1] / "results.json").read_bytes()


@pytest.mark.parametrize("args", [
    ["risk", "--d", "8", "--kernel", "quartic:1,1,1", "--seeds", "3", "--n-test", "50", "--n-repl", "2"],
    ["train-error", "--d", "8", "--kernel", "quartic:1,1,1", "--seeds", "3"],
], ids=["risk", "train-error"])
def test_ridge_bytes_independent_of_worker_count(tmp_path, monkeypatch, args):
    # The seed workers' ridge fits run side by side, outside the GIL.
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("QRLAB_THREADS", threads)
        outs.append(tmp_path / ("threads_" + threads))
        assert main(args + ["--out", str(outs[-1])]) == 0
    assert (outs[0] / "results.json").read_bytes() == (outs[1] / "results.json").read_bytes()


@pytest.mark.parametrize("args", [
    ["risk", "--kernel", "quartic:1,1,1", "--n-test", "50", "--n-repl", "3"],
    ["train-error", "--kernel", "quartic:1,1,1"],
], ids=["risk", "train-error"])
def test_meta_records_each_ridge_solve(tmp_path, args):
    out = tmp_path / "o"
    assert main(args + ["--d", "8", "--seeds", "2,0,1", "--out", str(out)]) == 0
    solvers = json.loads((out / "results.meta.json").read_text())["solvers"]
    ridge = [s for s in solvers if "seed" in s]
    # One entry per seed, in the order of the records and of runtime_ms; risk
    # adds one lambda_* entry per rung after them.
    assert [s["seed"] for s in ridge] == [2, 0, 1]
    assert solvers[:3] == ridge and len(solvers) == 3 + (args[0] == "risk")
    for solver in ridge:
        assert set(solver) == {"d", "seed", "ridge_residual_ratio"}
        assert type(solver["ridge_residual_ratio"]) is float
        assert 0.0 <= solver["ridge_residual_ratio"] <= 1.0
    assert "solvers" not in _read(out)


def test_lambda_star_other_kernels(tmp_path):
    out = tmp_path / "cosh"
    code = main([
        "lambda-star", "--alpha", "1", "--kernel", "cosh",
        "--cov", "identity", "--lambda", "0.5", "--d", "30", "--out", str(out),
    ])
    assert code == 0
    out2 = tmp_path / "poly"
    code = main([
        "lambda-star", "--alpha", "1", "--kernel", "custom_poly:1,0,0.5,0,0.02",
        "--cov", "identity", "--lambda", "0.5", "--d", "30", "--out", str(out2),
    ])
    assert code == 0
    assert _read(out)["records"][0]["lambda_star"] > 0


def test_esd_exports_eigenvalues(tmp_path):
    out = tmp_path / "eigs"
    code = main([
        "esd", "--d", "16", "--alpha", "1", "--kernel", "quartic:1,1,1",
        "--seeds", "1", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "eigs.csv").read_text().splitlines()
    assert lines[0] == "eigenvalue"
    assert len(lines) == 1 + 16 * 16 // 2


def test_exit_code_numerical_failure(monkeypatch, tmp_path):
    import qrlab.cli as cli
    from qrlab.errors import NumericalFailureError

    def boom(cfg):
        raise NumericalFailureError("forced failure")

    monkeypatch.setitem(cli._EXPERIMENT_TABLE, "mp-law", (boom, cli._EXPERIMENT_TABLE["mp-law"][1]))
    assert main(["mp-law", "--d", "10", "--out", str(tmp_path / "x")]) == 3


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_thread_cap_is_configuration_error(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("QRLAB_THREADS", value)
    code = main(["mp-law", "--d", "10", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "QRLAB_THREADS" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_nan_labels_exit_numerical_failure(monkeypatch, tmp_path, capsys):
    import numpy as np

    import qrlab.krr as krr

    make_labels = krr.make_labels

    def nan_labels(*args, **kwargs):
        y = make_labels(*args, **kwargs)
        y[0] = np.nan
        return y

    monkeypatch.setattr(krr, "make_labels", nan_labels)
    code = main([
        "risk", "--d", "10", "--alpha", "1", "--kernel", "quartic:1,1,1",
        "--teacher", "deterministic_sigma", "--seeds", "1", "--n-test", "20",
        "--n-repl", "1", "--out", str(tmp_path / "r"),
    ])
    assert code == 3
    assert "ridge solve" in capsys.readouterr().err


def test_esd_solves_each_seed_once(tmp_path, monkeypatch):
    import numpy as np
    import qrlab.spectra as spectra
    from qrlab.datagen import CovarianceSpec, MomentMatchedSampler, sample_dataset
    from qrlab.kernels import KernelFunction, kernel_matrix, quad_coeffs

    esd = spectra.esd
    calls = []

    def counting_esd(mat):
        calls.append(mat.shape)
        return esd(mat)

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy's eigvalsh called on esd's path")

    monkeypatch.setattr(spectra, "esd", counting_esd)
    # One route: the in-place LAPACK solve of qrlab._lapack.
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    seeds = [3, 1, 2]
    out = tmp_path / "esd"
    code = main([
        "esd", "--d", "12", "--alpha", "1", "--kernel", "quartic:1,1,1",
        "--seeds", ",".join(map(str, seeds)), "--out", str(out),
    ])
    assert code == 0
    assert len(calls) == len(seeds)
    # eigs.csv holds the first listed seed's spectrum, as a fresh solve gives
    # it: (4 alpha / f''(0)) (K - a_star I) at n = 12^2 / 2.
    kernel, cov = KernelFunction.quartic(1, 1, 1), CovarianceSpec.identity(12)
    k_mat = kernel_matrix(sample_dataset(72, 12, cov, MomentMatchedSampler.gaussian(), seeds[0]), kernel)
    k_mat[np.diag_indices(72)] -= quad_coeffs(kernel, cov).a_star
    k_mat *= 4.0 / kernel.derivs0[2]
    eigs = spectra.esd(k_mat)
    expected = "eigenvalue\n" + "".join("%r\n" % float(v) for v in eigs)
    assert (out / "eigs.csv").read_text() == expected


def _write_config(tmp_path, config, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return ["--config", str(path)]


@pytest.mark.parametrize("command, args, config", [
    ("esd", ["--kernel", "quartic:1,x,1"], None),
    ("esd", ["--kernel", "custom_poly:"], None),
    ("esd", ["--cov", "uniform:1"], None),
    ("esd", ["--sampler", "gh_discrete:"], None),
    ("esd", ["--seeds", "abc"], None),
    ("esd", ["--d", "abc"], None),
    ("esd", [], {"kernel": {"type": "quartic"}}),
    ("esd", [], {"cov": {"kind": "uniform", "lo": 1}}),
    ("esd", [], {"lam": 3}),
    ("esd", [], {"kernel": {"type": "exp", "junk": 5}}),
    # Experiments without seeds reject a ladder instead of using its first rung.
    ("mp-law", ["--d", "10,20"], None),
    # One spelling per subcommand and flag: no underscore alias, no flag prefix.
    ("mp_law", [], None),
    ("mp-law", ["--al", "0.5"], None),
    # The risk formulas have no teacher offset or linear term.
    ("risk", [], {"teacher": {"kind": "deterministic_sigma", "c0": 5}}),
    ("lambda-star", [], {"teacher": {"kind": "pure_quadratic", "c1": 0.5}}),
    # Non-finite numbers, from a flag or from a config file's NaN token.
    ("mp-law", ["--alpha", "inf"], None),
    ("lambda-star", ["--sigma-eps", "nan"], None),
    ("lambda-star", [], {"lambda": float("nan")}),
    # A derived n = round(d^2/(2 alpha)) that is infinite, or whose n x n
    # float64 array this platform cannot address.
    ("approx-norm", ["--alpha", "1e-310"], None),
    ("esd", ["--alpha", "1e-300"], None),
    # Counts below 1 and a negative noise level, before any work.
    ("oracle-check", ["--mc-draws", "0"], None),
    ("oracle-check", ["--mc-draws", "-5"], None),
    ("risk", ["--n-test", "0"], None),
    ("risk", [], {"n_repl": 0}),
    ("lambda-star", ["--sigma-eps", "-0.5"], None),
    ("risk", ["--kernel", "quartic:1,1,1", "--sigma-eps", "-0.5"], None),
    # A repeated d or seed would run the same tasks twice and average them.
    ("train-error", ["--d", "8,8", "--kernel", "quartic:1,1,1"], None),
    ("esd", ["--seeds", "0,0"], None),
], ids=["kernel-value", "custom-poly-empty", "cov-arity", "sampler-empty", "seeds-text", "d-text",
        "json-kernel-params", "json-cov-params", "json-unknown-key", "json-unknown-spec-key",
        "mp-law-d-ladder", "underscore-subcommand", "flag-prefix", "risk-teacher-c0",
        "lambda-star-teacher-c1", "alpha-inf", "sigma-eps-nan", "json-lambda-nan",
        "n-infinite", "n-unaddressable", "mc-draws-zero", "mc-draws-negative", "n-test-zero", "json-n-repl-zero",
        "lambda-star-sigma-eps-negative", "risk-sigma-eps-negative", "d-repeated", "seeds-repeated"])
def test_malformed_config_is_configuration_error(tmp_path, capsys, command, args, config):
    if config is not None:
        args = args + _write_config(tmp_path, config)
    # oracle-check reads no d.
    lead = [] if command == "oracle-check" else ["--d", "6"]
    code = main([command] + lead + args + ["--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_config_experiment_is_the_subcommand_name(tmp_path, capsys):
    out = tmp_path / "ok"
    assert main(["mp-law", "--d", "8"] + _write_config(tmp_path, {"experiment": "mp-law"}) + ["--out", str(out)]) == 0
    assert _read(out)["config"]["experiment"] == "mp-law"
    capsys.readouterr()
    for named in ["mp_law", "", None, False, 0, []]:
        args = _write_config(tmp_path, {"experiment": named}, "bad.json")
        assert main(["mp-law", "--d", "8"] + args + ["--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()


# One key per experiment that its runner does not read.
_UNREAD = [("approx-norm", "lambda", "1"), ("esd", "n_test", "50"), ("mp-law", "kernel", "exp"),
           ("train-error", "n_repl", "2"), ("lambda-star", "seeds", "1"), ("risk", "c2", "3"),
           ("oracle-check", "d", "6")]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, key, value", _UNREAD, ids=[c for c, _, _ in _UNREAD])
def test_unread_keys_are_rejected(tmp_path, capsys, command, key, value, source):
    flag = "--" + key.replace("_", "-")
    given = [flag, value] if source == "flag" else _write_config(tmp_path, {key: value})
    assert main([command] + given + ["--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and (flag if source == "flag" else key) in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_spec_dict_spec_string_and_flag_agree(tmp_path):
    run = ["approx-norm", "--alpha", "1", "--seeds", "1"]
    flags = ["--d", "12", "--kernel", "quartic:1,1,1", "--cov", "uniform:1,2", "--sampler", "gh_discrete:5"]
    as_dict = {"d": 12, "kernel": {"type": "quartic", "b0": 1, "b2": 1, "b4": 1},
               "cov": {"kind": "uniform", "lo": 1, "hi": 2}, "sampler": {"mode": "gh_discrete", "m": 5}}
    as_text = {"d": "12", "kernel": "quartic:1,1,1", "cov": "uniform:1,2", "sampler": "gh_discrete:5"}
    outs = []
    for i, extra in enumerate([flags, _write_config(tmp_path, as_dict, "a.json"), _write_config(tmp_path, as_text, "b.json")]):
        outs.append(tmp_path / ("o%d" % i))
        assert main(run + extra + ["--out", str(outs[-1])]) == 0
    blobs = [(out / "results.json").read_bytes() for out in outs]
    assert blobs[0] == blobs[1] == blobs[2]


def test_json_seed_count_matches_flag(tmp_path):
    run = ["approx-norm", "--d", "6", "--kernel", "exp"]
    assert main(run + ["--seeds", "3", "--out", str(tmp_path / "flag")]) == 0
    assert main(run + _write_config(tmp_path, {"seeds": 3}) + ["--out", str(tmp_path / "json")]) == 0
    flag, from_json = _read(tmp_path / "flag"), _read(tmp_path / "json")
    assert flag == from_json
    assert flag["config"]["seeds"] == [0, 1, 2]


def test_trailing_comma_names_one_seed(tmp_path):
    assert main(["esd", "--d", "3", "--seeds", "3,", "--out", str(tmp_path / "o")]) == 0
    result = _read(tmp_path / "o")
    assert result["config"]["seeds"] == [3]
    assert [r["seed"] for r in result["records"]] == [3]


def test_json_only_spec_keys(tmp_path):
    config = {"cov": {"kind": "uniform", "lo": 0.5, "hi": 1.5, "seed": 3},
              "teacher": {"kind": "pure_quadratic", "c0": 1, "c1": 0.5}}
    code = main(["train-error", "--d", "8", "--kernel", "quartic:1,1,1"] + _write_config(tmp_path, config)
                + ["--out", str(tmp_path / "o")])
    assert code == 0
    echoed = _read(tmp_path / "o")["config"]
    assert echoed["cov"] == {"kind": "uniform", "lo": 0.5, "hi": 1.5, "seed": 3}
    assert echoed["teacher"] == {"kind": "pure_quadratic", "c0": 1.0, "c1": 0.5}


@pytest.mark.parametrize("experiment", ["approx-norm", "esd"])
def test_non_finite_kernel_exits_numerical_failure(tmp_path, capsys, experiment):
    # exp overflows on this covariance: tau = 1000.
    code = main([experiment, "--d", "10", "--kernel", "exp", "--cov", "uniform:0,2000", "--seeds", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "non-finite" in err
    assert "Traceback" not in err


def test_esd_outputs_independent_of_worker_count(tmp_path, monkeypatch):
    blobs = []
    # With 4 workers both law segments and the seeds are pooled at once.
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("QRLAB_THREADS", threads)
        out = tmp_path / ("t" + threads)
        assert main(["esd", "--d", "12", "--kernel", "quartic:1,1,1", "--cov", "uniform:0.5,1.5",
                     "--seeds", "2,0,1", "--out", str(out)]) == 0
        blobs.append([(out / name).read_bytes() for name in ("results.json", "law.csv", "eigs.csv")])
    assert blobs[0] == blobs[1] == blobs[2]
    # mp-law builds the same law from the same d, alpha and covariance.
    out = tmp_path / "mp"
    assert main(["mp-law", "--d", "12", "--cov", "uniform:0.5,1.5", "--out", str(out)]) == 0
    assert (out / "law.csv").read_bytes() == blobs[0][1]


@pytest.mark.parametrize("threads", ["2", "4"])
def test_esd_never_runs_two_law_segments_at_once(tmp_path, monkeypatch, threads):
    import time

    from qrlab import spectra

    sweep = spectra.LawSegment.__call__
    spans = []

    def timed(segment):
        start = time.perf_counter()
        out = sweep(segment)
        spans.append((start, time.perf_counter()))
        return out

    monkeypatch.setattr(spectra.LawSegment, "__call__", timed)
    monkeypatch.setenv("QRLAB_THREADS", threads)
    assert main(["esd", "--d", "12", "--kernel", "quartic:1,1,1", "--seeds", "2",
                 "--out", str(tmp_path / "o")]) == 0
    assert len(spans) == spectra.LAW_SEGMENTS
    spans.sort()
    assert all(earlier[1] <= later[0] for earlier, later in zip(spans, spans[1:]))


@pytest.mark.parametrize("experiment", ["esd", "mp-law"])
def test_law_meta_records_each_segment_solve(tmp_path, experiment):
    from qrlab import spectra

    out = tmp_path / "o"
    args = [experiment, "--d", "8", "--out", str(out)] + (["--seeds", "2"] if experiment == "esd" else [])
    assert main(args) == 0
    meta = json.loads((out / "results.meta.json").read_text())
    solvers = meta["solvers"]
    # One entry per grid segment, top segment first.
    assert len(solvers) == spectra.LAW_SEGMENTS
    assert sum(s["points"] for s in solvers) == spectra.LAW_GRID_POINTS
    assert [s["x_max"] for s in solvers] == sorted((s["x_max"] for s in solvers), reverse=True)
    for stats in solvers:
        assert set(stats) == {"points", "x_min", "x_max", "calls", "iterations", "iterations_max",
                              "cold_restarts", "failed_warm_steps"}
        assert all(type(stats[key]) is float for key in ("x_min", "x_max"))
        counts = {key: value for key, value in stats.items() if key not in ("x_min", "x_max")}
        assert all(type(value) is int and value >= 0 for value in counts.values())
        assert stats["calls"] == stats["points"] + stats["cold_restarts"]
        assert stats["iterations_max"] <= spectra.STIELTJES_WARM_STEPS
        assert stats["iterations"] >= stats["points"]
        assert stats["failed_warm_steps"] <= stats["cold_restarts"] * spectra.STIELTJES_WARM_STEPS
    assert "solvers" not in _read(out)


@pytest.mark.parametrize("experiment, flags, code, message", [
    ("esd", "--d 10 --kernel exp --cov uniform:0,2000 --seeds 1", 3, "non-finite"),
    ("approx-norm", "--d 10 --kernel exp --cov uniform:0,2000 --seeds 1", 3, "non-finite"),
    ("esd", "--d 10 --kernel custom_poly:1,1 --cov identity --seeds 1", 2, "f''(0) must be nonzero"),
    # tau = 600 at d=3 is finite; tau = 900 at d=4 overflows exp, before any rung's K.
    ("approx-norm", "--d 3,4 --kernel exp --cov two_point:0,1800,0.5 --seeds 1", 3, "non-finite"),
    # Tr(Sigma^2) overflows, and with it the corrected coefficients.
    ("esd", "--d 4 --kernel quartic:1,1,1 --cov two_point:0,1e200,0.5 --seeds 1", 3, "non-finite"),
    ("approx-norm", "--d 4 --kernel quartic:1,1,1 --cov two_point:0,1e200,0.5 --seeds 1", 3, "non-finite"),
    ("train-error", "--d 4 --kernel quartic:1,1,1 --cov uniform:0,1e160 --seeds 1", 3, "non-finite"),
    ("risk", "--d 4 --kernel quartic:1,6,1 --cov two_point:0,1e200,0.5 --n-test 10 --n-repl 2 --seeds 1",
     3, "non-finite"),
    # The limit formulas' a_star overflows with exp(tau) at tau = 900.
    ("train-error", "--d 4 --kernel exp --cov two_point:0,1800,0.5 --seeds 1", 3, "non-finite"),
    ("lambda-star", "--d 4 --kernel exp --cov two_point:0,1800,0.5", 3, "non-finite"),
    # alpha * t * t underflows to 0 in the Newton step.
    ("lambda-star", "--d 8 --alpha 1e-300", 3, "numerical failure"),
    # sigma_eps^2 or c2^2 overflows in a limit value.
    ("train-error", "--d 8 --kernel quartic:1,1,1 --sigma-eps 1e160 --seeds 1", 3, "non-finite"),
    ("train-error", "--d 8 --kernel quartic:1,1,1 --c2 1e160 --seeds 1", 3, "non-finite"),
    ("lambda-star", "--d 8 --kernel quartic:1,1,1 --sigma-eps 1e160", 3, "non-finite"),
    ("risk", "--d 8 --kernel quartic:1,1,1 --sigma-eps 1e160 --seeds 1 --n-test 10 --n-repl 2", 3, "non-finite"),
    # A negative ridge: a_star = 1/24 here, so at -0.01 the prediction's
    # a_star + lambda > 0 holds, at -1 it does not; both are refused first.
    ("train-error", "--d 8 --kernel quartic:1,1,1 --lambda -0.01 --seeds 1", 1, "lambda must be nonnegative"),
    ("risk", "--d 8 --kernel quartic:1,1,1 --lambda -0.01 --seeds 1 --n-test 50 --n-repl 2", 1,
     "lambda must be nonnegative"),
    ("train-error", "--d 8 --kernel quartic:1,1,1 --lambda -1 --seeds 1", 1, "lambda must be nonnegative"),
    ("risk", "--d 8 --kernel quartic:1,1,1 --lambda -1 --seeds 1 --n-test 50 --n-repl 2", 1,
     "lambda must be nonnegative"),
], ids=["esd-overflow", "approx-norm-overflow", "esd-flat-kernel", "approx-norm-later-rung-overflow",
        "esd-trace-overflow", "approx-norm-trace-overflow", "train-error-trace-overflow", "risk-trace-overflow",
        "train-error-a-star-overflow", "lambda-star-a-star-overflow", "lambda-star-tiny-alpha",
        "train-error-noise-overflow", "train-error-c2-overflow", "lambda-star-noise-overflow", "risk-noise-overflow",
        "train-error-lambda-negative", "risk-lambda-negative", "train-error-lambda-below-a-star",
        "risk-lambda-below-a-star"])
def test_esd_and_gap_fail_before_the_n_by_n_work(tmp_path, monkeypatch, capsys, recwarn,
                                                 experiment, flags, code, message):
    import qrlab.kernels as kernels
    import qrlab.krr as krr
    import qrlab.spectra as spectra

    def forbidden(*args, **kwargs):
        raise AssertionError("called after a check that should have failed the run")

    monkeypatch.setattr(spectra, "law_segments", forbidden)
    monkeypatch.setattr(spectra, "deformed_mp_law", forbidden)
    monkeypatch.setattr(kernels, "kernel_matrix", forbidden)
    monkeypatch.setattr(kernels, "gap_matrix", forbidden)
    monkeypatch.setattr(krr, "kernel_matrix", forbidden)
    assert main([experiment] + flags.split() + ["--out", str(tmp_path / "x")]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_lambda_star_takes_a_negative_lambda_above_minus_a_star(tmp_path):
    # a_star = 1/24 for quartic:1,1,1 at d=8: only a_star + lambda > 0 is asked.
    assert main(["lambda-star", "--d", "8", "--kernel", "quartic:1,1,1", "--lambda", "-0.01",
                 "--out", str(tmp_path / "ls")]) == 0


def test_capacity_check_sums_the_largest_task_per_worker(monkeypatch):
    import qrlab.cli as cli
    from qrlab.errors import CapacityError

    monkeypatch.setenv("QRLAB_THREADS", "2")
    monkeypatch.setattr(cli, "_mem_available", lambda: 8)
    cli._check_capacity([1, 5, 3])  # two workers: 5 + 3 bytes
    cli._check_capacity([8])  # one task, one worker
    monkeypatch.setattr(cli, "_mem_available", lambda: 7)
    with pytest.raises(CapacityError) as info:
        cli._check_capacity([1, 5, 3])
    assert info.value.required_bytes == 8
    monkeypatch.setattr(cli, "_mem_available", lambda: None)  # unknown: no check
    cli._check_capacity([2**60])


def test_approx_norm_refuses_a_pool_beyond_available_memory(tmp_path, monkeypatch, capsys):
    import qrlab.cli as cli
    import qrlab.kernels as kernels

    def forbidden(*args, **kwargs):
        raise AssertionError("n x n work started after the capacity check failed")

    monkeypatch.setenv("QRLAB_THREADS", "2")
    monkeypatch.setattr(kernels, "gap_matrix", forbidden)
    monkeypatch.setattr(cli, "_mem_available", lambda: 2**20)
    # d=128: n = 8192, one 512 MiB array per task and two tasks at once.
    assert main(["approx-norm", "--d", "24,128", "--seeds", "2", "--out", str(tmp_path / "x")]) == 3
    need = 2 * kernels.strip_build_bytes(8192, 128) // 2**20
    err = capsys.readouterr().err
    assert "capacity error: the largest concurrent tasks need about %d MB, and 1 MB of memory is available" % need in err
    assert "Traceback" not in err


@pytest.mark.parametrize("compare_naive", [False, True], ids=["corrected", "compare-naive"])
def test_approx_norm_meta_records_each_lanczos_solve(tmp_path, compare_naive):
    out = tmp_path / "o"
    args = ["approx-norm", "--d", "8,12", "--seeds", "2", "--out", str(out)]
    assert main(args + ["--compare-naive"] * compare_naive) == 0
    meta = json.loads((out / "results.meta.json").read_text())
    solves = ("gap", "gap_naive") if compare_naive else ("gap",)
    # One entry per (d, seed) task, in the order of runtime_ms.
    assert [(s["d"], s["seed"]) for s in meta["solvers"]] == [(8, 0), (8, 1), (12, 0), (12, 1)]
    for solver in meta["solvers"]:
        assert set(solver) == {"d", "seed", *solves}
        for key in solves:
            stats = solver[key]
            assert set(stats) == {"matvecs", "residual", "bound"}
            assert type(stats["matvecs"]) is int and stats["matvecs"] > 0
            assert type(stats["residual"]) is float and type(stats["bound"]) is float
            assert 0.0 <= stats["residual"] <= stats["bound"]
    payload = _read(out)
    assert "solvers" not in payload
    assert all(set(r) == {"d", "n", "seed", *solves} for r in payload["records"])


@pytest.mark.parametrize("experiment, flags", [
    ("esd", ""),
    ("train-error", "--kernel quartic:1,1,1"),
], ids=["esd", "train-error"])
def test_esd_and_train_error_refuse_tasks_beyond_available_memory(tmp_path, monkeypatch, capsys, experiment, flags):
    import qrlab.cli as cli
    import qrlab.kernels as kernels
    import qrlab.krr as krr
    import qrlab.spectra as spectra

    def forbidden(*args, **kwargs):
        raise AssertionError("%s work started after the capacity check failed" % experiment)

    monkeypatch.setenv("QRLAB_THREADS", "2")
    monkeypatch.setattr(spectra, "law_segments", forbidden)
    monkeypatch.setattr(spectra, "deformed_mp_law", forbidden)
    monkeypatch.setattr(krr, "asymptotic_training_error", forbidden)
    monkeypatch.setattr(kernels, "kernel_matrix", forbidden)
    monkeypatch.setattr(cli, "_mem_available", lambda: 2**20)
    # The desk shape, d=60: n = 1800 and two tasks at once.
    assert main([experiment, "--d", "60", "--seeds", "2", "--out", str(tmp_path / "x")] + flags.split()) == 3
    need = 2 * kernels.strip_build_bytes(1800, 60) // 2**20
    err = capsys.readouterr().err
    assert "capacity error: the largest concurrent tasks need about %d MB, and 1 MB of memory is available" % need in err
    assert "Traceback" not in err


def test_esd_and_train_error_estimates_bound_the_traced_peak():
    import tracemalloc

    from qrlab import datagen, kernels, krr, spectra
    from qrlab.kernels import KernelFunction, kernel_matrix

    d, n = 40, 800
    cov = datagen.CovarianceSpec.identity(d)
    kernel = KernelFunction.quartic(1.0, 1.0, 1.0)
    data = datagen.sample_dataset(n, d, cov, datagen.MomentMatchedSampler.gaussian(), 0)
    # One esd seed task, then one train-error seed task, as their runners do
    # them. esd solves K in place and the ridge fit factors it in place, so
    # each peaks at K and its strips, which the strip-build estimate bounds.
    tracemalloc.start()
    try:
        k_mat = kernel_matrix(data, kernel)
        k_mat[np.diag_indices(n)] -= 0.5
        k_mat *= 2.0
        spectra.esd(k_mat)
        del k_mat
        esd_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        krr.empirical_training_error(data, kernel, "pure_quadratic", 1.0, 0.5, 0)
        train_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * n * n <= esd_peak <= kernels.strip_build_bytes(n, d)
    assert 8 * n * n <= train_peak <= kernels.strip_build_bytes(n, d)


def test_risk_names_the_kernels_it_can_run(tmp_path, capsys):
    from qrlab.errors import AssumptionWarning

    # The default exp kernel has f'(0) != 0, so a bare risk run exits 2 and
    # says which kernels pass.
    assert main(["risk", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "assumption violation: kernel exp violates the generalization assumptions" in err
    assert "quartic:b0,b2,b4 with b2 > 0, or cosh" in err
    assert main(["risk", "--d", "8", "--kernel", "quartic:1,1,1", "--seeds", "1", "--n-test", "20",
                 "--n-repl", "2", "--out", str(tmp_path / "q")]) == 0
    with pytest.warns(AssumptionWarning, match="unbounded high-order derivatives"):
        assert main(["risk", "--d", "8", "--kernel", "cosh", "--seeds", "1", "--n-test", "20",
                     "--n-repl", "2", "--out", str(tmp_path / "c")]) == 0


def test_risk_refuses_tasks_beyond_available_memory(tmp_path, monkeypatch, capsys):
    import qrlab.cli as cli
    import qrlab.kernels as kernels
    import qrlab.krr as krr

    def forbidden(*args, **kwargs):
        raise AssertionError("risk work started after the capacity check failed")

    monkeypatch.setenv("QRLAB_THREADS", "2")
    monkeypatch.setattr(krr, "asymptotic_risk", forbidden)
    monkeypatch.setattr(kernels, "kernel_matrix", forbidden)
    monkeypatch.setattr(krr, "kernel_matrix", forbidden)
    monkeypatch.setattr(cli, "_mem_available", lambda: 2**20)
    # The desk shape, d=60: n = 1800 and two tasks at once.
    assert main(["risk", "--d", "60", "--kernel", "quartic:1,6,1", "--seeds", "2", "--n-test", "4000",
                 "--out", str(tmp_path / "x")]) == 3
    need = 2 * krr.empirical_risk_bytes(1800, 60, 4000, 8) // 2**20
    err = capsys.readouterr().err
    assert "capacity error: the largest concurrent tasks need about %d MB, and 1 MB of memory is available" % need in err
    assert "Traceback" not in err


@pytest.mark.parametrize("teacher, code", [("deterministic_sigma", 0), ("pure_quadratic", 3)])
def test_bias_overflow_fails_only_the_teacher_that_reads_it(tmp_path, capsys, teacher, code):
    # lambda_*/(a_star + lambda) = 2e170, whose square overflows.
    out = tmp_path / "x"
    assert main(["lambda-star", "--d", "8", "--alpha", "2", "--kernel", "quartic:1,1,1", "--lambda", "1e-170",
                 "--a-star-override", "0", "--teacher", teacher, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        assert _read(out)["summary"]["B"] == 0.0
    else:
        assert "numerical failure: bias B is non-finite" in err


def test_cli_prints_warnings_on_one_line(tmp_path, capfd):
    import os
    import subprocess
    import sys
    import warnings

    # In a subprocess, where Python's own warning display is in force.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    args = ["train-error", "--d", "10", "--kernel", "custom_poly:1,1,-1", "--lambda", "0.5", "--seeds", "1"]
    code = subprocess.call([sys.executable, "-m", "qrlab.cli"] + args + ["--out", str(tmp_path / "x")], env=env)
    assert code == 2
    err = capfd.readouterr().err.splitlines()
    assert err == ["warning: diagonal offset a_star = 0 is not positive; ridge-less fits and the risk "
                   "formulas assume a_star > 0", "assumption violation: f''(0) must be positive"]
    # Library callers keep Python's format.
    before = warnings.formatwarning
    with pytest.warns(UserWarning):
        main(args + ["--out", str(tmp_path / "y")])
    assert warnings.formatwarning is before


def test_overflowing_atoms_fail_without_a_runtime_warning(tmp_path, capsys, recwarn):
    code = main(["mp-law", "--cov", "two_point:0,1e300,0.5", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "atoms must be finite" in err and "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_approx_norm_builds_the_naive_surrogate_only_when_compared(tmp_path, recwarn):
    # a_star = 0 for this kernel: each surrogate built warns once.
    from qrlab.errors import AssumptionWarning

    assert main(["approx-norm", "--d", "8", "--kernel", "custom_poly:1,1,1", "--seeds", "1",
                 "--out", str(tmp_path / "x")]) == 0
    assert len([w for w in recwarn if issubclass(w.category, AssumptionWarning)]) == 1


def test_a_star_override_skips_the_computed_offset(tmp_path):
    # The computed a_star overflows on this covariance (see above).
    assert main(["lambda-star", "--d", "4", "--kernel", "exp", "--cov", "two_point:0,1800,0.5",
                 "--a-star-override", "1", "--out", str(tmp_path / "x")]) == 0


@pytest.mark.parametrize("args", [
    ["esd", "--kernel", "quartic:1,1,1", "--cov", "uniform:0.5,1.5"],
    ["train-error", "--kernel", "quartic:1,1,1"],
    ["risk", "--kernel", "quartic:1,1,1", "--n-test", "50", "--n-repl", "2"],
], ids=["esd", "train-error", "risk"])
def test_ladder_rungs_equal_single_d_runs(tmp_path, monkeypatch, args):
    monkeypatch.setenv("QRLAB_THREADS", "2")
    seeds = ["--seeds", "2,0"]
    ladder = tmp_path / "ladder"
    assert main(args + seeds + ["--d", "8,10", "--out", str(ladder)]) == 0
    payload = _read(ladder)
    meta = json.loads((ladder / "results.meta.json").read_text())
    assert len(meta["runtime_ms"]) == 4
    for d in (8, 10):
        single = tmp_path / str(d)
        assert main(args + seeds + ["--d", str(d), "--out", str(single)]) == 0
        one = _read(single)
        # Field for field, the rung's records are the single-d run's.
        assert [r for r in payload["records"] if r["d"] == d] == one["records"]
        assert all(r["n"] == d * d // 2 for r in one["records"])
        assert set(payload["summary"]) == {key + "_by_d" for key in one["summary"]}
        for key, value in one["summary"].items():
            assert payload["summary"][key + "_by_d"][str(d)] == value
        if args[0] == "esd":
            # The files describe the first rung.
            for name in ("law.csv", "eigs.csv", "overlay.svg") if d == 8 else ():
                assert (ladder / name).read_bytes() == (single / name).read_bytes()
            single_solvers = json.loads((single / "results.meta.json").read_text())["solvers"]
            start = 0 if d == 8 else len(single_solvers)
            assert meta["solvers"][start:start + len(single_solvers)] == single_solvers
    if args[0] != "esd":
        ridge = [(s["d"], s["seed"]) for s in meta["solvers"] if "seed" in s]
        assert ridge == [(8, 2), (8, 0), (10, 2), (10, 0)]


def test_esd_ladder_pools_each_rungs_top_segment_first(tmp_path, monkeypatch):
    import qrlab.cli as cli
    from qrlab import spectra

    map_seeds = cli._map_seeds
    order = []

    def recording(fn, items):
        order.extend((d, "segment" if isinstance(x, spectra.LawSegment) else x) for d, x in items)
        return map_seeds(fn, items)

    monkeypatch.setattr(cli, "_map_seeds", recording)
    assert main(["esd", "--d", "8,10", "--seeds", "2", "--out", str(tmp_path / "o")]) == 0
    rest = [(d, "segment") for d in (8, 10) for _ in range(spectra.LAW_SEGMENTS - 1)]
    assert order == [(8, "segment"), (10, "segment"), (8, 0), (8, 1), (10, 0), (10, 1), *rest]


@pytest.mark.parametrize("experiment", ["lambda-star", "risk"])
def test_meta_records_each_lambda_star_solve(tmp_path, experiment):
    out = tmp_path / "o"
    args = [experiment, "--kernel", "quartic:1,1,1", "--out", str(out)]
    if experiment == "risk":
        args += ["--d", "8,10", "--seeds", "2", "--n-test", "50", "--n-repl", "2"]
    assert main(args) == 0
    solvers = json.loads((out / "results.meta.json").read_text())["solvers"]
    entries = [s for s in solvers if "lambda_star" in s]
    # One per rung, after risk's per-task entries.
    assert [s["d"] for s in entries] == ([8, 10] if experiment == "risk" else [24])
    assert solvers[len(solvers) - len(entries):] == entries
    payload = _read(out)
    for entry in entries:
        assert set(entry) == {"d", "lambda_star"}
        solve = entry["lambda_star"]
        assert set(solve) == {"value", "residual", "iterations", "newton_kept"}
        assert type(solve["iterations"]) is int and solve["iterations"] >= 1
        assert type(solve["newton_kept"]) is bool
        assert type(solve["residual"]) is float and solve["residual"] >= 0.0
        if experiment == "lambda-star":
            assert solve["value"] == payload["summary"]["lambda_star"]
            assert solve["residual"] == payload["summary"]["residual"]
        else:
            assert solve["value"] == payload["summary"]["lambda_star_by_d"][str(entry["d"])]
    assert "solvers" not in payload


def test_closed_stdout_keeps_the_run(tmp_path):
    import os
    import subprocess
    import sys

    # The reader of stdout is gone before the run prints: the files are
    # written first, and the run still exits 0, without a traceback.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "qrlab.cli", "esd", "--d", "8", "--seeds", "1",
                               "--out", str(tmp_path / "x")], stdout=write_end, stderr=subprocess.PIPE, env=env,
                              text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    assert _read(tmp_path / "x")["summary"]["median_ks"] >= 0
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("args", [
    ["esd", "--d", "8,10", "--seeds", "1"],
    ["train-error", "--d", "8", "--kernel", "quartic:1,1,1", "--seeds", "1"],
    ["lambda-star", "--d", "8"],
], ids=["esd", "train-error", "lambda-star"])
def test_files_are_written_before_stdout(tmp_path, monkeypatch, capsys, args):
    import qrlab.cli as cli

    write = cli._write_outputs
    printed = []

    def checked(*a, **kw):
        printed.append(capsys.readouterr().out)
        return write(*a, **kw)

    monkeypatch.setattr(cli, "_write_outputs", checked)
    assert main(args + ["--out", str(tmp_path / "x")]) == 0
    assert printed == [""]
    out = capsys.readouterr().out.splitlines()
    assert len(out) >= 2 and out[-1] == "wrote %s" % (tmp_path / "x" / "results.json")


@pytest.mark.parametrize("lam", [0.3, 3.0])
def test_deterministic_teacher_train_error_limit_is_noise_only(tmp_path, lam):
    # (c2/d) x' Sigma x concentrates on a constant that the fit absorbs, so
    # the limit has no signal term; at d=40 the finite-d gap is about 0.16.
    args = ["train-error", "--d", "40", "--kernel", "quartic:1,1,1", "--teacher", "deterministic_sigma",
            "--lambda", str(lam), "--seeds", "0,1"]
    assert main(args + ["--sigma-eps", "0.5", "--out", str(tmp_path / "noisy")]) == 0
    assert _read(tmp_path / "noisy")["summary"]["relative_gap"] < 0.2
    assert main(args + ["--sigma-eps", "0", "--out", str(tmp_path / "clean")]) == 0
    assert _read(tmp_path / "clean")["summary"]["predicted"] == 0.0


def test_results_do_not_depend_on_the_blas_thread_variables(tmp_path):
    import os
    import subprocess
    import sys

    # In fresh interpreters, since OpenBLAS reads the variables as it loads.
    # On two CPUs, these are about the smallest runs whose matrix products
    # OpenBLAS splits across its threads when the variables are unset.
    runs = {
        "risk": ["risk", "--d", "16", "--kernel", "quartic:1,1,1", "--seeds", "0,1", "--n-test", "50",
                 "--n-repl", "2"],
        "approx-norm": ["approx-norm", "--d", "24", "--seeds", "0,1"],
    }
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    blas_variables = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")
    unset = {key: value for key, value in os.environ.items() if key not in blas_variables}
    unset["PYTHONPATH"] = src
    for name, args in runs.items():
        written = []
        for i, env in enumerate((unset, {**unset, "OPENBLAS_NUM_THREADS": "1"})):
            out = tmp_path / name / str(i)
            proc = subprocess.run([sys.executable, "-m", "qrlab.cli", *args, "--out", str(out)], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            written.append((out / "results.json").read_bytes())
        assert written[0] == written[1], name


@pytest.mark.parametrize("alpha, code", [("1", 0), ("1e-300", 3)], ids=["success", "numerical-failure"])
def test_a_run_pins_both_blas_libraries_and_restores_them(tmp_path, monkeypatch, alpha, code):
    from qrlab import _lapack, cli

    runner, keys = cli._EXPERIMENT_TABLE["lambda-star"]
    seen = []

    def spy(cfg):
        seen.append((_lapack.lapack_threads(), _lapack.numpy_blas_threads()))
        return runner(cfg)

    monkeypatch.setitem(cli._EXPERIMENT_TABLE, "lambda-star", (spy, keys))
    counts = (_lapack.lapack_threads(), _lapack.numpy_blas_threads())
    # Start from two threads in each library, whatever the environment set.
    for _, set_threads in (_lapack._SCIPY_THREADS, _lapack._NUMPY_THREADS):
        set_threads(2)
    try:
        assert (_lapack.lapack_threads(), _lapack.numpy_blas_threads()) == (2, 2)
        assert main(["lambda-star", "--d", "8", "--alpha", alpha, "--out", str(tmp_path / "o")]) == code
        assert seen == [(1, 1)]
        assert (_lapack.lapack_threads(), _lapack.numpy_blas_threads()) == (2, 2)
    finally:
        for (_, set_threads), threads in zip((_lapack._SCIPY_THREADS, _lapack._NUMPY_THREADS), counts):
            set_threads(threads)


def test_train_error_limit_at_a_huge_ridge_is_the_label_variance(tmp_path):
    # At lambda = 1e14 the fit predicts nothing: the limit is c2^2 * 2 + sigma_eps^2 for identity Sigma.
    assert main(["train-error", "--d", "20", "--kernel", "quartic:1,1,1", "--lambda", "1e14", "--seeds", "0,1",
                 "--out", str(tmp_path / "x")]) == 0
    assert _read(tmp_path / "x")["summary"]["predicted"] == pytest.approx(2.25, rel=1e-9)


def test_runs_never_import_scipy_linalg(tmp_path):
    import os
    import subprocess
    import sys

    # In a fresh interpreter: importing scipy.linalg costs about 0.3 s of
    # start-up, and qrlab reaches scipy's BLAS/LAPACK without it. approx-norm
    # alone imports it, through ARPACK (scipy.sparse.linalg in
    # kernels._lanczos_gap), and is left out here.
    script = """
import os, sys
import qrlab.cli
assert "scipy.linalg" not in sys.modules, "import qrlab.cli"
runs = [
    ["esd", "--d", "8", "--seeds", "1"],
    ["mp-law", "--d", "8"],
    ["train-error", "--d", "8", "--kernel", "quartic:1,1,1", "--seeds", "1"],
    ["lambda-star", "--d", "8"],
    ["risk", "--d", "8", "--kernel", "quartic:1,1,1", "--seeds", "1", "--n-test", "50", "--n-repl", "2"],
]
for i, args in enumerate(runs):
    assert qrlab.cli.main(args + ["--out", os.path.join(sys.argv[1], str(i))]) == 0, args
    assert "scipy.linalg" not in sys.modules, args
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
