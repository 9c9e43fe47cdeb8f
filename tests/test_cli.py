import csv
import json
import math
import re

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
    assert set(env) == {"python", "numpy", "scipy", "cpu_count", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS", "seed_workers"}
    assert (env["numpy"], env["scipy"]) == (numpy.__version__, scipy.__version__)
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

    monkeypatch.setattr(spectra, "esd", counting_esd)
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
    # Single-d experiments reject a ladder instead of using its first rung.
    ("esd", ["--d", "10,20"], None),
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
], ids=["kernel-value", "custom-poly-empty", "cov-arity", "sampler-empty", "seeds-text", "d-text",
        "json-kernel-params", "json-cov-params", "json-unknown-key", "json-unknown-spec-key",
        "esd-d-ladder", "mp-law-d-ladder", "underscore-subcommand", "flag-prefix", "risk-teacher-c0",
        "lambda-star-teacher-c1", "alpha-inf", "sigma-eps-nan", "json-lambda-nan",
        "n-infinite", "n-unaddressable"])
def test_malformed_config_is_configuration_error(tmp_path, capsys, command, args, config):
    if config is not None:
        args = args + _write_config(tmp_path, config)
    code = main([command, "--d", "6"] + args + ["--out", str(tmp_path / "x")])
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
    for threads in ("1", "2"):
        monkeypatch.setenv("QRLAB_THREADS", threads)
        out = tmp_path / ("t" + threads)
        assert main(["esd", "--d", "12", "--kernel", "quartic:1,1,1", "--cov", "uniform:0.5,1.5",
                     "--seeds", "2,0,1", "--out", str(out)]) == 0
        blobs.append([(out / name).read_bytes() for name in ("results.json", "law.csv", "eigs.csv")])
    assert blobs[0] == blobs[1]


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
], ids=["esd-overflow", "approx-norm-overflow", "esd-flat-kernel", "approx-norm-later-rung-overflow",
        "esd-trace-overflow", "approx-norm-trace-overflow", "train-error-trace-overflow", "risk-trace-overflow",
        "train-error-a-star-overflow", "lambda-star-a-star-overflow"])
def test_esd_and_gap_fail_before_the_n_by_n_work(tmp_path, monkeypatch, capsys, recwarn,
                                                 experiment, flags, code, message):
    import qrlab.kernels as kernels
    import qrlab.krr as krr
    import qrlab.spectra as spectra

    def forbidden(*args, **kwargs):
        raise AssertionError("called after a check that should have failed the run")

    monkeypatch.setattr(spectra, "deformed_mp_law", forbidden)
    monkeypatch.setattr(kernels, "kernel_matrix", forbidden)
    monkeypatch.setattr(krr, "kernel_matrix", forbidden)
    assert main([experiment] + flags.split() + ["--out", str(tmp_path / "x")]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_a_star_override_skips_the_computed_offset(tmp_path):
    # The computed a_star overflows on this covariance (see above).
    assert main(["lambda-star", "--d", "4", "--kernel", "exp", "--cov", "two_point:0,1800,0.5",
                 "--a-star-override", "1", "--out", str(tmp_path / "x")]) == 0
