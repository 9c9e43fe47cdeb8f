"""Tests of the benchmark's own code: python3 -m pytest perfbench/tests"""

import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402

A, B = 1, 2


def _synthetic():
    # Thread A: cli.main [0,10] > deformed_mp_law [1,4] > companion_stieltjes [2,3],
    #           cli.main > kernel_matrix [5,6].
    # Thread B (a seed worker): seed task [1.5,7.5] > sample_dataset [2,3], kernel_matrix [3.5,7];
    #           seed task [7.5,9.5] > RidgeFactor [8,9].
    return [
        Span(2, "spectra.companion_stieltjes", 2.0, 3.0, 1, A, True, {"iterations": 7, "residual": 1e-13}),
        Span(1, "spectra.deformed_mp_law", 1.0, 4.0, 0, A, True),
        Span(3, "kernels.kernel_matrix", 5.0, 6.0, 0, A, True, {"entries": 4, "bytes": 32}),
        Span(0, "cli.main", 0.0, 10.0, None, A, True),
        Span(4, "datagen.sample_dataset", 2.0, 3.0, 7, B, True),
        Span(5, "kernels.kernel_matrix", 3.5, 7.0, 7, B, True, {"entries": 9, "bytes": 72}),
        Span(7, spans.SEED_TASK, 1.5, 7.5, None, B, True),
        Span(6, "krr.RidgeFactor", 8.0, 9.0, 8, B, True),
        Span(8, spans.SEED_TASK, 7.5, 9.5, None, B, True),
    ]


def test_self_time_arithmetic_on_nested_two_thread_spans():
    s = _synthetic()
    assert spans.self_times(s) == pytest.approx(
        {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 3.5, 6: 1.0, 7: 1.5, 8: 1.0})
    assert spans.thread_walls(s, 10.0) == pytest.approx({A: 10.0, B: 8.0})
    layers = spans.layer_self_times(s)
    assert layers[A] == pytest.approx({"datagen": 0.0, "kernels": 1.0, "spectra": 3.0, "krr": 0.0, "cli": 6.0})
    assert layers[B] == pytest.approx({"datagen": 1.0, "kernels": 3.5, "spectra": 0.0, "krr": 1.0, "cli": 2.5})
    assert spans.accounting_error(s, 10.0) == pytest.approx(0.0, abs=1e-12)
    # cli.main's own time is [0,1], [4,5] and [6,10]; thread B runs seed tasks during [1.5,9.5].
    assert spans.main_thread_wait(s) == pytest.approx(4.5)

    m = spans.per_layer_metrics(s)
    assert m["kernels.kernel_matrix.busy_s"] == pytest.approx(4.5)
    assert m["kernels.kernel_matrix.calls"] == 2
    assert m["kernels.kernel_matrix.entries"] == 13
    assert m["kernels.bytes_out"] == 104
    assert m["spectra.companion_stieltjes.iterations"] == 7
    assert m["spectra.companion_stieltjes.ok_ratio"] == 1.0
    assert m["cli.self_s"] == pytest.approx(8.5)
    assert m["cli.pool_wait_s"] == pytest.approx(4.5)
    assert sum(m[layer + ".self_s"] for layer in spans.LAYERS) == pytest.approx(18.0)


def test_accounting_check_fails_on_unattributed_time():
    s = _synthetic()
    # The child timed cli.main at 10.25 s, but its span covers 10 s.
    assert spans.accounting_error(s, 10.25) == pytest.approx(0.25)
    # Pool-thread spans outside any seed task: the thread's wall is 0.
    no_tasks = [replace(x, parent=None) if x.parent in (7, 8) else x for x in s if x.name != spans.SEED_TASK]
    assert spans.accounting_error(no_tasks, 10.0) == pytest.approx(5.5)
    # A main-thread span outside cli.main.
    stray = s + [Span(9, "spectra.esd", 10.5, 11.0, None, A, True)]
    assert spans.accounting_error(stray, 10.0) == pytest.approx(0.5)
    assert spans.accounting_error([], 3.0) == 3.0


def _qrlab_namespaces():
    import qrlab.cli  # noqa: F401  (loads every module the workloads reach)

    mods = {k: m for k, m in sys.modules.items() if k == "qrlab" or k.startswith("qrlab.")}
    out = {k: dict(vars(m)) for k, m in mods.items()}
    for cls in (mods["qrlab.datagen"].MomentMatchedSampler, mods["qrlab.krr"].RidgeFactor,
                mods["qrlab.krr"].TeacherModel):
        out[cls.__qualname__] = dict(vars(cls))
    return out


def test_wrappers_patch_by_value_imports_and_restore_every_name():
    import qrlab.kernels
    import qrlab.krr
    import qrlab.spectra
    from qrlab.spectra import DiscreteLaw

    before = _qrlab_namespaces()
    original = qrlab.kernels.cross_kernel
    map_seeds = qrlab.cli._map_seeds
    rec = spans.Recorder()
    rec.install()
    try:
        assert qrlab.kernels.cross_kernel is not original
        assert qrlab.cli._map_seeds is not map_seeds
        assert qrlab.krr.cross_kernel is qrlab.kernels.cross_kernel
        assert qrlab.krr.companion_stieltjes is qrlab.spectra.companion_stieltjes
        qrlab.spectra.law_integrals(1.0, DiscreteLaw.delta(1.0), 0.5)
        assert qrlab.cli._map_seeds(lambda seed: seed + 1, [3, 4])[0] == [4, 5]
    finally:
        rec.restore()
    after = _qrlab_namespaces()
    assert before.keys() == after.keys()
    for ns, names in before.items():
        assert names.keys() == after[ns].keys(), ns
        changed = [k for k, v in names.items() if after[ns][k] is not v]
        assert not changed, (ns, changed)
    tasks = [s for s in rec.spans if s.name == spans.SEED_TASK]
    assert len(tasks) == 2 and all(s.parent is None for s in tasks)
    outer, inner = sorted((s for s in rec.spans if s.name != spans.SEED_TASK), key=lambda s: s.start)
    assert (outer.name, inner.name) == ("spectra.law_integrals", "spectra.companion_stieltjes")
    assert inner.parent == outer.sid and outer.parent is None


def test_traced_run_writes_the_same_results_bytes(tmp_path):
    args = ["esd", "--d", "16", "--alpha", "1", "--kernel", "quartic:1,1,0.5", "--cov", "uniform:0.5,1.5",
            "--seeds", "0,1"]
    deadline = time.monotonic() + 120
    plain = run._spawn(tmp_path, "0", args, deadline)
    traced = run._spawn(tmp_path, "1", args, deadline)
    assert not plain["errors"] and not traced["errors"]
    assert "spans" in traced and "spans" not in plain
    blob = (plain["dir"] / "out" / "results.json").read_bytes()
    assert (traced["dir"] / "out" / "results.json").read_bytes() == blob
    recorded = [Span(*row) for row in traced["spans"]]
    assert spans.accounting_error(recorded, traced["wall_s"]) < run.ACCOUNTING_TOL_S
    names = {s.name for s in recorded}
    assert {"cli.main", spans.SEED_TASK, "spectra.deformed_mp_law", "spectra.esd", "kernels.kernel_matrix"} <= names
