"""One benchmark sample: a fresh interpreter running one qrlab experiment.

    python3 perfbench/child.py <root> <report.json> <trace 0|1> <qrlab args...>
    python3 perfbench/child.py <root> <report.json> env

Times the imports every CLI invocation pays (``setup_s``), then calls
``qrlab.cli.main`` in-process and times it (``wall_s``). With trace 1 the
span wrappers are installed first and the spans are written to the report.
``env`` only imports and records library versions. The exit code is the
CLI's.
"""

import json
import sys
import time

_T0 = time.perf_counter()


def _environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    def blas(cfg):
        dep = cfg["Build Dependencies"]["blas"]
        return "%s %s" % (dep.get("name"), dep.get("version"))

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in (
            "QRLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv) -> int:
    root, report_path, mode, cli_args = argv[0], argv[1], argv[2], argv[3:]
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import qrlab.cli

    setup_s = time.perf_counter() - _T0
    src = root.rstrip("/") + "/src/"
    if not qrlab.cli.__file__.startswith(src):
        print("qrlab imported from %s, not from %s" % (qrlab.cli.__file__, src), file=sys.stderr)
        return 4
    report = {"setup_s": setup_s}
    if mode == "env":
        report["env"] = _environment()
        rc = 0
    else:
        recorder = None
        if mode == "1":
            sys.path.insert(0, root + "/perfbench")
            from spans import Recorder

            recorder = Recorder()
            recorder.install()
        start = time.perf_counter()
        rc = qrlab.cli.main(cli_args)
        report["wall_s"] = time.perf_counter() - start
        if recorder is not None:
            recorder.restore()
            report["spans"] = [
                [s.sid, s.name, s.start, s.end, s.parent, s.thread, s.ok, s.extra] for s in recorder.spans
            ]
    report["exit_code"] = rc
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
