"""Span recorder for the traced benchmark run.

Wrappers are installed from outside the program: every public function a
workload reaches is replaced, in each ``qrlab`` module that holds it (so
names imported by value, such as ``krr.cross_kernel``, are caught too), by a
wrapper that records one span per call. Parents are tracked per thread,
because the CLI fans seeds out to a thread pool. Spans stay in memory until
the run ends.

Each pool thread gets a ``cli`` root span per seed task: the callable that
``cli._map_seeds`` hands to the pool is wrapped too, so glue code between
library calls (such as the rescale in ``cli._scaled_kernel_eigs``) is
charged to ``cli`` instead of to no layer.

Self time is a span's duration minus the part of it its children cover. A
layer's self time is the sum over its spans. :func:`accounting_error`
compares, per thread, the layers' summed self times with a wall time
measured apart from the layer spans: the child's own timing of
``cli.main`` on the main thread, the seed-task spans on pool threads.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass

LAYERS = ("datagen", "kernels", "spectra", "krr", "cli")
SEED_TASK = "cli.seed_task"

# spectral_norm_gap solves densely up to this n and iterates beyond it
# (its default ``dense_cutoff``); the benchmark splits calls at this n.
DENSE_CUTOFF = 2048


def _entries(args, kwargs, out):
    return {"entries": out.size, "bytes": out.nbytes}


def _bytes(args, kwargs, out):
    return {"bytes": out.nbytes}


def _gap_size(args, kwargs, out):
    k_mat = args[0] if args else kwargs["k_mat"]
    return {"n": len(k_mat)}


def _stieltjes(args, kwargs, out):
    return {"iterations": out.iterations, "residual": out.residual}


# (metric prefix, module, attribute path, measure). The prefix is
# ``<layer>.<function>``; the cli layer names the module it reaches.
TARGETS = (
    ("cli.main", "qrlab.cli", "main", None),
    ("cli.plots.svg_histogram_overlay", "qrlab.plots", "svg_histogram_overlay", None),
    ("datagen.sample_dataset", "qrlab.datagen", "sample_dataset", None),
    ("datagen.MomentMatchedSampler.sample", "qrlab.datagen", "MomentMatchedSampler.sample", _entries),
    ("kernels.kernel_matrix", "qrlab.kernels", "kernel_matrix", _entries),
    ("kernels.cross_kernel", "qrlab.kernels", "cross_kernel", _entries),
    ("kernels.quad_kernel_matrix", "qrlab.kernels", "quad_kernel_matrix", _bytes),
    ("kernels.spectral_norm_gap", "qrlab.kernels", "spectral_norm_gap", _gap_size),
    ("kernels.quad_coeffs", "qrlab.kernels", "quad_coeffs", None),
    ("spectra.deformed_mp_law", "qrlab.spectra", "deformed_mp_law", None),
    ("spectra.companion_stieltjes", "qrlab.spectra", "companion_stieltjes", _stieltjes),
    ("spectra.esd", "qrlab.spectra", "esd", None),
    ("spectra.ks_distance", "qrlab.spectra", "ks_distance", None),
    ("spectra.law_integrals", "qrlab.spectra", "law_integrals", None),
    ("spectra.law_to_csv", "qrlab.spectra", "law_to_csv", None),
    ("krr.empirical_risk", "qrlab.krr", "empirical_risk", None),
    ("krr.RidgeFactor", "qrlab.krr", "RidgeFactor.__init__", None),
    ("krr.RidgeFactor.solve", "qrlab.krr", "RidgeFactor.solve", None),
    ("krr.make_labels", "qrlab.krr", "make_labels", None),
    ("krr.TeacherModel.predict", "qrlab.krr", "TeacherModel.predict", None),
    ("krr.asymptotic_risk", "qrlab.krr", "asymptotic_risk", None),
    ("krr.lambda_star_solve", "qrlab.krr", "lambda_star_solve", None),
)


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    ok: bool
    extra: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Holds the spans of one run and the patches that produce them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, measure=None):
        """Return ``fn`` wrapped so that each call records a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            ok, out = False, None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = measure(args, kwargs, out) if ok and measure else None
                self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), ok, extra))

        return wrapper

    def install(self) -> None:
        """Patch every target in every loaded ``qrlab`` module that holds it."""
        modules = [m for k, m in list(sys.modules.items()) if k == "qrlab" or k.startswith("qrlab.")]
        for name, module, path, measure in TARGETS:
            owner = sys.modules[module]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr] if cls_path else getattr(owner, attr)
            wrapped = self.wrap(name, original, measure)
            if cls_path:
                self._patch(owner, attr, original, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)
        cli = sys.modules["qrlab.cli"]
        map_seeds = cli._map_seeds

        def traced_map_seeds(fn, seeds):
            return map_seeds(self.wrap(SEED_TASK, fn), seeds)

        self._patch(cli, "_map_seeds", map_seeds, traced_map_seeds)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every name :meth:`install` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _merge(intervals):
    out: list[list[float]] = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def _length(merged) -> float:
    return sum(b - a for a, b in merged)


def _overlap(merged_a, merged_b) -> float:
    total, j = 0.0, 0
    for a, b in merged_a:
        while j < len(merged_b) and merged_b[j][1] <= a:
            j += 1
        k = j
        while k < len(merged_b) and merged_b[k][0] < b:
            total += min(b, merged_b[k][1]) - max(a, merged_b[k][0])
            k += 1
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _length(_merge(children.get(s.sid, ()))) for s in spans}


def thread_walls(spans, main_wall: float) -> dict[int, float]:
    """Thread id -> wall time measured apart from the layer spans.

    The thread of the ``cli.main`` span gets ``main_wall``, the child's own
    timing of ``cli.main``; every other thread the time its seed-task spans
    cover. A thread whose spans lie outside both gets 0.
    """
    mains = {s.thread for s in spans if s.name == "cli.main" and s.parent is None}
    tasks: dict[int, list] = {}
    for s in spans:
        tasks.setdefault(s.thread, [])
        if s.name == SEED_TASK and s.parent is None:
            tasks[s.thread].append((s.start, s.end))
    return {tid: main_wall if tid in mains else _length(_merge(iv)) for tid, iv in tasks.items()}


def layer_self_times(spans) -> dict[int, dict[str, float]]:
    """Thread id -> layer -> summed self time of that thread's spans."""
    own = self_times(spans)
    out: dict[int, dict[str, float]] = {}
    for s in spans:
        per = out.setdefault(s.thread, dict.fromkeys(LAYERS, 0.0))
        per[s.layer] += own[s.sid]
    return out


def main_thread_wait(spans) -> float:
    """Self time of the root ``cli.main`` span spent while other threads ran spans."""
    mains = [s for s in spans if s.name == "cli.main" and s.parent is None]
    if not mains:
        return 0.0
    main = mains[0]
    kids = _merge((s.start, s.end) for s in spans if s.parent == main.sid)
    others = _merge((s.start, s.end) for s in spans if s.thread != main.thread and s.parent is None)
    # The children lie inside the span, so its own time is the span minus them.
    return _overlap([[main.start, main.end]], others) - _overlap(kids, others)


def per_layer_metrics(spans) -> dict[str, float]:
    """Busy time, call counts and solver counters per target, plus layer self times."""
    metrics: dict[str, float] = {}
    for name, *_ in TARGETS:
        if name == "cli.main":
            continue
        mine = [s for s in spans if s.name == name]
        # Thread-seconds: summed over threads; a nested call counts once.
        per_thread: dict[int, list] = {}
        for s in mine:
            per_thread.setdefault(s.thread, []).append((s.start, s.end))
        metrics[name + ".busy_s"] = sum(_length(_merge(iv)) for iv in per_thread.values())
        metrics[name + ".calls"] = len(mine)
        if name in ("kernels.kernel_matrix", "kernels.cross_kernel", "datagen.MomentMatchedSampler.sample"):
            metrics[name + ".entries"] = sum(s.extra["entries"] for s in mine if s.extra)
    gaps = [s.extra["n"] for s in spans if s.name == "kernels.spectral_norm_gap" and s.extra]
    metrics["kernels.spectral_norm_gap.dense_calls"] = sum(1 for n in gaps if n <= DENSE_CUTOFF)
    metrics["kernels.spectral_norm_gap.power_calls"] = sum(1 for n in gaps if n > DENSE_CUTOFF)
    metrics["kernels.bytes_out"] = sum(
        s.extra["bytes"] for s in spans if s.layer == "kernels" and s.extra and "bytes" in s.extra
    )
    solves = [s for s in spans if s.name == "spectra.companion_stieltjes"]
    done = [s.extra for s in solves if s.ok]
    prefix = "spectra.companion_stieltjes"
    metrics[prefix + ".iterations"] = sum(e["iterations"] for e in done)
    metrics[prefix + ".iterations_max"] = max((e["iterations"] for e in done), default=0)
    metrics[prefix + ".residual_max"] = max((e["residual"] for e in done), default=0.0)
    metrics[prefix + ".failed"] = len(solves) - len(done)
    metrics[prefix + ".ok_ratio"] = len(done) / len(solves) if solves else 1.0
    own = self_times(spans)
    for layer in LAYERS:
        metrics[layer + ".self_s"] = sum(own[s.sid] for s in spans if s.layer == layer)
    metrics["cli.pool_wait_s"] = main_thread_wait(spans)
    return metrics


def accounting_error(spans, main_wall: float) -> float:
    """Largest per-thread gap between summed layer self time and :func:`thread_walls`."""
    walls = thread_walls(spans, main_wall)
    layers = layer_self_times(spans)
    return max((abs(sum(layers[t].values()) - walls[t]) for t in walls), default=main_wall)
