"""Spans around the public functions of happer's modules and the numpy.linalg kernels.

``Tracer.install`` replaces every binding of each traced function, in
every ``happer`` namespace that holds it (so ``happer.cli``'s imports and
``geometry``'s import of ``raw_degenerate_vectors`` are covered), and in
``numpy.linalg``.  Each call records one span: name, start, end, parent
span and task id, plus work counts derived from its arguments.  Spans
stay in memory; ``write`` saves them when the run ends.  Nothing is
installed unless ``install`` is called.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = ("cli", "spectrum", "model", "geometry", "degenerate", "dynamics")
KERNELS = ("eigh", "eigvalsh", "svd", "det")

# Per-layer metrics of a traced run: layer -> traced function -> reported kinds.
_FN_METRICS = {
    "geometry": {"chern_spectrum_link_variable": ("calls", "s"),
                 "chern_number_link_variable": ("calls", "s"),
                 "smooth_gauge_states": ("calls", "s"), "loop_phase": ("calls", "s"),
                 "connection_discrete": ("s",), "curvature_discrete": ("s",)},
    "model": {"hamiltonian_batch": ("calls", "matrices", "s", "repeat_frac"),
              "build_hamiltonian": ("calls", "s", "repeat_frac")},
    "degenerate": {"raw_degenerate_vectors": ("calls", "s")},
    "dynamics": {"propagate": ("calls", "s"), "landau_zener_scan": ("calls", "s"),
                 "geometric_phase_diagnostics": ("calls", "s")},
    "spectrum": {"track_levels": ("calls", "s"), "find_degeneracies": ("calls", "s"),
                 "level_positions": ("calls", "s"), "eigensystem_with_j": ("calls", "s")},
    "cli": {"write_table": ("s",)},
    "linalg": {"eigh": ("calls", "matrices", "s", "flops", "bytes", "gflops_per_s"),
               "eigvalsh": ("calls", "s"), "svd": ("matrices", "s"), "det": ("matrices", "s")},
}
_EXTRA = {"geometry": ("geometry.eigh_s",), "spectrum": ("spectrum.eigh_s",),
          "dynamics": ("dynamics.steps", "dynamics.step_us", "dynamics.eigh_calls")}
_UNITS = {"calls": "count", "matrices": "count", "steps": "count", "eigh_calls": "count",
          "s": "s", "self_s": "s", "eigh_s": "s", "repeat_frac": "1", "overhead_frac": "1",
          "flops": "flop", "bytes": "B", "gflops_per_s": "GFLOP/s", "step_us": "us"}


def metric_names() -> list[tuple[str, str, str]]:
    out = []
    for layer, fns in _FN_METRICS.items():
        if layer != "linalg":
            out.append(f"{layer}.self_s")
        out.extend(_EXTRA.get(layer, ()))
        out.extend(f"{layer}.{fn}.{kind}" for fn, kinds in fns.items() for kind in kinds)
    out.append("trace.overhead_frac")
    return [(n, _UNITS[n.rsplit(".", 1)[1]],
             "higher" if n.endswith("gflops_per_s") else "lower") for n in out]


COUNT_METRICS = tuple(n for n, unit, _ in metric_names() if unit == "count") + (
    "model.hamiltonian_batch.repeat_frac", "model.build_hamiltonian.repeat_frac")


# ---------------------------------------------------------------------------
# work counts taken from a call's arguments

def _matrices(a) -> tuple[int, int, bool]:
    a = np.asarray(a)
    return math.prod(a.shape[:-2]), a.shape[-1], a.dtype.kind == "c"


def _eigh_work(args, kwargs) -> dict:
    count, n, cplx = _matrices(args[0])
    size = 16 if cplx else 8
    # LAPACK Hermitian eigensolver with vectors: ~9 n^3 real flops, x4 for complex.
    return {"matrices": count, "flops": count * 9 * n ** 3 * (4 if cplx else 1),
            "bytes": count * (2 * n * n * size + 8 * n)}


def _count_work(args, kwargs) -> dict:
    return {"matrices": _matrices(args[0])[0]}


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments
    return arguments


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.task = -1
        self.spans: list[tuple] = []
        self._stack = [-1]
        self._depth: dict[str, int] = defaultdict(int)
        self._seen: dict[tuple, set] = {}
        self._patched: list[tuple] = []
        self._wrappers: dict[int, object] = {}
        for m in MODULES:
            mod = importlib.import_module(f"happer.{m}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    self._wrappers[id(obj)] = self._wrap(f"{m}.{name}", obj)
        for name in KERNELS:
            fn = getattr(np.linalg, name)
            self._wrappers[id(fn)] = self._wrap(f"linalg.{name}", fn)

    def set_task(self, task: int) -> None:
        self.task = task
        self._seen = {}

    # -- repeat detection: an input is (params, theta, phi), per task ----------
    def _repeats(self, p, points: list[tuple[float, float]]) -> int:
        seen = self._seen.setdefault((p.nuclear_two_l, p.x, p.y, tuple(p.axis)), set())
        before = len(seen)
        seen.update(points)
        return len(points) - (len(seen) - before)

    def _work(self, name: str, fn):
        if name == "linalg.eigh":
            return _eigh_work
        if name.startswith("linalg."):
            return _count_work
        if name == "model.hamiltonian_batch":
            def batch(args, kwargs):
                p, theta, phi = args
                th, ph = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                             np.asarray(phi, dtype=float))
                points = list(zip(th.ravel().tolist(), ph.ravel().tolist()))
                return {"matrices": len(points), "repeats": self._repeats(p, points)}
            return batch
        if name == "model.build_hamiltonian":
            def single(args, kwargs):
                p = args[0] if args else kwargs["p"]
                return {"matrices": 1,
                        "repeats": self._repeats(p, [(p.field.theta, p.field.phi)])}
            return single
        if name == "dynamics.propagate":
            arguments = _bound(fn)

            def steps(args, kwargs):
                a = arguments(args, kwargs)
                return {"steps": a["steps_per_period"] * a["protocol"].n_periods}
            return steps
        if name == "dynamics.landau_zener_scan":
            arguments = _bound(fn)

            def ramp_steps(args, kwargs):
                a = arguments(args, kwargs)
                span = abs(a["x_end"] - a["x_start"])
                return {"steps": sum(max(a["min_steps"], math.ceil(span / r / a["dt_max"]))
                                     for r in a["rates"])}
            return ramp_steps
        return None

    def _wrap(self, name: str, fn):
        work = self._work(name, fn)
        spans, stack, depth = self.spans, self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            counts = work(args, kwargs) if work else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            outer = depth[name] == 0
            depth[name] += 1
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[name] -= 1
                spans[idx] = (name, self.task, parent, t0, t1, outer, counts,
                              (t0 - t_in) + (perf_counter() - t1))
        return wrapper

    def install(self) -> None:
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "happer" or n.startswith("happer.")] + [np.linalg]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    setattr(ns, attr, wrapper)
                    self._patched.append((ns, attr, value))

    def uninstall(self) -> None:
        while self._patched:
            ns, attr, value = self._patched.pop()
            setattr(ns, attr, value)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\ttask\tparent\tstart\tend\n")
            for i, (name, task, parent, t0, t1, *_rest) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{task}\t{parent}\t{t0:.9f}\t{t1:.9f}\n")


def layer_metrics(spans: list[tuple], first: int = 0) -> dict[str, float]:
    """Per-layer metrics of the spans from index ``first`` on (one pass).

    A span's self time is its duration minus its children's durations and
    the tracer's own bookkeeping around them.
    """
    covered = defaultdict(float)
    for name, task, parent, t0, t1, outer, counts, ovh in spans[first:]:
        if parent >= 0:
            covered[parent] += (t1 - t0) + ovh
    v: dict[str, float] = defaultdict(float)
    for i, (name, task, parent, t0, t1, outer, counts, ovh) in enumerate(spans[first:], first):
        layer = name.split(".", 1)[0]
        dur = t1 - t0
        v[f"{layer}.self_s"] += dur - covered[i]
        v[f"{name}.calls"] += 1
        if outer:
            v[f"{name}.s"] += dur
        for key, n in (counts or {}).items():
            v[f"{name}.{key}"] += n
        if layer == "dynamics":
            v["dynamics.steps"] += (counts or {}).get("steps", 0)
        if name == "linalg.eigh" and parent >= 0:
            caller = spans[parent][0].split(".", 1)[0]
            v[f"{caller}.eigh_s"] += dur
            if caller == "dynamics":
                v["dynamics.eigh_calls"] += 1
    for fn in ("model.hamiltonian_batch", "model.build_hamiltonian"):
        built = v[f"{fn}.matrices"]
        v[f"{fn}.repeat_frac"] = v[f"{fn}.repeats"] / built if built else 0.0
    steps = v["dynamics.steps"]
    ramp_s = v["dynamics.propagate.s"] + v["dynamics.landau_zener_scan.s"]
    v["dynamics.step_us"] = 1e6 * ramp_s / steps if steps else 0.0
    eigh_s = v["linalg.eigh.s"]
    v["linalg.eigh.gflops_per_s"] = v["linalg.eigh.flops"] / eigh_s / 1e9 if eigh_s else 0.0
    return dict(v)
