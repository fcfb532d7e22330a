"""Outside-in span recorder for the lagdeconv modules.

`Tracer.install()` replaces every public function of the package's modules
with a timing wrapper in every module namespace that binds it, which is
where callers look it up: `estimator.dwt2_array`, `simulate.deconvolve`,
both `toeplitz.solve_lower` and `estimator.solve_lower`, and so on.
`uninstall()` puts the originals back.  Use it as a context manager so the
wrappers never leak into the next workload.

Each wrapped call made inside `Tracer.call` records a span: name, start,
end, parent span, the benchmark call it belongs to and the fit
(`estimator.deconvolve` call) it runs inside.  Calls made outside it pass
straight through, so untraced and traced calls can alternate while the
wrappers stay installed.  Spans stay in memory; `write()` dumps them at the end.  A
few wrappers also record what the call worked on (array bytes, the size of
an inverse-norm table, the diagnostics of a fit).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from pathlib import Path

import numpy as np

PACKAGE = "lagdeconv"
MODULES = ("estimator", "laguerre", "toeplitz", "wavelet2d", "simulate", "io")
CALL_SPAN = "perfbench.call"

# Per-layer metrics and their units, in report order.  `X.self_ms` is the
# self time of function X per fit, `X.calls` its calls per fit.
LAYER_METRICS = {
    "wavelet2d.dwt2_array.self_ms": "ms",
    "wavelet2d.idwt2_array.self_ms": "ms",
    "wavelet2d.estimate_sigma.self_ms": "ms",
    "wavelet2d.estimate_sigma.calls": "count",
    "wavelet2d.bytes_computed": "B",
    "toeplitz.inverse_norms.self_ms": "ms",
    "toeplitz.inverse_norms.calls": "count",
    "toeplitz.inverse_norms.m_sum": "count",
    "toeplitz.solve_lower.self_ms": "ms",
    "toeplitz.solve_lower.calls": "count",
    "toeplitz.select_M.self_ms": "ms",
    "laguerre.tabulate_basis.self_ms": "ms",
    "laguerre.tabulate_basis.calls": "count",
    "laguerre.fit_coeffs.self_ms": "ms",
    "laguerre.bases_per_fit": "count",
    "estimator.deconvolve.self_ms": "ms",
    "estimator.analyze.self_ms": "ms",
    "estimator.thresholds.self_ms": "ms",
    "estimator.hard_threshold.self_ms": "ms",
    "estimator.keep_ratio": "1",
    "estimator.M_mean": "count",
    "simulate.forward_convolve.self_ms": "ms",
    "simulate.add_noise.self_ms": "ms",
    "simulate.relative_error.self_ms": "ms",
    "io.read_cube.self_ms": "ms",
    "io.write_cube.self_ms": "ms",
    "io.bytes": "B",
    "trace.overhead_frac": "1",
}


def _nbytes(x) -> int:
    return int(getattr(getattr(x, "data", x), "nbytes", 0))


def _wavelet_bytes(tr, args, kwargs, out):
    # Computed, not measured: the array read plus the array written.
    tr.count("wavelet2d.bytes_computed", _nbytes(args[0]) + _nbytes(out))


def _sigma_bytes(tr, args, kwargs, out):
    tr.count("wavelet2d.bytes_computed", 2 * _nbytes(args[0]))


def _inverse_norms(tr, args, kwargs, out):
    tr.count("toeplitz.inverse_norms.m_sum", out.max_m)


def _tabulate(tr, args, kwargs, out):
    tr.count("laguerre.bases_per_fit", out.M)


def _read_cube(tr, args, kwargs, out):
    tr.count("io.bytes", _nbytes(out))


def _write_cube(tr, args, kwargs, out):
    tr.count("io.bytes", _nbytes(args[1] if len(args) > 1 else kwargs["cube"]))


def _deconvolve(tr, args, kwargs, out):
    diag = out[1]
    tr.count("estimator.M_sum", diag.M)
    if diag.keep_counts is not None:
        tr.count("estimator.kept", int(np.sum(diag.keep_counts)))
        tr.count("estimator.total", int(np.sum(diag.total_counts)))


PROBES = {
    "wavelet2d.dwt2_array": _wavelet_bytes,
    "wavelet2d.idwt2_array": _wavelet_bytes,
    "wavelet2d.estimate_sigma": _sigma_bytes,
    "toeplitz.inverse_norms": _inverse_norms,
    "laguerre.tabulate_basis": _tabulate,
    "io.read_cube": _read_cube,
    "io.write_cube": _write_cube,
    "estimator.deconvolve": _deconvolve,
}
FIT_SPAN = "estimator.deconvolve"


def public_functions() -> dict:
    """{"module.name": function} for every public function a module defines."""
    out = {}
    for short in MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out[f"{short}.{name}"] = obj
    return out


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.call_id: list[int] = []
        self.fit_id: list[int] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._call = -1
        self._fit = -1
        self._fits = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call_id.append(self._call)
        self.fit_id.append(self._fit)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def call(self, fn, *args):
        """Run one benchmark call under a root span; returns fn's result."""
        self._call += 1
        idx = self._open(CALL_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        is_fit = name == FIT_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:  # outside a benchmark call, e.g. checking outputs
                return fn(*args, **kwargs)
            outer_fit = self._fit
            if is_fit:
                self._fit = self._fits
                self._fits += 1
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
                self._fit = outer_fit
            if probe is not None:
                probe(self, args, kwargs, out)
            return out

        return wrapper

    # -- installing ------------------------------------------------------
    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        targets = public_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets.items()}
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- derived numbers -------------------------------------------------
    def self_ns(self) -> np.ndarray:
        """Each span's duration minus the time its child spans cover."""
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def fits(self) -> int:
        return self._fits

    def layer_metrics(self) -> dict[str, float]:
        """Per-fit self times, call counts and counters, by metric name."""
        fits = max(self._fits, 1)
        names = np.asarray(self.names)
        self_ns = self.self_ns()
        out = {}
        for metric in LAYER_METRICS:
            if metric.endswith(".self_ms"):
                span = metric[: -len(".self_ms")]
                out[metric] = float(self_ns[names == span].sum()) / 1e6 / fits
            elif metric.endswith(".calls"):
                span = metric[: -len(".calls")]
                out[metric] = float(np.count_nonzero(names == span)) / fits
        for key in ("wavelet2d.bytes_computed", "toeplitz.inverse_norms.m_sum",
                    "laguerre.bases_per_fit", "io.bytes"):
            out[key] = self.counters.get(key, 0) / fits
        total = self.counters.get("estimator.total", 0)
        # With thresholding off every coefficient is kept.
        out["estimator.keep_ratio"] = (
            self.counters.get("estimator.kept", 0) / total if total else 1.0
        )
        out["estimator.M_mean"] = self.counters.get("estimator.M_sum", 0) / fits
        return out

    def write(self, path: Path) -> None:
        """Spans as CSV: id, parent, call, fit, name, start_ns, end_ns, self_ns."""
        self_ns = self.self_ns()
        with open(path, "w") as fh:
            fh.write("id,parent,call,fit,name,start_ns,end_ns,self_ns\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{self.parent[i]},{self.call_id[i]},{self.fit_id[i]},{name},"
                    f"{self.start[i]},{self.end[i]},{self_ns[i]}\n"
                )
