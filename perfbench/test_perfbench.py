"""Tests of the benchmark's own code: names, tracer, loop accounting."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lagdeconv import estimator, simulate  # noqa: E402
from lagdeconv.estimator import Cube, EstimatorConfig  # noqa: E402
from lagdeconv.laguerre import TimeGrid  # noqa: E402
from lagdeconv.wavelet2d import WaveletSpec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"


def test_metric_names_are_plain():
    names = list(run.END_TO_END) + list(spans.LAYER_METRICS) + list(workloads.WORKLOADS)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    gated = {k: u for k, u in run.END_TO_END.items() if k not in run.REPORT_ONLY}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == gated
    layers = {k: u for k, u in spans.LAYER_METRICS.items() if k not in run.LAYER_REPORT_ONLY}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _namespaces():
    import lagdeconv

    mods = [lagdeconv] + [sys.modules[f"lagdeconv.{m}"] for m in spans.MODULES]
    return {mod.__name__: dict(vars(mod)) for mod in mods}


def test_wrappers_are_installed_where_callers_look_and_restored():
    before = _namespaces()
    tracer = spans.Tracer()
    with tracer:
        assert estimator.dwt2_array is not before["lagdeconv.estimator"]["dwt2_array"]
        assert estimator.solve_lower is not before["lagdeconv.estimator"]["solve_lower"]
        assert simulate.deconvolve is not before["lagdeconv.simulate"]["deconvolve"]
        with pytest.raises(RuntimeError):
            tracer.install()
    after = _namespaces()
    for mod, names in before.items():
        for attr, value in names.items():
            assert after[mod][attr] is value, f"{mod}.{attr} not restored"


def _small_fit():
    grid = TimeGrid(n=16, T=5.0)
    rng = np.random.default_rng(0)
    Y = Cube(grid=grid, data=1.0 + 0.01 * rng.standard_normal((16, 8, 8)))
    g = np.exp(-grid.points / 2.0)
    return estimator.deconvolve(Y, g, WaveletSpec(), EstimatorConfig(M="auto", m_cap=8), g_zero=1.0)


def test_self_times_of_a_fit_sum_to_its_traced_wall_time():
    with spans.Tracer() as tracer:
        traced = tracer.call(_small_fit)
    plain = _small_fit()
    assert np.array_equal(traced[0].data, plain[0].data)
    names = np.asarray(tracer.names)
    root = np.flatnonzero(names == spans.CALL_SPAN)
    assert root.size == 1
    wall = tracer.end[root[0]] - tracer.start[root[0]]
    self_ns = tracer.self_ns()
    assert np.all(self_ns >= 0)
    assert abs(int(self_ns.sum()) - wall) <= 1e-9 * wall
    assert tracer.fits() == 1
    m = tracer.layer_metrics()
    assert m["toeplitz.select_M.self_ms"] > 0
    assert m["toeplitz.solve_lower.calls"] >= 2  # the fit's solve plus the norm table's
    assert m["wavelet2d.estimate_sigma.calls"] == 16
    assert m["estimator.M_mean"] == traced[1].M


class _Flaky:
    """Three items: item 1 raises, item 2 returns a non-finite output."""

    name = "flaky"
    reference = ("python_loop",)
    pool = 3
    fits_per_call = 1

    def call(self, item):
        if item == 1:
            raise FloatingPointError("boom")
        return np.full(4, np.nan if item == 2 else 1.0)

    def check(self, item, out):
        bad = not np.all(np.isfinite(out))
        return workloads.Outcome(fits=1, failed=int(bad), digest=workloads.digest(out),
                                 rel_errors=[0.5], problems=["not finite"] if bad else [])


def test_failed_fits_count_in_failed_fraction():
    res, traced = run.timed_loop(_Flaky(), seconds=0, min_steps=6)
    assert traced is None
    assert (res.attempted, res.failed) == (6, 4)
    metrics = run.end_to_end(_Flaky(), res, setup_s=0.1)
    assert metrics["failed_fraction"]["value"] == pytest.approx(4 / 6)
    assert metrics["fits_per_s"]["value"] > 0
    assert any("boom" in p for p in res.problems)


class _Drifting(_Flaky):
    """One item whose output changes from call to call."""

    pool = 1

    def __init__(self):
        self.calls = 0

    def call(self, item):
        self.calls += 1
        return np.array([float(self.calls)])


class _Tampering:
    """A stand-in tracer whose calls change the output of item 0."""

    def __init__(self):
        self.items = []

    def call(self, fn, item):
        self.items.append(item)
        out = fn(item)
        return out + 1.0 if item == 0 else out


def test_a_changed_repeat_or_traced_output_is_a_failure():
    tracer = _Tampering()
    plain, traced = run.timed_loop(_Flaky(), seconds=0, min_steps=3, tracer=tracer)
    assert tracer.items == [0, 1, 2]  # one traced call per step, after the untraced one
    assert len(plain.latencies_ns) == len(traced.latencies_ns) == 3
    assert len(plain.ref_ns) == len(traced.ref_ns) == 3  # one reference time per call
    assert (plain.failed, traced.failed) == (2, 3)
    assert any("traced output differs" in p for p in traced.problems)
    assert not any("traced output differs" in p for p in plain.problems)
    res, _ = run.timed_loop(_Drifting(), seconds=0, min_steps=3)
    assert (res.attempted, res.failed) == (3, 2)
    assert any("repeat call differs" in p for p in res.problems)


def test_normalised_times_scale_each_call_by_its_reference():
    ref_ms = calibrate.REF_MS
    # Calls of 2, 4 and 3 reference times take 2, 4 and 3 x REF_MS ms once normalised.
    res = run.LoopResult(latencies_ns=[200, 800, 300], ref_ns=[100, 200, 100],
                         wall_ns=1300, attempted=3)
    m = run.end_to_end(_Flaky(), res, setup_s=0.1)
    assert m["norm_latency_ms_p50"]["value"] == pytest.approx(3 * ref_ms)
    assert m["norm_fits_per_s"]["value"] == pytest.approx(3 / (9 * ref_ms / 1e3))
    assert m["latency_ms_p50"]["value"] == pytest.approx(300 / 1e6)


def test_overhead_is_the_median_ratio_of_paired_calls():
    plain = run.LoopResult(latencies_ns=[100, 400, 100])
    traced = run.LoopResult(latencies_ns=[110, 400, 150])
    assert run.overhead_frac(plain, traced) == pytest.approx(0.1)


def test_tail_leaves_ten_samples_above():
    value, pct = run.tail([i * 1_000_000 for i in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)


def test_generator_depends_on_the_seed_alone(tmp_path):
    a = workloads.AutoOrder(7, tmp_path)
    b = workloads.AutoOrder(7, tmp_path)
    c = workloads.AutoOrder(8, tmp_path)
    assert [s.kernel for s in a.scans] == [s.kernel for s in b.scans]
    assert all(np.array_equal(x.Y.data, y.Y.data) for x, y in zip(a.scans, b.scans))
    assert a.scans[0].kernel != c.scans[0].kernel
    assert len({tuple(s.kernel.values()) for s in a.scans}) == a.pool
