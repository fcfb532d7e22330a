"""The three benchmark workloads and their seeded input generator.

Each workload is built from the seed alone: the generator draws the
AIF-shaped kernels, the noise seeds and the replicate seeds, computes the
synthetic scans and, for `scan256`, writes them as cube files.  The library
only ever sees the generated arrays and files.

A workload holds a pool of inputs.  The timed loop calls `call(item)` with
items 0, 1, .., P-1, 0, 1, .. so every input is fitted more than once and a
repeat must reproduce the first output bit for bit.  `check` turns one
output into an `Outcome`: failed fits, a digest of the output and the
relative errors against the truth.  Quality numbers come from the first
call of each item, so they depend on the seed and not on the run length.

Each workload also names the slots of its host-speed reference
(`calibrate.py`): kernels doing the kinds of work its calls spend their
time on, as its traced profile shows.

Library functions are looked up on their modules at call time
(`estimator.deconvolve`, not a bound name) so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lagdeconv import estimator, io, simulate
from lagdeconv.estimator import Cube, EstimatorConfig
from lagdeconv.simulate import SimConfig
from lagdeconv.wavelet2d import WaveletSpec

# Acceptance gates of the paper's Table 1 (tests/test_acceptance.py).
RATIO_LO, RATIO_HI = 0.5, 2.0


@dataclass
class Outcome:
    """What one call produced, as far as the benchmark checks it."""

    fits: int
    failed: int
    digest: str
    rel_errors: list[float] = field(default_factory=list)
    ratios: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def digest(*arrays: np.ndarray) -> str:
    """Hex digest of the raw bytes of the arrays, for bit-identity checks."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(memoryview(a).cast("B"))
    return h.hexdigest()


def aif_kernel(t, params: dict) -> np.ndarray:
    """Arterial-input-shaped kernel: gamma-variate bolus plus washout.

    g(t) = (t/tp)^a exp(a (1 - t/tp)) + b exp(-t/tau): the bolus peaks at
    height 1 at t = tp, and the washout tail starts at g(0) = b > 0.
    """
    t = np.asarray(t, dtype=float)
    tp, a, b, tau = params["tp"], params["alpha"], params["b"], params["tau"]
    return (t / tp) ** a * np.exp(a * (1.0 - t / tp)) + b * np.exp(-t / tau)


# A synthetic base AIF, not fitted to any published population curve (the
# README shows how the results move with it); each scan scales every
# parameter by its own factor in [1 - AIF_JITTER, 1 + AIF_JITTER], so no
# two scans share a kernel.
AIF_POPULATION = {"tp": 0.7, "alpha": 2.25, "b": 0.3, "tau": 3.5}
AIF_JITTER = 0.1


def draw_aif(rng: np.random.Generator) -> dict:
    return {
        k: float(v * rng.uniform(1.0 - AIF_JITTER, 1.0 + AIF_JITTER))
        for k, v in AIF_POPULATION.items()
    }


@dataclass
class Scan:
    """One synthetic DCE scan: kernel samples, its t = 0 value, noisy Y."""

    g: np.ndarray
    g_zero: float
    Y: Cube
    kernel: dict


class Scans:
    """Synthetic scans of the `f3` truth at SNR 5, each with its own AIF."""

    fits_per_call = 1
    stream: int  # keeps each workload's random stream apart
    n1: int
    n: int
    M: int | str
    pool: int

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, self.stream])
        cfg = SimConfig(n=self.n, T=5.0, n1=self.n1, n2=self.n1)
        self.truth = simulate.eval_test_function("f3", cfg)
        self.f_zero = simulate.zero_time_slice("f3", cfg)
        self.cfg = EstimatorConfig(M=self.M)
        self.spec = WaveletSpec()

    def new_scan(self) -> Scan:
        """Convolve the truth with a fresh AIF and add noise."""
        params = draw_aif(self.rng)
        g = aif_kernel(self.truth.grid.points, params)
        g_zero = float(aif_kernel(0.0, params))
        q = simulate.forward_convolve(self.truth, g, g_zero=g_zero, f_zero=self.f_zero)
        Y, _ = simulate.add_noise(q, 5.0, int(self.rng.integers(2**31)))
        return Scan(g=g, g_zero=g_zero, Y=Y, kernel=params)

    def check(self, item: int, f_hat: Cube) -> Outcome:
        shape = self.truth.data.shape
        problems = []
        if f_hat.data.shape != shape:
            problems.append(f"output shape {f_hat.data.shape}, input shape {shape}")
        elif not np.all(np.isfinite(f_hat.data)):
            problems.append("output is not finite")
        return Outcome(
            fits=1,
            failed=1 if problems else 0,
            digest=digest(f_hat.data),
            rel_errors=[] if problems else [simulate.relative_error(f_hat, self.truth)],
            problems=problems,
        )


class Table1:
    """`run_table1` with `runs` replicates per cell: 12 cells, M = 8."""

    name = "table1"
    # Spread over all four layers: every kind of work.
    reference = ("python_loop", "small_calls", "filter_bank", "stream")
    runs = 4
    pool = 4
    fits_per_call = 12 * runs

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.seeds = [int(s) for s in rng.integers(0, 2**31, size=self.pool)]

    def call(self, item: int):
        return simulate.run_table1(SimConfig(runs=self.runs, seed=self.seeds[item]))

    def check(self, item: int, rows) -> Outcome:
        deltas = np.array([r.mean_delta for r in rows])
        out = Outcome(
            fits=self.fits_per_call,
            failed=0,
            digest=digest(deltas, np.array([r.stderr for r in rows])),
        )
        if len(rows) != 12 or not np.all(np.isfinite(deltas)):
            out.problems.append("table has not 12 finite cells")
            out.failed = self.fits_per_call
            return out
        bad = set()
        for r in rows:
            out.ratios[(r.function, r.snr)] = r.ratio
            if not RATIO_LO <= r.ratio <= RATIO_HI:
                bad.add((r.function, r.snr))
                out.problems.append(f"{r.function} snr {r.snr:g}: ratio {r.ratio:.3f}")
        for fid in simulate.TEST_FUNCTION_IDS:
            cells = sorted((r for r in rows if r.function == fid), key=lambda r: r.snr)
            for lo, hi in zip(cells, cells[1:]):
                if not lo.mean_delta > hi.mean_delta:
                    bad.update({(fid, lo.snr), (fid, hi.snr)})
                    out.problems.append(f"{fid}: error not decreasing at snr {hi.snr:g}")
        out.failed = self.runs * len(bad)
        out.rel_errors = [float(d) for d in deltas]  # each the mean of `runs` fits
        return out


class Scan256(Scans):
    """Clinical-size scans: read cube file, deconvolve with M = 8, write cube.

    The inputs live only on disk, as a caller's scans would.
    """

    name = "scan256"
    reference = ("filter_bank", "stream", "filter_bank", "stream")  # 96% wavelet2d
    stream, n1, n, M, pool = 2, 256, 32, 8, 4

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.kernels, self.inputs, self.outputs = [], [], []
        for i in range(self.pool):
            scan = self.new_scan()
            self.inputs.append(workdir / f"scan256_in{i}")
            self.outputs.append(workdir / f"scan256_out{i}")
            io.write_cube(self.inputs[i], scan.Y)
            self.kernels.append((scan.g, scan.g_zero))

    def call(self, item: int):
        Y = io.read_cube(self.inputs[item])
        g, g_zero = self.kernels[item]
        f_hat, diag = estimator.deconvolve(Y, g, self.spec, self.cfg, g_zero=g_zero)
        io.write_cube(self.outputs[item], f_hat)
        return f_hat

    def verify_files(self, digests: dict) -> list[str]:
        """Re-read each written output and compare it with the fitted cube."""
        return [
            f"scan256_out{i}: file differs from the fitted cube"
            for i, d in digests.items()
            if digest(io.read_cube(self.outputs[i]).data) != d
        ]


class AutoOrder(Scans):
    """Small scans with the data-driven Laguerre order, M = "auto" (cap 64)."""

    name = "auto_order"
    reference = ("python_loop", "small_calls", "python_loop", "small_calls")  # 96% toeplitz
    stream, n1, n, M, pool = 3, 32, 64, "auto", 16

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.scans = [self.new_scan() for _ in range(self.pool)]

    def call(self, item: int):
        s = self.scans[item]
        f_hat, diag = estimator.deconvolve(s.Y, s.g, self.spec, self.cfg, g_zero=s.g_zero)
        return f_hat


WORKLOADS = {w.name: w for w in (Table1, Scan256, AutoOrder)}


def paper_ratio_max(outcomes: list[Outcome]) -> float | None:
    """Worst Table-1 cell, each cell averaged over the pool's replicates."""
    cells: dict = {}
    for o in outcomes:
        for key, ratio in o.ratios.items():
            cells.setdefault(key, []).append(ratio)
    return max((float(np.mean(v)) for v in cells.values()), default=None)
