"""Synthetic data generation and the benchmark replication harness.

Test functions, the causal forward convolution q(t,x) = int_0^t g(t-z)f(z,x)dz
evaluated by trapezoid quadrature, calibrated Gaussian noise, the relative-L2
error metric, and the 4-function x 3-SNR benchmark table with its reference
values embedded for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .estimator import Cube, Diagnostics, EstimatorConfig, Plan, deconvolve
from .laguerre import (TimeGrid, _is_int_at_least, _is_real, _kernel_nodes, _real_array,
                       _series_with_zero)
from .wavelet2d import WaveletSpec

__all__ = [
    "SimConfig",
    "TEST_FUNCTION_IDS",
    "REFERENCE_TABLE1",
    "TABLE1_SNRS",
    "Table1Row",
    "eval_test_function",
    "zero_time_slice",
    "forward_convolve",
    "add_noise",
    "relative_error",
    "run_table1",
    "default_kernel",
]

TEST_FUNCTION_IDS = ("f1", "f2", "f3", "f4")
TABLE1_SNRS = (3.0, 5.0, 7.0)

# Reference mean relative errors, 100 runs, n1 = n2 = n = 32, M = 8, T = 5,
# g = exp(-t/2).
REFERENCE_TABLE1 = {
    ("f1", 3.0): 0.1107, ("f1", 5.0): 0.0694, ("f1", 7.0): 0.0511,
    ("f2", 3.0): 0.1224, ("f2", 5.0): 0.0761, ("f2", 7.0): 0.0567,
    ("f3", 3.0): 0.1107, ("f3", 5.0): 0.0680, ("f3", 7.0): 0.0511,
    ("f4", 3.0): 0.1080, ("f4", 5.0): 0.0690, ("f4", 7.0): 0.0519,
}
# the estimator of those reference values, at the default nu
_TABLE1_CFG = EstimatorConfig(M=8)


@dataclass(frozen=True)
class SimConfig:
    """Grid and replication settings of the benchmark."""

    n: int = 32
    T: float = 5.0
    n1: int = 32
    n2: int = 32
    seed: int = 1234
    runs: int = 100

    def __post_init__(self):
        self.grid  # raises on a bad n or T
        if not (_is_int_at_least(self.n1, 1) and _is_int_at_least(self.n2, 1)):
            raise ValueError(f"n1 and n2 must be positive integers, got {(self.n1, self.n2)!r}")
        if not _is_int_at_least(self.seed, 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        # run_table1 reports a standard error across the runs
        if not _is_int_at_least(self.runs, 2):
            raise ValueError(f"need at least 2 runs for a standard error, got {self.runs!r}")

    @cached_property
    def grid(self) -> TimeGrid:
        """One grid per config, so its cached Laguerre bases are shared."""
        return TimeGrid(n=self.n, T=self.T)

    def spatial_points(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.arange(1, self.n1 + 1) / self.n1,
            np.arange(1, self.n2 + 1) / self.n2,
        )


def _test_function(fid: str, t: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Closed forms on the (t, x1, x2) grid, time-major.

    f1 and f2 are separable (time profile times a spatial factor); f3 is
    their sum; f4 adds a time-independent spatial term to f2.  Each factor
    is evaluated on its own axis and broadcasting forms the full cube, since
    every function has a time factor and a spatial factor.
    """
    tt, xx1, xx2 = t[:, None, None], x1[None, :, None], x2[None, None, :]
    poly = (xx1 - 0.5) ** 2 * (xx2 - 0.5) ** 2
    cosine = np.cos(2.0 * np.pi * xx1 * xx2)
    if fid == "f1":
        return tt * np.exp(-tt) * poly
    if fid == "f2":
        return np.exp(-tt / 2.0) * cosine
    if fid == "f3":
        return tt * np.exp(-tt) * poly + np.exp(-tt / 2.0) * cosine
    if fid == "f4":
        return np.exp(-tt / 2.0) * cosine + poly
    raise ValueError(f"unknown test function {fid!r}; have {TEST_FUNCTION_IDS}")


def eval_test_function(fid: str, cfg: SimConfig) -> Cube:
    """Exact pointwise evaluation of a test function on the sample grid."""
    x1, x2 = cfg.spatial_points()
    data = _test_function(fid, cfg.grid.points, x1, x2)
    return Cube(grid=cfg.grid, data=data)


def zero_time_slice(fid: str, cfg: SimConfig) -> np.ndarray:
    """The exact t = 0 slice, needed by the quadrature of the forward model."""
    x1, x2 = cfg.spatial_points()
    return _test_function(fid, np.array([0.0]), x1, x2)[0]


def default_kernel(t) -> np.ndarray:
    """The benchmark convolution kernel g(t) = exp(-t/2) (equals phi_0)."""
    return np.exp(-_real_array(t, "t") / 2.0)


def forward_convolve(
    f: Cube,
    g_series: np.ndarray,
    g_zero: float | None = None,
    f_zero: np.ndarray | None = None,
) -> Cube:
    """q(t_k, x) = int_0^{t_k} g(t_k - z) f(z, x) dz by trapezoid quadrature.

    The quadrature runs over the nodes {0, t_1, .., t_k}; t = 0 values of f
    and g are taken from `f_zero`/`g_zero` when given and linearly
    extrapolated otherwise.  The kernel is checked as a `Plan` checks it,
    and `f_zero` must be a finite array that broadcasts to one frame.
    Causal: q at t_k never touches later samples.  Quadrature row k is
    h g(t_k - t_j), j <= k, a reversed window of g halved at j = 0 and j = k.
    """
    n, h = f.grid.n, f.grid.step
    g_full = _kernel_nodes(g_series, g_zero, f.grid)
    f_full = _series_with_zero(f.data, f_zero, "f_zero")  # f, a Cube, is finite

    padded = np.concatenate([np.zeros(n), g_full])
    kernel_rows = h * np.lib.stride_tricks.sliding_window_view(padded, n + 1)[1:, ::-1]
    kernel_rows[:, 0] *= 0.5
    kernel_rows[np.arange(n), np.arange(1, n + 1)] *= 0.5
    q = np.tensordot(kernel_rows, f_full, axes=(1, 0))
    return Cube(grid=f.grid, data=q)


def _forward_model(fid: str, cfg: SimConfig) -> tuple[Cube, Cube]:
    """Truth f and clean q = g*f, g = default_kernel, with exact t = 0 values."""
    f = eval_test_function(fid, cfg)
    g = default_kernel(cfg.grid.points)
    return f, forward_convolve(f, g, g_zero=1.0, f_zero=zero_time_slice(fid, cfg))


def _noise_sigmas(q: Cube, snrs) -> list[float]:
    """sigma = sd(q)/snr for each given signal-to-noise ratio, from one sd(q)."""
    sd = float(q.data.std())
    if sd == 0.0:
        raise ValueError("q has zero variance; cannot calibrate noise to an SNR")
    for snr in snrs:
        if not (_is_real(snr) and snr > 0):
            raise ValueError(f"snr must be a positive finite real, got {snr!r}")
        if math.isfinite(sd) and math.isinf(sd / float(snr)):  # the snr's fault alone
            raise ValueError(f"snr must be large enough that sd(q)/snr is finite, got {snr!r}")
    return [sd / snr for snr in snrs]


def _unit_noise(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """The Philox-seeded unit-normal draw behind `add_noise`."""
    return np.random.Generator(np.random.Philox(seed)).standard_normal(shape)


def add_noise(q: Cube, snr: float, seed: int) -> tuple[Cube, float]:
    """Add i.i.d. Gaussian noise with sigma = sd(q)/snr; Philox-seeded.

    Returns the noisy cube and the sigma actually used.
    """
    if not _is_int_at_least(seed, 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    (sigma,) = _noise_sigmas(q, (snr,))
    noisy = _unit_noise(seed, q.data.shape)
    noisy *= sigma
    noisy += q.data
    return Cube(grid=q.grid, data=noisy), sigma


def relative_error(f_hat: Cube, f: Cube) -> float:
    """Discrete relative L2 error ||f_hat - f|| / ||f||.

    Quadrature weights (time step x pixel area) are uniform and cancel in the
    ratio; they are kept explicit for clarity.
    """
    if f_hat.data.shape != f.data.shape:
        raise ValueError("cubes have different shapes")
    denom = _weighted_norm(f.data.copy(), f)
    if denom == 0.0:
        raise ValueError("reference function has zero norm")
    return _weighted_norm(f_hat.data - f.data, f) / denom


def _weighted_norm(x: np.ndarray, f: Cube) -> float:
    """sqrt(sum(w x^2)), w the quadrature weight of f's grid.

    Squares and weights x in place: pass an array the caller can spend.
    """
    np.square(x, out=x)
    x *= f.grid.step * (1.0 / (f.n1 * f.n2))
    return math.sqrt(float(np.sum(x)))


@dataclass(frozen=True)
class Table1Row:
    function: str
    snr: float
    mean_delta: float
    stderr: float
    runs: int
    seed: int
    reference_delta: float

    @property
    def ratio(self) -> float:
        return self.mean_delta / self.reference_delta


def run_table1(
    cfg: SimConfig,
    est_cfg: EstimatorConfig = _TABLE1_CFG,
    snrs: tuple[float, ...] = TABLE1_SNRS,
) -> list[Table1Row]:
    """Replicate the benchmark: 4 test functions x the SNR scenarios.

    Each (function, snr) cell averages cfg.runs replicates of the daub4
    fit, as the reference values were made, reporting the mean relative
    error and its standard error.  Replicate i of every cell adds sd(q)/snr
    times the same unit-normal draw from Philox(cfg.seed + i) (common
    random numbers, exactly as `add_noise(q, snr, cfg.seed + i)`), and that
    draw is made once per replicate, not once per cell.
    """
    g = default_kernel(cfg.grid.points)
    # Every replicate of every cell shares the grid, the kernel and the
    # settings, so one plan serves them all.
    plan = Plan(cfg.grid, g, WaveletSpec(), est_cfg, g_zero=1.0)
    cells = []  # (fid, snr, f, ||f||, q, sigma) in row order
    for fid in TEST_FUNCTION_IDS:
        f, q = _forward_model(fid, cfg)
        norm = _weighted_norm(f.data.copy(), f)  # never zero for these truths
        sigmas = _noise_sigmas(q, snrs)
        cells.extend((fid, snr, f, norm, q, sigma) for snr, sigma in zip(snrs, sigmas))
    deltas = np.empty((len(cells), cfg.runs))
    for i in range(cfg.runs):
        z = _unit_noise(cfg.seed + i, (cfg.n, cfg.n1, cfg.n2))
        for c, (_, _, f, norm, q, sigma) in enumerate(cells):
            y = sigma * z  # the noisy cube in one buffer
            y += q.data
            f_hat, _ = plan.apply(Cube(grid=q.grid, data=y))
            f_hat.data -= f.data  # the residual in the fit's own buffer, read only here
            deltas[c, i] = _weighted_norm(f_hat.data, f) / norm
    return [
        Table1Row(
            function=fid,
            snr=snr,
            mean_delta=float(d.mean()),
            stderr=float(d.std(ddof=1) / math.sqrt(cfg.runs)),
            runs=cfg.runs,
            seed=cfg.seed,
            reference_delta=REFERENCE_TABLE1.get((fid, snr), float("nan")),
        )
        for (fid, snr, *_), d in zip(cells, deltas)
    ]


def run_single(fid: str, snr: float, cfg: SimConfig) -> tuple[float, Diagnostics]:
    """One replicate of one cell at one SNR, its noise seeded by cfg.seed,
    fitted with daub4 at M = 8; returns (relative error, diagnostics)."""
    f, q = _forward_model(fid, cfg)
    Y, _ = add_noise(q, snr, cfg.seed)
    g = default_kernel(cfg.grid.points)
    f_hat, diag = deconvolve(Y, g, WaveletSpec(), _TABLE1_CFG, g_zero=1.0)
    return relative_error(f_hat, f), diag
