"""Synthetic data generation and the benchmark replication harness.

Test functions, the causal forward convolution q(t,x) = int_0^t g(t-z)f(z,x)dz
evaluated by trapezoid quadrature, calibrated Gaussian noise, the relative-L2
error metric, and the 4-function x 3-SNR benchmark table with its reference
values embedded for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    @property
    def grid(self) -> TimeGrid:
        """The time grid (n, T); equal grids share their Laguerre bases."""
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
    with np.errstate(over="ignore", invalid="ignore"):  # q's scan in Cube checks
        kernel_rows = h * np.lib.stride_tricks.sliding_window_view(padded, n + 1)[1:, ::-1]
        kernel_rows[:, 0] *= 0.5
        kernel_rows[np.arange(n), np.arange(1, n + 1)] *= 0.5
        q = np.tensordot(kernel_rows, f_full, axes=(1, 0))
    try:
        return Cube(grid=f.grid, data=q)
    except ValueError:
        raise ValueError("q = g * f overflows: f and the kernel are too large") from None


def _forward_model(fid: str, cfg: SimConfig) -> tuple[Cube, Cube]:
    """Truth f and clean q = g*f, g = default_kernel, with exact t = 0 values."""
    f = eval_test_function(fid, cfg)
    g = default_kernel(cfg.grid.points)
    return f, forward_convolve(f, g, g_zero=1.0, f_zero=zero_time_slice(fid, cfg))


def _noise_sd(q: Cube) -> float:
    """sd(q), the scale that `_noise_sigmas` divides by each SNR, checked
    finite and non-zero."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        sd = float(q.data.std())
    if not math.isfinite(sd):
        raise ValueError(f"sd(q) must be finite, got {sd!r}: q's values are too large "
                         "for their variance")
    if sd == 0.0:
        raise ValueError("q has zero variance; cannot calibrate noise to an SNR")
    return sd


def _noise_sigmas(sd: float, snrs) -> list[float]:
    """sigma = sd(q)/snr for each given signal-to-noise ratio, from one sd(q)."""
    for snr in snrs:
        if not (_is_real(snr) and snr > 0):
            raise ValueError(f"snr must be a positive finite real, got {snr!r}")
        if math.isinf(sd / float(snr)):
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
    (sigma,) = _noise_sigmas(_noise_sd(q), (snr,))
    noisy = _unit_noise(seed, q.data.shape)
    with np.errstate(over="ignore"):  # the noisy cube's scan checks
        noisy *= sigma
        noisy += q.data
    try:
        return Cube(grid=q.grid, data=noisy), sigma
    except ValueError:
        raise ValueError(f"sigma = sd(q)/snr = {sigma!r} overflows the noisy cube") from None


def relative_error(f_hat: Cube, f: Cube) -> float:
    """Discrete relative L2 error ||f_hat - f|| / ||f||.

    Quadrature weights (time step x pixel area) are uniform and cancel in the
    ratio; they are kept explicit for clarity.  Cubes on different time
    grids or of different shapes, and cubes whose norms overflow the double
    range, raise ValueError rather than give a number.
    """
    if f_hat.grid != f.grid:
        raise ValueError("cubes have different time grids")
    if f_hat.data.shape != f.data.shape:
        raise ValueError("cubes have different shapes")
    denom = _weighted_norm(f.data.copy(), f)
    with np.errstate(over="ignore"):  # an overflow gives inf, checked below
        num = _weighted_norm(f_hat.data - f.data, f)
    if not (math.isfinite(num) and math.isfinite(denom)):
        raise ValueError("the norm of f_hat - f or of f overflows")
    if denom == 0.0:
        raise ValueError("reference function has zero norm")
    return num / denom


def _weighted_norm(x: np.ndarray, f: Cube) -> float:
    """sqrt(sum(w x^2)), w the quadrature weight of f's grid, or inf where
    the squares overflow the double range, with no numpy warning.

    Squares and weights x in place: pass an array the caller can spend.
    """
    with np.errstate(over="ignore"):
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
    draw is made once per replicate, not once per cell.  An SNR small enough
    that a replicate's relative error overflows raises a ValueError naming
    it.

    Each call builds the four truths f, their q = g*f, ||f|| and sd(q),
    checks its SNRs, builds its plan for est_cfg, draws the noise and runs
    the fits, every noisy cube in one reused buffer; it keeps none of it
    after it returns.
    """
    grid = cfg.grid
    truths = []  # (fid, f, ||f||, q, sd(q)); ||f|| is never zero for these truths
    for fid in TEST_FUNCTION_IDS:
        f, q = _forward_model(fid, cfg)
        truths.append((fid, f, _weighted_norm(f.data.copy(), f), q, _noise_sd(q)))
    # Every replicate of every cell shares the grid, the kernel and the
    # settings, so one plan serves them all.
    plan = Plan(grid, default_kernel(grid.points), WaveletSpec(), est_cfg, g_zero=1.0)
    cells = [  # (fid, snr, f, ||f||, q, sigma) in row order
        (fid, snr, f, norm, q, sigma)
        for fid, f, norm, q, sd in truths
        for snr, sigma in zip(snrs, _noise_sigmas(sd, snrs))
    ]
    deltas = np.empty((len(cells), cfg.runs))
    y = np.empty((cfg.n, cfg.n1, cfg.n2))  # each noisy cube in turn
    for i in range(cfg.runs):
        z = _unit_noise(cfg.seed + i, y.shape)
        for c, (_, snr, f, norm, q, sigma) in enumerate(cells):
            np.multiply(sigma, z, out=y)
            y += q.data
            f_hat, _ = plan.apply(Cube(grid=grid, data=y))
            f_hat.data -= f.data  # the residual in the fit's own buffer, read only here
            delta = _weighted_norm(f_hat.data, f) / norm
            if not math.isfinite(delta):
                raise ValueError(f"at snr = {snr!r} the relative error ||f_hat - f|| / ||f|| "
                                 "overflows: the noise is too large for the double range")
            deltas[c, i] = delta
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
