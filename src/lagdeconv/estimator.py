"""End-to-end wavelet-Laguerre deconvolution.

Pipeline for observations Y = g*f + noise on an (n, n1, n2) grid:

1. noise level: sigma_hat is the median over time slices of the MAD of the
   finest (detail, detail) wavelet coefficients, H1 X H2^T with H the
   finest-detail rows of each axis's one-level transform matrix W, and
   eps = T * sigma_hat / sqrt(n),
2. in time, per pixel: the M x n operator A = G^-1 P E, which folds the
   t = 0 slice extrapolation E, the stable least-squares projection P onto
   the first M Laguerre functions and the inverse of the triangular
   Toeplitz kernel operator G into one matrix, applied to the n time
   slices before any spatial work,
3. orthonormal full-depth 2D wavelet transform of each of the M
   coefficient slices, restricted to the truncation set Omega(J1, J2): it
   is the leading r1 x r2 = 2^J1 x 2^J2 block of the coefficient array, so
   only W1[:r1] X W2[:r2]^T is computed and the coefficients the truncation
   discards never are,
4. level-dependent hard thresholding of the coefficients theta_{l;omega}
   of that block, all but the scaling coefficient at (0, 0),
5. inverse wavelet transform of the M blocks, W1[:r1]^T C W2[:r2], then
   Laguerre evaluation in time.

All steps are linear except the thresholding.  The time operators commute
with the per-slice spatial transform, so the spatial work is M transforms
each way rather than n.  A `Plan` holds everything that depends only on
the grid, the kernel, the spec and the config: in a cache keyed by the
Laguerre order, each order's basis, kernel fit, A and inverse-norm table.
Cubes that share a kernel share one plan; `deconvolve` builds one and
applies it once.  Nothing mutates its inputs.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .laguerre import (
    DEFAULT_RCOND,
    LagCoeffs,
    LaguerreBasis,
    TimeGrid,
    _series_with_zero,
    fit_coeffs,
    tabulate_basis,
)
from .toeplitz import (
    InverseNormTable,
    build_G,
    inverse_norms,
    select_M,
    solve_lower,
)
from .wavelet2d import WaveletSpec, _axes, dwt2_array, estimate_sigma, idwt2_array

__all__ = [
    "Cube",
    "EstimatorConfig",
    "Diagnostics",
    "Plan",
    "thresholds",
    "hard_threshold",
    "deconvolve",
]

# Calibrated against the reference simulation study (see EstimatorConfig.nu).
DEFAULT_NU = 0.4
DEFAULT_M_CAP = 64


@dataclass
class Cube:
    """Time-major real 3D array: data[k, i1, i2] at time t_{k+1}."""

    grid: TimeGrid
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 3:
            raise ValueError("cube data must be a 3-D array (time, x1, x2)")
        if self.data.shape[0] != self.grid.n:
            raise ValueError(
                f"time dimension {self.data.shape[0]} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("cube data must be finite")

    @property
    def n1(self) -> int:
        return self.data.shape[1]

    @property
    def n2(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning knobs of the deconvolution estimator.

    M:      Laguerre order, or "auto" for the rule
            M = max{m : ||(G^(m))^-1|| <= eps^-2} clamped to [1, m_cap].
    J1, J2: wavelet truncation depths, or "auto" for 2^J = A^2 eps^-2
            clamped to the grid's dyadic depth.
    nu:     threshold constant; the theory only bounds it through unknowable
            absolute constants, so the default is calibrated once against the
            reference simulation study and frozen.
    eps:    noise intensity, or "auto" for T*sigma_hat/sqrt(n) with sigma_hat
            from the finest wavelet details.
    rcond:  spectral cutoff of the Laguerre least-squares projection, in
            [0, 1).
    m_cap:  largest order the "auto" rule may choose.
    """

    M: int | str = "auto"
    J1: int | str = "auto"
    J2: int | str = "auto"
    nu: float = DEFAULT_NU
    A: float = 1.0
    eps: float | str = "auto"
    threshold_mode: bool = True
    rcond: float = DEFAULT_RCOND
    sigma_robust: bool = True
    m_cap: int = DEFAULT_M_CAP

    def __post_init__(self):
        # Infinite values pass "> 0" but break the fit: eps and A reach
        # log(1/eps) and the auto depth log2(A^2/eps^2), nu makes every lambda infinite.
        if not (self.nu > 0 and math.isfinite(self.nu)):
            raise ValueError("nu must be positive and finite")
        if not (self.A > 0 and math.isfinite(self.A)):
            raise ValueError("A must be positive and finite")
        for name, low in (("M", 1), ("J1", 0), ("J2", 0)):
            value = getattr(self, name)
            if value != "auto" and not _is_int_at_least(value, low):
                raise ValueError(f"{name} must be an integer >= {low} or 'auto'")
        for name in ("threshold_mode", "sigma_robust"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be True or False, got {value!r}")
        if not _is_int_at_least(self.m_cap, 1):
            raise ValueError("m_cap must be an integer >= 1")
        if not 0.0 <= self.rcond < 1.0:
            raise ValueError("rcond must lie in [0, 1)")
        if isinstance(self.eps, str):
            if self.eps != "auto":
                raise ValueError("eps must be a finite nonnegative number or 'auto'")
        elif not (self.eps >= 0 and math.isfinite(self.eps)):
            raise ValueError("eps must be a finite nonnegative number or 'auto'")


def _is_int_at_least(value, low: int) -> bool:
    return isinstance(value, numbers.Integral) and value >= low


@dataclass
class Diagnostics:
    """What the pipeline actually did, for logs and JSON output."""

    sigma_hat: float
    eps: float
    M: int
    J1: int
    J2: int
    rank: int
    keep_counts: np.ndarray | None
    total_counts: np.ndarray | None
    lambdas: np.ndarray | None
    omega_dropped: int  # coefficients outside Omega(J1, J2), never computed
    # None, or why no coefficient was thresholded: "threshold_mode off",
    # "eps = 0" or "eps >= 1" (log(1/eps) floored at 0: all thresholds zero).
    thresholds_disabled_reason: str | None

    def to_dict(self) -> dict:
        return {
            "sigma_hat": self.sigma_hat,
            "eps_hat": self.eps,
            "M": self.M,
            "J1": self.J1,
            "J2": self.J2,
            "projection_rank": self.rank,
            "keep_counts": None
            if self.keep_counts is None
            else [int(k) for k in self.keep_counts],
            "total_counts": None
            if self.total_counts is None
            else [int(k) for k in self.total_counts],
            "lambdas": None
            if self.lambdas is None
            else [float(v) for v in self.lambdas],
            "omega_dropped": self.omega_dropped,
            "thresholds_disabled_reason": self.thresholds_disabled_reason,
        }


def _projector(basis: LaguerreBasis, rcond: float) -> np.ndarray:
    """P E: the zero-slice extrapolation folded into the M x (n+1) projector."""
    extrapolate = _series_with_zero(np.eye(basis.grid.n), None)  # (n+1) x n
    return basis.projection_matrix(rcond) @ extrapolate


def _sigma_hat(Y: Cube, spec: WaveletSpec, robust: bool) -> float:
    per_slice = [estimate_sigma(Y.data[k], spec, robust) for k in range(Y.grid.n)]
    return float(np.median(per_slice))


def thresholds(M: int, eps: float, nu: float, norms: InverseNormTable) -> np.ndarray:
    """Level-dependent thresholds lambda_l, l = 0..M-1.

    lambda_l = 2 eps sqrt(2 nu log(1/eps) / (l v 1)) * ||(G^(l v 1))^-1||,
    with l replaced by max(l, 1) both in the denominator and in the norm
    index (the l = 0 operator is empty).  eps >= 1 makes log(1/eps)
    nonpositive; the log is floored at zero, which produces all-zero
    thresholds and a warning.
    """
    if M < 1:
        raise ValueError("M must be positive")
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not nu > 0:
        raise ValueError("nu must be positive")
    if norms.max_m < max(M - 1, 1):
        raise ValueError(f"norm table covers m <= {norms.max_m}, need {max(M - 1, 1)}")
    log_term = -math.log(eps)  # log(1/eps) without overflowing 1/eps at subnormal eps
    if log_term <= 0.0:
        warnings.warn("eps >= 1 floors log(1/eps) at 0: all thresholds are zero")
        log_term = 0.0
    lv = np.maximum(np.arange(M), 1)
    return 2.0 * eps * np.sqrt(2.0 * nu * log_term / lv) * norms.spectral[lv - 1]


def hard_threshold(
    values: np.ndarray,
    lambdas: np.ndarray,
    protect: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Zero every entry of theta[l, i1, i2] with |theta_{l;omega}| <= lambda_l.

    `protect` is an optional spatial mask of entries kept regardless (the
    scaling coefficient).  Returns the thresholded array and the per-l
    count of surviving entries.
    """
    values = np.asarray(values, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    if values.ndim != 3 or lambdas.shape != values.shape[:1]:
        raise ValueError(f"need (M, n1, n2) values and M thresholds, got "
                         f"{values.shape} and {lambdas.shape}")
    keep = np.abs(values) > lambdas[:, None, None]
    if protect is not None:
        keep |= np.asarray(protect, dtype=bool)[None, :, :]
    return np.where(keep, values, 0.0), keep.sum(axis=(1, 2))


def _depth(J, n_side: int, A: float, eps: float, auto_on: bool) -> int:
    """Truncation depth along one axis, clamped to [0, log2 n_side].

    J is an integer or "auto" for 2^J = A^2 eps^-2.  The auto rule exists to
    control the variance of the thresholded estimator, so with thresholding
    off (or eps = 0) it means full depth.  It is evaluated in logs, so no
    finite A or eps overflows or divides by zero.
    """
    full = int(math.log2(n_side))
    if J != "auto":
        return min(int(J), full)
    if not auto_on or eps <= 0.0:
        return full
    return min(max(math.floor(2.0 * (math.log2(A) - math.log2(eps))), 0), full)


@dataclass
class _Order:
    """Kernel-side state of a fit of one Laguerre order M.

    A and the norm table are built on first read.
    """

    basis: LaguerreBasis
    g_hat: LagCoeffs
    rcond: float

    @cached_property
    def op(self) -> np.ndarray:
        """A = G^-1 P E, M x n: one solve against the folded projector."""
        return solve_lower(build_G(self.g_hat, self.basis.M), _projector(self.basis, self.rcond))

    @cached_property
    def norms(self) -> InverseNormTable:
        """||(G^(m))^-1|| for m = 1..M: the M="auto" rule reads entry M (at
        m_cap), the thresholds entries up to M-1."""
        return inverse_norms(self.g_hat, self.basis.M)


class Plan:
    """The estimator for one grid, spatial shape, kernel, spec and config.

    A plan holds the work that does not depend on the observations: the
    Laguerre basis, the kernel fit, the folded M x n time operator
    A = G^-1 P E (zero-slice extrapolation E, least-squares projector P,
    Toeplitz inverse G^-1) and the inverse-norm table.  `_order(M)` builds
    the state of one order, the only path that does, and caches it; A and
    the norm table are built on first read.  With M="auto" the rule reads
    the norm table of order m_cap, and the order it chooses comes from the
    same cache.  `apply` does the per-cube work, so one plan serves every
    cube that shares the kernel.  Its caches hold only idempotent derived
    state, so a plan is safe to share across threads.
    """

    def __init__(
        self,
        grid: TimeGrid,
        shape: tuple[int, int],
        g_series: np.ndarray | None,
        spec: WaveletSpec,
        cfg: EstimatorConfig = EstimatorConfig(),
        g_zero: float | None = None,
        g_coeffs: LagCoeffs | None = None,
    ):
        n1, n2 = shape
        _axes(shape)  # both sides powers of two >= 2
        if g_series is None and g_coeffs is None:
            raise ValueError("provide the kernel as samples or as Laguerre coefficients")
        if g_coeffs is None:
            g_series = np.array(g_series, dtype=float)  # kept for orders fitted later
            if g_series.shape != (grid.n,):
                raise ValueError("kernel samples must live on the cube's time grid")
        self.grid, self.shape, self.spec, self.cfg = grid, (n1, n2), spec, cfg
        self._g_series, self._g_zero, self._g_coeffs = g_series, g_zero, g_coeffs
        self._orders: dict[int, _Order] = {}
        if cfg.M == "auto":
            self._m_cap = min(cfg.m_cap, grid.n, grid.n if g_coeffs is None else g_coeffs.m)
            self._order(self._m_cap)
            return
        if cfg.M > grid.n:
            warnings.warn(
                f"M={cfg.M} exceeds the n={grid.n} frames: the projection has "
                f"rank at most {grid.n}, so some orders are not determined by the data"
            )
        self._order(int(cfg.M))

    def _order(self, M: int) -> _Order:
        if M not in self._orders:
            g_coeffs = self._g_coeffs
            if g_coeffs is not None and g_coeffs.m < M:
                raise ValueError(f"kernel coefficients cover m={g_coeffs.m}, need {M}")
            basis = tabulate_basis(M, self.grid)
            if g_coeffs is not None:
                g_hat = LagCoeffs(g_coeffs.values[:M])
            else:
                g_hat = fit_coeffs(self._g_series, basis, self.cfg.rcond, self._g_zero)
            self._orders[M] = _Order(basis, g_hat, self.cfg.rcond)
        return self._orders[M]

    def apply(self, Y: Cube) -> tuple[Cube, Diagnostics]:
        """Deconvolve one cube on the plan's grid and shape."""
        if Y.grid != self.grid or (Y.n1, Y.n2) != self.shape:
            raise ValueError("cube does not match the plan's time grid and spatial shape")
        cfg, spec = self.cfg, self.spec
        n1, n2 = self.shape
        sigma_hat = _sigma_hat(Y, spec, cfg.sigma_robust)
        eps = (
            Y.grid.T * sigma_hat / math.sqrt(Y.grid.n)
            if cfg.eps == "auto"
            else float(cfg.eps)
        )
        if cfg.M != "auto":
            M = int(cfg.M)
        elif eps > 0:
            M = select_M(self._order(self._m_cap).norms, eps)
        else:
            M = self._m_cap
        order = self._order(M)

        # Truncation set Omega(J1, J2): the levels < J along each axis.  At full
        # depth the scaling coefficient is index 0 and level j holds indices
        # [2^j, 2^(j+1)), so Omega is the leading 2^J1 x 2^J2 block of the
        # coefficient array, and only that block is ever computed.
        J1 = _depth(cfg.J1, n1, cfg.A, eps, cfg.threshold_mode)
        J2 = _depth(cfg.J2, n2, cfg.A, eps, cfg.threshold_mode)
        r1, r2 = 1 << J1, 1 << J2
        theta = dwt2_array(np.tensordot(order.op, Y.data, axes=(1, 0)), spec, (r1, r2))

        keep_counts = total_counts = lambdas = disabled = None
        if not cfg.threshold_mode:
            disabled = "threshold_mode off"
        elif eps == 0.0:
            disabled = "eps = 0"
            warnings.warn("eps = 0 with thresholding on: proceeding threshold-free")
        else:
            if eps >= 1.0:
                disabled = "eps >= 1"  # thresholds() warns and returns zeros
            lambdas = thresholds(M, eps, cfg.nu, order.norms)
            protect = np.zeros((r1, r2), dtype=bool)
            protect[0, 0] = True  # the scaling coefficient
            theta, keep_counts = hard_threshold(theta, lambdas, protect)
            total_counts = np.full(M, r1 * r2)

        # Synthesis: inverse wavelet transform of the M blocks, then Laguerre
        # evaluation in time (the two commute, and this order runs M transforms).
        f_hat = np.tensordot(
            order.basis.values, idwt2_array(theta, spec, self.shape), axes=(0, 0)
        )

        diag = Diagnostics(
            sigma_hat=sigma_hat,
            eps=eps,
            M=M,
            J1=J1,
            J2=J2,
            rank=order.basis.projection_rank(cfg.rcond),
            keep_counts=keep_counts,
            total_counts=total_counts,
            lambdas=lambdas,
            omega_dropped=M * (n1 * n2 - r1 * r2),
            thresholds_disabled_reason=disabled,
        )
        return Cube(grid=Y.grid, data=f_hat), diag


def deconvolve(
    Y: Cube,
    g_series: np.ndarray | None,
    spec: WaveletSpec,
    cfg: EstimatorConfig = EstimatorConfig(),
    g_zero: float | None = None,
    g_coeffs: LagCoeffs | None = None,
) -> tuple[Cube, Diagnostics]:
    """Recover f from Y = g*f + noise.

    The kernel enters either as samples on Y's grid (`g_series`, optionally
    with its exact t = 0 value `g_zero`) or directly as Laguerre coefficients
    (`g_coeffs`).  Returns the estimate cube and diagnostics.  This builds a
    `Plan` for Y's grid and shape and applies it once; cubes that share a
    kernel can share one plan instead.
    """
    return Plan(Y.grid, (Y.n1, Y.n2), g_series, spec, cfg, g_zero, g_coeffs).apply(Y)
