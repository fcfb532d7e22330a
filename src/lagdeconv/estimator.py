"""End-to-end wavelet-Laguerre deconvolution.

Pipeline for observations Y = g*f + noise on an (n, n1, n2) grid:

1. noise level: sigma_hat is the median over time slices of the MAD of the
   finest (detail, detail) wavelet coefficients, H1 X H2^T with H the
   finest-detail rows of each axis's transform matrix W (its last n/2), and
   eps = T * sigma_hat / sqrt(n),
2. in time, per pixel: the operator A = G^-1 P E, which folds the t = 0
   slice extrapolation E, the stable least-squares projection P onto the
   first M Laguerre functions and the inverse of the triangular Toeplitz
   kernel operator G into one map.  P keeps the r <= M singular directions
   above its cutoff, so A has rank r and is applied as its two factors: an
   r x n map contracts the n time slices to r before any spatial work, and
   the M x r map G^-1 V_r S_r^-1 lifts their transforms to the M levels,
3. orthonormal full-depth 2D wavelet transform of each of the r
   contracted slices, restricted to the truncation set Omega(J1, J2): it
   is the leading r1 x r2 = 2^J1 x 2^J2 block of the coefficient array, so
   only W1[:r1] X W2[:r2]^T is computed and the coefficients the truncation
   discards never are; the M x r lift then gives the M coefficient blocks,
4. level-dependent hard thresholding of the coefficients theta_{l;omega}
   of that block, all but the scaling coefficient at (0, 0), in one
   stage, `_threshold`, which also decides when no threshold applies,
5. inverse wavelet transform of the M blocks, W1[:r1]^T C W2[:r2], then
   Laguerre evaluation in time.

All steps are linear except the thresholding.  The time operators commute
with the per-slice spatial transform, so the spatial work is r forward and
M inverse transforms rather than n each way.  The work that does not depend
on the observations comes in two halves.  The grid half, each order's
Laguerre basis with its projector P at the config's rcond and the two
factors of P E, depends only on the grid; `tabulate_basis` caches it by
value, so plans on equal grids share it.  The kernel half,
G^-1 times P E's M x r factor and the inverse-norm table of each order, is
built with the order by a `Plan` and cached by the order.  Cubes that share
a kernel share one plan; `deconvolve` builds one and applies it once.
Nothing mutates its inputs.

A value is checked where it enters, in `Cube`, `EstimatorConfig` and `Plan`:
every stage a plan runs, here or in another module, trusts what it passes.

Beyond its cube a fit holds about two level-stacks, (M, n1, n2) arrays of
one map per Laguerre level such as theta or C, at any one time: A Y is
never formed whole, only its r contracted slices and their transforms,
each freed once used, both transforms hold at most 8 images of their
intermediate, and `hard_threshold` holds only boolean masks beside theta
and its output.  An M = 64 fit of a 32 x 32 x 64 cube, rank 13, peaks at
2.26 stacks of traced memory and enters the threshold stage at 1.20;
tests pin them below 2.5 and 1.5.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .laguerre import (
    DEFAULT_RCOND,
    LagCoeffs,
    LaguerreBasis,
    TimeGrid,
    _is_int_at_least,
    _is_real,
    _kernel_nodes,
    _real_array,
    fit_coeffs,
    tabulate_basis,
)
from .toeplitz import (
    InverseNormTable,
    SingularOperatorError,
    inverse_norms,
    select_M,
    solve_lower,
)
from .wavelet2d import WaveletSpec, _median, dwt2_array, estimate_sigma, idwt2_array

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
    """Time-major real 3D array: data[k, i1, i2] at time t_{k+1}.

    Construction scans the data once for non-finite values.  `Plan.apply`
    wraps its output in a Cube and so keeps that scan: a finite input can
    still give an estimate that overflowed, and the scan is the only guard.
    """

    grid: TimeGrid
    data: np.ndarray

    def __post_init__(self):
        self.data = _real_array(self.data, "cube data")
        if self.data.ndim != 3:
            raise ValueError("cube data must be a 3-D array (time, x1, x2)")
        if self.data.shape[0] != self.grid.n:
            raise ValueError(
                f"time dimension {self.data.shape[0]} does not match grid n={self.grid.n}"
            )

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
    J1, J2: wavelet truncation depths, or "auto" for 2^J = eps^-2
            clamped to each side's dyadic depth.
    nu:     threshold constant; the theory only bounds it through unknowable
            absolute constants, so the default is calibrated once against the
            reference simulation study and frozen.
    eps:    noise intensity, or "auto" for T*sigma_hat/sqrt(n) with sigma_hat
            the MAD of the finest wavelet details.
    threshold_mode: hard-threshold the coefficients of Omega(J1, J2);
            False keeps them all, and "auto" depths then mean full depth.
    rcond:  spectral cutoff of the Laguerre least-squares projection, in
            [0, 1).
    m_cap:  largest order the "auto" rule may choose.
    """

    M: int | str = "auto"
    J1: int | str = "auto"
    J2: int | str = "auto"
    nu: float = DEFAULT_NU
    eps: float | str = "auto"
    threshold_mode: bool = True
    rcond: float = DEFAULT_RCOND
    m_cap: int = DEFAULT_M_CAP

    def __post_init__(self):
        if not (_is_real(self.nu) and self.nu > 0):
            raise ValueError(f"nu must be positive and finite, got {self.nu!r}")
        for name, low in (("M", 1), ("J1", 0), ("J2", 0)):
            value = getattr(self, name)
            if value != "auto" and not _is_int_at_least(value, low):
                raise ValueError(f"{name} must be an integer >= {low} or 'auto'")
        if not isinstance(self.threshold_mode, (bool, np.bool_)):
            raise ValueError(f"threshold_mode must be True or False, got {self.threshold_mode!r}")
        if not _is_int_at_least(self.m_cap, 1):
            raise ValueError("m_cap must be an integer >= 1")
        # a cutoff of 1 or more drops every direction, a negative one none
        if not (_is_real(self.rcond) and 0.0 <= self.rcond < 1.0):
            raise ValueError(f"rcond must lie in [0, 1), got {self.rcond!r}")
        if self.eps != "auto" and not (_is_real(self.eps) and self.eps >= 0):
            raise ValueError(f"eps must be a finite nonnegative number or 'auto', got {self.eps!r}")


@dataclass
class Diagnostics:
    """What the pipeline actually did, for logs and JSON output.

    The field names are the JSON keys: `to_dict` maps each field to its
    value, arrays as lists and numpy scalars as Python scalars.
    """

    sigma_hat: float
    eps_hat: float
    M: int
    J1: int
    J2: int
    projection_rank: int
    keep_counts: np.ndarray | None
    total_counts: np.ndarray | None
    lambdas: np.ndarray | None
    omega_dropped: int  # coefficients outside Omega(J1, J2), never computed
    # None, or why the paper's thresholds were not applied, as the
    # threshold stage `_threshold` names it.
    thresholds_disabled_reason: str | None

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value):
    """value with arrays as lists and numpy scalars as Python scalars."""
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def _sigma_hat(Y: Cube, spec: WaveletSpec) -> float:
    # the median over frames of each frame's MAD estimate (_median sorts up to
    # 1,024 values); details that overflow give inf or NaN, which _fit rejects
    return _median(np.array([estimate_sigma(frame, spec) for frame in Y.data]))


def thresholds(M: int, eps: float, nu: float, norms: InverseNormTable) -> np.ndarray:
    """Level-dependent thresholds lambda_l, l = 0..M-1, for 0 < eps < 1.

    lambda_l = 2 eps sqrt(2 nu log(1/eps) / (l v 1)) * ||(G^(l v 1))^-1||,
    with l replaced by max(l, 1) both in the denominator and in the norm
    index (the l = 0 operator is empty).
    """
    log_term = -math.log(eps)  # log(1/eps) without overflowing 1/eps at subnormal eps
    lv = np.maximum(np.arange(M), 1)
    return 2.0 * eps * np.sqrt(2.0 * nu * log_term / lv) * norms.spectral[lv - 1]


def hard_threshold(values: np.ndarray, lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero every entry of theta[l, i1, i2] with |theta_{l;omega}| <= lambda_l.

    The scaling coefficient theta[l, 0, 0] of every level is kept
    regardless.  Returns the thresholded array and the per-l count of
    surviving entries, the scaling coefficient included.  |theta| > lambda
    is read as theta > lambda or theta < -lambda, the same decision bit for
    bit (negation is exact, NaN compares false both ways), so beside its
    input and output it holds two boolean masks, not a float |theta|.
    """
    lam = lambdas[:, None, None]
    keep = values > lam
    keep |= values < -lam
    keep[:, 0, 0] = True
    return np.where(keep, values, 0.0), keep.sum(axis=(1, 2))


def _threshold(theta: np.ndarray, eps: float, cfg: EstimatorConfig, norms: InverseNormTable):
    """The threshold stage of a fit, on its (M, r1, r2) coefficient block:
    (theta, keep_counts, total_counts, lambdas, reason).

    For 0 < eps < 1 it is the paper's rule, `thresholds` then
    `hard_threshold`, and reason is None.  Otherwise reason says why not:
    "threshold_mode off" and "eps = 0" (which warns) return the block as
    it is, with no counts or lambdas; "eps >= 1" warns, floors log(1/eps)
    at 0 and hard-thresholds at zero.
    """
    M, r1, r2 = theta.shape
    if not cfg.threshold_mode:
        return theta, None, None, None, "threshold_mode off"
    if eps == 0.0:
        warnings.warn("eps = 0 with thresholding on: proceeding threshold-free")
        return theta, None, None, None, "eps = 0"
    if eps >= 1.0:
        warnings.warn("eps >= 1 floors log(1/eps) at 0: all thresholds are zero")
        lambdas, reason = np.zeros(M), "eps >= 1"
    else:
        lambdas, reason = thresholds(M, eps, cfg.nu, norms), None
    theta, keep_counts = hard_threshold(theta, lambdas)
    return theta, keep_counts, np.full(M, r1 * r2), lambdas, reason


def _depth(J, n_side: int, eps: float, auto_on: bool) -> int:
    """Truncation depth along one axis, clamped to [0, log2 n_side].

    J is an integer or "auto" for 2^J = eps^-2, i.e. floor(-2 log2 eps).
    The auto rule exists to control the variance of the thresholded
    estimator, so with thresholding off, or a zero eps, it means full depth.
    It is evaluated in logs, so no positive eps overflows or divides by
    zero.
    """
    full = int(math.log2(n_side))
    if J != "auto":
        return min(int(J), full)
    if not auto_on or eps <= 0.0:
        return full
    return min(max(math.floor(-2.0 * math.log2(eps)), 0), full)


@dataclass(frozen=True, eq=False)
class _Order:
    """What a plan's fit reads for one Laguerre order M: the grid's shared
    basis, `lift`, the M x r matrix G^-1 times the basis's lift, so that
    A = G^-1 P E is lift times the basis's reduce, and the norm table
    ||(G^(m))^-1||, m = 1..M (the M="auto" rule reads the first order's
    table, the thresholds entries up to M-1)."""

    basis: LaguerreBasis
    lift: np.ndarray
    norms: InverseNormTable


class Plan:
    """The estimator for one grid, kernel, spec and config.

    The kernel is a `LagCoeffs`, its Laguerre coefficients, or anything else,
    read as its samples at t_1..t_n with `g_zero` their exact t = 0 value if
    known, checked here and kept on the n + 1 nodes.  `_order(M)`, the only
    path that builds an order, takes the grid's basis of order M, fits the
    kernel's coefficients to it, applies G^-1 to P E's M x r factor,
    tabulates the norms, and caches the order.  The constructor builds the
    first order: cfg.M or, under M="auto", the largest order up to
    min(m_cap, n, kernel.m) that builds, since the rule never picks an
    order whose norm is infinite.  So a kernel with g_0 = 0, one whose G^-1
    or Gram matrix overflows at a fixed M, or one shorter than a fixed M
    (`solve_lower` checks) fails here, not at the first cube.  `apply` fits
    a cube's Laguerre coefficient maps C, in `_fit`, then synthesises
    f_hat = B^T C in time.  The fit starts from the
    first order and picks another only under M="auto", by the rule on the
    first order's norm table; eps = 0 sets no bound and keeps the first
    order.  None of this depends on the raster: `_fit` takes n1 and n2 from
    each cube and W is cached per side, so one plan serves every dyadic
    raster on its grid.  Its orders and the cached bases and W are
    idempotent derived state, so a plan is safe to share across threads.
    """

    def __init__(
        self,
        grid: TimeGrid,
        kernel: LagCoeffs | np.ndarray,
        spec: WaveletSpec,
        cfg: EstimatorConfig = EstimatorConfig(),
        g_zero: float | None = None,
    ):
        if isinstance(kernel, LagCoeffs):
            if g_zero is not None:
                raise ValueError("g_zero is the t = 0 value of kernel samples; "
                                 "it does not apply to Laguerre coefficients")
            kernel = LagCoeffs(np.array(kernel.values))  # a copy kept for later fits
            m_kernel = kernel.m
        else:
            kernel = _kernel_nodes(kernel, g_zero, grid)  # a new array, kept for later fits
            m_kernel = grid.n
        self.grid, self.spec, self.cfg, self._kernel = grid, spec, cfg, kernel
        self._orders: dict[int, _Order] = {}
        M = int(cfg.M if cfg.M != "auto" else min(cfg.m_cap, grid.n, m_kernel))
        if M > grid.n:  # a fixed M only: "auto" takes at most n
            warnings.warn(
                f"M={M} exceeds the n={grid.n} frames: the projection has "
                f"rank at most {grid.n}, so some orders are not determined by the data"
            )
        # "auto" never picks an order whose norm is infinite, so it starts
        # from the largest order that builds; a fixed M, or order 1, raises
        while True:
            try:
                self._first = self._order(M)
                break
            except SingularOperatorError:
                if cfg.M != "auto" or M == 1:
                    raise
                M -= 1

    def _order(self, M: int) -> _Order:
        if M not in self._orders:
            kernel = self._kernel
            basis = tabulate_basis(M, self.grid, self.cfg.rcond)
            if not isinstance(kernel, LagCoeffs):
                try:
                    with np.errstate(over="ignore", invalid="ignore"):  # LagCoeffs checks
                        kernel = fit_coeffs(kernel, basis)
                except ValueError:
                    raise ValueError(f"kernel samples overflow their order-{M} fit") from None
            self._orders[M] = _Order(basis, solve_lower(kernel, basis.lift),
                                     inverse_norms(kernel, M))
        return self._orders[M]

    def _fit(self, Y: Cube) -> tuple[_Order, np.ndarray, Diagnostics]:
        """(order, C, diagnostics) of one cube: C[l] is the estimate of the
        l-th Laguerre coefficient map, l < M, and every adaptive choice, the
        order included, is made here.
        """
        if Y.grid != self.grid:
            raise ValueError("cube does not match the plan's time grid")
        cfg, spec = self.cfg, self.spec
        n1, n2 = Y.n1, Y.n2
        sigma_hat = _sigma_hat(Y, spec)
        # a finite cube can still overflow its finest details, and eps its
        # product with T; either would reach the auto depth and the order rule
        eps = (
            Y.grid.T * sigma_hat / math.sqrt(Y.grid.n)
            if cfg.eps == "auto"
            else float(cfg.eps)
        )
        if not (math.isfinite(sigma_hat) and math.isfinite(eps)):
            raise ValueError(f"the noise level is not finite: sigma_hat = {sigma_hat}, eps = {eps}")
        order = self._first
        if cfg.M == "auto":
            order = self._order(select_M(order.norms, eps))
        M, r = order.lift.shape

        # Truncation set Omega(J1, J2): the levels < J along each axis.  At full
        # depth the scaling coefficient is index 0 and level j holds indices
        # [2^j, 2^(j+1)), so Omega is the leading 2^J1 x 2^J2 block of the
        # coefficient array, and only that block is ever computed.
        J1 = _depth(cfg.J1, n1, eps, cfg.threshold_mode)
        J2 = _depth(cfg.J2, n2, eps, cfg.threshold_mode)
        r1, r2 = 1 << J1, 1 << J2
        # theta = W1[:r1] (A Y) W2[:r2]^T with A in its two factors: the n
        # frames contract to the r kept directions, r images are transformed
        # and one M x r product lifts their blocks to the M levels.  The time
        # contractions are the 2-D np.dot that np.tensordot would build,
        # without its Python setup, as is the Laguerre synthesis in `apply`.
        # The r-image stacks have no name, so each is freed once used.
        theta, keep_counts, total_counts, lambdas, disabled = _threshold(
            np.dot(order.lift, dwt2_array(
                np.dot(order.basis.reduce, Y.data.reshape(Y.grid.n, -1)).reshape(r, n1, n2),
                spec, (r1, r2)).reshape(r, -1)).reshape(M, r1, r2),
            eps, cfg, order.norms)

        # The inverse wavelet transform of the M blocks: it commutes with the
        # Laguerre synthesis, and in this order runs M transforms, not n.
        C = idwt2_array(theta, spec, (n1, n2))
        diag = Diagnostics(
            sigma_hat=sigma_hat,
            eps_hat=eps,
            M=M,
            J1=J1,
            J2=J2,
            projection_rank=order.basis.rank,
            keep_counts=keep_counts,
            total_counts=total_counts,
            lambdas=lambdas,
            omega_dropped=M * (n1 * n2 - r1 * r2),
            thresholds_disabled_reason=disabled,
        )
        return order, C, diag

    def apply(self, Y: Cube) -> tuple[Cube, Diagnostics]:
        """Deconvolve one cube on the plan's grid: fit its Laguerre
        coefficient maps C, then synthesise f_hat = B^T C in time, B the
        order's basis values.

        Both sides of the raster must be powers of two >= 2; sigma-hat
        rejects any other when it reads the first frame.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # _fit's and the estimate's checks
            order, C, diag = self._fit(Y)
            f_hat = np.dot(order.basis.values.T, C.reshape(diag.M, -1))
        try:
            return Cube(grid=Y.grid, data=f_hat.reshape(Y.data.shape)), diag
        except ValueError:
            raise ValueError("the estimate overflows: the cube's values are too large "
                             f"for this kernel's G^-1 at M = {diag.M}") from None


def deconvolve(
    Y: Cube,
    kernel: LagCoeffs | np.ndarray,
    spec: WaveletSpec,
    cfg: EstimatorConfig = EstimatorConfig(),
    g_zero: float | None = None,
) -> tuple[Cube, Diagnostics]:
    """Recover f from Y = g*f + noise.

    The kernel is either its Laguerre coefficients, a `LagCoeffs`, or
    anything else, read as its samples on Y's grid, with `g_zero` its exact
    t = 0 value if known.  Returns the estimate cube and diagnostics.  This
    builds a `Plan` for Y's grid and applies it once; cubes on one grid that
    share a kernel can share one plan instead, whatever their rasters.
    """
    return Plan(Y.grid, kernel, spec, cfg, g_zero).apply(Y)
