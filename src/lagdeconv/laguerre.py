"""Laguerre function basis on a uniform time grid.

The basis functions are phi_l(t) = exp(-t/2) * L_l(t) with L_l the Laguerre
polynomials; they form an orthonormal basis of L2(0, inf).  Series sampled on
a finite grid [0, T] are projected onto the first M basis functions either by
composite quadrature (`project`) or by a weighted least-squares fit with a
spectral cutoff (`fit_coeffs`).  The two agree whenever T and n are large
enough that the basis has decayed inside [0, T]; on short grids the
least-squares route is the one that behaves like an actual projection.

Grid convention: t_k = T*k/n for k = 1..n, so there is no t = 0 sample.
Quadrature is carried out on the n+1 nodes {0, t_1, ..., t_n}; the t = 0
value of a data series is linearly extrapolated unless supplied.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "TimeGrid",
    "LaguerreBasis",
    "LagCoeffs",
    "eval_laguerre",
    "tabulate_basis",
    "project",
    "fit_coeffs",
    "reconstruct",
    "smooth_series",
]

# Spectral cutoff for the least-squares fit, calibrated against the
# deconvolution benchmark; keeps only basis directions the grid resolves.
DEFAULT_RCOND = 0.1


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling t_k = T*k/n, k = 1..n, of the interval (0, T]."""

    n: int
    T: float

    def __post_init__(self):
        if not (isinstance(self.n, numbers.Integral) and self.n >= 1):
            raise ValueError("n must be a positive integer")
        if not (isinstance(self.T, numbers.Real) and 0 < self.T < math.inf):
            raise ValueError("T must be positive and finite")

    @property
    def step(self) -> float:
        return self.T / self.n

    @property
    def points(self) -> np.ndarray:
        return self.T * np.arange(1, self.n + 1) / self.n

    @property
    def points_with_zero(self) -> np.ndarray:
        return self.T * np.arange(0, self.n + 1) / self.n


@dataclass
class LagCoeffs:
    """Expansion coefficients over phi_0 .. phi_{m-1}."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("coefficients must be a nonempty 1-D vector")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("coefficients must be finite")

    @property
    def m(self) -> int:
        return self.values.size


def eval_laguerre(l: int, t):
    """phi_l(t) = exp(-t/2) L_l(t) via the stable three-term recurrence.

    Accepts a scalar or an array of nonnegative abscissae.
    """
    if l < 0:
        raise ValueError("order l must be nonnegative")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be nonnegative")
    res = _phi_rows(l + 1, t_arr.ravel())[l].reshape(t_arr.shape)
    return float(res) if t_arr.ndim == 0 else res


def _phi_rows(M: int, t: np.ndarray) -> np.ndarray:
    """Table of phi_0..phi_{M-1} at the abscissae t, one recurrence pass."""
    table = np.empty((M, t.size))
    damp = np.exp(-t / 2.0)
    p_prev = np.ones_like(t)
    table[0] = damp * p_prev
    if M == 1:
        return table
    p = 1.0 - t
    table[1] = damp * p
    for k in range(1, M - 1):
        p, p_prev = ((2 * k + 1 - t) * p - k * p_prev) / (k + 1), p
        table[k + 1] = damp * p
    return table


@dataclass
class LaguerreBasis:
    """First M Laguerre functions tabulated on a TimeGrid.

    `values` is the M x n table values[l][k] = phi_l(t_k) on the grid points
    t_1..t_n.  The t = 0 column (phi_l(0) = 1 for every l) is kept implicit
    and supplied analytically by the quadrature helpers.  Derived tables
    are built on first read and never change, so instances are safe to
    share across threads.
    """

    M: int
    grid: TimeGrid
    values: np.ndarray
    _projectors: dict = field(default_factory=dict, repr=False)  # rcond -> (P, rank)

    @cached_property
    def values_with_zero(self) -> np.ndarray:
        """M x (n+1) table including the exact t = 0 column of ones."""
        return np.concatenate([np.ones((self.M, 1)), self.values], axis=1)

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Composite Simpson weights on the n+1 nodes {0, t_1, .., t_n}."""
        return _simpson_weights(self.grid.n, self.grid.step)

    def quadrature_matrix(self) -> np.ndarray:
        """M x (n+1) matrix whose rows integrate a series against phi_l."""
        return self.values_with_zero * self.quad_weights

    def projection_matrix(self, rcond: float = DEFAULT_RCOND) -> np.ndarray:
        """M x (n+1) weighted least-squares projector with spectral cutoff.

        Singular directions of the sqrt-weighted design below rcond * s_max
        are dropped; on grids that resolve the basis nothing is dropped and
        the matrix coincides with `quadrature_matrix` up to the Gram error.
        """
        key = float(rcond)
        if key not in self._projectors:
            sw = np.sqrt(self.quad_weights)
            u, s, vt = np.linalg.svd((self.values_with_zero * sw).T, full_matrices=False)
            k = int(np.sum(s > rcond * s[0]))
            self._projectors[key] = (((vt[:k].T / s[:k]) @ u[:, :k].T) * sw, k)
        return self._projectors[key][0]

    def projection_rank(self, rcond: float = DEFAULT_RCOND) -> int:
        """Number of basis directions the cutoff retains."""
        self.projection_matrix(rcond)
        return self._projectors[float(rcond)][1]


def _simpson_weights(n_intervals: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n_intervals uniform intervals.

    Odd interval counts get Simpson on the leading part and the 3/8 rule on
    the last three intervals; a single interval degrades to trapezoid.
    """
    m = n_intervals
    w = np.zeros(m + 1)
    if m == 1:
        w[:] = 0.5 * h
        return w
    if m % 2 == 0:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * h / 3.0
    if m == 3:
        return np.array([1.0, 3.0, 3.0, 1.0]) * 3.0 * h / 8.0
    head = _simpson_weights(m - 3, h)
    w[: m - 2] += head
    w[m - 3 :] += np.array([1.0, 3.0, 3.0, 1.0]) * 3.0 * h / 8.0
    return w


def tabulate_basis(M: int, grid: TimeGrid) -> LaguerreBasis:
    """Tabulate phi_0..phi_{M-1} on the grid points."""
    if M < 1:
        raise ValueError("M must be a positive integer")
    return LaguerreBasis(M=M, grid=grid, values=_phi_rows(M, grid.points))


def _series_with_zero(series: np.ndarray, zero_value) -> np.ndarray:
    """Prepend the t = 0 sample, extrapolating linearly when not supplied.

    Works for a 1-D series or for a stack with nodes along axis 0.
    """
    if zero_value is None:
        if series.shape[0] >= 2:
            zero = 2.0 * series[0] - series[1]
        else:
            zero = series[0]
    else:
        zero = np.broadcast_to(np.asarray(zero_value, dtype=float), series.shape[1:])
    return np.concatenate([np.asarray(zero)[None, ...], series], axis=0)


def project(series, basis: LaguerreBasis, zero_value=None) -> LagCoeffs:
    """Quadrature coefficients q_l ~ int_0^T series(t) phi_l(t) dt.

    Composite Simpson on the nodes {0, t_1, .., t_n}; `zero_value` supplies
    the exact t = 0 sample when known.
    """
    series = np.asarray(series, dtype=float)
    if series.shape != (basis.grid.n,):
        raise ValueError(
            f"series length {series.shape} does not match grid n={basis.grid.n}"
        )
    full = _series_with_zero(series, zero_value)
    return LagCoeffs(basis.quadrature_matrix() @ full)


def fit_coeffs(
    series,
    basis: LaguerreBasis,
    rcond: float = DEFAULT_RCOND,
    zero_value=None,
) -> LagCoeffs:
    """Stable projection: weighted least-squares fit with spectral cutoff.

    Minimizes the quadrature-weighted residual sum over span{phi_0..phi_{M-1}}
    after dropping design directions below rcond * s_max.  Use this instead of
    `project` whenever the grid is too short for the basis to have decayed.
    """
    series = np.asarray(series, dtype=float)
    if series.shape != (basis.grid.n,):
        raise ValueError(
            f"series length {series.shape} does not match grid n={basis.grid.n}"
        )
    full = _series_with_zero(series, zero_value)
    return LagCoeffs(basis.projection_matrix(rcond) @ full)


def reconstruct(coeffs: LagCoeffs, basis: LaguerreBasis) -> np.ndarray:
    """Pointwise sum_l coeffs[l] * phi_l(t_k) on the grid."""
    if coeffs.m > basis.M:
        raise ValueError(f"got {coeffs.m} coefficients for a basis of order {basis.M}")
    return coeffs.values @ basis.values[: coeffs.m]


def smooth_series(
    series,
    basis: LaguerreBasis,
    rcond: float = DEFAULT_RCOND,
    zero_value=None,
) -> np.ndarray:
    """Project a sampled series onto span{phi_0..phi_{M-1}} and resample it.

    The workhorse for denoising sampled kernels (arterial input curves): the
    result is the least-squares projection of the data onto the basis span,
    so the weighted residual never grows.
    """
    return reconstruct(fit_coeffs(series, basis, rcond, zero_value), basis)
