"""Laguerre function basis on a uniform time grid.

The basis functions are phi_l(t) = exp(-t/2) * L_l(t) with L_l the Laguerre
polynomials; they form an orthonormal basis of L2(0, inf).  Series sampled on
a finite grid [0, T] are projected onto the first M basis functions by one
route, `fit_coeffs`: a weighted least-squares fit with a spectral cutoff.  On
grids long enough for the basis to decay inside [0, T] it agrees with plain
quadrature of series * phi_l; on short grids, where plain quadrature is
biased, it still behaves like an actual projection.

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
    "tabulate_basis",
    "fit_coeffs",
]

# Spectral cutoff for the least-squares fit, calibrated against the
# deconvolution benchmark; keeps only basis directions the grid resolves.
DEFAULT_RCOND = 0.1


def _is_int_at_least(value, low: int) -> bool:
    # bool subclasses int, but True is not a size, an order or a depth.  A
    # plain int, the common case, skips the slow ABC check.
    if type(value) is int:
        return value >= low
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def _is_real(value) -> bool:
    # likewise True is not a time span, a constant or a ratio
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_rcond(rcond) -> float:
    """The projection's spectral cutoff as a float, or ValueError.

    A cutoff of 1 or more drops every direction, a negative one none.
    """
    if not (_is_real(rcond) and 0.0 <= rcond < 1.0):
        raise ValueError(f"rcond must lie in [0, 1), got {rcond!r}")
    return float(rcond)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling t_k = T*k/n, k = 1..n, of the interval (0, T].

    Grids compare and hash by (n, T); each grid object caches the Laguerre
    bases built on it (see `tabulate_basis`) for as long as it lives.
    """

    n: int
    T: float
    # order M -> LaguerreBasis; filled only by tabulate_basis
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not _is_int_at_least(self.n, 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        try:  # an int beyond the double range overflows float(), not the test
            ok = _is_real(self.T) and 0 < float(self.T) < math.inf
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(f"T must be positive and finite, got {self.T!r}")

    @property
    def step(self) -> float:
        return self.T / self.n

    @property
    def points(self) -> np.ndarray:
        # float steps: an int T times an int array could wrap around
        return self.T * np.arange(1, self.n + 1, dtype=float) / self.n


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


@dataclass(frozen=True)
class LaguerreBasis:
    """First M Laguerre functions tabulated on a TimeGrid.

    `values` is the M x n table values[l][k] = phi_l(t_k) on the grid points
    t_1..t_n.  The t = 0 column (phi_l(0) = 1 for every l) is kept implicit
    and supplied analytically by the quadrature helpers.  Derived tables
    are built on first read and never change.  Every table, the projectors
    included, is read-only, so one instance is shared by every plan on its
    grid and across threads.  Bases compare and hash by (M, grid).
    """

    M: int
    grid: TimeGrid
    values: np.ndarray = field(compare=False)
    # rcond -> (P, rank)
    _projectors: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @cached_property
    def values_with_zero(self) -> np.ndarray:
        """M x (n+1) table including the exact t = 0 column of ones."""
        return _read_only(np.concatenate([np.ones((self.M, 1)), self.values], axis=1))

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Composite Simpson weights on the n+1 nodes {0, t_1, .., t_n}."""
        return _read_only(_simpson_weights(self.grid.n, self.grid.step))

    def projection_matrix(self, rcond: float = DEFAULT_RCOND) -> np.ndarray:
        """M x (n+1) weighted least-squares projector with spectral cutoff.

        Singular directions of the sqrt-weighted design below rcond * s_max
        are dropped; on grids that resolve the basis nothing is dropped and
        the matrix equals plain quadrature (values_with_zero * quad_weights)
        up to the Gram error.  rcond must lie in [0, 1).  Built once per
        rcond and read-only.
        """
        key = _check_rcond(rcond)
        if key not in self._projectors:
            sw = np.sqrt(self.quad_weights)
            u, s, vt = np.linalg.svd((self.values_with_zero * sw).T, full_matrices=False)
            k = int(np.sum(s > key * s[0]))
            P = _read_only(((vt[:k].T / s[:k]) @ u[:, :k].T) * sw)
            self._projectors.setdefault(key, (P, k))
        return self._projectors[key][0]

    def projection_rank(self, rcond: float = DEFAULT_RCOND) -> int:
        """Number of basis directions the cutoff retains."""
        self.projection_matrix(rcond)  # checks rcond
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
    """phi_0..phi_{M-1} on the grid points, the only path that builds a basis.

    The basis is cached on the grid object by order, so every caller that
    asks for order M on that grid gets one shared, read-only instance, with
    the projectors it has built.  Its `grid` is an equal copy without a
    cache: holding the grid itself would make a reference cycle, and the
    bases of a dropped grid would wait for the garbage collector.
    """
    if not _is_int_at_least(M, 1):
        raise ValueError(f"order M must be a positive integer, got {M!r}")
    M = int(M)
    basis = grid._cache.get(M)
    if basis is None:
        values = _read_only(_phi_rows(M, grid.points))
        basis = LaguerreBasis(M=M, grid=TimeGrid(grid.n, grid.T), values=values)
        basis = grid._cache.setdefault(M, basis)
    return basis


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


def fit_coeffs(
    series,
    basis: LaguerreBasis,
    rcond: float = DEFAULT_RCOND,
    zero_value=None,
) -> LagCoeffs:
    """Stable projection: weighted least-squares fit with spectral cutoff.

    Minimizes the quadrature-weighted residual sum over span{phi_0..phi_{M-1}}
    after dropping design directions below rcond * s_max.  The series must
    be n finite samples and zero_value, its t = 0 value, None or a finite
    real.
    """
    series = np.asarray(series, dtype=float)
    if series.shape != (basis.grid.n,):
        raise ValueError(
            f"series length {series.shape} does not match grid n={basis.grid.n}"
        )
    if not np.all(np.isfinite(series)):
        raise ValueError("series samples must be finite")
    if zero_value is not None and not (_is_real(zero_value) and math.isfinite(zero_value)):
        raise ValueError(f"series t = 0 value must be a finite real, got {zero_value!r}")
    full = _series_with_zero(series, zero_value)
    return LagCoeffs(basis.projection_matrix(rcond) @ full)
