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
value of a data series is linearly extrapolated unless supplied.  A basis
is built whole by `tabulate_basis`: its values, its projector P at one
cutoff and P E, the projector with that extrapolation E folded in, kept as
its two factors through the r directions the cutoff keeps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

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
# The most bases `tabulate_basis` keeps, least recently used dropped first: at
# 24 M n bytes each, 6 MiB for M = n = 64, 96 MiB for M = 16 on 4,096 points.
_BASES_KEPT = 64


def _is_int_at_least(value, low: int) -> bool:
    # bool subclasses int, but True is not a size, an order or a depth
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def _is_real(value) -> bool:
    # a finite double; likewise True is not a time span, a constant or a ratio
    try:  # an int beyond the double range overflows float() in isfinite
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def _real_array(values, name: str) -> np.ndarray:
    """values as a float array of finite reals, or a ValueError naming it:
    integer and float dtypes only, so complex, string and bool arrays are
    not read as numbers.  Scalars share the rule, a finite double, through
    _is_real.  An ndarray of native float64 comes back as it is."""
    a = np.asarray(values)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {a.dtype}")
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling t_k = T*k/n, k = 1..n, of the interval (0, T].

    A plain value: grids compare and hash by (n, T), T kept as a float, so
    equal grids share their Laguerre bases (see `tabulate_basis`).
    """

    n: int
    T: float

    def __post_init__(self):
        if not _is_int_at_least(self.n, 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not (_is_real(self.T) and self.T > 0):
            raise ValueError(f"T must be positive and finite, got {self.T!r}")
        # a Fraction or an int would carry its own arithmetic into `points`
        # (a Fraction makes them an object array) and `step`
        object.__setattr__(self, "T", float(self.T))
        # `points` scale T by up to n before dividing by n
        if not (_is_real(self.n) and math.isfinite(self.T * int(self.n))):
            raise ValueError(f"T * n must be finite, got T = {self.T!r} for n = {self.n!r}")

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
        self.values = _real_array(self.values, "coefficients")
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("coefficients must be a nonempty 1-D vector")

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


@dataclass(frozen=True, eq=False)
class LaguerreBasis:
    """First M Laguerre functions on a TimeGrid, with their projector.

    `values` is the M x n table values[l][k] = phi_l(t_k), k = 1..n.
    `projector` is the M x (n+1) Simpson-weighted least-squares projector
    P on the nodes {0, t_1, .., t_n} that keeps the r = `rank` singular
    directions of the design above the cutoff.  P E, E the linear
    extrapolation of the t = 0 node from the n samples, has rank r and is
    kept as its two factors, P E = lift reduce: `reduce` is the r x n map
    from the samples to the kept directions' coordinates and `lift` the
    M x r map from those to the M coefficients.  All four tables are
    read-only, so one instance is shared by every plan on its grid and
    across threads.
    """

    M: int
    values: np.ndarray = field(repr=False)
    projector: np.ndarray = field(repr=False)
    lift: np.ndarray = field(repr=False)
    reduce: np.ndarray = field(repr=False)
    rank: int


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


def tabulate_basis(M: int, grid: TimeGrid, rcond: float = DEFAULT_RCOND) -> LaguerreBasis:
    """phi_0..phi_{M-1} on the grid points with their projector at cutoff
    rcond in [0, 1) and the two factors of P E, the only path that builds a
    basis.  With the weighted design's thin SVD U S V^T and r the directions
    kept, P = V_r S_r^-1 U_r^T sqrt(w): `lift` is V_r S_r^-1, and `reduce` is
    U_r^T sqrt(w) with E folded in as P E folds it, its sample columns plus
    its t = 0 column times E's t = 0 row, e0 below.

    Cached by value, (M, grid, rcond): callers on equal grids share one instance.
    """
    return _basis(M, grid, rcond)


@lru_cache(maxsize=_BASES_KEPT)
def _basis(M: int, grid: TimeGrid, rcond: float) -> LaguerreBasis:
    values = _phi_rows(M, grid.points)
    # the t = 0 column is phi_l(0) = 1 for every l
    sw = np.sqrt(_simpson_weights(grid.n, grid.step))
    design = np.concatenate([np.ones((M, 1)), values], axis=1) * sw
    u, s, vt = np.linalg.svd(design.T, full_matrices=False)
    rank = int(np.sum(s > rcond * s[0]))
    lift = vt[:rank].T / s[:rank]
    projector = (lift @ u[:, :rank].T) * sw
    nodes = u[:, :rank].T * sw
    e0 = _series_with_zero(np.eye(min(grid.n, 2), grid.n), None)[0]  # n = 1: e0 = (1,)
    reduce = nodes[:, 1:] + np.outer(nodes[:, 0], e0)
    return LaguerreBasis(M=M, values=_read_only(values), projector=_read_only(projector),
                         lift=_read_only(lift), reduce=_read_only(reduce), rank=rank)


def _series_with_zero(series: np.ndarray, zero_value, name: str | None = None) -> np.ndarray:
    """Prepend the t = 0 sample, extrapolating linearly when not supplied.

    Works for a 1-D series or for a stack with nodes along axis 0.  A given
    zero_value must pass `_real_array` and broadcast to one node (a real for
    a 1-D series), and an extrapolated one must not overflow; the ValueError
    for either calls it `name`.
    """
    shape = series.shape[1:]
    if zero_value is None:
        with np.errstate(over="ignore"):  # checked below
            zero = 2.0 * series[0] - series[1] if series.shape[0] >= 2 else series[0]
        if not np.all(np.isfinite(zero)):
            raise ValueError(f"{name}, extrapolated linearly from the first two samples, overflows")
    else:
        try:
            zero = np.broadcast_to(_real_array(zero_value, name), shape)
        except ValueError:
            kind = f"a finite array that broadcasts to shape {shape}" if shape else "a finite real"
            raise ValueError(f"{name} must be {kind}, got {zero_value!r}") from None
    return np.concatenate([np.asarray(zero)[None, ...], series], axis=0)


def _kernel_nodes(samples, g_zero, grid: TimeGrid) -> np.ndarray:
    """Sample kernel g, checked where it enters, as a new array on the n + 1
    nodes: g(0), g(t_1), .., g(t_n), g(0) = g_zero or, if None, extrapolated."""
    samples = _real_array(samples, "kernel samples")
    if samples.shape != (grid.n,):
        raise ValueError(f"kernel samples must have shape (n,) = ({grid.n},), got {samples.shape}")
    return _series_with_zero(samples, g_zero, "g_zero")


def fit_coeffs(series: np.ndarray, basis: LaguerreBasis) -> LagCoeffs:
    """Stable projection of a series on the n + 1 nodes, as `_kernel_nodes`
    builds it, by the basis's weighted least-squares fit with spectral
    cutoff: it minimizes the quadrature-weighted residual sum over
    span{phi_0..phi_{M-1}} after dropping the design directions the cutoff drops."""
    return LagCoeffs(basis.projector @ series)
