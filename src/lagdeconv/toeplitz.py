"""Lower-triangular Toeplitz convolution operators in the Laguerre domain.

Convolution with a kernel g maps Laguerre coefficients theta to q = G theta,
where G is lower triangular Toeplitz with first column
(g_0, g_1 - g_0, g_2 - g_1, ...).  The inverse of such a matrix is again
lower-triangular Toeplitz, so one recurrence for its first column gives all
of G^-1.  This module builds G from kernel coefficients, solves triangular
systems by applying that inverse, and tabulates the inverse norms
||(G^(m))^-1|| exactly, from singular values of the dense inverse, to track
how fast they grow with the dimension m - the quantity that drives both the
truncation rule for M and the threshold levels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .laguerre import LagCoeffs

__all__ = [
    "LowerToeplitz",
    "InverseNormTable",
    "SingularOperatorError",
    "build_G",
    "solve_lower",
    "inverse_norms",
    "select_M",
]


class SingularOperatorError(ValueError):
    """Raised when the operator has a zero diagonal (g_0 = 0)."""


@dataclass(frozen=True)
class LowerToeplitz:
    """Lower-triangular Toeplitz operator defined by its first column.

    Entry (i, j) equals col[i-j] for j <= i and 0 otherwise; the operator is
    invertible iff col[0] != 0.
    """

    col: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "col", np.asarray(self.col, dtype=float))
        if self.col.ndim != 1 or self.col.size < 1:
            raise ValueError("col must be a nonempty 1-D vector")

    @property
    def m(self) -> int:
        return self.col.size

    def dense(self) -> np.ndarray:
        """Materialize the m x m matrix."""
        d = np.subtract.outer(np.arange(self.m), np.arange(self.m))
        return np.where(d >= 0, self.col[d], 0.0)


def build_G(g_coeffs: LagCoeffs, m: int) -> LowerToeplitz:
    """Convolution operator of dimension m from kernel Laguerre coefficients.

    First column: col[0] = g_0 and col[i] = g_i - g_{i-1} for i >= 1.
    A vanishing g_0 makes the operator singular; it is flagged here with a
    warning and rejected at solve time.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if g_coeffs.m < m:
        raise ValueError(f"need at least {m} kernel coefficients, got {g_coeffs.m}")
    g = g_coeffs.values[:m]
    if g[0] == 0.0:
        warnings.warn("g_0 = 0: operator is singular and cannot be solved")
    col = np.empty(m)
    col[0] = g[0]
    col[1:] = np.diff(g)
    return LowerToeplitz(col)


def solve_lower(G: LowerToeplitz, rhs) -> np.ndarray:
    """Solve G x = rhs for rhs of shape (m,) or (m, ...) as x = G^-1 rhs.

    G^-1 is lower-triangular Toeplitz with first column c: c_0 = 1/g_0 and
    c_i = -(g_1 c_{i-1} + ... + g_i c_0)/g_0, with g the first column of G.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != G.m:
        raise ValueError(f"rhs has leading dimension {rhs.shape[0]}, expected {G.m}")
    if G.col[0] == 0.0:
        raise SingularOperatorError("singular operator: zero diagonal (g_0 = 0)")
    col = G.col
    c = np.empty(G.m)
    c[0] = 1.0 / col[0]
    for i in range(1, G.m):
        c[i] = -(col[1 : i + 1] @ c[i - 1 :: -1]) / col[0]
    return np.tensordot(LowerToeplitz(c).dense(), rhs, axes=(1, 0))


@dataclass(frozen=True)
class InverseNormTable:
    """Norms of (G^(m))^-1 for m = 1..max_m.

    spectral[m-1] is the operator 2-norm and frobenius[m-1] the Frobenius
    norm.  Both sequences are nondecreasing in m (the inverse of a leading
    principal submatrix embeds into the next), and spectral <= frobenius.
    """

    spectral: np.ndarray
    frobenius: np.ndarray

    @property
    def max_m(self) -> int:
        return self.spectral.size

    def spectral_at(self, m: int) -> float:
        return float(self.spectral[m - 1])

    def frobenius_at(self, m: int) -> float:
        return float(self.frobenius[m - 1])


def inverse_norms(g_coeffs: LagCoeffs, max_m: int) -> InverseNormTable:
    """Tabulate ||(G^(m))^-1|| and ||(G^(m))^-1||_F for m = 1..max_m.

    The inverse of a lower-triangular Toeplitz matrix is again lower
    triangular Toeplitz, so one triangular solve against e_0 yields its first
    column c, and the leading m x m block of the dense max_m x max_m inverse
    is (G^(m))^-1.  The Frobenius norms accumulate incrementally:
    ||(G^(m))^-1||_F^2 = ||(G^(m-1))^-1||_F^2 + ||c[:m]||^2, where c[:m]
    reversed is the last inverse row upsilon^(m).  Each spectral norm is the
    largest singular value of its block, exact up to rounding and free of
    randomness; the m-th entry depends only on the first m kernel
    coefficients.  The SVDs cost O(max_m^4) in total.
    """
    if max_m < 1:
        raise ValueError("max_m must be a positive integer")
    inv_col = solve_lower(build_G(g_coeffs, max_m), np.eye(max_m)[0])
    frob = np.sqrt(np.cumsum(np.cumsum(inv_col**2)))
    inv = LowerToeplitz(inv_col).dense()
    spectral = np.array(
        [np.linalg.svd(inv[:m, :m], compute_uv=False)[0] for m in range(1, max_m + 1)]
    )
    return InverseNormTable(spectral=spectral, frobenius=frob)


def select_M(norms: InverseNormTable, eps: float) -> int:
    """Largest m with ||(G^(m))^-1|| <= eps^-2, clamped to [1, max_m].

    The truncation rule behind the estimator's Laguerre order; simulations
    may override it with a fixed order.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    try:
        bound = eps**-2
    except OverflowError:  # eps below about 1e-154: every finite norm is within it
        bound = math.inf
    ok = np.nonzero(norms.spectral <= bound)[0]
    return int(ok[-1]) + 1 if ok.size else 1
