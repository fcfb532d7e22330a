"""Lower-triangular Toeplitz convolution operators in the Laguerre domain.

Convolution with a kernel g maps Laguerre coefficients theta to q = G theta,
where G is lower triangular Toeplitz with first column
(g_0, g_1 - g_0, g_2 - g_1, ...).  The inverse of such a matrix is again
lower-triangular Toeplitz, so one recurrence for its first column gives all
of G^-1.  G itself is never materialised: `solve_lower` takes the kernel's
coefficients and applies that inverse, and `inverse_norms` tabulates the
inverse norms ||(G^(m))^-1|| exactly, from the largest eigenvalue of each
leading block of one Gram matrix of the inverse, to track how fast they
grow with the dimension m - the quantity that drives both the truncation
rule for M and the threshold levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laguerre import LagCoeffs, _is_int_at_least

__all__ = [
    "InverseNormTable",
    "SingularOperatorError",
    "solve_lower",
    "inverse_norms",
    "select_M",
]


class SingularOperatorError(ValueError):
    """Raised when the operator has a zero diagonal (g_0 = 0) or is
    numerically singular: G^-1 or its Gram matrix overflows at that order."""


def solve_lower(kernel: LagCoeffs, rhs) -> np.ndarray:
    """Solve G x = rhs as x = G^-1 rhs, for rhs of shape (m,) or (m, ...).

    G is the m x m convolution operator of the kernel: lower triangular
    Toeplitz with first column col = (g_0, g_1 - g_0, ..., g_{m-1} - g_{m-2}),
    from the kernel's first m coefficients.  Its inverse is lower-triangular
    Toeplitz with first column c: c_0 = 1/col_0 and c_i = -(col_1 c_{i-1}
    + ... + col_i c_0)/col_0, applied as reversed windows of c after m - 1
    zeros; a c that overflows raises SingularOperatorError.
    rhs is a real array with m >= 1, as a plan builds it; the kernel is checked.
    """
    m = rhs.shape[0]
    if kernel.m < m:
        raise ValueError(f"need at least {m} kernel coefficients, got {kernel.m}")
    g = kernel.values[:m]
    if g[0] == 0.0:
        raise SingularOperatorError("singular operator: zero diagonal (g_0 = 0)")
    col, c = g.copy(), np.empty(m)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        col[1:] -= g[:-1]
        c[0] = 1.0 / col[0]
        for i in range(1, m):
            c[i] = -(col[1 : i + 1] @ c[i - 1 :: -1]) / col[0]
    if not np.all(np.isfinite(c)):
        raise SingularOperatorError(
            f"numerically singular operator: G^-1 overflows at order {m} (g_0 = {float(g[0])!r})")
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([np.zeros(m - 1), c]), m)
    return np.tensordot(windows[:, ::-1], rhs, axes=(1, 0))


@dataclass(frozen=True, eq=False)
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


def inverse_norms(kernel: LagCoeffs, max_m: int) -> InverseNormTable:
    """Tabulate ||(G^(m))^-1|| and ||(G^(m))^-1||_F for m = 1..max_m.

    The inverse of a lower-triangular Toeplitz matrix is again lower
    triangular Toeplitz, so one triangular solve against e_0 yields its first
    column c, and (G^(m))^-1 is the leading m x m block of G^-1.  Hence the
    leading m x m block of K = G^-1 G^-T is the Gram matrix of (G^(m))^-1,
    and K comes from c alone: K[i, i+d] = sum_{p<=i} c_p c_{p+d}, one
    cumulative sum down the (p, d) table c_p c_{p+d}.  The squared Frobenius
    norms are the partial sums of its diagonal, and each spectral norm is
    sqrt(lambda_max(K[:m, :m])), exact up to rounding and free of randomness,
    from one eigenvalue call on that block.  The cumulative sum makes
    K[:m, :m] independent of max_m, so entry m depends on K[:m, :m] alone,
    and hence only on the first m kernel coefficients, bit for bit.
    Building K costs O(max_m^2); the eigenvalue calls cost O(max_m^4) in
    total.  A Gram table that overflows raises SingularOperatorError.
    """
    if not _is_int_at_least(max_m, 1):
        raise ValueError(f"max_m must be a positive integer, got {max_m!r}")
    c = solve_lower(kernel, np.eye(max_m)[0])
    ix = np.arange(max_m)
    shifted = np.lib.stride_tricks.sliding_window_view(np.append(c, np.zeros(max_m - 1)), max_m)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        cum = np.cumsum(c[:, None] * shifted, axis=0)  # cum[i, d] = K[i, i+d]
        frob = np.sqrt(np.cumsum(cum[:, 0]))
    if not np.isfinite(frob[-1]):  # the trace bounds every |K[i, j]|
        raise SingularOperatorError(
            f"numerically singular operator: the Gram matrix of G^-1 overflows at order "
            f"{max_m} (g_0 = {float(kernel.values[0])!r})")
    gram = cum[np.minimum.outer(ix, ix), np.abs(np.subtract.outer(ix, ix))]
    top = [np.linalg.eigvalsh(gram[:m, :m])[-1] for m in range(1, max_m + 1)]
    return InverseNormTable(spectral=np.sqrt(top), frobenius=frob)


def select_M(norms: InverseNormTable, eps: float) -> int:
    """Largest m with ||(G^(m))^-1|| <= eps^-2, clamped to [1, max_m].

    The truncation rule behind the estimator's Laguerre order; simulations
    may override it with a fixed order.  eps = 0, like eps below about
    1e-154, sets no bound, so the rule returns max_m.
    """
    try:
        bound = float(eps) ** -2
    except (OverflowError, ZeroDivisionError):  # eps = 0, or eps^-2 past the double range
        bound = math.inf
    ok = np.nonzero(norms.spectral <= bound)[0]
    return int(ok[-1]) + 1 if ok.size else 1
