"""Periodized orthogonal 2D wavelet transform (tensor product form).

The spatial basis is the product psi_{j1,k1}(x1) * psi_{j2,k2}(x2) with
independent resolution levels along the two axes ("standard"
decomposition).  The multilevel 1D periodized transform of an n-pixel axis
is an n x n orthogonal matrix W, built once from the filter bank and cached
on the spec.  `dwt2_array` maps (..., n1, n2) data X to W1 X W2^T, one
image per trailing pair of axes, and `idwt2_array` maps it back by the
transposes, W1^T C W2.  Coefficients of an n1 x n2 image live in an
n1 x n2 array whose 1D layout along each axis is

    [ scaling block | level 0 | level 1 | ... | finest level ]

with the detail block of level j occupying indices [2^j, 2^{j+1}) at full
depth.  Levels never decrease along an axis, so the coefficients of all
levels below a cut form a leading block; both transforms take the size of
such a block and then touch only it: the rows W1[:r1] and W2[:r2].  The
transform is orthonormal: Parseval holds exactly and inner products are
preserved.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WaveletSpec",
    "wavelet_taps",
    "dwt2_array",
    "idwt2_array",
    "estimate_sigma",
]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

# Orthonormal lowpass taps (sum = sqrt(2), unit energy, even-shift orthogonal).
_TAP_REGISTRY = {
    "haar": np.array([1.0, 1.0]) / _SQRT2,
    "daub4": np.array(
        [1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]
    )
    / (4.0 * _SQRT2),
}

MAD_TO_SIGMA = 0.6745  # MAD of a standard normal


def wavelet_taps(family: str) -> np.ndarray:
    """Lowpass taps of a named orthogonal family."""
    try:
        return _TAP_REGISTRY[family].copy()
    except KeyError:
        raise ValueError(
            f"unknown wavelet family {family!r}; have {sorted(_TAP_REGISTRY)}"
        ) from None


@dataclass(frozen=True)
class WaveletSpec:
    """Filter family plus decomposition depths along the two spatial axes.

    Specs compare and hash by (family, levels1, levels2).
    """

    family: str = "daub4"
    levels1: int = 0  # 0 means full depth, resolved per image size
    levels2: int = 0
    # Transform matrices keyed by (n, depth); idempotent, so safe to share.
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        wavelet_taps(self.family)  # rejects an unknown family
        for name in ("levels1", "levels2"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 0):
                raise ValueError(f"{name} must be an integer >= 0 (0 means full depth)")

    @property
    def taps(self) -> np.ndarray:
        return wavelet_taps(self.family)

    @property
    def highpass(self) -> np.ndarray:
        g = self.taps[::-1]
        g[1::2] *= -1.0
        return g

    def depth_for(self, size: int, levels: int) -> int:
        full = int(math.log2(size))
        if levels == 0:
            return full
        if levels > full:
            raise ValueError(f"levels={levels} exceeds log2({size})={full}")
        return levels


def _filter_down(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Periodized correlation with f along the last axis, downsampled by 2.

    y[..., k] = sum_m f[m] x[..., (2k + m) mod N].  The input is extended
    periodically by index, so filters longer than N wrap more than once.
    """
    N = x.shape[-1]
    xp = np.take(x, np.arange(N + f.size - 2) % N, axis=-1)
    y = f[0] * xp[..., 0:N:2]
    for m in range(1, f.size):
        y += f[m] * xp[..., m : m + N : 2]
    return y


def _dwt_step(x: np.ndarray, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """One periodized analysis step along the last axis."""
    return np.concatenate([_filter_down(x, h), _filter_down(x, g)], axis=-1)


def _matrix(spec: WaveletSpec, n: int, depth: int) -> np.ndarray:
    """The n x n orthogonal matrix of the depth-level transform of one axis.

    Row j of the filter bank's output on np.eye(n) is the transform of the
    j-th unit vector, i.e. column j of the matrix.
    """
    key = (n, depth)
    if key not in spec._cache:
        h, g = spec.taps, spec.highpass
        out = np.eye(n)
        for level in range(depth):
            m = n >> level
            out[:, :m] = _dwt_step(out[:, :m], h, g)
        spec._cache[key] = np.ascontiguousarray(out.T)
    return spec._cache[key]


def _level_index(n: int, depth: int) -> np.ndarray:
    """Resolution level of each index of a depth-level layout along one axis.

    -1 marks the scaling block; the detail block of level j occupies
    [2^j, 2^(j+1)) at full depth.
    """
    lev = np.empty(n, dtype=int)
    lev[: n >> depth] = -1
    full = int(math.log2(n))
    for d in range(1, depth + 1):  # d = 1 is the finest step
        lev[n >> d : n >> (d - 1)] = full - d
    return lev


def _axes(shape: tuple, spec: WaveletSpec) -> list[tuple[int, int]]:
    """(side, depth) of the last two axes of an array of this shape.

    The one place the spatial layout is decided: both sides must be powers
    of two >= 2 and the spec's depths must fit them.
    """
    axes = []
    for name, n, levels in zip(("n1", "n2"), shape[-2:], (spec.levels1, spec.levels2)):
        if n < 2 or n & (n - 1):
            raise ValueError(f"{name} must be a power of two >= 2, got {n}")
        axes.append((n, spec.depth_for(n, levels)))
    return axes


def _block(axes: list[tuple[int, int]], block) -> tuple[int, int]:
    """(r1, r2) of a leading coefficient block, each within [1, n] of its axis."""
    sides = tuple(n for n, _ in axes)
    if block is None:
        return sides
    block = tuple(block)
    if len(block) != len(sides) or not all(
        isinstance(r, numbers.Integral) and 1 <= r <= n for r, n in zip(block, sides)
    ):
        raise ValueError(f"coefficient block {block} must lie within [1, n] per axis of {sides}")
    return block


def dwt2_array(images: np.ndarray, spec: WaveletSpec, block=None) -> np.ndarray:
    """Tensor 2D transform W1 X W2^T of (..., n1, n2) data; batch dims pass through.

    block = (r1, r2) computes only the leading r1 x r2 coefficients,
    W1[:r1] X W2[:r2]^T, i.e. dwt2_array(images, spec)[..., :r1, :r2].
    """
    axes = _axes(images.shape, spec)
    r1, r2 = _block(axes, block)
    W1, W2 = (_matrix(spec, n, depth) for n, depth in axes)
    return W1[:r1] @ images @ W2[:r2].T


def idwt2_array(coeffs: np.ndarray, spec: WaveletSpec, shape=None) -> np.ndarray:
    """Inverse of dwt2_array: W1^T C W2, the transposes of its matrices.

    shape = (n1, n2) reads coeffs as the leading block of an n1 x n2
    coefficient array, zero elsewhere: W1[:r1]^T C W2[:r2] for an
    (..., r1, r2) block.  By default the block is the whole array.
    """
    axes = _axes(coeffs.shape if shape is None else tuple(shape), spec)
    r1, r2 = _block(axes, coeffs.shape[-2:])
    W1, W2 = (_matrix(spec, n, depth) for n, depth in axes)
    return W1[:r1].T @ coeffs @ W2[:r2]


def _median(x: np.ndarray) -> float:
    """np.median of a 1-D array, from one partition at the middle.

    For an even count the lower middle value is the largest entry below the
    partition point; a single partition point is much faster than two.
    """
    k = x.size // 2
    part = np.partition(x, k)
    if x.size % 2:
        return float(part[k])
    return float((part[:k].max() + part[k]) / 2)


def estimate_sigma(image, spec: WaveletSpec, robust: bool = True) -> float:
    """Noise scale from the finest-level detail coefficients.

    The (detail, detail) quadrant of one analysis step along both axes,
    H1 X H2^T with H the finest-detail rows of the one-level matrix W of
    each axis; both sides must be even.
    Default is the MAD estimate (median|d| / 0.6745), insensitive to signal
    leaking into fine scales; robust=False gives the plain standard deviation.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2 or min(image.shape) < 2:
        raise ValueError("expected an image of size at least 2 x 2")
    for name, n in zip(("n1", "n2"), image.shape):
        if n % 2:
            raise ValueError(f"{name} = {n} is odd: the finest detail step needs an even side")
    n1, n2 = image.shape
    H1 = _matrix(spec, n1, 1)[n1 // 2 :]
    H2 = _matrix(spec, n2, 1)[n2 // 2 :]
    dd = H1 @ image @ H2.T
    if robust:
        return _median(np.abs(dd).ravel()) / MAD_TO_SIGMA
    return float(dd.std())
