"""Periodized orthogonal 2D wavelet transform (tensor product form).

The spatial basis is the product psi_{j1,k1}(x1) * psi_{j2,k2}(x2) with
independent resolution levels along the two axes ("standard"
decomposition).  The multilevel 1D periodized transform of an n-pixel axis
is an n x n orthogonal matrix W, built once from the filter bank and cached
on the spec, so an image X maps to W1 X W2^T and back by the transposes,
W1^T C W2.  Coefficients of an n1 x n2 image live in an n1 x n2 array whose
1D layout along each axis is

    [ scaling block | level 0 | level 1 | ... | finest level ]

with the detail block of level j occupying indices [2^j, 2^{j+1}) at full
depth.  The transform is orthonormal: Parseval holds exactly and inner
products are preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WaveletSpec",
    "WaveletCoeffs2D",
    "wavelet_taps",
    "dwt2",
    "idwt2",
    "estimate_sigma",
    "symmetrize",
    "restrict",
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


def _check_orthogonal_taps(h: np.ndarray, tol: float = 1e-12) -> None:
    if h.ndim != 1 or h.size < 2 or h.size % 2:
        raise ValueError("taps must be a 1-D vector of even length >= 2")
    if abs(h @ h - 1.0) > tol:
        raise ValueError("taps are not unit-energy")
    if abs(h.sum() - _SQRT2) > tol:
        raise ValueError("taps do not sum to sqrt(2)")
    for shift in range(2, h.size, 2):
        if abs(h[:-shift] @ h[shift:]) > tol:
            raise ValueError("taps violate even-shift orthogonality")


@dataclass(frozen=True)
class WaveletSpec:
    """Filter family plus decomposition depths along the two spatial axes."""

    family: str = "daub4"
    levels1: int = 0  # 0 means full depth, resolved per image size
    levels2: int = 0
    taps: np.ndarray | None = field(default=None, compare=False)
    # The taps as a tuple: specs compare and hash by their values.
    _taps: tuple = field(init=False, repr=False)
    # Transform matrices keyed by (n, depth); idempotent, so safe to share.
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        h = wavelet_taps(self.family) if self.taps is None else np.array(
            self.taps, dtype=float
        )
        _check_orthogonal_taps(h)
        h.flags.writeable = False  # the tuple and the cached matrices derive from it
        object.__setattr__(self, "taps", h)
        object.__setattr__(self, "_taps", tuple(h.tolist()))

    @property
    def highpass(self) -> np.ndarray:
        g = self.taps[::-1].copy()
        g[1::2] *= -1.0
        return g

    def depth_for(self, size: int, levels: int) -> int:
        full = int(math.log2(size))
        if levels <= 0:
            return full
        if levels > full:
            raise ValueError(f"levels={levels} exceeds log2({size})={full}")
        return levels


def _require_pow2(n: int, what: str) -> None:
    if n < 2 or n & (n - 1):
        raise ValueError(f"{what} must be a power of two >= 2, got {n}")


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


def _axis_matrices(shape: tuple, spec: WaveletSpec) -> tuple[np.ndarray, np.ndarray]:
    """Transform matrices of the last two axes of an array of this shape."""
    n1, n2 = shape[-2], shape[-1]
    _require_pow2(n1, "n1")
    _require_pow2(n2, "n2")
    return (
        _matrix(spec, n1, spec.depth_for(n1, spec.levels1)),
        _matrix(spec, n2, spec.depth_for(n2, spec.levels2)),
    )


def dwt2_array(images: np.ndarray, spec: WaveletSpec) -> np.ndarray:
    """Tensor 2D transform W1 X W2^T of (..., n1, n2) data; batch dims pass through."""
    W1, W2 = _axis_matrices(images.shape, spec)
    return W1 @ images @ W2.T


def idwt2_array(coeffs: np.ndarray, spec: WaveletSpec) -> np.ndarray:
    """Inverse of dwt2_array: W1^T C W2, the transposes of its matrices."""
    W1, W2 = _axis_matrices(coeffs.shape, spec)
    return W1.T @ coeffs @ W2


@dataclass
class WaveletCoeffs2D:
    """Coefficients of one image, indexed omega = (j1,k1; j2,k2).

    `values[i1, i2]` pairs the axis-wise multilevel layouts.
    """

    values: np.ndarray
    spec: WaveletSpec

    @property
    def shape(self):
        return self.values.shape


def dwt2(image, spec: WaveletSpec) -> WaveletCoeffs2D:
    """Orthonormal periodized tensor transform of one n1 x n2 image."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("expected a 2-D image")
    return WaveletCoeffs2D(values=dwt2_array(image, spec), spec=spec)


def idwt2(coeffs: WaveletCoeffs2D, spec: WaveletSpec | None = None) -> np.ndarray:
    """Synthesis: exact inverse of dwt2."""
    return idwt2_array(coeffs.values, spec if spec is not None else coeffs.spec)


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


def symmetrize(image) -> np.ndarray:
    """Reflect an n1 x n2 image into an even-periodic 2n1 x 2n2 image.

    The result is invariant under flips about both axes, so the periodized
    transform sees it as smooth across the wrap-around.
    """
    image = np.atleast_2d(np.asarray(image, dtype=float))
    top = np.concatenate([image, image[:, ::-1]], axis=1)
    return np.concatenate([top, top[::-1, :]], axis=0)


def restrict(image) -> np.ndarray:
    """Return the original quadrant of a symmetrized image."""
    image = np.asarray(image, dtype=float)
    n1, n2 = image.shape
    if n1 % 2 or n2 % 2:
        raise ValueError("symmetrized image must have even sides")
    return image[: n1 // 2, : n2 // 2].copy()
