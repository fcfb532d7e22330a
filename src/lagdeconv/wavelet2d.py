"""Periodized orthogonal 2D wavelet transform (tensor product form).

The spatial basis is the product psi_{j1,k1}(x1) * psi_{j2,k2}(x2) with
independent resolution levels along the two axes ("standard"
decomposition).  The transform always runs at full depth: the log2(n)-level
1D periodized transform of an n-pixel axis is an n x n orthogonal matrix W,
built once from the filter bank and cached on the spec.  `dwt2_array` maps
(..., n1, n2) data X to W1 X W2^T, one image per trailing pair of axes, and
`idwt2_array` maps it back by the transposes, W1^T C W2.  Coefficients of an
n1 x n2 image live in an n1 x n2 array whose 1D layout along each axis is

    [ scaling coefficient | level 0 | level 1 | ... | finest level ]

with the single scaling coefficient at index 0 and the detail block of
level j occupying indices [2^j, 2^{j+1}).  So the coefficients of the levels
below J1 and J2, the truncation set Omega(J1, J2), are the leading
2^J1 x 2^J2 block; both transforms take the size of such a block and then
touch only it: the rows W1[:r1] and W2[:r2].  The transform is orthonormal:
Parseval holds exactly and inner products are preserved.

`estimate_sigma` reads the finest (detail, detail) quadrant H1 X H2^T, H
the lower half of the one-level W.  A row of H holds only the L filter
taps, so H is block-banded: cut an axis into blocks of B = 16 samples and
every block's detail rows are one shared (B/2 x B) matrix, plus a tail of
L/2 - 1 rows that also reach the first L - 2 samples of the next block.
Applied that way the quadrant costs O(n1 n2 B) instead of the dense
O(n1 n2 (n1 + n2)).  Frames with n1 n2 (n1 + n2) up to 2^21 (96 x 96,
128 x 64, 256 x 16 and smaller) keep the dense product, bit for bit:
there the blocks' fixed costs outweigh the saving.
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
# estimate_sigma's finest-detail product: the block length in samples, and
# the largest n1 n2 (n1 + n2) of a frame that runs the dense product.
_BLOCK = 16
_DENSE_WORK = 2**21


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
    """Filter family of the spatial transform, which runs at full depth.

    Specs compare and hash by family.
    """

    family: str = "daub4"
    # Transform matrices keyed by (n, depth) and estimate_sigma's blocks by
    # ("band", n); idempotent, so safe to share.
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        wavelet_taps(self.family)  # rejects an unknown family

    @property
    def taps(self) -> np.ndarray:
        return wavelet_taps(self.family)

    @property
    def highpass(self) -> np.ndarray:
        g = self.taps[::-1]
        g[1::2] *= -1.0
        return g


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


def _axes(shape: tuple) -> tuple[int, int]:
    """(n1, n2), the last two axes of an array of this shape.

    The one place the spatial layout is checked: both sides must be powers
    of two >= 2.
    """
    if len(shape) < 2:
        raise ValueError(f"expected at least 2 axes, got shape {tuple(shape)}")
    for name, n in zip(("n1", "n2"), shape[-2:]):
        if n < 2 or n & (n - 1):
            raise ValueError(f"{name} must be a power of two >= 2, got {n}")
    return tuple(shape[-2:])


def _full(spec: WaveletSpec, n: int) -> np.ndarray:
    """W of an n-pixel axis: the full-depth, log2(n)-level transform."""
    return _matrix(spec, n, int(math.log2(n)))


def _block(sides: tuple[int, int], block) -> tuple[int, int]:
    """(r1, r2) of a leading coefficient block, each within [1, n] of its axis."""
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
    n1, n2 = sides = _axes(images.shape)
    r1, r2 = _block(sides, block)
    return _full(spec, n1)[:r1] @ images @ _full(spec, n2)[:r2].T


def idwt2_array(coeffs: np.ndarray, spec: WaveletSpec, shape=None) -> np.ndarray:
    """Inverse of dwt2_array: W1^T C W2, the transposes of its matrices.

    shape = (n1, n2) reads coeffs as the leading block of an n1 x n2
    coefficient array, zero elsewhere: W1[:r1]^T C W2[:r2] for an
    (..., r1, r2) block.  By default the block is the whole array.
    """
    n1, n2 = sides = _axes(coeffs.shape if shape is None else tuple(shape))
    r1, r2 = _block(sides, coeffs.shape[-2:])
    return _full(spec, n1)[:r1].T @ coeffs @ _full(spec, n2)[:r2]


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


def _band(spec: WaveletSpec, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The finest-detail rows of an n-sample axis, block by block.

    (D, T, heads): D is the (B/2 x B) matrix that every block of B =
    _BLOCK samples shares.  T (L/2 - 1 x L - 2) is how the last L/2 - 1
    rows of a block read the first L - 2 samples after it; row b of heads
    holds those samples' indices (periodic in n) for block b.
    """
    key = ("band", n)
    if key not in spec._cache:
        g = spec.highpass
        # the detail rows of one block followed by L - 2 samples, unwrapped
        window = _filter_down(np.eye(_BLOCK + g.size - 2), g).T[: _BLOCK // 2]
        tail = g.size // 2 - 1
        ends = _BLOCK * np.arange(1, -(-n // _BLOCK) + 1)
        spec._cache[key] = (
            np.ascontiguousarray(window[:, :_BLOCK]),
            np.ascontiguousarray(window[_BLOCK // 2 - tail :, _BLOCK:]),
            (ends[:, None] + np.arange(g.size - 2)) % n,
        )
    return spec._cache[key]


def _detail_rows(x: np.ndarray, spec: WaveletSpec) -> np.ndarray:
    """H @ x for a 2-D x, H the finest-detail rows of its first axis.

    The axis is cut into blocks (see _band).  A side that _BLOCK does not
    divide is first extended periodically to whole blocks, and the
    surplus output rows, which repeat the first ones, are dropped.
    """
    n, m = x.shape
    D, T, heads = _band(spec, n)
    blocks = heads.shape[0]
    if blocks * _BLOCK != n:
        x = x[np.arange(blocks * _BLOCK) % n]
    y = D @ x.reshape(blocks, _BLOCK, m)
    if T.size:
        y[:, y.shape[1] - T.shape[0] :] += T @ x[heads]
    return y.reshape(-1, m)[: n // 2]


def estimate_sigma(image, spec: WaveletSpec, robust: bool = True) -> float:
    """Noise scale from the finest-level detail coefficients.

    The (detail, detail) quadrant of one analysis step along both axes,
    H1 X H2^T with H the finest-detail rows of the one-level matrix W of
    each axis; both sides must be even.  A row of H holds only the L taps
    of the highpass filter, so on a large frame each axis is applied block
    by block (_detail_rows): O(n1 n2 B) work for B = _BLOCK instead of the
    dense product's O(n1 n2 (n1 + n2)).  A frame with n1 n2 (n1 + n2) up
    to _DENSE_WORK, where the blocks' fixed costs outweigh that saving,
    runs the dense H1 @ X @ H2.T.
    Default is the MAD estimate (median|d| / 0.6745), insensitive to signal
    leaking into fine scales; robust=False gives the plain standard deviation.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    if min(image.shape) < 2:
        raise ValueError("expected an image of size at least 2 x 2")
    for name, n in zip(("n1", "n2"), image.shape):
        if n % 2:
            raise ValueError(f"{name} = {n} is odd: the finest detail step needs an even side")
    n1, n2 = image.shape
    if n1 * n2 * (n1 + n2) <= _DENSE_WORK:
        H1 = _matrix(spec, n1, 1)[n1 // 2 :]
        H2 = _matrix(spec, n2, 1)[n2 // 2 :]
        dd = H1 @ image @ H2.T
    else:  # the transpose of H1 X H2^T, which has the same median and std
        dd = _detail_rows(_detail_rows(image, spec).T, spec)
    if robust:
        return _median(np.abs(dd).ravel()) / MAD_TO_SIGMA
    return float(dd.std())
