"""Periodized orthogonal 2D wavelet transform (tensor product form).

The spatial basis is the product psi_{j1,k1}(x1) * psi_{j2,k2}(x2) with
independent resolution levels along the two axes ("standard"
decomposition).  The transform always runs at full depth: the log2(n)-level
1D periodized transform of an n-pixel axis is an n x n orthogonal matrix W,
built from the filter bank once per family and side, read-only.  `dwt2_array` maps
(..., n1, n2) data X to W1 X W2^T, one image per trailing pair of axes, and
`idwt2_array` maps it back by the transposes, W1^T C W2.  Coefficients of an
n1 x n2 image live in an n1 x n2 array whose 1D layout along each axis is

    [ scaling coefficient | level 0 | level 1 | ... | finest level ]

with the single scaling coefficient at index 0 and the detail block of
level j occupying indices [2^j, 2^{j+1}).  So the coefficients of the levels
below J1 and J2, the truncation set Omega(J1, J2), are the leading
2^J1 x 2^J2 block; both transforms take the size of such a block and then
touch only it: the rows W1[:r1] and W2[:r2].  The transform is orthonormal:
Parseval holds exactly and inner products are preserved.  A batch of more
than 8 images runs in slabs of 8 (`_sandwich`), so beside its input and
output a transform holds 8 images of its first product, not the batch.

`estimate_sigma` reads the finest (detail, detail) quadrant H1 X H2^T.  The
first analysis level writes the finest details and deeper levels only
transform the first half, so H is W's last n/2 rows, bit for bit.  H is
block-banded: two blocks cut from the 32-sample W where they are used
(`_detail_rows`) apply it to any axis of 32 samples or more.  Frames with
n1 n2 (n1 + n2) up to 2^21 (64 x 64, 128 x 64, 256 x 16 and smaller) keep
the dense product.  A raster is checked once (`_axes`), when
`estimate_sigma` first reads a frame of its shape, before a fit runs
either transform; the transforms take the block a plan builds unchecked.
Every table is keyed by plain values that hash in C: the family and sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .laguerre import _read_only

__all__ = [
    "WaveletSpec",
    "dwt2_array",
    "idwt2_array",
    "estimate_sigma",
]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

# Orthonormal lowpass taps (sum = sqrt(2), unit energy, even-shift orthogonal),
# read-only; daub6's are the published 6-tap filter (Daubechies 1988).
_TAP_REGISTRY = {
    "haar": _read_only(np.array([1.0, 1.0]) / _SQRT2),
    "daub4": _read_only(
        np.array([1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3])
        / (4.0 * _SQRT2)
    ),
    "daub6": _read_only(np.array([0.33267055295008263, 0.8068915093110925, 0.45987750211849154,
                                  -0.13501102001025458, -0.08544127388202666, 0.03522629188570953])),
}

MAD_TO_SIGMA = 0.6745  # MAD of a standard normal
# estimate_sigma's finest-detail product: the block length in samples, and
# the largest n1 n2 (n1 + n2) of a frame that runs the dense product.
_BLOCK = 16
_DENSE_WORK = 2**21
# The largest count _median sorts; above it one partition is faster.
_SORT_MAX = 1024
# The most images the transforms' intermediate holds (`_sandwich`).
_SLAB = 8
# The most W (`_matrix`) and sigma-hat products (`_product`) each cache keeps,
# least recently used dropped first: W takes 8 n^2 bytes, 512 KiB at n = 256.
_TABLES_KEPT = 16


@dataclass(frozen=True)
class WaveletSpec:
    """Filter family of the spatial transform, which runs at full depth.

    A plain value, compared and hashed by family, a key of `_TAP_REGISTRY`;
    the family alone fixes W and sigma-hat's tables.
    """

    family: str = "daub4"

    def __post_init__(self):
        if not (isinstance(self.family, str) and self.family in _TAP_REGISTRY):
            raise ValueError(
                f"unknown wavelet family {self.family!r}; have {sorted(_TAP_REGISTRY)}"
            )


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


@lru_cache(maxsize=_TABLES_KEPT)
def _matrix(family: str, n: int) -> np.ndarray:
    """W of an n-pixel axis for a family's filters: the n x n orthogonal
    matrix of the full-depth, log2(n)-level transform, read-only.

    The highpass taps are the lowpass taps reversed, every odd one negated.
    Row j of the filter bank's output on np.eye(n) is the transform of the
    j-th unit vector, i.e. column j of the matrix.
    """
    h = _TAP_REGISTRY[family]
    g = h[::-1].copy()
    g[1::2] *= -1.0
    out = np.eye(n)
    for level in range(int(math.log2(n))):
        m = n >> level
        x = out[:, :m]
        out[:, :m] = np.concatenate([_filter_down(x, h), _filter_down(x, g)], axis=-1)
    return _read_only(np.ascontiguousarray(out.T))


def _axes(shape: tuple) -> tuple[int, int]:
    """(n1, n2), a frame's shape.

    The one raster check, on a shape's first frame in estimate_sigma: the
    frame must be 2-D, else its shape is named, and both sides must be
    powers of two >= 2, else the first that is not is named.
    """
    if len(shape) != 2:
        raise ValueError(f"a frame must be 2-D, got shape {shape}")
    for name, n in zip(("n1", "n2"), shape):
        if n < 2 or n & (n - 1):
            raise ValueError(f"{name} must be a power of two >= 2, got {n}")
    return shape


def _sandwich(left: np.ndarray, x: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ x @ right, one image per trailing pair of axes of x.

    A batch of up to _SLAB images is that expression.  A larger one runs
    in slabs of up to _SLAB images along its last batch axis: each slab's
    first product goes into one reused slab buffer and its second straight
    into the output, so the intermediate holds at most _SLAB images, not
    the batch.  Every image meets the same BLAS call with the same strides
    either way, so the result is the same bit for bit.
    """
    batch = x.shape[:-2]
    if math.prod(batch) <= _SLAB:
        return left @ x @ right
    dtype = np.result_type(left, x, right)
    out = np.empty(batch + (left.shape[0], right.shape[1]), dtype)
    slab = np.empty((_SLAB, left.shape[0], x.shape[-1]), dtype)
    for index in np.ndindex(batch[:-1]):
        images, dest = x[index], out[index]
        for start in range(0, len(images), _SLAB):
            part = slab[: len(images) - start]
            np.matmul(left, images[start : start + _SLAB], out=part)
            np.matmul(part, right, out=dest[start : start + _SLAB])
    return out


def dwt2_array(images: np.ndarray, spec: WaveletSpec, block) -> np.ndarray:
    """The leading block = (r1, r2) of the 2D transform of (..., n1, n2)
    data, W1[:r1] X W2[:r2]^T; batch dims pass through.

    Blocks slice as numpy slices do, so (n1, n2) is the whole transform.
    The sides are unchecked; one not a power of two fails to build its W.
    Beside its input and output it holds at most _SLAB images of
    W1[:r1] X (`_sandwich`).
    """
    n1, n2 = images.shape[-2:]
    r1, r2 = block
    return _sandwich(_matrix(spec.family, n1)[:r1], images, _matrix(spec.family, n2)[:r2].T)


def idwt2_array(coeffs: np.ndarray, spec: WaveletSpec, shape) -> np.ndarray:
    """Inverse of dwt2_array: W1[:r1]^T C W2[:r2] of an (..., r1, r2) block
    C, read as the leading block of an n1 x n2 coefficient array, zero
    elsewhere, for shape = (n1, n2), which is unchecked.  A block larger
    than shape raises numpy's ValueError.  Beside its input and output it
    holds at most _SLAB images of W1[:r1]^T C (`_sandwich`).
    """
    n1, n2 = shape
    r1, r2 = coeffs.shape[-2:]
    return _sandwich(_matrix(spec.family, n1)[:r1].T, coeffs, _matrix(spec.family, n2)[:r2])


def _median(x: np.ndarray) -> float:
    """np.median of a 1-D array, from a sort or from one partition.

    Works in place, so x is reordered: pass an array the caller can spend.
    Up to _SORT_MAX values x is sorted and the middle one or two entries
    are read.  Above it x is partitioned at the middle, and for an even
    count the lower middle value is the largest entry below the partition
    point: one partition point is much faster than the pair (k - 1, k), 45
    against 264 us at 16,384 values.  Both branches give the exact order
    statistics, so they agree bit for bit.  The cutoff is where the two
    cost the same, about 4 us at 1,024 values on one core of a 2-vCPU
    Xeon host; a 32 x 32 frame's 256 details sort in 1.4 us against the
    partition and lower-half max's 3.1 us, and at 2,048 values the sort
    takes 7.8 us against 6.2 us.
    """
    k = x.size // 2
    if x.size <= _SORT_MAX:
        x.sort()
        if x.size % 2:
            return float(x[k])
        return float((x[k - 1] + x[k]) / 2)
    x.partition(k)
    if x.size % 2:
        return float(x[k])
    return float((x[:k].max() + x[k]) / 2)


def _detail_rows(x: np.ndarray, family: str) -> np.ndarray:
    """H @ x for a 2-D x, H the finest-detail rows of its first axis.

    An axis shorter than two blocks of B = _BLOCK samples applies its own H;
    a longer one runs block by block: D (B/2 x B) is every block's own rows,
    T (L/2 - 1 x L - 2) how the last L/2 - 1 read the next block's first
    L - 2 samples (the last block's next is the first), both views of the
    2B-sample W's H, whose first block's rows do not wrap.
    """
    n, m = x.shape
    if n < 2 * _BLOCK:
        return _matrix(family, n)[n // 2 :] @ x
    H, half = _matrix(family, 2 * _BLOCK)[_BLOCK:], _BLOCK // 2
    k = _TAP_REGISTRY[family].size // 2 - 1
    D, T = H[:half, :_BLOCK], H[half - k : half, _BLOCK : _BLOCK + 2 * k]
    blocks = x.reshape(-1, _BLOCK, m)
    y = D @ blocks
    tail = y[:, half - k :]
    tail[:-1] += T @ blocks[1:, : 2 * k]
    tail[-1] += T @ blocks[0, : 2 * k]
    return y.reshape(n // 2, m)


@lru_cache(maxsize=_TABLES_KEPT)
def _product(family: str, shape: tuple) -> tuple:
    """estimate_sigma's product for a family and frame shape: views
    (H1, H2^T) of each side's W, or () for the block path; checks the shape."""
    n1, n2 = _axes(shape)
    if n1 * n2 * (n1 + n2) > _DENSE_WORK:
        return ()
    return _matrix(family, n1)[n1 // 2 :], _matrix(family, n2)[n2 // 2 :].T


def estimate_sigma(image, spec: WaveletSpec) -> float:
    """Noise scale from the finest-level detail coefficients: their MAD,
    median|d| / 0.6745, which signal leaking into fine scales barely moves.

    The (detail, detail) quadrant H1 X H2^T, H the finest-detail rows of
    each axis: the last n/2 rows of its W.  image is a 2-D float64 array,
    a `Cube`'s frame, whose sides must be powers of two >= 2; any other
    shape raises ValueError.  A row of H holds only the L taps of the
    highpass filter, so on a large frame each axis is applied block by
    block (_detail_rows): O(n1 n2 B) work for B = _BLOCK instead of the
    dense product's O(n1 n2 (n1 + n2)).  A frame with n1 n2 (n1 + n2) up
    to _DENSE_WORK, where the blocks' fixed costs outweigh that saving,
    runs the dense H1 X H2^T.  The first frame of a shape checks it, the
    one raster check of a fit, and fixes its product (`_product`, keyed by
    the family and the shape); later frames of that shape look it up.
    """
    # not keyed by the spec, whose dataclass hash runs in Python on every frame
    pair = _product(spec.family, image.shape)
    if pair:
        # np.dot runs the same 2-D products as @, bit for bit, with less call
        # setup, which is most of a small frame's cost
        H1, H2T = pair
        dd = np.dot(np.dot(H1, image), H2T)
    else:  # the transpose of H1 X H2^T, which has the same median
        dd = _detail_rows(_detail_rows(image, spec.family).T, spec.family)
    # dd is a fresh array: take |dd| and let _median reorder it in place
    return _median(np.abs(dd, out=dd).ravel()) / MAD_TO_SIGMA
