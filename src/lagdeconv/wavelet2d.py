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

`estimate_sigma` reads the finest (detail, detail) quadrant H1 X H2^T.  The
first analysis level writes the finest details and deeper levels only
transform the first half, so H is W's last n/2 rows, bit for bit.  H is
block-banded: one pair of block matrices per filter (`_band`) applies it
to any axis of 32 samples or more.  Frames with n1 n2 (n1 + n2) up to 2^21
(64 x 64, 128 x 64, 256 x 16 and smaller) keep the dense product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .laguerre import _is_int_at_least, _real_array

__all__ = [
    "WaveletSpec",
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
# The largest count _median sorts; above it one partition is faster.
_SORT_MAX = 1024


@dataclass(frozen=True)
class WaveletSpec:
    """Filter family of the spatial transform, which runs at full depth.

    Specs compare and hash by family.
    """

    family: str = "daub4"
    # W keyed by its side n, estimate_sigma's block matrices by "band" and
    # its product for a frame shape by that shape (n1, n2); idempotent, so
    # safe to share.
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.family not in _TAP_REGISTRY:
            raise ValueError(
                f"unknown wavelet family {self.family!r}; have {sorted(_TAP_REGISTRY)}"
            )

    @property
    def taps(self) -> np.ndarray:
        """Lowpass taps of the family, a fresh copy."""
        return _TAP_REGISTRY[self.family].copy()

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


def _matrix(spec: WaveletSpec, n: int) -> np.ndarray:
    """W of an n-pixel axis: the n x n orthogonal matrix of the full-depth,
    log2(n)-level transform.

    Row j of the filter bank's output on np.eye(n) is the transform of the
    j-th unit vector, i.e. column j of the matrix.
    """
    if n not in spec._cache:
        h, g = spec.taps, spec.highpass
        out = np.eye(n)
        for level in range(int(math.log2(n))):
            m = n >> level
            x = out[:, :m]
            out[:, :m] = np.concatenate([_filter_down(x, h), _filter_down(x, g)], axis=-1)
        spec._cache[n] = np.ascontiguousarray(out.T)
    return spec._cache[n]


def _axes(shape: tuple) -> tuple[int, int]:
    """(n1, n2), the last two axes of an array of this shape.

    The one place the spatial layout is checked: both sides must be powers
    of two >= 2.  Plain-int sides that pass return at once, which is every
    ndarray's shape; the loop below checks the rest and names the fault.
    """
    if len(shape) < 2:
        raise ValueError(f"expected at least 2 axes, got shape {tuple(shape)}")
    n1, n2 = shape[-2:]
    if type(n1) is int and type(n2) is int and n1 >= 2 and n2 >= 2 and not (
        n1 & (n1 - 1) or n2 & (n2 - 1)
    ):
        return n1, n2
    for name, n in zip(("n1", "n2"), shape[-2:]):
        if not _is_int_at_least(n, 2) or n & (n - 1):
            raise ValueError(f"{name} must be a power of two >= 2, got {n}")
    return tuple(shape[-2:])


def _block(sides: tuple[int, int], block) -> tuple[int, int]:
    """(r1, r2) of a leading coefficient block, each within [1, n] of its axis."""
    if block is None:
        return sides
    block = tuple(block)
    if len(block) != len(sides) or not all(
        _is_int_at_least(r, 1) and r <= n for r, n in zip(block, sides)
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
    return _matrix(spec, n1)[:r1] @ images @ _matrix(spec, n2)[:r2].T


def idwt2_array(coeffs: np.ndarray, spec: WaveletSpec, shape=None) -> np.ndarray:
    """Inverse of dwt2_array: W1^T C W2, the transposes of its matrices.

    shape = (n1, n2) reads coeffs as the leading block of an n1 x n2
    coefficient array, zero elsewhere: W1[:r1]^T C W2[:r2] for an
    (..., r1, r2) block.  By default the block is the whole array.
    """
    n1, n2 = sides = _axes(coeffs.shape if shape is None else tuple(shape))
    r1, r2 = _block(sides, coeffs.shape[-2:])
    return _matrix(spec, n1)[:r1].T @ coeffs @ _matrix(spec, n2)[:r2]


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


def _band(spec: WaveletSpec) -> tuple[np.ndarray, np.ndarray]:
    """(D, T), the finest-detail rows of any axis of two blocks or more.

    D (B/2 x B) is every block's own rows, for B = _BLOCK samples; T
    (L/2 - 1 x L - 2) is how the last L/2 - 1 of them read the first L - 2
    samples of the next block, the last block's next being the first.  Both
    are cut from the 2B-sample W, where the first block's rows do not wrap.
    """
    if "band" not in spec._cache:
        L = spec.taps.size
        H = _matrix(spec, 2 * _BLOCK)[_BLOCK:]
        half, tail = _BLOCK // 2, L // 2 - 1
        spec._cache["band"] = (
            H[:half, :_BLOCK],
            H[half - tail : half, _BLOCK : _BLOCK + L - 2],
        )
    return spec._cache["band"]


def _detail_rows(x: np.ndarray, spec: WaveletSpec) -> np.ndarray:
    """H @ x for a 2-D x, H the finest-detail rows of its first axis.

    An axis of two blocks or more is applied block by block (see _band);
    a shorter one by its own H.
    """
    n, m = x.shape
    if n < 2 * _BLOCK:
        return _matrix(spec, n)[n // 2 :] @ x
    D, T = _band(spec)
    blocks = x.reshape(-1, _BLOCK, m)
    y = D @ blocks
    tail, head = y[:, y.shape[1] - T.shape[0] :], T.shape[1]
    tail[:-1] += T @ blocks[1:, :head]
    tail[-1] += T @ blocks[0, :head]
    return y.reshape(n // 2, m)


def estimate_sigma(image, spec: WaveletSpec) -> float:
    """Noise scale from the finest-level detail coefficients: their MAD,
    median|d| / 0.6745, which signal leaking into fine scales barely moves.

    The (detail, detail) quadrant H1 X H2^T, H the finest-detail rows of
    each axis: the last n/2 rows of its W.  Both sides must be powers of
    two >= 2, as for the transforms.  A row of H holds only the L taps of
    the highpass filter, so on a large frame each axis is applied block by
    block (_detail_rows): O(n1 n2 B) work for B = _BLOCK instead of the
    dense product's O(n1 n2 (n1 + n2)).  A frame with n1 n2 (n1 + n2) up
    to _DENSE_WORK, where the blocks' fixed costs outweigh that saving,
    runs the dense H1 X H2^T.  The first frame of a shape checks it and
    fixes its product on the spec: (H1, H2^T) as views of each side's W,
    or () for the block path.  Later frames of that shape look it up.
    """
    image = _real_array(image, "image", finite=False)  # a per-frame scan costs a third
    pair = spec._cache.get(image.shape)
    if pair is None:  # a shape that fails its checks stores nothing
        if image.ndim != 2:
            raise ValueError(f"expected a 2-D image, got shape {image.shape}")
        n1, n2 = _axes(image.shape)
        pair = ()
        if n1 * n2 * (n1 + n2) <= _DENSE_WORK:
            pair = _matrix(spec, n1)[n1 // 2 :], _matrix(spec, n2)[n2 // 2 :].T
        spec._cache[image.shape] = pair
    if pair:
        # np.dot runs the same 2-D products as @, bit for bit, with less call
        # setup, which is most of a small frame's cost
        H1, H2T = pair
        dd = np.dot(np.dot(H1, image), H2T)
    else:  # the transpose of H1 X H2^T, which has the same median
        dd = _detail_rows(_detail_rows(image, spec).T, spec)
    # dd is a fresh array: take |dd| and let _median reorder it in place
    return _median(np.abs(dd, out=dd).ravel()) / MAD_TO_SIGMA
