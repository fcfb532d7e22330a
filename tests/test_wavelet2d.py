import re
from dataclasses import fields, replace

import numpy as np
import pytest

from lagdeconv import Cube, EstimatorConfig, TimeGrid, WaveletSpec, deconvolve, wavelet2d
from lagdeconv.wavelet2d import _matrix, dwt2_array, estimate_sigma, idwt2_array

FAMILIES = ["haar", "daub4"]

# Published 6-tap Daubechies lowpass filter; at the coarsest levels (N = 2, 4)
# it is longer than the signal and wraps around it more than once.
DAUB6 = np.array(
    [
        0.33267055295008263,
        0.8068915093110925,
        0.45987750211849154,
        -0.13501102001025458,
        -0.08544127388202666,
        0.03522629188570953,
    ]
)


class Daub6Spec(WaveletSpec):
    """A spec whose filter is DAUB6, to test the filter bank on a filter
    longer than the registry's: the matrices come from `taps` alone."""

    @property
    def taps(self):
        return DAUB6.copy()


SPECS = {
    "haar": WaveletSpec(family="haar"),
    "daub4": WaveletSpec(family="daub4"),
    "daub6": Daub6Spec(),
}


# Reference filter bank: the direct fancy-index form of one periodized step,
# x[..., (2k + m) % N] gathered into windows and reduced against the taps.
def ref_dwt_step(x, h, g):
    N = x.shape[-1]
    idx = (2 * np.arange(N // 2)[:, None] + np.arange(h.size)[None, :]) % N
    windows = x[..., idx]
    return np.concatenate([windows @ h, windows @ g], axis=-1)


def ref_idwt_step(y, h, g):
    N = y.shape[-1]
    half = N // 2
    a, d = y[..., :half], y[..., half:]
    x = np.zeros_like(y)
    for m in range(h.size):
        j = (2 * np.arange(half) + m) % N
        x[..., j] += h[m] * a + g[m] * d
    return x


def ref_transform(data, spec, inverse=False):
    """Full-depth transform of the last two axes, one fancy-index step at a time."""
    h, g = spec.taps, spec.highpass
    out = np.array(data, dtype=float)
    for axis in (-1, -2) if inverse else (-2, -1):
        out = np.moveaxis(out, axis, -1)
        depth = int(np.log2(out.shape[-1]))
        if inverse:
            n = 1
            for _ in range(depth):
                n *= 2
                out[..., :n] = ref_idwt_step(out[..., :n], h, g)
        else:
            n = out.shape[-1]
            for _ in range(depth):
                out[..., :n] = ref_dwt_step(out[..., :n], h, g)
                n //= 2
        out = np.moveaxis(out, -1, axis)
    return out


def heads_detail_rows(x, spec):
    """Oracle for _detail_rows: the block form with an index table of each
    block's next L - 2 samples (periodic in n), gathered by fancy indexing."""
    n, m = x.shape
    if n < 2 * wavelet2d._BLOCK:
        return _matrix(spec, n)[n // 2 :] @ x
    B, L = wavelet2d._BLOCK, spec.taps.size
    H = _matrix(spec, 2 * B)[B:]
    half, tail = B // 2, L // 2 - 1
    D, T = H[:half, :B], H[half - tail : half, B : B + L - 2]
    ends = B * np.arange(1, n // B + 1)
    heads = (ends[:, None] + np.arange(L - 2)) % n
    y = D @ x.reshape(-1, B, m)
    if T.size:
        y[:, y.shape[1] - T.shape[0] :] += T @ x[heads]
    return y.reshape(n // 2, m)


class TestSpec:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_registry_taps_are_orthogonal(self, family):
        h = WaveletSpec(family).taps
        assert h @ h == pytest.approx(1.0, abs=1e-12)
        assert h.sum() == pytest.approx(np.sqrt(2.0), abs=1e-12)
        for shift in range(2, h.size, 2):
            assert abs(h[:-shift] @ h[shift:]) <= 1e-12

    def test_unknown_family(self):
        with pytest.raises(ValueError, match=re.escape(
                "unknown wavelet family 'nope'; have ['daub4', 'haar']")):
            WaveletSpec(family="nope")

    def test_taps_are_a_fresh_copy(self):
        # the spec is the one route to the taps: a caller's edit must not reach them
        spec = WaveletSpec("haar")
        spec.taps[:] = 0.0
        assert np.array_equal(spec.taps, np.array([1.0, 1.0]) / np.sqrt(2.0))

    def test_specs_compare_and_hash_by_value(self):
        a, b = WaveletSpec(), WaveletSpec()
        assert a == b and hash(a) == hash(b)
        assert WaveletSpec("haar") != a
        assert [f.name for f in fields(WaveletSpec) if f.init] == ["family"]
        with pytest.raises(AttributeError):
            a.taps = WaveletSpec("haar").taps


class TestTransform:
    def test_constant_image_concentrates_on_scaling(self):
        spec = WaveletSpec()
        c = dwt2_array(np.full((32, 32), 2.5), spec)
        assert c[0, 0] == pytest.approx(2.5 * 32.0, rel=1e-12)
        rest = c.copy()
        rest[0, 0] = 0.0
        assert np.abs(rest).max() <= 1e-10

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("shape", [(32, 32), (16, 64), (2, 2), (128, 4)])
    def test_perfect_reconstruction(self, family, shape):
        rng = np.random.default_rng(hash((family, shape)) % 2**32)
        spec = WaveletSpec(family=family)
        img = rng.standard_normal(shape)
        back = idwt2_array(dwt2_array(img, spec), spec)
        assert np.abs(back - img).max() <= 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(1)
        img = rng.standard_normal((32, 32))
        c = dwt2_array(img, WaveletSpec())
        assert np.sum(c**2) == pytest.approx(np.sum(img**2), rel=1e-8)

    def test_inner_products_preserved(self):
        rng = np.random.default_rng(2)
        spec = WaveletSpec()
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        ca, cb = dwt2_array(a, spec), dwt2_array(b, spec)
        assert np.sum(ca * cb) == pytest.approx(
            np.sum(a * b), rel=1e-8
        )

    def test_rejects_non_dyadic(self):
        with pytest.raises(ValueError):
            dwt2_array(np.zeros((24, 32)), WaveletSpec())

    @pytest.mark.parametrize(
        "shape", [(32, 24), (24, 32), (1, 8), (8, 1), (0, 8), (12,)],
        ids=["n2-not-dyadic", "n1-not-dyadic", "n1-one", "n2-one", "n1-zero", "one-axis"],
    )
    def test_rejects_a_side_that_is_not_a_power_of_two_at_least_2(self, shape):
        with pytest.raises(ValueError):
            dwt2_array(np.zeros(shape), WaveletSpec())
        with pytest.raises(ValueError):
            idwt2_array(np.zeros(shape), WaveletSpec())

    @pytest.mark.parametrize("J1, J2", [(0, 0), (1, 3), (3, 1), (2, 4), (5, 5)], ids=str)
    def test_a_coarse_haar_image_lives_in_the_leading_block(self, J1, J2):
        # An image constant on 2^-J1 x 2^-J2 tiles is a sum of Haar scaling
        # functions of levels J1, J2: its coefficients are exactly the
        # levels below J1 and J2, the leading 2^J1 x 2^J2 block.
        rng = np.random.default_rng(10 * J1 + J2)
        tiles = rng.standard_normal((2**J1, 2**J2))
        img = np.kron(tiles, np.ones((32 >> J1, 32 >> J2)))
        c = dwt2_array(img, WaveletSpec("haar"))
        r1, r2 = 2**J1, 2**J2
        outside = c.copy()
        outside[:r1, :r2] = 0.0
        assert np.abs(outside).max() <= 1e-13 * np.abs(img).max()
        assert np.sum(c[:r1, :r2] ** 2) == pytest.approx(np.sum(img**2), rel=1e-12)
        assert np.abs(c[r1 - 1, :r2]).max() > 1e-3 and np.abs(c[:r1, r2 - 1]).max() > 1e-3

    def test_zero_coefficients_to_zero_image(self):
        spec = WaveletSpec()
        assert np.all(idwt2_array(np.zeros((16, 16)), spec) == 0.0)

    def test_unit_detail_atom_has_unit_norm(self):
        spec = WaveletSpec()
        values = np.zeros((32, 32))
        values[19, 7] = 1.0
        atom = idwt2_array(values, spec)
        assert np.sum(atom**2) == pytest.approx(1.0, abs=1e-10)

    def test_roundtrip_from_coefficient_side(self):
        rng = np.random.default_rng(3)
        spec = WaveletSpec()
        values = rng.standard_normal((32, 32))
        img = idwt2_array(values, spec)
        again = dwt2_array(img, spec)
        assert np.abs(again - values).max() <= 1e-10


def block_sizes(n):
    """Block sides from the scaling coefficient alone up to n, one not a power of two."""
    return sorted({1, min(3, n), n // 2, n})


class TestLeadingBlock:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("shape", [(3, 16, 32), (2, 64, 8), (1, 2, 4), (2, 8, 128)])
    def test_block_is_the_corner_of_the_full_transform(self, family, shape):
        spec = WaveletSpec(family)
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape)
        full = dwt2_array(x, spec)
        scale = np.abs(full).max()
        for r1 in block_sizes(shape[1]):
            for r2 in block_sizes(shape[2]):
                block = dwt2_array(x, spec, (r1, r2))
                assert block.shape == (shape[0], r1, r2)
                assert np.abs(block - full[:, :r1, :r2]).max() <= 1e-14 * scale
                padded = np.zeros(shape)
                padded[:, :r1, :r2] = block
                back = idwt2_array(block, spec, shape[1:])
                assert back.shape == shape
                assert np.abs(back - idwt2_array(padded, spec)).max() <= 1e-14 * scale

    def test_whole_block_is_the_default_bit_for_bit(self):
        spec = WaveletSpec()
        x = np.random.default_rng(4).standard_normal((2, 16, 32))
        assert np.array_equal(dwt2_array(x, spec, (16, 32)), dwt2_array(x, spec))
        c = dwt2_array(x, spec)
        assert np.array_equal(idwt2_array(c, spec, (16, 32)), idwt2_array(c, spec))

    @pytest.mark.parametrize(
        "block", [(0, 4), (4, 0), (17, 4), (4, 33), (4,), (4, 4, 4), (2.0, 4), (True, True)],
        ids=["zero-1", "zero-2", "over-1", "over-2", "one-side", "three-sides", "float", "bool"],
    )
    def test_rejects_a_block_outside_the_array(self, block):
        with pytest.raises(ValueError):
            dwt2_array(np.zeros((16, 32)), WaveletSpec(), block)

    @pytest.mark.parametrize(
        "coeffs, shape",
        [((17, 4), (16, 32)), ((4, 33), (16, 32)), ((4, 4), (12, 32)), ((4, 4), (16,)),
         ((4, 4), (16.0, 32)), ((4, 4), (16, np.float64(32))), ((4, 4), (16, True))],
        ids=["taller", "wider", "not-dyadic", "one-side", "float-n1", "float-n2", "bool-n2"],
    )
    def test_rejects_coefficients_that_do_not_fit_the_shape(self, coeffs, shape):
        with pytest.raises(ValueError):
            idwt2_array(np.zeros(coeffs), WaveletSpec(), shape)

    def test_numpy_integer_sides_are_sides(self):
        # only plain ints skip _axes's loop; numpy integers pass through it
        spec = WaveletSpec()
        c = dwt2_array(np.random.default_rng(3).standard_normal((16, 32)), spec)[:4, :8]
        want = idwt2_array(c, spec, (16, 32))
        assert np.array_equal(idwt2_array(c, spec, (np.int64(16), np.int32(32))), want)


class TestReferenceFilterBank:
    @pytest.mark.parametrize("family", sorted(SPECS))
    @pytest.mark.parametrize(
        "shape",
        [(3, 16, 8), (2, 8, 32), (2, 16, 16), (1, 8, 256),
         (1, 2, 2), (2, 4, 64), (1, 128, 4), (2, 32, 2)],
    )
    def test_matches_fancy_index_steps(self, family, shape):
        spec = SPECS[family]
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape)
        scale = np.abs(x).max()
        ref = ref_transform(x, spec)
        assert np.abs(dwt2_array(x, spec) - ref).max() <= 1e-13 * scale
        back = ref_transform(x, spec, inverse=True)
        assert np.abs(idwt2_array(x, spec) - back).max() <= 1e-13 * scale

    @pytest.mark.parametrize("family", sorted(SPECS))
    def test_one_spec_serves_several_shapes(self, family):
        # the spec caches one matrix per side; a second shape on the
        # same object must not pick up the first shape's matrices
        spec = replace(SPECS[family])  # a fresh cache
        rng = np.random.default_rng(14)
        for shape in [(16, 16), (32, 8)]:
            x = rng.standard_normal(shape)
            scale = np.abs(x).max()
            ref = ref_transform(x, spec)
            assert np.abs(dwt2_array(x, spec) - ref).max() <= 1e-13 * scale
            back = ref_transform(x, spec, inverse=True)
            assert np.abs(idwt2_array(x, spec) - back).max() <= 1e-13 * scale

    def test_daub6_wraps_at_coarse_levels(self):
        # 6 taps on 16 x 8 at full depth: the last levels filter N = 2 and 4
        spec = SPECS["daub6"]
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 16, 8))
        c = dwt2_array(x, spec)
        assert np.abs(idwt2_array(c, spec) - x).max() <= 1e-12
        assert np.sum(c**2) == pytest.approx(np.sum(x**2), rel=1e-12)

    # The estimate must not depend on how the frame is laid out in memory:
    # "F" passes a column-major copy, so the products and the blocks'
    # reshape read strided data.
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("family", sorted(SPECS))
    def test_sigma_reads_the_reference_detail_quadrant(self, family, order):
        self.check_sigma(SPECS[family], (16, 8), order)

    @pytest.mark.parametrize("path", ["default", "blocks"])
    @pytest.mark.parametrize("family", sorted(SPECS))
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "shape",
        [(64, 64), (128, 32), (32, 256), (256, 256), (512, 64),
         # an axis shorter than two blocks is applied by its own H
         (2, 2048), (16, 1024), (1024, 8)],
    )
    def test_sigma_on_many_blocks(self, monkeypatch, path, family, order, shape):
        # "blocks" sends every frame down the block path, small ones included
        if path == "blocks":
            monkeypatch.setattr(wavelet2d, "_DENSE_WORK", 0)
        spec = replace(SPECS[family])  # a fresh cache
        self.check_sigma(spec, shape, order)

    def check_sigma(self, spec, shape, order):
        rng = np.random.default_rng(13)
        img = rng.standard_normal(shape)
        h, g = spec.taps, spec.highpass
        step = ref_dwt_step(ref_dwt_step(img, h, g).T, h, g).T
        dd = step[shape[0] // 2 :, shape[1] // 2 :]
        want = np.median(np.abs(dd)) / 0.6745
        assert estimate_sigma(np.array(img, order=order), spec) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("family", sorted(SPECS))
    @pytest.mark.parametrize("shape", [(32, 32), (64, 64), (64, 32), (16, 8)])
    def test_small_frames_are_the_dense_product_bit_for_bit(self, family, shape):
        n1, n2 = shape
        assert n1 * n2 * (n1 + n2) <= wavelet2d._DENSE_WORK
        spec = SPECS[family]
        img = np.random.default_rng(15).standard_normal(shape)
        dd = _matrix(spec, n1)[n1 // 2 :] @ img @ _matrix(spec, n2)[n2 // 2 :].T
        assert estimate_sigma(img, spec) == wavelet2d._median(np.abs(dd).ravel()) / 0.6745

    @pytest.mark.parametrize("family", sorted(SPECS))
    @pytest.mark.parametrize("n", [2, 4, 8, 32, 256])
    def test_finest_rows_of_W_are_the_one_level_detail_rows(self, family, n):
        # deeper levels only transform the first half, so the last n/2 rows
        # of the full-depth W are the detail rows of one analysis step
        spec = replace(SPECS[family])  # a fresh cache
        h, g = spec.taps, spec.highpass
        one_level = ref_dwt_step(np.eye(n), h, g).T
        assert np.array_equal(_matrix(spec, n)[n // 2 :], one_level[n // 2 :])


class TestBandOracle:
    """The block form, bit for bit against heads_detail_rows."""

    @pytest.mark.parametrize("layout", ["C", "transposed"])
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [32, 64, 256, 4096])
    def test_detail_rows(self, n, family, layout):
        # an axis of 32 is two blocks, so the last block's head is the first
        spec = replace(SPECS[family])  # a fresh cache
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 24)) if layout == "C" else rng.standard_normal((24, n)).T
        assert np.array_equal(wavelet2d._detail_rows(x, spec), heads_detail_rows(x, spec))

    @pytest.mark.parametrize("layout", ["C", "transposed"])
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("shape", [(256, 256), (128, 128), (512, 64), (32, 2048),
                                       (4096, 16), (16, 4096)])
    def test_estimate_sigma(self, shape, family, layout):
        # 4096 x 16 runs the blocks along its long axis and the dense H of
        # the short one
        spec = replace(SPECS[family])
        rng = np.random.default_rng(sum(shape))
        img = rng.standard_normal(shape) if layout == "C" else rng.standard_normal(shape[::-1]).T
        assert shape[0] * shape[1] * sum(shape) > wavelet2d._DENSE_WORK
        dd = heads_detail_rows(heads_detail_rows(img, spec).T, spec)
        assert estimate_sigma(img, spec) == np.median(np.abs(dd)) / 0.6745

    def test_one_band_per_spec_whatever_the_sides(self):
        # a 256 x 128 fit: W of each side, the 32-sample W the band is cut
        # from, and one band
        spec = WaveletSpec()
        grid = TimeGrid(n=8, T=5.0)
        data = 0.01 * np.random.default_rng(3).standard_normal((8, 256, 128))
        deconvolve(Cube(grid, data), np.exp(-grid.points / 2.0), spec, EstimatorConfig(M=4))
        # and sigma-hat's entry for the frame shape, which marks the block path
        assert sorted(spec._cache, key=str) == [(256, 128), 128, 256, 32, "band"]
        assert spec._cache[256, 128] == ()


class TestEstimateSigma:
    def test_zero_image(self):
        assert estimate_sigma(np.zeros((8, 8)), WaveletSpec()) == 0.0

    def test_white_noise_level(self):
        spec = WaveletSpec()
        vals = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            vals.append(estimate_sigma(rng.standard_normal((32, 32)), spec))
        assert 0.9 <= np.mean(vals) <= 1.1

    def test_smooth_signal_does_not_inflate(self):
        spec = WaveletSpec()
        rng = np.random.default_rng(7)
        noise = rng.standard_normal((32, 32))
        flat = estimate_sigma(noise, spec)
        shifted = estimate_sigma(noise + 5.0, spec)  # constants have no details
        assert shifted == pytest.approx(flat, rel=0.05)

    def test_scale_equivariance(self):
        spec = WaveletSpec()
        rng = np.random.default_rng(8)
        img = rng.standard_normal((16, 16))
        assert estimate_sigma(-3.0 * img, spec) == pytest.approx(
            3.0 * estimate_sigma(img, spec), rel=1e-12
        )

    def test_a_few_outliers_barely_move_the_mad(self):
        # the MAD is the only rule: 4 pixels of 4096 at 1000 sigma shift it
        # by a few percent, where the detail std would grow about thirtyfold
        spec = WaveletSpec()
        rng = np.random.default_rng(9)
        img = rng.standard_normal((64, 64))
        spiked = img.copy()
        spiked.flat[rng.choice(img.size, size=4, replace=False)] = 1000.0
        assert estimate_sigma(spiked, spec) == pytest.approx(estimate_sigma(img, spec), rel=0.05)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize(
        "shape", [(2, 2), (32, 32), (64, 64), (128, 64), (64, 128), (256, 256)]
    )
    def test_leaves_the_frame_alone_and_is_the_reference_mad(self, family, shape):
        # sigma-hat takes |d| and lets _median reorder it in place, on its
        # own product only.  A 2 x 2 frame has one coefficient, an odd count;
        # 64 x 64 has 1,024 details, the most that are sorted; 128 x 64 and
        # 64 x 128 run the dense product but partition their 2,048; a
        # 256 x 256 frame runs the block path, so its reference is that product.
        spec = WaveletSpec(family)
        img = np.random.default_rng(17).standard_normal(shape)
        kept = img.copy()
        n1, n2 = shape
        if n1 * n2 * (n1 + n2) <= wavelet2d._DENSE_WORK:
            dd = _matrix(spec, n1)[n1 // 2 :] @ img @ _matrix(spec, n2)[n2 // 2 :].T
        else:
            dd = wavelet2d._detail_rows(wavelet2d._detail_rows(img, spec).T, spec)
        assert estimate_sigma(img, spec) == np.median(np.abs(dd)) / 0.6745
        assert np.array_equal(img, kept)

    @pytest.mark.parametrize("n", [1, 2, 3, 32, 1023, 1024, 1025, 2048, 16384])
    @pytest.mark.parametrize("values", ["random", "ties", "equal"])
    def test_median_is_np_median_on_both_sides_of_the_sort_cutoff(self, n, values):
        # up to _SORT_MAX values are sorted, more are partitioned
        x = np.random.default_rng(n).standard_normal(n)
        if values == "ties":
            x = np.round(x, 1)
        elif values == "equal":
            x = np.full(n, 0.3)
        assert wavelet2d._median(x.copy()) == np.median(x)

    @pytest.mark.parametrize("shape", [(32, 32), (64, 16), (256, 256)])
    def test_one_entry_per_frame_shape(self, shape):
        # the first frame of a shape checks it and fixes its product; later
        # frames of that shape reuse it and give the same bits
        spec = WaveletSpec()
        rng = np.random.default_rng(21)
        first, second = rng.standard_normal((2,) + shape)
        want = [estimate_sigma(first, spec), estimate_sigma(second, spec)]
        entry = spec._cache[shape]
        assert [estimate_sigma(first, spec), estimate_sigma(second, spec)] == want
        assert spec._cache[shape] is entry
        n1, n2 = shape
        if n1 * n2 * (n1 + n2) > wavelet2d._DENSE_WORK:
            assert entry == ()
        else:
            H1, H2T = entry
            assert np.shares_memory(H1, spec._cache[n1]) and np.shares_memory(H2T, spec._cache[n2])
            assert np.array_equal(H1, _matrix(spec, n1)[n1 // 2 :])
            assert np.array_equal(H2T, _matrix(spec, n2)[n2 // 2 :].T)

    @pytest.mark.parametrize(
        "shape, msg",
        [((4, 4, 4), "expected a 2-D image"), ((6, 10), "n1 must be a power of two"),
         ((8, 12), "n2 must be a power of two")],
    )
    def test_a_rejected_shape_raises_on_every_call_and_stores_nothing(self, shape, msg):
        spec = WaveletSpec()
        for _ in range(2):
            with pytest.raises(ValueError, match=msg):
                estimate_sigma(np.ones(shape), spec)
        assert spec._cache == {}

    def test_a_shape_keeps_the_path_of_its_first_frame(self, monkeypatch):
        # a fresh spec first used with every frame sent down the block path
        # keeps that choice for the shape once the rule is back
        spec = WaveletSpec()
        img = np.random.default_rng(22).standard_normal((32, 32))
        monkeypatch.setattr(wavelet2d, "_DENSE_WORK", 0)
        blocks = estimate_sigma(img, spec)
        monkeypatch.undo()
        assert 32 * 32 * 64 <= wavelet2d._DENSE_WORK
        assert spec._cache[32, 32] == ()
        assert estimate_sigma(img, spec) == blocks
        assert spec._cache[32, 32] == ()
        dd = wavelet2d._detail_rows(wavelet2d._detail_rows(img, spec).T, spec)
        assert blocks == np.median(np.abs(dd)) / 0.6745

    def test_has_no_robust_switch(self):
        with pytest.raises(TypeError):
            estimate_sigma(np.zeros((8, 8)), WaveletSpec(), False)

    @pytest.mark.parametrize("shape", [(4, 4, 4), (8,), ()])
    def test_not_an_image(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"expected a 2-D image, got shape {shape}")):
            estimate_sigma(np.zeros(shape), WaveletSpec())

    @pytest.mark.parametrize(
        "shape, side",
        [((5, 7), "n1"), ((3, 4), "n1"), ((4, 3), "n2"),
         ((6, 10), "n1"), ((12, 20), "n1"), ((1, 4), "n1")],
    )
    def test_rejects_a_side_that_is_not_a_power_of_two_at_least_2(self, shape, side):
        # the transforms' layout rule, with their message
        bad = shape[0] if side == "n1" else shape[1]
        msg = f"{side} must be a power of two >= 2, got {bad}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            estimate_sigma(np.ones(shape), WaveletSpec())
