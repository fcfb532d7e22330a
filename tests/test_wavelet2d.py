import os
import re
import subprocess
import sys
import zlib
from pathlib import Path
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from lagdeconv import (
    Cube, EstimatorConfig, Plan, TimeGrid, WaveletSpec, deconvolve, estimator, wavelet2d,
)
from lagdeconv.wavelet2d import _matrix, dwt2_array, estimate_sigma, idwt2_array

FAMILIES = ["haar", "daub4", "daub6"]
SHAPES = [(32, 32), (16, 64), (2, 2), (128, 4)]


def case_seed(*params):
    """A case's seed, from its parameters' text: the same in every process,
    where hash() of a str changes with PYTHONHASHSEED."""
    return zlib.crc32(repr(params).encode())

# Published 6-tap Daubechies lowpass filter, the registry's daub6; at the
# coarsest levels (N = 2, 4) it is longer than the signal and wraps around it
# more than once.
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


def filters(family):
    """The family's lowpass taps h and highpass taps g, g_k = (-1)^k h_{L-1-k}."""
    h = wavelet2d._TAP_REGISTRY[family]
    return h, h[::-1] * (-1.0) ** np.arange(h.size)


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


def ref_transform(data, family, inverse=False):
    """Full-depth transform of the last two axes, one fancy-index step at a time."""
    h, g = filters(family)
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


def heads_detail_rows(x, family):
    """Oracle for _detail_rows: the block form with an index table of each
    block's next L - 2 samples (periodic in n), gathered by fancy indexing."""
    n, m = x.shape
    if n < 2 * wavelet2d._BLOCK:
        return _matrix(family, n)[n // 2 :] @ x
    B, L = wavelet2d._BLOCK, wavelet2d._TAP_REGISTRY[family].size
    H = _matrix(family, 2 * B)[B:]
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
        h = wavelet2d._TAP_REGISTRY[family]
        assert h @ h == pytest.approx(1.0, abs=1e-12)
        assert h.sum() == pytest.approx(np.sqrt(2.0), abs=1e-12)
        for shift in range(2, h.size, 2):
            assert abs(h[:-shift] @ h[shift:]) <= 1e-12

    def test_daub6_is_the_published_filter(self):
        assert wavelet2d._TAP_REGISTRY["daub6"].tobytes() == DAUB6.tobytes()

    # an L-tap Daubechies highpass filter has L/2 vanishing moments; it is
    # W's first finest-detail row, which no wrap reaches at n = 8
    @pytest.mark.parametrize("family, moments", [("haar", 1), ("daub4", 2), ("daub6", 3)])
    def test_highpass_vanishing_moments(self, family, moments):
        L = wavelet2d._TAP_REGISTRY[family].size
        g = _matrix(family, 8)[4, :L]
        k = np.arange(L)
        for p in range(moments):
            assert abs(k**p @ g) <= 1e-14
        assert abs(k**moments @ g) > 1e-3

    @pytest.mark.parametrize("family", FAMILIES)
    def test_w_is_orthogonal(self, family):
        for n in 2 ** np.arange(1, 9):
            W = _matrix(family, n)
            assert np.abs(W @ W.T - np.eye(n)).max() <= 1e-13

    @pytest.mark.parametrize("family", FAMILIES)
    def test_registry_rejects_writes(self, family):
        # the registry is the one source of the taps: no caller's edit reaches them
        with pytest.raises(ValueError, match="read-only"):
            wavelet2d._TAP_REGISTRY[family][0] = 0.0

    def test_unknown_family(self):
        with pytest.raises(ValueError, match=re.escape(
                "unknown wavelet family 'nope'; have ['daub4', 'daub6', 'haar']")):
            WaveletSpec(family="nope")

    # a list or an array family used to raise TypeError: unhashable type
    @pytest.mark.parametrize("family", [["daub4"], np.array(["daub4"])], ids=["list", "array"])
    def test_unknown_family_of_another_type(self, family):
        with pytest.raises(ValueError, match=re.escape(f"unknown wavelet family {family!r}; ")):
            WaveletSpec(family=family)

    def test_specs_compare_and_hash_by_value(self):
        a, b = WaveletSpec(), WaveletSpec()
        assert a == b and hash(a) == hash(b)
        assert WaveletSpec("haar") != a
        assert [f.name for f in fields(WaveletSpec) if f.init] == ["family"]
        with pytest.raises(FrozenInstanceError):
            a.family = "haar"


class TestTransform:
    def test_constant_image_concentrates_on_scaling(self):
        spec = WaveletSpec()
        c = dwt2_array(np.full((32, 32), 2.5), spec, (32, 32))
        assert c[0, 0] == pytest.approx(2.5 * 32.0, rel=1e-12)
        rest = c.copy()
        rest[0, 0] = 0.0
        assert np.abs(rest).max() <= 1e-10

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_perfect_reconstruction(self, family, shape):
        rng = np.random.default_rng(case_seed(family, shape))
        spec = WaveletSpec(family=family)
        img = rng.standard_normal(shape)
        back = idwt2_array(dwt2_array(img, spec, img.shape[-2:]), spec, img.shape[-2:])
        assert np.abs(back - img).max() <= 1e-10

    def test_every_process_draws_the_same_reconstruction_images(self):
        here = Path(__file__).resolve().parent
        code = ("import numpy as np, test_wavelet2d as t; print([np.random.default_rng("
                "t.case_seed(f, s)).standard_normal(s).sum() for f in t.FAMILIES for s in t.SHAPES])")
        path = os.pathsep.join([str(here), str(here.parent / "src")])
        drawn = {subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                                text=True, env={**os.environ, "PYTHONPATH": path,
                                                "PYTHONHASHSEED": seed}).stdout
                 for seed in ("1", "2")}
        assert len(drawn) == 1

    def test_parseval(self):
        rng = np.random.default_rng(1)
        img = rng.standard_normal((32, 32))
        c = dwt2_array(img, WaveletSpec(), img.shape[-2:])
        assert np.sum(c**2) == pytest.approx(np.sum(img**2), rel=1e-8)

    def test_inner_products_preserved(self):
        rng = np.random.default_rng(2)
        spec = WaveletSpec()
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        ca, cb = dwt2_array(a, spec, a.shape[-2:]), dwt2_array(b, spec, b.shape[-2:])
        assert np.sum(ca * cb) == pytest.approx(
            np.sum(a * b), rel=1e-8
        )

    def test_rejects_non_dyadic(self):
        # the transforms check no side (sigma-hat checks a fit's raster), but
        # the W of a side that is not a power of two fails on its odd level,
        # so a direct call never returns a wrong transform
        x = np.zeros((24, 32))
        with pytest.raises(ValueError):
            dwt2_array(x, WaveletSpec(), x.shape[-2:])
        with pytest.raises(ValueError):
            idwt2_array(x, WaveletSpec(), x.shape[-2:])

    @pytest.mark.parametrize(
        "shape, message",
        [((32, 24), "n2 must be a power of two >= 2, got 24"),
         ((24, 32), "n1 must be a power of two >= 2, got 24"),
         ((1, 8), "n1 must be a power of two >= 2, got 1"),
         ((8, 1), "n2 must be a power of two >= 2, got 1"),
         ((0, 8), "n1 must be a power of two >= 2, got 0"),
         # a frame that is not 2-D is named by its shape
         ((12,), "a frame must be 2-D, got shape (12,)"),
         ((2, 8, 8), "a frame must be 2-D, got shape (2, 8, 8)"),
         ((), "a frame must be 2-D, got shape ()")],
        ids=["n2-not-dyadic", "n1-not-dyadic", "n1-one", "n2-one", "n1-zero", "one-axis",
             "three-axes", "no-axis"],
    )
    def test_rejects_a_side_that_is_not_a_power_of_two_at_least_2(self, shape, message, cold):
        # the raster rule of the transforms, checked where a fit meets it:
        # sigma-hat on the first frame of a shape, which stores nothing for
        # a shape that fails
        spec = WaveletSpec()
        with pytest.raises(ValueError, match=re.escape(message)):
            estimate_sigma(np.zeros(shape), spec)
        assert wavelet2d._product.cache_info().currsize == 0

    @pytest.mark.parametrize("J1, J2", [(0, 0), (1, 3), (3, 1), (2, 4), (5, 5)], ids=str)
    def test_a_coarse_haar_image_lives_in_the_leading_block(self, J1, J2):
        # An image constant on 2^-J1 x 2^-J2 tiles is a sum of Haar scaling
        # functions of levels J1, J2: its coefficients are exactly the
        # levels below J1 and J2, the leading 2^J1 x 2^J2 block.
        rng = np.random.default_rng(10 * J1 + J2)
        tiles = rng.standard_normal((2**J1, 2**J2))
        img = np.kron(tiles, np.ones((32 >> J1, 32 >> J2)))
        c = dwt2_array(img, WaveletSpec("haar"), img.shape[-2:])
        r1, r2 = 2**J1, 2**J2
        outside = c.copy()
        outside[:r1, :r2] = 0.0
        assert np.abs(outside).max() <= 1e-13 * np.abs(img).max()
        assert np.sum(c[:r1, :r2] ** 2) == pytest.approx(np.sum(img**2), rel=1e-12)
        assert np.abs(c[r1 - 1, :r2]).max() > 1e-3 and np.abs(c[:r1, r2 - 1]).max() > 1e-3

    def test_zero_coefficients_to_zero_image(self):
        spec = WaveletSpec()
        assert np.all(idwt2_array(np.zeros((16, 16)), spec, (16, 16)) == 0.0)

    def test_unit_detail_atom_has_unit_norm(self):
        spec = WaveletSpec()
        values = np.zeros((32, 32))
        values[19, 7] = 1.0
        atom = idwt2_array(values, spec, values.shape[-2:])
        assert np.sum(atom**2) == pytest.approx(1.0, abs=1e-10)

    def test_roundtrip_from_coefficient_side(self):
        rng = np.random.default_rng(3)
        spec = WaveletSpec()
        values = rng.standard_normal((32, 32))
        img = idwt2_array(values, spec, values.shape[-2:])
        again = dwt2_array(img, spec, img.shape[-2:])
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
        full = dwt2_array(x, spec, x.shape[-2:])
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
                whole = idwt2_array(padded, spec, x.shape[-2:])
                assert np.abs(back - whole).max() <= 1e-14 * scale

    def test_whole_block_is_the_default_bit_for_bit(self):
        # the block (n1, n2) is the whole transform W1 X W2^T and its inverse
        spec = WaveletSpec()
        x = np.random.default_rng(4).standard_normal((2, 16, 32))
        W1, W2 = _matrix("daub4", 16), _matrix("daub4", 32)
        assert np.array_equal(dwt2_array(x, spec, (16, 32)), W1 @ x @ W2.T)
        c = dwt2_array(x, spec, (16, 32))
        assert np.array_equal(idwt2_array(c, spec, (16, 32)), W1.T @ c @ W2)

    # a batch of more than 8 images runs in slabs of 8, the first product in
    # one reused buffer, the second into the output: each image meets the
    # same BLAS call with the same strides as in the single expression
    @pytest.mark.parametrize("layout", ["C", "strided", "transposed", "float32"])
    @pytest.mark.parametrize("block", [(16, 32), (4, 8), (1, 32)], ids=str)
    @pytest.mark.parametrize(
        "batch", [(), (1,), (8,), (9,), (17,), (64,), (3, 5), (2, 9)], ids=str
    )
    def test_a_batch_is_the_single_expression_bit_for_bit(self, batch, block, layout):
        spec = WaveletSpec()
        rng = np.random.default_rng(len(batch) + sum(batch))
        if layout == "transposed":  # each image F-ordered
            x = rng.standard_normal(batch + (32, 16)).swapaxes(-1, -2)
        elif layout == "strided" and batch:  # every other image of a longer last batch axis
            x = rng.standard_normal(batch[:-1] + (2 * batch[-1], 16, 32))[..., ::2, :, :]
        elif layout == "strided":  # every other column
            x = rng.standard_normal((16, 64))[:, ::2]
        else:
            x = rng.standard_normal(batch + (16, 32)).astype(np.float32 if layout == "float32"
                                                             else np.float64)
        r1, r2 = block
        W1, W2 = _matrix("daub4", 16)[:r1], _matrix("daub4", 32)[:r2]
        c = dwt2_array(x, spec, block)
        assert np.array_equal(c, W1 @ x @ W2.T)
        assert np.array_equal(idwt2_array(c, spec, (16, 32)), W1.T @ c @ W2)

    # a block slices each side's rows as numpy slices do, so a side past n
    # is the whole side (1 to n: the corner test above)
    def test_a_block_past_the_array_is_the_whole_transform_bit_for_bit(self):
        spec = WaveletSpec()
        x = np.random.default_rng(6).standard_normal((3, 16, 32))
        assert np.array_equal(dwt2_array(x, spec, (19, 35)), dwt2_array(x, spec, (16, 32)))

    @pytest.mark.parametrize(
        "coeffs, shape",
        [((17, 4), (16, 32)), ((4, 33), (16, 32)), ((4, 4), (12, 32)), ((4, 4), (16,))],
        ids=["taller", "wider", "not-dyadic", "one-side"],
    )
    def test_rejects_coefficients_that_do_not_fit_the_shape(self, coeffs, shape):
        # the shape is unchecked, but a block larger than it, a side whose W
        # fails on its odd level, or a shape without two sides all raise
        with pytest.raises(ValueError):
            idwt2_array(np.zeros(coeffs), WaveletSpec(), shape)

    def test_numpy_integer_sides_are_sides(self):
        # a shape given as numpy integers is used like plain ints
        spec = WaveletSpec()
        c = dwt2_array(np.random.default_rng(3).standard_normal((16, 32)), spec, (4, 8))
        want = idwt2_array(c, spec, (16, 32))
        assert np.array_equal(idwt2_array(c, spec, (np.int64(16), np.int32(32))), want)


class TestOneRasterCheck:
    def test_a_fit_checks_each_new_frame_shape_once(self, monkeypatch, cold):
        # sigma-hat checks the first frame of a shape; the transforms take
        # the block the plan builds and check nothing
        calls, check = [], wavelet2d._axes

        def counted(shape):
            calls.append(shape)
            return check(shape)

        monkeypatch.setattr(wavelet2d, "_axes", counted)
        grid = TimeGrid(n=8, T=5.0)
        plan = Plan(grid, np.exp(-grid.points / 2.0), WaveletSpec(), EstimatorConfig(M=4),
                    g_zero=1.0)
        rng = np.random.default_rng(23)
        square, wide = (Cube(grid, 0.01 * rng.standard_normal((8, *s)))
                        for s in [(16, 16), (32, 8)])
        for Y, want in [(square, [(16, 16)]), (wide, [(32, 8)]), (square, []), (wide, [])]:
            calls.clear()
            plan.apply(Y)
            assert calls == want
        spec = WaveletSpec()
        idwt2_array(dwt2_array(rng.standard_normal((2, 8, 64)), spec, (4, 8)), spec, (8, 64))
        assert calls == []

    @pytest.mark.parametrize("shape", [(12, 16), (16, 1), (0, 8)], ids=["12x16", "16x1", "0x8"])
    def test_a_bad_raster_fails_before_either_transform(self, monkeypatch, shape):
        # a fit runs sigma-hat, and so the raster check, before it transforms
        ran = []
        for name in ["dwt2_array", "idwt2_array"]:
            monkeypatch.setattr(estimator, name, lambda *args, name=name: ran.append(name))
        grid = TimeGrid(n=8, T=5.0)
        plan = Plan(grid, np.exp(-grid.points / 2.0), WaveletSpec(), EstimatorConfig(M=4),
                    g_zero=1.0)
        with pytest.raises(ValueError, match="must be a power of two >= 2"):
            plan.apply(Cube(grid, np.ones((8, *shape))))
        assert ran == []


class TestReferenceFilterBank:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize(
        "shape",
        [(3, 16, 8), (2, 8, 32), (2, 16, 16), (1, 8, 256),
         (1, 2, 2), (2, 4, 64), (1, 128, 4), (2, 32, 2)],
    )
    def test_matches_fancy_index_steps(self, family, shape):
        spec = WaveletSpec(family)
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape)
        scale = np.abs(x).max()
        ref = ref_transform(x, family)
        assert np.abs(dwt2_array(x, spec, x.shape[-2:]) - ref).max() <= 1e-13 * scale
        back = ref_transform(x, family, inverse=True)
        assert np.abs(idwt2_array(x, spec, x.shape[-2:]) - back).max() <= 1e-13 * scale

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_spec_serves_several_shapes(self, family, cold):
        # W is cached per side; a second shape must not pick up the first
        # shape's matrices
        spec = WaveletSpec(family)
        rng = np.random.default_rng(14)
        for shape in [(16, 16), (32, 8)]:
            x = rng.standard_normal(shape)
            scale = np.abs(x).max()
            ref = ref_transform(x, family)
            assert np.abs(dwt2_array(x, spec, x.shape[-2:]) - ref).max() <= 1e-13 * scale
            back = ref_transform(x, family, inverse=True)
            assert np.abs(idwt2_array(x, spec, x.shape[-2:]) - back).max() <= 1e-13 * scale

    def test_w_and_the_sigma_blocks_reject_writes(self, cold):
        # one W serves every equal spec in the process
        spec = WaveletSpec()
        estimate_sigma(np.ones((16, 8)), spec)
        for table in (_matrix("daub4", 16), _matrix("daub4", 8),
                      *wavelet2d._product("daub4", (16, 8))):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0

    def test_daub6_wraps_at_coarse_levels(self):
        # 6 taps on 16 x 8 at full depth: the last levels filter N = 2 and 4
        spec = WaveletSpec("daub6")
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 16, 8))
        c = dwt2_array(x, spec, x.shape[-2:])
        assert np.abs(idwt2_array(c, spec, x.shape[-2:]) - x).max() <= 1e-12
        assert np.sum(c**2) == pytest.approx(np.sum(x**2), rel=1e-12)

    # The estimate must not depend on how the frame is laid out in memory:
    # "F" passes a column-major copy, so the products and the blocks'
    # reshape read strided data.
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_sigma_reads_the_reference_detail_quadrant(self, family, order):
        self.check_sigma(family, (16, 8), order)

    @pytest.mark.parametrize("path", ["default", "blocks"])
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "shape",
        [(64, 64), (128, 32), (32, 256), (256, 256), (512, 64),
         # an axis shorter than two blocks is applied by its own H
         (2, 2048), (16, 1024), (1024, 8)],
    )
    def test_sigma_on_many_blocks(self, monkeypatch, path, family, order, shape, cold):
        # "blocks" sends every frame down the block path, small ones
        # included; the cold caches keep no other test's path for the shape
        if path == "blocks":
            monkeypatch.setattr(wavelet2d, "_DENSE_WORK", 0)
        self.check_sigma(family, shape, order)

    def check_sigma(self, family, shape, order):
        rng = np.random.default_rng(13)
        img = rng.standard_normal(shape)
        h, g = filters(family)
        step = ref_dwt_step(ref_dwt_step(img, h, g).T, h, g).T
        dd = step[shape[0] // 2 :, shape[1] // 2 :]
        want = np.median(np.abs(dd)) / 0.6745
        spec = WaveletSpec(family)
        assert estimate_sigma(np.array(img, order=order), spec) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("shape", [(32, 32), (64, 64), (64, 32), (16, 8)])
    def test_small_frames_are_the_dense_product_bit_for_bit(self, family, shape):
        n1, n2 = shape
        assert n1 * n2 * (n1 + n2) <= wavelet2d._DENSE_WORK
        img = np.random.default_rng(15).standard_normal(shape)
        dd = _matrix(family, n1)[n1 // 2 :] @ img @ _matrix(family, n2)[n2 // 2 :].T
        assert (estimate_sigma(img, WaveletSpec(family))
                == wavelet2d._median(np.abs(dd).ravel()) / 0.6745)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [2, 4, 8, 32, 256])
    def test_finest_rows_of_W_are_the_one_level_detail_rows(self, family, n):
        # deeper levels only transform the first half, so the last n/2 rows
        # of the full-depth W are the detail rows of one analysis step
        one_level = ref_dwt_step(np.eye(n), *filters(family)).T
        assert np.array_equal(_matrix(family, n)[n // 2 :], one_level[n // 2 :])


class TestBandOracle:
    """The block form, bit for bit against heads_detail_rows."""

    @pytest.mark.parametrize("layout", ["C", "transposed"])
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [32, 64, 256, 4096])
    def test_detail_rows(self, n, family, layout):
        # an axis of 32 is two blocks, so the last block's head is the first
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 24)) if layout == "C" else rng.standard_normal((24, n)).T
        assert np.array_equal(wavelet2d._detail_rows(x, family), heads_detail_rows(x, family))

    @pytest.mark.parametrize("layout", ["C", "transposed"])
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("shape", [(256, 256), (128, 128), (512, 64), (32, 2048),
                                       (4096, 16), (16, 4096)])
    def test_estimate_sigma(self, shape, family, layout):
        # 4096 x 16 runs the blocks along its long axis and the dense H of
        # the short one
        rng = np.random.default_rng(sum(shape))
        img = rng.standard_normal(shape) if layout == "C" else rng.standard_normal(shape[::-1]).T
        assert shape[0] * shape[1] * sum(shape) > wavelet2d._DENSE_WORK
        dd = heads_detail_rows(heads_detail_rows(img, family).T, family)
        assert estimate_sigma(img, WaveletSpec(family)) == np.median(np.abs(dd)) / 0.6745

    def test_a_fit_caches_w_per_side_and_one_entry_per_frame_shape(self, cold):
        # a 256 x 128 fit: W of each side and the 32-sample W whose detail
        # rows the block path cuts where it applies them, no other table
        spec = WaveletSpec()
        grid = TimeGrid(n=8, T=5.0)
        data = 0.01 * np.random.default_rng(3).standard_normal((8, 256, 128))
        deconvolve(Cube(grid, data), np.exp(-grid.points / 2.0), spec, EstimatorConfig(M=4))
        # and sigma-hat's entry for the frame shape, which marks the block path
        W, product = wavelet2d._matrix.cache_info, wavelet2d._product.cache_info
        assert (W().currsize, product().currsize) == (3, 1)
        misses = (W().misses, product().misses)
        for n in (256, 128, 32):
            _matrix("daub4", n)
        assert wavelet2d._product("daub4", (256, 128)) == ()
        assert (W().misses, product().misses) == misses


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
            dd = _matrix(family, n1)[n1 // 2 :] @ img @ _matrix(family, n2)[n2 // 2 :].T
        else:
            dd = wavelet2d._detail_rows(wavelet2d._detail_rows(img, family).T, family)
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
    def test_one_entry_per_frame_shape(self, shape, cold):
        # the first frame of a shape checks it and fixes its product; later
        # frames of that shape, through any equal spec, reuse it and give
        # the same bits
        spec = WaveletSpec()
        rng = np.random.default_rng(21)
        first, second = rng.standard_normal((2,) + shape)
        want = [estimate_sigma(first, spec), estimate_sigma(second, spec)]
        entry = wavelet2d._product("daub4", shape)
        assert [estimate_sigma(first, WaveletSpec()), estimate_sigma(second, spec)] == want
        assert wavelet2d._product("daub4", shape) is entry
        assert wavelet2d._product.cache_info().misses == 1
        n1, n2 = shape
        if n1 * n2 * (n1 + n2) > wavelet2d._DENSE_WORK:
            assert entry == ()
        else:
            H1, H2T = entry
            assert np.shares_memory(H1, _matrix("daub4", n1))
            assert np.shares_memory(H2T, _matrix("daub4", n2))
            assert np.array_equal(H1, _matrix("daub4", n1)[n1 // 2 :])
            assert np.array_equal(H2T, _matrix("daub4", n2)[n2 // 2 :].T)

    @pytest.mark.parametrize(
        "shape, msg",
        [((6, 10), "n1 must be a power of two"), ((8, 12), "n2 must be a power of two")],
    )
    def test_a_rejected_shape_raises_on_every_call_and_stores_nothing(self, shape, msg, cold):
        spec = WaveletSpec()
        for _ in range(2):
            with pytest.raises(ValueError, match=msg):
                estimate_sigma(np.ones(shape), spec)
        assert wavelet2d._matrix.cache_info().currsize == 0
        assert wavelet2d._product.cache_info().currsize == 0

    def test_a_shape_keeps_the_path_of_its_first_frame(self, monkeypatch, cold):
        # a shape first met with every frame sent down the block path keeps
        # that choice once the rule is back, until the caches are cleared
        spec = WaveletSpec()
        img = np.random.default_rng(22).standard_normal((32, 32))
        monkeypatch.setattr(wavelet2d, "_DENSE_WORK", 0)
        blocks = estimate_sigma(img, spec)
        monkeypatch.undo()
        assert 32 * 32 * 64 <= wavelet2d._DENSE_WORK
        assert estimate_sigma(img, spec) == blocks
        assert wavelet2d._product("daub4", (32, 32)) == ()
        dd = wavelet2d._detail_rows(wavelet2d._detail_rows(img, "daub4").T, "daub4")
        assert blocks == np.median(np.abs(dd)) / 0.6745

    def test_has_no_robust_switch(self):
        with pytest.raises(TypeError):
            estimate_sigma(np.zeros((8, 8)), WaveletSpec(), False)

    @pytest.mark.parametrize(
        "shape, side",
        [((5, 7), "n1"), ((3, 4), "n1"), ((4, 3), "n2"),
         ((6, 10), "n1"), ((12, 20), "n1"), ((1, 4), "n1")],
    )
    def test_rejects_a_side_that_is_not_a_power_of_two_at_least_2(self, shape, side):
        # the raster rule, with its message
        bad = shape[0] if side == "n1" else shape[1]
        msg = f"{side} must be a power of two >= 2, got {bad}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            estimate_sigma(np.ones(shape), WaveletSpec())
