import math
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest

from lagdeconv import laguerre, simulate, wavelet2d
from lagdeconv import (
    Cube,
    EstimatorConfig,
    Plan,
    TimeGrid,
    WaveletSpec,
    deconvolve,
    relative_error,
)
from lagdeconv.laguerre import _series_with_zero
from lagdeconv.simulate import (
    REFERENCE_TABLE1,
    TEST_FUNCTION_IDS,
    SimConfig,
    Table1Row,
    add_noise,
    default_kernel,
    eval_test_function,
    forward_convolve,
    run_single,
    run_table1,
    zero_time_slice,
)

# an SNR so small that sd(q)/snr overflows once failed on the noisy cube,
# as "cube data must be finite"
TINY_SNR_MESSAGE = "snr must be large enough that sd(q)/snr is finite, got 1e-320"


def bad_snrs(*snrs):
    """(snr, message) cases: each snr that is not a positive real, then 1e-320."""
    return [pytest.param(snr, f"snr must be a positive finite real, got {snr!r}", id=repr(snr))
            for snr in snrs] + [pytest.param(1e-320, TINY_SNR_MESSAGE, id="1e-320")]


class TestSimConfig:
    @pytest.mark.parametrize("kwargs", [
        {"T": math.inf}, {"T": 0.0}, {"n": 2.5}, {"n": 0},
        {"n1": 2.5}, {"n2": 2.5}, {"n1": 0}, {"n2": "32"},
        pytest.param({"T": 10**400}, id="{'T': 10**400}"),
    ], ids=repr)
    def test_rejects_a_bad_grid_when_built(self, kwargs):
        # T and n are checked by the TimeGrid the config builds; n = 2.5
        # and T = inf used to construct and fail on the first .grid, and
        # n1 = 2.5 built a 3-pixel axis reaching x = 1.2
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "7", None], ids=repr)
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
            SimConfig(seed=seed)

    # run_table1 is the only reader of runs; 2.5 and "3" used to construct
    # and then fail inside it with a TypeError.
    @pytest.mark.parametrize("runs", [1, 0, 2.5, "3", True, None], ids=repr)
    def test_rejects_runs_that_give_no_standard_error(self, runs):
        with pytest.raises(ValueError, match=f"need at least 2 runs for a standard error, got {runs!r}"):
            SimConfig(runs=runs)

    def test_accepts_a_numpy_integer_seed(self):
        assert SimConfig(seed=np.int64(0)).seed == 0

    def test_accepts_a_numpy_integer_run_count(self):
        assert SimConfig(runs=np.int64(2)).runs == 2

    def test_accepts_numpy_integers_and_one_frame(self):
        cfg = SimConfig(n=1, n1=np.int64(4), n2=np.int32(2))
        assert cfg.grid == TimeGrid(n=1, T=5.0)
        assert [x.size for x in cfg.spatial_points()] == [4, 2]

    @pytest.mark.parametrize("field", ["n", "n1", "n2"])
    @pytest.mark.parametrize("value", [True, False], ids=repr)
    def test_rejects_a_bool_size(self, field, value):
        with pytest.raises(ValueError, match=f"{field} .*must be .*positive integer"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("field", ["n", "n1", "n2"])
    def test_accepts_a_numpy_integer_size(self, field):
        assert getattr(SimConfig(**{field: np.int64(8)}), field) == 8

    # run_table1 ignored an snr field and ran its snrs; the SNR is an
    # argument of run_table1, run_single and add_noise, which check it
    def test_has_no_snr_field(self):
        with pytest.raises(TypeError, match="'snr'"):
            SimConfig(snr=5.0)

    def test_its_grid_is_the_value_of_n_and_T(self):
        cfg = SimConfig(n=16, T=4)
        assert cfg.grid == TimeGrid(n=16, T=4.0)

    def test_compares_and_hashes_by_its_fields(self):
        a, b = SimConfig(), SimConfig()
        assert a == b and hash(a) == hash(b)
        assert a.grid == b.grid
        assert SimConfig(seed=1) != a

    def test_two_table_runs_on_one_config_tabulate_the_basis_once(self, monkeypatch, cold):
        # a third run, on equal grid values with a new seed, new runs and a
        # list of SNRs, builds no truth, convolution, basis or W either
        calls = {"truth": 0, "convolve": 0, "rows": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(simulate, "_test_function",
                            counted("truth", simulate._test_function))
        monkeypatch.setattr(simulate, "forward_convolve",
                            counted("convolve", simulate.forward_convolve))
        monkeypatch.setattr(laguerre, "_phi_rows", counted("rows", laguerre._phi_rows))
        W = wavelet2d._matrix.cache_info  # the 8-pixel W, built once
        cfg = SimConfig(n=16, n1=8, n2=8, runs=2)
        first = run_table1(cfg, snrs=(3.0,))
        assert all(calls.values()) and calls["rows"] == 1 and W().misses == 1, calls
        calls.update(dict.fromkeys(calls, 0))
        assert run_table1(cfg, snrs=(3.0,)) == first
        run_table1(SimConfig(n=16, n1=8, n2=8, runs=3, seed=2), snrs=[5.0, 7.0])
        assert calls == {"truth": 0, "convolve": 0, "rows": 0} and W().misses == 1


class TestTestFunctions:
    def test_f1_vanishes_at_time_zero(self):
        cfg = SimConfig(n=8, n1=8, n2=8)
        assert np.all(zero_time_slice("f1", cfg) == 0.0)

    def test_f2_zero_at_center(self):
        # cos(2 pi * 0.5 * 0.5) = cos(pi/2) = 0 at x1 = x2 = 0.5
        cfg = SimConfig(n=8, n1=32, n2=32)
        cube = eval_test_function("f2", cfg)
        assert cube.data[:, 15, 15] == pytest.approx(0.0, abs=1e-12)

    def test_f4_minus_f2_is_time_independent(self):
        cfg = SimConfig(n=16, n1=8, n2=8)
        diff = eval_test_function("f4", cfg).data - eval_test_function("f2", cfg).data
        x1, x2 = cfg.spatial_points()
        poly = np.outer((x1 - 0.5) ** 2, (x2 - 0.5) ** 2)
        assert np.allclose(diff, poly[None, :, :], atol=1e-12)

    def test_f3_is_sum_of_f1_and_f2(self):
        cfg = SimConfig(n=8, n1=8, n2=8)
        f1 = eval_test_function("f1", cfg).data
        f2 = eval_test_function("f2", cfg).data
        f3 = eval_test_function("f3", cfg).data
        assert np.allclose(f3, f1 + f2, atol=1e-14)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            eval_test_function("f9", SimConfig())

    # The closed forms evaluated on the full (t, x1, x2) meshgrid, the way
    # they were before each factor was evaluated on its own axis.
    @staticmethod
    def meshgrid_reference(fid, cfg):
        x1, x2 = cfg.spatial_points()
        tt, xx1, xx2 = np.meshgrid(cfg.grid.points, x1, x2, indexing="ij")
        poly = (xx1 - 0.5) ** 2 * (xx2 - 0.5) ** 2
        cosine = np.cos(2.0 * np.pi * xx1 * xx2)
        return {
            "f1": tt * np.exp(-tt) * poly,
            "f2": np.exp(-tt / 2.0) * cosine,
            "f3": tt * np.exp(-tt) * poly + np.exp(-tt / 2.0) * cosine,
            "f4": np.exp(-tt / 2.0) * cosine + poly,
        }[fid]

    @pytest.mark.parametrize("fid", ["f1", "f2", "f3", "f4"])
    @pytest.mark.parametrize("n, n1, n2", [(32, 32, 32), (32, 256, 256), (7, 16, 8), (1, 2, 4)])
    def test_broadcast_evaluation_matches_the_meshgrid(self, fid, n, n1, n2):
        cfg = SimConfig(n=n, n1=n1, n2=n2)
        data = eval_test_function(fid, cfg).data
        assert data.shape == (n, n1, n2) and data.flags.c_contiguous
        assert np.array_equal(data, self.meshgrid_reference(fid, cfg))


class TestForwardConvolve:
    def grid_setup(self, n=1024, T=40.0):
        grid = TimeGrid(n=n, T=T)
        return grid, default_kernel(grid.points)

    def test_exponential_times_exponential(self):
        # int_0^t e^{-(t-z)/2} e^{-z/2} dz = t e^{-t/2}
        grid, g = self.grid_setup()
        f = Cube(grid=grid, data=np.exp(-grid.points / 2.0)[:, None, None])
        q = forward_convolve(f, g, g_zero=1.0, f_zero=np.ones((1, 1)))
        exact = grid.points * np.exp(-grid.points / 2.0)
        rel = np.linalg.norm(q.data[:, 0, 0] - exact) / np.linalg.norm(exact)
        assert rel < 1e-3

    def test_ramp_profile(self):
        # int_0^t e^{-(t-z)/2} z e^{-z} dz = e^{-t/2}(4 - (2t+4)e^{-t/2})
        grid, g = self.grid_setup()
        prof = grid.points * np.exp(-grid.points)
        f = Cube(grid=grid, data=prof[:, None, None])
        q = forward_convolve(f, g, g_zero=1.0, f_zero=np.zeros((1, 1)))
        exact = np.exp(-grid.points / 2.0) * (
            4.0 - (2.0 * grid.points + 4.0) * np.exp(-grid.points / 2.0)
        )
        rel = np.linalg.norm(q.data[:, 0, 0] - exact) / np.linalg.norm(exact)
        assert rel < 1e-3

    def test_zero_input(self):
        grid, g = self.grid_setup(n=16, T=5.0)
        q = forward_convolve(Cube(grid=grid, data=np.zeros((16, 2, 2))), g)
        assert np.all(q.data == 0.0)

    def test_linearity_in_f_and_g(self):
        grid = TimeGrid(n=32, T=5.0)
        rng = np.random.default_rng(0)
        a = Cube(grid=grid, data=rng.standard_normal((32, 4, 4)))
        b = Cube(grid=grid, data=rng.standard_normal((32, 4, 4)))
        g1 = rng.standard_normal(32)
        g2 = rng.standard_normal(32)
        lhs = forward_convolve(
            Cube(grid=grid, data=2 * a.data + 3 * b.data), g1
        ).data
        rhs = 2 * forward_convolve(a, g1).data + 3 * forward_convolve(b, g1).data
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
        lhs_g = forward_convolve(a, g1 + g2).data
        rhs_g = forward_convolve(a, g1).data + forward_convolve(a, g2).data
        assert np.allclose(lhs_g, rhs_g, rtol=1e-12, atol=1e-12)

    def test_causality(self):
        # q at t_k must not see f samples later than t_k
        grid = TimeGrid(n=32, T=5.0)
        rng = np.random.default_rng(1)
        data = rng.standard_normal((32, 2, 2))
        g = default_kernel(grid.points)
        q1 = forward_convolve(Cube(grid=grid, data=data), g, g_zero=1.0)
        bumped = data.copy()
        bumped[20:] += 5.0
        q2 = forward_convolve(Cube(grid=grid, data=bumped), g, g_zero=1.0)
        assert np.allclose(q1.data[:19], q2.data[:19], atol=1e-12)
        assert not np.allclose(q1.data[20:], q2.data[20:])

    def test_grid_mismatch(self):
        grid = TimeGrid(n=32, T=5.0)
        with pytest.raises(ValueError):
            forward_convolve(Cube(grid=grid, data=np.zeros((32, 2, 2))), np.ones(16))

    # 10**400 used to end in OverflowError, "1" and True were used as 1.0,
    # a NaN failed as "cube data must be finite" and a (2, 2) f_zero with
    # numpy's broadcast message
    @pytest.mark.parametrize(
        "change, message",
        [({"g_zero": 10**400}, f"g_zero must be a finite real, got {10**400}"),
         ({"g_zero": "1"}, "g_zero must be a finite real, got '1'"),
         ({"g_zero": True}, "g_zero must be a finite real, got True"),
         ({"g_zero": math.nan}, "g_zero must be a finite real, got nan"),
         ({"g_zero": np.ones(1)}, "g_zero must be a finite real, got array"),
         ({"g_sample": math.nan}, "kernel samples must be finite"),
         ({"g_sample": -math.inf}, "kernel samples must be finite"),
         ({"f_zero": math.nan}, "f_zero must be a finite array that broadcasts to shape (4, 4)"),
         ({"f_zero": np.zeros((2, 2))},
          "f_zero must be a finite array that broadcasts to shape (4, 4)"),
         ({"f_zero": [[10**400]]}, "f_zero must be a finite array that broadcasts"),
         ({"f_zero": np.full((4, 4), "1")}, "f_zero must be a finite array that broadcasts"),
         ({"f_zero": np.ones((4, 4), dtype=bool)},
          "f_zero must be a finite array that broadcasts")],
        ids=["g0-10**400", "g0-str", "g0-True", "g0-nan", "g0-array", "g-nan", "g-inf",
             "f0-nan", "f0-2x2", "f0-10**400", "f0-str", "f0-bool"],
    )
    def test_rejects_a_bad_kernel_or_t0_value_by_name(self, change, message):
        grid = TimeGrid(n=8, T=5.0)
        f = Cube(grid=grid, data=np.ones((8, 4, 4)))
        g = default_kernel(grid.points)
        g[3] = change.pop("g_sample", g[3])
        with pytest.raises(ValueError, match=re.escape(message)):
            forward_convolve(f, g, **change)

    @pytest.mark.parametrize(
        "f_zero", [2.0, 2, np.int64(2), [[2.0, 2.0, 2.0, 2.0]], np.full((4, 1), 2.0)],
        ids=["float", "int", "np.int64", "row", "column"],
    )
    def test_takes_an_f_zero_that_broadcasts_to_one_frame(self, f_zero):
        grid = TimeGrid(n=8, T=5.0)
        f = Cube(grid=grid, data=np.ones((8, 4, 4)))
        g = default_kernel(grid.points)
        want = forward_convolve(f, g, g_zero=1, f_zero=np.full((4, 4), 2.0)).data
        assert np.array_equal(forward_convolve(f, g, g_zero=1.0, f_zero=f_zero).data, want)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 32, 64, 1024])
    @pytest.mark.parametrize("exact_zeros", [False, True])
    def test_matches_the_row_by_row_trapezoid(self, n, exact_zeros):
        # references: one trapezoid row per output time, built in a loop, and
        # the whole quadrature matrix built from index grids
        grid = TimeGrid(n=n, T=5.0)
        rng = np.random.default_rng(n)
        f = Cube(grid=grid, data=rng.standard_normal((n, 2, 3)))
        g = rng.standard_normal(n)
        g_zero, f_zero = (1.5, rng.standard_normal((2, 3))) if exact_zeros else (None, None)
        g_full = _series_with_zero(g, g_zero)
        f_full = _series_with_zero(f.data, f_zero)
        rows = np.zeros((n, n + 1))
        for k in range(1, n + 1):
            w = np.full(k + 1, grid.step)
            w[0] *= 0.5
            w[-1] *= 0.5
            rows[k - 1, : k + 1] = w * g_full[k::-1]
        want = np.tensordot(rows, f_full, axes=(1, 0))
        got = forward_convolve(f, g, g_zero=g_zero, f_zero=f_zero).data
        assert np.array_equal(got, want)
        k = np.arange(1, n + 1)[:, None]
        j = np.arange(n + 1)[None, :]
        w = np.where((j == 0) | (j == k), 0.5 * grid.step, grid.step)
        grid_rows = np.where(j <= k, w * g_full[np.maximum(k - j, 0)], 0.0)
        want = np.tensordot(grid_rows, f_full, axes=(1, 0))
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestAddNoise:
    def base_cube(self):
        cfg = SimConfig()
        f = eval_test_function("f2", cfg)
        return forward_convolve(
            f,
            default_kernel(cfg.grid.points),
            g_zero=1.0,
            f_zero=zero_time_slice("f2", cfg),
        )

    def test_huge_snr_is_noiseless(self):
        q = self.base_cube()
        Y, sigma = add_noise(q, 1e12, seed=0)
        assert sigma == pytest.approx(q.data.std() / 1e12)
        assert np.abs(Y.data - q.data).max() <= 1e-9

    def test_seed_determinism(self):
        q = self.base_cube()
        Y1, _ = add_noise(q, 3.0, seed=42)
        Y2, _ = add_noise(q, 3.0, seed=42)
        assert np.array_equal(Y1.data, Y2.data)
        Y3, _ = add_noise(q, 3.0, seed=43)
        assert not np.array_equal(Y1.data, Y3.data)

    def test_empirical_sigma(self):
        q = self.base_cube()
        Y, sigma = add_noise(q, 3.0, seed=7)
        resid = Y.data - q.data
        assert resid.std() == pytest.approx(sigma, rel=0.02)

    def test_in_place_draw_matches_the_out_of_place_sum(self):
        q = self.base_cube()
        Y, sigma = add_noise(q, 3.0, seed=9)
        z = np.random.Generator(np.random.Philox(9)).standard_normal(q.data.shape)
        assert np.array_equal(Y.data, q.data + sigma * z)

    # seed=True and snr=True used to run as seed 1 and SNR 1, and seed=2.5
    # raised numpy's TypeError
    @pytest.mark.parametrize(
        "seed", [True, False, 2.5, np.float64(3.0), "7", None, -1], ids=repr
    )
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        msg = f"seed must be a non-negative integer, got {seed!r}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            add_noise(self.base_cube(), 3.0, seed)

    @pytest.mark.parametrize("snr, message", bad_snrs(True, False, "3", None, -3.0, 0.0))
    def test_rejects_an_snr_that_is_not_a_positive_real(self, snr, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            add_noise(self.base_cube(), snr, 0)

    def test_accepts_a_numpy_integer_seed_and_real_snr(self):
        q = self.base_cube()
        Y, sigma = add_noise(q, np.float64(3.0), np.int64(5))
        want, _ = add_noise(q, 3.0, 5)
        assert np.array_equal(Y.data, want.data)

    def test_zero_variance_rejected(self):
        grid = TimeGrid(n=8, T=5.0)
        q = Cube(grid=grid, data=np.ones((8, 4, 4)))
        with pytest.raises(ValueError):
            add_noise(q, 3.0, seed=0)

    # a finite q whose squares, or whose sum, overflow gave an sd(q) of inf or
    # nan, and add_noise then failed on the noisy cube as "cube data must be
    # finite"; sd(q) is now named before the SNR checks and before any draw
    @pytest.mark.parametrize("values", [
        np.linspace(0.0, 8e200, 32), np.tile([1.7e308, -1.7e308], 16),
    ], ids=["squares overflow", "sum overflows"])
    def test_an_sd_that_overflows_is_named(self, monkeypatch, values):
        monkeypatch.setattr(simulate, "_unit_noise", None)
        q = Cube(grid=TimeGrid(n=8, T=5.0), data=values.reshape(8, 2, 2))
        with pytest.raises(ValueError, match=r"sd\(q\) must be finite"):
            add_noise(q, 3.0, 0)
        with pytest.raises(ValueError, match=r"sd\(q\) must be finite"):
            simulate._noise_sd(q)

    def test_eps_hat_tracks_injected_noise(self):
        q = self.base_cube()
        cfg = SimConfig()
        plan = Plan(cfg.grid, default_kernel(cfg.grid.points), WaveletSpec(),
                    EstimatorConfig(M=1, threshold_mode=False), g_zero=1.0)
        ratios = []
        for seed in range(100):
            Y, sigma = add_noise(q, 3.0, seed)
            target = cfg.T * sigma / np.sqrt(cfg.n)
            ratios.append(plan.apply(Y)[1].eps_hat / target)
        assert abs(np.mean(ratios) - 1.0) <= 0.15


class TestRelativeError:
    def cube(self, data):
        return Cube(grid=TimeGrid(n=data.shape[0], T=5.0), data=data)

    def test_identical(self):
        rng = np.random.default_rng(2)
        f = self.cube(rng.standard_normal((8, 4, 4)))
        assert relative_error(f, f) == 0.0

    def test_zero_estimate(self):
        rng = np.random.default_rng(3)
        f = self.cube(rng.standard_normal((8, 4, 4)))
        zero = self.cube(np.zeros((8, 4, 4)))
        assert relative_error(zero, f) == pytest.approx(1.0)

    def test_double_estimate(self):
        rng = np.random.default_rng(4)
        f = self.cube(rng.standard_normal((8, 4, 4)))
        double = self.cube(2.0 * f.data)
        assert relative_error(double, f) == pytest.approx(1.0)

    def test_leaves_both_cubes_alone_and_keeps_the_plain_expression(self):
        rng = np.random.default_rng(5)
        f = self.cube(rng.standard_normal((8, 4, 16)))
        f_hat = self.cube(rng.standard_normal((8, 4, 16)))
        kept = f.data.copy(), f_hat.data.copy()
        w = f.grid.step * (1.0 / (4 * 16))
        num = math.sqrt(float(np.sum(w * (f_hat.data - f.data) ** 2)))
        denom = math.sqrt(float(np.sum(w * f.data**2)))
        assert relative_error(f_hat, f) == num / denom
        assert np.array_equal(f.data, kept[0]) and np.array_equal(f_hat.data, kept[1])

    # the norms of a finite cube whose squares overflow gave nan for 2q
    # against q and 0.0 for q against itself, each after overflow warnings
    @pytest.mark.parametrize("f_hat_max, f_max", [(1.6e201, 8e200), (8e200, 8e200), (8e200, 1.0)],
                             ids=["2q against q", "q against itself", "f_hat overflows"])
    def test_a_norm_that_overflows_is_named(self, f_hat_max, f_max):
        ramp = np.linspace(0.0, 1.0, 32).reshape(8, 2, 2)
        f_hat, f = self.cube(f_hat_max * ramp), self.cube(f_max * ramp)
        with pytest.raises(ValueError, match="the norm of f_hat - f or of f overflows"):
            relative_error(f_hat, f)

    def test_zero_reference_rejected(self):
        zero = self.cube(np.zeros((8, 4, 4)))
        with pytest.raises(ValueError):
            relative_error(zero, zero)

    def test_cubes_of_different_shapes_rejected(self):
        f = self.cube(np.ones((8, 4, 4)))
        with pytest.raises(ValueError, match="cubes have different shapes"):
            relative_error(self.cube(np.ones((8, 4, 8))), f)


class TestRunTable1:
    def test_deterministic_replicates_without_noise(self):
        cfg = SimConfig(n=16, n1=16, n2=16, runs=2, seed=5)
        est = EstimatorConfig(M=6, threshold_mode=False)
        rows = run_table1(cfg, est, snrs=(1e12,))
        assert len(rows) == 4
        for r in rows:
            # noise is ~1e-12 of the signal: replicates agree to fp noise
            assert r.stderr <= 1e-6 * max(r.mean_delta, 1e-30)

    def test_rows_are_reproducible(self):
        cfg = SimConfig(n=16, n1=16, n2=16, runs=3, seed=11)
        est = EstimatorConfig(M=6)
        r1 = run_table1(cfg, est, snrs=(3.0,))
        r2 = run_table1(cfg, est, snrs=(3.0,))
        assert r1 == r2

    def test_requires_two_runs(self):
        with pytest.raises(ValueError):
            run_table1(SimConfig(runs=1), EstimatorConfig(M=8))

    def test_row_fields(self):
        cfg = SimConfig(n=16, n1=16, n2=16, runs=2, seed=1)
        rows = run_table1(cfg, EstimatorConfig(M=4), snrs=(3.0,))
        r = rows[0]
        assert r.function == "f1" and r.snr == 3.0 and r.runs == 2 and r.seed == 1
        assert r.ratio == pytest.approx(r.mean_delta / r.reference_delta)

    @pytest.mark.parametrize(
        "est",
        [
            EstimatorConfig(M=8),
            EstimatorConfig(m_cap=16),
            EstimatorConfig(M=8, threshold_mode=False),
        ],
        ids=["M=8", "M=auto", "threshold-off"],
    )
    def test_cells_equal_a_loop_of_fresh_fits(self, est):
        # run_table1 reuses one plan; each replicate fitted on its own must agree
        cfg = SimConfig(n=32, n1=16, n2=16, runs=3, seed=17)
        snrs = (3.0, 7.0)
        rows = run_table1(cfg, est, snrs=snrs)
        g = default_kernel(cfg.grid.points)
        cells = []
        for fid in TEST_FUNCTION_IDS:
            f = eval_test_function(fid, cfg)
            q = forward_convolve(f, g, g_zero=1.0, f_zero=zero_time_slice(fid, cfg))
            for snr in snrs:
                deltas = []
                for i in range(cfg.runs):
                    Y, _ = add_noise(q, snr, cfg.seed + i)
                    f_hat, _ = deconvolve(Y, g, WaveletSpec(), est, g_zero=1.0)
                    deltas.append(relative_error(f_hat, f))
                cells.append(np.mean(deltas))
        means = np.array([r.mean_delta for r in rows])
        assert np.allclose(means, cells, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "est",
        [EstimatorConfig(M=8), EstimatorConfig(M=8, threshold_mode=False)],
        ids=["M=8", "threshold-off"],
    )
    def test_rows_equal_the_cell_by_cell_loop(self, est):
        # run_table1 draws each replicate's noise once for all cells; the loop
        # below draws it per cell with add_noise, and must agree exactly
        cfg = SimConfig(n=32, n1=16, n2=16, runs=3, seed=17)
        snrs = (3.0, 7.0)
        g = default_kernel(cfg.grid.points)
        plan = Plan(cfg.grid, g, WaveletSpec(), est, g_zero=1.0)
        expected = []
        for fid in TEST_FUNCTION_IDS:
            f = eval_test_function(fid, cfg)
            q = forward_convolve(f, g, g_zero=1.0, f_zero=zero_time_slice(fid, cfg))
            for snr in snrs:
                deltas = np.empty(cfg.runs)
                for i in range(cfg.runs):
                    Y, _ = add_noise(q, snr, cfg.seed + i)
                    deltas[i] = relative_error(plan.apply(Y)[0], f)
                expected.append(Table1Row(
                    function=fid,
                    snr=snr,
                    mean_delta=float(deltas.mean()),
                    stderr=float(deltas.std(ddof=1) / math.sqrt(cfg.runs)),
                    runs=cfg.runs,
                    seed=cfg.seed,
                    reference_delta=REFERENCE_TABLE1.get((fid, snr), math.nan),
                ))
        assert run_table1(cfg, est, snrs=snrs) == expected

    def test_nonpositive_snr_rejected(self):
        with pytest.raises(ValueError, match="snr"):
            run_table1(SimConfig(n=16, n1=16, n2=16, runs=2), snrs=(0.0,))

    def test_an_snr_whose_sigma_overflows_is_named(self, monkeypatch):
        # the check comes before the first draw, and a later valid SNR does not hide it
        monkeypatch.setattr(simulate, "_unit_noise", None)
        with pytest.raises(ValueError, match=re.escape(TINY_SNR_MESSAGE)):
            run_table1(SimConfig(n=16, n1=16, n2=16, runs=2), snrs=(1e-320, 3.0))

    # sd(q)/snr is finite, but a replicate's residual norm is not: its squares
    # overflowed with a numpy warning, then at 1e-308 a later cell failed on
    # its noise level and at 1e-306 the rows came back with infinite errors
    @pytest.mark.parametrize("snr", [1e-308, 1e-306, 1e-200])
    def test_an_snr_whose_relative_error_overflows_is_named(self, snr):
        with pytest.warns(UserWarning, match="eps >= 1") as caught:
            with pytest.raises(ValueError, match=f"at snr = {snr!r} the relative error .* "
                                                 "overflows"):
                run_table1(SimConfig(runs=2), snrs=(snr,))
        assert not [w for w in caught if not issubclass(w.category, UserWarning)]

    def test_zero_variance_q_rejected(self, monkeypatch):
        # sd(q) is taken once per function and keeps add_noise's check;
        # the first call leaves this grid's setup warm whatever ran before
        cfg = SimConfig(n=16, n1=16, n2=16, runs=2)
        run_table1(cfg, snrs=(3.0,))
        f, q = simulate._forward_model("f1", cfg)
        flat = Cube(grid=q.grid, data=np.ones(q.data.shape))
        monkeypatch.setattr(simulate, "_forward_model", lambda fid, cfg: (f, flat))
        simulate._table1_setup.cache_clear()  # the warm truths hold the real q
        with pytest.raises(ValueError, match="q has zero variance"):
            run_table1(cfg, snrs=(3.0,))

    def test_a_short_run_keeps_its_values(self):
        """The 12 mean errors of a 3-run table at the default settings.

        They pin every stage of the Table-1 fit.  Between the OpenBLAS core
        kernels SkylakeX, Haswell and Sandybridge they differ by at most
        5.1e-15 relative, well inside rtol 1e-12.  A change that moves them
        changes the Table-1 estimates and must say so in CHANGES.md.
        """
        want = [
            0.14176760037956362, 0.10363839391513023, 0.08808260968492933,
            0.16495823281809077, 0.09085256887754604, 0.06754892531444924,
            0.16466168661738992, 0.09090367999483112, 0.06740939472414219,
            0.1660405023574746, 0.09253733346222648, 0.06721088042673362,
        ]
        rows = run_table1(SimConfig(runs=3, seed=1234))
        assert [(r.function, r.snr) for r in rows] == list(REFERENCE_TABLE1)
        assert np.allclose([r.mean_delta for r in rows], want, rtol=1e-12, atol=0.0)

    def test_means_stable_across_master_seeds(self):
        # independent master seeds agree within three pooled standard errors
        est = EstimatorConfig(M=8)
        rows_a = run_table1(SimConfig(runs=40, seed=101), est, snrs=(3.0,))
        rows_b = run_table1(SimConfig(runs=40, seed=7070), est, snrs=(3.0,))
        for ra, rb in zip(rows_a, rows_b):
            pooled = np.hypot(ra.stderr, rb.stderr)
            assert abs(ra.mean_delta - rb.mean_delta) <= 3.0 * pooled


class TestTable1Setup:
    """run_table1 keeps what the seed does not touch for the last grid only."""

    CFG = SimConfig(n=16, n1=8, n2=8, runs=2, seed=1)

    @staticmethod
    def kept(cfg):
        """The truths run_table1 keeps for cfg's grid values; they must be there."""
        info = simulate._table1_setup.cache_info
        hits = info().hits
        setup = simulate._table1_setup(cfg.n, cfg.grid.T, cfg.n1, cfg.n2)
        assert info().hits == hits + 1
        return setup

    def test_the_kept_truths_reject_writes(self, cold):
        run_table1(self.CFG, snrs=(3.0,))
        for _, f, _, q, _ in self.kept(self.CFG):
            for data in (f.data, q.data):
                with pytest.raises(ValueError, match="read-only"):
                    data[0, 0, 0] = 0.0

    def test_a_warm_call_equals_a_cold_one(self, cold):
        cold_rows = run_table1(self.CFG)
        assert run_table1(SimConfig(n=16, n1=8, n2=8, runs=2, seed=1)) == cold_rows

    def test_snrs_may_be_a_list(self, cold):
        assert run_table1(self.CFG, snrs=[3.0, 7.0]) == run_table1(self.CFG, snrs=(3.0, 7.0))

    @pytest.mark.parametrize("snr, message", bad_snrs(0.0, -3.0, True, None, "3", [3.0]))
    def test_a_warm_setup_still_checks_each_snr(self, cold, snr, message):
        run_table1(self.CFG, snrs=(3.0,))
        with pytest.raises(ValueError, match=re.escape(message)):
            run_table1(self.CFG, snrs=(3.0, snr))

    # 33 x 64 x 64's cubes take 8.25 MiB: a setup is kept whatever its size
    @pytest.mark.parametrize("first", [CFG, SimConfig(n=33, n1=64, n2=64, runs=2)],
                             ids=["16x8x8", "33x64x64"])
    def test_a_call_on_a_second_grid_releases_the_first(self, cold, first):
        run_table1(first, snrs=(3.0,))
        assert simulate._table1_setup.cache_info().currsize == 1
        (_, f, _, q, _), *_ = self.kept(first)
        refs = [weakref.ref(f), weakref.ref(q.data)]
        del f, q
        second = SimConfig(n=8, n1=8, n2=8, runs=2)
        run_table1(second, snrs=(3.0,))
        assert [ref() for ref in refs] == [None, None]
        assert self.kept(second)[0][1].grid == TimeGrid(n=8, T=5.0)

    @pytest.mark.parametrize("T", [5, Fraction(5)], ids=repr)
    def test_equal_grid_values_share_one_setup(self, cold, T):
        rows = run_table1(self.CFG, snrs=(3.0,))
        other = SimConfig(n=16, T=T, n1=8, n2=8, runs=2, seed=1)
        assert run_table1(other, snrs=(3.0,)) == rows
        assert self.kept(other) is self.kept(self.CFG)
        assert simulate._table1_setup.cache_info().misses == 1


class TestRunSingle:
    @pytest.mark.parametrize("snr", [3.0, 7.0])
    def test_is_one_seeded_fit_at_the_given_snr(self, snr):
        cfg = SimConfig(n=16, n1=16, n2=16, seed=21)
        delta, diag = run_single("f2", snr, cfg)
        f = eval_test_function("f2", cfg)
        g = default_kernel(cfg.grid.points)
        q = forward_convolve(f, g, g_zero=1.0, f_zero=zero_time_slice("f2", cfg))
        Y, _ = add_noise(q, snr, cfg.seed)
        f_hat, d_ref = deconvolve(Y, g, WaveletSpec(), EstimatorConfig(M=8), g_zero=1.0)
        assert delta == relative_error(f_hat, f)
        assert diag.to_dict() == d_ref.to_dict()

    @pytest.mark.parametrize("snr, message", bad_snrs(0.0, -3.0, True, None))
    def test_rejects_an_snr_through_add_noise(self, snr, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            run_single("f1", snr, SimConfig(n=8, n1=8, n2=8))
