import math

import numpy as np
import pytest

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
    run_table1,
    zero_time_slice,
)


class TestSimConfig:
    @pytest.mark.parametrize("kwargs", [
        {"T": math.inf}, {"T": 0.0}, {"n": 2.5}, {"n": 0},
        {"n1": 2.5}, {"n2": 2.5}, {"n1": 0}, {"n2": "32"}, {"snr": 0.0},
    ], ids=repr)
    def test_rejects_a_bad_grid_or_snr_when_built(self, kwargs):
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

    @pytest.mark.parametrize("n", [1, 2, 3, 32, 64, 1024])
    @pytest.mark.parametrize("exact_zeros", [False, True])
    def test_matches_the_row_by_row_trapezoid(self, n, exact_zeros):
        # reference: one trapezoid row per output time, built in a loop
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

    def test_zero_variance_rejected(self):
        grid = TimeGrid(n=8, T=5.0)
        q = Cube(grid=grid, data=np.ones((8, 4, 4)))
        with pytest.raises(ValueError):
            add_noise(q, 3.0, seed=0)

    def test_eps_hat_tracks_injected_noise(self):
        q = self.base_cube()
        cfg = SimConfig()
        plan = Plan(cfg.grid, (cfg.n1, cfg.n2), default_kernel(cfg.grid.points),
                    WaveletSpec(), EstimatorConfig(M=1, threshold_mode=False), g_zero=1.0)
        ratios = []
        for seed in range(100):
            Y, sigma = add_noise(q, 3.0, seed)
            target = cfg.T * sigma / np.sqrt(cfg.n)
            ratios.append(plan.apply(Y)[1].eps / target)
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

    def test_zero_reference_rejected(self):
        zero = self.cube(np.zeros((8, 4, 4)))
        with pytest.raises(ValueError):
            relative_error(zero, zero)


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
        plan = Plan(cfg.grid, (cfg.n1, cfg.n2), g, WaveletSpec(), est, g_zero=1.0)
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

    def test_means_stable_across_master_seeds(self):
        # independent master seeds agree within three pooled standard errors
        est = EstimatorConfig(M=8)
        rows_a = run_table1(SimConfig(runs=40, seed=101), est, snrs=(3.0,))
        rows_b = run_table1(SimConfig(runs=40, seed=7070), est, snrs=(3.0,))
        for ra, rb in zip(rows_a, rows_b):
            pooled = np.hypot(ra.stderr, rb.stderr)
            assert abs(ra.mean_delta - rb.mean_delta) <= 3.0 * pooled
