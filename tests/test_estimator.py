import math
import warnings

import numpy as np
import pytest

from lagdeconv import (
    Cube,
    EstimatorConfig,
    LagCoeffs,
    Plan,
    SimConfig,
    TimeGrid,
    WaveletSpec,
    build_G,
    deconvolve,
    dwt2_array,
    estimate_sigma,
    fit_coeffs,
    hard_threshold,
    idwt2_array,
    inverse_norms,
    relative_error,
    select_M,
    solve_lower,
    tabulate_basis,
    thresholds,
)
from lagdeconv import simulate
from lagdeconv.estimator import _depth

PHI0 = LagCoeffs(np.concatenate([[1.0], np.zeros(15)]))


def cosine_field(n1=32, n2=32):
    x1 = np.arange(1, n1 + 1) / n1
    x2 = np.arange(1, n2 + 1) / n2
    return np.cos(2.0 * np.pi * np.outer(x1, x2))


def level_of(size):
    """Resolution level of each index along a full-depth axis: -1 marks the
    scaling coefficient, level j occupies [2^j, 2^(j+1))."""
    lev = np.full(size, -1)
    for j in range(int(math.log2(size))):
        lev[2**j : 2 ** (j + 1)] = j
    return lev


def eps_plan(grid, shape=(32, 32)):
    """A threshold-free plan whose fits report eps_hat in Diagnostics.eps."""
    cfg = EstimatorConfig(M=1, threshold_mode=False)
    return Plan(grid, shape, np.exp(-grid.points / 2.0), WaveletSpec(), cfg, g_zero=1.0)


def eps_hat(plan, data):
    """The eps a fit of this cube uses: T * sigma_hat / sqrt(n)."""
    return plan.apply(Cube(grid=plan.grid, data=data))[1].eps


class TestEstimateEps:
    def test_zero_cube(self):
        plan = eps_plan(TimeGrid(n=8, T=5.0), (8, 8))
        assert eps_hat(plan, np.zeros((8, 8, 8))) == 0.0

    def test_white_noise_calibration(self):
        # eps_hat = T sigma / sqrt(n) = 5/sqrt(32) for unit noise
        plan = eps_plan(TimeGrid(n=32, T=5.0))
        vals = []
        for seed in range(100):
            rng = np.random.Generator(np.random.Philox(seed))
            vals.append(eps_hat(plan, rng.standard_normal((32, 32, 32))))
        target = 5.0 / math.sqrt(32.0)
        assert abs(np.mean(vals) - target) <= 0.1 * target

    def test_scale_equivariance(self):
        plan = eps_plan(TimeGrid(n=16, T=5.0), (16, 16))
        rng = np.random.default_rng(5)
        data = rng.standard_normal((16, 16, 16))
        e1 = eps_hat(plan, data)
        e2 = eps_hat(plan, -4.0 * data)
        assert e2 == pytest.approx(4.0 * e1, rel=1e-12)


class TestThresholds:
    def test_unit_eps_warns_and_zeroes(self):
        norms = inverse_norms(PHI0, 4)
        with pytest.warns(UserWarning):
            lam = thresholds(4, 1.0, 1.0, norms)
        assert np.all(lam == 0.0)

    def test_single_level_value(self):
        # lambda_0 = 2 * 0.1 * sqrt(2 ln 10) * ||(G^(1))^-1|| with norm 1
        norms = inverse_norms(PHI0, 1)
        lam = thresholds(1, 0.1, 1.0, norms)
        assert lam[0] == pytest.approx(0.2 * math.sqrt(2.0 * math.log(10.0)), rel=1e-12)
        assert lam[0] == pytest.approx(0.4292, abs=5e-5)

    def test_nu_scaling(self):
        norms = inverse_norms(PHI0, 8)
        lam1 = thresholds(8, 0.1, 1.0, norms)
        lam2 = thresholds(8, 0.1, 2.0, norms)
        assert np.allclose(lam2, math.sqrt(2.0) * lam1, rtol=1e-12)

    def test_l_or_one_substitution(self):
        norms = inverse_norms(PHI0, 4)
        lam = thresholds(4, 0.1, 1.0, norms)
        assert lam[0] == lam[1]  # l = 0 uses the l = 1 operator and divisor

    def test_norm_table_coverage(self):
        norms = inverse_norms(PHI0, 2)
        with pytest.raises(ValueError):
            thresholds(8, 0.1, 1.0, norms)


class TestHardThreshold:
    def test_zero_thresholds_keep_everything(self):
        t = np.arange(1.0, 9.0).reshape(2, 2, 2)
        out, counts = hard_threshold(t, np.zeros(2))
        assert np.array_equal(out, t)
        assert list(counts) == [4, 4]

    def test_infinite_thresholds_zero_everything(self):
        out, counts = hard_threshold(np.ones((2, 2, 2)), np.full(2, np.inf))
        assert np.all(out == 0.0)
        assert list(counts) == [0, 0]

    def test_strict_inequality(self):
        out, counts = hard_threshold([[[0.5, -0.2]]], np.array([0.3]))
        assert np.array_equal(out, [[[0.5, 0.0]]])
        assert list(counts) == [1]

    def test_protect_mask(self):
        t = np.array([[[0.1, 0.2], [0.3, 0.4]]])
        protect = np.array([[True, False], [False, False]])
        out, counts = hard_threshold(t, np.array([10.0]), protect)
        assert out[0, 0, 0] == 0.1
        assert np.all(out.ravel()[1:] == 0.0)
        assert list(counts) == [1]

    def test_lambda_length_check(self):
        with pytest.raises(ValueError):
            hard_threshold(np.ones((3, 2, 2)), np.zeros(2))


class TestDeconvolve:
    def test_exact_recovery_noiseless(self):
        # analytic forward model: (g * phi_0)(t) = t e^{-t/2}
        grid = TimeGrid(n=1024, T=40.0)
        field = cosine_field()
        q_time = grid.points * np.exp(-grid.points / 2.0)
        Y = Cube(grid=grid, data=q_time[:, None, None] * field[None])
        f_true = Cube(
            grid=grid, data=np.exp(-grid.points / 2.0)[:, None, None] * field[None]
        )
        cfg = EstimatorConfig(M=8, threshold_mode=False)
        f_hat, diag = deconvolve(
            Y, np.exp(-grid.points / 2.0), WaveletSpec(), cfg, g_zero=1.0
        )
        assert relative_error(f_hat, f_true) < 1e-3
        assert diag.M == 8
        assert diag.rank == 8  # long grid: nothing truncated

    def test_zero_cube_gives_zero(self):
        grid = TimeGrid(n=32, T=5.0)
        Y = Cube(grid=grid, data=np.zeros((32, 16, 16)))
        cfg = EstimatorConfig(M=4)
        with pytest.warns(UserWarning):
            f_hat, _ = deconvolve(
                Y, np.exp(-grid.points / 2.0), WaveletSpec(), cfg, g_zero=1.0
            )
        assert np.all(f_hat.data == 0.0)

    def test_unthresholded_pipeline_is_linear(self):
        grid = TimeGrid(n=32, T=5.0)
        spec = WaveletSpec()
        cfg = EstimatorConfig(M=6, threshold_mode=False)
        g = np.exp(-grid.points / 2.0)
        rng = np.random.default_rng(1)
        a = rng.standard_normal((32, 16, 16))
        b = rng.standard_normal((32, 16, 16))
        fa, _ = deconvolve(Cube(grid=grid, data=a), g, spec, cfg, g_zero=1.0)
        fb, _ = deconvolve(Cube(grid=grid, data=b), g, spec, cfg, g_zero=1.0)
        fab, _ = deconvolve(
            Cube(grid=grid, data=2.0 * a + 0.5 * b), g, spec, cfg, g_zero=1.0
        )
        lhs = fab.data
        rhs = 2.0 * fa.data + 0.5 * fb.data
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-8 * max(scale, 1.0)

    @pytest.mark.parametrize(
        "n,T,max_l",
        [
            # the stated long grid holds orders up to ~5 at this tolerance;
            # full-strength content at l = 7 needs the longer horizon
            (1024, 40.0, 5),
            (2048, 60.0, 7),
        ],
    )
    def test_in_span_identity_threshold_free(self, n, T, max_l):
        # theta profiles inside the basis span and g = phi_0: q = G theta
        # exactly, so the estimator must return f up to quadrature error
        grid = TimeGrid(n=n, T=T)
        spec = WaveletSpec()
        basis = tabulate_basis(8, grid)
        rng = np.random.default_rng(2)
        theta = rng.standard_normal((8, 16, 16))
        theta[max_l:] = 0.0  # convolution raises the Laguerre degree by one
        imgs = np.stack([idwt2_array(theta[l], spec) for l in range(8)])
        f_time = np.tensordot(basis.values, imgs, axes=(0, 0))
        q_imgs = imgs.copy()
        q_imgs[1:] -= imgs[:-1]  # G from phi_0 is bidiagonal (1, -1)
        q_time = np.tensordot(basis.values, q_imgs, axes=(0, 0))
        Y = Cube(grid=grid, data=q_time)
        cfg = EstimatorConfig(M=8, threshold_mode=False)
        f_hat, _ = deconvolve(Y, np.exp(-grid.points / 2.0), spec, cfg, g_zero=1.0)
        f_true = Cube(grid=grid, data=f_time)
        assert relative_error(f_hat, f_true) < 1e-3

    def test_keep_counts_monotone_in_nu(self):
        grid = TimeGrid(n=32, T=5.0)
        spec = WaveletSpec()
        g = np.exp(-grid.points / 2.0)
        rng = np.random.Generator(np.random.Philox(3))
        base = np.exp(-grid.points / 2.0)[:, None, None] * cosine_field(16, 16)
        Y = Cube(grid=grid, data=base + 0.05 * rng.standard_normal((32, 16, 16)))
        kept = []
        for nu in [0.1, 0.4, 1.0, 4.0]:
            cfg = EstimatorConfig(M=6, nu=nu)
            _, diag = deconvolve(Y, g, spec, cfg, g_zero=1.0)
            kept.append(int(diag.keep_counts.sum()))
        assert all(a >= b for a, b in zip(kept, kept[1:]))

    @pytest.mark.parametrize("fid", ["f1", "f2", "f3", "f4"])
    def test_monotone_denoising_fixed_seed(self, fid):
        from lagdeconv.simulate import SimConfig, run_single

        deltas = [
            run_single(fid, SimConfig(snr=snr, seed=77))[0] for snr in (3.0, 5.0, 7.0)
        ]
        assert deltas[0] >= deltas[1] >= deltas[2]

    def test_eps_consistency_under_noise_doubling(self):
        grid = TimeGrid(n=32, T=5.0)
        plan = eps_plan(grid)
        base = np.exp(-grid.points / 2.0)[:, None, None] * cosine_field()
        ratios = []
        for seed in range(40):
            rng = np.random.Generator(np.random.Philox(seed))
            noise = rng.standard_normal((32, 32, 32))
            e1 = eps_hat(plan, base + 0.05 * noise)
            e2 = eps_hat(plan, base + 0.10 * noise)
            ratios.append(e2 / e1)
        assert abs(np.mean(ratios) - 2.0) <= 0.2

    def test_auto_mode_runs(self):
        grid = TimeGrid(n=32, T=5.0)
        spec = WaveletSpec()
        rng = np.random.Generator(np.random.Philox(4))
        base = np.exp(-grid.points / 2.0)[:, None, None] * cosine_field(16, 16)
        Y = Cube(grid=grid, data=base + 0.02 * rng.standard_normal((32, 16, 16)))
        f_hat, diag = deconvolve(
            Y, np.exp(-grid.points / 2.0), spec, EstimatorConfig(), g_zero=1.0
        )
        assert 1 <= diag.M <= 32
        assert 0 <= diag.J1 <= 4 or diag.J1 == 4  # clamped to log2(16)
        assert f_hat.data.shape == (32, 16, 16)

    def test_kernel_as_coefficients(self):
        grid = TimeGrid(n=32, T=5.0)
        spec = WaveletSpec()
        base = np.exp(-grid.points / 2.0)[:, None, None] * cosine_field(16, 16)
        Y = Cube(grid=grid, data=base)
        cfg = EstimatorConfig(M=6, threshold_mode=False)
        via_series = deconvolve(Y, np.exp(-grid.points / 2.0), spec, cfg, g_zero=1.0)
        via_coeffs = deconvolve(
            Y, None, spec, cfg, g_coeffs=LagCoeffs(np.eye(6)[0])
        )
        # same operator up to the fitted-vs-exact kernel coefficients
        assert relative_error(via_series[0], via_coeffs[0]) < 0.05

    @pytest.mark.parametrize(
        "kernel, sigma, m_cap, expect_M",
        [
            ("samples", 0.02, 8, 8),
            ("coeffs", 0.02, 8, 8),
            ("samples", 0.5, 16, 7),
            ("coeffs", 0.5, 16, 7),
        ],
    )
    def test_auto_order_matches_fixed_order_bit_for_bit(
        self, kernel, sigma, m_cap, expect_M
    ):
        # M="auto" reads the norm table of the plan's order m_cap and takes
        # the chosen order from the same cache; a fixed-order plan builds
        # only that order.  Both must give the same fit.
        grid = TimeGrid(n=32, T=5.0)
        spec = WaveletSpec()
        rng = np.random.Generator(np.random.Philox(4))
        base = np.exp(-grid.points / 2.0)[:, None, None] * cosine_field(16, 16)
        Y = Cube(grid=grid, data=base + sigma * rng.standard_normal((32, 16, 16)))
        if kernel == "samples":
            kw = dict(g_series=np.exp(-grid.points / 2.0), g_zero=1.0)
        else:
            kw = dict(g_series=None, g_coeffs=LagCoeffs(np.eye(32)[0]))
        auto, diag = deconvolve(Y, spec=spec, cfg=EstimatorConfig(m_cap=m_cap), **kw)
        assert diag.M == expect_M
        fixed, ref = deconvolve(Y, spec=spec, cfg=EstimatorConfig(M=diag.M), **kw)
        assert np.array_equal(auto.data, fixed.data)
        assert np.array_equal(diag.lambdas, ref.lambdas)

    def test_requires_power_of_two(self):
        grid = TimeGrid(n=16, T=5.0)
        Y = Cube(grid=grid, data=np.zeros((16, 12, 16)))
        with pytest.raises(ValueError):
            deconvolve(Y, np.ones(16), WaveletSpec(), EstimatorConfig(M=4))

    def test_requires_kernel(self):
        grid = TimeGrid(n=16, T=5.0)
        Y = Cube(grid=grid, data=np.zeros((16, 16, 16)))
        with pytest.raises(ValueError):
            deconvolve(Y, None, WaveletSpec(), EstimatorConfig(M=4))


def old_order_deconvolve(Y, g, spec, cfg, g_zero):
    """The estimator in its original order, as the oracle for deconvolve.

    Wavelet transform of all n slices, zero-slice extrapolation, Laguerre
    projection and Toeplitz solve per wavelet location, Omega mask, hard
    threshold, Laguerre synthesis of all n slices, then n inverse transforms.
    """
    grid = Y.grid
    n, n1, n2 = Y.data.shape
    sigma = float(
        np.median([estimate_sigma(Y.data[k], spec, cfg.sigma_robust) for k in range(n)])
    )
    eps = grid.T * sigma / math.sqrt(n) if cfg.eps == "auto" else float(cfg.eps)
    if cfg.M == "auto":
        m_cap = min(cfg.m_cap, n)
        probe = fit_coeffs(g, tabulate_basis(m_cap, grid), cfg.rcond, g_zero)
        M = select_M(inverse_norms(probe, m_cap), eps)
    else:
        M = cfg.M
    basis = tabulate_basis(M, grid)
    g_hat = fit_coeffs(g, basis, cfg.rcond, g_zero)

    slices = dwt2_array(Y.data, spec)
    zero = 2.0 * slices[0] - slices[1] if n >= 2 else slices[0]
    full = np.concatenate([zero[None], slices])
    q = np.tensordot(basis.projection_matrix(cfg.rcond), full, axes=(1, 0))
    theta = solve_lower(build_G(g_hat, M), q)

    def depth_J(J, size):
        top = int(math.log2(size))
        if J != "auto":
            return min(int(J), top)
        if not cfg.threshold_mode or eps == 0.0:
            return top
        ratio = cfg.A**2 / eps**2
        return min(max(math.floor(math.log2(ratio)), 0), top) if ratio > 1 else 0

    lev1, lev2 = level_of(n1), level_of(n2)
    J1, J2 = depth_J(cfg.J1, n1), depth_J(cfg.J2, n2)
    theta = theta * np.outer(lev1 < J1, lev2 < J2)
    keep_counts = lambdas = None
    if cfg.threshold_mode and eps > 0:
        lambdas = thresholds(M, eps, cfg.nu, inverse_norms(g_hat, max(M - 1, 1)))
        keep = np.abs(theta) > lambdas[:, None, None]
        keep |= np.outer(lev1 == -1, lev2 == -1)[None]
        theta = np.where(keep, theta, 0.0)
        keep_counts = keep.sum(axis=(1, 2))

    rec = np.tensordot(basis.values, theta, axes=(0, 0))
    f = idwt2_array(rec, spec)
    return f, dict(
        sigma_hat=sigma, M=M, J1=J1, J2=J2, keep_counts=keep_counts, lambdas=lambdas
    )


class TestPipelineOrder:
    @pytest.mark.parametrize(
        "n, shape, family, cfg",
        [
            (32, (16, 16), "daub4", EstimatorConfig(M=6)),
            (32, (16, 32), "haar", EstimatorConfig(M=8, J1=2)),
            (32, (16, 16), "daub4", EstimatorConfig(m_cap=16)),
            (16, (8, 16), "daub4", EstimatorConfig(M=5, threshold_mode=False)),
            (1, (16, 16), "haar", EstimatorConfig(M=1)),
        ],
        ids=["daub4", "haar-nonsquare", "auto-M", "threshold-off", "one-frame"],
    )
    def test_matches_the_n_slice_order(self, n, shape, family, cfg):
        grid = TimeGrid(n=n, T=5.0 if n > 1 else 1.0)
        spec = WaveletSpec(family=family)
        rng = np.random.Generator(np.random.Philox(n + shape[1]))
        g = np.exp(-grid.points / 2.0)
        base = g[:, None, None] * cosine_field(*shape)
        Y = Cube(grid=grid, data=base + 0.05 * rng.standard_normal((n, *shape)))

        f_hat, diag = deconvolve(Y, g, spec, cfg, g_zero=1.0)
        f_ref, ref = old_order_deconvolve(Y, g, spec, cfg, g_zero=1.0)

        assert np.abs(f_hat.data - f_ref).max() <= 1e-12 * np.abs(f_ref).max()
        assert diag.sigma_hat == ref["sigma_hat"]
        assert (diag.M, diag.J1, diag.J2) == (ref["M"], ref["J1"], ref["J2"])
        if ref["keep_counts"] is None:
            assert diag.keep_counts is None and diag.lambdas is None
        else:
            assert np.array_equal(diag.keep_counts, ref["keep_counts"])
            assert np.allclose(diag.lambdas, ref["lambdas"], rtol=1e-12, atol=0.0)


def full_array_apply(plan, Y):
    """The plan's fit with the truncation as a mask, as the oracle for apply.

    Full n1 x n2 transform of the M slices, Omega(J1, J2) mask, hard
    threshold of the whole array, full inverse transform.
    """
    cfg, spec, (n1, n2) = plan.cfg, plan.spec, plan.shape
    sigma = float(np.median([estimate_sigma(y, spec, cfg.sigma_robust) for y in Y.data]))
    eps = Y.grid.T * sigma / math.sqrt(Y.grid.n) if cfg.eps == "auto" else float(cfg.eps)
    order = plan._order(cfg.M)
    theta = dwt2_array(np.tensordot(order.op, Y.data, axes=(1, 0)), spec)
    J1, J2 = (_depth(J, n, cfg.A, eps, cfg.threshold_mode) for J, n in ((cfg.J1, n1), (cfg.J2, n2)))
    lev1, lev2 = level_of(n1), level_of(n2)
    in_omega = np.outer(lev1 < J1, lev2 < J2)
    theta = theta * in_omega
    keep_counts = lambdas = None
    if cfg.threshold_mode:
        lambdas = thresholds(cfg.M, eps, cfg.nu, order.norms)
        theta, keep_counts = hard_threshold(theta, lambdas, np.outer(lev1 == -1, lev2 == -1))
    f_hat = np.tensordot(order.basis.values, idwt2_array(theta, spec), axes=(0, 0))
    return f_hat, dict(
        J1=J1, J2=J2, omega_dropped=cfg.M * int((~in_omega).sum()), keep_counts=keep_counts,
        total_counts=None if lambdas is None else np.full(cfg.M, int(in_omega.sum())),
        lambdas=lambdas,
    )


class TestOmegaBlock:
    @pytest.mark.parametrize("threshold_mode", [True, False], ids=["thresholds", "no-thresholds"])
    @pytest.mark.parametrize("J", ["auto", 0, (2, 4), (3, 1), 9], ids=str)
    @pytest.mark.parametrize("sigma_robust", [True, False], ids=["mad", "std"])
    @pytest.mark.parametrize("shape", [(32, 32), (16, 64), (64, 8), (128, 128)], ids=str)
    @pytest.mark.parametrize("family", ["haar", "daub4"])
    def test_matches_the_full_array_with_a_mask(self, family, shape, sigma_robust, J, threshold_mode):
        J1, J2 = J if isinstance(J, tuple) else (J, J)
        grid = TimeGrid(n=16, T=5.0)
        g = np.exp(-grid.points / 2.0)
        rng = np.random.Generator(np.random.Philox(sum(shape)))
        # eps ~ 0.25, so the auto depth is 4: a truncation on every side above 16
        Y = Cube(grid=grid, data=g[:, None, None] * cosine_field(*shape)
                 + 0.2 * rng.standard_normal((16, *shape)))
        cfg = EstimatorConfig(M=6, J1=J1, J2=J2, threshold_mode=threshold_mode,
                              sigma_robust=sigma_robust)
        plan = Plan(grid, shape, g, WaveletSpec(family), cfg, g_zero=1.0)

        f_hat, diag = plan.apply(Y)
        f_ref, ref = full_array_apply(plan, Y)

        assert np.abs(f_hat.data - f_ref).max() <= 1e-13 * np.abs(f_ref).max()
        assert (diag.J1, diag.J2, diag.omega_dropped) == (ref["J1"], ref["J2"], ref["omega_dropped"])
        for key in ("keep_counts", "total_counts", "lambdas"):
            got, want = getattr(diag, key), ref[key]
            assert (got is None and want is None) or np.array_equal(got, want)

    @pytest.mark.parametrize("J", [0, 2, "auto"], ids=str)
    def test_a_huge_nu_keeps_only_the_scaling_coefficient(self, J):
        # Every detail coefficient of Omega falls below its lambda and the
        # scaling coefficient at (0, 0) is kept regardless, so each frame of
        # the fit is constant: the threshold-free fit of Omega(0, 0).
        grid = TimeGrid(n=16, T=5.0)
        g = np.exp(-grid.points / 2.0)
        rng = np.random.Generator(np.random.Philox(7))
        Y = Cube(grid=grid, data=g[:, None, None] * cosine_field()
                 + 0.2 * rng.standard_normal((16, 32, 32)))
        cfg = EstimatorConfig(M=6, J1=J, J2=J, nu=1e6)
        f_hat, diag = deconvolve(Y, g, WaveletSpec(), cfg, g_zero=1.0)
        assert (diag.J1 > 0) == (J != 0) and diag.J1 == diag.J2
        assert np.array_equal(diag.keep_counts, np.ones(6))
        assert np.all(diag.total_counts == 4 ** diag.J1)
        scaling = EstimatorConfig(M=6, J1=0, J2=0, threshold_mode=False)
        f_ref = deconvolve(Y, g, WaveletSpec(), scaling, g_zero=1.0)[0].data
        assert np.abs(f_hat.data - f_ref).max() <= 1e-13 * np.abs(f_ref).max()

    def test_default_settings_truncate_a_large_noisy_cube(self):
        # The auto depth is below log2(128) = 7, so a default fit computes a
        # strict leading block of the coefficients, not the whole array.
        cfg = SimConfig(n=16, T=5.0, n1=128, n2=128)
        truth = simulate.eval_test_function("f3", cfg)
        g = simulate.default_kernel(truth.grid.points)
        q = simulate.forward_convolve(truth, g, g_zero=1.0)
        Y, _ = simulate.add_noise(q, 5.0, seed=11)
        diag = deconvolve(Y, g, WaveletSpec(), EstimatorConfig(), g_zero=1.0)[1]
        assert diag.J1 < 7 and diag.J2 < 7
        assert diag.omega_dropped > 0


class TestPlan:
    def cubes(self, grid, shape=(16, 16)):
        base = np.exp(-grid.points / 2.0)[:, None, None] * cosine_field(*shape)
        rng = np.random.Generator(np.random.Philox(21))
        noise = rng.standard_normal((2, grid.n, *shape))
        return [Cube(grid=grid, data=base + s * z) for s, z in zip((0.01, 0.5), noise)]

    @pytest.mark.parametrize(
        "cfg", [EstimatorConfig(M=8), EstimatorConfig(m_cap=16)], ids=["M=8", "M=auto"]
    )
    def test_one_plan_serves_cubes_with_different_noise(self, cfg):
        # eps, J, lambda and (with M="auto") M belong to the cube, not the plan
        grid = TimeGrid(n=32, T=5.0)
        spec = WaveletSpec()
        g = np.exp(-grid.points / 2.0)
        A, B = self.cubes(grid)
        plan = Plan(grid, (16, 16), g, spec, cfg, g_zero=1.0)
        outs = [plan.apply(Y) for Y in (A, B, A)]
        fresh = [deconvolve(Y, g, spec, cfg, g_zero=1.0) for Y in (A, B)]
        (fa, da), (fb, db) = fresh
        assert da.J1 != db.J1 and not np.array_equal(da.lambdas[1:], db.lambdas[1:])
        if cfg.M == "auto":
            assert da.M != db.M
        for (f, d), (f_ref, d_ref) in zip(outs, [fresh[0], fresh[1], fresh[0]]):
            assert np.array_equal(f.data, f_ref.data)
            assert d.to_dict() == d_ref.to_dict()

    def test_warns_once_at_construction_when_M_exceeds_the_frames(self):
        grid = TimeGrid(n=16, T=5.0)
        with pytest.warns(UserWarning, match="M=40 exceeds the n=16 frames") as caught:
            plan = Plan(grid, (8, 8), np.exp(-grid.points / 2.0), WaveletSpec(),
                        EstimatorConfig(M=40), g_zero=1.0)
        assert len(caught) == 1
        (Y,) = self.cubes(grid, (8, 8))[:1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, diag = plan.apply(Y)
        assert diag.M == 40 and diag.rank < grid.n

    def test_silent_when_M_is_within_the_frames(self):
        # M = 8 on 32 frames (the benchmark's setting) fits rank 5: normal
        grid = TimeGrid(n=32, T=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = Plan(grid, (16, 16), np.exp(-grid.points / 2.0), WaveletSpec(),
                        EstimatorConfig(M=8), g_zero=1.0)
            _, diag = plan.apply(self.cubes(grid)[0])
        assert diag.rank == 5

    def test_rejects_a_side_below_two_at_construction(self):
        # the wavelet layout is checked when the plan is built, not in apply
        grid = TimeGrid(n=16, T=5.0)
        with pytest.raises(ValueError, match="n1 must be a power of two >= 2, got 1"):
            Plan(grid, (1, 8), np.exp(-grid.points / 2.0), WaveletSpec(),
                 EstimatorConfig(M=4), g_zero=1.0)

    def test_rejects_a_cube_of_another_grid_or_shape(self):
        grid = TimeGrid(n=32, T=5.0)
        plan = Plan(grid, (16, 16), np.exp(-grid.points / 2.0), WaveletSpec(),
                    EstimatorConfig(M=4), g_zero=1.0)
        (other_shape,) = self.cubes(grid, (16, 8))[:1]
        (other_grid,) = self.cubes(TimeGrid(n=32, T=6.0))[:1]
        for Y in (other_shape, other_grid):
            with pytest.raises(ValueError):
                plan.apply(Y)


class TestDiagnostics:
    def fit(self, noise, **cfg):
        grid = TimeGrid(n=32, T=5.0)
        base = np.exp(-grid.points / 2.0)[:, None, None] * cosine_field(16, 16)
        rng = np.random.Generator(np.random.Philox(8))
        Y = Cube(grid=grid, data=base + noise * rng.standard_normal((32, 16, 16)))
        return deconvolve(
            Y, np.exp(-grid.points / 2.0), WaveletSpec(), EstimatorConfig(M=4, **cfg),
            g_zero=1.0,
        )[1]

    @pytest.mark.parametrize(
        "noise, cfg, reason",
        [
            (0.05, {}, None),
            (0.05, {"threshold_mode": False}, "threshold_mode off"),
            (0.05, {"eps": 0.0}, "eps = 0"),
            (0.05, {"eps": 1.0}, "eps >= 1"),
            (3.0, {}, "eps >= 1"),
        ],
    )
    def test_thresholds_disabled_reason(self, noise, cfg, reason):
        if reason is None or reason == "threshold_mode off":
            diag = self.fit(noise, **cfg)
        else:
            with pytest.warns(UserWarning):
                diag = self.fit(noise, **cfg)
        assert diag.thresholds_disabled_reason == reason
        assert diag.to_dict()["thresholds_disabled_reason"] == reason
        if reason == "eps >= 1":
            assert np.all(diag.lambdas == 0.0)

    # Formed directly, A^2 / eps^2 divides by zero for eps <= 1e-162 and
    # overflows for A >= 1e160; the depth must not depend on it.
    @pytest.mark.parametrize(
        "cfg, depth",
        [({"eps": 1e-170}, 4), ({"eps": 1e-300}, 4), ({"A": 1e200}, 4), ({"A": 1e-200}, 0)],
    )
    def test_auto_depth_at_extreme_scales(self, cfg, depth):
        diag = self.fit(0.05, **cfg)
        assert (diag.J1, diag.J2) == (depth, depth)

    def test_auto_order_at_tiny_eps_takes_the_cap(self):
        # eps^-2 overflows below eps ~ 1e-154; no norm exceeds the bound
        grid = TimeGrid(n=32, T=5.0)
        Y = Cube(grid=grid, data=np.exp(-grid.points / 2.0)[:, None, None] * cosine_field(16, 16))
        cfg = EstimatorConfig(eps=1e-300, m_cap=8)
        diag = deconvolve(Y, np.exp(-grid.points / 2.0), WaveletSpec(), cfg, g_zero=1.0)[1]
        assert (diag.M, diag.J1, diag.J2) == (8, 4, 4)

    def test_subnormal_eps_keeps_at_least_what_a_tiny_eps_keeps(self):
        # 1 / eps overflows for subnormal eps; log(1/eps) must not
        tiny, subnormal = self.fit(0.05, eps=1e-300), self.fit(0.05, eps=1e-310)
        assert np.all(np.isfinite(subnormal.lambdas))
        assert np.all(subnormal.keep_counts >= tiny.keep_counts)

    def test_omega_dropped_counts_the_truncated_coefficients(self):
        # 16 x 16 at full depth: levels < 2 keep 4 rows, levels < 3 keep 8 columns
        diag = self.fit(0.05, J1=2, J2=3)
        assert diag.omega_dropped == 4 * (16 * 16 - 4 * 8)
        assert np.all(diag.total_counts == 4 * 8)
        assert self.fit(0.05, threshold_mode=False).omega_dropped == 0
        assert diag.to_dict()["omega_dropped"] == diag.omega_dropped


class TestConfigValidation:
    def test_nu_positive(self):
        with pytest.raises(ValueError):
            EstimatorConfig(nu=0.0)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(M="sometimes")
        with pytest.raises(ValueError):
            EstimatorConfig(M=0)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(eps="guess")

    # Each of these ran and returned a wrong estimate: J1 = -1 zeroed every
    # coefficient, M = 2.5 ran M = 2, J1 = 2.7 ran J1 = 2 and rcond >= 1 or
    # nan kept rank 0, so f_hat = 0.
    @pytest.mark.parametrize(
        "field, value",
        [
            ("M", 2.5), ("M", -3), ("M", "8"),
            ("J1", -1), ("J1", 2.7), ("J1", "deep"), ("J2", -1), ("J2", 2.0),
            ("rcond", 1.0), ("rcond", 1.5), ("rcond", math.nan), ("rcond", -0.1),
            ("rcond", math.inf), ("m_cap", 0), ("m_cap", 8.5), ("eps", math.nan),
        ],
    )
    def test_rejects_settings_that_give_a_wrong_estimate(self, field, value):
        with pytest.raises(ValueError, match=field):
            EstimatorConfig(**{field: value})

    # A truthy non-bool used to pass as a flag: sigma_robust="std" and
    # threshold_mode="off" ran a thresholded MAD fit.
    @pytest.mark.parametrize("field", ["threshold_mode", "sigma_robust"])
    @pytest.mark.parametrize("value", ["off", "std", 0, 1, None], ids=repr)
    def test_rejects_a_flag_that_is_not_a_bool(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be True or False, got {value!r}"):
            EstimatorConfig(**{field: value})

    @pytest.mark.parametrize("field", ["threshold_mode", "sigma_robust"])
    @pytest.mark.parametrize("value", [True, False, np.True_], ids=repr)
    def test_accepts_a_bool_flag(self, field, value):
        assert getattr(EstimatorConfig(**{field: value}), field) == value

    # An infinite eps or A fails deep in the fit (log(1/eps),
    # floor(log2(A^2/eps^2))); nu = inf runs and zeroes every detail.
    @pytest.mark.parametrize("field", ["nu", "A", "eps"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_constants(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            EstimatorConfig(**{field: value})

    def test_accepts_numpy_integers_and_the_range_ends(self):
        cfg = EstimatorConfig(M=np.int64(8), J1=np.int32(0), J2=3, m_cap=np.int64(1), rcond=0.0)
        assert (cfg.M, cfg.J1, cfg.J2, cfg.m_cap) == (8, 0, 3, 1)
