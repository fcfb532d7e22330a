import json
import math
import re
import warnings

import numpy as np
import pytest

from lagdeconv import (
    Cube,
    EstimatorConfig,
    LagCoeffs,
    Plan,
    SimConfig,
    SingularOperatorError,
    TimeGrid,
    WaveletSpec,
    deconvolve,
    inverse_norms,
    relative_error,
)
from lagdeconv import estimator, laguerre, simulate
from lagdeconv.estimator import Diagnostics, _depth, hard_threshold, thresholds
from lagdeconv.laguerre import _kernel_nodes, fit_coeffs, tabulate_basis
from lagdeconv.toeplitz import select_M, solve_lower
from lagdeconv.wavelet2d import dwt2_array, estimate_sigma, idwt2_array

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


def eps_plan(grid):
    """A threshold-free plan whose fits report Diagnostics.eps_hat."""
    cfg = EstimatorConfig(M=1, threshold_mode=False)
    return Plan(grid, np.exp(-grid.points / 2.0), WaveletSpec(), cfg, g_zero=1.0)


def eps_hat(plan, data):
    """The eps a fit of this cube uses: T * sigma_hat / sqrt(n)."""
    return plan.apply(Cube(grid=plan.grid, data=data))[1].eps_hat


class TestCube:
    @pytest.mark.parametrize(
        "data, message",
        [(np.zeros((16, 8)), "cube data must be a 3-D array (time, x1, x2)"),
         (np.zeros((15, 8, 8)), "time dimension 15 does not match grid n=16")],
        ids=["2-D", "15-frames"],
    )
    def test_rejects_data_that_is_not_a_cube_on_its_grid(self, data, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Cube(grid=TimeGrid(n=16, T=5.0), data=data)


GRID16 = TimeGrid(n=16, T=5.0)
_SAMPLES = np.exp(-GRID16.points / 2.0)
# each entry point that takes an array of numbers, fed a 16-value array, and
# the name its ValueError gives that array
REAL_ARRAY_INPUTS = {
    "Cube": (lambda a: Cube(GRID16, a.reshape(16, 1, 1)), "cube data"),
    "LagCoeffs": (LagCoeffs, "coefficients"),
    "kernel entry": (lambda a: _kernel_nodes(a, None, GRID16), "kernel samples"),
    "Plan": (lambda a: Plan(GRID16, a, WaveletSpec(), EstimatorConfig(M=4)), "kernel samples"),
    "forward_convolve": (lambda a: simulate.forward_convolve(Cube(GRID16, np.ones((16, 2, 2))), a),
                         "kernel samples"),
    "default_kernel": (simulate.default_kernel, "t"),
}


class TestRealArrays:
    """An array input holds integers or floats, as a scalar setting must be
    a real: complex values once kept their real part after a
    ComplexWarning, and strings and bools were read as numbers."""

    SAMPLES = np.exp(-GRID16.points / 2.0)

    @pytest.mark.parametrize(
        "values, dtype",
        [(SAMPLES + 0j, "complex128"), (SAMPLES.astype(str), "<U"), (SAMPLES > 0.5, "bool")],
        ids=["complex", "str", "bool"],
    )
    @pytest.mark.parametrize("entry", sorted(REAL_ARRAY_INPUTS))
    def test_rejects_values_that_are_not_real_numbers(self, entry, values, dtype):
        call, name = REAL_ARRAY_INPUTS[entry]
        with pytest.raises(ValueError, match=re.escape(f"{name} must hold real numbers, got dtype {dtype}")):
            call(values)

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint16, np.float32])
    @pytest.mark.parametrize("entry", sorted(REAL_ARRAY_INPUTS))
    def test_integer_and_float32_arrays_are_numbers(self, entry, dtype):
        call, _ = REAL_ARRAY_INPUTS[entry]
        call(np.arange(16, 0, -1).astype(dtype))

    def test_deconvolve_rejects_complex_kernel_samples(self):
        Y = Cube(GRID16, 0.01 * cosine_field(8, 8) * np.ones((16, 1, 1)))
        with pytest.raises(ValueError, match="kernel samples must hold real numbers"):
            deconvolve(Y, self.SAMPLES + 1j, WaveletSpec(), EstimatorConfig(M=4))


_CUBE16 = Cube(GRID16, np.ones((16, 2, 2)))
# each entry where a sample kernel enters, fed (samples, g_zero)
KERNEL_ENTRIES = {
    "Plan": lambda g, g_zero: Plan(GRID16, g, WaveletSpec(), EstimatorConfig(M=4), g_zero),
    "deconvolve": lambda g, g_zero: deconvolve(_CUBE16, g, WaveletSpec(), EstimatorConfig(M=4),
                                               g_zero),
    "forward_convolve": lambda g, g_zero: simulate.forward_convolve(_CUBE16, g, g_zero),
}


class TestKernelEntry:
    """A sample kernel is checked once, where it enters, by one rule: a Plan
    (so deconvolve) and forward_convolve name a fault alike.  A plan's fit
    once named it `series samples`, `series length` or `series t = 0 value`."""

    @pytest.mark.parametrize("samples, g_zero, message", [
        (_SAMPLES + 0j, 1.0, "kernel samples must hold real numbers, got dtype complex128"),
        (_SAMPLES.astype(str), 1.0, "kernel samples must hold real numbers, got dtype <U"),
        (_SAMPLES > 0.5, 1.0, "kernel samples must hold real numbers, got dtype bool"),
        (np.where(np.arange(16) == 3, math.nan, _SAMPLES), 1.0, "kernel samples must be finite"),
        (_SAMPLES[:15], 1.0, "kernel samples must have shape (n,) = (16,), got (15,)"),
        (_SAMPLES, "1", "g_zero must be a finite real, got '1'"),
        (_SAMPLES, True, "g_zero must be a finite real, got True"),
        (_SAMPLES, np.ones(2), "g_zero must be a finite real, got array([1., 1.])"),
    ], ids=["complex", "str", "bool", "nan", "15-samples", "g0-str", "g0-True", "g0-array"])
    def test_every_entry_gives_one_message(self, samples, g_zero, message):
        messages = []
        for entry in sorted(KERNEL_ENTRIES):
            with pytest.raises(ValueError) as info:
                KERNEL_ENTRIES[entry](samples, g_zero)
            messages.append(str(info.value))
        assert messages[0].startswith(message)
        assert messages == [messages[0]] * len(KERNEL_ENTRIES)


def _float64(a, ndim):
    return type(a) is np.ndarray and a.dtype == np.float64 and a.ndim == ndim


def _order(M):
    return type(M) is int and M >= 1


# what each stage a plan runs once checked for itself, as a test of the
# arguments of one call
STAGE_CONDITIONS = {
    "tabulate_basis": lambda M, grid, rcond: _order(M) and 0.0 <= rcond < 1.0,
    "solve_lower": lambda kernel, rhs: _float64(rhs, 2) and rhs.shape[0] >= 1,
    "estimate_sigma": lambda image, spec: _float64(image, 2),
    "select_M": lambda norms, eps: 0.0 < eps < math.inf,
    "dwt2_array": lambda images, spec, block: (
        _float64(images, 3) and len(block) == 2
        and all(type(r) is int and 1 <= r <= n for r, n in zip(block, images.shape[1:]))
    ),
    "thresholds": lambda M, eps, nu, norms: (
        _order(M) and 0.0 < eps < 1.0 and 0.0 < nu < math.inf
        and norms.max_m >= max(M - 1, 1)
    ),
    "hard_threshold": lambda values, lambdas: (
        _float64(values, 3) and _float64(lambdas, 1) and lambdas.shape == values.shape[:1]
    ),
    "idwt2_array": lambda coeffs, spec, shape: (
        _float64(coeffs, 3) and all(1 <= r <= n for r, n in zip(coeffs.shape[1:], shape))
    ),
    # the kernel's samples on the n + 1 nodes, as the plan checked them
    "fit_coeffs": lambda series, basis: (
        _float64(series, 1) and series.shape == (basis.values.shape[1] + 1,)
    ),
}

_COUNTS = np.random.default_rng(8).integers(0, 80, (16, 8, 8))
_NOISY = (0.5 * cosine_field(16, 16) * np.ones((16, 1, 1))
          + 0.05 * np.random.default_rng(9).standard_normal((16, 16, 16)))
_EPS = EstimatorConfig(eps=0.1)


def _plan_case(data, kernel=_SAMPLES, cfg=_EPS, g_zero=1.0):
    """(plan, cube) of a case, the plan built when called."""
    return lambda: (Plan(GRID16, kernel, WaveletSpec(), cfg, g_zero), Cube(GRID16, data))


# every stage runs in every case, M="auto" and 0 < eps < 1, but a plan
# given coefficients fits none
NOT_RUN = {("fit_coeffs", "5 kernel coefficients")}
PLAN_CASES = {
    **{f"{dtype} cube": _plan_case(_COUNTS.astype(dtype))
       for dtype in ("int64", "int8", "uint16", "float32")},
    "samples without g_zero": _plan_case(_NOISY, g_zero=None),
    "5 kernel coefficients": _plan_case(_NOISY, LagCoeffs(np.exp(-np.arange(5.0))), g_zero=None),
    "8x32 raster, depths past it": _plan_case(
        _NOISY[:, :8, :].repeat(2, axis=2), cfg=EstimatorConfig(J1=6, J2=9, eps=0.1)
    ),
    "eps from the cube": _plan_case(_NOISY, cfg=EstimatorConfig()),
}


class TestStagesTrustThePlan:
    """The stages a plan runs take its arguments as given: Cube,
    EstimatorConfig and Plan check what enters.  Every call a plan makes,
    on any cube those accept, meets the condition its stage once checked."""

    @pytest.mark.parametrize("case", sorted(PLAN_CASES))
    @pytest.mark.parametrize("stage", sorted(STAGE_CONDITIONS))
    def test_each_call_meets_what_the_stage_once_checked(self, monkeypatch, stage, case):
        stage_fn, holds = getattr(estimator, stage), STAGE_CONDITIONS[stage]
        seen = []

        def checked(*args):
            seen.append(holds(*args))
            return stage_fn(*args)

        monkeypatch.setattr(estimator, stage, checked)
        plan, Y = PLAN_CASES[case]()
        plan.apply(Y)
        assert bool(seen) != ((stage, case) in NOT_RUN) and all(seen)


class TestEstimateEps:
    def test_zero_cube(self):
        plan = eps_plan(TimeGrid(n=8, T=5.0))
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
        plan = eps_plan(TimeGrid(n=16, T=5.0))
        rng = np.random.default_rng(5)
        data = rng.standard_normal((16, 16, 16))
        e1 = eps_hat(plan, data)
        e2 = eps_hat(plan, -4.0 * data)
        assert e2 == pytest.approx(4.0 * e1, rel=1e-12)

    # Finite cubes whose noise level is not: details that overflow give an
    # infinite sigma-hat, +inf - inf a NaN one, and a large T overflows
    # eps = T sigma_hat / sqrt(n) of a finite sigma-hat.
    HUGE = 1.7e308 * np.random.default_rng(0).uniform(-1.0, 1.0, (16, 8, 8))
    CHECKER = np.broadcast_to(1.7e308 * (-1.0) ** np.add.outer(np.arange(8), np.arange(8)),
                              (16, 8, 8))

    @pytest.mark.parametrize(
        "T, data, cfg",
        [
            (5.0, HUGE, {"M": 8}),
            (5.0, HUGE, {"M": "auto"}),
            (5.0, HUGE, {"M": 8, "eps": 0.1}),
            (5.0, CHECKER, {"M": 8}),
            (5.0, CHECKER, {"M": "auto"}),
            (1e4, HUGE / 100.0, {"M": 8}),
            (1e4, HUGE / 100.0, {"M": "auto"}),
        ],
        ids=["sigma-inf-M=8", "sigma-inf-M=auto", "sigma-inf-fixed-eps", "sigma-nan-M=8",
             "sigma-nan-M=auto", "eps-inf-M=8", "eps-inf-M=auto"],
    )
    def test_a_noise_level_that_is_not_finite_is_named(self, T, data, cfg):
        grid = TimeGrid(n=16, T=T)
        plan = Plan(grid, np.exp(-grid.points / 2.0), WaveletSpec(),
                    EstimatorConfig(**cfg), g_zero=1.0)
        with pytest.raises(ValueError, match="the noise level is not finite: sigma_hat = "):
            plan.apply(Cube(grid=grid, data=data))


class TestThresholds:
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

    @pytest.mark.parametrize("M", [np.int64(4), np.int32(4), np.uint8(4)], ids=repr)
    def test_takes_a_numpy_integer_order_as_its_value(self, M):
        norms = inverse_norms(PHI0, 8)
        assert np.array_equal(thresholds(M, 0.1, 1.0, norms), thresholds(4, 0.1, 1.0, norms))


class TestHardThreshold:
    def test_zero_thresholds_keep_everything(self):
        t = np.arange(1.0, 9.0).reshape(2, 2, 2)
        out, counts = hard_threshold(t, np.zeros(2))
        assert np.array_equal(out, t)
        assert list(counts) == [4, 4]

    def test_infinite_thresholds_keep_only_the_scaling_coefficients(self):
        out, counts = hard_threshold(np.ones((2, 2, 2)), np.full(2, np.inf))
        assert np.array_equal(out, [[[1.0, 0.0], [0.0, 0.0]]] * 2)
        assert list(counts) == [1, 1]

    def test_strict_inequality(self):
        out, counts = hard_threshold(np.array([[[0.5, -0.2]]]), np.array([0.3]))
        assert np.array_equal(out, [[[0.5, 0.0]]])
        assert list(counts) == [1]

    def test_keeps_and_counts_the_scaling_coefficient_below_its_lambda(self):
        # (l, 0, 0) survives at every level l, whatever its size or sign
        t = np.array([[[0.1, 0.2], [0.3, 0.4]], [[-0.0, 5.0], [-6.0, 0.5]]])
        out, counts = hard_threshold(t, np.array([10.0, 1.0]))
        assert np.array_equal(out, [[[0.1, 0.0], [0.0, 0.0]], [[-0.0, 5.0], [-6.0, 0.0]]])
        assert list(counts) == [1, 3]


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
        assert diag.projection_rank == 8  # long grid: nothing truncated

    def test_a_32_cube_fit_caches_one_matrix(self):
        # the transforms and sigma-hat all read the one W of the 32-pixel axis
        grid = TimeGrid(n=32, T=5.0)
        spec = WaveletSpec()
        rng = np.random.default_rng(3)
        data = cosine_field()[None] + 0.1 * rng.standard_normal((32, 32, 32))
        deconvolve(Cube(grid=grid, data=data), np.exp(-grid.points / 2.0), spec,
                   EstimatorConfig(M=8), g_zero=1.0)
        # beside W, sigma-hat's product for the 32 x 32 frame shape: its two
        # finest-detail blocks, views of that W
        assert list(spec._cache) == [32, (32, 32)]
        W = spec._cache[32]
        H1, H2T = spec._cache[32, 32]
        assert np.shares_memory(H1, W) and np.shares_memory(H2T, W)
        assert np.array_equal(H1, W[16:]) and np.array_equal(H2T, W[16:].T)

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
        imgs = np.stack([idwt2_array(theta[l], spec, theta.shape[-2:]) for l in range(8)])
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
            run_single(fid, snr, SimConfig(seed=77))[0] for snr in (3.0, 5.0, 7.0)
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
        via_coeffs = deconvolve(Y, LagCoeffs(np.eye(6)[0]), spec, cfg)
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
            g, g_zero = np.exp(-grid.points / 2.0), 1.0
        else:
            g, g_zero = LagCoeffs(np.eye(32)[0]), None
        auto, diag = deconvolve(Y, g, spec, EstimatorConfig(m_cap=m_cap), g_zero)
        assert diag.M == expect_M
        fixed, ref = deconvolve(Y, g, spec, EstimatorConfig(M=diag.M), g_zero)
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
    sigma = float(np.median([estimate_sigma(Y.data[k], spec) for k in range(n)]))
    eps = grid.T * sigma / math.sqrt(n) if cfg.eps == "auto" else float(cfg.eps)
    nodes = _kernel_nodes(g, g_zero, grid)
    if cfg.M == "auto":
        m_cap = min(cfg.m_cap, n)
        probe = fit_coeffs(nodes, tabulate_basis(m_cap, grid, cfg.rcond))
        M = select_M(inverse_norms(probe, m_cap), eps)
    else:
        M = cfg.M
    basis = tabulate_basis(M, grid, cfg.rcond)
    g_hat = fit_coeffs(nodes, basis)

    slices = dwt2_array(Y.data, spec, Y.data.shape[-2:])
    zero = 2.0 * slices[0] - slices[1] if n >= 2 else slices[0]
    full = np.concatenate([zero[None], slices])
    q = np.tensordot(basis.projector, full, axes=(1, 0))
    theta = solve_lower(g_hat, q)

    def depth_J(J, size):
        top = int(math.log2(size))
        if J != "auto":
            return min(int(J), top)
        if not cfg.threshold_mode or eps == 0.0:
            return top
        ratio = 1.0 / eps**2
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
    f = idwt2_array(rec, spec, rec.shape[-2:])
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
    cfg, spec, (n1, n2) = plan.cfg, plan.spec, Y.data.shape[1:]
    sigma = float(np.median([estimate_sigma(y, spec) for y in Y.data]))
    eps = Y.grid.T * sigma / math.sqrt(Y.grid.n) if cfg.eps == "auto" else float(cfg.eps)
    order = plan._order(cfg.M)
    theta = dwt2_array(np.tensordot(order.op, Y.data, axes=(1, 0)), spec, (n1, n2))
    J1, J2 = (_depth(J, n, eps, cfg.threshold_mode) for J, n in ((cfg.J1, n1), (cfg.J2, n2)))
    lev1, lev2 = level_of(n1), level_of(n2)
    in_omega = np.outer(lev1 < J1, lev2 < J2)
    theta = theta * in_omega
    keep_counts = lambdas = None
    if cfg.threshold_mode:
        lambdas = thresholds(cfg.M, eps, cfg.nu, order.norms)
        theta, keep_counts = hard_threshold(theta, lambdas)
    f_hat = np.tensordot(order.basis.values, idwt2_array(theta, spec, (n1, n2)), axes=(0, 0))
    return f_hat, dict(
        J1=J1, J2=J2, omega_dropped=cfg.M * int((~in_omega).sum()), keep_counts=keep_counts,
        total_counts=None if lambdas is None else np.full(cfg.M, int(in_omega.sum())),
        lambdas=lambdas,
    )


class TestOmegaBlock:
    @pytest.mark.parametrize("threshold_mode", [True, False], ids=["thresholds", "no-thresholds"])
    @pytest.mark.parametrize("J", ["auto", 0, (2, 4), (3, 1), 9], ids=str)
    # a given eps bypasses sigma-hat and moves the auto depth and the lambdas
    @pytest.mark.parametrize("eps", ["auto", 0.1], ids=["eps-auto", "eps-0.1"])
    @pytest.mark.parametrize("shape", [(32, 32), (16, 64), (64, 8), (128, 128)], ids=str)
    @pytest.mark.parametrize("family", ["haar", "daub4"])
    def test_matches_the_full_array_with_a_mask(self, family, shape, eps, J, threshold_mode):
        J1, J2 = J if isinstance(J, tuple) else (J, J)
        grid = TimeGrid(n=16, T=5.0)
        g = np.exp(-grid.points / 2.0)
        rng = np.random.Generator(np.random.Philox(sum(shape)))
        # eps ~ 0.25, so the auto depth is 4: a truncation on every side above 16
        Y = Cube(grid=grid, data=g[:, None, None] * cosine_field(*shape)
                 + 0.2 * rng.standard_normal((16, *shape)))
        cfg = EstimatorConfig(M=6, J1=J1, J2=J2, eps=eps, threshold_mode=threshold_mode)
        plan = Plan(grid, g, WaveletSpec(family), cfg, g_zero=1.0)

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
    @pytest.mark.parametrize(
        "cfg", [EstimatorConfig(M=4), EstimatorConfig(m_cap=4)], ids=["M=4", "M=auto"]
    )
    def test_a_singular_kernel_fails_when_the_plan_is_built(self, cfg):
        # g_0 = 0: G has a zero diagonal; no cube is needed to find out
        grid = TimeGrid(n=16, T=5.0)
        with pytest.raises(SingularOperatorError, match="zero diagonal"):
            Plan(grid, LagCoeffs([0.0, 1.0, 1.0, 1.0]), WaveletSpec(), cfg)

    # a tiny g_0 once gave dozens of overflow warnings and then eigvalsh's
    # "Eigenvalues did not converge": at 1e-200 and 1e-12 G^-1 overflows,
    # at 1e-3 only its Gram table does
    @pytest.mark.parametrize("g0, M", [(1e-200, 8), (1e-12, 64), (1e-3, 52), (1e-3, 64)])
    def test_a_numerically_singular_kernel_fails_when_the_plan_is_built(self, g0, M):
        grid = TimeGrid(n=64, T=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularOperatorError, match=f"order {M} \\(g_0 = {g0!r}\\)"):
                Plan(grid, LagCoeffs([g0] + [1.0] * 63), WaveletSpec(), EstimatorConfig(M=M))

    # M="auto" never picks an order whose norm is infinite: with g_0 = 1e-3
    # the Gram table overflows from order 52, so the plan starts from 51,
    # while a fixed M of 52 or more still raises (the cases above)
    def test_an_auto_plan_starts_below_the_first_order_that_overflows(self):
        grid = TimeGrid(n=64, T=5.0)
        plan = Plan(grid, LagCoeffs([1e-3] + [1.0] * 63), WaveletSpec(), EstimatorConfig())
        assert list(plan._orders) == [51] and np.isfinite(plan._first.norms.spectral[-1])

    @pytest.mark.parametrize("noise", [0, 1], ids=["sigma=0.01", "sigma=0.5"])
    def test_a_fit_on_an_auto_plan_below_the_overflow_is_finite(self, noise):
        grid = TimeGrid(n=64, T=5.0)
        plan = Plan(grid, LagCoeffs([1e-3] + [1.0] * 63), WaveletSpec(), EstimatorConfig())
        f_hat, diag = plan.apply(self.cubes(grid)[noise])
        assert diag.M <= 51 and np.all(np.isfinite(f_hat.data))

    # g_0 = 0 is singular at every order, order 1 included
    def test_an_auto_plan_of_a_kernel_with_g0_zero_still_fails(self):
        grid = TimeGrid(n=64, T=5.0)
        with pytest.raises(SingularOperatorError, match="zero diagonal"):
            Plan(grid, LagCoeffs([0.0] + [1.0] * 63), WaveletSpec(), EstimatorConfig())

    # a kernel that builds at the first order takes no step down
    @pytest.mark.parametrize("kernel, g_zero, first", [
        (LagCoeffs([1e-2] + [1.0] * 63), None, 64),
        (LagCoeffs([1.0, 0.4, 0.1, 0.05, 0.02]), None, 5),
        (np.exp(-TimeGrid(n=64, T=5.0).points / 2.0), 1.0, 64),
    ], ids=["g0=1e-2", "5-coeffs", "samples"])
    def test_an_auto_plan_that_builds_at_its_first_order_builds_only_that(
        self, kernel, g_zero, first
    ):
        grid = TimeGrid(n=64, T=5.0)
        plan = Plan(grid, kernel, WaveletSpec(), EstimatorConfig(), g_zero=g_zero)
        assert list(plan._orders) == [first]

    # every fixed M up to 51 builds with g_0 = 1e-3; 52 is the first that fails
    @pytest.mark.parametrize("g0, M", [(1e-2, 64), (1e-3, 51)])
    def test_a_small_g0_within_the_double_range_still_builds(self, g0, M):
        grid = TimeGrid(n=64, T=5.0)
        plan = Plan(grid, LagCoeffs([g0] + [1.0] * 63), WaveletSpec(), EstimatorConfig(M=M))
        assert np.all(np.isfinite(plan._first.op)) and np.isfinite(plan._first.norms.spectral[-1])

    @pytest.mark.parametrize(
        "cfg", [EstimatorConfig(M=6, rcond=0.01), EstimatorConfig(m_cap=12, rcond=0.01)],
        ids=["M=6", "M=auto"],
    )
    def test_the_built_order_is_complete(self, cfg):
        grid = TimeGrid(n=32, T=5.0)
        plan = Plan(grid, np.exp(-grid.points / 2.0), WaveletSpec(), cfg, g_zero=1.0)
        ((M, order),) = plan._orders.items()
        assert M == (cfg.M if cfg.M != "auto" else cfg.m_cap)
        assert order.basis is grid._cache[M, 0.01]
        assert order.op.shape == (M, grid.n) and order.norms.max_m == M

    def test_an_order_compares_and_hashes_by_identity(self):
        # its fields are arrays: a generated __eq__ raised numpy's ambiguous
        # truth value and a generated __hash__ a TypeError
        grid = TimeGrid(n=32, T=5.0)
        cfg = EstimatorConfig(M=6)
        a, b = (Plan(grid, np.exp(-grid.points / 2.0), WaveletSpec(), cfg)._order(6)
                for _ in range(2))
        assert a == a and a != b and len({a, b}) == 2

    # M="auto" starts from min(m_cap, n, kernel.m): coefficients shorter than
    # both the cap and the frames bound every order the plan builds, and the
    # rule may still pick a lower one
    @pytest.mark.parametrize(
        "cfg, M, built",
        [(EstimatorConfig(m_cap=12, eps=1e-12), 5, [5]),
         (EstimatorConfig(m_cap=12, eps=0.65), 4, [5, 4]),
         (EstimatorConfig(m_cap=12, eps=0.0, threshold_mode=False), 5, [5])],
        ids=["tiny-eps", "eps=0.65", "eps=0"],
    )
    def test_an_auto_plan_stops_at_the_count_of_short_coefficients(self, cfg, M, built):
        grid = TimeGrid(n=32, T=5.0)
        plan = Plan(grid, LagCoeffs([1.0, 0.4, 0.1, 0.05, 0.02]), WaveletSpec(), cfg)
        assert list(plan._orders) == [5]
        for Y in self.cubes(grid) * 2:
            assert plan.apply(Y)[1].M == M
        assert list(plan._orders) == built

    def cubes(self, grid, shape=(16, 16)):
        base = np.exp(-grid.points / 2.0)[:, None, None] * cosine_field(*shape)
        rng = np.random.Generator(np.random.Philox(21))
        noise = rng.standard_normal((2, grid.n, *shape))
        return [Cube(grid=grid, data=base + s * z) for s, z in zip((0.01, 0.5), noise)]

    # the order M="auto" picks for this cube, 3, is built after the caller
    # has changed its coefficient array: it is built from the plan's copy
    def test_a_plan_keeps_its_own_copy_of_the_kernel_coefficients(self):
        grid = TimeGrid(n=32, T=5.0)
        cfg = EstimatorConfig(m_cap=16, eps=0.3)
        values = np.array([0.5, 1.5] + [2.0] * 14)
        ref = Plan(grid, LagCoeffs(values.copy()), WaveletSpec(), cfg)
        plan = Plan(grid, LagCoeffs(values), WaveletSpec(), cfg)
        values *= 2.0
        Y = self.cubes(grid)[0]
        (f, diag), (f_ref, diag_ref) = plan.apply(Y), ref.apply(Y)
        assert list(plan._orders) == [16, 3]
        assert np.array_equal(f.data, f_ref.data)
        assert diag.to_dict() == diag_ref.to_dict()

    def test_a_plan_keeps_its_own_copy_of_an_array_g_zero(self):
        # the plan kept the caller's 0-d array, so the order M="auto" picks
        # later was fitted to g_zero = 50
        grid = TimeGrid(n=16, T=5.0)
        g = np.exp(-grid.points / 2.0) + 0.3 * np.exp(-grid.points)
        cfg = EstimatorConfig(m_cap=16, eps=0.8)
        g_zero = np.array(1.3)
        ref = Plan(grid, g, WaveletSpec(), cfg, g_zero=1.3)
        plan = Plan(grid, g, WaveletSpec(), cfg, g_zero=g_zero)
        g_zero[...] = 50.0
        Y = Cube(grid=grid, data=1.0 + 0.3 * np.random.default_rng(3).standard_normal((16, 8, 8)))
        (f, diag), (f_ref, diag_ref) = plan.apply(Y), ref.apply(Y)
        assert list(plan._orders) == [16, 2]
        assert np.array_equal(f.data, f_ref.data)
        assert diag.to_dict() == diag_ref.to_dict()

    @pytest.mark.parametrize(
        "cfg", [EstimatorConfig(M=8), EstimatorConfig(m_cap=16)], ids=["M=8", "M=auto"]
    )
    def test_one_plan_serves_cubes_with_different_noise(self, cfg):
        # eps, J, lambda and (with M="auto") M belong to the cube, not the plan
        grid = TimeGrid(n=32, T=5.0)
        spec = WaveletSpec()
        g = np.exp(-grid.points / 2.0)
        A, B = self.cubes(grid)
        plan = Plan(grid, g, spec, cfg, g_zero=1.0)
        outs = [plan.apply(Y) for Y in (A, B, A)]
        fresh = [deconvolve(Y, g, spec, cfg, g_zero=1.0) for Y in (A, B)]
        (fa, da), (fb, db) = fresh
        assert da.J1 != db.J1 and not np.array_equal(da.lambdas[1:], db.lambdas[1:])
        if cfg.M == "auto":
            assert da.M != db.M
        for (f, d), (f_ref, d_ref) in zip(outs, [fresh[0], fresh[1], fresh[0]]):
            assert np.array_equal(f.data, f_ref.data)
            assert d.to_dict() == d_ref.to_dict()

    @pytest.mark.parametrize(
        "cfg", [EstimatorConfig(M=8), EstimatorConfig(m_cap=16)], ids=["M=8", "M=auto"]
    )
    def test_plans_with_different_kernels_on_one_grid_share_the_basis(self, cfg):
        grid = TimeGrid(n=32, T=5.0)
        kernels = [np.exp(-grid.points / 2.0), np.exp(-grid.points) * grid.points]
        one, two = (Plan(grid, g, WaveletSpec(), cfg) for g in kernels)
        (M,) = set(one._orders) & set(two._orders)
        assert one._orders[M].basis is two._orders[M].basis is grid._cache[M, cfg.rcond]
        assert not np.array_equal(one._orders[M].op, two._orders[M].op)

    def test_a_second_auto_plan_on_the_grid_tabulates_and_factors_nothing(self, monkeypatch):
        grid = TimeGrid(n=64, T=5.0)
        A, B = self.cubes(grid)
        Plan(grid, np.exp(-grid.points / 2.0), WaveletSpec()).apply(A)
        calls = {"rows": 0, "svd": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(laguerre, "_phi_rows", counted("rows", laguerre._phi_rows))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        kernel = np.exp(-grid.points) * (1.0 + grid.points)
        _, diag = Plan(grid, kernel, WaveletSpec()).apply(A)
        assert (diag.M, laguerre.DEFAULT_RCOND) in grid._cache
        assert calls == {"rows": 0, "svd": 0}

    @pytest.mark.parametrize(
        "cfg", [EstimatorConfig(M=8), EstimatorConfig()], ids=["M=8", "M=auto"]
    )
    def test_a_fit_through_a_warm_grid_equals_one_on_a_fresh_grid(self, cfg):
        grid = TimeGrid(n=64, T=5.0)
        A, B = self.cubes(grid)
        for g in (np.exp(-grid.points), grid.points * np.exp(-grid.points)):
            Plan(grid, g, WaveletSpec(), cfg).apply(B)  # warms the grid
        key = (64 if cfg.M == "auto" else cfg.M, cfg.rcond)
        warmed = grid._cache[key]
        g = np.exp(-grid.points / 2.0)
        warm, dw = deconvolve(A, g, WaveletSpec(), cfg, g_zero=1.0)
        fresh_grid = TimeGrid(n=64, T=5.0)
        fresh, df = deconvolve(Cube(grid=fresh_grid, data=A.data), g, WaveletSpec(), cfg,
                               g_zero=1.0)
        assert grid._cache[key] is warmed
        assert fresh_grid._cache[key] is not warmed
        assert np.array_equal(warm.data, fresh.data)
        assert dw.to_dict() == df.to_dict()

    def test_warns_once_at_construction_when_M_exceeds_the_frames(self):
        grid = TimeGrid(n=16, T=5.0)
        with pytest.warns(UserWarning, match="M=40 exceeds the n=16 frames") as caught:
            plan = Plan(grid, np.exp(-grid.points / 2.0), WaveletSpec(),
                        EstimatorConfig(M=40), g_zero=1.0)
        assert len(caught) == 1
        (Y,) = self.cubes(grid, (8, 8))[:1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, diag = plan.apply(Y)
        assert diag.M == 40 and diag.projection_rank < grid.n

    def test_silent_when_M_is_within_the_frames(self):
        # M = 8 on 32 frames (the benchmark's setting) fits rank 5: normal
        grid = TimeGrid(n=32, T=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = Plan(grid, np.exp(-grid.points / 2.0), WaveletSpec(),
                        EstimatorConfig(M=8), g_zero=1.0)
            _, diag = plan.apply(self.cubes(grid)[0])
        assert diag.projection_rank == 5

    @pytest.mark.parametrize(
        "shape, message",
        [((12, 12), "n1 must be a power of two >= 2, got 12"),
         ((1, 8), "n1 must be a power of two >= 2, got 1"),
         ((8, 12), "n2 must be a power of two >= 2, got 12")],
        ids=["12x12", "1x8", "8x12"],
    )
    def test_rejects_a_bad_side_at_apply(self, shape, message):
        # the plan holds no raster: sigma-hat checks each cube's first frame
        grid = TimeGrid(n=16, T=5.0)
        plan = Plan(grid, np.exp(-grid.points / 2.0), WaveletSpec(), EstimatorConfig(M=4),
                    g_zero=1.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            plan.apply(Cube(grid=grid, data=np.ones((16, *shape))))

    # A kernel is one argument: a missing one is an object array, not
    # samples, and a t = 0 sample beside coefficients, once ignored without
    # a word, is an error.  Coefficients fewer than a fixed M fail in the
    # constructor's first order, by solve_lower's own count check.
    @pytest.mark.parametrize(
        "kernel, g_zero, message",
        [(None, None, "kernel samples must hold real numbers, got dtype object"),
         (PHI0, 1.0, "g_zero is the t = 0 value of kernel samples; "
                     "it does not apply to Laguerre coefficients"),
         (LagCoeffs([1.0, 0.5]), None, "need at least 4 kernel coefficients, got 2")],
        ids=["none", "coeffs-with-zero", "coeffs-shorter-than-M"],
    )
    def test_rejects_a_missing_kernel_or_a_zero_beside_coefficients(self, kernel, g_zero,
                                                                     message):
        grid = TimeGrid(n=16, T=5.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            Plan(grid, kernel, WaveletSpec(), EstimatorConfig(M=4), g_zero=g_zero)

    # the plan checks the samples and their t = 0 value where they enter:
    # a NaN once failed as "coefficients must be finite", and a string t = 0
    # value was fitted as its float
    @pytest.mark.parametrize(
        "sample, g_zero, message",
        [(math.nan, 1.0, "kernel samples must be finite"),
         (0.5, math.nan, "g_zero must be a finite real, got nan"),
         (0.5, "1", "g_zero must be a finite real, got '1'")],
        ids=["nan-sample", "nan-zero", "str-zero"],
    )
    def test_rejects_non_finite_or_non_real_kernel_samples(self, sample, g_zero, message):
        grid = TimeGrid(n=16, T=5.0)
        g = np.exp(-grid.points / 2.0)
        g[3] = sample
        for cfg in (EstimatorConfig(M=4), EstimatorConfig(m_cap=8)):
            with pytest.raises(ValueError, match=re.escape(message)):
                Plan(grid, g, WaveletSpec(), cfg, g_zero=g_zero)

    # the plan checks the samples' length where they enter, on the fixed-M
    # path and the M="auto" path alike
    @pytest.mark.parametrize("cfg", [EstimatorConfig(M=4), EstimatorConfig(m_cap=8)],
                             ids=["M=4", "M=auto"])
    def test_rejects_kernel_samples_of_another_length(self, cfg):
        grid = TimeGrid(n=16, T=5.0)
        message = "kernel samples must have shape (n,) = (16,), got (15,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            Plan(grid, np.exp(-grid.points[:15] / 2.0), WaveletSpec(), cfg, g_zero=1.0)

    def test_rejects_a_cube_of_another_grid(self):
        grid = TimeGrid(n=32, T=5.0)
        plan = Plan(grid, np.exp(-grid.points / 2.0), WaveletSpec(),
                    EstimatorConfig(M=4), g_zero=1.0)
        (other_grid,) = self.cubes(TimeGrid(n=32, T=6.0))[:1]
        with pytest.raises(ValueError, match="time grid"):
            plan.apply(other_grid)

    @pytest.mark.parametrize(
        "cfg", [EstimatorConfig(M=8), EstimatorConfig(m_cap=16)], ids=["M=8", "M=auto"]
    )
    def test_one_plan_serves_cubes_of_two_rasters(self, cfg):
        # no plan state depends on n1 x n2: W is cached per side on the spec
        grid = TimeGrid(n=32, T=5.0)
        g = np.exp(-grid.points / 2.0)
        plan = Plan(grid, g, WaveletSpec(), cfg, g_zero=1.0)
        square, wide = self.cubes(grid, (16, 16)), self.cubes(grid, (32, 8))
        for Y in (square[0], wide[0], square[1], wide[1], square[0]):
            f_hat, diag = plan.apply(Y)
            f_ref, d_ref = deconvolve(Y, g, WaveletSpec(), cfg, g_zero=1.0)
            assert f_hat.data.shape == Y.data.shape
            assert np.array_equal(f_hat.data, f_ref.data)
            assert diag.to_dict() == d_ref.to_dict()


class TestApplyBitIdentity:
    """`Plan.apply` against the pipeline written out with np.tensordot for
    both time contractions and np.median of the per-frame sigma-hats: every
    bit of the estimate, of the coefficient maps C that `Plan._fit` ends at
    and of the diagnostics must agree."""

    @staticmethod
    def reference(plan, Y):
        cfg, spec, (n1, n2) = plan.cfg, plan.spec, Y.data.shape[1:]
        sigma_hat = float(np.median([estimate_sigma(frame, spec) for frame in Y.data]))
        eps = Y.grid.T * sigma_hat / math.sqrt(Y.grid.n)
        m_cap = min(cfg.m_cap, Y.grid.n)  # kernel samples: kernel.m is n
        M = cfg.M if cfg.M != "auto" else select_M(plan._order(m_cap).norms, eps)
        order = plan._order(M)
        J1, J2 = (_depth(J, n, eps, True) for J, n in ((cfg.J1, n1), (cfg.J2, n2)))
        r1, r2 = 1 << J1, 1 << J2
        theta = dwt2_array(np.tensordot(order.op, Y.data, axes=(1, 0)), spec, (r1, r2))
        lambdas = thresholds(M, eps, cfg.nu, order.norms)
        theta, keep_counts = hard_threshold(theta, lambdas)
        C = idwt2_array(theta, spec, (n1, n2))
        f_hat = np.tensordot(order.basis.values, C, axes=(0, 0))
        diag = Diagnostics(
            sigma_hat=sigma_hat, eps_hat=eps, M=M, J1=J1, J2=J2,
            projection_rank=order.basis.rank, keep_counts=keep_counts,
            total_counts=np.full(M, r1 * r2), lambdas=lambdas,
            omega_dropped=M * (n1 * n2 - r1 * r2), thresholds_disabled_reason=None,
        )
        return f_hat, C, diag

    # an even and an odd frame count, so both branches of the median run
    @pytest.mark.parametrize(
        "n, M", [(32, 8), (31, 8), (64, "auto"), (63, "auto")],
        ids=["32^3-M=8", "31x32^2-M=8", "64x32^2-M=auto", "63x32^2-M=auto"],
    )
    def test_apply_equals_the_written_out_pipeline(self, n, M):
        grid = TimeGrid(n=n, T=5.0)
        g = np.exp(-grid.points / 2.0)
        plan = Plan(grid, g, WaveletSpec(), EstimatorConfig(M=M), g_zero=1.0)
        rng = np.random.Generator(np.random.Philox(n))
        for noise in (0.02, 0.2):
            data = g[:, None, None] * cosine_field() + noise * rng.standard_normal((n, 32, 32))
            Y = Cube(grid=grid, data=data)
            before = Y.data.copy()
            f_hat, diag = plan.apply(Y)
            f_ref, C_ref, d_ref = self.reference(plan, Y)
            assert np.array_equal(Y.data, before)  # apply leaves its input alone
            assert np.array_equal(f_hat.data, f_ref)
            assert diag.to_dict() == d_ref.to_dict()
            assert diag.thresholds_disabled_reason is None
            # the fit ends at C, and apply's estimate is the one synthesis B^T C
            order, C, fit_diag = plan._fit(Y)
            assert np.array_equal(C, C_ref)
            assert fit_diag.to_dict() == d_ref.to_dict()
            synthesis = np.dot(order.basis.values.T, C.reshape(diag.M, -1))
            assert np.array_equal(f_hat.data, synthesis.reshape(Y.data.shape))


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
            (0.05, {"eps": np.nextafter(1.0, 0.0)}, None),
            (0.05, {"eps": 1.0}, "eps >= 1"),
            (0.05, {"eps": 1e308}, "eps >= 1"),
            (0.05, {"eps": 1e308, "J1": 2, "J2": 2}, "eps >= 1"),
            (3.0, {}, "eps >= 1"),
        ],
    )
    def test_thresholds_disabled_reason(self, noise, cfg, reason):
        if reason is None or reason == "threshold_mode off":
            diag = self.fit(noise, **cfg)
        else:
            with pytest.warns(UserWarning, match=reason):
                diag = self.fit(noise, **cfg)
        assert diag.thresholds_disabled_reason == reason
        assert diag.to_dict()["thresholds_disabled_reason"] == reason
        if reason == "eps >= 1":  # no coefficient of this cube is exactly zero
            assert np.all(diag.lambdas == 0.0)
            assert np.array_equal(diag.keep_counts, diag.total_counts)

    # Formed directly, eps^-2 divides by zero for eps <= 1e-162; the depth
    # must not depend on it.
    @pytest.mark.parametrize(
        "cfg, depth", [({"eps": 1e-170}, 4), ({"eps": 1e-300}, 4), ({"eps": 0.3}, 3)]
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

    # With M="auto" and eps = 0 the order is the cap min(m_cap, n, ...), which
    # a numpy integer among the inputs used to carry into M and omega_dropped.
    @pytest.mark.parametrize(
        "grid, cfg",
        [(TimeGrid(n=16, T=5.0), EstimatorConfig(M="auto", m_cap=np.int64(8), eps=0.0)),
         (TimeGrid(n=np.int64(8), T=5.0), EstimatorConfig(eps=0.0))],
        ids=["numpy-m_cap", "numpy-n"],
    )
    def test_numpy_integer_inputs_give_python_ints(self, grid, cfg):
        Y = Cube(grid=grid, data=np.ones((grid.n, 8, 8)))
        with pytest.warns(UserWarning, match="eps = 0"):
            diag = deconvolve(Y, np.exp(-grid.points / 2.0), WaveletSpec(), cfg,
                              g_zero=1.0)[1]
        assert type(diag.M) is int and type(diag.omega_dropped) is int
        assert json.loads(json.dumps(diag.to_dict()))["M"] == 8

    def test_to_dict_turns_numpy_values_into_python_ones(self):
        diag = self.fit(0.05)
        diag.M, diag.sigma_hat = np.int64(4), np.float64(diag.sigma_hat)
        d = diag.to_dict()
        assert type(d["M"]) is int and type(d["sigma_hat"]) is float
        assert d["keep_counts"] == [int(k) for k in diag.keep_counts]
        assert d["lambdas"] == [float(v) for v in diag.lambdas]
        assert json.loads(json.dumps(d)) == d


class TestConfigValidation:
    def test_nu_positive(self):
        with pytest.raises(ValueError):
            EstimatorConfig(nu=0.0)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(M="sometimes")
        with pytest.raises(ValueError):
            EstimatorConfig(M=0)

    # thresholds and tabulate_basis once checked the order themselves (2.5
    # raised numpy's IndexError and True ran as M = 1), and the grid caches a
    # basis by its order, where 4.0 hashes like 4: an order that is not an
    # integer stops here, before any basis is built
    @pytest.mark.parametrize(
        "M", [2.5, 4.0, np.float64(4.0), True, False, 0, -1, np.int64(0), "4", None], ids=repr
    )
    def test_rejects_an_order_that_is_not_an_integer_of_at_least_one(self, M):
        with pytest.raises(ValueError, match=re.escape("M must be an integer >= 1 or 'auto'")):
            EstimatorConfig(M=M)

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

    # A truthy non-bool used to pass as a flag: threshold_mode="off" ran a
    # thresholded fit.
    @pytest.mark.parametrize(
        "value", ["off", "std", 0, 1, None, 1.0, "True", np.int64(1), np.array(True), [True]],
        ids=repr,
    )
    def test_rejects_a_flag_that_is_not_a_bool(self, value):
        with pytest.raises(
            ValueError, match=re.escape(f"threshold_mode must be True or False, got {value!r}")
        ):
            EstimatorConfig(threshold_mode=value)

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_], ids=repr)
    def test_accepts_a_bool_flag(self, value):
        assert EstimatorConfig(threshold_mode=value).threshold_mode == value

    def test_has_no_sigma_robust_field(self):
        # sigma-hat is always the MAD
        with pytest.raises(TypeError, match="sigma_robust"):
            EstimatorConfig(sigma_robust=False)

    def test_has_no_depth_constant_field(self):
        # the auto depth is 2^J = eps^-2, the paper's rule with its constant at 1
        with pytest.raises(TypeError, match="'A'"):
            EstimatorConfig(A=2.0)

    # An infinite eps fails deep in the fit (log(1/eps), floor(-2 log2 eps));
    # nu = inf runs and zeroes every detail.
    @pytest.mark.parametrize("field", ["nu", "eps"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_constants(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            EstimatorConfig(**{field: value})

    def test_accepts_numpy_integers_and_the_range_ends(self):
        cfg = EstimatorConfig(M=np.int64(8), J1=np.int32(0), J2=3, m_cap=np.int64(1), rcond=0.0)
        assert (cfg.M, cfg.J1, cfg.J2, cfg.m_cap) == (8, 0, 3, 1)

    # bool subclasses int: M=True, J1=True, J2=False used to fit as M = 1,
    # J1 = 1, J2 = 0.
    @pytest.mark.parametrize("field", ["M", "J1", "J2", "m_cap"])
    @pytest.mark.parametrize("value", [True, False], ids=repr)
    def test_rejects_a_bool_for_an_integer_setting(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            EstimatorConfig(**{field: value})

    @pytest.mark.parametrize("field", ["M", "J1", "J2", "m_cap"])
    def test_accepts_a_numpy_integer_for_an_integer_setting(self, field):
        assert getattr(EstimatorConfig(**{field: np.int64(8)}), field) == 8

    # nu=True and eps=True used to fit as 1.0, rcond=False as 0.0;
    # nu="1" raised a TypeError from the comparison.
    @pytest.mark.parametrize("field", ["nu", "eps", "rcond"])
    @pytest.mark.parametrize("value", [True, False, "1", None], ids=repr)
    def test_rejects_a_real_setting_that_is_not_a_real_number(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must .*, got {re.escape(repr(value))}"):
            EstimatorConfig(**{field: value})

    @pytest.mark.parametrize("field", ["nu", "eps", "rcond"])
    @pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5)], ids=repr)
    def test_accepts_a_numpy_float_for_a_real_setting(self, field, value):
        assert getattr(EstimatorConfig(**{field: value}), field) == 0.5
