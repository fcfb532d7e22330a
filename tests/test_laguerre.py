import enum
import gc
import math
import numbers
import re
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import special

from lagdeconv import (
    EstimatorConfig,
    LagCoeffs,
    Plan,
    SimConfig,
    TimeGrid,
    WaveletSpec,
    add_noise,
    eval_test_function,
    forward_convolve,
    run_table1,
)
from lagdeconv.laguerre import (
    _is_int_at_least,
    _is_real,
    _kernel_nodes,
    _real_array,
    _series_with_zero,
    _simpson_weights,
    fit_coeffs,
    tabulate_basis,
)
from lagdeconv.simulate import run_single


def laguerre_sum(l: int, t: float) -> float:
    """Independent oracle: the explicit alternating factorial sum for L_l."""
    return sum(
        (-1) ** j * math.comb(l, j) * t**j / math.factorial(j) for j in range(l + 1)
    )


def phi_oracle(l: int, t):
    """Independent oracle: scipy's Laguerre polynomial L_l times exp(-t/2)."""
    return special.eval_laguerre(l, t) * np.exp(-np.asarray(t, dtype=float) / 2.0)


def with_zero_column(basis) -> np.ndarray:
    """The basis on the nodes {0, t_1, .., t_n}: phi_l(0) = 1 for every l."""
    return np.concatenate([np.ones((basis.M, 1)), basis.values], axis=1)


class TestTimeGrid:
    def test_points(self):
        g = TimeGrid(n=4, T=4.0)
        assert np.allclose(g.points, [1.0, 2.0, 3.0, 4.0])
        assert g.points[-1] == g.T
        assert np.allclose(np.diff(g.points), g.step)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(n=0, T=1.0)
        with pytest.raises(ValueError):
            TimeGrid(n=4, T=0.0)

    @pytest.mark.parametrize(
        "n, T",
        [(2.5, 5.0), ("4", 5.0), (None, 5.0), (-3, 5.0),
         (4, float("inf")), (4, float("nan")), (4, "5.0"), (4, -1.0)],
        ids=["n-float", "n-str", "n-none", "n-negative",
             "T-inf", "T-nan", "T-str", "T-negative"],
    )
    def test_rejects_a_non_integer_size_or_a_non_finite_length(self, n, T):
        with pytest.raises(ValueError):
            TimeGrid(n=n, T=T)

    def test_accepts_numpy_scalars(self):
        g = TimeGrid(n=np.int64(4), T=np.float64(4.0))
        assert np.array_equal(g.points, TimeGrid(n=4, T=4.0).points)

    @pytest.mark.parametrize("n", [True, False], ids=repr)
    def test_rejects_a_bool_size(self, n):
        with pytest.raises(ValueError, match=f"n must be a positive integer, got {n!r}"):
            TimeGrid(n=n, T=5.0)

    def test_accepts_a_numpy_integer_size(self):
        assert TimeGrid(n=np.int64(8), T=5.0).n == 8

    # bool subclasses int: T=True used to run as a grid of length 1.0
    @pytest.mark.parametrize("T", [True, False], ids=repr)
    def test_rejects_a_bool_length(self, T):
        with pytest.raises(ValueError, match=f"T must be positive and finite, got {T!r}"):
            TimeGrid(n=4, T=T)

    @pytest.mark.parametrize("T", [np.float64(5.0), np.float32(5.0), np.int64(5)], ids=repr)
    def test_accepts_a_numpy_real_length(self, T):
        assert TimeGrid(n=4, T=T).T == 5.0

    # float(T) of an int beyond the double range overflows: 10**400 passed
    # 0 < T < inf and ended in an OverflowError traceback from `points`
    @pytest.mark.parametrize("T", [10**400, 2**1024, -(10**400)],
                             ids=["1e400", "2**1024", "-1e400"])
    def test_rejects_an_int_length_beyond_the_double_range(self, T):
        with pytest.raises(ValueError, match=f"T must be positive and finite, got {T!r}"):
            TimeGrid(1, T)

    # the largest of each kind converts without overflow, and warnings are
    # errors in this suite
    @pytest.mark.parametrize("T", [int(sys.float_info.max), np.finfo(np.float32).max,
                                   np.float64(sys.float_info.max)],
                             ids=["int", "float32", "float64"])
    def test_accepts_the_largest_length_of_each_kind(self, T):
        g = TimeGrid(1, T)
        assert g.points[0] == float(T)

    # An int T was multiplied by an int64 array of step numbers, and
    # 2**62 * 2 wrapped around to a negative time.  A cube header's T reaches
    # the grid as the JSON integer it may be.
    @pytest.mark.parametrize("T", [5, 2**62], ids=repr)
    def test_points_of_an_int_length_equal_those_of_its_float(self, T):
        assert np.array_equal(TimeGrid(n=8, T=T).points, TimeGrid(n=8, T=float(T)).points)


class TestTabulateBasis:
    def test_m1_row_is_phi0(self):
        g = TimeGrid(n=4, T=4.0)
        b = tabulate_basis(1, g)
        assert np.allclose(b.values[0], np.exp(-g.points / 2.0))

    def test_rows_match_pointwise(self):
        g = TimeGrid(n=17, T=7.0)
        b = tabulate_basis(13, g)
        for l in range(13):
            assert np.allclose(b.values[l], phi_oracle(l, g.points), rtol=1e-12, atol=1e-14)

    def test_l1_closed_form(self):
        # L_1(t) = 1 - t, so phi_1(2) = -e^{-1}; a one-point grid samples t_1 = T
        b = tabulate_basis(2, TimeGrid(n=1, T=2.0))
        assert b.values[1, 0] == pytest.approx(-math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("l", range(13))
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_recurrence_matches_explicit_sum(self, l, t):
        expected = math.exp(-t / 2.0) * laguerre_sum(l, t)
        got = tabulate_basis(13, TimeGrid(n=1, T=t)).values[l, 0]
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_orthonormality_on_oracle_grid(self, oracle_grid, oracle_basis):
        # acceptance tolerance 1e-6; needs a grid that holds the basis decay
        w = _simpson_weights(oracle_grid.n, oracle_grid.step)
        v = with_zero_column(oracle_basis)
        gram = (v * w) @ v.T
        assert np.abs(gram - np.eye(10)).max() <= 1e-6


class TestLagCoeffs:
    @pytest.mark.parametrize(
        "values, message",
        [(np.ones((2, 2)), "coefficients must be a nonempty 1-D vector"),
         ([], "coefficients must be a nonempty 1-D vector"),
         (1.0, "coefficients must be a nonempty 1-D vector"),
         ([1.0, math.nan], "coefficients must be finite")],
        ids=["2-D", "empty", "scalar", "nan"],
    )
    def test_rejects_what_is_not_a_finite_nonempty_vector(self, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            LagCoeffs(values)


class TestFitCoeffs:
    """fit_coeffs projects a series on the n + 1 nodes {0, t_1, .., t_n}, as
    a plan hands it over; `_kernel_nodes` builds and checks that series."""

    def test_phi0_coefficients(self, oracle_grid):
        basis = tabulate_basis(4, oracle_grid)
        series = np.exp(-oracle_grid.points / 2.0)
        coeffs = fit_coeffs(np.concatenate([[1.0], series]), basis)
        assert np.abs(coeffs.values - [1.0, 0.0, 0.0, 0.0]).max() <= 1e-6

    def test_zero_series(self, oracle_grid):
        basis = tabulate_basis(4, oracle_grid)
        coeffs = fit_coeffs(np.zeros(oracle_grid.n + 1), basis)
        assert np.all(coeffs.values == 0.0)

    def test_linear_combination(self, oracle_grid):
        basis = tabulate_basis(4, oracle_grid)
        series = 2.0 * basis.values[1] + 3.0 * basis.values[2]
        coeffs = fit_coeffs(np.concatenate([[5.0], series]), basis)  # 2*phi_1(0)+3*phi_2(0)
        assert np.abs(coeffs.values - [0.0, 2.0, 3.0, 0.0]).max() <= 1e-6

    def test_projection_is_linear(self, oracle_grid):
        rng = np.random.default_rng(3)
        basis = tabulate_basis(5, oracle_grid)
        u = _series_with_zero(rng.standard_normal(oracle_grid.n), None)
        v = _series_with_zero(rng.standard_normal(oracle_grid.n), None)
        lhs = fit_coeffs(2.5 * u - 1.5 * v, basis).values
        rhs = 2.5 * fit_coeffs(u, basis).values - 1.5 * fit_coeffs(v, basis).values
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_fit_agrees_with_quadrature_on_long_grid(self, oracle_grid):
        rng = np.random.default_rng(4)
        basis = tabulate_basis(8, oracle_grid)
        series = rng.standard_normal(oracle_grid.n)
        # reference: composite Simpson of series * phi_l on {0, t_1, .., t_n},
        # the t = 0 sample extrapolated linearly as a plan does
        full = np.concatenate([[2.0 * series[0] - series[1]], series])
        a = with_zero_column(basis) @ (_simpson_weights(oracle_grid.n, oracle_grid.step) * full)
        b = fit_coeffs(full, basis).values
        assert np.abs(a - b).max() <= 1e-5 * max(1.0, np.abs(a).max())

    def test_in_span_recovery_on_short_grid(self, short_grid):
        # the stable projection nails in-span signals even where plain
        # quadrature is badly biased, provided no directions are dropped
        basis = tabulate_basis(8, short_grid, rcond=1e-12)
        truth = np.array([1.0, -1.0, 0.5, 0.0, 0.25, 0.0, 0.0, 0.0])
        series = truth @ basis.values
        got = fit_coeffs(np.concatenate([[truth.sum()], series]), basis)
        assert np.abs(got.values - truth).max() <= 1e-6

    def test_cutoff_rank_on_short_grid(self, short_grid):
        assert tabulate_basis(8, short_grid, 0.1).rank == 5
        assert tabulate_basis(8, short_grid, 1e-12).rank == 8

    def test_roundtrip_on_oracle_grid(self, oracle_grid):
        rng = np.random.default_rng(11)
        basis = tabulate_basis(8, oracle_grid)
        coeffs = rng.standard_normal(8)
        series = coeffs @ basis.values
        back = fit_coeffs(np.concatenate([[coeffs.sum()], series]), basis)
        assert np.abs(back.values - coeffs).max() <= 1e-6


class TestKernelNodes:
    """A sample kernel is checked where it enters, a Plan or
    forward_convolve, by one rule; fit_coeffs once checked it at each order."""

    def test_the_nodes_are_the_t0_value_then_the_samples(self):
        grid = TimeGrid(n=4, T=4.0)
        samples = np.array([3.0, 5.0, 4.0, 1.0])
        assert np.array_equal(_kernel_nodes(samples, 2.5, grid), [2.5, 3.0, 5.0, 4.0, 1.0])
        assert np.array_equal(_kernel_nodes(samples, None, grid), [1.0, 3.0, 5.0, 4.0, 1.0])
        assert np.array_equal(_kernel_nodes([7], None, TimeGrid(n=1, T=1.0)), [7.0, 7.0])

    def test_returns_a_new_array(self):
        grid = TimeGrid(n=4, T=4.0)
        samples, zero = np.ones(4), np.array(1.5)
        nodes = _kernel_nodes(samples, zero, grid)
        samples[:], zero[...] = 9.0, 9.0
        assert np.array_equal(nodes, [1.5, 1.0, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize("samples", [np.zeros(10), np.zeros((16, 1)), np.zeros(17), 0.0],
                             ids=["10", "16x1", "17", "scalar"])
    def test_length_mismatch(self, samples):
        message = f"kernel samples must have shape (n,) = (16,), got {np.shape(samples)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            _kernel_nodes(samples, None, TimeGrid(n=16, T=5.0))

    @pytest.mark.parametrize(
        "sample, g_zero, message",
        [(math.nan, None, "kernel samples must be finite"),
         (-math.inf, 1.0, "kernel samples must be finite"),
         (0.0, math.inf, "g_zero must be a finite real, got inf"),
         (0.0, True, "g_zero must be a finite real, got True"),
         (0.0, np.zeros(2), "g_zero must be a finite real, got array"),
         # an int beyond the double range used to end in OverflowError, "1"
         # used to be fitted as 1.0
         (0.0, 10**400, f"g_zero must be a finite real, got {10**400}"),
         (0.0, "1", "g_zero must be a finite real, got '1'"),
         (0.0, np.float64(math.nan), "g_zero must be a finite real, got ")],
        ids=["nan-sample", "inf-sample", "inf", "True", "array", "10**400", "str", "nan"],
    )
    def test_rejects_non_finite_samples_and_a_non_real_zero_value(
        self, oracle_grid, sample, g_zero, message
    ):
        series = np.zeros(oracle_grid.n)
        series[1] = sample
        with pytest.raises(ValueError, match=re.escape(message)):
            _kernel_nodes(series, g_zero, oracle_grid)


class TestBasisCache:
    """The grid half of a plan: one read-only basis per (grid object, M, rcond)."""

    def test_one_basis_per_grid_order_and_cutoff(self):
        g = TimeGrid(n=16, T=5.0)
        b8 = tabulate_basis(8, g)
        assert tabulate_basis(8, g) is b8
        assert tabulate_basis(np.int64(8), g, np.float64(0.1)) is b8
        assert tabulate_basis(4, g) is not b8
        assert sorted(g._cache) == [(4, 0.1), (8, 0.1)]

    def test_equal_grids_that_are_separate_objects_keep_separate_caches(self):
        g, h = TimeGrid(n=16, T=5.0), TimeGrid(n=16, T=5.0)
        assert g == h and hash(g) == hash(h)
        a, b = tabulate_basis(8, g), tabulate_basis(8, h)
        assert a is not b and g._cache[8, 0.1] is a and h._cache[8, 0.1] is b

    def test_a_dropped_grid_frees_its_bases_without_the_garbage_collector(self):
        # a basis that held its grid would form a cycle through the cache
        g = TimeGrid(n=16, T=5.0)
        b = tabulate_basis(8, g)
        tabulate_basis(8, g, 1e-12)
        grid_ref, basis_ref = weakref.ref(g), weakref.ref(b)
        gc.disable()
        try:
            del g, b
            assert grid_ref() is None and basis_ref() is None
        finally:
            gc.enable()

    def test_each_rcond_gets_its_own_basis(self):
        g = TimeGrid(n=16, T=5.0)
        b = tabulate_basis(8, g, 0.1)
        fine = tabulate_basis(8, g, 1e-12)
        assert fine is not b and g._cache[8, 0.1] is b and g._cache[8, 1e-12] is fine
        assert (b.rank, fine.rank) == (5, 8)
        assert np.array_equal(b.values, fine.values)
        assert not np.array_equal(b.projector, fine.projector)
        assert sorted(g._cache) == [(8, 1e-12), (8, 0.1)]

    def test_projector_is_the_weighted_least_squares_fit(self, short_grid):
        # at rcond = 0 nothing is dropped: the projector is the normal-equation
        # solution (V W V^T)^-1 V W of the Simpson-weighted fit
        b = tabulate_basis(6, short_grid, 0.0)
        v = with_zero_column(b)
        w = _simpson_weights(short_grid.n, short_grid.step)
        expected = np.linalg.solve((v * w) @ v.T, v * w)
        assert b.projector.shape == (6, short_grid.n + 1) and b.rank == 6
        assert np.allclose(b.projector, expected, rtol=1e-8, atol=1e-8)

    def test_tables_are_read_only(self):
        b = tabulate_basis(4, TimeGrid(n=16, T=5.0))
        for table in (b.values, b.projector, b.pe):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0
        with pytest.raises(AttributeError):
            b.values = np.zeros((4, 16))

    def test_equal_grids_build_equal_tables_each_its_own_object(self):
        # a basis is its tables: it compares by identity and its repr
        # leaves them out
        a, b = tabulate_basis(4, TimeGrid(n=16, T=5.0)), tabulate_basis(4, TimeGrid(n=16, T=5.0))
        assert a != b and (a.M, a.rank) == (b.M, b.rank) == (4, 4)
        for name in ("values", "projector", "pe"):
            mine, theirs = getattr(a, name), getattr(b, name)
            assert mine is not theirs and np.array_equal(mine, theirs)
        assert repr(a) == "LaguerreBasis(M=4, rank=4)"

    @pytest.mark.parametrize("rcond", [0.0, 0.1])
    @pytest.mark.parametrize("M", [1, 6, 8, 64])
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 32, 33, 257])
    def test_pe_is_the_projector_times_the_extrapolation(self, n, M, rcond):
        # E maps the n samples to the n + 1 nodes: the t = 0 row is
        # 2 s_1 - s_2 (s_1 alone when n = 1), the rest the identity.  P E is
        # formed from that one row; the dense product through E is the
        # reference, bit for bit and zero signs included
        E = np.eye(n + 1, n, -1)
        E[0, 0] = 1.0 if n == 1 else 2.0
        if n > 1:
            E[0, 1] = -1.0
        assert np.array_equal(E, _series_with_zero(np.eye(n), None))
        b = tabulate_basis(M, TimeGrid(n=n, T=5.0), rcond)
        dense = b.projector @ E
        assert b.pe.shape == (M, n) and np.array_equal(b.pe, dense)
        assert np.array_equal(np.signbit(b.pe), np.signbit(dense))

    def test_builds_no_n_by_n_helper(self):
        # an n x n float64 array at n = 16,384 alone takes 2 GiB; the tables
        # of M = 10 take about 4 MiB
        tracemalloc.start()
        try:
            tabulate_basis(10, TimeGrid(n=16384, T=100.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    # a cutoff is cached as given: one that equals its float shares its entry
    @pytest.mark.parametrize("rcond", [0, 0.0, np.float32(0.5), 0.999], ids=repr)
    def test_accepts_a_cutoff_in_the_unit_interval(self, rcond):
        g = TimeGrid(n=16, T=5.0)
        b = tabulate_basis(8, g, rcond)
        ((key, cached),) = g._cache.items()
        assert key == (8, rcond) and cached is b and tabulate_basis(8, g, float(rcond)) is b
        assert 1 <= b.rank <= 8


class TestConvolutionIdentity:
    """int_0^t phi_k(x) phi_j(t-x) dx = phi_{k+j}(t) - phi_{k+j+1}(t)."""

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_identity(self, t):
        # the basis on the nodes z_i = t i/4096 of [0, t]; the nodes are
        # symmetric, so phi_j(t - z) is row j reversed
        steps = 4096
        v = with_zero_column(tabulate_basis(11, TimeGrid(n=steps, T=t)))
        w = np.full(steps + 1, t / steps)
        w[0] *= 0.5
        w[-1] *= 0.5
        for k in range(10):
            for j in range(10 - k):
                val = np.sum(w * v[k] * v[j][::-1])
                ref = phi_oracle(k + j, t) - phi_oracle(k + j + 1, t)
                assert abs(val - ref) <= 1e-4


class TestSimpsonWeights:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 8, 33])
    def test_exact_on_quadratics(self, m):
        # Simpson (and the 3/8 tail) integrates quadratics exactly; the
        # single-interval fallback is trapezoid, exact only on linears.
        h = 0.37
        w = _simpson_weights(m, h)
        x = h * np.arange(m + 1)
        deg = 1 if m == 1 else 2
        poly = x**deg
        exact = (m * h) ** (deg + 1) / (deg + 1)
        assert np.sum(w * poly) == pytest.approx(exact, rel=1e-12)
        assert np.sum(w) == pytest.approx(m * h, rel=1e-12)


class _Level(enum.IntEnum):
    TWO = 2


# Every kind of value a setting may be given, the edges of the double range
# included; each check must answer as its definition does.
SETTING_VALUES = [
    0, 1, 2, -3, 2**80, -(2**80), 10**400, -(10**400), 2**1024, int(sys.float_info.max),
    np.int64(2), np.int64(-1), True, False, np.bool_(True), 2.0, np.float64(2.0),
    math.nan, math.inf, -math.inf, "3", None, _Level.TWO,
]


def _short_repr(value) -> str:
    r = repr(value)
    return r if len(r) <= 32 else f"{r[:6]}...{r[-4:]}"


class TestSettingTypeChecks:
    @pytest.mark.parametrize("low", [0, 1, 2])
    @pytest.mark.parametrize("value", SETTING_VALUES, ids=_short_repr)
    def test_int_check_matches_the_abc_check(self, value, low):
        want = isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low
        assert _is_int_at_least(value, low) == want

    # a real setting is a finite double: a non-bool Real that float() maps
    # to a finite value, int(float_info.max) at the edge of the range
    @pytest.mark.parametrize("value", SETTING_VALUES, ids=_short_repr)
    def test_real_check_matches_the_abc_check(self, value):
        want = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max)
        assert _is_real(value) == want


_GRID8 = TimeGrid(n=8, T=5.0)
_SIM8 = SimConfig(n=8, n1=8, n2=8, runs=2)
_G8 = np.exp(-_GRID8.points / 2.0)

# (the name its ValueError gives it, whether None leaves it unset, the call)
# for every real setting of a public entry
REAL_SETTINGS = {
    "TimeGrid.T": ("T", False, lambda v: TimeGrid(n=8, T=v)),
    "SimConfig.T": ("T", False, lambda v: SimConfig(T=v)),
    "EstimatorConfig.nu": ("nu", False, lambda v: EstimatorConfig(nu=v)),
    "EstimatorConfig.eps": ("eps", False, lambda v: EstimatorConfig(eps=v)),
    "EstimatorConfig.rcond": ("rcond", False, lambda v: EstimatorConfig(rcond=v)),
    "add_noise snr": ("snr", False, lambda v: add_noise(eval_test_function("f2", _SIM8), v, 0)),
    "run_table1 snr": ("snr", False, lambda v: run_table1(_SIM8, snrs=(v,))),
    "run_single snr": ("snr", False, lambda v: run_single("f1", v, _SIM8)),
    "Plan g_zero": ("g_zero", True,
                    lambda v: Plan(_GRID8, _G8, WaveletSpec(), EstimatorConfig(M=4), v)),
    "forward_convolve g_zero": ("g_zero", True, lambda v: forward_convolve(
        eval_test_function("f2", _SIM8), _G8, g_zero=v)),
    "kernel entry g_zero": ("g_zero", True, lambda v: _kernel_nodes(_G8, v, _GRID8)),
}
BAD_REALS = {"True": True, "'1'": "1", "None": None, "nan": math.nan, "inf": math.inf,
             "-inf": -math.inf, "1e400": 10**400, "-1e400": -(10**400)}


class TestRealSettings:
    # nu, eps and the snr took 10**400, and the snr +inf, then failed inside
    # the fit with an OverflowError, or wrote a noise-free cube
    @pytest.mark.parametrize("entry, value", [
        pytest.param(entry, value, id=f"{entry}={label}")
        for entry, (_, none_unsets, _) in REAL_SETTINGS.items()
        for label, value in BAD_REALS.items() if not (value is None and none_unsets)
    ])
    def test_rejects_a_value_that_is_not_a_finite_double(self, entry, value):
        name, _, call = REAL_SETTINGS[entry]
        with pytest.raises(ValueError, match=f"{name} must .*, got {re.escape(repr(value))}$"):
            call(value)


class TestRealArray:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_returns_a_native_float64_array_as_it_is(self, order):
        a = np.asarray(np.random.default_rng(4).standard_normal((8, 4)), order=order)
        assert _real_array(a, "x") is a
        assert _real_array(a[:, ::2], "x").base is a

    def test_scans_a_float64_array_for_non_finite_values(self):
        with pytest.raises(ValueError, match="x must be finite"):
            _real_array(np.array([1.0, np.nan, 3.0]), "x")

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, ">f8", np.float32])
    def test_converts_other_real_dtypes_to_native_float64(self, dtype):
        a = np.array([3, 1, 2], dtype=dtype)
        got = _real_array(a, "x")
        assert got is not a and got.dtype == np.dtype(float) and got.dtype.isnative
        assert np.array_equal(got, [3.0, 1.0, 2.0])
