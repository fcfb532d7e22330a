import enum
import gc
import math
import numbers
import re
import sys
import weakref

import numpy as np
import pytest
from scipy import special

from lagdeconv import LagCoeffs, TimeGrid
from lagdeconv.laguerre import (
    _is_int_at_least,
    _is_real,
    _real_array,
    _simpson_weights,
    fit_coeffs,
    tabulate_basis,
)


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

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            tabulate_basis(0, TimeGrid(n=4, T=4.0))

    # True and 8.0 hash like 1 and 8: they must fail before the grid's cache
    @pytest.mark.parametrize("M", [2.5, 8.0, True, False, "4", None, -1], ids=repr)
    def test_rejects_an_order_that_is_not_a_positive_integer(self, M):
        g = TimeGrid(n=16, T=5.0)
        tabulate_basis(8, g)
        tabulate_basis(1, g)
        with pytest.raises(ValueError, match=re.escape(f"order M must be a positive integer, got {M!r}")):
            tabulate_basis(M, g)
        assert sorted(g._cache) == [(1, 0.1), (8, 0.1)]

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
    def test_phi0_coefficients(self, oracle_grid):
        basis = tabulate_basis(4, oracle_grid)
        series = np.exp(-oracle_grid.points / 2.0)
        coeffs = fit_coeffs(series, basis, zero_value=1.0)
        assert np.abs(coeffs.values - [1.0, 0.0, 0.0, 0.0]).max() <= 1e-6

    def test_zero_series(self, oracle_grid):
        basis = tabulate_basis(4, oracle_grid)
        coeffs = fit_coeffs(np.zeros(oracle_grid.n), basis)
        assert np.all(coeffs.values == 0.0)

    def test_linear_combination(self, oracle_grid):
        basis = tabulate_basis(4, oracle_grid)
        series = 2.0 * basis.values[1] + 3.0 * basis.values[2]
        coeffs = fit_coeffs(series, basis, zero_value=5.0)  # 2*phi_1(0)+3*phi_2(0)
        assert np.abs(coeffs.values - [0.0, 2.0, 3.0, 0.0]).max() <= 1e-6

    def test_length_mismatch(self, oracle_grid):
        basis = tabulate_basis(4, oracle_grid)
        with pytest.raises(ValueError):
            fit_coeffs(np.zeros(10), basis)

    @pytest.mark.parametrize(
        "sample, zero_value, message",
        [(math.nan, None, "series samples must be finite"),
         (-math.inf, 1.0, "series samples must be finite"),
         (0.0, math.inf, "series t = 0 value must be a finite real, got inf"),
         (0.0, True, "series t = 0 value must be a finite real, got True"),
         (0.0, np.zeros(2), "series t = 0 value must be a finite real, got array"),
         # an int beyond the double range used to end in OverflowError, "1"
         # used to be fitted as 1.0
         (0.0, 10**400, f"series t = 0 value must be a finite real, got {10**400}"),
         (0.0, "1", "series t = 0 value must be a finite real, got '1'"),
         (0.0, np.float64(math.nan), "series t = 0 value must be a finite real, got ")],
        ids=["nan-sample", "inf-sample", "inf", "True", "array", "10**400", "str", "nan"],
    )
    def test_rejects_non_finite_samples_and_a_non_real_zero_value(
        self, oracle_grid, sample, zero_value, message
    ):
        series = np.zeros(oracle_grid.n)
        series[1] = sample
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_coeffs(series, tabulate_basis(4, oracle_grid), zero_value=zero_value)

    def test_projection_is_linear(self, oracle_grid):
        rng = np.random.default_rng(3)
        basis = tabulate_basis(5, oracle_grid)
        u = rng.standard_normal(oracle_grid.n)
        v = rng.standard_normal(oracle_grid.n)
        lhs = fit_coeffs(2.5 * u - 1.5 * v, basis).values
        rhs = 2.5 * fit_coeffs(u, basis).values - 1.5 * fit_coeffs(v, basis).values
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_fit_agrees_with_quadrature_on_long_grid(self, oracle_grid):
        rng = np.random.default_rng(4)
        basis = tabulate_basis(8, oracle_grid)
        series = rng.standard_normal(oracle_grid.n)
        # reference: composite Simpson of series * phi_l on {0, t_1, .., t_n},
        # the t = 0 sample extrapolated linearly as fit_coeffs does
        full = np.concatenate([[2.0 * series[0] - series[1]], series])
        a = with_zero_column(basis) @ (_simpson_weights(oracle_grid.n, oracle_grid.step) * full)
        b = fit_coeffs(series, basis).values
        assert np.abs(a - b).max() <= 1e-5 * max(1.0, np.abs(a).max())

    def test_in_span_recovery_on_short_grid(self, short_grid):
        # the stable projection nails in-span signals even where plain
        # quadrature is badly biased, provided no directions are dropped
        basis = tabulate_basis(8, short_grid, rcond=1e-12)
        truth = np.array([1.0, -1.0, 0.5, 0.0, 0.25, 0.0, 0.0, 0.0])
        series = truth @ basis.values
        got = fit_coeffs(series, basis, zero_value=float(truth.sum()))
        assert np.abs(got.values - truth).max() <= 1e-6

    def test_cutoff_rank_on_short_grid(self, short_grid):
        assert tabulate_basis(8, short_grid, 0.1).rank == 5
        assert tabulate_basis(8, short_grid, 1e-12).rank == 8

    def test_roundtrip_on_oracle_grid(self, oracle_grid):
        rng = np.random.default_rng(11)
        basis = tabulate_basis(8, oracle_grid)
        coeffs = rng.standard_normal(8)
        series = coeffs @ basis.values
        back = fit_coeffs(series, basis, zero_value=float(coeffs.sum()))
        assert np.abs(back.values - coeffs).max() <= 1e-6


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

    @pytest.mark.parametrize("n", [1, 2, 16, 32])
    def test_pe_is_the_projector_times_the_extrapolation(self, n):
        # E maps the n samples to the n + 1 nodes: the t = 0 row is
        # 2 s_1 - s_2 (s_1 alone when n = 1), the rest the identity
        E = np.eye(n + 1, n, -1)
        E[0, 0] = 1.0 if n == 1 else 2.0
        if n > 1:
            E[0, 1] = -1.0
        b = tabulate_basis(6, TimeGrid(n=n, T=5.0))
        assert b.pe.shape == (6, n) and np.array_equal(b.pe, b.projector @ E)

    # 1, 1.5 and nan used to drop every direction (all-zero coefficients,
    # rank 0), a negative cutoff kept all of them
    @pytest.mark.parametrize("rcond", [1.0, 1.5, float("nan"), -0.5, float("inf"), True, "0.1"],
                             ids=repr)
    def test_rejects_a_cutoff_outside_the_unit_interval(self, rcond):
        g = TimeGrid(n=16, T=5.0)
        message = re.escape(f"rcond must lie in [0, 1), got {rcond!r}")
        with pytest.raises(ValueError, match=message):
            tabulate_basis(8, g, rcond)
        assert g._cache == {}

    @pytest.mark.parametrize("rcond", [0, 0.0, np.float32(0.5), 0.999], ids=repr)
    def test_accepts_a_cutoff_in_the_unit_interval(self, rcond):
        g = TimeGrid(n=16, T=5.0)
        b = tabulate_basis(8, g, rcond)
        ((key, cached),) = g._cache.items()
        assert key == (8, float(rcond)) and type(key[1]) is float and cached is b
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


# Every kind of value a setting may be given; the type checks' fast paths
# for a plain int and float must answer as the ABC checks alone do.
SETTING_VALUES = [
    0, 1, 2, -3, 2**80, -(2**80), np.int64(2), np.int64(-1), True, False,
    np.bool_(True), 2.0, np.float64(2.0), math.nan, math.inf, "3", None, _Level.TWO,
]


class TestSettingTypeChecks:
    @pytest.mark.parametrize("low", [0, 1, 2])
    @pytest.mark.parametrize("value", SETTING_VALUES, ids=repr)
    def test_int_check_matches_the_abc_check(self, value, low):
        want = isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low
        assert _is_int_at_least(value, low) == want

    @pytest.mark.parametrize("value", SETTING_VALUES, ids=repr)
    def test_real_check_matches_the_abc_check(self, value):
        want = isinstance(value, numbers.Real) and not isinstance(value, bool)
        assert _is_real(value) == want


class TestRealArray:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_returns_a_native_float64_array_as_it_is(self, order):
        a = np.asarray(np.random.default_rng(4).standard_normal((8, 4)), order=order)
        assert _real_array(a, "x") is a
        assert _real_array(a[:, ::2], "x", finite=False).base is a

    @pytest.mark.parametrize("finite", [True, False])
    def test_scans_a_float64_array_only_when_asked(self, finite):
        a = np.array([1.0, np.nan, 3.0])
        if finite:
            with pytest.raises(ValueError, match="x must be finite"):
                _real_array(a, "x")
        else:
            assert _real_array(a, "x", finite=False) is a

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, ">f8", np.float32])
    def test_converts_other_real_dtypes_to_native_float64(self, dtype):
        a = np.array([3, 1, 2], dtype=dtype)
        got = _real_array(a, "x")
        assert got is not a and got.dtype == np.dtype(float) and got.dtype.isnative
        assert np.array_equal(got, [3.0, 1.0, 2.0])
