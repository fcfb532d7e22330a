import math

import numpy as np
import pytest

from lagdeconv import (
    LagCoeffs,
    TimeGrid,
    eval_laguerre,
    fit_coeffs,
    project,
    reconstruct,
    smooth_series,
    tabulate_basis,
)
from lagdeconv.laguerre import _simpson_weights


def laguerre_sum(l: int, t: float) -> float:
    """Independent oracle: the explicit alternating factorial sum for L_l."""
    return sum(
        (-1) ** j * math.comb(l, j) * t**j / math.factorial(j) for j in range(l + 1)
    )


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


class TestEvalLaguerre:
    def test_at_zero(self):
        assert eval_laguerre(0, 0.0) == 1.0
        assert eval_laguerre(5, 0.0) == 1.0

    def test_l1_closed_form(self):
        # L_1(t) = 1 - t, so phi_1(2) = -e^{-1}
        assert eval_laguerre(1, 2.0) == pytest.approx(-math.exp(-1.0), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            eval_laguerre(-1, 1.0)
        with pytest.raises(ValueError):
            eval_laguerre(2, -0.5)
        with pytest.raises(ValueError):
            eval_laguerre(2, np.array([0.5, -0.1]))

    @pytest.mark.parametrize("l", range(13))
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0, 5.0])
    def test_recurrence_matches_explicit_sum(self, l, t):
        expected = math.exp(-t / 2.0) * laguerre_sum(l, t)
        got = eval_laguerre(l, t)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_array_input(self):
        t = np.linspace(0.0, 10.0, 11)
        vals = eval_laguerre(3, t)
        assert vals.shape == t.shape
        assert vals[0] == pytest.approx(1.0)


class TestTabulateBasis:
    def test_m1_row_is_phi0(self):
        g = TimeGrid(n=4, T=4.0)
        b = tabulate_basis(1, g)
        assert np.allclose(b.values[0], np.exp(-g.points / 2.0))

    def test_rows_match_pointwise(self):
        g = TimeGrid(n=17, T=7.0)
        b = tabulate_basis(3, g)
        for l in range(3):
            assert np.allclose(b.values[l], eval_laguerre(l, g.points), rtol=1e-12)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            tabulate_basis(0, TimeGrid(n=4, T=4.0))

    def test_orthonormality_on_oracle_grid(self, oracle_basis):
        # acceptance tolerance 1e-6; needs a grid that holds the basis decay
        w = oracle_basis.quad_weights
        v = oracle_basis.values_with_zero
        gram = (v * w) @ v.T
        assert np.abs(gram - np.eye(10)).max() <= 1e-6


class TestProject:
    def test_phi0_coefficients(self, oracle_grid):
        basis = tabulate_basis(4, oracle_grid)
        series = np.exp(-oracle_grid.points / 2.0)
        coeffs = project(series, basis, zero_value=1.0)
        assert np.abs(coeffs.values - [1.0, 0.0, 0.0, 0.0]).max() <= 1e-6

    def test_zero_series(self, oracle_grid):
        basis = tabulate_basis(4, oracle_grid)
        coeffs = project(np.zeros(oracle_grid.n), basis)
        assert np.all(coeffs.values == 0.0)

    def test_linear_combination(self, oracle_grid):
        basis = tabulate_basis(4, oracle_grid)
        series = 2.0 * basis.values[1] + 3.0 * basis.values[2]
        coeffs = project(series, basis, zero_value=5.0)  # 2*phi_1(0)+3*phi_2(0)
        assert np.abs(coeffs.values - [0.0, 2.0, 3.0, 0.0]).max() <= 1e-6

    def test_length_mismatch(self, oracle_grid):
        basis = tabulate_basis(4, oracle_grid)
        with pytest.raises(ValueError):
            project(np.zeros(10), basis)

    def test_projection_is_linear(self, oracle_grid):
        rng = np.random.default_rng(3)
        basis = tabulate_basis(5, oracle_grid)
        u = rng.standard_normal(oracle_grid.n)
        v = rng.standard_normal(oracle_grid.n)
        lhs = project(2.5 * u - 1.5 * v, basis).values
        rhs = 2.5 * project(u, basis).values - 1.5 * project(v, basis).values
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_fit_agrees_with_quadrature_on_long_grid(self, oracle_grid):
        rng = np.random.default_rng(4)
        basis = tabulate_basis(8, oracle_grid)
        series = rng.standard_normal(oracle_grid.n)
        a = project(series, basis).values
        b = fit_coeffs(series, basis).values
        assert np.abs(a - b).max() <= 1e-5 * max(1.0, np.abs(a).max())


class TestFitCoeffs:
    def test_in_span_recovery_on_short_grid(self, short_grid):
        # the stable projection nails in-span signals even where plain
        # quadrature is badly biased, provided no directions are dropped
        basis = tabulate_basis(8, short_grid)
        truth = np.array([1.0, -1.0, 0.5, 0.0, 0.25, 0.0, 0.0, 0.0])
        series = truth @ basis.values
        got = fit_coeffs(series, basis, rcond=1e-12, zero_value=float(truth.sum()))
        assert np.abs(got.values - truth).max() <= 1e-6

    def test_cutoff_rank_on_short_grid(self, short_grid):
        basis = tabulate_basis(8, short_grid)
        assert basis.projection_rank(0.1) == 5
        assert basis.projection_rank(1e-12) == 8


class TestReconstruct:
    def test_unit_coefficient(self, short_grid):
        basis = tabulate_basis(6, short_grid)
        out = reconstruct(LagCoeffs([1.0, 0.0, 0.0]), basis)
        assert np.array_equal(out, basis.values[0])

    def test_zero_coefficients(self, short_grid):
        basis = tabulate_basis(6, short_grid)
        assert np.all(reconstruct(LagCoeffs([0.0, 0.0]), basis) == 0.0)

    def test_too_many_coefficients(self, short_grid):
        basis = tabulate_basis(2, short_grid)
        with pytest.raises(ValueError):
            reconstruct(LagCoeffs([1.0, 2.0, 3.0]), basis)

    def test_roundtrip_on_oracle_grid(self, oracle_grid):
        rng = np.random.default_rng(11)
        basis = tabulate_basis(8, oracle_grid)
        coeffs = rng.standard_normal(8)
        series = reconstruct(LagCoeffs(coeffs), basis)
        back = project(series, basis, zero_value=float(coeffs.sum()))
        assert np.abs(back.values - coeffs).max() <= 1e-6


class TestSmoothSeries:
    def test_idempotent_on_in_span_series(self, short_grid):
        basis = tabulate_basis(4, short_grid)
        series = 0.7 * basis.values[0] - 0.2 * basis.values[3]
        out = smooth_series(series, basis, rcond=1e-12, zero_value=0.5)
        assert np.abs(out - series).max() <= 1e-8

    def test_zero_series(self, short_grid):
        basis = tabulate_basis(4, short_grid)
        assert np.all(smooth_series(np.zeros(short_grid.n), basis) == 0.0)

    def test_reduces_residual(self):
        grid = TimeGrid(n=256, T=20.0)
        basis = tabulate_basis(4, grid)
        clean = basis.values[0]
        noisy = clean + 0.3 * np.sin(40.0 * grid.points)
        out = smooth_series(noisy, basis)
        w = basis.quad_weights[1:]
        before = np.sum(w * (noisy - clean) ** 2)
        after = np.sum(w * (out - clean) ** 2)
        assert after < before


class TestConvolutionIdentity:
    """int_0^t phi_k(x) phi_j(t-x) dx = phi_{k+j}(t) - phi_{k+j+1}(t)."""

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_identity(self, t):
        steps = 4096
        z = np.linspace(0.0, t, steps + 1)
        w = np.full(steps + 1, t / steps)
        w[0] *= 0.5
        w[-1] *= 0.5
        for k in range(10):
            for j in range(10 - k):
                if k + j + 1 > 10:
                    continue
                val = np.sum(w * eval_laguerre(k, z) * eval_laguerre(j, t - z))
                ref = eval_laguerre(k + j, t) - eval_laguerre(k + j + 1, t)
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
