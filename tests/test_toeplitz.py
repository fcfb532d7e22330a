import numpy as np
import pytest
from scipy.linalg import solve_triangular

from lagdeconv import LagCoeffs, SingularOperatorError, TimeGrid, inverse_norms
from lagdeconv.laguerre import fit_coeffs, tabulate_basis
from lagdeconv.toeplitz import (
    InverseNormTable,
    LowerToeplitz,
    build_G,
    select_M,
    solve_lower,
)

PHI0_COEFFS = LagCoeffs(np.concatenate([[1.0], np.zeros(299)]))


def random_well_conditioned(rng, m):
    """Diagonally dominant first column keeps the solve well conditioned."""
    col = rng.standard_normal(m) * 0.3 / np.arange(1, m + 1)
    col[0] = 1.0 + rng.uniform(0.0, 1.0)
    return LowerToeplitz(col)


def aif_coeffs(m=64):
    """Laguerre fit of a bolus-plus-washout curve, the shape of an arterial
    input function; its inverse norms grow to about 150 by m = 64."""
    grid = TimeGrid(n=m, T=5.0)

    def g(t):
        return (t / 0.7) ** 2.25 * np.exp(2.25 * (1.0 - t / 0.7)) + 0.3 * np.exp(-t / 3.5)

    return fit_coeffs(g(grid.points), tabulate_basis(m, grid), zero_value=g(0.0))


def norm_kernels():
    kernels = {"phi0": PHI0_COEFFS, "aif": aif_coeffs()}
    for seed in range(3):
        G = random_well_conditioned(np.random.default_rng(seed), 64)
        kernels[f"random{seed}"] = LagCoeffs(np.cumsum(G.col))
    return kernels


KERNELS = norm_kernels()


def svd_oracle(g_coeffs, m):
    """||(G^(m))^-1|| from the dense inverse of the m x m operator."""
    return np.linalg.svd(np.linalg.inv(build_G(g_coeffs, m).dense()), compute_uv=False)[0]


class TestBuildG:
    def test_phi0_kernel(self):
        G = build_G(LagCoeffs([1.0, 0.0, 0.0]), 3)
        assert np.allclose(G.col, [1.0, -1.0, 0.0])

    def test_one_by_one(self):
        G = build_G(LagCoeffs([2.0, 0.0, 0.0]), 1)
        assert G.m == 1 and G.col[0] == 2.0

    def test_differences(self):
        G = build_G(LagCoeffs([1.0, 0.5, 0.25]), 3)
        assert np.allclose(G.col, [1.0, -0.5, -0.25])

    def test_rejects_m_zero(self):
        with pytest.raises(ValueError):
            build_G(LagCoeffs([1.0]), 0)

    def test_dense_layout(self):
        G = build_G(LagCoeffs([1.0, 0.5, 0.25]), 3)
        dense = G.dense()
        assert np.allclose(dense, [[1.0, 0, 0], [-0.5, 1.0, 0], [-0.25, -0.5, 1.0]])


class TestSolveLower:
    def test_identity(self):
        G = LowerToeplitz([1.0, 0.0, 0.0])
        rhs = np.array([3.0, -1.0, 2.0])
        assert np.allclose(solve_lower(G, rhs), rhs)

    def test_two_by_two_hand_solve(self):
        G = LowerToeplitz([2.0, 1.0])
        assert np.allclose(solve_lower(G, np.array([2.0, 5.0])), [1.0, 2.0])

    def test_phi0_gives_cumulative_sums(self):
        # G from g = phi_0 has the all-ones lower-triangular inverse
        G = build_G(PHI0_COEFFS, 6)
        rhs = np.arange(1.0, 7.0)
        assert np.allclose(solve_lower(G, rhs), np.cumsum(rhs))

    @pytest.mark.parametrize("m", [2, 8, 33, 64])
    def test_against_dense_oracle(self, m):
        rng = np.random.default_rng(m)
        G = random_well_conditioned(rng, m)
        rhs = rng.standard_normal(m)
        got = solve_lower(G, rhs)
        ref = solve_triangular(G.dense(), rhs, lower=True)
        assert np.abs(got - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_matvec_roundtrip(self, m):
        rng = np.random.default_rng(100 + m)
        G = random_well_conditioned(rng, m)
        rhs = rng.standard_normal(m)
        back = G.dense() @ solve_lower(G, rhs)
        assert np.abs(back - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    def test_multiple_rhs(self):
        rng = np.random.default_rng(5)
        G = random_well_conditioned(rng, 8)
        rhs = rng.standard_normal((8, 7))
        got = solve_lower(G, rhs)
        for j in range(7):
            assert np.allclose(got[:, j], solve_lower(G, rhs[:, j]))
        stacked = rng.standard_normal((8, 3, 5))
        got = solve_lower(G, stacked)
        assert got.shape == (8, 3, 5)
        for j in range(3):
            for k in range(5):
                assert np.allclose(got[:, j, k], solve_lower(G, stacked[:, j, k]))

    def test_singular_raises(self):
        G = build_G(LagCoeffs([0.0, 1.0]), 2)
        with pytest.raises(SingularOperatorError):
            solve_lower(G, np.ones(2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            solve_lower(LowerToeplitz([1.0, 0.5]), np.ones(3))


class TestInverseNorms:
    def test_phi0_m1(self):
        tab = inverse_norms(PHI0_COEFFS, 1)
        assert tab.spectral_at(1) == pytest.approx(1.0)
        assert tab.frobenius_at(1) == pytest.approx(1.0)

    def test_phi0_frobenius_counts_unit_entries(self):
        # all-ones inverse: squared Frobenius norm is m(m+1)/2
        tab = inverse_norms(PHI0_COEFFS, 4)
        assert tab.frobenius_at(4) ** 2 == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 5, 17, 64])
    def test_frobenius_matches_dense_oracle(self, m):
        rng = np.random.default_rng(m + 7)
        G = random_well_conditioned(rng, m)
        tab = inverse_norms(LagCoeffs(np.cumsum(G.col)), m)
        dense_inv = np.linalg.inv(G.dense())
        assert tab.frobenius_at(m) == pytest.approx(
            np.linalg.norm(dense_inv, "fro"), rel=1e-10
        )

    @pytest.mark.parametrize("m", [2, 8, 32, 64])
    def test_spectral_matches_svd_oracle(self, m):
        rng = np.random.default_rng(m + 13)
        G = random_well_conditioned(rng, m)
        g = LagCoeffs(np.cumsum(G.col))
        tab = inverse_norms(g, m)
        for k in range(1, m + 1):
            assert tab.spectral_at(k) == pytest.approx(svd_oracle(g, k), rel=1e-10)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_every_m_matches_svd_oracle(self, name):
        g = KERNELS[name]
        tab = inverse_norms(g, 64)
        for m in range(1, 65):
            assert tab.spectral_at(m) == pytest.approx(svd_oracle(g, m), rel=1e-10)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_table_is_deterministic_monotone_and_prefix_closed(self, name):
        g = KERNELS[name]
        tab = inverse_norms(g, 64)
        again = inverse_norms(g, 64)
        assert np.array_equal(tab.spectral, again.spectral)
        assert np.array_equal(tab.frobenius, again.frobenius)
        assert np.all(np.diff(tab.spectral) >= 0)
        # entry m depends only on the first m kernel coefficients
        short = inverse_norms(g, 40)
        assert np.array_equal(short.spectral, tab.spectral[:40])
        assert np.array_equal(short.frobenius, tab.frobenius[:40])

    @pytest.mark.parametrize("name", sorted(KERNELS))
    @pytest.mark.parametrize("max_m", [1, 7, 9, 37, 63])
    def test_prefix_closed_off_the_bucket_width(self, name, max_m):
        g = KERNELS[name]
        full = inverse_norms(g, 64)
        short = inverse_norms(g, max_m)
        assert np.array_equal(short.spectral, full.spectral[:max_m])
        assert np.array_equal(short.frobenius, full.frobenius[:max_m])

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_one_entry_table_spectral_equals_frobenius(self, name):
        tab = inverse_norms(KERNELS[name], 1)
        assert tab.spectral_at(1) == tab.frobenius_at(1)

    def test_every_m_to_256_matches_dense_inverse_oracle(self):
        G = random_well_conditioned(np.random.default_rng(256), 256)
        tab = inverse_norms(LagCoeffs(np.cumsum(G.col)), 256)
        # the leading m x m block of a lower-triangular inverse is (G^(m))^-1
        dense_inv = np.linalg.inv(G.dense())
        for m in range(1, 257):
            block = dense_inv[:m, :m]
            assert tab.spectral_at(m) == pytest.approx(
                np.linalg.svd(block, compute_uv=False)[0], rel=1e-12
            )
            assert tab.frobenius_at(m) == pytest.approx(
                np.linalg.norm(block, "fro"), rel=1e-12
            )

    def test_monotone_and_dominated(self):
        tab = inverse_norms(PHI0_COEFFS, 64)
        assert np.all(np.diff(tab.spectral) >= 0)
        assert np.all(np.diff(tab.frobenius) > 0)
        assert np.all(tab.spectral <= tab.frobenius * (1 + 1e-12))

    def test_growth_slope_matches_degree_of_ill_posedness(self):
        # g(0) != 0 means r = 1, so ||(G^(m))^-1||_F^2 grows like m^{2r} = m^2
        tab = inverse_norms(PHI0_COEFFS, 256)
        ms = np.arange(8, 257)
        logf2 = 2.0 * np.log(tab.frobenius[7:])
        slope = np.polyfit(np.log(ms), logf2, 1)[0]
        assert abs(slope - 2.0) <= 0.3

    def test_variance_growth_under_white_noise(self):
        # Var[theta_l] for G from phi_0 grows like l^{2r-1} = l
        G = build_G(PHI0_COEFFS, 64)
        rng = np.random.default_rng(42)
        theta = solve_lower(G, rng.standard_normal((64, 4000)))
        var = theta.var(axis=1)
        ls = np.arange(1, 65)
        slope = np.polyfit(np.log(ls[1:]), np.log(var[1:]), 1)[0]
        assert abs(slope - 1.0) <= 0.3

    def test_singular_kernel_rejected(self):
        with pytest.raises(SingularOperatorError):
            inverse_norms(LagCoeffs([0.0, 1.0]), 2)


class TestSelectM:
    def test_locates_threshold_crossing(self):
        # dense-SVD oracle: first m whose inverse spectral norm exceeds 4
        tab = inverse_norms(PHI0_COEFFS, 32)
        dense_norms = []
        for m in range(1, 33):
            G = build_G(PHI0_COEFFS, m).dense()
            dense_norms.append(np.linalg.svd(np.linalg.inv(G), compute_uv=False)[0])
        crossing = next(i for i, v in enumerate(dense_norms, start=1) if v > 4.0)
        assert select_M(tab, eps=0.5) == crossing - 1

    def test_clamp_floor(self):
        tab = inverse_norms(PHI0_COEFFS, 8)
        assert select_M(tab, eps=10.0) == 1  # eps^-2 = 0.01 < spectral[1]

    def test_clamp_ceiling_and_cap(self):
        tab = inverse_norms(PHI0_COEFFS, 8)
        assert select_M(tab, eps=1e-9) == 8
        head = InverseNormTable(tab.spectral[:5], tab.frobenius[:5])  # the cap is the table's length
        assert select_M(head, eps=1e-9) == 5

    def test_rejects_bad_eps(self):
        tab = inverse_norms(PHI0_COEFFS, 4)
        with pytest.raises(ValueError):
            select_M(tab, eps=0.0)
