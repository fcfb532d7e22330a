import re
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular, toeplitz

from lagdeconv import LagCoeffs, SingularOperatorError, TimeGrid, inverse_norms
from lagdeconv.laguerre import fit_coeffs, tabulate_basis
from lagdeconv.toeplitz import InverseNormTable, select_M, solve_lower

PHI0_COEFFS = LagCoeffs(np.concatenate([[1.0], np.zeros(299)]))


def dense(col):
    """The lower-triangular Toeplitz matrix with first column col."""
    return toeplitz(col, np.zeros(len(col)))


def kernel_of(col):
    """Kernel coefficients whose operator has first column col: g = cumsum(col)."""
    return LagCoeffs(np.cumsum(col))


def operator(g_coeffs, m):
    """Dense m x m convolution operator: first column (g_0, g_1 - g_0, ...)."""
    g = g_coeffs.values[:m]
    return dense(np.r_[g[0], g[1:] - g[:-1]])


def random_well_conditioned(rng, m):
    """Diagonally dominant first column keeps the solve well conditioned."""
    col = rng.standard_normal(m) * 0.3 / np.arange(1, m + 1)
    col[0] = 1.0 + rng.uniform(0.0, 1.0)
    return col


def aif_coeffs(m=64):
    """Laguerre fit of a bolus-plus-washout curve, the shape of an arterial
    input function; its inverse norms grow to about 150 by m = 64."""
    grid = TimeGrid(n=m, T=5.0)

    def g(t):
        return (t / 0.7) ** 2.25 * np.exp(2.25 * (1.0 - t / 0.7)) + 0.3 * np.exp(-t / 3.5)

    return fit_coeffs(np.concatenate([[g(0.0)], g(grid.points)]), tabulate_basis(m, grid))


def norm_kernels():
    kernels = {"phi0": PHI0_COEFFS, "aif": aif_coeffs()}
    for seed in range(3):
        col = random_well_conditioned(np.random.default_rng(seed), 64)
        kernels[f"random{seed}"] = kernel_of(col)
    return kernels


KERNELS = norm_kernels()


def svd_oracle(g_coeffs, m):
    """||(G^(m))^-1|| from the dense inverse of the m x m operator."""
    return np.linalg.svd(np.linalg.inv(operator(g_coeffs, m)), compute_uv=False)[0]


class TestSolveLower:
    def test_phi0_kernel(self):
        # g = phi_0: G has first column (1, -1, 0), so G^-1 is all ones below
        # the diagonal
        got = solve_lower(LagCoeffs([1.0, 0.0, 0.0]), np.eye(3))
        assert np.allclose(got, np.tril(np.ones((3, 3))))
        assert np.allclose(dense([1.0, -1.0, 0.0]) @ got, np.eye(3))

    def test_one_by_one(self):
        # a one-row rhs reads g_0 alone
        assert np.array_equal(solve_lower(LagCoeffs([2.0, 0.0, 0.0]), np.array([4.0])), [2.0])

    def test_differences(self):
        # the operator's column is (g_0, g_1 - g_0, g_2 - g_1)
        got = solve_lower(LagCoeffs([1.0, 0.5, 0.25]), np.eye(3))
        assert np.allclose(dense([1.0, -0.5, -0.25]) @ got, np.eye(3))

    def test_identity(self):
        rhs = np.array([3.0, -1.0, 2.0])
        assert np.allclose(solve_lower(kernel_of([1.0, 0.0, 0.0]), rhs), rhs)

    def test_two_by_two_hand_solve(self):
        got = solve_lower(kernel_of([2.0, 1.0]), np.array([2.0, 5.0]))
        assert np.allclose(got, [1.0, 2.0])

    def test_phi0_gives_cumulative_sums(self):
        # G from g = phi_0 has the all-ones lower-triangular inverse
        rhs = np.arange(1.0, 7.0)
        assert np.allclose(solve_lower(PHI0_COEFFS, rhs), np.cumsum(rhs))

    @pytest.mark.parametrize("m", [2, 8, 33, 64])
    def test_against_dense_oracle(self, m):
        rng = np.random.default_rng(m)
        col = random_well_conditioned(rng, m)
        rhs = rng.standard_normal(m)
        got = solve_lower(kernel_of(col), rhs)
        ref = solve_triangular(dense(col), rhs, lower=True)
        assert np.abs(got - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_matvec_roundtrip(self, m):
        rng = np.random.default_rng(100 + m)
        col = random_well_conditioned(rng, m)
        rhs = rng.standard_normal(m)
        back = dense(col) @ solve_lower(kernel_of(col), rhs)
        assert np.abs(back - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    def test_multiple_rhs(self):
        rng = np.random.default_rng(5)
        g = kernel_of(random_well_conditioned(rng, 8))
        rhs = rng.standard_normal((8, 7))
        got = solve_lower(g, rhs)
        for j in range(7):
            assert np.allclose(got[:, j], solve_lower(g, rhs[:, j]))
        stacked = rng.standard_normal((8, 3, 5))
        got = solve_lower(g, stacked)
        assert got.shape == (8, 3, 5)
        for j in range(3):
            for k in range(5):
                assert np.allclose(got[:, j, k], solve_lower(g, stacked[:, j, k]))

    def test_singular_raises(self):
        with pytest.raises(SingularOperatorError):
            solve_lower(LagCoeffs([0.0, 1.0]), np.ones(2))

    @pytest.mark.parametrize("g0, m", [(1e-200, 8), (1e-200, 2), (1e-12, 64)])
    def test_an_inverse_that_overflows_is_singular(self, g0, m):
        # the column grows by about 1/g_0 a step: at 1e-200 its second
        # entry overflows, at 1e-12 it passes the double range near m = 26
        message = f"numerically singular operator: G^-1 overflows at order {m} (g_0 = {g0!r})"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularOperatorError, match=re.escape(message)):
                solve_lower(LagCoeffs([g0] + [1.0] * (m - 1)), np.eye(m))

    def test_too_few_coefficients(self):
        with pytest.raises(ValueError, match="need at least 3 kernel coefficients, got 2"):
            solve_lower(LagCoeffs([1.0, 0.5]), np.ones(3))

    def test_reads_only_the_leading_m_coefficients(self):
        rng = np.random.default_rng(11)
        col = random_well_conditioned(rng, 12)
        rhs = rng.standard_normal(5)
        assert np.array_equal(solve_lower(kernel_of(col), rhs),
                              solve_lower(kernel_of(col[:5]), rhs))

    # G^-1 is read as reversed windows of its first column c; the reference
    # is the former index-grid construction with its masked negative indices
    @pytest.mark.parametrize("m", [1, 2, 5, 64])
    def test_inverse_matches_the_index_grid_bit_for_bit(self, m):
        kernel = aif_coeffs(m)
        c = solve_lower(kernel, np.eye(m)[0])
        d = np.subtract.outer(np.arange(m), np.arange(m))
        want = np.tensordot(np.where(d >= 0, c[d], 0.0), np.eye(m), axes=(1, 0))
        got = solve_lower(kernel, np.eye(m))
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestInverseNorms:
    # the c_p c_{p+d} table is read as windows of c; the reference is the
    # former index-grid gather, bit for bit through the Gram table and norms
    @pytest.mark.parametrize("max_m", [1, 2, 3, 8, 64, 256])
    def test_table_matches_the_index_grid_bit_for_bit(self, max_m):
        kernel = aif_coeffs(max_m)
        c = solve_lower(kernel, np.eye(max_m)[0])
        ix = np.arange(max_m)
        shifted = np.concatenate([c, np.zeros(max_m)])[np.add.outer(ix, ix)]
        cum = np.cumsum(c[:, None] * shifted, axis=0)
        gram = cum[np.minimum.outer(ix, ix), np.abs(np.subtract.outer(ix, ix))]
        top = [np.linalg.eigvalsh(gram[:m, :m])[-1] for m in range(1, max_m + 1)]
        tab = inverse_norms(kernel, max_m)
        assert np.array_equal(tab.frobenius, np.sqrt(np.cumsum(cum[:, 0])))
        assert np.array_equal(tab.spectral, np.sqrt(top))

    def test_phi0_m1(self):
        tab = inverse_norms(PHI0_COEFFS, 1)
        assert tab.spectral[1 - 1] == pytest.approx(1.0)
        assert tab.frobenius[1 - 1] == pytest.approx(1.0)

    def test_phi0_frobenius_counts_unit_entries(self):
        # all-ones inverse: squared Frobenius norm is m(m+1)/2
        tab = inverse_norms(PHI0_COEFFS, 4)
        assert tab.frobenius[4 - 1] ** 2 == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 5, 17, 64])
    def test_frobenius_matches_dense_oracle(self, m):
        rng = np.random.default_rng(m + 7)
        col = random_well_conditioned(rng, m)
        tab = inverse_norms(kernel_of(col), m)
        dense_inv = np.linalg.inv(dense(col))
        assert tab.frobenius[m - 1] == pytest.approx(
            np.linalg.norm(dense_inv, "fro"), rel=1e-10
        )

    @pytest.mark.parametrize("m", [2, 8, 32, 64])
    def test_spectral_matches_svd_oracle(self, m):
        rng = np.random.default_rng(m + 13)
        g = kernel_of(random_well_conditioned(rng, m))
        tab = inverse_norms(g, m)
        for k in range(1, m + 1):
            assert tab.spectral[k - 1] == pytest.approx(svd_oracle(g, k), rel=1e-10)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_every_m_matches_svd_oracle(self, name):
        g = KERNELS[name]
        tab = inverse_norms(g, 64)
        for m in range(1, 65):
            assert tab.spectral[m - 1] == pytest.approx(svd_oracle(g, m), rel=1e-10)

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
    def test_prefix_closed_at_any_table_size(self, name, max_m):
        g = KERNELS[name]
        full = inverse_norms(g, 64)
        short = inverse_norms(g, max_m)
        assert np.array_equal(short.spectral, full.spectral[:max_m])
        assert np.array_equal(short.frobenius, full.frobenius[:max_m])

    # K[i, j] = K[i-1, j-1] + c_i c_j adds the products in the order of the
    # cumulative sum, so K matches the table's Gram matrix bit for bit, and
    # each entry is the eigenvalue of its own unpadded leading block
    @pytest.mark.parametrize("name", sorted(KERNELS))
    @pytest.mark.parametrize("max_m", [1, 7, 8, 9, 17, 64])
    def test_each_entry_is_the_top_eigenvalue_of_its_leading_block(self, name, max_m):
        g = KERNELS[name]
        c = solve_lower(g, np.eye(max_m)[0])
        gram = np.zeros((max_m, max_m))
        for i in range(max_m):
            for j in range(i, max_m):
                gram[i, j] = c[i] * c[j] if i == 0 else gram[i - 1, j - 1] + c[i] * c[j]
                gram[j, i] = gram[i, j]
        tab = inverse_norms(g, max_m)
        for m in range(1, max_m + 1):
            assert tab.spectral[m - 1] == np.sqrt(np.linalg.eigvalsh(gram[:m, :m])[-1])

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_one_entry_table_spectral_equals_frobenius(self, name):
        tab = inverse_norms(KERNELS[name], 1)
        assert tab.spectral[1 - 1] == tab.frobenius[1 - 1]

    def test_every_m_to_256_matches_dense_inverse_oracle(self):
        col = random_well_conditioned(np.random.default_rng(256), 256)
        tab = inverse_norms(kernel_of(col), 256)
        # the leading m x m block of a lower-triangular inverse is (G^(m))^-1
        dense_inv = np.linalg.inv(dense(col))
        for m in range(1, 257):
            block = dense_inv[:m, :m]
            assert tab.spectral[m - 1] == pytest.approx(
                np.linalg.svd(block, compute_uv=False)[0], rel=1e-12
            )
            assert tab.frobenius[m - 1] == pytest.approx(
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
        rng = np.random.default_rng(42)
        theta = solve_lower(PHI0_COEFFS, rng.standard_normal((64, 4000)))
        var = theta.var(axis=1)
        ls = np.arange(1, 65)
        slope = np.polyfit(np.log(ls[1:]), np.log(var[1:]), 1)[0]
        assert abs(slope - 1.0) <= 0.3

    def test_singular_kernel_rejected(self):
        with pytest.raises(SingularOperatorError):
            inverse_norms(LagCoeffs([0.0, 1.0]), 2)

    # g_0 = 1e-3: G^-1's first column stays finite (up to about 1e192) at
    # m = 64, but its squares, the Gram table, overflow; that once surfaced
    # as overflow warnings and then eigvalsh's "Eigenvalues did not converge"
    def test_a_gram_table_that_overflows_is_singular(self):
        kernel = LagCoeffs([1e-3] + [1.0] * 63)
        assert np.all(np.isfinite(solve_lower(kernel, np.eye(64)[0])))
        message = ("numerically singular operator: the Gram matrix of G^-1 overflows "
                   "at order 64 (g_0 = 0.001)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularOperatorError, match=re.escape(message)):
                inverse_norms(kernel, 64)

    # 2.5, True and None used to fail with a TypeError from deep inside
    @pytest.mark.parametrize("max_m", [2.5, 4.0, True, None, "4", 0, -1], ids=repr)
    def test_rejects_a_size_that_is_not_a_positive_integer(self, max_m):
        with pytest.raises(ValueError,
                           match=re.escape(f"max_m must be a positive integer, got {max_m!r}")):
            inverse_norms(PHI0_COEFFS, max_m)

    def test_a_table_compares_and_hashes_by_identity(self):
        # its fields are arrays: a generated __eq__ raised numpy's ambiguous
        # truth value and a generated __hash__ a TypeError
        a, b = inverse_norms(PHI0_COEFFS, 3), inverse_norms(PHI0_COEFFS, 3)
        assert a == a and a != b and len({a, b}) == 2

    def test_takes_a_numpy_integer_size(self):
        tab = inverse_norms(PHI0_COEFFS, np.int64(4))
        assert tab.max_m == 4
        assert np.array_equal(tab.spectral, inverse_norms(PHI0_COEFFS, 4).spectral)


class TestSelectM:
    def test_locates_threshold_crossing(self):
        # dense-SVD oracle: first m whose inverse spectral norm exceeds 4
        tab = inverse_norms(PHI0_COEFFS, 32)
        dense_norms = []
        for m in range(1, 33):
            dense_norms.append(svd_oracle(PHI0_COEFFS, m))
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

    # eps = 0 is no bound, as is an eps whose eps^-2 overflows; a float32
    # eps (a grid's float32 T times sigma-hat) warned in numpy's power
    @pytest.mark.parametrize("eps", [0.0, 1e-200, np.float32(0.0), np.float32(1e-30)],
                             ids=repr)
    def test_no_bound_keeps_the_last_order(self, eps):
        tab = inverse_norms(PHI0_COEFFS, 8)
        assert select_M(tab, eps) == tab.max_m
