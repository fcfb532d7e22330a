"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or `-rA`).
Criterion 1 runs the full 100-replicate benchmark and dominates the runtime
(about 15 s); everything else is seconds.
"""

import numpy as np
from scipy import special
from scipy.linalg import solve_triangular, toeplitz

from lagdeconv import (
    Cube,
    EstimatorConfig,
    LagCoeffs,
    TimeGrid,
    WaveletSpec,
    deconvolve,
    inverse_norms,
    relative_error,
)
from lagdeconv.cli import main as cli_main
from lagdeconv.io import read_cube, write_cube
from lagdeconv.laguerre import tabulate_basis
from lagdeconv.simulate import (
    SimConfig,
    TEST_FUNCTION_IDS,
    add_noise,
    default_kernel,
    eval_test_function,
    forward_convolve,
    run_table1,
    zero_time_slice,
)
from lagdeconv.toeplitz import solve_lower
from lagdeconv.wavelet2d import dwt2_array, idwt2_array

from conftest import ORACLE_N, ORACLE_T


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


class TestCriterion1Table1:
    def test_table1_replication(self):
        rows = run_table1(SimConfig(runs=100, seed=1234), EstimatorConfig(M=8))
        in_band = all(0.5 <= r.ratio <= 2.0 for r in rows)
        by_fn = {fid: [] for fid in TEST_FUNCTION_IDS}
        for r in rows:
            by_fn[r.function].append(r.mean_delta)
        monotone = all(
            means[0] > means[1] > means[2] for means in by_fn.values()
        )
        worst = max(max(r.ratio, 1.0 / r.ratio) for r in rows)
        detail = (
            "12 cells within [0.5x, 2.0x] of the reference "
            f"(worst ratio {worst:.2f}), rows strictly decreasing in SNR: {monotone}"
        )
        report("1 table-1 replication", in_band and monotone, detail)


class TestCriterion2ExactRecovery:
    def test_noiseless_inversion(self):
        grid = TimeGrid(n=1024, T=40.0)
        x = np.arange(1, 33) / 32
        field = np.cos(2.0 * np.pi * np.outer(x, x))
        q_time = grid.points * np.exp(-grid.points / 2.0)  # (g * phi_0)(t)
        Y = Cube(grid=grid, data=q_time[:, None, None] * field[None])
        f_true = Cube(
            grid=grid, data=np.exp(-grid.points / 2.0)[:, None, None] * field[None]
        )
        cfg = EstimatorConfig(M=8, threshold_mode=False)
        f_hat, _ = deconvolve(
            Y, np.exp(-grid.points / 2.0), WaveletSpec(), cfg, g_zero=1.0
        )
        delta = relative_error(f_hat, f_true)
        report("2 exact recovery", delta < 1e-3, f"Delta = {delta:.2e} < 1e-3")


class TestCriterion3InverseNormGrowth:
    def test_frobenius_slope_and_domination(self):
        g = LagCoeffs(np.concatenate([[1.0], np.zeros(255)]))
        tab = inverse_norms(g, 256)
        ms = np.arange(8, 257)
        slope = float(
            np.polyfit(np.log(ms), 2.0 * np.log(tab.frobenius[7:]), 1)[0]
        )
        dominated = bool(np.all(tab.spectral <= tab.frobenius * (1 + 1e-12)))
        ok = abs(slope - 2.0) <= 0.3 and dominated
        report(
            "3 inverse-norm growth",
            ok,
            f"log-log slope of Frobenius^2 = {slope:.3f} (target 2.0 +/- 0.3), "
            f"spectral <= Frobenius for all m: {dominated}",
        )


class TestCriterion4ForwardOracles:
    def test_closed_form_convolutions(self):
        grid = TimeGrid(n=1024, T=40.0)
        g = default_kernel(grid.points)
        t = grid.points

        f1 = Cube(grid=grid, data=np.exp(-t / 2.0)[:, None, None])
        q1 = forward_convolve(f1, g, g_zero=1.0, f_zero=np.ones((1, 1)))
        exact1 = t * np.exp(-t / 2.0)
        rel1 = np.linalg.norm(q1.data[:, 0, 0] - exact1) / np.linalg.norm(exact1)

        f2 = Cube(grid=grid, data=(t * np.exp(-t))[:, None, None])
        q2 = forward_convolve(f2, g, g_zero=1.0, f_zero=np.zeros((1, 1)))
        exact2 = np.exp(-t / 2.0) * (4.0 - (2.0 * t + 4.0) * np.exp(-t / 2.0))
        rel2 = np.linalg.norm(q2.data[:, 0, 0] - exact2) / np.linalg.norm(exact2)

        ok = rel1 < 1e-3 and rel2 < 1e-3
        report(
            "4 forward-model oracles",
            ok,
            f"exp*exp rel = {rel1:.2e}, ramp*exp rel = {rel2:.2e} (both < 1e-3)",
        )


class TestCriterion5PropertySuites:
    def test_laguerre_orthonormality(self):
        grid = TimeGrid(n=ORACLE_N, T=ORACLE_T)
        # the basis on the nodes {0, t_1, .., t_n}, phi_l(0) = 1, and their
        # composite Simpson weights
        v = np.concatenate([np.ones((10, 1)), tabulate_basis(10, grid).values], axis=1)
        w = np.where(np.arange(grid.n + 1) % 2, 4.0, 2.0) * grid.step / 3.0  # n is even
        w[0] = w[-1] = grid.step / 3.0
        err = np.abs((v * w) @ v.T - np.eye(10)).max()
        report("5a Laguerre orthonormality", err <= 1e-6, f"max |Gram - I| = {err:.2e}")

    def test_convolution_identity(self):
        def phi(l, t):  # independent oracle: scipy's L_l times exp(-t/2)
            return special.eval_laguerre(l, t) * np.exp(-t / 2.0)

        worst = 0.0
        for t in (0.5, 1.0, 2.0, 5.0, 10.0):
            # the basis on the symmetric nodes t i/4096: phi_j(t - z) is row j reversed
            steps = 4096
            v = np.concatenate([np.ones((11, 1)), tabulate_basis(11, TimeGrid(n=steps, T=t)).values],
                               axis=1)
            w = np.full(steps + 1, t / steps)
            w[0] *= 0.5
            w[-1] *= 0.5
            for k in range(10):
                for j in range(10 - k):
                    val = np.sum(w * v[k] * v[j][::-1])
                    ref = phi(k + j, t) - phi(k + j + 1, t)
                    worst = max(worst, abs(val - ref))
        report(
            "5b convolution identity",
            worst <= 1e-4,
            f"max |quad - (phi_k+j - phi_k+j+1)| = {worst:.2e}",
        )

    def test_wavelet_reconstruction_and_parseval(self):
        rng = np.random.default_rng(0)
        spec = WaveletSpec()
        worst_pr, worst_pv = 0.0, 0.0
        for _ in range(5):
            img = rng.standard_normal((32, 32))
            c = dwt2_array(img, spec, img.shape[-2:])
            worst_pr = max(worst_pr, np.abs(idwt2_array(c, spec, c.shape[-2:]) - img).max())
            worst_pv = max(
                worst_pv,
                abs(np.sum(c**2) - np.sum(img**2)) / np.sum(img**2),
            )
        ok = worst_pr <= 1e-10 and worst_pv <= 1e-8
        report(
            "5c/5d wavelet PR + Parseval",
            ok,
            f"reconstruction max-abs {worst_pr:.2e} (<=1e-10), "
            f"energy rel err {worst_pv:.2e} (<=1e-8)",
        )

    def test_triangular_solve_oracle(self):
        worst = 0.0
        for m in (4, 16, 64):
            rng = np.random.default_rng(m)
            col = rng.standard_normal(m) * 0.3 / np.arange(1, m + 1)
            col[0] = 1.0 + rng.uniform(0.0, 1.0)
            rhs = rng.standard_normal(m)
            ref = solve_triangular(toeplitz(col, np.zeros(m)), rhs, lower=True)
            err = np.abs(solve_lower(LagCoeffs(np.cumsum(col)), rhs) - ref).max() / max(
                1.0, np.abs(ref).max()
            )
            worst = max(worst, err)
        report(
            "5e triangular solve vs dense oracle",
            worst <= 1e-10,
            f"max rel deviation {worst:.2e} (<=1e-10, m<=64)",
        )

    def test_spectral_norm_table_oracle(self):
        worst = 0.0
        for m in (2, 8, 32, 64):
            for seed in range(5):
                rng = np.random.default_rng(97 * m + seed)
                col = 0.5 ** np.arange(m) * rng.standard_normal(m) * 0.5
                col[0] = 1.5 + rng.uniform(0.0, 1.0)
                tab = inverse_norms(LagCoeffs(np.cumsum(col)), m)
                ref = np.linalg.svd(
                    np.linalg.inv(toeplitz(col, np.zeros(m))), compute_uv=False
                )[0]
                worst = max(worst, abs(tab.spectral[m - 1] - ref) / ref)
        report(
            "5f spectral norm table vs SVD oracle",
            worst <= 1e-6,
            f"max rel deviation {worst:.2e} (<=1e-6, m<=64)",
        )


class TestCriterion6QualitativeRate:
    def test_error_shrinks_with_noise(self):
        # sigma in {0.4, 0.2, 0.1} * sd(q) is SNR in {2.5, 5, 10}
        cfg = SimConfig()
        f = eval_test_function("f2", cfg)
        q = forward_convolve(
            f,
            default_kernel(cfg.grid.points),
            g_zero=1.0,
            f_zero=zero_time_slice("f2", cfg),
        )
        est = EstimatorConfig(M=8)
        spec = WaveletSpec()
        g = default_kernel(cfg.grid.points)
        means = []
        for snr in (2.5, 5.0, 10.0):
            deltas = []
            for i in range(50):
                Y, _ = add_noise(q, snr, 4000 + i)
                f_hat, _ = deconvolve(Y, g, spec, est, g_zero=1.0)
                deltas.append(relative_error(f_hat, f))
            means.append(float(np.mean(deltas)))
        ok = means[0] > means[1] > means[2]
        report(
            "6 qualitative rate",
            ok,
            "mean Delta strictly decreasing over sigma = {0.4, 0.2, 0.1} sd(q): "
            + ", ".join(f"{m:.4f}" for m in means),
        )


class TestCriterion7Reproducibility:
    def test_bitwise_reproducibility(self, tmp_path):
        sim_args = ["simulate", "--function", "f2", "--snr", "3",
                    "--seed", "77", "--n", "32", "--T", "5"]
        assert cli_main(sim_args + ["--out", str(tmp_path / "a")]) == 0
        assert cli_main(sim_args + ["--out", str(tmp_path / "b")]) == 0
        sim_ok = all(
            (tmp_path / f"a{s}").read_bytes() == (tmp_path / f"b{s}").read_bytes()
            for s in ("_f.bin", "_q.bin", "_Y.bin")
        )

        assert cli_main(["bench-table1", "--runs", "2", "--seed", "5",
                         "--out", str(tmp_path / "t1.csv")]) == 0
        assert cli_main(["bench-table1", "--runs", "2", "--seed", "5",
                         "--out", str(tmp_path / "t2.csv")]) == 0
        bench_ok = (tmp_path / "t1.csv").read_bytes() == (
            tmp_path / "t2.csv"
        ).read_bytes()

        rng = np.random.default_rng(3)
        cube = Cube(grid=TimeGrid(n=8, T=5.0), data=rng.standard_normal((8, 4, 4)))
        write_cube(tmp_path / "c", cube)
        back = read_cube(tmp_path / "c")
        roundtrip_ok = back.data.tobytes() == cube.data.tobytes()

        ok = sim_ok and bench_ok and roundtrip_ok
        report(
            "7 reproducibility",
            ok,
            f"simulate bit-identical: {sim_ok}, bench-table1 bit-identical: "
            f"{bench_ok}, cube roundtrip bit-exact: {roundtrip_ok}",
        )
