import contextlib
import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lagdeconv import (
    Cube,
    EstimatorConfig,
    TimeGrid,
    WaveletSpec,
    deconvolve,
    relative_error,
)
from lagdeconv.cli import main
from lagdeconv.io import read_cube, read_series, write_cube
from lagdeconv.simulate import default_kernel


def run_cli(*args):
    return main(list(args))


@pytest.fixture
def shown_warnings():
    """Every warning written to stderr by the interpreter's default path,
    formatwarning then the write, where pytest would record or raise it."""
    def show(message, category, filename, lineno, file=None, line=None):
        (file or sys.stderr).write(warnings.formatwarning(message, category, filename,
                                                          lineno, line))
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        yield


def save_series(path, t, values):
    """A (t, value) CSV, written the way README's example writes one."""
    np.savetxt(path, np.c_[t, values], delimiter=",", header="t,value", comments="")
    return path


def write_kernel_csv(path, grid, include_zero=True):
    t = np.r_[0.0, grid.points] if include_zero else grid.points
    save_series(path, t, default_kernel(t))
    return path


def ref_symmetrize(data):
    """The per-slice --symmetrize construction, as the reference for the CLI.

    Reflect each slice about its last column, then its last row: to
    (2 n1, 2 n2) when both sides are dyadic, else to the next powers of two.
    Returns the extended cube and the crop back to the first n1 x n2 entries.
    """
    n1, n2 = data.shape[1:]
    if n1 & (n1 - 1) == 0 and n2 & (n2 - 1) == 0:
        t1, t2 = 2 * n1, 2 * n2
    else:
        t1, t2 = (1 << max(1, (n - 1).bit_length()) for n in (n1, n2))
    out = []
    for image in data:
        if t2 > n2:
            image = np.concatenate([image, image[:, ::-1][:, : t2 - n2]], axis=1)
        if t1 > n1:
            image = np.concatenate([image, image[::-1, :][: t1 - n1, :]], axis=0)
        out.append(image)
    return np.stack(out), lambda f: f[:, :n1, :n2]


class TestSimulateCommand:
    def test_unknown_function_exits_1(self, tmp_path, capsys):
        code = run_cli("simulate", "--function", "f9", "--snr", "3",
                       "--out", str(tmp_path / "x"))
        assert code == 1
        assert "f9" in capsys.readouterr().err

    def test_huge_snr_matches_clean(self, tmp_path):
        out = tmp_path / "sim"
        code = run_cli("simulate", "--function", "f2", "--snr", "1e9",
                       "--seed", "3", "--out", str(out))
        assert code == 0
        q = read_cube(str(out) + "_q")
        Y = read_cube(str(out) + "_Y")
        assert relative_error(Y, q) <= 1e-6

    def test_bit_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("simulate", "--function", "f1", "--snr", "5",
                           "--seed", "11", "--out", str(out)) == 0
        for suffix in ("_f.bin", "_q.bin", "_Y.bin", "_f.json"):
            assert (tmp_path / ("a" + suffix)).read_bytes() == (
                tmp_path / ("b" + suffix)
            ).read_bytes()

    def test_one_frame_cube(self, tmp_path):
        # SimConfig and the forward model take n = 1; the CLI used to demand n >= 2
        out = tmp_path / "sim"
        assert run_cli("simulate", "--function", "f2", "--snr", "5",
                       "--n", "1", "--out", str(out)) == 0
        assert read_cube(str(out) + "_Y").data.shape == (1, 32, 32)

    @pytest.mark.parametrize("flags, message", [
        (["--snr", "0"], "snr must be a positive finite real"),
        (["--snr", "3", "--n", "0"], "n must be a positive integer"),
        (["--snr", "3", "--n1", "0"], "n1 and n2 must be positive integers"),
        (["--snr", "3", "--T", "-1"], "T must be positive and finite"),
        (["--snr", "3", "--T", "inf"], "T must be positive and finite"),
        (["--snr", "3", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
        # inf used to exit 0 with a noise-free Y and "snr": Infinity, not JSON
        (["--snr", "inf"], "error: snr must be a positive finite real, got inf"),
        # sd(q)/snr overflowed and failed as "error: cube data must be finite"
        (["--snr", "1e-320"], "error: snr must be large enough that sd(q)/snr is finite, "
                              "got 1e-320"),
    ])
    def test_bad_values_exit_1_with_the_library_message(self, tmp_path, capsys,
                                                        flags, message):
        code = run_cli("simulate", "--function", "f1", *flags,
                       "--out", str(tmp_path / "x"))
        assert code == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "sim"
        run_cli("simulate", "--function", "f3", "--snr", "3", "--out", str(out))
        manifest = json.loads((tmp_path / "sim_manifest.json").read_text())
        assert manifest["function"] == "f3"
        assert manifest["sigma_used"] > 0


class TestDeconvolveCommand:
    def simulate_fixture(self, tmp_path, n=1024, T=40.0, snr="1e12"):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--function", "f2", "--snr", snr,
                       "--n", str(n), "--T", str(T), "--seed", "2",
                       "--out", str(out)) == 0
        return out

    def test_noiseless_recovery(self, tmp_path):
        out = self.simulate_fixture(tmp_path)
        grid = TimeGrid(n=1024, T=40.0)
        kpath = write_kernel_csv(tmp_path / "g.csv", grid)
        code = run_cli("deconvolve", "--input", str(out) + "_Y",
                       "--kernel", str(kpath), "--M", "8", "--no-threshold",
                       "--out", str(tmp_path / "fhat"),
                       "--diagnostics", str(tmp_path / "diag.json"))
        assert code == 0
        f_hat = read_cube(tmp_path / "fhat")
        f_true = read_cube(str(out) + "_f")
        assert relative_error(f_hat, f_true) < 1e-3
        diag = json.loads((tmp_path / "diag.json").read_text())
        assert diag["M"] == 8 and diag["keep_counts"] is None
        assert diag["thresholds_disabled_reason"] == "threshold_mode off"
        assert diag["omega_dropped"] == 0

    def test_eps_one_zero_thresholds_warn_but_run(self, tmp_path):
        out = self.simulate_fixture(tmp_path, n=32, T=5.0, snr="5")
        grid = TimeGrid(n=32, T=5.0)
        kpath = write_kernel_csv(tmp_path / "g.csv", grid)
        with pytest.warns(UserWarning):
            code = run_cli("deconvolve", "--input", str(out) + "_Y",
                           "--kernel", str(kpath), "--M", "8", "--eps", "1.0",
                           "--out", str(tmp_path / "fhat"))
        assert code == 0

    def test_symmetrize_non_dyadic(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = TimeGrid(n=16, T=5.0)
        cube = Cube(grid=grid, data=rng.standard_normal((16, 24, 24)))
        write_cube(tmp_path / "odd", cube)
        kpath = write_kernel_csv(tmp_path / "g.csv", grid)
        # unit-variance noise gives eps = 5 / sqrt(16) = 1.25
        with pytest.warns(UserWarning, match="eps >= 1"):
            code = run_cli("deconvolve", "--input", str(tmp_path / "odd"),
                           "--kernel", str(kpath), "--M", "4", "--symmetrize",
                           "--out", str(tmp_path / "fhat"))
        assert code == 0
        f_hat = read_cube(tmp_path / "fhat")
        assert f_hat.data.shape == (16, 24, 24)

    def test_symmetrize_dyadic_doubles_and_crops(self, tmp_path):
        rng = np.random.default_rng(1)
        grid = TimeGrid(n=16, T=5.0)
        cube = Cube(grid=grid, data=rng.standard_normal((16, 16, 16)))
        write_cube(tmp_path / "dyadic", cube)
        kpath = write_kernel_csv(tmp_path / "g.csv", grid)
        # unit-variance noise gives eps = 5 / sqrt(16) = 1.25
        with pytest.warns(UserWarning, match="eps >= 1"):
            code = run_cli("deconvolve", "--input", str(tmp_path / "dyadic"),
                           "--kernel", str(kpath), "--M", "4", "--symmetrize",
                           "--out", str(tmp_path / "fhat"))
        assert code == 0
        assert read_cube(tmp_path / "fhat").data.shape == (16, 16, 16)

    @pytest.mark.parametrize("shape", [(16, 16), (24, 20), (16, 12)],
                             ids=["dyadic", "non-dyadic", "mixed"])
    def test_symmetrize_matches_the_per_slice_extension(self, tmp_path, shape):
        grid = TimeGrid(n=16, T=5.0)
        rng = np.random.default_rng(7)
        x1 = np.arange(shape[0])[:, None] / shape[0]
        x2 = np.arange(shape[1])[None, :] / shape[1]
        base = np.exp(-grid.points / 2.0)[:, None, None] * (1.0 + x1 + x2 * x2)
        cube = Cube(grid=grid, data=base + 0.05 * rng.standard_normal((16, *shape)))
        write_cube(tmp_path / "Y", cube)
        kpath = write_kernel_csv(tmp_path / "g.csv", grid)
        code = run_cli("deconvolve", "--input", str(tmp_path / "Y"),
                       "--kernel", str(kpath), "--M", "4", "--symmetrize",
                       "--out", str(tmp_path / "fhat"))
        assert code == 0

        _, g = read_series(kpath)
        extended, crop = ref_symmetrize(cube.data)
        f_ref, _ = deconvolve(Cube(grid=grid, data=extended), g[1:], WaveletSpec(),
                              EstimatorConfig(M=4), g_zero=g[0])
        assert np.array_equal(read_cube(tmp_path / "fhat").data, crop(f_ref.data))

    def test_tiny_eps_runs_at_full_depth(self, tmp_path):
        # eps^2 underflowed to 0 in the auto depth and eps^-2 overflowed in
        # the M="auto" rule: both raised and printed a traceback
        out = self.simulate_fixture(tmp_path, n=32, T=5.0, snr="5")
        kpath = write_kernel_csv(tmp_path / "g.csv", TimeGrid(n=32, T=5.0))
        code = run_cli("deconvolve", "--input", str(out) + "_Y",
                       "--kernel", str(kpath), "--eps", "1e-170",
                       "--out", str(tmp_path / "fhat"),
                       "--diagnostics", str(tmp_path / "diag.json"))
        assert code == 0
        diag = json.loads((tmp_path / "diag.json").read_text())
        assert (diag["J1"], diag["J2"]) == (5, 5)

    def test_non_dyadic_without_flag_exits_1(self, tmp_path):
        grid = TimeGrid(n=8, T=5.0)
        write_cube(tmp_path / "odd",
                   Cube(grid=grid, data=np.zeros((8, 12, 12))))
        kpath = write_kernel_csv(tmp_path / "g.csv", grid)
        code = run_cli("deconvolve", "--input", str(tmp_path / "odd"),
                       "--kernel", str(kpath), "--out", str(tmp_path / "f"))
        assert code == 1

    def test_missing_input_exits_2(self, tmp_path):
        kpath = write_kernel_csv(tmp_path / "g.csv", TimeGrid(n=8, T=5.0))
        code = run_cli("deconvolve", "--input", str(tmp_path / "nope"),
                       "--kernel", str(kpath), "--out", str(tmp_path / "f"))
        assert code == 2

    def test_malformed_header_exits_2(self, tmp_path, capsys):
        grid = TimeGrid(n=8, T=5.0)
        write_cube(tmp_path / "c", Cube(grid=grid, data=np.zeros((8, 4, 4))))
        (tmp_path / "c.json").write_text('{"n": null, "n1": 4, "n2": 4, "T": 5.0}')
        kpath = write_kernel_csv(tmp_path / "g.csv", grid)
        code = run_cli("deconvolve", "--input", str(tmp_path / "c"),
                       "--kernel", str(kpath), "--out", str(tmp_path / "f"))
        assert code == 2
        assert "file error" in capsys.readouterr().err

    def test_infinite_T_header_exits_2(self, tmp_path, capsys):
        grid = TimeGrid(n=8, T=5.0)
        write_cube(tmp_path / "c", Cube(grid=grid, data=np.zeros((8, 4, 4))))
        (tmp_path / "c.json").write_text('{"n": 8, "n1": 4, "n2": 4, "T": 1e999}')
        kpath = write_kernel_csv(tmp_path / "g.csv", grid)
        code = run_cli("deconvolve", "--input", str(tmp_path / "c"),
                       "--kernel", str(kpath), "--out", str(tmp_path / "f"))
        assert code == 2
        assert "file error" in capsys.readouterr().err

    def test_kernel_grid_mismatch_exits_1(self, tmp_path):
        out = self.simulate_fixture(tmp_path, n=32, T=5.0, snr="5")
        kpath = write_kernel_csv(tmp_path / "g.csv", TimeGrid(n=16, T=5.0))
        code = run_cli("deconvolve", "--input", str(out) + "_Y",
                       "--kernel", str(kpath), "--out", str(tmp_path / "f"))
        assert code == 1

    def test_kernel_as_coefficient_file(self, tmp_path):
        out = self.simulate_fixture(tmp_path, n=32, T=5.0, snr="5")
        # g = exp(-t/2) = phi_0 has expansion (1, 0, 0, ...); the first
        # column is the coefficient index
        idx = np.arange(8.0)
        save_series(tmp_path / "gc.csv", idx, np.eye(8)[0])
        code = run_cli("deconvolve", "--input", str(out) + "_Y",
                       "--kernel-coeffs", str(tmp_path / "gc.csv"),
                       "--M", "8", "--out", str(tmp_path / "fhat"))
        assert code == 0
        assert read_cube(tmp_path / "fhat").data.shape == (32, 32, 32)

    def test_numerically_singular_kernel_coeffs_exit_3(self, tmp_path, capsys):
        grid = TimeGrid(n=8, T=5.0)
        write_cube(tmp_path / "c", Cube(grid=grid, data=np.ones((8, 4, 4))))
        path = save_series(tmp_path / "gc.csv", np.arange(8.0), np.r_[1e-200, np.ones(7)])
        code = run_cli("deconvolve", "--input", str(tmp_path / "c"),
                       "--kernel-coeffs", str(path), "--M", "8", "--out", str(tmp_path / "f"))
        assert code == 3
        assert capsys.readouterr().err == (
            "numeric error: numerically singular operator: G^-1 overflows at order 8 "
            "(g_0 = 1e-200)\n")
        assert not (tmp_path / "f.json").exists()

    # The first column is the coefficient's index: a gap or an offset used to
    # be read as if the rows ran 0, 1, 2, ...
    @pytest.mark.parametrize(
        "index, row", [((0.0, 1.0, 5.0), "data row 3 has index 5, need 2"),
                       ((1.0, 2.0, 3.0), "data row 1 has index 1, need 0")],
        ids=["gap", "offset"],
    )
    def test_kernel_coeffs_with_other_indices_exit_2(self, tmp_path, capsys, index, row):
        grid = TimeGrid(n=8, T=5.0)
        write_cube(tmp_path / "c", Cube(grid=grid, data=np.ones((8, 4, 4))))
        path = save_series(tmp_path / "gc.csv", np.array(index), np.array([1.0, 0.0, 0.5]))
        code = run_cli("deconvolve", "--input", str(tmp_path / "c"),
                       "--kernel-coeffs", str(path), "--M", "3", "--out", str(tmp_path / "f"))
        assert code == 2
        assert f"file error: {path}: {row}" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()

    def test_rcond_one_exits_1(self, tmp_path, capsys):
        # rcond = 1 cuts every singular value: the fit would return f_hat = 0
        out = self.simulate_fixture(tmp_path, n=32, T=5.0, snr="5")
        save_series(tmp_path / "gc.csv", np.arange(8.0), np.eye(8)[0])
        code = run_cli("deconvolve", "--input", str(out) + "_Y",
                       "--kernel-coeffs", str(tmp_path / "gc.csv"),
                       "--M", "8", "--rcond", "1", "--out", str(tmp_path / "fhat"))
        assert code == 1
        assert "rcond" in capsys.readouterr().err
        assert not (tmp_path / "fhat.json").exists()

    def test_infinite_eps_exits_1(self, tmp_path, capsys):
        out = self.simulate_fixture(tmp_path, n=32, T=5.0, snr="5")
        kpath = write_kernel_csv(tmp_path / "g.csv", TimeGrid(n=32, T=5.0))
        code = run_cli("deconvolve", "--input", str(out) + "_Y",
                       "--kernel", str(kpath), "--M", "8", "--eps", "inf",
                       "--out", str(tmp_path / "fhat"))
        assert code == 1
        assert "eps must be a finite" in capsys.readouterr().err
        assert not (tmp_path / "fhat.json").exists()

    # the config refuses the value after the files are read, before any fit
    @pytest.mark.parametrize("nu", ["inf", "nan", "0", "-1"])
    def test_a_nu_that_is_not_positive_and_finite_exits_1(self, tmp_path, capsys, nu):
        out = self.simulate_fixture(tmp_path, n=32, T=5.0, snr="5")
        kpath = write_kernel_csv(tmp_path / "g.csv", TimeGrid(n=32, T=5.0))
        code = run_cli("deconvolve", "--input", str(out) + "_Y",
                       "--kernel", str(kpath), "--M", "8", "--nu", nu,
                       "--out", str(tmp_path / "fhat"))
        assert code == 1
        assert "nu must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "fhat.json").exists()

    @pytest.mark.parametrize("order", ["8", "auto"])
    def test_a_cube_whose_noise_level_overflows_exits_1(self, tmp_path, capsys, order):
        # finite values whose finest details overflow: sigma-hat is inf
        grid = TimeGrid(n=16, T=5.0)
        data = 1.7e308 * np.random.default_rng(0).uniform(-1.0, 1.0, (16, 8, 8))
        write_cube(tmp_path / "Y", Cube(grid=grid, data=data))
        kpath = write_kernel_csv(tmp_path / "g.csv", grid)
        code = run_cli("deconvolve", "--input", str(tmp_path / "Y"), "--kernel", str(kpath),
                       "--M", order, "--out", str(tmp_path / "fhat"))
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the noise level is not finite: sigma_hat = inf, eps = inf\n"
        assert not (tmp_path / "fhat.json").exists() and not (tmp_path / "fhat.bin").exists()

    def test_eps_zero_runs_threshold_free(self, tmp_path):
        # EstimatorConfig(eps=0) is a documented path; the CLI used to reject it
        out = self.simulate_fixture(tmp_path, n=32, T=5.0, snr="5")
        kpath = write_kernel_csv(tmp_path / "g.csv", TimeGrid(n=32, T=5.0))
        with pytest.warns(UserWarning, match="eps = 0"):
            code = run_cli("deconvolve", "--input", str(out) + "_Y",
                           "--kernel", str(kpath), "--M", "8", "--eps", "0",
                           "--out", str(tmp_path / "fhat"),
                           "--diagnostics", str(tmp_path / "diag.json"))
        assert code == 0
        diag = json.loads((tmp_path / "diag.json").read_text())
        assert diag["thresholds_disabled_reason"] == "eps = 0"
        assert diag["eps_hat"] == 0.0 and diag["keep_counts"] is None

    @pytest.mark.parametrize("flag, value", [("--M", "x"), ("--M", "2.5"),
                                             ("--eps", "x")])
    def test_unparsable_order_or_eps_exits_1_with_the_reason(self, capsys,
                                                             flag, value):
        # argparse rejects the value before any file is read
        code = run_cli("deconvolve", "--input", "missing", "--kernel", "g.csv",
                       "--out", "f", flag, value)
        assert code == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid 'auto' or" in err
        assert repr(value) in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--M", "0", "M must be an integer >= 1 or 'auto'"),
        ("--eps", "-1", "eps must be a finite nonnegative number or 'auto'"),
    ])
    def test_out_of_range_order_or_eps_exits_1_with_the_config_message(
            self, tmp_path, capsys, flag, value, message):
        out = self.simulate_fixture(tmp_path, n=32, T=5.0, snr="5")
        kpath = write_kernel_csv(tmp_path / "g.csv", TimeGrid(n=32, T=5.0))
        capsys.readouterr()
        code = run_cli("deconvolve", "--input", str(out) + "_Y",
                       "--kernel", str(kpath), flag, value,
                       "--out", str(tmp_path / "fhat"))
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "fhat.json").exists()

    def test_both_kernel_flags_exit_1(self, tmp_path, capsys):
        out = self.simulate_fixture(tmp_path, n=32, T=5.0, snr="5")
        kpath = write_kernel_csv(tmp_path / "g.csv", TimeGrid(n=32, T=5.0))
        capsys.readouterr()
        code = run_cli("deconvolve", "--input", str(out) + "_Y",
                       "--kernel", str(kpath),
                       "--kernel-coeffs", str(kpath),
                       "--out", str(tmp_path / "fhat"))
        assert code == 1
        err = capsys.readouterr().err
        assert "argument --kernel-coeffs: not allowed with argument --kernel" in err
        assert not (tmp_path / "fhat.json").exists()

    def test_no_kernel_flag_exits_1(self, tmp_path, capsys):
        out = self.simulate_fixture(tmp_path, n=32, T=5.0, snr="5")
        capsys.readouterr()
        code = run_cli("deconvolve", "--input", str(out) + "_Y",
                       "--out", str(tmp_path / "fhat"))
        assert code == 1
        err = capsys.readouterr().err
        assert "one of the arguments --kernel --kernel-coeffs is required" in err
        assert not (tmp_path / "fhat.json").exists()


class TestNormsCommand:
    def test_single_row(self, tmp_path, capsys):
        kpath = write_kernel_csv(tmp_path / "g.csv", TimeGrid(n=64, T=20.0))
        code = run_cli("norms", "--kernel", str(kpath), "--max-m", "1",
                       "--out", str(tmp_path / "norms.csv"))
        assert code == 0
        lines = (tmp_path / "norms.csv").read_text().strip().splitlines()
        assert lines[1] == "m,spectral,frobenius"
        assert len(lines) == 3
        m, spectral, frob = lines[2].split(",")
        assert spectral == frob  # 1x1 operator

    def test_growth_slope_near_two(self, tmp_path):
        # g(0) != 0 means degree of ill-posedness r = 1 and slope 2r = 2
        kpath = write_kernel_csv(tmp_path / "g.csv", TimeGrid(n=2048, T=60.0))
        code = run_cli("norms", "--kernel", str(kpath), "--max-m", "64",
                       "--out", str(tmp_path / "norms.csv"))
        assert code == 0
        first = (tmp_path / "norms.csv").read_text().splitlines()[0]
        slope = float(first.split(":")[1])
        assert abs(slope - 2.0) <= 0.3

    def test_singular_kernel_exits_3(self, tmp_path, capsys):
        # the all-zero kernel fits to exactly zero coefficients, g_0 = 0,
        # and inverse_norms refuses it
        grid = TimeGrid(n=64, T=20.0)
        t = np.r_[0.0, grid.points]
        save_series(tmp_path / "g.csv", t, np.zeros(t.size))
        code = run_cli("norms", "--kernel", str(tmp_path / "g.csv"), "--max-m", "4")
        assert code == 3
        # one line: the solve's error, with no warning before it
        assert capsys.readouterr().err == (
            "numeric error: singular operator: zero diagonal (g_0 = 0)\n")

    def test_max_m_zero_exits_1(self, tmp_path, capsys, monkeypatch):
        # argparse rejects it, naming the flag, before the kernel is read;
        # COLUMNS keeps the usage on one line in a narrow terminal
        monkeypatch.setenv("COLUMNS", "80")
        kpath = write_kernel_csv(tmp_path / "g.csv", TimeGrid(n=64, T=20.0))
        assert run_cli("norms", "--kernel", str(kpath), "--max-m", "0") == 1
        assert capsys.readouterr().err == (
            "usage: lagdeconv norms [-h] --kernel KERNEL [--max-m MAX_M] [--out OUT]\n"
            "lagdeconv norms: error: argument --max-m: invalid positive int value: '0'\n")


    def test_max_m_above_the_samples_says_it_is_capped(self, tmp_path, capsys,
                                                       shown_warnings):
        kpath = write_kernel_csv(tmp_path / "g.csv", TimeGrid(n=32, T=5.0))
        assert run_cli("norms", "--kernel", str(kpath), "--max-m", "256") == 0
        out, err = capsys.readouterr()
        assert err == "warning: --max-m 256 capped at the kernel's n = 32 samples\n"
        assert out.splitlines()[-1].startswith("32,") and len(out.splitlines()) == 34

    @pytest.mark.parametrize("max_m", ["8", "32"])
    def test_max_m_within_the_samples_is_silent(self, tmp_path, capsys, max_m):
        kpath = write_kernel_csv(tmp_path / "g.csv", TimeGrid(n=32, T=5.0))
        assert run_cli("norms", "--kernel", str(kpath), "--max-m", max_m) == 0
        out, err = capsys.readouterr()
        assert err == "" and len(out.splitlines()) == 2 + int(max_m)


class TestUndecodableInputs:
    """A file the readers cannot decode exits 2 naming the file."""

    def test_cube_of_another_order_exits_2(self, tmp_path, capsys):
        grid = TimeGrid(n=8, T=5.0)
        header_path, _ = write_cube(tmp_path / "c", Cube(grid=grid, data=np.ones((8, 4, 4))))
        header = json.loads(header_path.read_text())
        header["order"] = "x-major column-major"
        header_path.write_text(json.dumps(header))
        kpath = write_kernel_csv(tmp_path / "g.csv", grid)
        code = run_cli("deconvolve", "--input", str(tmp_path / "c"),
                       "--kernel", str(kpath), "--out", str(tmp_path / "f"))
        assert code == 2
        assert "unsupported order 'x-major column-major'" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()

    # Cube's finiteness scan used to surface as exit 1, "error: cube data
    # must be finite", without the file
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=repr)
    def test_non_finite_payload_exits_2_naming_the_payload(self, tmp_path, capsys, value):
        grid = TimeGrid(n=8, T=5.0)
        data = np.ones((8, 4, 4))
        _, bin_path = write_cube(tmp_path / "c", Cube(grid=grid, data=data))
        data[2, 1, 3] = value
        data.astype("<f8").tofile(bin_path)
        kpath = write_kernel_csv(tmp_path / "g.csv", grid)
        code = run_cli("deconvolve", "--input", str(tmp_path / "c"),
                       "--kernel", str(kpath), "--out", str(tmp_path / "f"))
        assert code == 2
        assert capsys.readouterr().err == f"file error: {bin_path}: cube data must be finite\n"
        assert not (tmp_path / "f.json").exists()

    # T = 10**400 used to end in an OverflowError traceback
    def test_T_beyond_the_double_range_exits_2(self, tmp_path, capsys):
        grid = TimeGrid(n=8, T=5.0)
        header_path, _ = write_cube(tmp_path / "c", Cube(grid=grid, data=np.ones((8, 4, 4))))
        header = json.loads(header_path.read_text())
        header["T"] = 10**400
        header_path.write_text(json.dumps(header))
        kpath = write_kernel_csv(tmp_path / "g.csv", grid)
        code = run_cli("deconvolve", "--input", str(tmp_path / "c"),
                       "--kernel", str(kpath), "--out", str(tmp_path / "f"))
        assert code == 2
        assert capsys.readouterr().err == (f"file error: cube header {header_path}: "
                                           f"T must be positive and finite, got {10**400}\n")
        assert not (tmp_path / "f.json").exists()

    # a headerless kernel file whose t = 0 row had a typo lost that row as
    # a header: deconvolve extrapolated g(0) instead of reading it, exit 0
    def test_a_typo_in_the_first_row_exits_2(self, tmp_path, capsys):
        grid = TimeGrid(n=8, T=5.0)
        t = np.r_[0.0, grid.points]
        path = tmp_path / "g.csv"
        np.savetxt(path, np.c_[t, default_kernel(t)], delimiter=",")
        lines = path.read_text().splitlines()
        lines[0] = "0.0O," + lines[0].split(",")[1]
        path.write_text("\n".join(lines) + "\n")
        write_cube(tmp_path / "c", Cube(grid=grid, data=np.ones((8, 4, 4))))
        code = run_cli("deconvolve", "--input", str(tmp_path / "c"), "--kernel", str(path),
                       "--M", "4", "--out", str(tmp_path / "f"))
        assert code == 2
        assert f"file error: {path}: non-numeric entry in ['0.0O', " in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize("command", ["--kernel", "--kernel-coeffs", "norms"])
    @pytest.mark.parametrize("bad", ["nan-t", "nan-value", "inf-value"])
    def test_non_finite_series_exits_2(self, tmp_path, capsys, command, bad):
        grid = TimeGrid(n=8, T=5.0)
        # a kernel on the cube's grid, or its first 8 Laguerre coefficients
        t = np.arange(8.0) if command == "--kernel-coeffs" else np.r_[0.0, grid.points]
        path = save_series(tmp_path / "g.csv", t, default_kernel(t))
        lines = path.read_text().splitlines()
        row_t, row_v = lines[3].split(",")  # the third data row
        lines[3] = {"nan-t": f"nan,{row_v}", "nan-value": f"{row_t},nan",
                    "inf-value": f"{row_t},inf"}[bad]
        path.write_text("\n".join(lines) + "\n")
        if command == "norms":
            argv = ["norms", "--kernel", str(path)]
        else:
            write_cube(tmp_path / "c", Cube(grid=grid, data=np.ones((8, 4, 4))))
            argv = ["deconvolve", "--input", str(tmp_path / "c"), command, str(path),
                    "--M", "4", "--out", str(tmp_path / "f")]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert f"file error: {path}: non-finite entry in" in err

    # read_series once read the first two fields of a row and dropped the
    # rest, so a (t, value, 7) file exited 0
    @pytest.mark.parametrize("command", ["--kernel", "--kernel-coeffs", "norms"])
    def test_a_third_column_exits_2_naming_the_file_and_row(self, tmp_path, capsys, command):
        grid = TimeGrid(n=8, T=5.0)
        t = np.arange(8.0) if command == "--kernel-coeffs" else np.r_[0.0, grid.points]
        path = save_series(tmp_path / "g.csv", t, default_kernel(t))
        lines = path.read_text().splitlines()
        lines[3] += ",7"  # the third data row
        path.write_text("\n".join(lines) + "\n")
        if command == "norms":
            argv = ["norms", "--kernel", str(path)]
        else:
            write_cube(tmp_path / "c", Cube(grid=grid, data=np.ones((8, 4, 4))))
            argv = ["deconvolve", "--input", str(tmp_path / "c"), command, str(path),
                    "--M", "4", "--out", str(tmp_path / "f")]
        assert run_cli(*argv) == 2
        row = lines[3].split(",")
        assert f"file error: {path}: expected two columns, got {row!r}" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()


class TestKernelSeries:
    """`deconvolve --kernel` and `norms` read a kernel file by one rule."""

    # Each file got different verdicts from the two commands: norms checked
    # the spacing at rtol 1e-8 and wanted two positive times, deconvolve the
    # times themselves at rtol 1e-9.
    @pytest.mark.parametrize("n, index, scale, code", [
        (64, 62, 1 + 0.9e-9, 0),  # deconvolve accepted it, norms rejected it
        (64, 1, 1 + 1.5e-9, 1),  # norms accepted it, deconvolve rejected it
        (1, None, 1.0, 0),  # deconvolve accepted it, norms rejected it
    ], ids=["t62-off-by-0.9e-9", "t1-off-by-1.5e-9", "one-frame"])
    @pytest.mark.parametrize("command", ["norms", "deconvolve"])
    def test_both_commands_give_one_verdict(self, tmp_path, capsys, command,
                                            n, index, scale, code):
        grid = TimeGrid(n=n, T=5.0)
        t = np.r_[0.0, grid.points]
        if index is not None:
            t[index] *= scale
        kpath = save_series(tmp_path / "g.csv", t, np.exp(-t / 2.0))
        if command == "norms":
            argv = ["norms", "--kernel", str(kpath)]
        else:
            data = 1.0 + np.random.default_rng(0).standard_normal((n, 8, 8))
            write_cube(tmp_path / "Y", Cube(grid=grid, data=data))
            argv = ["deconvolve", "--input", str(tmp_path / "Y"), "--kernel", str(kpath),
                    "--M", "1", "--no-threshold", "--out", str(tmp_path / "f")]
        # the one-frame kernel caps norms' default --max-m 64
        capped = command == "norms" and n == 1
        with (pytest.warns(UserWarning, match="--max-m 64 capped at the kernel's n = 1 samples")
              if capped else contextlib.nullcontext()):
            assert run_cli(*argv) == code
        if code:
            assert (f"error: kernel series {kpath} is not sampled at t_k = T k/n, "
                    f"k = 1..n, with n = {n} and T = 5") in capsys.readouterr().err

    # a headerless kernel saved with a byte-order mark exited 2:
    # non-numeric entry in ['\ufeff0.0', '1.0']
    def test_a_kernel_with_a_byte_order_mark_gives_the_same_cube(self, tmp_path):
        grid = TimeGrid(n=8, T=5.0)
        t = np.r_[0.0, grid.points]
        plain, marked = tmp_path / "g.csv", tmp_path / "g_bom.csv"
        np.savetxt(plain, np.c_[t, default_kernel(t)], delimiter=",")
        marked.write_text(plain.read_text(), encoding="utf-8-sig")
        data = 1.0 + 0.01 * np.random.default_rng(5).standard_normal((8, 4, 4))
        write_cube(tmp_path / "c", Cube(grid=grid, data=data))
        for kernel, out in ((plain, "f"), (marked, "f_bom")):
            assert run_cli("deconvolve", "--input", str(tmp_path / "c"), "--kernel", str(kernel),
                           "--M", "4", "--out", str(tmp_path / out)) == 0
        for suffix in (".json", ".bin"):
            assert (tmp_path / f"f_bom{suffix}").read_bytes() == (
                tmp_path / f"f{suffix}").read_bytes()

    def test_norms_of_a_lone_zero_row_exits_1(self, tmp_path, capsys):
        kpath = save_series(tmp_path / "g.csv", np.zeros(1), np.ones(1))
        assert run_cli("norms", "--kernel", str(kpath)) == 1
        assert f"kernel series {kpath} has no sample at t > 0" in capsys.readouterr().err


class TestBenchCommand:
    def test_small_run_csv_shape(self, tmp_path, capsys):
        code = run_cli("bench-table1", "--runs", "2", "--seed", "9",
                       "--out", str(tmp_path / "bench.csv"))
        assert code == 0
        lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
        assert lines[0] == "function,snr,mean_delta,stderr,runs,seed,reference_delta,ratio"
        assert len(lines) == 13  # 4 functions x 3 SNRs
        stderr_col = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(s >= 0 for s in stderr_col)

    def test_without_out_prints_the_csv_the_out_file_gets(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        assert run_cli("bench-table1", "--runs", "2", "--seed", "9", "--out", str(path)) == 0
        capsys.readouterr()
        assert run_cli("bench-table1", "--runs", "2", "--seed", "9") == 0
        assert capsys.readouterr().out.encode() == path.read_bytes()

    def test_negative_seed_exits_1_naming_the_seed(self, capsys):
        assert run_cli("bench-table1", "--runs", "2", "--seed", "-1") == 1
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_runs_below_two_exits_1(self, capsys):
        assert run_cli("bench-table1", "--runs", "1") == 1
        assert "need at least 2 runs" in capsys.readouterr().err

    def test_unparsable_runs_exits_1_with_the_reason(self, capsys):
        assert run_cli("bench-table1", "--runs", "x") == 1
        assert "argument --runs: invalid int value: 'x'" in capsys.readouterr().err


class TestCommandSet:
    # simulate printed a "wrote ..." line and bench-table1 --out an aligned
    # table rounded to 4 digits; each now prints what its file flag writes
    @pytest.mark.parametrize("command, argv, written", [
        ("simulate", ["--function", "f2", "--snr", "5", "--seed", "7", "--out", "{d}/sim"],
         "{d}/sim_manifest.json"),
        ("deconvolve", ["--input", "{d}/Y", "--kernel", "{d}/g.csv", "--M", "8",
                        "--out", "{d}/f", "--diagnostics", "{d}/diag.json"], "{d}/diag.json"),
        ("bench-table1", ["--runs", "2", "--seed", "9", "--out", "{d}/t.csv"], "{d}/t.csv"),
        ("norms", ["--kernel", "{d}/g.csv", "--max-m", "8", "--out", "{d}/n.csv"], "{d}/n.csv"),
    ], ids=["simulate", "deconvolve", "bench-table1", "norms"])
    def test_stdout_is_the_file_the_command_writes(self, tmp_path, capsys,
                                                   command, argv, written):
        grid = TimeGrid(n=32, T=5.0)
        write_kernel_csv(tmp_path / "g.csv", grid)
        data = 0.01 * np.random.default_rng(3).standard_normal((32, 8, 8))
        write_cube(tmp_path / "Y", Cube(grid=grid, data=data))
        assert run_cli(command, *(a.format(d=tmp_path) for a in argv)) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.encode() == Path(written.format(d=tmp_path)).read_bytes()

    # a warning reached stderr in Python's two-line form, naming the
    # library's source file and line and echoing the warnings.warn call, and
    # norms printed its cap as "norms: ..."
    @pytest.mark.parametrize("argv, message", [
        (["deconvolve", "--eps", "0"], "eps = 0 with thresholding on: proceeding threshold-free"),
        (["deconvolve", "--eps", "2"], "eps >= 1 floors log(1/eps) at 0: all thresholds are zero"),
        (["deconvolve", "--M", "40"], "M=40 exceeds the n=32 frames: the projection has rank "
                                      "at most 32, so some orders are not determined by the data"),
        (["norms", "--max-m", "40"], "--max-m 40 capped at the kernel's n = 32 samples"),
    ], ids=["eps0", "eps2", "M40", "norms-max-m-40"])
    def test_each_warning_is_one_line_on_stderr(self, tmp_path, capsys, shown_warnings,
                                                argv, message):
        grid = TimeGrid(n=32, T=5.0)
        kpath = write_kernel_csv(tmp_path / "g.csv", grid)
        data = 0.01 * np.random.default_rng(3).standard_normal((32, 8, 8))
        write_cube(tmp_path / "Y", Cube(grid=grid, data=data))
        files = ["--kernel", str(kpath)]
        if argv[0] == "deconvolve":
            files += ["--input", str(tmp_path / "Y"), "--out", str(tmp_path / "f")]
        shown = warnings.formatwarning
        assert run_cli(*argv, *files) == 0
        assert warnings.formatwarning is shown  # main puts the caller's back
        err = capsys.readouterr().err
        assert err == f"warning: {message}\n"  # no source path, line or code echo

    def test_help_lists_the_four_commands(self, capsys):
        assert run_cli("--help") == 0
        choices = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1)
        assert choices.split(",") == ["simulate", "deconvolve", "bench-table1", "norms"]

    # unknown to argparse, which rejects them before any file is read: the
    # paths need not exist
    @pytest.mark.parametrize(
        "argv, reason",
        [(["smooth", "--input", "x.csv", "--out", "y.csv"], "invalid choice: 'smooth'"),
         (["deconvolve", "--input", "c", "--kernel", "g.csv", "--out", "f", "--smooth-kernel"],
          "unrecognized arguments: --smooth-kernel"),
         (["deconvolve", "--input", "c", "--kernel", "g.csv", "--out", "f", "--sigma-est", "std"],
          "unrecognized arguments: --sigma-est std"),
         (["bench-table1", "--runs", "2", "--nu", "2.0"], "unrecognized arguments: --nu 2.0")],
        ids=["smooth", "smooth-kernel", "sigma-est", "bench-nu"],
    )
    def test_removed_options_exit_1_with_the_reason(self, argv, reason, capsys):
        assert run_cli("--help") == 0
        usage = capsys.readouterr().out.split("\n\n")[0] + "\n"
        assert run_cli(*argv) == 1
        *head, last = capsys.readouterr().err.splitlines(keepends=True)
        # argparse's usage lines, then its one error line
        assert "".join(head) == usage
        assert last.startswith("lagdeconv: error: ") and last.endswith("\n")
        assert reason in last
