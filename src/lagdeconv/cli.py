"""Command-line interface.

Commands: simulate, deconvolve, bench-table1, norms.  Everything is
flag-driven and deterministic given --seed.  Each command prints one result
document, and its file flag writes exactly those bytes: simulate's manifest
JSON (next to the cubes at --out), deconvolve's diagnostics JSON
(--diagnostics), the Table-1 CSV and the norm CSV (--out).  Flags are only
parsed here (--max-m as an int >= 1); the library checks the rest.  `deconvolve
--kernel` and `norms` read a kernel file by one rule: an optional t = 0 row,
then samples at t_k = T k/n, on the cube's grid or on the file's own.  Exit
codes: 0 success, 1 usage or validation (a kernel off its grid included), 2
I/O or a malformed file (any fault of a cube or series file, undecodable
text included), 3 numeric failure (singular kernel, linear-algebra error).
On stderr a command writes one `warning: <message>` line per warning, then
at most one failure line; for a bad flag that is argparse's error line,
after its usage.
`deconvolve --symmetrize` (mirror to dyadic sides, fit, crop) is a
convenience of this command line only; the library rejects non-dyadic sides.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .estimator import DEFAULT_M_CAP, Cube, EstimatorConfig, Plan, deconvolve
from .io import FileFormatError, read_cube, read_series, write_cube
from .laguerre import LagCoeffs, TimeGrid
from .simulate import SimConfig, _forward_model, add_noise, run_table1
from .toeplitz import SingularOperatorError
from .wavelet2d import WaveletSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


def _auto_or(kind):
    """argparse type: "auto" or a `kind` value, named in parse errors."""
    def parse(text: str):
        return text if text == "auto" else kind(text)
    parse.__name__ = f"'auto' or {kind.__name__}"
    return parse


def _positive_int(text: str) -> int:
    """argparse type "positive int": an integer >= 1."""
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


_positive_int.__name__ = "positive int"


def _build_parser() -> argparse.ArgumentParser:
    sim, est = SimConfig(), EstimatorConfig()  # the library's defaults
    p = argparse.ArgumentParser(prog="lagdeconv", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="generate clean q, noisy Y and truth f cubes")
    ps.add_argument("--function", required=True, help="one of f1..f4")
    ps.add_argument("--snr", type=float, required=True)
    ps.add_argument("--seed", type=int, default=sim.seed)
    ps.add_argument("--n", type=int, default=sim.n)
    ps.add_argument("--n1", type=int, default=sim.n1)
    ps.add_argument("--n2", type=int, default=sim.n2)
    ps.add_argument("--T", type=float, default=sim.T)
    ps.add_argument("--out", required=True, help="output path prefix")
    ps.set_defaults(run=cmd_simulate)

    pd = sub.add_parser("deconvolve", help="recover f from an observation cube")
    pd.add_argument("--input", required=True, help="cube stem (JSON+bin)")
    kernel = pd.add_mutually_exclusive_group(required=True)
    kernel.add_argument("--kernel", help="kernel SeriesFile sampled on the cube grid")
    kernel.add_argument("--kernel-coeffs",
                        help="CSV of kernel Laguerre coefficients (index, value)")
    pd.add_argument("--out", required=True, help="output stem for the estimate")
    pd.add_argument("--M", type=_auto_or(int), default=est.M, help="Laguerre order or 'auto'")
    pd.add_argument("--nu", type=float, default=est.nu)
    pd.add_argument("--eps", type=_auto_or(float), default=est.eps,
                    help="noise intensity or 'auto'")
    pd.add_argument("--no-threshold", action="store_true")
    pd.add_argument("--symmetrize", action="store_true",
                    help="reflect to a periodic dyadic image, crop back after")
    pd.add_argument("--rcond", type=float, default=est.rcond)
    pd.add_argument("--diagnostics", help="path for the diagnostics JSON")
    pd.set_defaults(run=cmd_deconvolve)

    pb = sub.add_parser("bench-table1", help="replicate the benchmark table")
    pb.add_argument("--runs", type=int, default=sim.runs)
    pb.add_argument("--seed", type=int, default=sim.seed)
    pb.add_argument("--out", help="also write the CSV here")
    pb.set_defaults(run=cmd_bench_table1)

    pn = sub.add_parser("norms", help="tabulate inverse-operator norm growth")
    pn.add_argument("--kernel", required=True, help="kernel SeriesFile")
    pn.add_argument("--max-m", type=_positive_int, default=DEFAULT_M_CAP)
    pn.add_argument("--out", help="also write the CSV here")
    pn.set_defaults(run=cmd_norms)
    return p


def _kernel_series(path, grid: TimeGrid | None = None):
    """(grid, samples at t_1..t_n, value at t = 0 or None) from a kernel SeriesFile.

    The file may open with an exact t = 0 row; its other times must be
    t_k = T k/n, k = 1..n, to within rtol 1e-9 and atol 1e-12.  (n, T) is
    `grid`'s when given (the cube's) and else the file's sample count and
    last time.
    """
    t, values = read_series(path)
    zero_value = None
    if t[0] == 0.0:
        t, values, zero_value = t[1:], values[1:], float(values[0])
    if grid is None:
        if t.size == 0:
            raise ValueError(f"kernel series {path} has no sample at t > 0")
        grid = TimeGrid(n=t.size, T=float(t[-1]))
    if t.size != grid.n or not np.allclose(t, grid.points, rtol=1e-9, atol=1e-12):
        raise ValueError(f"kernel series {path} is not sampled at t_k = T k/n, "
                         f"k = 1..n, with n = {grid.n} and T = {grid.T:g}")
    return grid, values, zero_value


def _kernel_coeffs(path) -> LagCoeffs:
    """Laguerre coefficients from --kernel-coeffs, indexed exactly 0..m-1."""
    index, values = read_series(path)
    bad = np.flatnonzero(index != np.arange(index.size))
    if bad.size:
        k = int(bad[0])
        raise FileFormatError(f"{path}: data row {k + 1} has index {index[k]:g}, "
                              f"need {k}: indices must run 0, 1, ..., m-1")
    return LagCoeffs(values)


def _next_pow2(n: int) -> int:
    return 1 << max(1, (n - 1).bit_length())


def _emit(text: str, path) -> int:
    """Write a command's result document to `path`, if given, and print it."""
    if path:
        Path(path).write_text(text)
    print(text, end="")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = SimConfig(n=args.n, T=args.T, n1=args.n1, n2=args.n2)
    f, q = _forward_model(args.function, cfg)
    Y, sigma = add_noise(q, args.snr, args.seed)
    out = Path(args.out)
    for k, cube in (("f", f), ("q", q), ("Y", Y)):
        write_cube(f"{out}_{k}", cube)
    manifest = {
        "function": args.function, "snr": args.snr, "seed": args.seed,
        "n": args.n, "n1": args.n1, "n2": args.n2, "T": args.T,
        "sigma_used": sigma, "kernel": "exp(-t/2)",
        "outputs": {k: f"{out}_{k}" for k in ("f", "q", "Y")},
    }
    return _emit(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                 f"{out}_manifest.json")


def cmd_deconvolve(args) -> int:
    Y = read_cube(args.input)

    if args.kernel_coeffs is not None:
        kernel, g_zero = _kernel_coeffs(args.kernel_coeffs), None
    else:
        _, kernel, g_zero = _kernel_series(args.kernel, Y.grid)

    cfg = EstimatorConfig(
        M=args.M, nu=args.nu, eps=args.eps,
        threshold_mode=not args.no_threshold,
        rcond=args.rcond,
    )
    spec = WaveletSpec()

    n1, n2 = Y.n1, Y.n2
    dyadic = (n1 & (n1 - 1) == 0) and (n2 & (n2 - 1) == 0)
    if args.symmetrize:
        # Mirror each slice about its far edges: to (2 n1, 2 n2) when both
        # sides are dyadic, else to the next powers of two (never more than
        # doubling a side); the fit is cropped back to the original quadrant.
        t1, t2 = (2 * n1, 2 * n2) if dyadic else (_next_pow2(n1), _next_pow2(n2))
        Y = Cube(grid=Y.grid, data=np.pad(Y.data, ((0, 0), (0, t1 - n1), (0, t2 - n2)),
                                          mode="symmetric"))
    elif not dyadic:
        raise ValueError("spatial sides are not powers of two; pass --symmetrize")

    f_hat, diag = deconvolve(Y, kernel, spec, cfg, g_zero=g_zero)

    if args.symmetrize:
        f_hat = Cube(grid=f_hat.grid, data=f_hat.data[:, :n1, :n2])
    write_cube(args.out, f_hat)
    return _emit(json.dumps(diag.to_dict(), sort_keys=True, indent=2) + "\n",
                 args.diagnostics)


def cmd_bench_table1(args) -> int:
    cfg = SimConfig(runs=args.runs, seed=args.seed)
    rows = run_table1(cfg)
    lines = ["function,snr,mean_delta,stderr,runs,seed,reference_delta,ratio"]
    for r in rows:
        lines.append(
            f"{r.function},{r.snr:g},{r.mean_delta:.17g},{r.stderr:.17g},"
            f"{r.runs},{r.seed},{r.reference_delta:.4f},{r.ratio:.17g}"
        )
    return _emit("\n".join(lines) + "\n", args.out)


def cmd_norms(args) -> int:
    grid, series, zero_value = _kernel_series(args.kernel)
    max_m = min(args.max_m, grid.n)
    if max_m < args.max_m:
        warnings.warn(f"--max-m {args.max_m} capped at the kernel's n = {grid.n} samples")
    # the norm table of the plan at M = max_m, the one M="auto" reads
    plan = Plan(grid, series, WaveletSpec(), EstimatorConfig(M=max_m), zero_value)
    table = plan._order(max_m).norms
    ms = np.arange(1, max_m + 1)
    slope = float("nan")
    # asymptotic growth: fit the upper part of the range, from m = 8 when
    # the table reaches that far
    fit_from = ms >= min(8, max(2, max_m // 2))
    if fit_from.sum() >= 2:
        slope = float(np.polyfit(np.log(ms[fit_from]),
                                 np.log(table.frobenius[fit_from] ** 2), 1)[0])
    lines = [f"# frobenius_sq_loglog_slope: {slope:.6g}", "m,spectral,frobenius"]
    for m, spectral, frobenius in zip(ms, table.spectral, table.frobenius):
        lines.append(f"{m},{spectral:.17g},{frobenius:.17g}")
    return _emit("\n".join(lines) + "\n", args.out)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a bad flag, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    # each warning one line, no source echo; the caller's filters and
    # showwarning still decide what is shown.  catch_warnings() does not
    # restore formatwarning, so the finally does.
    shown = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return args.run(args)
    except FileFormatError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SingularOperatorError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        warnings.formatwarning = shown


if __name__ == "__main__":
    sys.exit(main())
