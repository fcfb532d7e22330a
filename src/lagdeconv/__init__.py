"""Wavelet-Laguerre deconvolution of noisy causal-convolution image stacks.

Recovers f(t, x1, x2) from observations Y = g*f + noise, where * is the
causal (Laplace-type) convolution in time: Laguerre expansion in time,
periodized orthogonal wavelets in space, a triangular Toeplitz solve against
the kernel, and level-dependent hard thresholding.
"""

from .estimator import (
    Cube,
    Diagnostics,
    EstimatorConfig,
    Plan,
    deconvolve,
    hard_threshold,
    thresholds,
)
from .laguerre import (
    LagCoeffs,
    LaguerreBasis,
    TimeGrid,
    eval_laguerre,
    fit_coeffs,
    reconstruct,
    smooth_series,
    tabulate_basis,
)
from .simulate import (
    REFERENCE_TABLE1,
    SimConfig,
    add_noise,
    eval_test_function,
    forward_convolve,
    relative_error,
    run_table1,
)
from .toeplitz import (
    InverseNormTable,
    LowerToeplitz,
    SingularOperatorError,
    build_G,
    inverse_norms,
    select_M,
    solve_lower,
)
from .wavelet2d import (
    WaveletSpec,
    dwt2_array,
    estimate_sigma,
    idwt2_array,
)

__version__ = "0.1.0"

__all__ = [
    "Cube", "Diagnostics", "EstimatorConfig", "Plan",
    "deconvolve", "hard_threshold", "thresholds",
    "LagCoeffs", "LaguerreBasis", "TimeGrid",
    "eval_laguerre", "fit_coeffs", "reconstruct",
    "smooth_series", "tabulate_basis",
    "REFERENCE_TABLE1", "SimConfig",
    "add_noise", "eval_test_function", "forward_convolve",
    "relative_error", "run_table1",
    "InverseNormTable", "LowerToeplitz",
    "SingularOperatorError",
    "build_G", "inverse_norms", "select_M", "solve_lower",
    "WaveletSpec", "dwt2_array", "estimate_sigma", "idwt2_array",
]
