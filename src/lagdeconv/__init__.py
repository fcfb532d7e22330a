"""Wavelet-Laguerre deconvolution of noisy causal-convolution image stacks.

Recovers f(t, x1, x2) from observations Y = g*f + noise, where * is the
causal (Laplace-type) convolution in time: Laguerre expansion in time,
periodized orthogonal wavelets in space, a triangular Toeplitz solve against
the kernel, and level-dependent hard thresholding.
"""

from .estimator import Cube, Diagnostics, EstimatorConfig, Plan, deconvolve
from .laguerre import LagCoeffs, TimeGrid
from .simulate import (
    REFERENCE_TABLE1,
    SimConfig,
    add_noise,
    eval_test_function,
    forward_convolve,
    relative_error,
    run_table1,
)
from .toeplitz import SingularOperatorError, inverse_norms
from .wavelet2d import WaveletSpec

__version__ = "0.1.0"

__all__ = [
    "Cube", "TimeGrid", "WaveletSpec", "EstimatorConfig", "Plan",
    "deconvolve", "Diagnostics", "LagCoeffs", "SingularOperatorError",
    "SimConfig", "run_table1", "REFERENCE_TABLE1",
    "add_noise", "forward_convolve", "eval_test_function", "relative_error",
    "inverse_norms",
]
