"""Host-speed reference for the benchmark's normalised timings.

The machines the benchmark runs on are shared, and their speed moves by a
third or more over seconds to minutes while the process keeps its CPU
(steal time stays near zero and CPU time tracks wall time, so neither
helps).  Every call of the timed loop is therefore flanked by runs of a
fixed reference that uses no lagdeconv code, and a normalised time is a
wall time scaled by `REF_MS` over the reference's wall time next to it:
the time the call would take on a host where the reference takes
`REF_MS`.  A change to the library moves the call and not the reference,
so it shows in the normalised time in full.

Host slowdowns hit different kinds of work by different amounts: a busy
neighbour slows interpreter-bound code by about twice as much as code
that streams large arrays.  A reference therefore tracks a workload only
if it does the same kinds of work, so each workload names its own: four
slots of about REF_MS / 4 each, filled from the kernels below.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# The unit of normalised times: a reference's wall time, in ms, on the host
# they are scaled to.  A convention, not a measurement; it is near the
# time of four kernels on an unloaded 2-vCPU Xeon host.
REF_MS = 10.0
CALL_REPEATS = 3

_rng = np.random.default_rng(0)
_COLUMN = np.concatenate([[2.0], _rng.uniform(-0.5, 0.5, 63)])  # a lower Toeplitz operator
_RHS = _rng.standard_normal((64, 4))
_IMAGES = _rng.standard_normal((2, 128, 128))  # 256 KiB, cache-resident
_TAPS = np.array([0.48, 0.84, 0.22, -0.13])
_WINDOWS = (2 * np.arange(64)[:, None] + np.arange(4)[None, :]) % 128


@functools.cache
def _stream_input() -> np.ndarray:
    # 4 MiB, made once: above numpy's huge-page threshold, as the scan256
    # cubes are.
    return np.random.default_rng(1).standard_normal((8, 256, 256))


def python_loop() -> float:
    """Pure-Python arithmetic and dict stores."""
    s, d = 0.0, {}
    for i in range(18_000):
        s += (i * 0.5) % 7.0
        d[i & 255] = s
    return s


def small_calls() -> np.ndarray:
    """Forward substitution, one small numpy call per row, then a Ritz step."""
    for _ in range(CALL_REPEATS):
        x = np.empty_like(_RHS)
        for i in range(_COLUMN.size):
            x[i] = (_RHS[i] - np.tensordot(_COLUMN[1 : i + 1][::-1], x[:i], axes=(0, 0))) / _COLUMN[0]
        q, _ = np.linalg.qr(x)
        np.linalg.eigvalsh(q.T @ x)
    return x


def filter_bank() -> np.ndarray:
    """Periodised filter-bank passes along both axes of a stack of images."""
    out = _IMAGES
    for axis in (-2, -1):
        x = np.moveaxis(out, axis, -1)
        windows = x[..., _WINDOWS]
        y = np.concatenate([windows @ _TAPS, windows @ _TAPS[::-1]], axis=-1)
        back = np.zeros_like(y)
        for m in range(_TAPS.size):
            back[..., _WINDOWS[:, m]] += _TAPS[m] * y[..., :64]
        out = np.moveaxis(back, -1, axis)
    return out


def stream() -> np.ndarray:
    """Sum and difference passes that stream a 4 MiB array through memory.

    Each pass writes a freshly allocated 2 MiB array, whose pages the
    kernel faults in, as the library's large temporaries are.  At most two
    outputs live at once, so the kernel's peak memory stays at 8 MiB.
    """
    x = _stream_input()
    for op in (np.add, np.subtract):
        out = op(x[:, ::2, :], x[:, 1::2, :])
        out *= 0.7071
    return out


KERNELS = {f.__name__: f for f in (python_loop, small_calls, filter_bank, stream)}


def reference_ns(slots: tuple[str, ...]) -> int:
    """Wall time of one run of the reference made of `slots`, in ns."""
    kernels = [KERNELS[s] for s in slots]
    t0 = time.perf_counter_ns()
    for k in kernels:
        k()
    return time.perf_counter_ns() - t0


def normalised(wall_ns: float, ref_ns: float) -> float:
    """`wall_ns` scaled to a host where the reference takes REF_MS; in ns."""
    return wall_ns * (REF_MS * 1e6) / ref_ns


def timed(fn, slots: tuple[str, ...]):
    """Run `fn()` between two reference runs.

    Returns its result, its wall time and the mean of the two reference
    times, both in ns.
    """
    before = reference_ns(slots)
    t0 = time.perf_counter_ns()
    out = fn()
    wall = time.perf_counter_ns() - t0
    return out, wall, (before + reference_ns(slots)) / 2
