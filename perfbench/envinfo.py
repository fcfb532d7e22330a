"""Environment record written into every results file."""

from __future__ import annotations

import ctypes
import os
import platform
import threading
from pathlib import Path

import numpy as np


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _os_threads() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_library() -> str | None:
    """Path of the OpenBLAS shared object this process has loaded."""
    try:
        for line in Path("/proc/self/maps").read_text().splitlines():
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                return path
    except OSError:
        pass
    return None


def _blas_runtime() -> dict:
    """Effective thread count and build string, asked of OpenBLAS itself."""
    path = _blas_library()
    if path is None:
        return {"effective_threads": None, "runtime_config": None}
    lib = ctypes.CDLL(path)
    out = {"library": path, "effective_threads": None, "runtime_config": None}
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                out["effective_threads"] = int(get_threads())
                out["runtime_config"] = get_config().decode()
                return out
    return out


def environment(root: Path) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(root),
        "blas": {
            "vendor": blas.get("name"),
            "version": blas.get("version"),
            "build": blas.get("openblas configuration"),
            **_blas_runtime(),
        },
        "env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                      "NUMPY_MADVISE_HUGEPAGE")
        },
        "transparent_hugepage": _read("/sys/kernel/mm/transparent_hugepage/enabled"),
        "python_threads": threading.active_count(),
        "os_threads": _os_threads(),
    }
