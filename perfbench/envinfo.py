"""Environment fingerprint recorded with every benchmark run.

:func:`pin_blas_threads` must run before numpy is first imported: OpenBLAS
reads its thread count once, at load time.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import platform

BLAS_THREADS = "1"
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread per process: workers get a core each, runs repeat."""
    for name in _BLAS_ENV:
        os.environ[name] = BLAS_THREADS


def _blas_library():
    """Path of the OpenBLAS shared object mapped into this process, if any."""
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                if "openblas" in line.lower():
                    return line.split()[-1]
    except OSError:
        pass
    return None


def _blas_threads(path):
    """Thread count OpenBLAS itself reports (None when it cannot be asked)."""
    if path is None:
        return None
    library = ctypes.CDLL(path)
    for symbol in (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    ):
        function = getattr(library, symbol, None)
        if function is not None:
            function.restype = ctypes.c_int
            return int(function())
    return None


def fingerprint() -> dict:
    import numpy as np

    blas = (np.show_config(mode="dicts") or {}).get("Build Dependencies", {}).get("blas", {})
    path = _blas_library()
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(path),
        "blas_env": {name: os.environ.get(name) for name in _BLAS_ENV},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "start_method": multiprocessing.get_start_method(),
        "machine": platform.machine(),
    }
