"""Machine record stored with every result: CPUs, versions, BLAS and its threads."""

import ctypes
import os
import platform
import sys

# Getter names of the thread count in the OpenBLAS builds numpy ships with
# (scipy-openblas, 64-bit interface) and in system builds.
_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads():
    """Thread count the loaded OpenBLAS will use, read without changing it.

    Finds the library numpy loaded from this process's memory map and calls
    its getter; returns None where that is not possible.
    """
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _THREAD_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return int(getter())
    return None


def machine_record() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})

    def lib(kind):
        info = deps.get(kind, {})
        return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()

    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": lib("blas"),
        "lapack": lib("lapack"),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ},
    }
