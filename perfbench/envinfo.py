"""Machine and environment record stored with every benchmark result."""

from __future__ import annotations

import os
import platform

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS", "NPY_NUM_THREADS")


def _cpuinfo():
    """CPU model and cache size lines from /proc/cpuinfo (Linux), else empty."""
    found = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in found:
                    found[key] = value.strip()
    except OSError:
        pass
    return found


def _blas_lapack():
    import numpy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):    # numpy < 1.26 has no dict mode
        return {"blas": "unknown", "lapack": "unknown"}
    return {kind: " ".join(str(deps.get(kind, {}).get(k, "")) for k in
                           ("name", "version", "openblas configuration")).strip()
            for kind in ("blas", "lapack")}


def machine_info(seed):
    import numpy
    import scipy
    cpu = _cpuinfo()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload_seed": seed,
        "nproc": nproc,
        "cpu_model": cpu.get("model name") or platform.processor() or "unknown",
        # on x86 Linux the "cache size" line reports the last-level cache
        "last_level_cache": cpu.get("cache size", "unknown"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_lapack": _blas_lapack(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }
