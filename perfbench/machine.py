"""The machine record written into every result."""

from __future__ import annotations

import os
import platform
import subprocess
import sys

# Variables that cap the BLAS thread pool; all are set to the same value.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    threads = nproc()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _cpuinfo() -> dict:
    fields = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                fields.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    return fields


def _cache_sizes() -> dict:
    """Per-level cache sizes as the kernel reports them for cpu0."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(f"{base}/{entry}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/{entry}/type") as fh:
                kind = fh.read().strip()
            with open(f"{base}/{entry}/size") as fh:
                sizes[f"L{level}_{kind.lower()}"] = fh.read().strip()
        except OSError:
            continue
    return sizes


def _git_commit(root: str) -> str | None:
    """HEAD of the repository at ``root``; None in an exported checkout."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _blas() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def record(root: str, seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = _cpuinfo()
    return {
        "nproc": nproc(),
        "cpu_model": cpu.get("model name"),
        "cpuinfo_cache_size": cpu.get("cache size"),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(root),
        "seed": seed,
        "hardware_counters": None,  # not measured; see README.md
    }
