"""Where a result was measured: host, interpreter, BLAS and source.

Runs whose provenance differs are never compared: the same code measures
a 65k-element float64 dot at 0.1 ms or 8 ms depending only on the BLAS
thread count.  The benchmark runs under the threading users get by
default and records it here rather than pinning it.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict[str, str]:
    caches: dict[str, str] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def _blas() -> dict[str, Any]:
    import numpy as np

    info: dict[str, Any] = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        info = {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        }
    except (TypeError, KeyError, AttributeError):
        pass
    info["threads"] = _blas_threads()
    return info


def _blas_threads() -> int | None:
    """The live OpenBLAS thread count, read from the loaded library."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({
        line.split()[-1] for line in maps
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    })
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources (path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def collect(root: Path) -> dict[str, Any]:
    """Everything a timing needs to be compared with another one."""
    import numpy as np

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(root),
        "source_digest": source_digest(root / "src"),
        "platform": platform.platform(),
        "argv": sys.argv[1:],
    }


def comparable(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    """Provenance fields that differ between two runs (empty: comparable)."""
    keys = ("cpu_model", "nproc", "affinity", "caches", "python", "numpy",
            "blas", "thread_env", "numba")
    return [key for key in keys if a.get(key) != b.get(key)]
