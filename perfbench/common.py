"""Shared pieces: the run outcome, percentiles, memory, digests."""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: An answer further than this from the float64 reference is wrong, not
#: merely loose (the parent's worst members sit near 1e-3).
GROSS_ERROR = 1e-2


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)  # metric -> why missing
    info: dict[str, Any] = field(default_factory=dict)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(reason)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def peak_rss_mib() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def array_digest(*arrays: np.ndarray) -> str:
    digest = hashlib.sha1()
    for array in arrays:
        a = np.ascontiguousarray(array)
        digest.update(str((a.dtype.str, a.shape)).encode())
        digest.update(a.tobytes())
    return digest.hexdigest()


def json_digest(value: Any) -> str:
    return hashlib.sha1(json.dumps(value, sort_keys=True, default=str).encode()).hexdigest()


def relative_error(pressure: np.ndarray, reference: np.ndarray) -> float:
    """``||p - p_ref||_inf / ||p_ref||_inf`` in float64."""
    p = np.asarray(pressure, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    return float(np.max(np.abs(p - ref)) / np.max(np.abs(ref)))


def pressure_problem(pressure: Any, shape: tuple[int, ...]) -> str | None:
    """Why a returned pressure is unusable, or ``None``."""
    if not isinstance(pressure, np.ndarray):
        return f"pressure is a {type(pressure).__name__}, not an ndarray"
    if pressure.shape != tuple(shape):
        return f"pressure shape {pressure.shape} != grid {tuple(shape)}"
    if not np.all(np.isfinite(pressure)):
        return "pressure has non-finite values"
    return None
