"""Pluggable solver backends — the library's single front door.

The three paper machines ship pre-registered::

    >>> from repro import backends
    >>> backends.available_backends()
    ['gpu', 'reference', 'wse']
    >>> result = backends.get_backend("reference").solve(problem)

New targets plug in without touching any call site::

    >>> backends.register_backend(MyBackend())
    >>> repro.solve(problem, backend="my-backend")
"""

from __future__ import annotations

from repro.backends.base import (
    SimulationResult,
    SolveResult,
    SolverBackend,
    StepResult,
)
from repro.backends.gpu import GpuBackend
from repro.backends.reference import ReferenceBackend
from repro.backends.registry import (
    available_backends,
    get_backend,
    get_transient_backend,
    iter_backends,
    register_backend,
    unregister_backend,
)
from repro.backends.wse import WseBackend

#: The paper's three machines, registered at import time.
BUILTIN_BACKENDS = (ReferenceBackend(), WseBackend(), GpuBackend())
for _backend in BUILTIN_BACKENDS:
    if _backend.name not in available_backends():
        register_backend(_backend)

__all__ = [
    "BUILTIN_BACKENDS",
    "GpuBackend",
    "ReferenceBackend",
    "SimulationResult",
    "SolveResult",
    "SolverBackend",
    "StepResult",
    "WseBackend",
    "available_backends",
    "get_backend",
    "get_transient_backend",
    "iter_backends",
    "register_backend",
    "unregister_backend",
]
