"""String-keyed backend registry.

The registry is the seam future hardware targets plug into: registering a
:class:`~repro.backends.base.SolverBackend` under a name makes it reachable
from :func:`repro.solve`, `solve_many`, the benchmarks and the examples
without touching any of them.
"""

from __future__ import annotations

from typing import Iterator

from repro.backends.base import SolverBackend
from repro.util.errors import ConfigurationError

_REGISTRY: dict[str, SolverBackend] = {}


def register_backend(backend: SolverBackend, *, overwrite: bool = False) -> SolverBackend:
    """Register ``backend`` under ``backend.name``.

    Raises
    ------
    ConfigurationError
        If the name is already taken and ``overwrite`` is not set, or the
        object does not satisfy the :class:`SolverBackend` protocol.
    """
    name = getattr(backend, "name", None)
    if not isinstance(name, str) or not name:
        raise ConfigurationError(
            f"backend {backend!r} has no usable 'name' attribute"
        )
    if not callable(getattr(backend, "solve", None)):
        raise ConfigurationError(f"backend {name!r} has no callable solve()")
    if name in _REGISTRY and not overwrite:
        raise ConfigurationError(
            f"backend {name!r} is already registered; pass overwrite=True "
            f"to replace it"
        )
    _REGISTRY[name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove a backend (mainly for tests tearing down fakes)."""
    _REGISTRY.pop(name, None)


def get_backend(name: str) -> SolverBackend:
    """Look up a backend by registry name.

    Unknown names raise with the list of available backends, so a typo'd
    ``backend=`` argument is self-diagnosing.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; available backends: "
            f"{', '.join(available_backends()) or '(none)'}"
        ) from None


def get_transient_backend(name: str) -> SolverBackend:
    """:func:`get_backend`, refusing a backend that cannot time-step
    (one without ``supports_transient = True``)."""
    backend = get_backend(name)
    if not getattr(backend, "supports_transient", False):
        raise ConfigurationError(
            f"backend {name!r} does not support transient simulation "
            f"(no supports_transient declaration)"
        )
    return backend


def available_backends() -> list[str]:
    """Sorted names of every registered backend."""
    return sorted(_REGISTRY)


def iter_backends() -> Iterator[SolverBackend]:
    for name in available_backends():
        yield _REGISTRY[name]
