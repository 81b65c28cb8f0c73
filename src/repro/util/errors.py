"""Exception hierarchy for the repro package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing genuine programming errors.
"""

from __future__ import annotations

import difflib
import pickle
import sys


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class ValidationError(ReproError):
    """An input array or value failed a structural validation check."""


class ConvergenceError(ReproError):
    """An iterative solver failed to reach its tolerance within max_iters.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual_norm:
        Squared residual norm (``r^T r``) at the point of failure.
    """

    def __init__(self, message: str, iterations: int, residual_norm: float):
        super().__init__(message)
        self.iterations = int(iterations)
        self.residual_norm = float(residual_norm)

    def __reduce__(self):
        # args only holds the message; default reduce would re-call
        # __init__ with one argument and fail on unpickle (process pools).
        return (self.__class__, (self.args[0], self.iterations, self.residual_norm))


class PeOutOfMemory(ReproError):
    """A processing element exhausted its private local memory (48 KiB).

    Mirrors the hard capacity constraint of a WSE-2 PE: the paper's §III-E.1
    discusses manual buffer reuse precisely because this limit is real.
    """

    def __init__(self, message: str, requested: int, available: int, capacity: int):
        super().__init__(message)
        self.requested = int(requested)
        self.available = int(available)
        self.capacity = int(capacity)

    def __reduce__(self):
        return (
            self.__class__,
            (self.args[0], self.requested, self.available, self.capacity),
        )


def picklesafe_error(exc: BaseException) -> BaseException:
    """``exc`` itself if it survives a pickle round trip, else a
    :class:`RuntimeError` stand-in naming it.

    A process pool ships a worker's error back through pickle; one whose
    constructor signature breaks the default reduce protocol (the
    library's own errors define ``__reduce__`` above for this) would
    otherwise fail at *deserialization* and take the whole batch down.
    Thread pools cross no pickle boundary and keep the original."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


class RoutingError(ReproError):
    """A wavelet could not be routed (bad color, missing route, dead link)."""


def unknown_name_error(kind: str, name, valid, plural: str) -> ConfigurationError:
    """A :class:`ConfigurationError` for the unknown ``kind`` ``name``:
    it suggests the closest of ``valid`` and lists them all."""
    close = difflib.get_close_matches(str(name), list(valid), n=1, cutoff=0.5)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    return ConfigurationError(
        f"unknown {kind} {name!r}{hint} (valid {plural}: {', '.join(valid)})"
    )


def _group_message(message: str, errors) -> str:
    lines = [message]
    for exc in errors:
        lines.append(f"  - {type(exc).__name__}: {exc}")
    return "\n".join(lines)


if sys.version_info >= (3, 11):

    class SolveErrorGroup(ExceptionGroup, ReproError):  # noqa: F821
        """Several batch entries failed; every per-entry error is carried.

        A real :class:`ExceptionGroup` (``except*`` works) that is also a
        :class:`ReproError`, so ``except ReproError`` keeps catching
        library failures.  ``.errors`` lists the per-entry exceptions in
        entry order — the service-side retry taxonomy classifies each one
        instead of seeing only whichever entry happened to fail first.
        """

        def __new__(cls, message: str, errors):
            errors = list(errors)
            return super().__new__(cls, _group_message(message, errors), errors)

        def derive(self, excs):
            return SolveErrorGroup(self.message.splitlines()[0], excs)

        @property
        def errors(self) -> list[Exception]:
            return list(self.exceptions)

else:  # pragma: no cover - exercised only on Python < 3.11

    class SolveErrorGroup(ReproError):  # type: ignore[no-redef]
        """Several batch entries failed; every per-entry error is carried.

        Pre-3.11 stand-in for the :class:`ExceptionGroup` variant: same
        message format and the same ``.errors`` list, minus ``except*``.
        """

        def __init__(self, message: str, errors):
            errors = list(errors)
            super().__init__(_group_message(message, errors))
            self.exceptions = tuple(errors)

        @property
        def errors(self) -> list[Exception]:
            return list(self.exceptions)
