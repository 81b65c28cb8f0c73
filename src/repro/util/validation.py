"""Small validation helpers used across the library.

All helpers raise :class:`repro.util.errors.ValidationError` (or
:class:`ConfigurationError` via :func:`require`) with messages that name the
offending argument, which keeps call sites one-liners.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.util.errors import ConfigurationError, ValidationError


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate that a scalar is positive (or non-negative if not strict)."""
    value = float(value)
    if strict and not value > 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    if not strict and not value >= 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value


def check_in_range(
    name: str, value: float, lo: float, hi: float, *, inclusive: bool = True
) -> float:
    """Validate that ``lo <= value <= hi`` (or strict inequality)."""
    value = float(value)
    ok = (lo <= value <= hi) if inclusive else (lo < value < hi)
    if not ok:
        bracket = "[]" if inclusive else "()"
        raise ValidationError(
            f"{name} must be in {bracket[0]}{lo}, {hi}{bracket[1]}, got {value}"
        )
    return value


def check_shape(name: str, array: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """Validate an array's exact shape."""
    array = np.asarray(array)
    if tuple(array.shape) != tuple(shape):
        raise ValidationError(
            f"{name} must have shape {tuple(shape)}, got {tuple(array.shape)}"
        )
    return array


def check_dtype(name: str, array: np.ndarray, dtype: Any) -> np.ndarray:
    """Validate an array's dtype exactly (no silent casting)."""
    array = np.asarray(array)
    if array.dtype != np.dtype(dtype):
        raise ValidationError(
            f"{name} must have dtype {np.dtype(dtype)}, got {array.dtype}"
        )
    return array


def check_index(name: str, value: int, size: int) -> int:
    """Validate an integer index against ``range(size)``."""
    value = int(value)
    if not 0 <= value < size:
        raise ValidationError(f"{name} must be in [0, {size}), got {value}")
    return value


def as_tuple3(name: str, value: Iterable[int]) -> tuple[int, int, int]:
    """Coerce an iterable into a 3-tuple of positive ints."""
    items = tuple(int(v) for v in value)
    if len(items) != 3:
        raise ValidationError(f"{name} must have exactly 3 entries, got {len(items)}")
    for v in items:
        if v <= 0:
            raise ValidationError(f"{name} entries must be > 0, got {items}")
    return items  # type: ignore[return-value]
