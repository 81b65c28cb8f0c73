"""Per-PE memory arena with hard capacity accounting.

Each WSE-2 PE owns 48 KiB that must hold code, cell data, face
coefficients and all communication buffers; §III-E.1 of the paper is about
squeezing into it by manual buffer reuse ("analogous to register
allocation ... manually handled").  :class:`MemoryArena` enforces the
budget: every allocation is tracked, exceeding capacity raises
:class:`PeOutOfMemory`, and :meth:`alias` models the paper's buffer-reuse
optimization (two logical buffers sharing one physical allocation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigurationError, PeOutOfMemory

#: Scalar slots reserved per PE (CG scalars, state machine, stack): the
#: ``reserved_bytes`` every PE arena of the CG program is charged.
SCALAR_RESERVE_BYTES = 256


@dataclass
class _Allocation:
    name: str
    array: np.ndarray
    nbytes: int
    alias_of: str | None = None


class MemoryArena:
    """A capacity-tracked allocator of NumPy arrays.

    Parameters
    ----------
    capacity_bytes:
        Hard limit (48 KiB for a WSE-2 PE).
    reserved_bytes:
        Bytes charged up front for code/runtime (not allocatable).
    """

    def __init__(self, capacity_bytes: int, *, reserved_bytes: int = 0):
        if capacity_bytes <= 0:
            raise ConfigurationError("capacity_bytes must be > 0")
        if not 0 <= reserved_bytes <= capacity_bytes:
            raise ConfigurationError(
                f"reserved_bytes must be in [0, {capacity_bytes}]"
            )
        self.capacity_bytes = int(capacity_bytes)
        self.reserved_bytes = int(reserved_bytes)
        self._allocations: dict[str, _Allocation] = {}
        self._used = reserved_bytes
        self.high_water_bytes = reserved_bytes

    # -- allocation ----------------------------------------------------------

    def alloc(self, name: str, shape, dtype=np.float32) -> np.ndarray:
        """Allocate a zeroed array charged against the arena."""
        if name in self._allocations:
            raise ConfigurationError(f"buffer {name!r} already allocated")
        array = np.zeros(shape, dtype=dtype)
        nbytes = int(array.nbytes)
        if self._used + nbytes > self.capacity_bytes:
            raise PeOutOfMemory(
                f"allocating {name!r} ({nbytes} B) exceeds PE memory "
                f"({self._used}/{self.capacity_bytes} B used)",
                requested=nbytes,
                available=self.capacity_bytes - self._used,
                capacity=self.capacity_bytes,
            )
        self._used += nbytes
        self.high_water_bytes = max(self.high_water_bytes, self._used)
        self._allocations[name] = _Allocation(name, array, nbytes)
        return array

    def alias(self, name: str, existing: str) -> np.ndarray:
        """Reuse an existing buffer under a new name (zero extra bytes).

        This is the §III-E.1 memory-saving optimization: "overwriting or
        reusing data buffers eliminates the necessity for data
        replication".  The alias shares storage — callers are responsible
        for the liveness reasoning, exactly like the hand-managed CSL code.
        """
        if name in self._allocations:
            raise ConfigurationError(f"buffer {name!r} already allocated")
        base = self._get(existing)
        self._allocations[name] = _Allocation(name, base.array, 0, alias_of=existing)
        return base.array

    def free(self, name: str) -> None:
        """Release a buffer (aliases release zero bytes)."""
        alloc = self._allocations.pop(name, None)
        if alloc is None:
            raise ConfigurationError(f"buffer {name!r} is not allocated")
        self._used -= alloc.nbytes

    def get(self, name: str) -> np.ndarray:
        return self._get(name).array

    def _get(self, name: str) -> _Allocation:
        if name not in self._allocations:
            raise ConfigurationError(f"buffer {name!r} is not allocated")
        return self._allocations[name]

    # -- accounting ----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._allocations

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    def report(self) -> dict[str, int]:
        """Per-buffer byte accounting (aliases report 0)."""
        return {a.name: a.nbytes for a in self._allocations.values()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MemoryArena({self._used}/{self.capacity_bytes} B, "
            f"{len(self._allocations)} buffers)"
        )
