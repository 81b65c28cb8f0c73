"""Content-addressed result cache: memory LRU in front of a ResultStore.

Cache identity *is* the content fingerprint
(:func:`repro.session.entry_fingerprint`: target + spec + backend), so
"a million users asking for the same quarter-five-spot sweep" is by
construction one solve — there is no TTL and no invalidation problem,
because a fingerprint can never map to two different answers.

Two tiers:

* **memory** — an LRU of live :class:`~repro.backends.SolveResult`
  objects, bounded by ``max_bytes`` of *result payload* (pressure field
  + residual history + a fixed per-entry overhead).  Entry counts are a
  poor proxy on this workload — a 128×128×4 field is ~1000× the bytes
  of an 8×8×2 one — so the budget is what actually bounds the host's
  memory.
* **store** — an optional :class:`~repro.session.ResultStore`.  Probes
  use the record-only fast path (``contains``/``get``) so cache
  *misses* never pay NPZ I/O; a hit rehydrates the payload and is
  promoted into the memory tier.

``hits``/``misses`` counters feed the service's run record and the
bench's cache-hit-ratio rows.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.backends import SolveResult
from repro.session import PlanEntry, ResultStore
from repro.util.errors import ConfigurationError

#: Default memory-tier budget: 256 MiB of result payload.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Flat per-entry bookkeeping estimate (fingerprint key, dataclass,
#: telemetry dict) added to each result's payload size.
ENTRY_OVERHEAD_BYTES = 2048


def _telemetry_nbytes(value) -> int:
    """Total bytes of ndarray payloads reachable from a telemetry value.

    Telemetry is open to every registered backend, and arrays or
    dataclasses holding them can dwarf the final pressure field, so the
    byte budget must see them.  Recurses through dicts, lists, tuples
    and dataclass-like objects; scalars cost nothing beyond the flat
    entry overhead."""
    import dataclasses

    import numpy as np

    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, dict):
        return sum(_telemetry_nbytes(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_telemetry_nbytes(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(
            _telemetry_nbytes(getattr(value, f.name))
            for f in dataclasses.fields(value)
        )
    return 0


def result_nbytes(result: SolveResult) -> int:
    """The memory-tier cost of one cached result: the pressure field,
    the float64 residual history, every ndarray payload reachable from
    the telemetry dict, and a flat bookkeeping overhead."""
    return (
        int(result.pressure.nbytes)
        + 8 * len(result.residual_history)
        + _telemetry_nbytes(result.telemetry)
        + ENTRY_OVERHEAD_BYTES
    )


class ResultCache:
    """Fingerprint-keyed, byte-budgeted LRU over an optional store."""

    def __init__(
        self,
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
        store: ResultStore | None = None,
    ):
        if max_bytes < 0:
            raise ConfigurationError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self.store = store
        self._memory: OrderedDict[str, SolveResult] = OrderedDict()
        self._sizes: dict[str, int] = {}
        self._bytes = 0
        self.hits = {"memory": 0, "store": 0}
        self.misses = 0

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, fingerprint: str) -> bool:
        """Membership probe (memory, then store record); counts no stats."""
        return fingerprint in self._memory or (
            self.store is not None and self.store.contains(fingerprint)
        )

    def get(self, fingerprint: str) -> SolveResult | None:
        """The cached result for a fingerprint, or ``None`` on a miss."""
        return self.lookup(fingerprint)[0]

    def lookup(self, fingerprint: str) -> tuple[SolveResult | None, str | None]:
        """``(result, tier)`` — tier ``"memory"``/``"store"``, or a miss.

        Memory hits refresh LRU recency; store hits load the payload
        once and promote it to memory.  A store record whose NPZ
        payload is missing (torn write, pruned file) counts as a miss —
        ``contains`` is the cheap probe, ``has`` the paid verification.
        """
        result = self._memory.get(fingerprint)
        if result is not None:
            self._memory.move_to_end(fingerprint)
            self.hits["memory"] += 1
            return result, "memory"
        if self.store is not None and self.store.contains(fingerprint):
            if self.store.has(fingerprint):
                result = self.store.load(fingerprint)
                self._remember(fingerprint, result)
                self.hits["store"] += 1
                return result, "store"
        self.misses += 1
        return None, None

    def put(self, entry: PlanEntry, result: SolveResult) -> None:
        """Admit a fresh solve into both tiers: the store first, so a
        failed write caches nothing."""
        if self.store is not None:
            self.store.save(entry, result)
        self._remember(entry.fingerprint, result)

    # -- memory tier ----------------------------------------------------------

    def _remember(self, fingerprint: str, result: SolveResult) -> None:
        size = result_nbytes(result)
        if size > self.max_bytes:
            # Larger than the whole budget: admitting it would evict
            # everything and then evict it too — skip the memory tier
            # (the store tier, if any, still holds it).
            self._drop(fingerprint)
            return
        self._drop(fingerprint)
        self._memory[fingerprint] = result
        self._sizes[fingerprint] = size
        self._bytes += size
        self._evict()

    def _drop(self, fingerprint: str) -> None:
        if fingerprint in self._memory:
            del self._memory[fingerprint]
            self._bytes -= self._sizes.pop(fingerprint)

    def _evict(self) -> None:
        """Evict least-recently-used entries until the budget holds."""
        for fingerprint in list(self._memory):
            if self._bytes <= self.max_bytes:
                return
            self._drop(fingerprint)

    @property
    def memory_bytes(self) -> int:
        """Current payload bytes resident in the memory tier."""
        return self._bytes

    @property
    def hit_ratio(self) -> float:
        """Hits over probes so far (0.0 before any probe)."""
        total = self.hits["memory"] + self.hits["store"] + self.misses
        return 0.0 if total == 0 else (total - self.misses) / total

    def stats(self) -> dict:
        return {
            "memory_entries": len(self._memory),
            "memory_bytes": self._bytes,
            "max_bytes": self.max_bytes,
            "hits": dict(self.hits),
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
        }


__all__ = ["DEFAULT_MAX_BYTES", "ResultCache", "result_nbytes"]
