"""Performance counters for PEs and the fabric.

Counts everything Table V and Table IV need: per-op instruction counts,
FLOPs, local-memory traffic, fabric traffic, and compute/communication
cycle accounting.  Counters are plain integers updated on the hot path —
no event objects, no allocation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.wse.isa import (
    F32_BYTES,
    OP_FABRIC_LOADS,
    OP_FLOPS,
    OP_MEM_LOADS,
    OP_MEM_STORES,
    Op,
)


@dataclass
class PerfCounters:
    """Per-PE counters.

    Attributes
    ----------
    op_counts:
        Executed instruction counts keyed by :class:`Op` (instruction
        granularity: one DSD vector op over n elements counts n).
    flops:
        Total floating point operations (FMA = 2).
    mem_load_bytes / mem_store_bytes:
        Local-memory traffic.
    fabric_load_bytes / fabric_store_bytes:
        Bytes read from / written to the fabric via the RAMP link.
    compute_cycles:
        Cycles spent executing instructions.
    idle_cycles:
        Cycles the PE spent waiting for wavelets (filled in by the fabric
        at the end of a run: makespan − compute).
    """

    op_counts: Counter = field(default_factory=Counter)
    flops: int = 0
    mem_load_bytes: int = 0
    mem_store_bytes: int = 0
    fabric_load_bytes: int = 0
    fabric_store_bytes: int = 0
    compute_cycles: int = 0
    idle_cycles: int = 0

    def record_op(self, op: Op, num_elements: int, cycles: int) -> None:
        """Record a (vector) instruction over ``num_elements`` elements."""
        self.op_counts[op] += num_elements
        self.flops += OP_FLOPS[op] * num_elements
        self.mem_load_bytes += OP_MEM_LOADS[op] * num_elements * F32_BYTES
        self.mem_store_bytes += OP_MEM_STORES[op] * num_elements * F32_BYTES
        self.fabric_load_bytes += OP_FABRIC_LOADS[op] * num_elements * F32_BYTES
        self.compute_cycles += cycles

    def record_fabric_send(self, nbytes: int) -> None:
        self.fabric_store_bytes += nbytes

    def record_fabric_receive(self, nbytes: int) -> None:
        self.fabric_load_bytes += nbytes

    @property
    def mem_bytes(self) -> int:
        return self.mem_load_bytes + self.mem_store_bytes

    @property
    def fabric_bytes(self) -> int:
        return self.fabric_load_bytes + self.fabric_store_bytes

    def to_dict(self) -> dict:
        """A stable, JSON-able summary (plain ints, op names as keys).

        This — not the live counter object — is what backend telemetry
        carries, so ``ResultStore`` records, bench JSON and pickled
        process-pool results stay serializable and small.
        """
        return {
            "op_counts": {op.value: int(n) for op, n in sorted(
                self.op_counts.items(), key=lambda item: item[0].value
            )},
            "flops": int(self.flops),
            "mem_load_bytes": int(self.mem_load_bytes),
            "mem_store_bytes": int(self.mem_store_bytes),
            "mem_bytes": int(self.mem_bytes),
            "fabric_load_bytes": int(self.fabric_load_bytes),
            "fabric_store_bytes": int(self.fabric_store_bytes),
            "fabric_bytes": int(self.fabric_bytes),
            "compute_cycles": int(self.compute_cycles),
            "idle_cycles": int(self.idle_cycles),
        }

    def add_scaled(self, other: "PerfCounters", n: int = 1) -> None:
        """Add ``n`` times ``other``'s counts into these, in place."""
        _add_scaled(self, other, n)

    def merged_with(self, other: "PerfCounters") -> "PerfCounters":
        merged = PerfCounters()
        merged.add_scaled(self)
        merged.add_scaled(other)
        return merged


@dataclass
class FabricTrace:
    """Fabric-wide aggregates filled in by the runtime.

    Attributes
    ----------
    makespan_cycles:
        Global finish time of the last event (wall clock of the run).
    total_messages / total_wavelets:
        Message and 32-bit-packet counts that crossed any link.
    total_hop_wavelets:
        Wavelets × hops (link occupancy; feeds fabric-bandwidth checks).
    comm_busy_cycles:
        Sum over links of busy cycles (serialization pressure).
    max_compute_cycles:
        Largest per-PE compute_cycles (the critical compute path).
    """

    makespan_cycles: int = 0
    total_messages: int = 0
    total_wavelets: int = 0
    total_hop_wavelets: int = 0
    comm_busy_cycles: int = 0
    max_compute_cycles: int = 0

    def add_scaled(self, other: "FabricTrace", n: int = 1) -> None:
        """Add ``n`` times ``other``'s totals into these, in place."""
        _add_scaled(self, other, n)

    @property
    def comm_exposed_cycles(self) -> int:
        """Communication time not hidden behind compute (Table IV's
        'data movement' bucket at simulator scale)."""
        return max(0, self.makespan_cycles - self.max_compute_cycles)

    def to_dict(self) -> dict:
        """A stable, JSON-able summary (see :meth:`PerfCounters.to_dict`)."""
        return {
            "makespan_cycles": int(self.makespan_cycles),
            "total_messages": int(self.total_messages),
            "total_wavelets": int(self.total_wavelets),
            "total_hop_wavelets": int(self.total_hop_wavelets),
            "comm_busy_cycles": int(self.comm_busy_cycles),
            "max_compute_cycles": int(self.max_compute_cycles),
            "comm_exposed_cycles": int(self.comm_exposed_cycles),
        }


def _add_scaled(into, other, n: int) -> None:
    """``into.f += n · other.f`` for every field ``f``; a counter adds
    key by key, and a key ``other`` counts zero times gets no entry."""
    mine = vars(into)
    for name, theirs in vars(other).items():
        if isinstance(theirs, Counter):
            counts = mine[name]
            for key, count in theirs.items():
                if count:
                    counts[key] += count * n
        else:
            mine[name] += theirs * n
