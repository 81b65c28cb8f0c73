"""Dataflow-architecture (wafer-scale engine) simulator.

A functional + cycle-approximate model of the machine the paper targets:

* a 2D Cartesian fabric of processing elements (PEs), each with a private
  48 KiB memory arena and an event-driven task system keyed by *colors*;
* per-PE routers with five full-duplex links (RAMP + N/E/S/W), color-routed
  32-bit wavelets, programmable switch positions with ring mode (Listing 1
  / Fig. 4 of the paper);
* DSD (data structure descriptor) vector operations with a 2-wide fp32
  SIMD cost model (§III-E.3) and full instruction/traffic counters;
* a discrete-event runtime that advances a global cycle clock, models link
  serialization and hop latency, and reports compute/communication time.

Fidelity statement: the simulator is *functionally exact* (it computes the
same numbers the algorithm specifies) and *cycle-approximate* (instruction
and transfer costs follow a documented cost model, not RTL).  All paper-
scale timing claims are produced by `repro.perf.timemodel`, which this
simulator cross-validates at small scale.

Every fabric engine shares this machine model (see `repro.core.engines`):
the event-driven oracle is built from `fabric`/`pe`/`router`; the array
layouts run the same program as NumPy sweeps
(`repro.core.cg_driver` over `repro.fused`), and `vector_engine`
(imported lazily — not re-exported here) holds their analytic
cycle/counter model over the same `isa` costs.  Every engine stages
from `repro.core.host`.
"""

from repro.wse.specs import WseSpecs, WSE2
from repro.wse.wavelet import Wavelet, Message
from repro.wse.color import ColorAllocator
from repro.wse.memory import MemoryArena
from repro.wse.isa import Op, OP_FLOPS, OP_MEM_LOADS, OP_MEM_STORES
from repro.wse.trace import PerfCounters, FabricTrace
from repro.wse.router import Port, RouteEntry, RouterProgram, Router
from repro.wse.pe import ProcessingElement
from repro.wse.fabric import Fabric
from repro.wse.dsd import Dsd

__all__ = [
    "WseSpecs",
    "WSE2",
    "Wavelet",
    "Message",
    "ColorAllocator",
    "MemoryArena",
    "Op",
    "OP_FLOPS",
    "OP_MEM_LOADS",
    "OP_MEM_STORES",
    "PerfCounters",
    "FabricTrace",
    "Port",
    "RouteEntry",
    "RouterProgram",
    "Router",
    "ProcessingElement",
    "Fabric",
    "Dsd",
]
