"""Machine specifications for the simulated wafer-scale engine.

Numbers are taken from the paper (§III intro, §V, Fig. 2 and Fig. 6):
~850k PEs on the wafer, a 750×994 usable fabric for SDK programs, 48 KiB of
local memory per PE, 32-bit fabric packets, two fp32 SIMD units, and the
Fig. 6 roofline ceilings (1.785 PFLOP/s peak, 20 PB/s aggregate memory
bandwidth, 3.3 PB/s aggregate fabric bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive, require


@dataclass(frozen=True)
class WseSpecs:
    """Parameters of a wafer-scale dataflow machine.

    The defaults (see :data:`WSE2`) describe the CS-2 used in the paper.
    Small test fabrics reuse the same spec with a reduced width/height via
    :meth:`with_fabric`.
    """

    name: str
    fabric_width: int
    fabric_height: int
    pe_memory_bytes: int
    clock_hz: float
    simd_width_f32: int
    peak_flops: float
    memory_bandwidth_bytes: float
    fabric_bandwidth_bytes: float
    wavelet_bytes: int = 4
    routable_colors: int = 24
    hop_latency_cycles: int = 1

    def __post_init__(self) -> None:
        require(self.fabric_width >= 1, "fabric_width must be >= 1")
        require(self.fabric_height >= 1, "fabric_height must be >= 1")
        require(self.pe_memory_bytes > 0, "pe_memory_bytes must be > 0")
        require(self.simd_width_f32 >= 1, "simd_width_f32 must be >= 1")
        require(self.routable_colors >= 1, "routable_colors must be >= 1")
        check_positive("clock_hz", self.clock_hz)
        check_positive("peak_flops", self.peak_flops)

    @property
    def num_fabric_pes(self) -> int:
        return self.fabric_width * self.fabric_height

    @property
    def per_pe_peak_flops(self) -> float:
        """Peak fp32 FLOP/s of one PE (SIMD width × clock, FMA = 2 FLOPs)."""
        return self.simd_width_f32 * 2.0 * self.clock_hz

    def with_fabric(self, width: int, height: int) -> "WseSpecs":
        """Same machine, smaller program rectangle (for simulation)."""
        return WseSpecs(
            name=self.name,
            fabric_width=width,
            fabric_height=height,
            pe_memory_bytes=self.pe_memory_bytes,
            clock_hz=self.clock_hz,
            simd_width_f32=self.simd_width_f32,
            peak_flops=self.peak_flops,
            memory_bandwidth_bytes=self.memory_bandwidth_bytes,
            fabric_bandwidth_bytes=self.fabric_bandwidth_bytes,
            wavelet_bytes=self.wavelet_bytes,
            routable_colors=self.routable_colors,
            hop_latency_cycles=self.hop_latency_cycles,
        )


#: The CS-2 / WSE-2 configuration evaluated in the paper.  The clock is
#: derived from the Fig. 6 ceiling: 1.785 PFLOP/s over 745,500 usable PEs
#: with 2-wide fp32 FMA units -> ~600 MHz effective per-PE issue rate.
WSE2 = WseSpecs(
    name="CS-2 (WSE-2)",
    fabric_width=750,
    fabric_height=994,
    pe_memory_bytes=48 * 1024,
    clock_hz=1.785e15 / (750 * 994 * 2 * 2.0),
    simd_width_f32=2,
    peak_flops=1.785e15,
    memory_bandwidth_bytes=20e15,
    fabric_bandwidth_bytes=3.3e15,
)
