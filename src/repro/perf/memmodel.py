"""PE memory capacity planning (§III-E.1).

Each PE's 48 KiB must hold the CG program's column buffers.  This model
counts columns per configuration and answers the capacity questions the
paper's memory-saving optimizations exist for: the maximum Z depth per
configuration, and how much depth buffer reuse buys.

The columns (fp32, one column = ``nz`` values) are the plain CG
program's: the four halo receive buffers plus the inventory
:func:`repro.core.host.pe_columns` lists, the one the event oracle
allocates and every layout's memory rehearsal replays.

The paper reports fitting Nz = 922; that implies ≤ 13 columns plus code.
Our cleanest configuration needs 15 (we keep ``b`` and the solution
separate); the gap — and the extra tricks the paper's hand-tuned CSL must
be using — is quantified in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.exchange import HALO_BUFFER
from repro.core.fv_kernel import DirichletKind, KernelVariant
from repro.core.host import pe_columns
from repro.util.errors import ConfigurationError
from repro.wse.memory import SCALAR_RESERVE_BYTES
from repro.wse.specs import WSE2, WseSpecs

#: Bytes per fp32 value.
F32 = 4


@dataclass(frozen=True)
class PeMemoryModel:
    """Column accounting for one PE configuration."""

    variant: KernelVariant = KernelVariant.PRECOMPUTED
    reuse_buffers: bool = True
    dirichlet: DirichletKind = DirichletKind.NONE
    spec: WseSpecs = WSE2

    def num_columns(self) -> int:
        """Column buffers required by this configuration."""
        partial = self.dirichlet is DirichletKind.PARTIAL
        return len(HALO_BUFFER) + len(
            pe_columns(self.variant, self.reuse_buffers, False, False, False, partial)
        )

    def bytes_for_depth(self, nz: int) -> int:
        if nz < 1:
            raise ConfigurationError("nz must be >= 1")
        return self.num_columns() * nz * F32 + SCALAR_RESERVE_BYTES

    def fits(self, nz: int) -> bool:
        return self.bytes_for_depth(nz) <= self.spec.pe_memory_bytes

    def max_depth(self) -> int:
        """Largest Z column this configuration can host in PE memory."""
        budget = self.spec.pe_memory_bytes - SCALAR_RESERVE_BYTES
        return budget // (self.num_columns() * F32)

    def utilization(self, nz: int) -> float:
        return self.bytes_for_depth(nz) / self.spec.pe_memory_bytes

    def report(self, nz: int) -> dict[str, float]:
        return {
            "columns": float(self.num_columns()),
            "bytes": float(self.bytes_for_depth(nz)),
            "capacity": float(self.spec.pe_memory_bytes),
            "utilization_pct": 100.0 * self.utilization(nz),
            "max_depth": float(self.max_depth()),
        }


#: The paper's claimed depth at full fabric.
PAPER_DEPTH = 922


def reuse_depth_gain() -> tuple[int, int]:
    """(max depth with reuse, without reuse) for the default variant —
    the §III-E.1 ablation headline."""
    with_reuse = PeMemoryModel(reuse_buffers=True).max_depth()
    without = PeMemoryModel(reuse_buffers=False).max_depth()
    return with_reuse, without
