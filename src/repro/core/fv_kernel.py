"""Per-PE matrix-free FV kernel: Algorithm 2 over one Z column.

Once the four halo columns have arrived, each PE evaluates

    (Jx)_K = Σ_{L ∈ adj(K)} c_KL (x_K − x_L)   (interior)
    (Jx)_K = x_K                               (K ∈ T_D)

for its entire column in a handful of DSD vector instructions (§III-E.3):
the four lateral terms stream ``x − halo_d`` differences, the two vertical
terms use shifted sub-descriptors of the local column (Z neighbours live
in the same PE, §III-B), and Dirichlet rows are blended in with a final
masked update.

Two kernel variants:

* ``precomputed`` (default): each PE stores the six per-cell products
  ``c = Υ λ`` and sums ``c·(x − x_nbr)``; the host reference operator
  multiplies ``x`` by the float32-rounded face sum
  (``FluxCoefficients.diagonal``), so the two agree only to that rounding;
* ``fused_mobility``: each PE stores transmissibilities and *mobility
  columns* separately and evaluates ``Υ · ½(λ_K + λ_L)`` in-kernel — the
  multiphase-ready path with higher arithmetic intensity (the paper's
  fluid mobility is "computed as the arithmetic average" in the flux,
  Eq. 4).

Buffer-reuse mode (§III-E.1): when enabled, the kernel uses the (already
consumed) halo buffers as scratch for the vertical differences and the
Dirichlet blend, eliminating a dedicated scratch column.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Counter as CounterT

from collections import Counter

from repro.util.errors import ConfigurationError
from repro.wse.dsd import Dsd
from repro.wse.isa import Op
from repro.wse.pe import ProcessingElement
from repro.wse.router import Port

#: Coefficient buffer per lateral port plus the vertical pair.
COEFF_BUFFER = {
    Port.WEST: "c_W",
    Port.EAST: "c_E",
    Port.NORTH: "c_N",
    Port.SOUTH: "c_S",
}
COEFF_DOWN = "c_D"
COEFF_UP = "c_U"

#: Transmissibility / mobility buffers for the fused variant.
UPSILON_BUFFER = {
    Port.WEST: "ups_W",
    Port.EAST: "ups_E",
    Port.NORTH: "ups_N",
    Port.SOUTH: "ups_S",
}
UPSILON_DOWN = "ups_D"
UPSILON_UP = "ups_U"
MOBILITY_BUFFER = {
    Port.WEST: "lam_W",
    Port.EAST: "lam_E",
    Port.NORTH: "lam_N",
    Port.SOUTH: "lam_S",
}
MOBILITY_OWN = "lam"

#: Per-PE accumulation column ``a = φ c_t V / Δt`` (transient programs;
#: zero on Dirichlet rows, staged by the host like the coefficients).
ACCUMULATION_BUFFER = "acc"

HALO_ORDER = (Port.WEST, Port.EAST, Port.NORTH, Port.SOUTH)


class DirichletKind(enum.Enum):
    """How much of a PE's column is Dirichlet-constrained.

    Wells constrain whole columns and most PEs none at all; storing a mask
    column only for genuinely mixed columns is part of the PE-memory
    frugality the paper's §III-E.1 demands.
    """

    NONE = "none"
    FULL = "full"
    PARTIAL = "partial"


class KernelVariant(enum.Enum):
    PRECOMPUTED = "precomputed"
    FUSED_MOBILITY = "fused_mobility"


@dataclass(frozen=True)
class PeKernelConfig:
    """Static kernel configuration for one PE.

    ``accumulation`` selects the transient kernel: one extra FMA against
    the staged accumulation column after the flux terms (the
    backward-Euler diagonal; zero on Dirichlet rows, so the Dirichlet
    blend stays untouched).
    """

    depth: int
    dirichlet: DirichletKind = DirichletKind.NONE
    variant: KernelVariant = KernelVariant.PRECOMPUTED
    reuse_buffers: bool = True
    accumulation: bool = False

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ConfigurationError("kernel depth must be >= 1")


class FvColumnKernel:
    """Executes the column kernel on PEs (one shared instance per fabric).

    The kernel reads ``x_buffer`` (the exchanged column) and the halo
    buffers, and writes ``out_buffer``.  It must run inside a PE task
    (typically as the continuation of the halo-exchange completion — the
    "event-driven fashion" of §III-B).
    """

    def __init__(
        self,
        *,
        x_buffer: str = "p",
        out_buffer: str = "Jx",
        scratch_buffer: str = "scratch",
    ):
        self.x_buffer = x_buffer
        self.out_buffer = out_buffer
        self.scratch_buffer = scratch_buffer

    # -- execution ------------------------------------------------------------

    def run(self, pe: ProcessingElement, config: PeKernelConfig,
            *, x_buffer: str | None = None) -> None:
        """Compute the PE's ``(Jx)`` column (inside a running task)."""
        if not pe.in_task:
            raise ConfigurationError("kernel must run inside a PE task")
        nz = config.depth
        x = Dsd(pe.memory.get(x_buffer or self.x_buffer))
        out = Dsd(pe.memory.get(self.out_buffer))

        if config.variant is KernelVariant.PRECOMPUTED:
            self._lateral_precomputed(pe, x, out, nz)
        else:
            self._lateral_fused(pe, x, out, nz, config)

        self._vertical(pe, x, out, nz, config)
        if config.accumulation:
            # Transient term: out += a ⊙ x (a is zero on Dirichlet rows,
            # so the blend below still sees pure flux + identity rows).
            acc = Dsd(pe.memory.get(ACCUMULATION_BUFFER))
            pe.fmacs(out, acc, x)
        self._dirichlet(pe, x, out, nz, config)

    def _lateral_precomputed(
        self, pe: ProcessingElement, x: Dsd, out: Dsd, nz: int
    ) -> None:
        from repro.core.exchange import HALO_BUFFER

        for i, port in enumerate(HALO_ORDER):
            halo = Dsd(pe.memory.get(HALO_BUFFER[port]))
            coeff = Dsd(pe.memory.get(COEFF_BUFFER[port]))
            # The halo column is dead after this direction: reuse it for
            # the difference (Table-stakes §III-E.1 reuse; always safe).
            pe.fsubs(halo, x, halo)
            if i == 0:
                # First term initializes the accumulator (no zero-fill
                # pass needed — Alg. 2 line 3 folded into line 5).
                pe.fmuls(out, coeff, halo)
            else:
                pe.fmacs(out, coeff, halo)

    def _lateral_fused(
        self,
        pe: ProcessingElement,
        x: Dsd,
        out: Dsd,
        nz: int,
        config: PeKernelConfig,
    ) -> None:
        from repro.core.exchange import HALO_BUFFER

        lam = Dsd(pe.memory.get(MOBILITY_OWN))
        # The halo buffers are all still live here, so the fused variant
        # needs its own scratch for the coefficient (reuse of a dead halo
        # is only legal from the vertical phase onward).
        scratch = Dsd(pe.memory.get("lam_scratch"))
        for i, port in enumerate(HALO_ORDER):
            halo = Dsd(pe.memory.get(HALO_BUFFER[port]))
            ups = Dsd(pe.memory.get(UPSILON_BUFFER[port]))
            lam_nbr = Dsd(pe.memory.get(MOBILITY_BUFFER[port]))
            # c = Υ · ½(λ_K + λ_L), evaluated in-kernel (Eq. 4).
            pe.fadds(scratch, lam, lam_nbr)
            pe.fmuls(scratch, scratch, 0.5)
            pe.fmuls(scratch, scratch, ups)
            pe.fsubs(halo, x, halo)
            pe.fmuls(halo, halo, scratch)
            if i == 0:
                pe.fmovs(out, halo)
            else:
                pe.fadds(out, out, halo)

    def _vertical(
        self,
        pe: ProcessingElement,
        x: Dsd,
        out: Dsd,
        nz: int,
        config: PeKernelConfig,
    ) -> None:
        if nz < 2:
            return
        scratch = self._scratch(pe, config)
        n = nz - 1
        # UP neighbours: cell z couples to z+1 for z in [0, nz-2].
        pe.fsubs(scratch.sub(0, n), x.sub(0, n), x.sub(1, n))
        if config.variant is KernelVariant.PRECOMPUTED:
            c_up = Dsd(pe.memory.get(COEFF_UP))
            pe.fmacs(out.sub(0, n), c_up.sub(0, n), scratch.sub(0, n))
        else:
            self._fused_vertical_accumulate(pe, x, out, scratch, n, up=True)
        # DOWN neighbours: cell z couples to z-1 for z in [1, nz-1].
        pe.fsubs(scratch.sub(1, n), x.sub(1, n), x.sub(0, n))
        if config.variant is KernelVariant.PRECOMPUTED:
            c_down = Dsd(pe.memory.get(COEFF_DOWN))
            pe.fmacs(out.sub(1, n), c_down.sub(1, n), scratch.sub(1, n))
        else:
            self._fused_vertical_accumulate(pe, x, out, scratch, n, up=False)

    def _fused_vertical_accumulate(
        self,
        pe: ProcessingElement,
        x: Dsd,
        out: Dsd,
        diff: Dsd,
        n: int,
        *,
        up: bool,
    ) -> None:
        """Fused-variant vertical term: λ average of the shifted local
        mobility column times Υ, applied to the precomputed difference."""
        lam = Dsd(pe.memory.get(MOBILITY_OWN))
        lam2_name = "lam_scratch"
        lam2 = Dsd(pe.memory.get(lam2_name))
        if up:
            lo, hi, ups_name = 0, 1, UPSILON_UP
        else:
            lo, hi, ups_name = 1, 0, UPSILON_DOWN
        ups = Dsd(pe.memory.get(ups_name))
        # ½(λ_z + λ_z±1) on the coupled range.
        pe.fadds(lam2.sub(lo, n), lam.sub(lo, n), lam.sub(hi, n))
        pe.fmuls(lam2.sub(lo, n), lam2.sub(lo, n), 0.5)
        pe.fmuls(lam2.sub(lo, n), lam2.sub(lo, n), ups.sub(lo, n))
        pe.fmacs(out.sub(lo, n), lam2.sub(lo, n), diff.sub(lo, n))

    def _dirichlet(
        self,
        pe: ProcessingElement,
        x: Dsd,
        out: Dsd,
        nz: int,
        config: PeKernelConfig,
    ) -> None:
        if config.dirichlet is DirichletKind.NONE:
            return
        if config.dirichlet is DirichletKind.FULL:
            # The whole column is constrained (a well): (Jx) = x.
            pe.fmovs(out, x)
            return
        # Mixed column: blend via the mask, out += mask ⊙ (x − out).
        mask = Dsd(pe.memory.get("bc_mask"))
        scratch = self._scratch(pe, config)
        pe.fsubs(scratch, x, out)
        pe.fmacs(out, mask, scratch)

    def _scratch(self, pe: ProcessingElement, config: PeKernelConfig) -> Dsd:
        """Scratch column: a dead halo buffer when reuse is on, a dedicated
        allocation otherwise (the §III-E.1 ablation knob)."""
        from repro.core.exchange import HALO_BUFFER

        if config.reuse_buffers:
            return Dsd(pe.memory.get(HALO_BUFFER[Port.WEST]))
        return Dsd(pe.memory.get(self.scratch_buffer))

    # -- analytic op counts (for trace cross-checks) ------------------------------

    @staticmethod
    def instruction_plan(config: PeKernelConfig) -> list[tuple[Op, int]]:
        """The exact DSD instruction sequence of one column apply.

        One ``(op, element_count)`` pair per issued vector instruction, in
        program order — the ground truth both engines share: the event
        engine's trace must execute exactly this sequence (pinned by
        tests via :meth:`expected_op_counts`), and the vectorized engine
        charges its analytic cycle/counter model from it.
        """
        nz = config.depth
        n = nz - 1
        plan: list[tuple[Op, int]] = []
        if config.variant is KernelVariant.PRECOMPUTED:
            for i in range(4):  # lateral directions in HALO_ORDER
                plan.append((Op.FSUB, nz))  # diff = x - halo
                plan.append((Op.FMUL if i == 0 else Op.FMA, nz))
            if nz >= 2:
                for _ in ("up", "down"):
                    plan.append((Op.FSUB, n))
                    plan.append((Op.FMA, n))
        else:
            for i in range(4):
                plan.append((Op.FADD, nz))  # λ_K + λ_L
                plan.append((Op.FMUL, nz))  # · 0.5
                plan.append((Op.FMUL, nz))  # · Υ
                plan.append((Op.FSUB, nz))  # diff = x - halo
                plan.append((Op.FMUL, nz))  # c ⊙ diff
                plan.append((Op.FMOV if i == 0 else Op.FADD, nz))
            if nz >= 2:
                for _ in ("up", "down"):
                    plan.append((Op.FSUB, n))  # shifted diff
                    plan.append((Op.FADD, n))  # λ_z + λ_z±1
                    plan.append((Op.FMUL, n))  # · 0.5
                    plan.append((Op.FMUL, n))  # · Υ
                    plan.append((Op.FMA, n))
        if config.accumulation:
            plan.append((Op.FMA, nz))  # out += a ⊙ x
        if config.dirichlet is DirichletKind.FULL:
            plan.append((Op.FMOV, nz))
        elif config.dirichlet is DirichletKind.PARTIAL:
            plan.append((Op.FSUB, nz))
            plan.append((Op.FMA, nz))
        return plan

    @staticmethod
    def expected_op_counts(config: PeKernelConfig) -> CounterT:
        """Instruction elements the kernel executes for one column.

        Used by tests to pin the simulator's trace to the kernel
        definition, and by `repro.perf.opcount` to document our kernel's
        mix next to the paper's Table V.
        """
        counts: CounterT = Counter()
        for op, num_elements in FvColumnKernel.instruction_plan(config):
            counts[op] += num_elements
        return counts

    @staticmethod
    def expected_cycles(config: PeKernelConfig, simd_width: int) -> int:
        """Cycles one PE spends in a single column apply (ISA cost model)."""
        from repro.wse.isa import vector_cycles

        return sum(
            vector_cycles(num_elements, simd_width)
            for _, num_elements in FvColumnKernel.instruction_plan(config)
        )
