"""The analytic charge model of the array engines.

The per-PE program is identical across the fabric (the premise of the
paper's SPMD kernel), so every fabric engine except the event oracle
executes each phase of the :class:`~repro.core.program.CgProgram` over
whole arrays instead of one Python PE per fabric PE and one event per
wavelet — the matrix-free observation (operator evaluation is
structured array sweeps, Kronbichler & Kormann) applied to the machine
simulation itself.  The numerics live in the tiled kernel
(:mod:`repro.fused.kernels`), the CG loop in
:class:`~repro.core.cg_driver.CgDriver`, and the staging and memory
rehearsal every engine shares in :mod:`repro.core.host`; this module
holds what the driver charges:

* **charges** — :class:`_ChargeModel` is an *analytic* cycle/counter
  model over the same :mod:`repro.wse.isa` cost tables the event engine
  uses: instruction counts, FLOPs, memory and fabric traffic reproduce
  the oracle exactly (tested in ``tests/test_engine_parity.py`` and
  fuzzed in ``tests/test_engine_fuzz.py``); the makespan is a per-phase
  critical-path estimate rather than an event-accurate schedule;
* **packets** — :func:`build_init_packet` and
  :func:`build_iteration_packets` play the charge sequence of INIT and
  of one loop iteration once; the driver merges them per lane.

What the model gives up: link-level contention, task skew between
neighbouring PEs, and per-wavelet ordering.  What it buys: fabrics the
event engine cannot reach — the full 750×994 wafer runs in seconds.
"""

from __future__ import annotations

from repro.solvers.state_machine import CGState
from repro.wse.isa import Op, vector_cycles
from repro.wse.specs import WseSpecs
from repro.wse.trace import FabricTrace, PerfCounters


# -- the analytic cycle/counter model -----------------------------------------


class _ChargeModel:
    """Analytic per-problem cycle/counter state over the ISA cost tables.

    One instance accumulates the charges of one problem's solve.  The
    driver also uses throwaway instances as *charge packets*: play a
    phase sequence once on a :meth:`fresh` model, then
    :meth:`merge_scaled` the result into every lane that executed that
    sequence — per-lane charges stay exactly what itemised charging
    would have recorded, at a fraction of the bookkeeping cost.
    """

    def __init__(
        self,
        *,
        width: int,
        height: int,
        depth: int,
        simd_width: int,
        spec: WseSpecs,
        suppress: bool,
        kind_counts: dict,
        kernel_plans: dict,
    ):
        self.width, self.height, self.depth = width, height, depth
        self.num_pes = width * height
        self.simd_width = simd_width
        self.spec = spec
        self.suppress = suppress
        self.kind_counts = kind_counts
        self.kernel_plans = kernel_plans
        self.counters = PerfCounters()
        self.trace = FabricTrace()
        self.makespan = 0
        self.pe_compute = 0  # critical-path compute of the busiest PE class
        self.state_visits: list[CGState] = []

    def fresh(self) -> "_ChargeModel":
        """A zeroed model with the same machine/problem parameters."""
        return _ChargeModel(
            width=self.width, height=self.height, depth=self.depth,
            simd_width=self.simd_width, spec=self.spec, suppress=self.suppress,
            kind_counts=self.kind_counts, kernel_plans=self.kernel_plans,
        )

    # -- charging helpers (identical semantics to the event oracle) ----------

    def counted(self, op: Op) -> bool:
        return not self.suppress or op in (Op.FMOV, Op.MOV32)

    def charge(self, op: Op, elements_per_instr: int, instances: int) -> None:
        """Charge ``instances`` identical vector instructions fabric-wide."""
        if not self.counted(op) or instances <= 0 or elements_per_instr <= 0:
            return
        cycles = vector_cycles(elements_per_instr, self.simd_width)
        self.counters.record_op(op, elements_per_instr * instances, cycles * instances)

    def vec(self, op: Op, elements: int | None = None) -> None:
        """One vector instruction on every PE (critical path: one issue)."""
        n = self.depth if elements is None else elements
        self.charge(op, n, self.num_pes)
        if self.counted(op):
            cycles = vector_cycles(n, self.simd_width)
            self.makespan += cycles
            self.pe_compute += cycles

    def scalar(self, cycles: int) -> None:
        """Scalar/sequencer work on every PE (never suppressed)."""
        self.counters.compute_cycles += cycles * self.num_pes
        self.makespan += cycles
        self.pe_compute += cycles

    def visit(self, state: CGState) -> None:
        """Fabric-wide state transition (2 sequencer cycles per PE)."""
        self.state_visits.append(state)
        self.scalar(2)

    def charge_kernel(self) -> None:
        """One FV apply on every column, charged per Dirichlet class."""
        critical = 0
        for kind, plan in self.kernel_plans.items():
            count = self.kind_counts[kind]
            cycles = 0
            for op, n in plan:
                self.charge(op, n, count)
                if self.counted(op):
                    cycles += vector_cycles(n, self.simd_width)
            critical = max(critical, cycles)
        self.makespan += critical
        self.pe_compute += critical

    def charge_exchange(self) -> None:
        """One 4-step halo-exchange round, fabric-wide.

        Every live directed link carries one data message (``nz``
        wavelets, one hop) plus one switch-advancing control wavelet;
        every live receive moves ``nz`` elements with FMOV."""
        W, H, nz = self.width, self.height, self.depth
        links = 2 * ((W - 1) * H + (H - 1) * W)
        if links:
            self.charge(Op.FMOV, nz, links)
            self.charge(Op.MOV32, 1, links)
            self.counters.record_fabric_send(links * (nz + 1) * 4)
            self.trace.total_messages += 2 * links
            self.trace.total_wavelets += links * (nz + 1)
            self.trace.total_hop_wavelets += links * (nz + 1)
            self.trace.comm_busy_cycles += links * (nz + 1)
        # Critical path: 4 serialized steps of send (link serialization +
        # hop) then receive-fill, plus control/callback slack.
        hop = self.spec.hop_latency_cycles
        fill = vector_cycles(nz, self.simd_width)
        self.makespan += 4 * (nz + hop + fill + 2)
        self.pe_compute += 4 * fill

    def charge_allreduce(self) -> None:
        """Charge one all-reduce round (three-step chain/broadcast
        protocol of §III-C); the reduced value itself is exact and
        computed by the kernel's numerics."""
        W, H = self.width, self.height
        row_sends = (W - 1) * H
        col_sends = H - 1
        bcast_col = 1 if H > 1 else 0
        bcast_row = H if W > 1 else 0
        sends = row_sends + col_sends + bcast_col + bcast_row
        combines = (W - 1) * H + (H - 1)
        self.charge(Op.FADD, 1, combines)
        self.counters.record_fabric_send(4 * sends)
        receives = (
            row_sends
            + col_sends
            + (H - 1 if H > 1 else 0)
            + ((W - 1) * H if W > 1 else 0)
        )
        self.counters.record_fabric_receive(4 * receives)
        self.trace.total_messages += sends
        self.trace.total_wavelets += sends
        hops = (
            row_sends
            + col_sends
            + (H - 1 if H > 1 else 0)
            + (H * (W - 1) if W > 1 else 0)
        )
        self.trace.total_hop_wavelets += hops
        self.trace.comm_busy_cycles += hops
        # Critical path: the sequential row chain, the column chain, and
        # the two broadcast legs (one wavelet + hop + combine per link).
        hop = self.spec.hop_latency_cycles
        self.makespan += (
            (W - 1) * (hop + 2) + (H - 1) * (hop + 2)
            + (H - 1) * (hop + 1) + (W - 1) * (hop + 1) + 2
        )
        if W > 1 or H > 1:
            self.pe_compute += 1

    # -- packet composition --------------------------------------------------

    def merge_scaled(self, packet: "_ChargeModel", n: int) -> None:
        """Add ``n`` repetitions of a packet's charges in one step.

        Charges are additive, so replaying a per-iteration packet ``n``
        times equals one scaled merge — O(1) bookkeeping per lane
        instead of O(iterations).  State visits are *not* touched (their
        order is iteration-interleaved; the driver reconstructs the
        sequence explicitly)."""
        if n <= 0:
            return
        self.counters.add_scaled(packet.counters, n)
        self.trace.add_scaled(packet.trace, n)
        self.makespan += packet.makespan * n
        self.pe_compute += packet.pe_compute * n

    def finalize(self) -> None:
        """Close out the run: makespan, critical path, idle accounting."""
        self.trace.makespan_cycles = self.makespan
        self.trace.max_compute_cycles = self.pe_compute
        self.counters.idle_cycles = max(
            0, self.makespan * self.num_pes - self.counters.compute_cycles
        )


# -- charge packets -----------------------------------------------------------


def build_init_packet(
    model: _ChargeModel, jacobi: bool, mg_packet: _ChargeModel | None = None
) -> _ChargeModel:
    """Play the INIT phase's charge sequence once on a fresh model.

    The sequence mirrors the event oracle's INIT state for statement;
    the played model is a reusable *packet* — merge it (via
    ``merge_scaled``) into any charge model with the same Dirichlet
    histogram instead of re-itemising the charges.  ``mg_packet`` (one
    V-cycle of charges, from ``repro.mg.build_mg_packet``) replaces the
    Jacobi FMUL when the program preconditions with multigrid."""
    init = model.fresh()
    init.visit(CGState.INIT)
    init.visit(CGState.EXCHANGE)
    init.charge_exchange()
    init.visit(CGState.COMPUTE_JX)
    init.charge_kernel()
    init.vec(Op.FSUB)  # r = b - Jx
    if jacobi:
        init.vec(Op.FMUL)  # z = r / diag
        init.vec(Op.FMOV)  # p = z
    elif mg_packet is not None:
        init.merge_scaled(mg_packet, 1)  # z = V-cycle(r)
        init.vec(Op.FMOV)  # p = z
    else:
        init.vec(Op.FMOV)  # p = r
    init.vec(Op.FMA)  # local dot
    init.visit(CGState.DOT_RR)
    init.charge_allreduce()
    return init


def build_iteration_packets(
    model: _ChargeModel, jacobi: bool, mg_packet: _ChargeModel | None = None
) -> tuple[_ChargeModel, _ChargeModel, _ChargeModel]:
    """Play the loop's three charge segments once on fresh models.

    Returns ``(check, body, direction)`` packets whose sequences mirror
    the event oracle's loop states statement for statement — the charge
    vocabulary of :class:`~repro.core.cg_driver.CgDriver`, so every
    layout's counters/traffic/makespan agree exactly by construction."""
    check = model.fresh()
    check.visit(CGState.ITER_CHECK)

    body = model.fresh()
    body.visit(CGState.EXCHANGE)
    body.charge_exchange()
    body.visit(CGState.COMPUTE_JX)
    body.charge_kernel()
    body.vec(Op.FMA)  # local p^T Jp
    body.visit(CGState.DOT_PAP)
    body.charge_allreduce()
    body.visit(CGState.COMPUTE_ALPHA)
    body.scalar(4)  # scalar divide on the CE
    body.visit(CGState.UPDATE_SOL)
    body.vec(Op.FMA)  # y += alpha p
    body.visit(CGState.UPDATE_RES)
    body.vec(Op.FMA)  # r -= alpha Jp
    if jacobi:
        body.vec(Op.FMUL)
    elif mg_packet is not None:
        body.merge_scaled(mg_packet, 1)  # z = V-cycle(r)
    body.vec(Op.FMA)
    body.visit(CGState.DOT_RR)
    body.charge_allreduce()
    body.visit(CGState.THRES_CHECK)

    direction = model.fresh()
    direction.visit(CGState.COMPUTE_BETA)
    direction.scalar(4)
    direction.visit(CGState.UPDATE_DIR)
    direction.vec(Op.FMUL)  # p *= beta
    direction.vec(Op.FADD)  # p += r (or z)
    return check, body, direction


__all__ = [
    "build_init_packet",
    "build_iteration_packets",
]
