"""Staging, memory rehearsal and the analytic charge model of the
array engines.

The per-PE program is identical across the fabric (the premise of the
paper's SPMD kernel), so every fabric engine except the event oracle
executes each phase of the :class:`~repro.core.program.CgProgram` over
whole arrays instead of one Python PE per fabric PE and one event per
wavelet — the matrix-free observation (operator evaluation is
structured array sweeps, Kronbichler & Kormann) applied to the machine
simulation itself.  The numerics live in the tiled kernel
(:mod:`repro.fused.kernels`) and the CG loop in
:class:`~repro.core.cg_driver.CgDriver`; this module holds what they
share:

* **staging** — :func:`_stage_problem` lays one problem out as
  ``(nx, ny, nz)`` field arrays plus the per-PE column classification;
* **memory** — the event engine's per-PE allocation sequence is
  rehearsed against a real :class:`~repro.wse.memory.MemoryArena`, so
  oversized columns raise :class:`~repro.util.errors.PeOutOfMemory`
  exactly like the oracle;
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

from functools import lru_cache

import numpy as np

from repro.core.exchange import HALO_BUFFER
from repro.core.fv_kernel import (
    ACCUMULATION_BUFFER,
    COEFF_BUFFER,
    COEFF_DOWN,
    COEFF_UP,
    DirichletKind,
    FvColumnKernel,
    KernelVariant,
    MOBILITY_BUFFER,
    MOBILITY_OWN,
    PeKernelConfig,
    UPSILON_BUFFER,
    UPSILON_DOWN,
    UPSILON_UP,
)
from repro.core.host import CG_COLUMN_BUFFERS
from repro.core.mapping import DIRECTION_FOR_PORT
from repro.core.program import CgProgram
from repro.fv.transmissibility import compute_transmissibility
from repro.mesh.grid import Direction
from repro.physics.darcy import SinglePhaseProblem
from repro.solvers.preconditioning import Preconditioner
from repro.solvers.state_machine import CGState
from repro.util.errors import ConfigurationError
from repro.wse.isa import Op, vector_cycles
from repro.wse.memory import MemoryArena
from repro.wse.router import Port
from repro.wse.specs import WseSpecs
from repro.wse.trace import FabricTrace, PerfCounters


def _shifted(field: np.ndarray, port: Port) -> np.ndarray:
    """The neighbour column every PE would receive on ``port``.

    ``out[..., x, y, :] = field[..., x + dx, y + dy, :]`` with zeros
    where the neighbour is off-fabric — exactly the halo buffer contents
    after an exchange round (edge halos stay zero; the boundary
    coefficient is zero anyway)."""
    dx, dy = port.offset
    out = np.zeros_like(field)
    src = [slice(None)] * field.ndim
    dst = [slice(None)] * field.ndim
    for axis, d in ((-3, dx), (-2, dy)):
        if d == -1:
            dst[axis], src[axis] = slice(1, None), slice(None, -1)
        elif d == 1:
            dst[axis], src[axis] = slice(None, -1), slice(1, None)
    out[tuple(dst)] = field[tuple(src)]
    return out


def normalize_guesses(initial_pressure, count: int, shape: tuple) -> list:
    """One initial guess per problem: ``None`` (problem defaults), a
    single shared field, or a per-problem stack/sequence (the multi-RHS
    transient case).  The single owner of this validation — the solver's
    ``solve_batch`` and the batched layouts both route through it."""
    if initial_pressure is None:
        return [None] * count
    if isinstance(initial_pressure, np.ndarray):
        if initial_pressure.shape == shape:
            return [initial_pressure] * count
        if initial_pressure.shape == (count,) + shape:
            return list(initial_pressure)
        raise ConfigurationError(
            f"initial_pressure shape {initial_pressure.shape} matches "
            f"neither the grid {shape} nor the batch {(count,) + shape}"
        )
    guesses = list(initial_pressure)
    if len(guesses) != count:
        raise ConfigurationError(
            f"initial_pressure has {len(guesses)} entries for {count} "
            f"problems"
        )
    return guesses


# -- problem staging ----------------------------------------------------------


class _Staging:
    """Staged ``(nx, ny, nz)`` field arrays + per-PE column classification.

    Built per problem by :func:`_stage_problem`, over the whole grid:
    every layout's kernel reads its tiles as windows of these arrays,
    so ``has_partial`` is the whole grid's flag, and a tile without
    partial columns still runs the (no-op) blend."""

    __slots__ = (
        "y", "b", "z", "inv_diag", "acc",
        "coeff", "coeff_down", "coeff_up",
        "ups", "ups_down", "ups_up", "lam", "lam_nbr",
        "full_cols", "blend_mask", "has_partial",
        "kind_counts", "kernel_plans", "mg_hier",
    )


def _classify_columns(problem: SinglePhaseProblem) -> tuple:
    """Column histogram over DirichletKind + the full/blend masks."""
    mask = problem.dirichlet.mask
    col_any = mask.any(axis=2)
    col_all = mask.all(axis=2)
    partial_cols = col_any & ~col_all
    num_pes = mask.shape[0] * mask.shape[1]
    kind_counts = {
        DirichletKind.FULL: int(np.count_nonzero(col_all)),
        DirichletKind.PARTIAL: int(np.count_nonzero(partial_cols)),
    }
    kind_counts[DirichletKind.NONE] = (
        num_pes - kind_counts[DirichletKind.FULL] - kind_counts[DirichletKind.PARTIAL]
    )
    return col_all, partial_cols, kind_counts


def _stage_problem(
    problem: SinglePhaseProblem,
    program: CgProgram,
    dtype: np.dtype,
    initial_pressure: np.ndarray | None = None,
    accumulation: np.ndarray | None = None,
    rhs: np.ndarray | None = None,
    precondition: Preconditioner | None = None,
) -> _Staging:
    """Stage one problem's field arrays (the whole-fabric analogue of
    ``stage_problem`` on the event fabric).

    ``accumulation`` is the transient diagonal ``a = φ c_t V / Δt``
    (required iff ``program.accumulation``); ``rhs`` overrides the
    interior right-hand side (Dirichlet rows always carry ``p^D``);
    ``precondition`` is the system's built ``M`` (default: the
    program's, built here)."""
    st = _Staging()
    grid = problem.grid
    if program.accumulation != (accumulation is not None):
        raise ConfigurationError(
            "program.accumulation and the staged accumulation array must "
            "be supplied together"
        )
    if accumulation is not None and accumulation.shape != grid.shape:
        raise ConfigurationError(
            f"accumulation shape {accumulation.shape} != grid {grid.shape}"
        )
    if rhs is not None and rhs.shape != grid.shape:
        raise ConfigurationError(f"rhs shape {rhs.shape} != grid {grid.shape}")
    if initial_pressure is None:
        p0 = problem.initial_pressure(dtype=dtype)
    else:
        p0 = np.array(initial_pressure, dtype=dtype, copy=True)
        problem.dirichlet.apply_to(p0)
    st.y = p0
    st.b = (
        np.zeros(grid.shape, dtype=dtype)
        if rhs is None
        else np.asarray(rhs, dtype=dtype).copy()
    )
    st.b[problem.dirichlet.mask] = problem.dirichlet.values[problem.dirichlet.mask]
    st.z = np.zeros(grid.shape, dtype=dtype) if program.uses_z else None
    st.inv_diag = None
    st.acc = None if accumulation is None else accumulation.astype(dtype)
    st.coeff = st.coeff_down = st.coeff_up = None
    st.ups = st.ups_down = st.ups_up = st.lam = st.lam_nbr = None

    if program.variant is KernelVariant.PRECOMPUTED:
        st.coeff = {
            port: problem.coefficients.cell_view(DIRECTION_FOR_PORT[port]).astype(dtype)
            for port in COEFF_BUFFER
        }
        st.coeff_down = problem.coefficients.cell_view(Direction.DOWN).astype(dtype)
        st.coeff_up = problem.coefficients.cell_view(Direction.UP).astype(dtype)
    else:
        trans = compute_transmissibility(grid, problem.permeability, dtype=np.float64)
        st.ups = {
            port: trans.cell_view(DIRECTION_FOR_PORT[port], dtype=dtype)
            for port in UPSILON_BUFFER
        }
        st.ups_down = trans.cell_view(Direction.DOWN, dtype=dtype)
        st.ups_up = trans.cell_view(Direction.UP, dtype=dtype)
        st.lam = np.full(grid.shape, 1.0 / problem.viscosity, dtype=dtype)
        st.lam_nbr = {port: _shifted(st.lam, port) for port in MOBILITY_BUFFER}

    if precondition is None:
        precondition = program.preconditioner_for(problem, accumulation, dtype)
    if program.jacobi:
        st.inv_diag = (1.0 / precondition.diagonal).astype(dtype)
    # The V-cycle hierarchy is a host-side construct in the working dtype
    # (like resolved tolerances); only the z column lives on the fabric.
    st.mg_hier = precondition.hierarchy

    col_all, partial_cols, kind_counts = _classify_columns(problem)
    st.full_cols = col_all
    st.blend_mask = np.where(
        partial_cols[:, :, None], problem.dirichlet.mask, False
    ).astype(dtype)
    st.kind_counts = kind_counts
    st.has_partial = kind_counts[DirichletKind.PARTIAL] > 0
    st.kernel_plans = {
        kind: FvColumnKernel.instruction_plan(
            PeKernelConfig(
                depth=grid.nz,
                dirichlet=kind,
                variant=program.variant,
                reuse_buffers=program.reuse_buffers,
                accumulation=program.accumulation,
            )
        )
        for kind, count in kind_counts.items()
        if count > 0
    }
    return st


# -- memory model -------------------------------------------------------------


@lru_cache(maxsize=128)
def _rehearse_bytes(
    pe_memory_bytes: int,
    variant: KernelVariant,
    reuse_buffers: bool,
    jacobi: bool,
    mg: bool,
    accumulation: bool,
    nz: int,
    dtype_name: str,
    with_mask: bool,
) -> int:
    """Replay the event engine's per-PE allocation sequence.

    One rehearsal per column class (with/without ``bc_mask``) against a
    real :class:`MemoryArena` reproduces both the capacity enforcement
    (:class:`PeOutOfMemory` at construction, like an oversized CSL
    program) and the high-water statistics exactly.  Cached by exactly
    the arguments that determine the layout (not the whole program —
    per-problem resolved tolerances must not defeat the cache), so a
    batch of problems or a sweep of solves pays for at most two
    rehearsals per configuration.
    """
    from repro.perf.memmodel import SCALAR_RESERVE_BYTES

    dtype = np.dtype(dtype_name)
    arena = MemoryArena(pe_memory_bytes, reserved_bytes=SCALAR_RESERVE_BYTES)
    for name in HALO_BUFFER.values():  # HaloExchange allocates first
        arena.alloc(name, nz, dtype=dtype)
    for name in CG_COLUMN_BUFFERS:
        arena.alloc(name, nz, dtype=dtype)
    if not reuse_buffers:
        arena.alloc("scratch", nz, dtype=dtype)
    if jacobi or mg:
        arena.alloc("z", nz, dtype=dtype)
    if jacobi:
        arena.alloc("inv_diag", nz, dtype=dtype)
    if accumulation:
        arena.alloc(ACCUMULATION_BUFFER, nz, dtype=dtype)
    if variant is KernelVariant.PRECOMPUTED:
        for name in COEFF_BUFFER.values():
            arena.alloc(name, nz, dtype=dtype)
        arena.alloc(COEFF_DOWN, nz, dtype=dtype)
        arena.alloc(COEFF_UP, nz, dtype=dtype)
    else:
        for name in UPSILON_BUFFER.values():
            arena.alloc(name, nz, dtype=dtype)
        arena.alloc(UPSILON_DOWN, nz, dtype=dtype)
        arena.alloc(UPSILON_UP, nz, dtype=dtype)
        arena.alloc(MOBILITY_OWN, nz, dtype=dtype)
        arena.alloc("lam_scratch", nz, dtype=dtype)
        for name in MOBILITY_BUFFER.values():
            arena.alloc(name, nz, dtype=dtype)
    if with_mask:
        arena.alloc("bc_mask", nz, dtype=dtype)
    return arena.used_bytes


def _memory_report(
    spec: WseSpecs, program: CgProgram, nz: int, dtype: np.dtype, kind_counts: dict
) -> dict[str, float]:
    """Per-PE memory statistics for one problem's staging."""
    num_pes = sum(kind_counts.values())

    def rehearse(with_mask: bool) -> int:
        return _rehearse_bytes(
            spec.pe_memory_bytes, program.variant, program.reuse_buffers,
            program.jacobi, program.mg, program.accumulation, nz, dtype.name,
            with_mask,
        )

    base_bytes = rehearse(False)
    n_partial = kind_counts[DirichletKind.PARTIAL]
    mask_bytes = rehearse(True) if n_partial else base_bytes
    high = max(base_bytes, mask_bytes) if n_partial else base_bytes
    mean = (n_partial * mask_bytes + (num_pes - n_partial) * base_bytes) / num_pes
    return {
        "max_high_water": float(high),
        "mean_high_water": float(mean),
        "max_used": float(high),
        "capacity": float(spec.pe_memory_bytes),
    }


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
        c, o = self.counters, packet.counters
        for op, count in o.op_counts.items():
            c.op_counts[op] += count * n
        c.flops += o.flops * n
        c.mem_load_bytes += o.mem_load_bytes * n
        c.mem_store_bytes += o.mem_store_bytes * n
        c.fabric_load_bytes += o.fabric_load_bytes * n
        c.fabric_store_bytes += o.fabric_store_bytes * n
        c.compute_cycles += o.compute_cycles * n
        t, ot = self.trace, packet.trace
        t.total_messages += ot.total_messages * n
        t.total_wavelets += ot.total_wavelets * n
        t.total_hop_wavelets += ot.total_hop_wavelets * n
        t.comm_busy_cycles += ot.comm_busy_cycles * n
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
    "normalize_guesses",
]
