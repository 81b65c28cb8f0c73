"""Host-side staging: lay a system out once, load every PE from it.

Mirrors the SDK ``memcpy`` flow the paper uses (§V-A): the host loads all
data onto the device before the kernel runs and reads the solution back
after; none of this counts towards kernel time (and none of it charges PE
cycle counters here).  Every fabric engine stages from this module:

* **staging** — :func:`_stage_problem` is the only place a system's
  fabric data is built: ``(nx, ny, nz)`` field arrays plus the per-PE
  column classification (:class:`_Staging`).  The array layouts read
  their tiles as windows of these arrays; the event oracle copies each
  PE's column of them into its PE (:func:`stage_problem`).  All of it
  is per system (once per Δt in a simulation) except the per-solve
  ``y`` and ``b``, which :func:`stage_vectors` writes, and an engine's
  ``restage`` re-writes;
* **inventory** — :func:`pe_columns` lists the column buffers one PE
  allocates, in order.  The oracle allocates from it, and
  :func:`_rehearse_bytes` replays it against a real
  :class:`~repro.wse.memory.MemoryArena`, so every layout raises
  :class:`~repro.util.errors.PeOutOfMemory` and reports per-PE memory
  exactly like the oracle (:func:`_memory_report`).
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
from repro.core.mapping import DIRECTION_FOR_PORT, ProblemMapping
from repro.core.program import CgProgram
from repro.fv.transmissibility import compute_transmissibility
from repro.mesh.grid import Direction
from repro.physics.darcy import SinglePhaseProblem
from repro.solvers.preconditioning import Preconditioner
from repro.util.errors import ConfigurationError
from repro.wse.fabric import Fabric
from repro.wse.memory import SCALAR_RESERVE_BYTES, MemoryArena
from repro.wse.router import Port
from repro.wse.specs import WseSpecs

#: Column buffers of the CG program (see `cg_dataflow`).
CG_COLUMN_BUFFERS = ("y", "p", "r", "b", "Jx")


def pe_columns(
    variant: KernelVariant,
    reuse_buffers: bool,
    jacobi: bool,
    mg: bool,
    accumulation: bool,
    partial: bool,
) -> tuple[str, ...]:
    """The column buffers one PE allocates after its four halos, in
    allocation order: the CG vectors, ``scratch`` without buffer reuse,
    ``z`` with a preconditioner (only Jacobi adds a PE-local
    ``inv_diag``; the mg V-cycle is a host-assisted program construct),
    ``acc`` for a transient program, the variant's coefficient columns,
    and ``bc_mask`` on a partial-Dirichlet column."""
    names = list(CG_COLUMN_BUFFERS)
    if not reuse_buffers:
        names.append("scratch")
    if jacobi or mg:
        names.append("z")
    if jacobi:
        names.append("inv_diag")
    if accumulation:
        names.append(ACCUMULATION_BUFFER)
    if variant is KernelVariant.PRECOMPUTED:
        names += [*COEFF_BUFFER.values(), COEFF_DOWN, COEFF_UP]
    else:
        # Lateral neighbour mobility columns are constant in time: staged
        # once, no per-iteration exchange needed.
        names += [
            *UPSILON_BUFFER.values(), UPSILON_DOWN, UPSILON_UP,
            MOBILITY_OWN, "lam_scratch", *MOBILITY_BUFFER.values(),
        ]
    if partial:
        names.append("bc_mask")
    return tuple(names)


def _shifted(field: np.ndarray, port: Port) -> np.ndarray:
    """The neighbour column every PE would receive on ``port``.

    ``out[x, y, :] = field[x + dx, y + dy, :]`` with zeros where the
    neighbour is off-fabric — exactly the halo buffer contents after an
    exchange round (edge halos stay zero; the boundary coefficient is
    zero anyway)."""
    dx, dy = port.offset
    nx, ny = field.shape[:2]
    padded = np.pad(field, ((1, 1), (1, 1), (0, 0)))
    return padded[1 + dx:1 + dx + nx, 1 + dy:1 + dy + ny].copy()


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
    partial columns still runs the (no-op) blend.  :meth:`host_columns`
    names the array each PE buffer is loaded from; ``pe_configs`` is
    the kernel configuration of each column class, the oracle's PEs'
    and the charge model's ``kernel_plans``' alike."""

    __slots__ = (
        "y", "b", "z", "inv_diag", "acc",
        "coeff", "coeff_down", "coeff_up",
        "ups", "ups_down", "ups_up", "lam", "lam_nbr",
        "full_cols", "partial_cols", "blend_mask", "has_partial",
        "kind_counts", "pe_configs", "kernel_plans", "mg_hier",
    )

    def host_columns(self) -> dict[str, np.ndarray]:
        """The staged array each PE buffer with host data is loaded
        from, by buffer name (``inv_diag``/``acc`` are ``None`` when the
        program has none)."""
        columns = {
            "y": self.y, "b": self.b, "inv_diag": self.inv_diag,
            ACCUMULATION_BUFFER: self.acc, "bc_mask": self.blend_mask,
        }
        if self.coeff is not None:
            columns.update({COEFF_BUFFER[p]: a for p, a in self.coeff.items()})
            columns[COEFF_DOWN], columns[COEFF_UP] = self.coeff_down, self.coeff_up
        else:
            columns.update({UPSILON_BUFFER[p]: a for p, a in self.ups.items()})
            columns.update({MOBILITY_BUFFER[p]: a for p, a in self.lam_nbr.items()})
            columns[UPSILON_DOWN], columns[UPSILON_UP] = self.ups_down, self.ups_up
            columns[MOBILITY_OWN] = self.lam
        return columns


def _classify_columns(problem: SinglePhaseProblem) -> tuple:
    """Column histogram over DirichletKind + the full/partial masks."""
    mask = problem.dirichlet.mask
    col_all = mask.all(axis=2)
    partial_cols = mask.any(axis=2) & ~col_all
    full = int(np.count_nonzero(col_all))
    partial = int(np.count_nonzero(partial_cols))
    kind_counts = {
        DirichletKind.FULL: full,
        DirichletKind.PARTIAL: partial,
        DirichletKind.NONE: col_all.size - full - partial,
    }
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
    """Stage one problem's field arrays, once, for every engine.

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
    st.y, st.b = np.empty(grid.shape, dtype), np.empty(grid.shape, dtype)
    stage_vectors(st, problem, initial_pressure, accumulation, rhs)
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
        # Jacobi scaling is purely PE-local: each PE stores 1/diag(J+A)
        # for its own column.
        st.inv_diag = (1.0 / precondition.diagonal).astype(dtype)
    # The V-cycle hierarchy is a host-side construct in the working dtype
    # (like resolved tolerances); only the z column lives on the fabric.
    st.mg_hier = precondition.hierarchy

    st.full_cols, st.partial_cols, st.kind_counts = _classify_columns(problem)
    st.blend_mask = np.where(
        st.partial_cols[:, :, None], problem.dirichlet.mask, False
    ).astype(dtype)
    st.has_partial = st.kind_counts[DirichletKind.PARTIAL] > 0
    st.pe_configs = {
        kind: PeKernelConfig(
            depth=grid.nz, dirichlet=kind, variant=program.variant,
            reuse_buffers=program.reuse_buffers, accumulation=program.accumulation,
        )
        for kind in DirichletKind
    }
    st.kernel_plans = {
        kind: FvColumnKernel.instruction_plan(st.pe_configs[kind])
        for kind, count in st.kind_counts.items()
        if count > 0
    }
    return st


def stage_vectors(
    st: _Staging, problem: SinglePhaseProblem, initial_pressure=None,
    accumulation=None, rhs=None,
) -> None:
    """Write ``problem.system_vectors`` into ``st.y`` and ``st.b`` in
    place: a kernel's ``b`` is a view of ``st.b``."""
    y, b = problem.system_vectors(
        st.y.dtype, initial_pressure=initial_pressure, accumulation=accumulation,
        rhs=rhs,
    )
    np.copyto(st.y, y)
    np.copyto(st.b, b)


def stage_problem(
    fabric: Fabric, st: _Staging, program: CgProgram
) -> dict[tuple[int, int], PeKernelConfig]:
    """Load a staging onto the event fabric; returns per-PE kernel configs.

    Every PE allocates the buffers :func:`pe_columns` lists for its
    column class and copies in its own column of each staged array;
    buffers without host data (``p``, ``r``, ``Jx``, ``scratch``, ``z``,
    ``lam_scratch``) stay zero.  The memory arena enforces the 48 KiB
    budget as a side effect: problems too deep for the per-PE memory
    raise :class:`PeOutOfMemory` here, just as an oversized CSL program
    would fail to fit.
    """
    nx, ny, nz = st.y.shape
    if (nx, ny) != (fabric.width, fabric.height):
        raise ConfigurationError(
            f"fabric {fabric.width}x{fabric.height} does not match grid "
            f"lateral size {nx}x{ny}"
        )
    host = st.host_columns()
    inventory = {
        partial: pe_columns(
            program.variant, program.reuse_buffers, program.jacobi,
            program.mg, program.accumulation, partial,
        )
        for partial in (False, True)
    }
    configs: dict[tuple[int, int], PeKernelConfig] = {}
    for pe in fabric.iter_pes():
        x, y = pe.x, pe.y
        if st.full_cols[x, y]:
            kind = DirichletKind.FULL
        elif st.partial_cols[x, y]:
            kind = DirichletKind.PARTIAL
        else:
            kind = DirichletKind.NONE
        for name in inventory[kind is DirichletKind.PARTIAL]:
            pe.memory.alloc(name, nz, dtype=fabric.dtype)
            data = host.get(name)
            if data is not None:
                pe.host_write(name, data[x, y])
        configs[(x, y)] = st.pe_configs[kind]
    return configs


def gather_field(fabric: Fabric, mapping: ProblemMapping, name: str) -> np.ndarray:
    """Read a column buffer back from every PE into a full 3D field."""
    out = np.zeros(mapping.grid.shape, dtype=fabric.dtype)
    for pe in fabric.iter_pes():
        out[pe.x, pe.y, :] = pe.host_read(name)
    return out


# -- memory model -------------------------------------------------------------


def fabric_memory_report(fabric: Fabric) -> dict[str, float]:
    """Aggregate PE memory statistics (bytes)."""
    highs = [pe.memory.high_water_bytes for pe in fabric.iter_pes()]
    used = [pe.memory.used_bytes for pe in fabric.iter_pes()]
    return {
        "max_high_water": float(max(highs)),
        "mean_high_water": float(np.mean(highs)),
        "max_used": float(max(used)),
        "capacity": float(fabric.spec.pe_memory_bytes),
    }


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
    """Replay one PE's allocations: its four halos, then
    :func:`pe_columns`.

    One rehearsal per column class (with/without ``bc_mask``) against a
    real :class:`MemoryArena` reproduces both the capacity enforcement
    (:class:`PeOutOfMemory` at construction, like an oversized CSL
    program) and the high-water statistics exactly.  Cached by exactly
    the arguments that determine the layout (not the whole program —
    per-problem resolved tolerances must not defeat the cache), so a
    batch of problems or a sweep of solves pays for at most two
    rehearsals per configuration.
    """
    dtype = np.dtype(dtype_name)
    arena = MemoryArena(pe_memory_bytes, reserved_bytes=SCALAR_RESERVE_BYTES)
    columns = pe_columns(variant, reuse_buffers, jacobi, mg, accumulation, with_mask)
    for name in (*HALO_BUFFER.values(), *columns):  # HaloExchange allocates first
        arena.alloc(name, nz, dtype=dtype)
    return arena.used_bytes


def _memory_report(
    spec: WseSpecs, program: CgProgram, nz: int, dtype: np.dtype, kind_counts: dict
) -> dict[str, float]:
    """Per-PE memory statistics for one problem's staging: one
    rehearsal per column class present."""
    n_partial = kind_counts[DirichletKind.PARTIAL]
    base_bytes, mask_bytes = (
        _rehearse_bytes(
            spec.pe_memory_bytes, program.variant, program.reuse_buffers,
            program.jacobi, program.mg, program.accumulation, nz, dtype.name,
            with_mask,
        )
        for with_mask in (False, n_partial > 0)
    )
    num_pes = sum(kind_counts.values())
    mean = (n_partial * mask_bytes + (num_pes - n_partial) * base_bytes) / num_pes
    high = max(base_bytes, mask_bytes)
    return {
        "max_high_water": float(high),
        "mean_high_water": float(mean),
        "max_used": float(high),
        "capacity": float(spec.pe_memory_bytes),
    }
