"""Host-side staging: allocate PE buffers and memcpy problem data in/out.

Mirrors the SDK ``memcpy`` flow the paper uses (§V-A): the host loads all
data onto the device before the kernel runs and reads the solution back
after; none of this counts towards kernel time (and none of it charges PE
cycle counters here).
"""

from __future__ import annotations

import numpy as np

from repro.core.fv_kernel import (
    ACCUMULATION_BUFFER,
    COEFF_BUFFER,
    COEFF_DOWN,
    COEFF_UP,
    DirichletKind,
    KernelVariant,
    MOBILITY_BUFFER,
    MOBILITY_OWN,
    PeKernelConfig,
    UPSILON_BUFFER,
    UPSILON_DOWN,
    UPSILON_UP,
)
from repro.core.mapping import DIRECTION_FOR_PORT, ProblemMapping
from repro.fv.mobility import compute_face_mobility
from repro.fv.transmissibility import compute_transmissibility
from repro.mesh.grid import Direction
from repro.physics.darcy import SinglePhaseProblem
from repro.solvers.preconditioning import Preconditioner
from repro.util.errors import ConfigurationError
from repro.wse.fabric import Fabric
from repro.wse.router import Port

#: Column buffers of the CG program (see `cg_dataflow`).
CG_COLUMN_BUFFERS = ("y", "p", "r", "b", "Jx")


def dirichlet_kind_for_column(problem: SinglePhaseProblem, x: int, y: int) -> DirichletKind:
    """Classify a PE column against the Dirichlet set."""
    mask_col = problem.dirichlet.mask[x, y, :]
    if not mask_col.any():
        return DirichletKind.NONE
    if mask_col.all():
        return DirichletKind.FULL
    return DirichletKind.PARTIAL


def stage_problem(
    fabric: Fabric,
    problem: SinglePhaseProblem,
    mapping: ProblemMapping,
    *,
    variant: KernelVariant = KernelVariant.PRECOMPUTED,
    reuse_buffers: bool = True,
    initial_pressure: np.ndarray | None = None,
    precondition: Preconditioner = Preconditioner(),
    accumulation: np.ndarray | None = None,
    rhs: np.ndarray | None = None,
) -> dict[tuple[int, int], PeKernelConfig]:
    """Allocate and fill every PE's buffers; returns per-PE kernel configs.

    The memory arena enforces the 48 KiB budget as a side effect: problems
    too deep for the per-PE memory raise :class:`PeOutOfMemory` here, just
    as an oversized CSL program would fail to fit.

    ``accumulation`` stages the transient diagonal ``a = φ c_t V / Δt``
    (zero on Dirichlet rows) into every PE's ``acc`` column; ``rhs``
    overrides the staged right-hand side ``b`` on interior rows (the
    transient ``A p^n`` term — Dirichlet rows always carry ``p^D``
    regardless); ``precondition`` is the system's built ``M`` (default:
    none).
    """
    grid = problem.grid
    if (grid.nx, grid.ny) != (fabric.width, fabric.height):
        raise ConfigurationError(
            f"fabric {fabric.width}x{fabric.height} does not match grid "
            f"lateral size {grid.nx}x{grid.ny}"
        )
    nz = grid.nz
    dtype = fabric.dtype

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

    # Right-hand side of the direct pressure system (J [+ A]) p = b:
    # interior rows carry zero (steady) or the caller-supplied transient
    # term; Dirichlet rows carry p^D.
    b = (
        np.zeros(grid.shape, dtype=dtype)
        if rhs is None
        else np.asarray(rhs, dtype=dtype).copy()
    )
    b[problem.dirichlet.mask] = problem.dirichlet.values[problem.dirichlet.mask]

    coeff_views = {
        port: problem.coefficients.cell_view(DIRECTION_FOR_PORT[port])
        for port in COEFF_BUFFER
    }
    coeff_down = problem.coefficients.cell_view(Direction.DOWN)
    coeff_up = problem.coefficients.cell_view(Direction.UP)

    jacobi = precondition.diagonal is not None
    if jacobi:
        # Jacobi scaling is purely PE-local: each PE stores 1/diag(J+A)
        # for its own column.
        inv_diag = (1.0 / precondition.diagonal).astype(dtype)

    if variant is KernelVariant.FUSED_MOBILITY:
        trans = compute_transmissibility(grid, problem.permeability, dtype=np.float64)
        ups_views = {
            port: trans.cell_view(DIRECTION_FOR_PORT[port], dtype=dtype)
            for port in UPSILON_BUFFER
        }
        ups_down = trans.cell_view(Direction.DOWN, dtype=dtype)
        ups_up = trans.cell_view(Direction.UP, dtype=dtype)
        mobility = np.full(grid.shape, 1.0 / problem.viscosity, dtype=dtype)

    configs: dict[tuple[int, int], PeKernelConfig] = {}
    for pe in fabric.iter_pes():
        x, y = pe.x, pe.y
        for name in CG_COLUMN_BUFFERS:
            pe.memory.alloc(name, nz, dtype=dtype)
        if not reuse_buffers:
            pe.memory.alloc("scratch", nz, dtype=dtype)
        if precondition.name != "none":
            # Both preconditioners hold the preconditioned residual in a
            # ``z`` column; only Jacobi needs a PE-local inverse diagonal
            # (the mg V-cycle is a host-assisted program construct).
            pe.memory.alloc("z", nz, dtype=dtype)
        if jacobi:
            pe.memory.alloc("inv_diag", nz, dtype=dtype)
            pe.host_write("inv_diag", inv_diag[x, y, :])
        if accumulation is not None:
            pe.memory.alloc(ACCUMULATION_BUFFER, nz, dtype=dtype)
            pe.host_write(ACCUMULATION_BUFFER, accumulation[x, y, :])

        if variant is KernelVariant.PRECOMPUTED:
            for port, bufname in COEFF_BUFFER.items():
                pe.memory.alloc(bufname, nz, dtype=dtype)
                pe.host_write(bufname, coeff_views[port][x, y, :])
            pe.memory.alloc(COEFF_DOWN, nz, dtype=dtype)
            pe.memory.alloc(COEFF_UP, nz, dtype=dtype)
            pe.host_write(COEFF_DOWN, coeff_down[x, y, :])
            pe.host_write(COEFF_UP, coeff_up[x, y, :])
        else:
            for port, bufname in UPSILON_BUFFER.items():
                pe.memory.alloc(bufname, nz, dtype=dtype)
                pe.host_write(bufname, ups_views[port][x, y, :])
            pe.memory.alloc(UPSILON_DOWN, nz, dtype=dtype)
            pe.memory.alloc(UPSILON_UP, nz, dtype=dtype)
            pe.host_write(UPSILON_DOWN, ups_down[x, y, :])
            pe.host_write(UPSILON_UP, ups_up[x, y, :])
            pe.memory.alloc(MOBILITY_OWN, nz, dtype=dtype)
            pe.host_write(MOBILITY_OWN, mobility[x, y, :])
            pe.memory.alloc("lam_scratch", nz, dtype=dtype)
            # Lateral neighbour mobility columns (constant in time: staged
            # once, no per-iteration exchange needed).
            for port, bufname in MOBILITY_BUFFER.items():
                pe.memory.alloc(bufname, nz, dtype=dtype)
                n = fabric.neighbor_coords(x, y, port)
                if n is not None:
                    pe.host_write(bufname, mobility[n[0], n[1], :])

        kind = dirichlet_kind_for_column(problem, x, y)
        if kind is DirichletKind.PARTIAL:
            pe.memory.alloc("bc_mask", nz, dtype=dtype)
            pe.host_write("bc_mask", problem.dirichlet.mask[x, y, :].astype(dtype))
        configs[(x, y)] = PeKernelConfig(
            depth=nz, dirichlet=kind, variant=variant,
            reuse_buffers=reuse_buffers, accumulation=accumulation is not None,
        )

        pe.host_write("y", p0[x, y, :])
        pe.host_write("b", b[x, y, :])

    return configs


def gather_field(fabric: Fabric, mapping: ProblemMapping, name: str) -> np.ndarray:
    """Read a column buffer back from every PE into a full 3D field."""
    out = np.zeros(mapping.grid.shape, dtype=fabric.dtype)
    for pe in fabric.iter_pes():
        out[pe.x, pe.y, :] = pe.host_read(name)
    return out


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
