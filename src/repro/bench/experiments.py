"""Experiment definitions for every table, figure and ablation.

Paper-scale numbers come from the calibrated analytic models
(`repro.perf`, `repro.gpu.timing`); simulator-scale numbers come from
actually running the fabric/GPU models on small grids.  Every function
returns plain rows ready for `repro.util.formatting.format_table`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.driver import solve
from repro.gpu.timing import GpuTimingModel
from repro.scenarios import scenario
from repro.session import Session
from repro.spec import SolveSpec
from repro.perf.memmodel import PeMemoryModel
from repro.perf.opcount import (
    PAPER_TABLE5,
    counts_to_flops,
    paper_flops_per_cell,
    simulator_kernel_counts,
)
from repro.perf.roofline import RooflineChart, build_a100_roofline, build_cs2_roofline
from repro.perf.throughput import gigacells_per_second, speedup
from repro.perf.timemodel import Cs2TimeModel
from repro.wse.specs import WSE2

#: The paper's full-fabric mesh and iteration count.
PAPER_GRID = (750, 994, 922)
PAPER_ITERS = 225

#: Table III grid sweep: (nx, ny, steps, paper alg2 CS-2 s, paper alg2
#: A100 s, paper alg1 CS-2 s, paper alg1 A100 s, paper Gcell/s alg2,
#: paper Gcell/s alg1).
TABLE3_PAPER = (
    (200, 200, 226, 0.0122, 1.3979, 0.0251, 2.8021, 680.43, 330.79),
    (400, 400, 225, 0.0122, 2.7743, 0.0337, 5.6343, 2721.57, 982.72),
    (600, 600, 225, 0.0122, 5.2882, 0.0423, 11.8380, 6122.27, 1764.34),
    (750, 600, 225, 0.0122, 7.1703, 0.0456, 16.3473, 7653.38, 2044.08),
    (750, 800, 225, 0.0122, 9.1577, 0.0500, 20.9367, 10204.11, 2487.70),
    (750, 950, 225, 0.0122, 9.2548, 0.0532, 22.9128, 12115.52, 2776.97),
    (750, 994, 225, 0.0122, 9.5507, 0.0542, 23.1879, 12688.55, 2855.48),
)

#: Table II paper values.
TABLE2_PAPER = {
    "Dataflow/CSL": (0.0542, 0.000014),
    "A100/CUDA": (23.1879, 0.123267),
    "H100/CUDA": (11.3861, 0.222566),
}


# -- Table II: kernel time measurements --------------------------------------------


def table2_rows() -> list[list[Any]]:
    """Arch | paper time | model time | paper speedup | model speedup."""
    cs2 = Cs2TimeModel.calibrated()
    a100 = GpuTimingModel.calibrated_a100()
    h100 = GpuTimingModel.calibrated_h100()
    t_cs2 = cs2.total_time_alg1(PAPER_GRID[0], PAPER_GRID[1], PAPER_GRID[2], PAPER_ITERS)
    t_a100 = a100.total_time_alg1(PAPER_GRID, PAPER_ITERS)
    t_h100 = h100.total_time_alg1(PAPER_GRID, PAPER_ITERS)
    rows = []
    for name, t_model in (
        ("Dataflow/CSL", t_cs2),
        ("A100/CUDA", t_a100),
        ("H100/CUDA", t_h100),
    ):
        t_paper = TABLE2_PAPER[name][0]
        rows.append(
            [
                name,
                round(t_paper, 4),
                round(t_model, 4),
                f"{TABLE2_PAPER['A100/CUDA'][0] / t_paper:.2f}x",
                f"{t_a100 / t_model:.2f}x",
            ]
        )
    return rows


# -- Table III: weak scaling ---------------------------------------------------------


def table3_rows() -> list[list[Any]]:
    """One row per grid: model vs paper for all four time columns plus
    the CS-2 throughput columns."""
    cs2 = Cs2TimeModel.calibrated()
    a100 = GpuTimingModel.calibrated_a100()
    rows = []
    for nx, ny, steps, p_cs2_a2, p_a100_a2, p_cs2_a1, p_a100_a1, p_thr2, p_thr1 in TABLE3_PAPER:
        shape = (nx, ny, 922)
        cells = nx * ny * 922
        m_cs2_a2 = cs2.total_time_alg2(922, steps)
        m_cs2_a1 = cs2.total_time_alg1(nx, ny, 922, steps)
        m_a100_a2 = a100.total_time_alg2(shape, steps)
        m_a100_a1 = a100.total_time_alg1(shape, steps)
        rows.append(
            [
                f"{nx}x{ny}x922",
                cells,
                steps,
                round(p_cs2_a2, 4),
                round(m_cs2_a2, 4),
                round(p_a100_a2, 4),
                round(m_a100_a2, 4),
                round(p_cs2_a1, 4),
                round(m_cs2_a1, 4),
                round(p_a100_a1, 4),
                round(m_a100_a1, 4),
                round(gigacells_per_second(cells, steps, m_cs2_a2), 1),
                round(gigacells_per_second(cells, steps, m_cs2_a1), 1),
            ]
        )
    return rows


# -- Table IV: time distribution -------------------------------------------------------


def table4_rows() -> list[list[Any]]:
    cs2 = Cs2TimeModel.calibrated()
    dist = cs2.time_distribution(PAPER_GRID[0], PAPER_GRID[1], PAPER_GRID[2], PAPER_ITERS)
    return [
        ["Data Movement", 0.0034, round(dist["data_movement_s"], 4),
         6.27, round(dist["data_movement_pct"], 2)],
        ["Computation", 0.0508, round(dist["computation_min_s"], 4),
         93.73, round(dist["computation_pct"], 2)],
        ["Total", 0.0542, round(dist["total_s"], 4), 100.0, 100.0],
    ]


def table4_simulator_rows(nx: int = 6, ny: int = 6, nz: int = 8,
                          iterations: int = 10) -> list[list[Any]]:
    """The same methodology executed on the small-scale simulator: one run
    with arithmetic suppressed (comm time) vs. the full run.

    Both runs share one plan entry target, so the session's memoized
    assembly builds the problem exactly once."""
    sc = scenario("quarter_five_spot", nx=nx, ny=ny, nz=nz)
    full_spec = SolveSpec.from_kwargs(
        spec=WSE2.with_fabric(32, 32), dtype=np.float32, engine="event",
        fixed_iterations=iterations,
    )
    comm_spec = full_spec.with_options(comm_only=True)
    plan = Session().plan([(sc, full_spec), (sc, comm_spec)], backend="wse")
    full, comm = (er.result for er in plan.run(executor="serial"))
    total = full.telemetry["trace"]["makespan_cycles"]
    movement = comm.telemetry["trace"]["makespan_cycles"]
    return [
        ["Data Movement (sim)", movement, round(100.0 * movement / total, 2)],
        ["Computation (sim)", total - movement, round(100.0 * (total - movement) / total, 2)],
        ["Total (sim)", total, 100.0],
    ]


# -- Table V: instruction counts ----------------------------------------------------------


def table5_rows() -> list[list[Any]]:
    """Paper's per-cell instruction rows, verbatim, plus totals."""
    rows = []
    for row in PAPER_TABLE5:
        rows.append(
            [
                row.area,
                row.op.name,
                row.count,
                row.flop,
                f"{row.mem_loads} loads, {row.mem_stores} store",
                f"{row.fabric_loads} load" if row.fabric_loads else "0",
            ]
        )
    return rows


def table5_simulator_rows(depth: int = 8) -> list[list[Any]]:
    """Our simulator kernel's mix per cell (normalized by column depth)."""
    counts = simulator_kernel_counts(depth)
    rows = []
    for op, count in sorted(counts.items(), key=lambda kv: kv[0].name):
        rows.append([op.name, round(count / depth, 2)])
    rows.append(["FLOPs/cell (simulator)", round(counts_to_flops(counts) / depth, 2)])
    rows.append(["FLOPs/cell (paper)", paper_flops_per_cell()])
    return rows


# -- Fig. 5: pressure propagation ------------------------------------------------------------


def fig5_field(
    nx: int = 24, ny: int = 24, nz: int = 4, *, backend: str = "reference"
) -> np.ndarray:
    """The converged pressure field of the quarter-five-spot scenario
    (injector top-left, producer bottom-right), depth-averaged to the 2D
    plane the paper plots."""
    problem = scenario("quarter_five_spot", nx=nx, ny=ny, nz=nz).build()
    spec = SolveSpec()
    if backend == "wse":
        spec = SolveSpec.from_kwargs(
            spec=WSE2.with_fabric(max(nx, 1), max(ny, 1)),
            dtype=np.float64, rel_tol=1e-8, max_iters=5000,
        )
    elif backend == "gpu":
        spec = SolveSpec.from_kwargs(dtype=np.float64, rel_tol=1e-8)
    result = solve(problem, backend=backend, spec=spec)
    return np.asarray(result.pressure, dtype=np.float64).mean(axis=2).T  # (ny, nx), row 0 at top


# -- Fig. 6: rooflines ---------------------------------------------------------------------


def fig6_charts() -> tuple[RooflineChart, RooflineChart]:
    return build_cs2_roofline(), build_a100_roofline()


def fig6_rows() -> list[list[Any]]:
    cs2, a100 = fig6_charts()
    rows = []
    for pt in cs2.points:
        rows.append(
            [
                "CS-2",
                pt.label,
                round(pt.intensity_flops_per_byte, 4),
                f"{pt.achieved_flops / 1e15:.3f} PFLOP/s",
                f"{100 * pt.fraction_of_peak:.2f}%",
                "compute" if pt.is_compute_bound else "memory",
            ]
        )
    for pt in a100.points:
        rows.append(
            [
                "A100",
                pt.label,
                round(pt.intensity_flops_per_byte, 4),
                f"{pt.achieved_flops / 1e12:.3f} TFLOP/s",
                f"{100 * pt.fraction_of_attainable:.2f}% of bound",
                "compute" if pt.is_compute_bound else "memory",
            ]
        )
    return rows


# -- Ablations (measured on the simulator) ---------------------------------------------------


def _small_problem(nx=5, ny=5, nz=6):
    return scenario("quarter_five_spot", nx=nx, ny=ny, nz=nz).build()


def ablation_simd(iterations: int = 6) -> list[list[Any]]:
    """§III-E.3: DSD vectorization on/off (SIMD width 2 vs 1)."""
    base = SolveSpec.from_kwargs(
        spec=WSE2.with_fabric(32, 32), dtype=np.float32, engine="event",
        fixed_iterations=iterations,
    )
    problem = _small_problem()
    rows = []
    results = {}
    for width in (1, 2):
        report = solve(
            problem, backend="wse", spec=base.with_options(simd_width=width)
        )
        results[width] = report
        rows.append(
            [f"SIMD width {width}", report.telemetry["counters"]["compute_cycles"],
             report.telemetry["trace"]["makespan_cycles"]]
        )
    ratio = (
        results[1].telemetry["counters"]["compute_cycles"]
        / results[2].telemetry["counters"]["compute_cycles"]
    )
    rows.append(["compute-cycle ratio (1 vs 2)", f"{ratio:.2f}x", "ideal 2.00x"])
    return rows


def ablation_buffer_reuse(iterations: int = 4) -> list[list[Any]]:
    """§III-E.1: memory footprint and max depth with/without reuse."""
    base = SolveSpec.from_kwargs(
        spec=WSE2.with_fabric(32, 32), dtype=np.float32, engine="event",
        fixed_iterations=iterations,
    )
    problem = _small_problem()
    rows = []
    for reuse in (True, False):
        report = solve(
            problem, backend="wse", spec=base.with_options(reuse_buffers=reuse)
        )
        model = PeMemoryModel(reuse_buffers=reuse)
        rows.append(
            [
                f"reuse={'on' if reuse else 'off'}",
                int(report.telemetry["memory"]["max_high_water"]),
                model.num_columns(),
                model.max_depth(),
            ]
        )
    return rows


def ablation_comm_overlap(iterations: int = 6) -> list[list[Any]]:
    """§III-E.2: how much communication the event-driven overlap hides.

    Measured as full-run makespan vs. the sum of the comm-only makespan
    and the aggregate compute-critical-path cycles.
    """
    full_spec = SolveSpec.from_kwargs(
        spec=WSE2.with_fabric(32, 32), dtype=np.float32, engine="event",
        fixed_iterations=iterations,
    )
    problem = _small_problem(6, 6, 8)
    full = solve(problem, backend="wse", spec=full_spec)
    comm = solve(problem, backend="wse", spec=full_spec.with_options(comm_only=True))
    full_trace = full.telemetry["trace"]
    comm_trace = comm.telemetry["trace"]
    compute_critical = full_trace["max_compute_cycles"]
    unoverlapped = comm_trace["makespan_cycles"] + compute_critical
    hidden = max(0, unoverlapped - full_trace["makespan_cycles"])
    return [
        ["full run makespan", full_trace["makespan_cycles"]],
        ["comm-only makespan", comm_trace["makespan_cycles"]],
        ["compute critical path", compute_critical],
        ["serial (no overlap) estimate", unoverlapped],
        ["cycles hidden by overlap", hidden],
    ]


def ablation_matrix_free_memory(nx=12, ny=12, nz=8) -> list[list[Any]]:
    """Matrix-free vs. assembled-matrix storage (the approach's raison
    d'être: "reduce the memory requirements by removing the need to store
    the full Jacobian matrix")."""
    from repro.fv.assembly import assemble_jacobian, assembled_matrix_bytes

    problem = _small_problem(nx, ny, nz)
    J = assemble_jacobian(problem.coefficients, problem.dirichlet, dtype=np.float32)
    csr = assembled_matrix_bytes(J)
    c = problem.coefficients
    mf = c.cx.nbytes + c.cy.nbytes + c.cz.nbytes + c.diagonal.nbytes
    return [
        ["assembled CSR Jacobian", csr],
        ["matrix-free coefficients", mf],
        ["ratio", f"{csr / mf:.2f}x"],
    ]


def ablation_jacobi(rel_tol: float = 1e-8) -> list[list[Any]]:
    """The Jacobi-scaling extension: iteration counts on a badly scaled
    (strongly heterogeneous) problem, with communication held identical
    (diagonal scaling is purely PE-local)."""
    from repro.mesh.geomodel import lognormal_permeability
    from repro.mesh.grid import CartesianGrid3D

    grid = CartesianGrid3D(6, 5, 3)
    perm = lognormal_permeability(grid, seed=21, sigma_log=2.5)
    problem = scenario(
        "quarter_five_spot", nx=6, ny=5, nz=3, permeability=perm
    ).build()
    base = SolveSpec.from_kwargs(
        spec=WSE2.with_fabric(32, 32), dtype=np.float64, engine="event",
        rel_tol=rel_tol, max_iters=5000,
    )
    rows = []
    for jacobi in (False, True):
        report = solve(
            problem, backend="wse",
            spec=base.with_options(preconditioner="jacobi" if jacobi else "none"),
        )
        rows.append(
            [
                "jacobi" if jacobi else "plain CG",
                report.iterations,
                report.converged,
                report.telemetry["trace"]["total_messages"],
            ]
        )
    return rows


def ablation_kernel_variant(iterations: int = 4) -> list[list[Any]]:
    """Precomputed c = Υλ vs. in-kernel mobility fusion: flops and
    memory footprint trade."""
    base = SolveSpec.from_kwargs(
        spec=WSE2.with_fabric(32, 32), dtype=np.float32, engine="event",
        fixed_iterations=iterations,
    )
    problem = _small_problem()
    rows = []
    for variant in ("precomputed", "fused_mobility"):
        report = solve(
            problem, backend="wse", spec=base.with_options(variant=variant)
        )
        rows.append(
            [
                variant,
                report.telemetry["counters"]["flops"],
                int(report.telemetry["memory"]["max_high_water"]),
                report.telemetry["trace"]["makespan_cycles"],
            ]
        )
    return rows
