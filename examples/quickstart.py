"""Quickstart: one scenario, one `repro.solve` call per machine.

Run:  python examples/quickstart.py

The same quarter-five-spot problem (injector at one corner, producer at
the other — the paper's Fig. 5 scenario) is solved with:

1. the vectorized NumPy reference backend,
2. the wafer-scale dataflow simulator (the paper's contribution),
3. the CUDA-like GPU reference model (the paper's baseline),

all through the unified backend registry, and the three canonical
`SolveResult`s are cross-checked.
"""

import numpy as np

import repro


def main() -> None:
    # A small homogeneous problem: 16x16 lateral cells, 8-deep columns.
    sc = repro.scenario(
        "quarter_five_spot",
        nx=16, ny=16, nz=8, permeability=100.0, viscosity=1.0,
        injection_pressure=1.0, production_pressure=0.0,
    )
    problem = sc.build()
    print(f"scenario: {sc.label()}")
    print(f"grid: {problem.grid}, Dirichlet cells: {problem.dirichlet.num_dirichlet}")
    print(f"backends: {', '.join(repro.available_backends())}\n")

    # 1) Reference backend (NumPy, float64).
    ref = repro.solve(problem, backend="reference")
    print(
        f"reference : {ref.telemetry['newton_iterations']} Newton step(s), "
        f"{ref.iterations} CG iterations, "
        f"pressure in [{ref.pressure.min():.4f}, {ref.pressure.max():.4f}]"
    )

    # 2) The dataflow fabric simulator: one PE per (x, y) column, the
    #    Table-I halo exchange, the whole-fabric all-reduce and the
    #    14-state CG machine.
    tight = repro.SolveSpec.from_kwargs(dtype=np.float64, rel_tol=1e-9, max_iters=3000)
    wse = repro.solve(problem, backend="wse", spec=tight)
    print(
        f"dataflow  : {wse.iterations} CG iterations on a "
        f"{problem.grid.nx}x{problem.grid.ny} PE fabric, "
        f"converged={wse.converged}, "
        f"modeled device time {wse.elapsed_seconds * 1e6:.1f} us, "
        f"{wse.telemetry['counters']['flops']:,} FLOPs executed"
    )
    print(
        f"            max |dataflow - reference| = "
        f"{np.abs(wse.pressure - ref.pressure).max():.3e}"
    )

    # 3) The GPU model: 16x8x8 thread blocks, one thread per cell.
    gpu = repro.solve(
        problem, backend="gpu",
        spec=repro.SolveSpec.from_kwargs(dtype=np.float64, rel_tol=1e-9),
    )
    print(
        f"gpu model : {gpu.iterations} CG iterations, "
        f"{gpu.telemetry['counters']['kernel_launches']} kernel launches, "
        f"{gpu.telemetry['counters']['dram_bytes'] / 1e6:.1f} MB modeled DRAM traffic"
    )
    print(
        f"            max |gpu - reference| = "
        f"{np.abs(gpu.pressure - ref.pressure).max():.3e}"
    )

    print("\nall three backends answered through one repro.solve() signature.")


if __name__ == "__main__":
    main()
