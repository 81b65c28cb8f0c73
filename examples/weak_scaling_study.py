"""Weak-scaling study: Table III at paper scale plus a live simulator sweep.

Run:  python examples/weak_scaling_study.py

Prints the paper-scale Table III regenerated by the calibrated models
(CS-2 and A100, Alg. 1 and Alg. 2, all seven grids) and then runs a
small-fabric sweep on the event-driven simulator to demonstrate the
*mechanism* behind the shape: per-PE kernel work is constant (flat Alg. 2)
while the all-reduce path length grows with the fabric extent (rising
Alg. 1).
"""

from __future__ import annotations

import numpy as np

import repro
from repro.bench.experiments import table3_rows
from repro.scenarios import weak_scaling_family
from repro.util.formatting import format_table
from repro.wse.specs import WSE2


def paper_scale() -> None:
    headers = [
        "Grid", "Cells", "Steps",
        "Alg2 CS-2 paper", "Alg2 CS-2 model", "Alg2 A100 paper", "Alg2 A100 model",
        "Alg1 CS-2 paper", "Alg1 CS-2 model", "Alg1 A100 paper", "Alg1 A100 model",
        "Thr Alg2 [Gcell/s]", "Thr Alg1 [Gcell/s]",
    ]
    print(format_table(headers, table3_rows(), title="Table III (calibrated models)"))
    print(
        "\nNote: the smallest and largest rows calibrate the models; the five\n"
        "middle rows are predictions (benchmarks/bench_table3_weak_scaling.py\n"
        "bounds their error).\n"
    )


def simulator_scale() -> None:
    nz, iters = 6, 5
    family = weak_scaling_family(laterals=(3, 4, 6, 8, 10), nz=nz)
    # The cycle-accurate event oracle, named explicitly (the default
    # engine's makespan is an analytic estimate).
    spec = repro.SolveSpec.from_kwargs(
        spec=WSE2.with_fabric(32, 32), dtype=np.float32, engine="event",
        fixed_iterations=iters,
    )
    # The whole sweep is one inspectable plan: scenarios in, fan-out over
    # a thread pool, per-entry error capture, input-order results.
    plan = repro.Session().plan(family, spec, backend="wse")
    entry_results = plan.run(executor="thread", n_workers=4)
    reports = [er.result for er in entry_results]
    rows = []
    for sc, report in zip(family, reports):
        lateral = sc.params["lateral"]
        num_pes = lateral * lateral
        trace = report.telemetry["trace"]
        rows.append(
            [
                f"{lateral}x{lateral}x{nz}",
                num_pes,
                round(report.telemetry["counters"]["compute_cycles"] / num_pes, 1),
                trace["makespan_cycles"],
                round(trace["makespan_cycles"] / iters, 1),
            ]
        )
    print(
        format_table(
            ["Grid", "PEs", "Compute cycles / PE", "Makespan [cycles]", "Cycles / iteration"],
            rows,
            title="Simulator weak scaling (fixed column depth, growing fabric)",
        )
    )
    print(
        "\nPer-PE compute stays ~flat while the makespan grows with the\n"
        "fabric extent — the all-reduce chains of Alg. 1 travel farther,\n"
        "exactly the paper's explanation for Table III's rising column."
    )


def vectorized_scale() -> None:
    """The vectorized engine extends the sweep to paper-scale fabrics.

    Same program, same analytic cycle model costs — fabrics the per-PE
    event simulation cannot reach in example time."""
    import time

    nz, iters = 6, 5
    rows = []
    for lateral in (16, 32, 64, 128):
        sc = repro.scenario("weak_scaling", lateral=lateral, nz=nz)
        spec = repro.SolveSpec.from_kwargs(
            spec=WSE2.with_fabric(max(32, lateral), max(32, lateral)),
            dtype="float32", fixed_iterations=iters, engine="vectorized",
        )
        start = time.perf_counter()
        report = repro.solve(sc, backend="wse", spec=spec)
        host = time.perf_counter() - start
        trace = report.telemetry["trace"]
        rows.append(
            [
                f"{lateral}x{lateral}x{nz}",
                lateral * lateral,
                trace["makespan_cycles"],
                round(trace["makespan_cycles"] / iters, 1),
                f"{host:.3f}",
            ]
        )
    print(
        format_table(
            ["Grid", "PEs", "Makespan [cycles]", "Cycles / iteration", "Host [s]"],
            rows,
            title="Vectorized engine: weak scaling to 128x128 PEs "
                  "(MachineSpec(engine='vectorized'))",
        )
    )
    print(
        "\nThe makespan keeps Table III's shape (the all-reduce chain grows\n"
        "with the fabric extent) while host time stays in milliseconds —\n"
        "the whole-fabric NumPy sweeps replace per-PE event simulation."
    )


def main() -> None:
    paper_scale()
    simulator_scale()
    vectorized_scale()


if __name__ == "__main__":
    main()
