"""Table III — weak scaling across seven grid sizes.

Paper-scale rows come from the calibrated models (two rows calibrate, the
five middle rows are predictions); a small-scale sweep on the actual
fabric simulator verifies the *shape*: Alg. 2 per-PE time is flat in the
fabric extent while Alg. 1 grows with W + H (the all-reduce distance).
"""

import numpy as np
from conftest import emit

import repro
from repro.bench.experiments import TABLE3_PAPER, table3_rows
from repro.scenarios import weak_scaling_family
from repro.util.formatting import format_table
from repro.wse.specs import WSE2

HEADERS = [
    "Grid", "Cells", "Steps",
    "Alg2 CS-2 paper", "Alg2 CS-2 model", "Alg2 A100 paper", "Alg2 A100 model",
    "Alg1 CS-2 paper", "Alg1 CS-2 model", "Alg1 A100 paper", "Alg1 A100 model",
    "Thr Alg2 [Gcell/s]", "Thr Alg1 [Gcell/s]",
]


def test_table3_paper_scale(benchmark):
    rows = benchmark(table3_rows)
    emit("table3_weak_scaling", format_table(HEADERS, rows, title="Table III: weak scaling"))

    # CS-2 Alg. 2 is flat (perfect weak scaling).
    alg2 = [row[4] for row in rows]
    assert max(alg2) - min(alg2) < 1e-3
    # CS-2 Alg. 1 grows monotonically with the fabric extent.
    alg1 = [row[8] for row in rows]
    assert all(b >= a for a, b in zip(alg1, alg1[1:]))
    # Model matches every published CS-2 row within 1.5%.
    for row, paper in zip(rows, TABLE3_PAPER):
        assert abs(row[4] - paper[3]) / paper[3] < 0.015  # Alg2 CS-2
        assert abs(row[8] - paper[5]) / paper[5] < 0.015  # Alg1 CS-2
    # A100 model tracks the published rows within 15% (endpoints exact).
    for row, paper in zip(rows, TABLE3_PAPER):
        assert abs(row[10] - paper[6]) / paper[6] < 0.15
    # Throughput anchor: the largest grid reproduces ~12,688 Gcell/s.
    assert abs(rows[-1][11] - 12688.55) / 12688.55 < 0.01


def _simulate_scaling():
    """Small-fabric weak scaling on the event-driven simulator, run
    through a Session plan (serial executor keeps timings comparable)."""
    nz, iters = 6, 4
    laterals = (3, 5, 8)
    family = weak_scaling_family(laterals=laterals, nz=nz)
    spec = repro.SolveSpec.from_kwargs(
        spec=WSE2.with_fabric(32, 32), dtype=np.float32, engine="event",
        fixed_iterations=iters,
    )
    plan = repro.Session().plan(family, spec, backend="wse")
    reports = [er.result for er in plan.run(executor="serial")]
    results = []
    for lateral, report in zip(laterals, reports):
        per_pe_compute = (
            report.telemetry["counters"]["compute_cycles"] / (lateral * lateral)
        )
        results.append(
            (lateral, per_pe_compute, report.telemetry["trace"]["makespan_cycles"])
        )
    return results


def test_table3_simulator_shape(benchmark):
    results = benchmark(_simulate_scaling)
    rows = [
        [f"{lat}x{lat}", round(per_pe, 1), makespan]
        for lat, per_pe, makespan in results
    ]
    emit(
        "table3_simulator_shape",
        format_table(
            ["Fabric", "Compute cycles per PE", "Makespan [cycles]"],
            rows,
            title="Table III shape check (event-driven simulator)",
        ),
    )
    per_pe = [r[1] for r in results]
    makespans = [r[2] for r in results]
    # Per-PE kernel work is ~flat; total time grows with fabric extent.
    assert max(per_pe) / min(per_pe) < 1.20
    assert makespans[0] < makespans[1] < makespans[2]
