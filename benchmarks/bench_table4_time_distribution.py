"""Table IV — communication vs. computation time split.

Paper scale: the calibrated CS-2 model reproduces the 0.0034 s /
6.27 % data-movement share.  Simulator scale: the same methodology (a run
with all floating-point removed) executes on the fabric; communication
dominates at tiny scale (nz=8 columns can't amortize latency) and shrinks
as columns deepen — the trend that reaches 6 % at nz=922.
"""

from conftest import emit

import numpy as np

import repro
from repro.bench.experiments import table4_rows, table4_simulator_rows
from repro.util.formatting import format_table
from repro.wse.specs import WSE2


def test_table4_paper_scale(benchmark):
    rows = benchmark(table4_rows)
    emit(
        "table4_time_distribution",
        format_table(
            ["Bucket", "Paper [s]", "Model [s]", "Paper %", "Model %"],
            rows,
            title="Table IV: time distribution (750x994x922, 225 steps)",
        ),
    )
    movement = rows[0]
    assert abs(movement[2] - 0.0034) < 2e-4
    assert abs(movement[4] - 6.27) < 0.3
    # Computation dominates by an order of magnitude.
    assert rows[1][4] > 90.0


def test_table4_simulator_methodology(benchmark):
    rows = benchmark(lambda: table4_simulator_rows(nx=6, ny=6, nz=8, iterations=8))
    emit(
        "table4_simulator",
        format_table(
            ["Bucket", "Cycles", "%"],
            rows,
            title="Table IV methodology on the event-driven simulator (6x6x8)",
        ),
    )
    movement_pct = rows[0][2]
    assert 0 < movement_pct < 100
    assert rows[2][1] == rows[0][1] + rows[1][1]


def _comm_share(nz: int) -> float:
    sc = repro.scenario("quarter_five_spot", nx=5, ny=5, nz=nz)
    full_spec = repro.SolveSpec.from_kwargs(
        spec=WSE2.with_fabric(32, 32), dtype=np.float32, engine="event",
        fixed_iterations=5,
    )
    plan = repro.Session().plan(
        [(sc, full_spec), (sc, full_spec.with_options(comm_only=True))],
        backend="wse",
    )
    full, comm = (er.result for er in plan.run(executor="serial"))
    return (
        comm.telemetry["trace"]["makespan_cycles"]
        / full.telemetry["trace"]["makespan_cycles"]
    )


def test_table4_comm_share_shrinks_with_depth(benchmark):
    """Deeper columns amortize exchange latency: the communication share
    must decrease with nz (towards the paper's 6% at nz=922)."""
    shares = benchmark(lambda: [_comm_share(nz) for nz in (2, 8, 24)])
    emit(
        "table4_comm_share_vs_depth",
        format_table(
            ["nz", "comm share"],
            [[nz, f"{100 * s:.1f}%"] for nz, s in zip((2, 8, 24), shares)],
            title="Communication share vs column depth (simulator)",
        ),
    )
    assert shares[0] > shares[-1]
