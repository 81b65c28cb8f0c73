"""Benchmark harness: experiment definitions shared by `benchmarks/` and
`examples/`.

Each ``table*_rows`` / ``fig*_data`` function regenerates one published
table or figure (model-scale numbers plus the paper's values side by
side); the ``run_*`` helpers execute the small-scale simulator/measured
experiments the ablations need.
"""

from repro.bench.experiments import (
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
    fig5_field,
    fig6_charts,
    ablation_simd,
    ablation_buffer_reuse,
    ablation_comm_overlap,
    ablation_matrix_free_memory,
    ablation_kernel_variant,
    ablation_jacobi,
)
from repro.util.formatting import format_table

__all__ = [
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "fig5_field",
    "fig6_charts",
    "ablation_simd",
    "ablation_buffer_reuse",
    "ablation_comm_overlap",
    "ablation_matrix_free_memory",
    "ablation_kernel_variant",
    "ablation_jacobi",
    "format_table",
]
