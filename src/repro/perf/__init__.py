"""Performance models: op counts (Table V), CS-2 time model, rooflines.

Everything here is analytic and deterministic; the WSE simulator
cross-validates the structure at small scale.  ``tests/test_perf_models.py``
and ``tests/test_bench_experiments.py`` pin the model against the
published rows, and ``benchmarks/bench_table*.py`` print the
paper-vs-model tables and assert their own bounds.
"""

from repro.perf.opcount import (
    PAPER_TABLE5,
    Table5Row,
    paper_flops_per_cell,
    paper_mem_ops_per_cell,
    paper_fabric_loads_per_cell,
    paper_arithmetic_intensities,
    simulator_kernel_counts,
)
from repro.perf.timemodel import Cs2TimeModel
from repro.perf.roofline import RooflineCeiling, RooflinePoint, build_cs2_roofline, build_a100_roofline
from repro.perf.throughput import gigacells_per_second, achieved_flops
from repro.perf.memmodel import PeMemoryModel

__all__ = [
    "PAPER_TABLE5",
    "Table5Row",
    "paper_flops_per_cell",
    "paper_mem_ops_per_cell",
    "paper_fabric_loads_per_cell",
    "paper_arithmetic_intensities",
    "simulator_kernel_counts",
    "Cs2TimeModel",
    "RooflineCeiling",
    "RooflinePoint",
    "build_cs2_roofline",
    "build_a100_roofline",
    "gigacells_per_second",
    "achieved_flops",
    "PeMemoryModel",
]
