"""Tests for the benchmark-harness experiment definitions.

These pin the *reproduction claims*: each table/figure generator must
match the paper's published values within the tolerances asserted here.
The heavyweight simulator-based ablations have their own assertions
inside `benchmarks/`; here we test the pure-model paths.
"""

import numpy as np
import pytest

from repro.bench.experiments import (
    PAPER_GRID,
    PAPER_ITERS,
    TABLE2_PAPER,
    TABLE3_PAPER,
    ablation_comm_overlap,
    ablation_matrix_free_memory,
    fig5_field,
    fig6_charts,
    fig6_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table4_simulator_rows,
    table5_rows,
    table5_simulator_rows,
)
from repro.util.errors import ConfigurationError


class TestTable2:
    def test_three_architectures(self):
        rows = table2_rows()
        assert [r[0] for r in rows] == ["Dataflow/CSL", "A100/CUDA", "H100/CUDA"]

    def test_model_matches_paper_times(self):
        for row in table2_rows():
            paper_t = TABLE2_PAPER[row[0]][0]
            assert row[2] == pytest.approx(paper_t, rel=0.01)

    def test_speedup_ordering(self):
        rows = {r[0]: r for r in table2_rows()}
        t = {k: v[2] for k, v in rows.items()}
        assert t["Dataflow/CSL"] < t["H100/CUDA"] < t["A100/CUDA"]


class TestTable3:
    def test_seven_rows(self):
        assert len(table3_rows()) == 7
        assert len(TABLE3_PAPER) == 7

    def test_paper_constants_self_consistent(self):
        """The stored paper rows must reproduce their own cell counts."""
        for nx, ny, steps, *_ in TABLE3_PAPER:
            assert nx * ny * 922 > 0
            assert steps in (225, 226)

    def test_cs2_columns_within_1p5_percent(self):
        for row, paper in zip(table3_rows(), TABLE3_PAPER):
            assert row[4] == pytest.approx(paper[3], rel=0.015)  # Alg2 CS-2
            assert row[8] == pytest.approx(paper[5], rel=0.015)  # Alg1 CS-2

    def test_a100_columns_within_15_percent(self):
        for row, paper in zip(table3_rows(), TABLE3_PAPER):
            assert row[6] == pytest.approx(paper[4], rel=0.15)  # Alg2 A100
            assert row[10] == pytest.approx(paper[6], rel=0.15)  # Alg1 A100

    def test_throughput_anchor(self):
        last = table3_rows()[-1]
        assert last[11] == pytest.approx(12688.55, rel=0.01)
        assert last[12] == pytest.approx(2855.48, rel=0.01)

    def test_speedup_grows_with_size(self):
        """CS-2 vs A100 gap widens with mesh size (the scaling claim)."""
        rows = table3_rows()
        speedups = [row[10] / row[8] for row in rows]
        assert speedups[-1] > speedups[0]


class TestTable4:
    def test_split_matches_paper(self):
        rows = table4_rows()
        movement, computation, total = rows
        assert movement[2] == pytest.approx(0.0034, abs=2e-4)
        assert movement[4] == pytest.approx(6.27, abs=0.3)
        assert computation[4] == pytest.approx(93.73, abs=0.3)
        assert total[2] == pytest.approx(0.0542, rel=0.01)


class TestSimulatorMethodology:
    """§V-C's comm-only methodology measures the cycle-accurate event
    oracle, whatever the library's default engine is: these cycle
    counts are the oracle's, and any other engine's analytic makespan
    moves them."""

    def test_table4_simulator_cycles_are_the_oracles(self):
        rows = table4_simulator_rows(6, 6, 8, 4)
        assert [row[1] for row in rows] == [742, 434, 1176]

    def test_comm_overlap_cycles_are_the_oracles(self):
        rows = ablation_comm_overlap(4)
        assert [row[1] for row in rows] == [1176, 742, 589, 1331, 155]


class TestTable5:
    def test_paper_rows_verbatim(self):
        rows = table5_rows()
        assert len(rows) == 9
        fmul_row = rows[0]
        assert fmul_row[1] == "FMUL" and fmul_row[2] == 36

    def test_simulator_rows_have_flop_summary(self):
        rows = table5_simulator_rows(depth=8)
        labels = [r[0] for r in rows]
        assert "FLOPs/cell (simulator)" in labels
        assert "FLOPs/cell (paper)" in labels


class TestFig5:
    def test_field_orientation(self):
        field = fig5_field(12, 10, 2)
        assert field.shape == (10, 12)  # (ny, nx), row 0 at top
        assert field[0, 0] == field.max()  # injector top-left
        assert field[-1, -1] == field.min()  # producer bottom-right

    def test_backends_option(self):
        ref = fig5_field(6, 6, 2, backend="reference")
        gpu = fig5_field(6, 6, 2, backend="gpu")
        np.testing.assert_allclose(ref, gpu, atol=1e-5)

    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="available backends"):
            fig5_field(4, 4, 2, backend="abacus")


class TestFig6:
    def test_charts_structure(self):
        cs2, a100 = fig6_charts()
        assert cs2.platform.startswith("CS-2")
        assert len(cs2.points) == 2
        assert len(a100.ceilings) == 3

    def test_rows_renderable(self):
        rows = fig6_rows()
        assert len(rows) == 3
        platforms = {r[0] for r in rows}
        assert platforms == {"CS-2", "A100"}


class TestAblations:
    def test_matrix_free_memory_rows(self):
        rows = ablation_matrix_free_memory(8, 8, 4)
        assert rows[0][1] > rows[1][1]

    def test_paper_grid_constant(self):
        assert PAPER_GRID == (750, 994, 922)
        assert PAPER_ITERS == 225
        assert PAPER_GRID[0] * PAPER_GRID[1] * PAPER_GRID[2] == 687_351_000
