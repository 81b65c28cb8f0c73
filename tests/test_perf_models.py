"""Tests for the performance models: Table V, CS-2 timing, rooflines,
throughput and the PE memory model."""

import dataclasses

import pytest

from repro.core.fv_kernel import DirichletKind, KernelVariant
from repro.perf.memmodel import PeMemoryModel, reuse_depth_gain
from repro.perf.opcount import (
    PAPER_TABLE5,
    counts_to_flops,
    paper_arithmetic_intensities,
    paper_fabric_loads_per_cell,
    paper_flops_per_cell,
    paper_instruction_elements_per_cell,
    paper_mem_ops_per_cell,
    simulator_kernel_counts,
)
from repro.perf.roofline import (
    RooflineCeiling,
    build_a100_roofline,
    build_cs2_roofline,
)
from repro.perf.throughput import achieved_flops, gigacells_per_second, speedup
from repro.perf.timemodel import Cs2TimeModel
from repro.util.errors import ConfigurationError
from repro.wse.specs import WSE2


class TestTable5:
    def test_headline_totals(self):
        """The paper's totals: 96 FLOPs, 268 memory ops, 8 fabric loads."""
        assert paper_flops_per_cell() == 96
        assert paper_flops_per_cell("Alg. 2") == 84
        assert paper_flops_per_cell("Rest of Alg. 1") == 12
        assert paper_mem_ops_per_cell() == 268
        assert paper_fabric_loads_per_cell() == 8

    def test_per_neighbor_is_14_flops(self):
        """6 neighbours x 14 FLOPs = 84 (the §V-D accounting)."""
        assert paper_flops_per_cell("Alg. 2") // 6 == 14

    def test_arithmetic_intensities_match_fig6(self):
        ai_mem, ai_fabric = paper_arithmetic_intensities()
        assert ai_mem == pytest.approx(0.0895, abs=5e-4)
        assert ai_fabric == 3.0

    def test_row_integrity(self):
        for row in PAPER_TABLE5:
            assert row.count > 0
            assert row.flop >= 0
            assert row.total_flops == row.count * row.flop

    def test_instruction_elements(self):
        # 36+24+6+6+6+4 (Alg2) + 2+5+4 (rest) = 93.
        assert paper_instruction_elements_per_cell() == 93

    def test_simulator_counts_positive_and_leaner(self):
        counts = simulator_kernel_counts(16)
        flops_per_cell = counts_to_flops(counts) / 16
        assert 0 < flops_per_cell < 96
        fused = simulator_kernel_counts(16, variant="fused_mobility")
        assert counts_to_flops(fused) > counts_to_flops(counts)


class TestCs2TimeModel:
    @pytest.fixture(scope="class")
    def model(self):
        return Cs2TimeModel.calibrated()

    def test_reproduces_alg2_time(self, model):
        assert model.total_time_alg2(922, 225) == pytest.approx(0.0122, rel=1e-6)

    def test_alg2_independent_of_fabric_size(self, model):
        """Perfect weak scaling: Alg. 2 time has no (W, H) dependence."""
        t = model.iteration_time_alg2(922)
        assert model.iteration_time_alg1(10, 10, 922) - t == pytest.approx(
            model.iteration_time_collectives(10, 10)
        )

    @pytest.mark.parametrize(
        "nx,ny,steps,paper",
        [
            (200, 200, 226, 0.0251),
            (400, 400, 225, 0.0337),
            (600, 600, 225, 0.0423),
            (750, 600, 225, 0.0456),
            (750, 800, 225, 0.0500),
            (750, 950, 225, 0.0532),
            (750, 994, 225, 0.0542),
        ],
    )
    def test_reproduces_all_table3_rows(self, model, nx, ny, steps, paper):
        t = model.total_time_alg1(nx, ny, 922, steps)
        assert t == pytest.approx(paper, rel=0.012)

    def test_reproduces_table4_split(self, model):
        dist = model.time_distribution(750, 994, 922, 225)
        assert dist["data_movement_s"] == pytest.approx(0.0034, rel=0.01)
        assert dist["data_movement_pct"] == pytest.approx(6.27, abs=0.2)
        assert dist["computation_pct"] == pytest.approx(93.73, abs=0.2)

    def test_collective_time_monotone_in_extent(self, model):
        times = [model.iteration_time_collectives(w, w) for w in (100, 400, 900)]
        assert times[0] < times[1] < times[2]

    def test_issue_factor_physical(self, model):
        """Between 1 (no dual issue) and 2 (perfect dual issue)."""
        assert 1.0 < model.issue_factor < 2.0

    def test_comm_model_guard(self):
        bad = Cs2TimeModel(comm_wire_factor=1e9)
        with pytest.raises(ConfigurationError, match="exceeds"):
            bad.time_distribution(750, 994, 922, 225)


class TestRoofline:
    def test_ceiling_bound(self):
        ceiling = RooflineCeiling("mem", 100.0, 1000.0)
        assert ceiling.bound_at(1.0) == 100.0
        assert ceiling.bound_at(20.0) == 1000.0
        with pytest.raises(ConfigurationError):
            ceiling.bound_at(0.0)

    def test_compute_roof(self):
        roof = RooflineCeiling("compute", None, 500.0)
        assert roof.bound_at(0.001) == 500.0

    def test_cs2_chart_headlines(self):
        chart = build_cs2_roofline()
        assert len(chart.points) == 2  # memory + fabric dots
        for pt in chart.points:
            assert pt.is_compute_bound
            assert pt.fraction_of_peak == pytest.approx(0.6818, abs=0.005)
            assert pt.achieved_flops == pytest.approx(1.217e15, rel=0.005)

    def test_cs2_ceilings_are_fig6_numbers(self):
        chart = build_cs2_roofline()
        mem, fabric = chart.ceilings
        assert mem.bandwidth_bytes == pytest.approx(20e15)
        assert fabric.bandwidth_bytes == pytest.approx(3.3e15)
        assert mem.peak_flops == pytest.approx(1.785e15)

    def test_a100_chart_memory_bound(self):
        chart = build_a100_roofline()
        pt = chart.points[0]
        assert not pt.is_compute_bound
        assert 0 < pt.fraction_of_attainable < 1
        assert pt.intensity_flops_per_byte < 10  # left of the ridge

    def test_a100_ceilings_ordering(self):
        chart = build_a100_roofline()
        hbm, l2, l1 = chart.ceilings
        assert l1.bandwidth_bytes > l2.bandwidth_bytes > hbm.bandwidth_bytes


class TestThroughput:
    def test_gigacells_anchor(self):
        """687,351,000 cells x 225 iters / 0.0122 s = 12,676 Gcell/s."""
        thr = gigacells_per_second(687_351_000, 225, 0.0122)
        assert thr == pytest.approx(12688.55, rel=0.005)

    def test_achieved_flops_anchor(self):
        """The 1.217 PFLOP/s headline from 96 FLOPs/cell over the kernel
        iteration time."""
        perf = achieved_flops(687_351_000, 0.0122 / 225)
        assert perf == pytest.approx(1.217e15, rel=0.005)

    def test_speedups_table2(self):
        assert speedup(23.1879, 0.0542) == pytest.approx(427.82, abs=0.5)
        assert speedup(11.3861, 0.0542) == pytest.approx(210.08, abs=0.5)

    def test_validation(self):
        from repro.util.errors import ValidationError

        with pytest.raises(ValidationError):
            gigacells_per_second(10, 1, 0.0)


class TestPeMemoryModel:
    def test_column_counts(self):
        assert PeMemoryModel().num_columns() == 15
        assert PeMemoryModel(reuse_buffers=False).num_columns() == 16
        assert PeMemoryModel(dirichlet=DirichletKind.PARTIAL).num_columns() == 16
        assert PeMemoryModel(variant=KernelVariant.FUSED_MOBILITY).num_columns() == 21

    def test_max_depth_order_of_paper(self):
        """Our 15-column layout fits ~814-deep columns in 48 KiB — same
        order as the paper's 922 (which implies <= 13 columns)."""
        depth = PeMemoryModel().max_depth()
        assert 700 < depth < 922

    def test_fits_and_bytes(self):
        model = PeMemoryModel()
        assert model.fits(model.max_depth())
        assert not model.fits(model.max_depth() + 1)
        with pytest.raises(ConfigurationError):
            model.bytes_for_depth(0)

    def test_reuse_gain(self):
        with_reuse, without = reuse_depth_gain()
        assert with_reuse > without

    def test_report_keys(self):
        report = PeMemoryModel().report(100)
        assert set(report) == {
            "columns", "bytes", "capacity", "utilization_pct", "max_depth"
        }
        assert report["utilization_pct"] < 100

    def test_scaled_spec(self):
        tiny = PeMemoryModel(spec=dataclasses.replace(WSE2, pe_memory_bytes=1024))
        assert tiny.max_depth() < PeMemoryModel().max_depth()
