"""Tests for the CUDA-like GPU model: blocks, kernels, CG, timing."""

import numpy as np
import pytest

import gpu_reference as ref
from helpers import make_problem
import repro
from repro.fv.coefficients import build_flux_coefficients
from repro.fv.operator import apply_jx
from repro.gpu.cg import GpuCGSolver
from repro.gpu.kernels import (
    coefficient_views_for,
    dirichlet_mask_for,
    launch_axpy,
    launch_dot,
    launch_matrix_free_jx,
    launch_xpay,
)
from repro.gpu.model import BlockShape, DEFAULT_BLOCK_SHAPE, GpuCounters, GpuDevice
from repro.gpu.specs import A100, H100
from repro.gpu.timing import (
    GpuTimingModel,
    PAPER_A100_ALG1,
    PAPER_A100_ALG2,
    PAPER_H100_ALG1_TIME,
    cg_iteration_bytes,
    jx_traffic_bytes,
)
from repro.mesh.geomodel import lognormal_permeability
from repro.mesh.grid import CartesianGrid3D
from repro.util.errors import ConfigurationError, ValidationError


class TestDeviceModel:
    def test_block_shape_paper_default(self):
        assert DEFAULT_BLOCK_SHAPE == (16, 8, 8)
        assert DEFAULT_BLOCK_SHAPE.threads == 1024

    def test_block_cap_enforced(self):
        with pytest.raises(ConfigurationError, match="caps blocks"):
            GpuDevice(A100, BlockShape(32, 8, 8))

    def test_blocks_tile_grid_exactly(self):
        blocks = list(ref.iter_blocks((10, 7, 5), (4, 4, 4)))
        cells = sum(b.cells for b in blocks)
        assert cells == 10 * 7 * 5
        # Edge blocks are clipped, never overlapping.
        assert all(b.x1 <= 10 and b.y1 <= 7 and b.z1 <= 5 for b in blocks)
        covered = np.zeros((10, 7, 5), dtype=int)
        for b in blocks:
            covered[b.slices()] += 1
        assert (covered == 1).all()
        # A launch charges exactly those blocks, one thread per cell.
        device = GpuDevice(A100, BlockShape(4, 4, 4))
        launch_axpy(device, 1.0, np.zeros((10, 7, 5)), np.zeros((10, 7, 5)))
        assert device.counters.blocks_executed == len(blocks) == 12
        assert device.counters.threads_executed == cells

    def test_halo_cells_interior_block(self):
        blocks = list(ref.iter_blocks((12, 12, 12), (4, 4, 4)))
        interior = [
            b for b in blocks if b.x0 > 0 and b.y0 > 0 and b.z0 > 0
            and b.x1 < 12 and b.y1 < 12 and b.z1 < 12
        ]
        assert interior
        assert interior[0].halo_cells((12, 12, 12)) == 6 * 16

    def test_device_memory_cap(self):
        device = GpuDevice(A100)
        with pytest.raises(ConfigurationError, match="device memory"):
            device.alloc_like((200_000, 200_000), dtype=np.float32)

    def test_counters_accumulate(self):
        device = GpuDevice(A100, BlockShape(4, 4, 4))
        x, y = np.ones((8, 8, 8)), np.zeros((8, 8, 8))
        launch_axpy(device, 2.0, x, y)
        # 2 FLOPs per cell; two reads and one store of fp32 per cell.
        assert device.counters == GpuCounters(
            kernel_launches=1, threads_executed=512, flops=1024,
            dram_bytes=3 * 512 * 4, blocks_executed=8,
        )
        launch_dot(device, x, y)
        assert device.counters == GpuCounters(
            kernel_launches=2, threads_executed=1024, flops=2048,
            dram_bytes=5 * 512 * 4, blocks_executed=16,
        )


class TestGpuKernels:
    def test_jx_matches_reference_operator(self, rng):
        problem = make_problem(12, 10, 9, seed=3)
        device = GpuDevice(A100)
        # Build float64 coefficients from scratch: the GPU kernel forms the
        # diagonal implicitly (sum of c terms), so the stored fp32-rounded
        # diagonal of the default problem would differ at ~1e-7 relative.
        from repro.fv.coefficients import build_flux_coefficients

        c64 = build_flux_coefficients(
            problem.grid,
            problem.permeability.astype(np.float64),
            viscosity=problem.viscosity,
            dtype=np.float64,
        )
        views = coefficient_views_for(c64)
        mask = dirichlet_mask_for(problem.dirichlet)
        x = rng.standard_normal(problem.grid.shape)
        out = np.empty_like(x)
        launch_matrix_free_jx(device, views, mask, x, out)
        expected = apply_jx(c64, problem.dirichlet, x)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-9)

    def test_jx_without_dirichlet(self, rng):
        problem = make_problem(6, 6, 6, seed=1)
        device = GpuDevice(A100, BlockShape(4, 4, 4))
        views = {k: v.astype(np.float64) for k, v in
                 coefficient_views_for(problem.coefficients).items()}
        x = np.ones(problem.grid.shape)
        out = np.empty_like(x)
        launch_matrix_free_jx(device, views, None, x, out)
        # Constant field: zero flux everywhere (fp32 coefficient rounding).
        assert np.abs(out).max() < 1e-4

    def test_jx_traffic_counter_matches_closed_form(self):
        problem = make_problem(10, 9, 11, seed=2)
        device = GpuDevice(A100, BlockShape(4, 4, 4))
        views = coefficient_views_for(problem.coefficients)
        x = np.zeros(problem.grid.shape, dtype=np.float32)
        out = np.empty_like(x)
        launch_matrix_free_jx(device, views, None, x, out)
        expected = jx_traffic_bytes(problem.grid.shape, BlockShape(4, 4, 4))
        assert device.counters.dram_bytes == expected

    def test_dot_matches_numpy(self, rng):
        device = GpuDevice(A100, BlockShape(4, 4, 4))
        a = rng.standard_normal((9, 6, 5))
        b = rng.standard_normal((9, 6, 5))
        assert launch_dot(device, a, b) == pytest.approx(float(np.vdot(a, b)))

    def test_axpy_and_xpay(self, rng):
        device = GpuDevice(A100, BlockShape(4, 4, 4))
        x = rng.standard_normal((5, 5, 5))
        y = rng.standard_normal((5, 5, 5))
        y0 = y.copy()
        launch_axpy(device, 2.0, x, y)
        np.testing.assert_allclose(y, y0 + 2.0 * x)
        launch_xpay(device, x, 0.5, y)
        np.testing.assert_allclose(y, x + 0.5 * (y0 + 2.0 * x))

    def test_shape_validation(self):
        device = GpuDevice(A100)
        with pytest.raises(ValidationError):
            launch_dot(device, np.zeros((2, 2, 2)), np.zeros((3, 2, 2)))
        with pytest.raises(ValidationError):
            launch_axpy(device, 1.0, np.zeros((2, 2, 2)), np.zeros((3, 2, 2)))


#: (grid, block) pairs with a one-cell edge block on every axis, and
#: grids of one plane (nz = 1).
EDGE_LAYOUTS = [
    ((9, 7, 5), (4, 3, 2)),
    ((17, 9, 9), (16, 8, 8)),
    ((3, 4, 2), (1, 1, 1)),
    ((7, 6, 1), (3, 5, 2)),
    ((5, 3, 1), (2, 2, 2)),
]


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


class TestAgainstBlockReference:
    """The whole-array launches and closed-form charges against the
    per-block forms they replaced (``tests/gpu_reference.py``)."""

    @pytest.mark.parametrize("block", [
        (16, 8, 8), (4, 4, 4), (2, 1, 1), (3, 5, 2), (1, 1, 1), (7, 3, 5), (32, 1, 1),
    ])
    @pytest.mark.parametrize("grid", [
        (1, 1, 1), (17, 9, 5), (1, 6, 5), (8, 8, 1), (10, 9, 11), (33, 17, 9), (5, 1, 1),
    ])
    def test_halo_tally_sums_to_closed_form(self, grid, block):
        blocks = list(ref.iter_blocks(grid, block))
        tally = sum(ref.jx_block_bytes(b, grid) for b in blocks)
        assert jx_traffic_bytes(grid, BlockShape(*block)) == tally
        device = GpuDevice(A100, BlockShape(*block))
        views = {k: np.zeros(grid, dtype=np.float32) for k in "WESNDU"}
        x = np.zeros(grid, dtype=np.float32)
        launch_matrix_free_jx(device, views, None, x, np.empty_like(x))
        assert device.counters == GpuCounters(
            kernel_launches=1,
            threads_executed=sum(b.cells for b in blocks),
            flops=x.size * 6 * 3,
            dram_bytes=tally,
            blocks_executed=len(blocks),
        )

    @pytest.mark.parametrize("field", ["normal", "signed_zeros"])
    @pytest.mark.parametrize("partial", [False, True])
    @pytest.mark.parametrize("dtypes", [
        (np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64),
    ])
    @pytest.mark.parametrize("grid,block", EDGE_LAYOUTS)
    def test_jx_bitwise_matches_per_block(self, grid, block, dtypes, partial, field):
        """``field="signed_zeros"`` is a checkerboard of −0.0 and +0.0:
        every term of an interior −0.0 cell is −0.0, so its sum is +0.0
        only because the accumulator starts at +0.0."""
        coeff_dtype, x_dtype = dtypes
        g = CartesianGrid3D(*grid)
        coeffs = build_flux_coefficients(
            g, lognormal_permeability(g, seed=3, sigma_log=0.7), dtype=coeff_dtype
        )
        views = coefficient_views_for(coeffs)
        mask = None
        if partial:
            mask = np.random.default_rng(5).random(grid) < 0.2
            mask[0, 0, :] = True  # a full column beside partial ones
        if field == "normal":
            x = np.random.default_rng(9).standard_normal(grid).astype(x_dtype)
            x.flat[::7] = 0.0
            x.flat[3::7] = -0.0
        else:
            odd = np.indices(grid).sum(axis=0) % 2 == 1
            x = np.where(odd, -0.0, 0.0).astype(x_dtype)
        want = np.full(grid, np.nan, dtype=x_dtype)
        ref.matrix_free_jx(views, mask, x, want, block)
        device = GpuDevice(A100, BlockShape(*block))
        got = np.full(grid, np.nan, dtype=x_dtype)
        launch_matrix_free_jx(device, views, mask, x, got)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(_bits(got), _bits(want))


class TestGpuCG:
    def test_matches_reference_solution(self):
        problem = make_problem(10, 8, 6, seed=4)
        ref = repro.solve(problem)
        report = GpuCGSolver(problem, dtype=np.float64, rel_tol=1e-10).solve()
        assert report.converged
        np.testing.assert_allclose(report.pressure, ref.pressure, atol=2e-6)

    def test_float64_solve_iterates_in_float64(self):
        """A float64 solve stages its iterate and right-hand side in
        float64: the pressure is float64 and agrees with a float64
        fabric solve, which applies the same ``Σ c (x_K − x_L)``
        operator, far inside float32 rounding."""
        problem = make_problem(8, 8, 2, seed=1)
        spec = repro.SolveSpec.from_kwargs(dtype=np.float64, rel_tol=1e-12)
        want = repro.solve(problem, backend="wse", spec=spec).pressure
        for got in (
            GpuCGSolver(problem, dtype=np.float64, rel_tol=1e-12).solve().pressure,
            repro.solve(problem, backend="gpu", spec=spec).pressure,
        ):
            assert got.dtype == np.float64
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.abs(want).max())

    def test_fp32_mode(self):
        problem = make_problem(8, 8, 4, seed=5)
        ref = repro.solve(problem)
        report = GpuCGSolver(problem, dtype=np.float32, rel_tol=1e-6).solve()
        assert report.converged
        np.testing.assert_allclose(report.pressure, ref.pressure, atol=5e-4)

    def test_fixed_iterations(self):
        problem = make_problem(6, 6, 4, seed=6)
        report = GpuCGSolver(problem, fixed_iterations=3).solve()
        assert report.iterations == 3
        assert not report.converged

    def test_modeled_time_positive_and_from_traffic(self):
        problem = make_problem(6, 6, 4, seed=7)
        report = GpuCGSolver(problem, dtype=np.float64, rel_tol=1e-8).solve()
        assert report.modeled_seconds > 0
        # Traffic-based: more iterations => more modeled time.
        short = GpuCGSolver(problem, fixed_iterations=2).solve()
        assert short.modeled_seconds < report.modeled_seconds

    def test_h100_solver_runs(self):
        problem = make_problem(6, 6, 4, seed=8)
        report = GpuCGSolver(
            problem,
            specs=H100,
            timing=GpuTimingModel.calibrated_h100(),
            dtype=np.float64,
            rel_tol=1e-8,
        ).solve()
        assert report.converged

    def test_h100_default_timing_is_calibrated(self):
        """An H100 solve is timed by the calibrated H100 model by default,
        on the solver and through the gpu backend."""
        problem = make_problem(6, 6, 4, seed=8)
        knobs = dict(dtype=np.float64, rel_tol=1e-8)
        want = GpuCGSolver(
            problem, specs=H100, timing=GpuTimingModel.calibrated_h100(), **knobs
        ).solve().modeled_seconds
        assert GpuCGSolver(problem, specs=H100, **knobs).solve().modeled_seconds == want
        result = repro.solve(problem, backend="gpu", specs=H100, **knobs)
        assert result.elapsed_seconds == want


class TestTimingModel:
    def test_calibration_reproduces_endpoints(self):
        m = GpuTimingModel.calibrated_a100()
        for (n, iters, t), _ in [(PAPER_A100_ALG1[0], 0), (PAPER_A100_ALG1[1], 0)]:
            shape = _shape(n)
            assert m.total_time_alg1(shape, iters) == pytest.approx(t, rel=1e-6)
        (n, iters, t) = PAPER_A100_ALG2[0]
        assert m.total_time_alg2(_shape(n), iters) == pytest.approx(t, rel=1e-6)

    def test_h100_reproduces_table2(self):
        m = GpuTimingModel.calibrated_h100()
        assert m.total_time_alg1((750, 994, 922), 225) == pytest.approx(
            PAPER_H100_ALG1_TIME, rel=1e-6
        )

    def test_middle_rows_predicted_within_15pct(self):
        """The five non-calibration Table III rows are genuine predictions."""
        m = GpuTimingModel.calibrated_a100()
        middle = [
            ((400, 400, 922), 225, 5.6343),
            ((600, 600, 922), 225, 11.8380),
            ((750, 600, 922), 225, 16.3473),
            ((750, 800, 922), 225, 20.9367),
            ((750, 950, 922), 225, 22.9128),
        ]
        for shape, iters, paper in middle:
            model = m.total_time_alg1(shape, iters)
            assert abs(model - paper) / paper < 0.15, shape

    def test_achieved_bandwidth_physical(self):
        a100 = GpuTimingModel.calibrated_a100()
        h100 = GpuTimingModel.calibrated_h100()
        assert 0.3 * A100.hbm_bandwidth < a100.achieved_bandwidth < A100.hbm_bandwidth
        assert 0.2 * H100.hbm_bandwidth < h100.achieved_bandwidth < H100.hbm_bandwidth
        # Same binary: overheads shared.
        assert h100.overhead_alg1 == a100.overhead_alg1

    def test_traffic_closed_form_properties(self):
        # More blocks -> more halo traffic, never less than compulsory.
        small_blocks = jx_traffic_bytes((32, 32, 32), BlockShape(4, 4, 4))
        big_blocks = jx_traffic_bytes((32, 32, 32), BlockShape(16, 8, 8))
        compulsory = 8 * 32**3 * 4
        assert small_blocks > big_blocks >= compulsory

    def test_cg_iteration_bytes_adds_vector_work(self):
        shape = (16, 16, 16)
        assert cg_iteration_bytes(shape) > jx_traffic_bytes(shape)

    def test_bandwidth_cap_validation(self):
        with pytest.raises(ConfigurationError):
            GpuTimingModel(
                specs=A100,
                achieved_bandwidth=2 * A100.hbm_bandwidth,
                overhead_alg1=0.0,
                overhead_alg2=0.0,
            )


def _shape(num_cells: int) -> tuple[int, int, int]:
    from repro.gpu.timing import _shape_for

    return _shape_for(num_cells, 922)
