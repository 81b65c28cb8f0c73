"""Wall-clock micro-benchmarks of the library's hot paths.

These are genuine pytest-benchmark timings of this Python implementation
(not modelled device times): the vectorized reference operator, residual
assembly, the sparse baseline, the fabric-simulator solve and the
GPU-model solve.  Useful for tracking library performance regressions.
"""

import numpy as np
import pytest

import repro
from repro.fv.assembly import assemble_jacobian
from repro.fv.operator import apply_jx
from repro.fv.residual import compute_residual
from repro.solvers.cg import conjugate_gradient
from repro.wse.specs import WSE2


@pytest.fixture(scope="module")
def medium_problem():
    return repro.scenario("quarter_five_spot", nx=32, ny=32, nz=16).build()


@pytest.fixture(scope="module")
def medium_x(medium_problem):
    rng = np.random.default_rng(0)
    return rng.standard_normal(medium_problem.grid.shape).astype(np.float32)


def test_bench_matrix_free_apply(benchmark, medium_problem, medium_x):
    out = np.empty_like(medium_x)
    benchmark(
        apply_jx, medium_problem.coefficients, medium_problem.dirichlet,
        medium_x, out,
    )


def test_bench_residual(benchmark, medium_problem, medium_x):
    out = np.empty_like(medium_x)
    benchmark(
        compute_residual, medium_problem.coefficients,
        medium_problem.dirichlet, medium_x, out,
    )


def test_bench_sparse_assembly(benchmark, medium_problem):
    benchmark(assemble_jacobian, medium_problem.coefficients, medium_problem.dirichlet)


def test_bench_assembled_spmv(benchmark, medium_problem, medium_x):
    J = assemble_jacobian(
        medium_problem.coefficients, medium_problem.dirichlet, dtype=np.float32
    )
    flat = medium_x.reshape(-1)
    benchmark(lambda: J @ flat)


def test_bench_reference_cg(benchmark, medium_problem):
    op = medium_problem.operator()
    p0 = medium_problem.initial_pressure(dtype=np.float64)
    b = (-medium_problem.residual(p0)).astype(np.float64)

    def _solve():
        return conjugate_gradient(op, b, rel_tol=1e-8, max_iters=2000)

    result = benchmark(_solve)
    assert result.converged


def test_bench_wse_simulator_solve(benchmark):
    problem = repro.scenario("quarter_five_spot", nx=6, ny=6, nz=6).build()
    spec = repro.SolveSpec.from_kwargs(
        spec=WSE2.with_fabric(32, 32), dtype=np.float32, engine="event",
        fixed_iterations=5,
    )

    def _solve():
        return repro.solve(problem, backend="wse", spec=spec)

    report = benchmark(_solve)
    assert report.iterations == 5


def test_bench_gpu_model_solve(benchmark):
    problem = repro.scenario("quarter_five_spot", nx=24, ny=24, nz=12).build()

    spec = repro.SolveSpec.from_kwargs(dtype=np.float32, fixed_iterations=10)

    def _solve():
        return repro.solve(problem, backend="gpu", spec=spec)

    report = benchmark(_solve)
    assert report.iterations == 10
