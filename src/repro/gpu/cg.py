"""GPU conjugate-gradient driver (§IV): Algorithm 1 over device kernels.

The host drives the loop; every vector operation is a kernel launch on the
:class:`GpuDevice`; the dot products synchronize back to the host (the α/β
scalars), exactly the structure the paper describes and the structure the
timing model charges overhead for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.kernels import (
    coefficient_views_for,
    dirichlet_mask_for,
    launch_axpy,
    launch_dot,
    launch_fma,
    launch_matrix_free_jx,
    launch_xpay,
)
from repro.gpu.model import BlockShape, DEFAULT_BLOCK_SHAPE, GpuCounters, GpuDevice
from repro.gpu.specs import A100, GpuSpecs
from repro.gpu.timing import GpuTimingModel
from repro.physics.darcy import SinglePhaseProblem
from repro.util.errors import ConfigurationError


@dataclass
class GpuSolveReport:
    """Outcome of a GPU-model solve.

    ``modeled_seconds`` comes from the calibrated timing model applied to
    the *measured* DRAM traffic of this run — never from Python wall
    clock.
    """

    pressure: np.ndarray
    iterations: int
    converged: bool
    residual_history: list[float]
    counters: GpuCounters
    modeled_seconds: float
    device_bytes: int = 0


class GpuCGSolver:
    """Matrix-free CG on the CUDA-like device model.

    Parameters
    ----------
    problem:
        The Darcy pressure problem.
    specs:
        GPU to model (default: the paper's A100).
    timing:
        Timing model; defaults to the calibrated model for ``specs`` when
        available (A100/H100), else a roofline-ideal model.
    """

    def __init__(
        self,
        problem: SinglePhaseProblem,
        *,
        specs: GpuSpecs = A100,
        timing: GpuTimingModel | None = None,
        block_shape: BlockShape = DEFAULT_BLOCK_SHAPE,
        dtype=np.float32,
        tol_rtr: float = 2e-10,
        rel_tol: float | None = None,
        max_iters: int = 10_000,
        fixed_iterations: int | None = None,
        accumulation: np.ndarray | None = None,
        rhs: np.ndarray | None = None,
        initial_pressure: np.ndarray | None = None,
    ):
        self.problem = problem
        self.specs = specs
        self.device = GpuDevice(specs, block_shape)
        if timing is None:
            timing = GpuTimingModel.for_specs(specs, block_shape)
        self.timing = timing
        self.dtype = np.dtype(dtype)
        self.tol_rtr = float(tol_rtr)
        self.rel_tol = rel_tol
        self.max_iters = int(max_iters)
        self.fixed_iterations = fixed_iterations
        if fixed_iterations is not None and fixed_iterations < 1:
            raise ConfigurationError("fixed_iterations must be >= 1")

        # Device staging (the one-time H2D load of §IV).
        grid = problem.grid
        self._coeffs = {
            key: self.device.htod(view, dtype=self.dtype)
            for key, view in coefficient_views_for(problem.coefficients).items()
        }
        mask = dirichlet_mask_for(problem.dirichlet)
        self._mask = None if mask is None else self.device.htod(mask, dtype=bool)
        # Transient staging: the accumulation diagonal rides on-device
        # like a seventh coefficient array; the rhs carries A p^n on
        # interior rows (Dirichlet rows always hold p^D).
        y0, b = problem.system_vectors(
            self.dtype, initial_pressure=initial_pressure,
            accumulation=accumulation, rhs=rhs,
        )
        self._y = self.device.htod(y0, dtype=self.dtype)
        self._acc = (
            None if accumulation is None
            else self.device.htod(accumulation, dtype=self.dtype)
        )
        self._b = self.device.htod(b, dtype=self.dtype)
        self._r = self.device.alloc_like(grid.shape, dtype=self.dtype)
        self._p = self.device.alloc_like(grid.shape, dtype=self.dtype)
        self._Ap = self.device.alloc_like(grid.shape, dtype=self.dtype)

    def _jx(self, x: np.ndarray, out: np.ndarray) -> None:
        launch_matrix_free_jx(self.device, self._coeffs, self._mask, x, out)
        if self._acc is not None:
            # (J + A) x: accumulation is zero on Dirichlet rows, so the
            # identity rows the Jx kernel wrote stay intact.
            launch_fma(self.device, self._acc, x, out)

    def solve(self) -> GpuSolveReport:
        """Run CG to convergence (or ``fixed_iterations``)."""
        tol = self.tol_rtr
        # r0 = b - J y0 ; p0 = r0.
        self._jx(self._y, self._Ap)
        self._r[...] = self._b - self._Ap
        self._p[...] = self._r
        rtr = launch_dot(self.device, self._r, self._r)
        history = [rtr]
        if self.rel_tol is not None:
            tol = max(tol, self.rel_tol**2 * rtr)

        check = self.fixed_iterations is None
        limit = self.fixed_iterations if self.fixed_iterations is not None else self.max_iters
        k = 0
        converged = check and rtr < tol
        while not converged and k < limit:
            self._jx(self._p, self._Ap)
            pap = launch_dot(self.device, self._p, self._Ap)
            if pap <= 0 and check:
                raise ConfigurationError(
                    f"GPU CG breakdown: p^T A p = {pap:.3e} at iteration {k}"
                )
            alpha = rtr / pap if pap != 0 else 0.0
            launch_axpy(self.device, alpha, self._p, self._y)
            launch_axpy(self.device, -alpha, self._Ap, self._r)
            rtr_new = launch_dot(self.device, self._r, self._r)
            history.append(rtr_new)
            k += 1
            if check and rtr_new < tol:
                converged = True
                break
            beta = rtr_new / rtr if rtr > 0 else 0.0
            launch_xpay(self.device, self._r, beta, self._p)
            rtr = rtr_new

        modeled = self.timing.time_from_traffic(
            self.device.counters.dram_bytes, max(k, 1), alg1=True
        )
        return GpuSolveReport(
            pressure=self._y.copy(),
            iterations=k,
            converged=converged,
            residual_history=history,
            counters=self.device.counters,
            modeled_seconds=modeled,
            device_bytes=self.device.allocated_bytes,
        )
