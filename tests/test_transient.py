"""Tests for transient slightly-compressible flow (the time-stepping
extension)."""

import numpy as np
import pytest

from helpers import make_problem
import repro
from repro import api
from repro.physics.transient import TransientOperator, build_accumulation
from repro.util.errors import ConfigurationError


class TestAccumulation:
    def test_shape_and_positivity(self, small_problem):
        acc = build_accumulation(small_problem, dt=2.0)
        assert acc.shape == small_problem.grid.shape
        interior = ~small_problem.dirichlet.mask
        assert np.all(acc[interior] > 0)

    def test_zero_on_dirichlet_rows(self, small_problem):
        acc = build_accumulation(small_problem)
        assert np.all(acc[small_problem.dirichlet.mask] == 0)

    def test_scales_inverse_dt(self, small_problem):
        a1 = build_accumulation(small_problem, dt=1.0)
        a2 = build_accumulation(small_problem, dt=2.0)
        interior = ~small_problem.dirichlet.mask
        np.testing.assert_allclose(a1[interior], 2 * a2[interior])

    def test_porosity_field(self, small_problem):
        phi = np.full(small_problem.grid.shape, 0.3)
        acc = build_accumulation(small_problem, porosity=phi)
        assert acc.max() > 0

    def test_rejects_bad_inputs(self, small_problem):
        with pytest.raises(ConfigurationError):
            build_accumulation(small_problem, porosity=np.ones((2, 2, 2)))
        with pytest.raises(ConfigurationError):
            build_accumulation(small_problem, porosity=0.0)

    def test_operator_adds_diagonal(self, small_problem, rng):
        acc = build_accumulation(small_problem)
        op = TransientOperator(small_problem, acc)
        from repro.fv.operator import apply_jx

        x = rng.standard_normal(small_problem.grid.shape)
        base = apply_jx(small_problem.coefficients, small_problem.dirichlet, x)
        np.testing.assert_allclose(op(x), base + acc * x, rtol=1e-6)


def _simulate(problem, **time_kw):
    """The reference backend's stepping loop at a pure relative tolerance
    (``tol_rtr=1e-300`` sets no absolute floor on ``r^T r``)."""
    return repro.simulate(
        problem, backend="reference", rel_tol=1e-10, tol_rtr=1e-300, **time_kw
    )


def _pressures(problem, sim):
    """The trajectory ``[p^0, p^1, ..., p^N]`` of a simulation."""
    return [problem.initial_pressure()] + [s.pressure for s in sim.steps]


class TestTimeStepping:
    def test_monotone_pressurization(self):
        """Starting from p=0 with a p=1 injector, interior pressure rises
        monotonically toward steady state (parabolic maximum principle)."""
        problem = api.quarter_five_spot_problem(6, 6, 2)
        sim = _simulate(problem, n_steps=8, dt=1.0, total_compressibility=1e-2)
        probe = (2, 2, 1)
        series = [p[probe] for p in _pressures(problem, sim)]
        assert all(b >= a - 1e-12 for a, b in zip(series, series[1:]))
        assert series[-1] > series[0]

    def test_bounded_by_well_pressures(self):
        problem = api.quarter_five_spot_problem(5, 5, 2)
        sim = _simulate(problem, n_steps=6, dt=0.5)
        for p in _pressures(problem, sim):
            assert p.min() >= -1e-8
            assert p.max() <= 1.0 + 1e-8

    def test_large_dt_recovers_steady_state(self):
        problem = api.quarter_five_spot_problem(6, 5, 3)
        steady = repro.solve(problem).pressure
        sim = _simulate(problem, n_steps=20, dt=1e9)
        np.testing.assert_allclose(sim.final_pressure, steady, atol=1e-6)

    def test_small_dt_changes_little_per_step(self):
        problem = api.quarter_five_spot_problem(5, 5, 2)
        sim = _simulate(problem, n_steps=2, dt=1e-6, total_compressibility=1.0)
        p0, p1 = _pressures(problem, sim)[:2]
        assert np.abs(p1 - p0).max() < 1e-3

    def test_smaller_dt_needs_fewer_cg_iterations(self):
        """The accumulation term improves conditioning: tighter time steps
        must not increase CG iteration counts."""
        problem = make_problem(6, 6, 3, seed=2)
        slow = _simulate(problem, n_steps=3, dt=1e6, total_compressibility=1e-2)
        fast = _simulate(problem, n_steps=3, dt=1e-2, total_compressibility=1e-2)
        assert fast.total_iterations <= slow.total_iterations

    def test_rejects_zero_steps(self):
        problem = api.quarter_five_spot_problem(4, 4, 2)
        with pytest.raises(ConfigurationError):
            _simulate(problem, n_steps=0)

    def test_mass_balance_at_steady_state(self):
        """At convergence the residual of the steady system vanishes."""
        problem = api.quarter_five_spot_problem(5, 5, 2)
        sim = _simulate(problem, n_steps=40, dt=1e8)
        r = problem.residual(sim.final_pressure)
        assert float(np.abs(r).max()) < 1e-5
