"""Tests for the unified backend registry and the `repro.solve` front door.

Covers the ISSUE-1 acceptance criteria: all three builtin backends return
canonical `SolveResult`s whose pressure fields agree on a small
quarter-five-spot; registry errors are self-diagnosing.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from helpers import make_problem
from repro.backends import (
    SolveResult,
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.spec import SolveSpec
from repro.util.errors import ConfigurationError

#: Spec that drives every backend to a tight float64 solve.
TIGHT = SolveSpec.from_kwargs(dtype=np.float64, rel_tol=1e-9, max_iters=2000)


@pytest.fixture(scope="module")
def parity_problem():
    return repro.scenario("quarter_five_spot", nx=6, ny=5, nz=3).build()


@pytest.fixture(scope="module")
def parity_results(parity_problem):
    return {
        name: repro.solve(parity_problem, backend=name, spec=TIGHT)
        for name in ("reference", "wse", "gpu")
    }


class TestRegistry:
    def test_builtins_registered(self):
        assert available_backends() == ["gpu", "reference", "wse"]

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ConfigurationError) as err:
            get_backend("abacus")
        message = str(err.value)
        assert "abacus" in message
        for name in ("gpu", "reference", "wse"):
            assert name in message

    def test_duplicate_registration_raises(self):
        class Fake:
            name = "reference"

            def solve(self, problem, spec=None):
                raise NotImplementedError

        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend(Fake())
        # overwrite=True is the explicit escape hatch; restore after.
        original = get_backend("reference")
        try:
            register_backend(Fake(), overwrite=True)
            assert isinstance(get_backend("reference"), Fake)
        finally:
            register_backend(original, overwrite=True)

    def test_register_requires_name_and_solve(self):
        class NoName:
            def solve(self, problem, spec=None):
                return None

        class NoSolve:
            name = "no-solve"

        with pytest.raises(ConfigurationError, match="name"):
            register_backend(NoName())
        with pytest.raises(ConfigurationError, match="solve"):
            register_backend(NoSolve())

    def test_custom_backend_round_trip(self, parity_problem):
        class Echo:
            name = "echo"

            def solve(self, problem, spec=None):
                return SolveResult(
                    pressure=problem.initial_pressure(dtype=np.float64),
                    iterations=0,
                    converged=True,
                    backend=self.name,
                )

        try:
            register_backend(Echo())
            result = repro.solve(parity_problem, backend="echo")
            assert result.backend == "echo"
            assert result.iterations == 0
        finally:
            unregister_backend("echo")


class TestCrossBackendParity:
    def test_all_return_solve_result(self, parity_results):
        for name, result in parity_results.items():
            assert isinstance(result, SolveResult)
            assert result.backend == name
            assert result.converged
            assert result.iterations > 0
            assert result.residual_history, name
            assert result.pressure.shape == (6, 5, 3)

    def test_pressures_agree(self, parity_results):
        ref = parity_results["reference"].pressure
        for name in ("wse", "gpu"):
            np.testing.assert_allclose(
                parity_results[name].pressure, ref, atol=1e-6,
                err_msg=f"{name} disagrees with reference",
            )

    def test_telemetry_is_backend_specific(self, parity_results):
        assert "newton_iterations" in parity_results["reference"].telemetry
        assert "trace" in parity_results["wse"].telemetry
        assert "memory" in parity_results["wse"].telemetry
        assert "counters" in parity_results["gpu"].telemetry
        kinds = {r.telemetry["time_kind"] for r in parity_results.values()}
        assert kinds == {"wall_clock", "simulated_device", "modeled_kernel"}


class TestStrictOptions:
    """ISSUE-2 satellite: misspelled/unknown options must raise on every
    builtin backend instead of being silently swallowed by ``**options``."""

    @pytest.mark.parametrize("backend", ["reference", "wse", "gpu"])
    def test_typo_rejected_with_suggestion(self, parity_problem, backend):
        with pytest.raises(ConfigurationError, match="tol_rtr"):
            repro.solve(parity_problem, backend=backend, tol_rt=1e-9)

    @pytest.mark.parametrize("backend", ["reference", "wse", "gpu"])
    def test_unknown_option_rejected(self, parity_problem, backend):
        with pytest.raises(ConfigurationError, match="unknown solve option"):
            repro.solve(parity_problem, backend=backend, warp_factor=9)

    def test_machine_knobs_are_backend_checked(self, parity_problem):
        # SIMD width belongs to the dataflow fabric, not the GPU or host.
        spec = SolveSpec.from_kwargs(simd_width=2)
        repro.solve(
            repro.scenario("quarter_five_spot", nx=3, ny=3, nz=2),
            backend="wse",
            spec=spec.with_options(fixed_iterations=2),
        )
        for backend in ("reference", "gpu"):
            with pytest.raises(ConfigurationError, match="simd_width"):
                repro.solve(parity_problem, backend=backend, spec=spec)

    def test_gpu_rejects_jacobi(self, parity_problem):
        with pytest.raises(ConfigurationError, match="preconditioner"):
            repro.solve(
                parity_problem, backend="gpu",
                spec=SolveSpec.from_kwargs(preconditioner="jacobi"),
            )

    def test_wrong_machine_spec_type_rejected(self, parity_problem):
        from repro.gpu.specs import A100
        from repro.wse.specs import WSE2

        with pytest.raises(ConfigurationError, match="WseSpecs"):
            repro.solve(
                parity_problem, backend="wse",
                spec=SolveSpec.from_kwargs(spec=A100),
            )
        with pytest.raises(ConfigurationError, match="GpuSpecs"):
            repro.solve(
                parity_problem, backend="gpu",
                spec=SolveSpec.from_kwargs(spec=WSE2),
            )


class TestPreconditionerSpec:
    """Preconditioner selection moved into the spec (reference + wse)."""

    def test_reference_jacobi_matches_plain(self):
        problem = make_problem(6, 5, 3, seed=21)
        plain = repro.solve(problem, backend="reference")
        jac = repro.solve(
            problem, backend="reference",
            spec=SolveSpec.from_kwargs(preconditioner="jacobi"),
        )
        np.testing.assert_allclose(jac.pressure, plain.pressure, atol=1e-6)
        assert jac.telemetry["preconditioner"] == "jacobi"
        assert jac.iterations > 0

    def test_wse_jacobi_matches_reference(self):
        problem = make_problem(5, 4, 3, seed=22)
        ref = repro.solve(problem, backend="reference")
        jac = repro.solve(
            problem, backend="wse",
            spec=TIGHT.with_options(preconditioner="jacobi"),
        )
        np.testing.assert_allclose(jac.pressure, ref.pressure, atol=1e-6)
        assert jac.converged

    def test_jacobi_solver_honours_rel_tol(self):
        """Regression: the Jacobi-preconditioned host CG once dropped
        ``rel_tol`` and silently fell back to the default absolute
        tolerance while plain CG and the fabric engines honoured the
        knob."""
        from repro.fv.residual import compute_residual
        from repro.solvers.cg import conjugate_gradient
        from repro.solvers.preconditioning import build_preconditioner

        problem = make_problem(8, 7, 3, seed=23)
        operator = problem.operator()
        p0 = problem.initial_pressure(dtype=np.float64)
        rhs = -compute_residual(problem.coefficients, problem.dirichlet, p0)
        jacobi = build_preconditioner(problem, "jacobi")
        loose = conjugate_gradient(
            operator, rhs, rel_tol=1e-3, max_iters=2000, precondition=jacobi
        )
        tight = conjugate_gradient(
            operator, rhs, rel_tol=1e-10, max_iters=2000, precondition=jacobi
        )
        assert loose.converged and tight.converged
        # Dropping the knob made both runs identical; resolving it must
        # let the loose request stop earlier.
        assert loose.iterations < tight.iterations
        # ...and the resolved threshold matches plain CG's native rel_tol.
        plain = conjugate_gradient(operator, rhs, rel_tol=1e-10, max_iters=2000)
        np.testing.assert_allclose(tight.x, plain.x, atol=1e-6)

    def test_rel_tol_with_jacobi_consistent_across_backends(self):
        problem = make_problem(6, 5, 3, seed=27)
        spec = SolveSpec.from_kwargs(
            preconditioner="jacobi", dtype=np.float64, rel_tol=1e-9,
            max_iters=2000,
        )
        ref = repro.solve(problem, backend="reference", spec=spec)
        wse = repro.solve(problem, backend="wse", spec=spec)
        assert ref.converged and wse.converged
        np.testing.assert_allclose(wse.pressure, ref.pressure, atol=1e-6)

    def test_reference_mg_matches_plain_and_cuts_iterations(self):
        problem = make_problem(10, 9, 4, seed=25)
        plain = repro.solve(problem, backend="reference")
        mg = repro.solve(
            problem, backend="reference",
            spec=SolveSpec.from_kwargs(preconditioner="mg"),
        )
        np.testing.assert_allclose(mg.pressure, plain.pressure, atol=1e-6)
        assert 0 < mg.iterations < plain.iterations
        tele = mg.telemetry["preconditioner"]
        assert tele["kind"] == "mg"
        assert len(tele["levels"]) >= 2
        assert tele["cycles"] > 0

    def test_wse_mg_matches_reference(self):
        problem = make_problem(6, 5, 3, seed=26)
        ref = repro.solve(problem, backend="reference")
        mg = repro.solve(
            problem, backend="wse",
            spec=TIGHT.with_options(preconditioner="mg"),
        )
        np.testing.assert_allclose(mg.pressure, ref.pressure, atol=1e-6)
        assert mg.converged
        assert mg.telemetry["preconditioner"]["kind"] == "mg"


class TestTimeKind:
    """ISSUE-2 satellite: every builtin backend declares its time notion."""

    EXPECTED = {
        "reference": "wall_clock",
        "wse": "simulated_device",
        "gpu": "modeled_kernel",
    }

    @pytest.mark.parametrize("backend", sorted(EXPECTED))
    def test_time_kind_present_and_correct(self, parity_results, backend):
        result = parity_results[backend]
        assert result.telemetry["time_kind"] == self.EXPECTED[backend]


class TestLegacyKwargs:
    """Flat keyword options are first-class sugar for a SolveSpec."""

    def test_kwargs_match_spec_path(self, parity_problem):
        legacy = repro.solve(
            parity_problem, backend="reference",
            dtype=np.float64, rel_tol=1e-9, max_iters=2000,
        )
        new = repro.solve(parity_problem, backend="reference", spec=TIGHT)
        np.testing.assert_allclose(legacy.pressure, new.pressure, atol=1e-12)

    def test_machine_spec_kwarg_rejected(self):
        # spec= is a SolveSpec; the machine target lives in machine.spec.
        from repro.wse.specs import WSE2

        problem = repro.scenario("quarter_five_spot", nx=4, ny=4, nz=2).build()
        with pytest.raises(ConfigurationError, match="SolveSpec"):
            repro.solve(problem, backend="wse", spec=WSE2.with_fabric(8, 8))
        with pytest.raises(ConfigurationError, match="not both"):
            repro.solve(
                problem, backend="wse", spec=WSE2.with_fabric(8, 8),
                dtype=np.float32, fixed_iterations=3,
            )

    def test_spec_plus_kwargs_rejected(self, parity_problem):
        with pytest.raises(ConfigurationError, match="not both"):
            repro.solve(
                parity_problem, backend="reference", spec=TIGHT, rel_tol=1e-9
            )


class TestFrontDoor:
    def test_solve_accepts_scenario_name(self):
        result = repro.solve("quarter_five_spot", backend="reference")
        assert isinstance(result, SolveResult)
        assert result.pressure.shape == (16, 16, 8)

    def test_solve_rejects_junk_target(self):
        with pytest.raises(ConfigurationError, match="cannot plan"):
            repro.solve(42)

    def test_solve_many_preserves_order(self):
        scenarios = [
            repro.scenario("quarter_five_spot", nx=n, ny=n, nz=2)
            for n in (3, 4, 5)
        ]
        results = repro.solve_many(scenarios, backend="reference", n_workers=3)
        assert [r.pressure.shape[0] for r in results] == [3, 4, 5]

    def test_solve_many_serial_matches_threaded(self):
        scenarios = [repro.scenario("quarter_five_spot", nx=4, ny=4, nz=2)] * 2
        serial = repro.solve_many(scenarios, n_workers=1)
        threaded = repro.solve_many(scenarios, n_workers=2)
        np.testing.assert_array_equal(serial[0].pressure, threaded[1].pressure)

    def test_solve_many_empty(self):
        assert repro.solve_many([]) == []

    def test_solve_many_rejects_bad_workers(self):
        with pytest.raises(ConfigurationError, match="n_workers"):
            repro.solve_many(["quarter_five_spot"], n_workers=0)


class TestSolveResult:
    def test_final_rtr(self):
        result = SolveResult(
            pressure=np.zeros((2, 2, 2)), iterations=1, converged=True,
            residual_history=[1.0, 0.25],
        )
        assert result.final_rtr == 0.25
        empty = SolveResult(pressure=np.zeros(1), iterations=0, converged=False)
        assert np.isnan(empty.final_rtr)

    def test_summary_mentions_backend(self, parity_results):
        text = parity_results["wse"].summary()
        assert "[wse]" in text and "converged=True" in text

    @pytest.mark.parametrize("backend", ["reference", "gpu", "wse"])
    def test_results_round_trip_through_json(self, backend):
        """Steady and transient results, and the steps of a simulation,
        carry only JSON-able telemetry: nothing crosses the wire as an
        ``__opaque__`` marker, and decoding re-encodes to the same
        bytes."""
        problem = make_problem(5, 4, 3, seed=2)
        results = [
            repro.solve(problem, backend=backend),
            repro.solve(problem, backend=backend, n_steps=2, dt=1.0),
            *repro.simulate_steps(problem, backend=backend, n_steps=2, dt=1.0),
        ]
        for result in results:
            text = json.dumps(result.to_dict())
            assert "__opaque__" not in text
            clone = type(result).from_dict(json.loads(text))
            assert json.dumps(clone.to_dict()) == text
            np.testing.assert_array_equal(clone.pressure, result.pressure)
