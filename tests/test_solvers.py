"""Tests for the CG solver family: reference loop, state graph, baselines.

The key cross-validation: all solver paths produce the same solution on the
same SPD system, and every fabric engine's visit sequence is a walk of the
14-state graph of §III-D (``test_core_solver.py`` also counts the visits
per iteration on the event oracle and the fused engine).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import make_problem, solvable_grid_dims
from repro.core.engines import ENGINE_NAMES
from repro.core.solver import WseMatrixFreeSolver
from repro.fv.assembly import assemble_jacobian
from repro.fv.operator import MatrixFreeOperator
from repro.mesh.boundary import DirichletSet
from repro.physics.darcy import build_problem
from repro.solvers.baseline import dense_direct_solve, scipy_cg_baseline
from repro.solvers.cg import CGResult, conjugate_gradient
from repro.solvers.state_machine import (
    CG_NUM_STATES,
    CG_TRANSITIONS,
    CGState,
    COMMUNICATING_STATES,
    TERMINAL_STATES,
)
from repro.util.errors import ConvergenceError, ValidationError
from repro.wse.specs import WSE2

#: INIT evaluates ``r0 = b - J y0`` on the device before its first check.
_RESIDUAL = [CGState.EXCHANGE, CGState.COMPUTE_JX, CGState.DOT_RR, CGState.ITER_CHECK]


def _spd_system(n: int = 30, seed: int = 0):
    """A random small SPD system (diagonally-shifted Gram matrix)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A = A @ A.T + n * np.eye(n)
    b = rng.standard_normal(n)
    return A, b


def _fabric_solve(problem, engine, **kwargs):
    """A float64 solve on one fabric engine at the absolute ε floor."""
    kwargs.setdefault("dtype", np.float64)
    kwargs.setdefault("max_iters", 500)
    return WseMatrixFreeSolver(
        problem, engine=engine, spec=WSE2.with_fabric(8, 8), **kwargs
    ).solve()


class TestConjugateGradient:
    def test_solves_spd_system(self):
        A, b = _spd_system()
        result = conjugate_gradient(lambda v: A @ v, b, tol_rtr=1e-20)
        assert result.converged
        np.testing.assert_allclose(result.x, np.linalg.solve(A, b), rtol=1e-6)

    def test_exact_in_n_iterations(self):
        """CG terminates in at most n iterations in exact arithmetic."""
        A, b = _spd_system(n=12, seed=3)
        result = conjugate_gradient(lambda v: A @ v, b, tol_rtr=1e-22)
        assert result.converged
        assert result.iterations <= 12 + 2

    def test_identity_converges_in_one(self):
        b = np.arange(1.0, 6.0)
        result = conjugate_gradient(lambda v: v, b, tol_rtr=1e-28)
        assert result.converged
        assert result.iterations == 1
        np.testing.assert_allclose(result.x, b)

    def test_zero_rhs_converges_immediately(self):
        result = conjugate_gradient(lambda v: 2 * v, np.zeros(5))
        assert result.converged
        assert result.iterations == 0
        np.testing.assert_array_equal(result.x, 0.0)

    def test_initial_guess_exact(self):
        A, b = _spd_system(seed=5)
        x_star = np.linalg.solve(A, b)
        result = conjugate_gradient(lambda v: A @ v, b, x0=x_star, tol_rtr=1e-14)
        assert result.converged
        assert result.iterations == 0

    def test_x0_shape_mismatch(self):
        with pytest.raises(ValidationError):
            conjugate_gradient(lambda v: v, np.zeros(4), x0=np.zeros(3))

    def test_residual_history_monotone_for_spd(self):
        """For SPD systems the recursive r^T r need not be monotone, but the
        final entry must be below tolerance when converged."""
        A, b = _spd_system(seed=9)
        result = conjugate_gradient(lambda v: A @ v, b, tol_rtr=1e-16)
        assert result.converged
        assert result.residual_history[-1] < 1e-16
        assert result.final_rtr == result.residual_history[-1]

    def test_max_iters_respected(self):
        A, b = _spd_system(n=40, seed=1)
        result = conjugate_gradient(lambda v: A @ v, b, tol_rtr=1e-30, max_iters=3)
        assert not result.converged
        assert result.iterations == 3

    def test_raise_on_fail(self):
        A, b = _spd_system(n=40, seed=1)
        with pytest.raises(ConvergenceError):
            conjugate_gradient(
                lambda v: A @ v, b, tol_rtr=1e-30, max_iters=2, raise_on_fail=True
            )

    def test_breakdown_on_indefinite_operator(self):
        b = np.ones(4)
        with pytest.raises(ConvergenceError, match="breakdown"):
            conjugate_gradient(lambda v: -v, b, tol_rtr=1e-30)

    def test_callback_invoked_each_iteration(self):
        A, b = _spd_system(n=10, seed=2)
        seen = []
        result = conjugate_gradient(
            lambda v: A @ v, b, tol_rtr=1e-18,
            callback=lambda k, rtr: seen.append((k, rtr)),
        )
        assert len(seen) == result.iterations
        assert seen[0][0] == 1

    def test_rel_tol_mode(self):
        A, b = _spd_system(seed=4)
        result = conjugate_gradient(lambda v: A @ v, b, rel_tol=1e-6)
        assert result.converged
        assert result.final_rtr <= 1e-12 * result.residual_history[0] * 1.01

    def test_works_on_3d_arrays(self, small_problem):
        """CG treats fields of any shape as flat vectors."""
        op = MatrixFreeOperator(small_problem.coefficients, small_problem.dirichlet)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(small_problem.grid.shape)
        b[small_problem.dirichlet.mask] = 0.0
        result = conjugate_gradient(op, b.astype(np.float64), rel_tol=1e-10)
        assert result.converged
        assert result.x.shape == small_problem.grid.shape


class TestStateMachine:
    def test_fourteen_states(self):
        assert CG_NUM_STATES == 14

    def test_transition_graph_closed(self):
        """Every transition target is a defined state; terminals have none."""
        for src, targets in CG_TRANSITIONS.items():
            assert isinstance(src, CGState)
            for t in targets:
                assert isinstance(t, CGState)
        for t in TERMINAL_STATES:
            assert CG_TRANSITIONS[t] == ()

    def test_communicating_states_subset(self):
        assert set(COMMUNICATING_STATES) <= set(CGState)

    def test_visit_sequence_follows_graph(self):
        """Every fabric engine's visits are a path through the graph."""
        problem = make_problem(4, 4, 2, seed=1)
        for engine in ENGINE_NAMES:
            visits = _fabric_solve(problem, engine).state_visits
            assert visits[0] is CGState.INIT
            assert visits[-1] in TERMINAL_STATES
            for a, nxt in zip(visits, visits[1:]):
                assert nxt in CG_TRANSITIONS[a], f"{engine}: illegal {a} -> {nxt}"

    def test_one_iteration_visits_core_loop(self):
        """One iteration walks INIT's on-device residual, then the loop
        body once, then stops at MAXITER."""
        problem = make_problem(4, 4, 2, seed=1)
        init = [CGState.INIT, *_RESIDUAL]
        body = [
            CGState.EXCHANGE, CGState.COMPUTE_JX, CGState.DOT_PAP,
            CGState.COMPUTE_ALPHA, CGState.UPDATE_SOL, CGState.UPDATE_RES,
            CGState.DOT_RR, CGState.THRES_CHECK, CGState.COMPUTE_BETA,
            CGState.UPDATE_DIR, CGState.ITER_CHECK,
        ]
        for engine in ENGINE_NAMES:
            report = _fabric_solve(problem, engine, tol_rtr=0.0, max_iters=1)
            assert report.iterations == 1, engine
            assert report.state_visits == init + body + [CGState.MAXITER], engine

    def test_maxiter_state(self):
        problem = make_problem(4, 4, 2, seed=1)
        for engine in ENGINE_NAMES:
            report = _fabric_solve(problem, engine, tol_rtr=0.0, max_iters=2)
            assert not report.converged, engine
            assert report.iterations == 2, engine
            assert report.state_visits[-1] is CGState.MAXITER, engine

    def test_zero_rhs_short_circuit(self):
        """With zero Dirichlet values the system's right-hand side is zero,
        so ``r0 = 0`` and every engine converges at its first ITER_CHECK
        with a zero pressure."""
        base = make_problem(4, 4, 2, seed=1)
        problem = build_problem(
            base.grid, base.permeability,
            DirichletSet(base.grid, mask=base.dirichlet.mask),
        )
        for engine in ENGINE_NAMES:
            for dtype in (np.float32, np.float64):
                report = _fabric_solve(problem, engine, dtype=dtype)
                assert report.converged, engine
                assert report.iterations == 0, engine
                assert report.pressure.dtype == dtype
                np.testing.assert_array_equal(report.pressure, 0.0)
                assert report.state_visits == [
                    CGState.INIT, *_RESIDUAL, CGState.CONVERGED
                ], engine


class TestBaselines:
    def test_scipy_matches_reference(self, small_problem):
        coeffs = small_problem.coefficients
        J = assemble_jacobian(coeffs, small_problem.dirichlet)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(small_problem.grid.num_cells)
        b[small_problem.dirichlet.mask.reshape(-1)] = 0.0
        ref = conjugate_gradient(lambda v: J @ v, b, tol_rtr=1e-18)
        scp = scipy_cg_baseline(J, b, tol_rtr=1e-18)
        assert scp.converged
        np.testing.assert_allclose(scp.x, ref.x, rtol=1e-6, atol=1e-9)

    def test_dense_direct(self):
        A, b = _spd_system(n=20, seed=11)
        x = dense_direct_solve(A, b)
        np.testing.assert_allclose(A @ x, b, rtol=1e-9)

    def test_dense_direct_sparse_input(self, small_problem):
        import scipy.sparse as sp

        J = assemble_jacobian(small_problem.coefficients, small_problem.dirichlet)
        b = np.zeros(small_problem.grid.num_cells)
        b[0] = 1.0
        x = dense_direct_solve(J, b)
        np.testing.assert_allclose(J @ x, b, atol=1e-8)

    def test_dense_direct_size_guard(self):
        big = np.eye(25_000)
        with pytest.raises(ConvergenceError, match="20k"):
            dense_direct_solve(big, np.zeros(25_000))


class TestJacobiPCG:
    def test_matches_plain_cg_solution(self):
        A, b = _spd_system(seed=13)
        diag = np.diag(A).copy()
        plain = conjugate_gradient(lambda v: A @ v, b, tol_rtr=1e-20)
        pcg = conjugate_gradient(
            lambda v: A @ v, b, tol_rtr=1e-20, precondition=lambda r: r / diag
        )
        assert pcg.converged
        np.testing.assert_allclose(pcg.x, plain.x, rtol=1e-6)

    def test_helps_on_badly_scaled_system(self):
        """Diagonal scaling must cut iterations on a badly-scaled SPD matrix."""
        rng = np.random.default_rng(17)
        n = 60
        scales = np.logspace(0, 4, n)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        A = Q @ np.diag(rng.uniform(1, 2, n)) @ Q.T  # well-conditioned core
        A = np.diag(scales) @ A @ np.diag(scales)  # badly scaled
        b = rng.standard_normal(n)
        plain = conjugate_gradient(lambda v: A @ v, b, rel_tol=1e-10, max_iters=4000)
        diag = np.diag(A).copy()
        pcg = conjugate_gradient(
            lambda v: A @ v, b, tol_rtr=plain.final_rtr,
            precondition=lambda r: r / diag,
        )
        assert pcg.converged
        assert pcg.iterations < plain.iterations

    def test_zero_rhs(self):
        diag = np.ones(3)
        result = conjugate_gradient(
            lambda v: v, np.zeros(3), precondition=lambda r: r / diag
        )
        assert result.converged and result.iterations == 0

    def test_identity_preconditioner_is_plain_cg_bitwise(self):
        """``M = I`` through the preconditioned branch reproduces plain
        CG bit for bit: the branch runs Algorithm 1's recurrence with
        ``z = M^{-1} r`` in place of ``r``, and nothing else."""
        A, b = _spd_system(seed=19)
        plain = conjugate_gradient(lambda v: A @ v, b, rel_tol=1e-10)
        identity = conjugate_gradient(
            lambda v: A @ v, b, rel_tol=1e-10, precondition=lambda r: r
        )
        assert identity.iterations == plain.iterations > 0
        assert identity.residual_history == plain.residual_history
        np.testing.assert_array_equal(identity.x, plain.x)


class TestSolverAgreementOnFvProblem:
    @given(solvable_grid_dims, st.integers(0, 3))
    def test_all_paths_agree(self, dims, seed):
        """Reference CG and dense direct agree."""
        problem = make_problem(*dims, seed=seed)
        J = assemble_jacobian(problem.coefficients, problem.dirichlet)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(problem.grid.num_cells)
        b[problem.dirichlet.mask.reshape(-1)] = 0.0

        direct = dense_direct_solve(J, b)
        ref = conjugate_gradient(lambda v: J @ v, b, rel_tol=1e-12, max_iters=5000)

        assert ref.converged
        np.testing.assert_allclose(ref.x, direct, rtol=1e-5, atol=1e-8)
