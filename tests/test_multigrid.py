"""Unit tests for the geometric multigrid preconditioner (`repro.mg`).

Pins the numerical contract the engines rely on: level construction is
the variational (Galerkin) coarse operator for piecewise-constant
transfer, the laid-out restriction/prolongation are exact adjoints, the
damped-Jacobi smoother holds the exact solution fixed, one V-cycle is a
symmetric positive contraction in float64 and in float32 that allocates
nothing when warm, a hierarchy is built in the solve's working
precision, the spec knobs validate/round-trip, and every linear system
(every Δt of a simulation) builds one hierarchy.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.sparse import _sparsetools

from helpers import make_problem
from stencil_reference import internal_faces
import repro
from repro.core.solver import (
    WseMatrixFreeSolver,
    simulate_reports,
    simulate_reports_batch,
    solve_batch,
)
from repro.mg import (
    MAX_MG_LEVELS,
    build_hierarchy,
    hierarchy_for_problem,
    mg_apply,
    planned_level_shapes,
)
from repro.mg import hierarchy as mg_hierarchy
from repro.physics.transient import TransientStepper
from repro.solvers.cg import conjugate_gradient
from repro.solvers.preconditioning import build_preconditioner
from repro.spec import SolveSpec
from repro.util.errors import ConfigurationError, ValidationError
from repro.wse.specs import WSE2


def _sweeps(level, z, r, sweeps):
    """``sweeps`` smoother updates ``z ← c + S z``, ``c = ωD⁻¹ r``, of
    ``z`` towards ``A z = r``, on the level's laid-out operands; returns
    the new ``z``."""
    c = (r * level.weight).reshape(-1)
    z = np.asarray(z, level.op.dtype).reshape(-1)
    for _ in range(sweeps):
        z, into = c.copy(), z
        _sparsetools.dia_matvec(*level.smoother, into, z)
    return z.reshape(level.shape)


def _restricted(fine, coarse, r):
    """``R r`` through the laid-out restriction, into a zeroed coarse
    vector as the V-cycle runs it."""
    rc = np.zeros(coarse.shape, coarse.op.dtype)
    r = np.asarray(r, fine.op.dtype).reshape(-1)
    _sparsetools.csr_matvec(*fine.restriction, r, rc.reshape(-1))
    return rc


def _prolonged(fine, coarse, zc):
    """``P zc`` through the laid-out prolongation, added to ``z = 0``."""
    z = np.zeros(fine.shape, fine.op.dtype)
    zc = np.asarray(zc, coarse.op.dtype).reshape(-1)
    _sparsetools.csc_matvec(*fine.prolongation, zc, z.reshape(-1))
    return z


def _masked_random(shape, mask, seed):
    """A random fine/coarse vector, zero on masked cells (the engine
    residual invariant)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape)
    v[mask] = 0.0
    return v


@pytest.fixture(scope="module")
def problem():
    return make_problem(12, 10, 4, seed=31)


@pytest.fixture(scope="module")
def hierarchy(problem):
    return hierarchy_for_problem(problem, accumulation=None)


@pytest.fixture(scope="module")
def hierarchy32(problem):
    return hierarchy_for_problem(problem, dtype=np.float32)


#: Float32 rounding, the bound a float32 V-cycle is held to.
F32_EPS = float(np.finfo(np.float32).eps)


def _assert_contracts(problem, hier):
    """The stationary MG iteration contracts the residual hard — this is
    what buys the CG iteration reduction."""
    level = hier.levels[0]
    op = problem.operator()
    b = _masked_random(level.shape, level.mask, seed=6)
    x = np.zeros_like(b)
    r = b.copy()
    norms = [np.linalg.norm(r)]
    for _ in range(5):
        x += mg_apply(hier, r)
        r = b - op(x)
        r[level.mask] = 0.0
        norms.append(np.linalg.norm(r))
    # Monotone contraction, with the first V-cycle alone knocking
    # off ~an order of magnitude on this heterogeneous field.
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert norms[1] < 0.2 * norms[0]
    assert norms[-1] < 0.05 * norms[0]


def _symmetry_pair(hier):
    """``(M⁻¹u)·v`` and ``u·(M⁻¹v)`` for masked random ``u``, ``v``."""
    level = hier.levels[0]
    u = _masked_random(level.shape, level.mask, seed=7)
    v = _masked_random(level.shape, level.mask, seed=8)
    uv = float(np.vdot(mg_apply(hier, u), v).real)
    vu = float(np.vdot(u, mg_apply(hier, v)).real)
    return uv, vu


def _assert_masked_cells_stay_zero(hier):
    level = hier.levels[0]
    r = _masked_random(level.shape, level.mask, seed=10)
    z = mg_apply(hier, r)
    assert np.all(z[level.mask] == 0.0)


class TestLevelConstruction:
    def test_planned_shapes_semi_coarsen_laterally(self):
        shapes = planned_level_shapes((12, 10, 4))
        assert shapes[0] == (12, 10, 4)
        # ceil(n/2) laterally, z untouched, stops once both laterals <= 2.
        assert shapes[1] == (6, 5, 4)
        assert shapes[2] == (3, 3, 4)
        assert shapes[3] == (2, 2, 4)
        assert all(s[2] == 4 for s in shapes)
        assert shapes == shapes[: MAX_MG_LEVELS]

    def test_planned_shapes_respect_level_cap(self):
        assert len(planned_level_shapes((64, 64, 4), levels=3)) == 3
        assert len(planned_level_shapes((4, 4, 2), levels=9)) <= 9

    def test_hierarchy_matches_plan(self, problem, hierarchy):
        plan = planned_level_shapes(problem.dirichlet.mask.shape)
        assert hierarchy.level_shapes() == [list(s) for s in plan]

    def test_fine_level_is_the_engine_operator(self, problem, hierarchy):
        """Level 0's matrix-free apply must be the problem operator."""
        fine = hierarchy.levels[0]
        x = np.random.default_rng(0).standard_normal(fine.shape)
        # The problem's coefficients are float32; the hierarchy promotes
        # them to float64, so agreement is at f32 resolution.
        np.testing.assert_allclose(
            fine.op.apply(x), problem.operator()(x), rtol=2e-5, atol=1e-3
        )

    def test_coarse_diag_is_row_sum(self, hierarchy):
        """Galerkin identity: every level's diagonal is the sum of its
        faces plus the accumulation (identity on masked rows)."""
        for level in hierarchy.levels:
            expected = level.acc.copy()
            for axis, f in enumerate(internal_faces(level.op.faces)):
                lo = [slice(None)] * 3
                hi = [slice(None)] * 3
                lo[axis] = slice(0, -1)
                hi[axis] = slice(1, None)
                expected[tuple(lo)] += f
                expected[tuple(hi)] += f
            expected[level.mask] = 1.0
            np.testing.assert_allclose(level.op.diagonal, expected, rtol=1e-13)
            assert np.all(level.op.diagonal > 0)

    def test_faces_vanish_where_no_upper_neighbour(self, hierarchy):
        """Each level's per-cell faces are zero on the last plane of
        their axis: the flat stencil reads them as the couplings its
        shift would wrap across."""
        for level in hierarchy.levels:
            fx, fy, fz = level.op.faces
            assert not fx[-1].any()
            assert not fy[:, -1].any()
            assert not fz[:, :, -1].any()

    def test_masks_propagate_by_aggregate(self, hierarchy):
        fine, coarse = hierarchy.levels[0], hierarchy.levels[1]
        nxc, nyc, _ = coarse.shape
        for i in range(nxc):
            for j in range(nyc):
                agg = fine.mask[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                np.testing.assert_array_equal(
                    coarse.mask[i, j], agg.any(axis=(0, 1))
                )

    def test_coarsest_gets_dense_solve(self, hierarchy):
        assert hierarchy.levels[-1].dense_inv is not None
        assert hierarchy.telemetry(3)["coarse_solve"] == "dense"

    def test_transient_accumulation_folds_into_every_level(self, problem):
        acc = np.full(problem.dirichlet.mask.shape, 0.7)
        hier = hierarchy_for_problem(problem, accumulation=acc)
        cells = 1.0
        for level in hier.levels:
            # piecewise-constant Galerkin: coarse acc = aggregate sum
            unmasked = ~level.mask
            assert np.all(level.acc[unmasked] >= 0.7 * cells - 1e-12)
            cells *= 1.0  # aggregates vary in size; just check presence
            assert np.any(level.acc[unmasked] > 0)

    def test_nonpositive_diagonal_rejected(self, problem):
        acc = np.full(problem.dirichlet.mask.shape, -1e9)
        with pytest.raises(ConfigurationError, match="positive"):
            hierarchy_for_problem(problem, accumulation=acc)


class TestTransfers:
    def test_restriction_prolongation_adjoint(self, hierarchy):
        """<R r, z>_coarse == <r, P z>_fine on the mask-zero subspace."""
        fine, coarse = hierarchy.levels[0], hierarchy.levels[1]
        r = _masked_random(fine.shape, fine.mask, seed=1)
        zc = _masked_random(coarse.shape, coarse.mask, seed=2)
        lhs = float(np.vdot(_restricted(fine, coarse, r), zc).real)
        rhs = float(np.vdot(r, _prolonged(fine, coarse, zc)).real)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_restrict_zeroes_masked_coarse_cells(self, hierarchy):
        fine, coarse = hierarchy.levels[0], hierarchy.levels[1]
        r = np.ones(fine.shape)
        rc = _restricted(fine, coarse, r)
        assert np.all(rc[coarse.mask] == 0.0)

    def test_prolong_zeroes_masked_fine_cells(self, hierarchy):
        """A coarse correction that is zero on masked coarse cells (what
        every coarse level holds after its cycle, see below) adds
        nothing to a masked fine cell: its aggregate is masked."""
        fine, coarse = hierarchy.levels[0], hierarchy.levels[1]
        zf = _prolonged(fine, coarse, np.where(coarse.mask, 0.0, 1.0))
        assert np.all(zf[fine.mask] == 0.0)

    def test_coarse_corrections_are_plus_zero_on_masked_cells(self, hierarchy):
        """After a V-cycle every coarse level's ``z`` is exactly +0.0 on
        its masked cells, sign bit included, even for an ``r`` that is
        not zero on the fine mask: so adding it to the fine ``z`` is
        bitwise adding the zeroed copy."""
        level = hierarchy.levels[0]
        r = np.random.default_rng(15).standard_normal(level.shape)
        mg_apply(hierarchy, r)
        for coarse in hierarchy.levels[1:]:
            held = coarse.z[coarse.mask]
            assert held.size
            assert np.all(held == 0.0) and not np.signbit(held).any()

    def test_restrict_is_aggregate_sum(self, hierarchy):
        fine, coarse = hierarchy.levels[0], hierarchy.levels[1]
        r = _masked_random(fine.shape, fine.mask, seed=3)
        rc = _restricted(fine, coarse, r)
        i, j = 0, 0  # first unmasked aggregate
        while coarse.mask[i, j, 0]:
            j += 1
        agg = r[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].sum(axis=(0, 1))
        np.testing.assert_allclose(rc[i, j], agg, rtol=1e-13)


class TestSmoother:
    def test_exact_solution_is_a_fixed_point(self, problem):
        """With z solving A z = r exactly, every sweep is a no-op."""
        hier = hierarchy_for_problem(problem, levels=1)
        level = hier.levels[0]
        assert level.dense_inv is not None
        r = _masked_random(level.shape, level.mask, seed=4)
        z = (level.dense_inv @ r.reshape(-1)).reshape(level.shape)
        z[level.mask] = 0.0
        out = _sweeps(level, z, r, sweeps=3)
        np.testing.assert_allclose(out, z, atol=1e-10)

    def test_sweep_reduces_residual(self, hierarchy):
        level = hierarchy.levels[0]
        r = _masked_random(level.shape, level.mask, seed=5)
        z1 = _sweeps(level, np.zeros_like(r), r, sweeps=1)
        z2 = _sweeps(level, z1, r, sweeps=1)
        res1 = np.linalg.norm(r - level.op.apply(z1))
        res2 = np.linalg.norm(r - level.op.apply(z2))
        assert res2 < res1 < np.linalg.norm(r)

    def test_first_sweep_from_zero_skips_the_apply(self, problem, monkeypatch):
        """From ``z = 0`` the first sweep is ``z = c = ωD⁻¹·r``: bitwise
        what a full sweep ``c + S·0`` computes, without applying ``S``
        to zero or reading the level's old scratch.  A one-level
        hierarchy too big for the dense solve is exactly the fallback
        sweeps from zero."""
        monkeypatch.setattr(mg_hierarchy, "DENSE_SOLVE_MAX_CELLS", 8)
        hier = hierarchy_for_problem(problem, levels=1)
        level = hier.levels[0]
        assert hier.telemetry(1)["coarse_solve"] == "smooth"
        r = _masked_random(level.shape, level.mask, seed=11)
        full = _sweeps(level, np.zeros_like(r), r, mg_hierarchy.COARSE_FALLBACK_SWEEPS)
        for scratch in (level.c, level.z, level.az):
            scratch[...] = np.nan  # the shortcut must not read the old z
        np.testing.assert_array_equal(mg_apply(hier, r), full)


class TestVCycle:
    def test_contraction(self, problem, hierarchy):
        _assert_contracts(problem, hierarchy)

    def test_symmetry(self, hierarchy):
        """M⁻¹ must be symmetric on the mask-zero subspace or the PCG
        recurrence is not a CG."""
        uv, vu = _symmetry_pair(hierarchy)
        assert uv == pytest.approx(vu, rel=1e-11)

    def test_float64_and_deterministic(self, hierarchy):
        level = hierarchy.levels[0]
        r32 = _masked_random(level.shape, level.mask, seed=9).astype(np.float32)
        z1 = mg_apply(hierarchy, r32)
        z2 = mg_apply(hierarchy, r32)
        assert z1.dtype == np.float64
        np.testing.assert_array_equal(z1, z2)

    def test_result_belongs_to_the_caller(self, hierarchy):
        """The next V-cycle on the same hierarchy leaves the last
        result alone: its scratch is not handed out."""
        level = hierarchy.levels[0]
        r1 = _masked_random(level.shape, level.mask, seed=12)
        r2 = _masked_random(level.shape, level.mask, seed=13)
        z1 = mg_apply(hierarchy, r1)
        kept = z1.copy()
        z2 = mg_apply(hierarchy, r2)
        np.testing.assert_array_equal(z1, kept)
        assert not np.shares_memory(z1, z2)
        assert not any(
            np.shares_memory(z1, a)
            for lvl in hierarchy.levels
            for a in (lvl.rhs, lvl.c, lvl.z, lvl.az)
        )

    def test_dropped_hierarchy_is_freed_without_the_cycle_collector(self, problem):
        """Nothing in a hierarchy refers back to it, so reference
        counting frees it (and its scratch) when the last reference
        goes; a cycle would keep every step's hierarchy alive until the
        cyclic collector ran."""
        gc.disable()
        try:
            hier = hierarchy_for_problem(
                problem, accumulation=np.full(problem.dirichlet.mask.shape, 0.3)
            )
            level = hier.levels[0]
            mg_apply(hier, _masked_random(level.shape, level.mask, seed=14))
            alive = weakref.ref(hier)
            del hier, level
            assert alive() is None
        finally:
            gc.enable()

    def test_misshaped_residual_is_rejected(self):
        """A residual that is not grid-shaped raises instead of
        broadcasting through ``M``."""
        problem = make_problem(8, 8, 2, seed=3)
        hier = hierarchy_for_problem(problem)
        with pytest.raises(ValidationError, match="r shape"):
            mg_apply(hier, np.ones((8, 2)))
        for name in ("mg", "jacobi"):
            precondition = build_preconditioner(problem, name)
            with pytest.raises(ValidationError, match="r shape"):
                precondition(np.ones((8, 2)))
            assert precondition(np.ones((8, 8, 2))).shape == (8, 8, 2)

    def test_masked_cells_stay_zero(self, hierarchy):
        _assert_masked_cells_stay_zero(hierarchy)

    def test_pcg_beats_plain_cg(self, problem):
        """The headline: MG-PCG needs far fewer iterations at the same
        absolute tolerance."""
        op = problem.operator()
        p0 = problem.initial_pressure(dtype=np.float64)
        from repro.fv.residual import compute_residual

        b = -compute_residual(problem.coefficients, problem.dirichlet, p0)
        tol = 1e-10 * float(np.vdot(b, b).real)
        plain = conjugate_gradient(op, b, tol_rtr=tol, max_iters=5000)
        mg = conjugate_gradient(
            op, b, tol_rtr=tol, max_iters=5000,
            precondition=build_preconditioner(problem, "mg"),
        )
        assert plain.converged and mg.converged
        assert mg.iterations * 5 <= plain.iterations
        # f32 operator arithmetic floors how closely the two agree.
        np.testing.assert_allclose(mg.x, plain.x, atol=1e-4)

    def test_smoother_iters_validated(self, problem, monkeypatch):
        """A bad ``smoother_iters`` is rejected before any level is
        built."""
        coarsened = []

        def counting(fine):
            coarsened.append(fine.shape)
            return coarsen(fine)

        coarsen = mg_hierarchy._coarsen
        monkeypatch.setattr(mg_hierarchy, "_coarsen", counting)
        with pytest.raises(ConfigurationError, match="smoother_iters"):
            hierarchy_for_problem(problem, smoother_iters=0)
        with pytest.raises(ConfigurationError, match="smoother_iters"):
            hierarchy_for_problem(problem, smoother_iters=9)
        assert coarsened == []
        hierarchy_for_problem(problem, smoother_iters=8)
        assert coarsened  # the counter does see a real build


class TestWorkingPrecision:
    """A hierarchy built in float32 holds its operators and scratch in
    float32, so its V-cycle runs in float32: the same contraction,
    symmetry and zero-on-mask invariants, at float32 rounding."""

    def test_every_level_is_float32(self, hierarchy32):
        for level in hierarchy32.levels:
            arrays = (
                *level.op.faces, level.op.diagonal, level.weight, level.smoother[-1],
                *level.negated[-1:], *level.restriction[-1:], *level.prolongation[-1:],
                level.rhs, level.c, level.z, level.az,
            )
            assert all(a.dtype == np.float32 for a in arrays)
            assert level.acc.dtype == np.float64  # built from, not run in
        assert hierarchy32.levels[-1].dense_inv.dtype == np.float32
        level = hierarchy32.levels[0]
        r = _masked_random(level.shape, level.mask, seed=9)
        assert mg_apply(hierarchy32, r).dtype == np.float32

    def test_shapes_and_schedule_match_float64(self, hierarchy, hierarchy32):
        assert hierarchy32.level_shapes() == hierarchy.level_shapes()
        assert hierarchy32.telemetry(5) == hierarchy.telemetry(5)
        for lo, hi in zip(hierarchy32.levels, hierarchy.levels):
            np.testing.assert_array_equal(lo.mask, hi.mask)

    def test_deterministic(self, hierarchy32):
        """Bitwise reruns, and a float32 ``r`` gathered into float64 (the
        event oracle's V-cycle barrier) gives the array engines' ``z``."""
        level = hierarchy32.levels[0]
        r = _masked_random(level.shape, level.mask, seed=9).astype(np.float32)
        z = mg_apply(hierarchy32, r)
        np.testing.assert_array_equal(z, mg_apply(hierarchy32, r))
        np.testing.assert_array_equal(z, mg_apply(hierarchy32, r.astype(np.float64)))

    def test_masked_cells_stay_zero(self, hierarchy32):
        _assert_masked_cells_stay_zero(hierarchy32)

    def test_contraction(self, problem, hierarchy32):
        _assert_contracts(problem, hierarchy32)

    def test_symmetry(self, hierarchy32):
        uv, vu = _symmetry_pair(hierarchy32)
        assert uv == pytest.approx(vu, rel=16 * F32_EPS)

    def test_agrees_with_float64_to_float32_rounding(self, hierarchy, hierarchy32):
        level = hierarchy.levels[0]
        for seed in (16, 17, 18):
            r = _masked_random(level.shape, level.mask, seed=seed)
            z64 = mg_apply(hierarchy, r)
            z32 = mg_apply(hierarchy32, r)
            gap = np.max(np.abs(z32 - z64))
            assert gap <= 8 * F32_EPS * np.max(np.abs(z64))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_out_takes_the_result(self, problem, dtype):
        """``out=`` receives bitwise the ``z`` a fresh result holds, and
        is what ``mg_apply`` returns."""
        hier = hierarchy_for_problem(problem, dtype=dtype)
        level = hier.levels[0]
        r = _masked_random(level.shape, level.mask, seed=19).astype(np.float32)
        z = np.full(level.shape, np.nan, dtype=np.float32)
        assert mg_apply(hier, r, out=z) is z
        np.testing.assert_array_equal(z, mg_apply(hier, r).astype(np.float32))

    def test_warm_cycle_allocates_nothing(self):
        """A warm ``mg_apply(..., out=z)`` on a 64×64×4 float32 transient
        hierarchy peaks below a quarter of a fine-level array under
        tracemalloc: the cycle runs in the levels' scratch, and none of
        its kernels buffers a strided operand."""
        problem = repro.scenario("transient_injection", nx=64, ny=64, nz=4, seed=3).build()
        acc = TransientStepper(problem, dts=[2.0], total_compressibility=5e-3).begin(0)[0]
        hier = hierarchy_for_problem(problem, accumulation=acc, dtype=np.float32)
        level = hier.levels[0]
        r = _masked_random(level.shape, level.mask, seed=21).astype(np.float32)
        z = np.empty(level.shape, np.float32)
        mg_apply(hier, r, out=z)
        tracemalloc.start()
        try:
            mg_apply(hier, r, out=z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < z.nbytes / 4

    def test_misshaped_out_is_rejected(self, hierarchy32):
        level = hierarchy32.levels[0]
        r = _masked_random(level.shape, level.mask, seed=20)
        with pytest.raises(ValidationError, match="out shape"):
            mg_apply(hierarchy32, r, out=np.zeros(level.shape[:2], np.float32))


class TestSpecKnobs:
    def test_round_trip(self):
        spec = SolveSpec.from_kwargs(
            preconditioner="mg", mg_levels=3, mg_smoother_iters=1
        )
        data = spec.to_dict()
        assert data["preconditioner"] == "mg"
        assert data["mg_levels"] == 3
        assert data["mg_smoother_iters"] == 1
        back = SolveSpec.from_dict(data)
        assert back.preconditioner == "mg"
        assert back.mg_levels == 3
        assert back.mg_smoother_iters == 1
        assert back.to_dict() == data

    def test_mg_knobs_absent_unless_mg(self):
        data = SolveSpec.from_kwargs(preconditioner="jacobi").to_dict()
        assert "mg_levels" not in data
        assert "mg_smoother_iters" not in data

    def test_mg_knobs_require_mg(self):
        with pytest.raises(ConfigurationError, match="mg"):
            SolveSpec.from_kwargs(preconditioner="jacobi", mg_levels=3)
        with pytest.raises(ConfigurationError, match="mg"):
            SolveSpec.from_kwargs(mg_smoother_iters=2)

    def test_mg_knob_ranges(self):
        with pytest.raises(ConfigurationError, match="mg_levels"):
            SolveSpec.from_kwargs(preconditioner="mg", mg_levels=0)
        with pytest.raises(ConfigurationError, match="mg_levels"):
            SolveSpec.from_kwargs(preconditioner="mg", mg_levels=99)
        with pytest.raises(ConfigurationError, match="mg_smoother_iters"):
            SolveSpec.from_kwargs(preconditioner="mg", mg_smoother_iters=0)

    def test_unknown_preconditioner_rejected(self):
        with pytest.raises(ConfigurationError, match="preconditioner"):
            SolveSpec.from_kwargs(preconditioner="ilu")
        with pytest.raises(ConfigurationError, match="ilu"):
            build_preconditioner(make_problem(3, 3, 2, seed=1), "ilu")


#: A converging mg solve: ``rel_tol`` set, so tolerance resolution and
#: staging both need the hierarchy.
MG_SOLVE = dict(
    spec=WSE2.with_fabric(8, 8), dtype=np.float64, preconditioner="mg",
    rel_tol=1e-6,
)


class TestOneHierarchyBuildPerSystem:
    """Each linear system builds its V-cycle hierarchy exactly once, and
    tolerance resolution, staging and telemetry share that build; a
    simulation builds one per Δt, since its steps at one Δt share the
    operator."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The hierarchies both public builders return, wrapped on
        ``repro.mg`` the way ``perfbench/tracing.py`` hooks them."""
        import repro.mg

        calls = []

        def counting(original):
            def counted(*args, **kwargs):
                hier = original(*args, **kwargs)
                calls.append(hier)
                return hier

            return counted

        for name in ("build_hierarchy", "hierarchy_for_problem"):
            monkeypatch.setattr(repro.mg, name, counting(getattr(repro.mg, name)))
        return calls

    @pytest.mark.parametrize("engine", ["event", "vectorized", "fused", "sharded"])
    def test_serial_solve(self, builds, engine):
        problem = make_problem(4, 4, 2, seed=5)
        report = WseMatrixFreeSolver(problem, engine=engine, **MG_SOLVE).solve()
        assert report.converged
        assert len(builds) == 1

    def test_one_per_batched_lane(self, builds):
        problems = [make_problem(4, 4, 2, seed=seed) for seed in (5, 6, 7)]
        reports = solve_batch(problems, engine="vectorized", **MG_SOLVE)
        assert all(report.converged for report in reports)
        assert len(builds) == 3

    def test_one_per_simulation_step(self, builds):
        """One per Δt: the two steps at Δt = 2 share one build."""
        problem = make_problem(4, 4, 2, seed=5)
        steps = list(simulate_reports(
            problem, engine="vectorized", dts=[1.0, 2.0, 2.0], **MG_SOLVE
        ))
        assert len(steps) == 3
        assert len(builds) == 2

    def test_one_per_lane_and_dt_in_a_batched_simulation(self, builds):
        problems = [make_problem(4, 4, 2, seed=seed) for seed in (5, 6)]
        steps = list(simulate_reports_batch(
            problems, engine="fused", dts=[1.0, 2.0, 2.0], **MG_SOLVE
        ))
        assert len(steps) == 3 and all(len(lanes) == 2 for lanes in steps)
        assert len(builds) == 4

    def test_one_per_dt_in_a_reference_simulation(self, builds):
        sim = repro.simulate(
            make_problem(4, 4, 2, seed=5), backend="reference",
            spec=SolveSpec.from_kwargs(
                preconditioner="mg", n_steps=3, dt=[1.0, 2.0, 2.0]
            ),
        )
        assert len(sim.steps) == 3
        assert len(builds) == 2

    @pytest.mark.parametrize("engine", ["fused", "event"])
    def test_steps_equal_fresh_solves_of_their_systems(self, builds, engine):
        """Each step of a simulation that reuses ``M`` (and its charge
        packet) across equal Δt equals, byte for byte, a standalone
        solve of that step's system with everything built afresh."""
        problem = make_problem(4, 4, 2, seed=5)
        dts = [1.0, 2.0, 2.0, 1.0]
        steps = list(simulate_reports(problem, engine=engine, dts=dts, **MG_SOLVE))
        assert len(builds) == 3
        stepper = TransientStepper(problem, dts=dts)
        for index, step in zip(stepper.pending(), steps):
            acc, rhs, guess = stepper.begin(index)
            fresh = WseMatrixFreeSolver(
                problem, engine=engine, initial_pressure=guess,
                accumulation=acc, rhs=rhs, **MG_SOLVE,
            ).solve()
            assert step.pressure.tobytes() == fresh.pressure.tobytes()
            assert step.iterations == fresh.iterations
            assert step.converged == fresh.converged
            assert step.residual_history == fresh.residual_history
            assert step.counters.to_dict() == fresh.counters.to_dict()
            assert step.trace.to_dict() == fresh.trace.to_dict()
            assert step.preconditioner == fresh.preconditioner
            stepper.advance(fresh.pressure)

    def test_one_charge_packet_per_hierarchy_and_machine(self):
        """A hierarchy keeps one V-cycle packet per machine: the same
        machine gets the same packet back, another machine its own, and
        each equals a packet built on a fresh hierarchy."""
        from repro.mg import build_mg_packet
        from repro.wse.vector_engine import _ChargeModel

        problem = make_problem(4, 4, 2, seed=5)
        hier = hierarchy_for_problem(problem)

        def machine(width, simd_width):
            return _ChargeModel(
                width=width, height=4, depth=2, simd_width=simd_width,
                spec=WSE2, suppress=False, kind_counts={}, kernel_plans={},
            )

        packets = {}
        for width, simd in ((4, 2), (4, 1), (8, 2)):
            packet = build_mg_packet(machine(width, simd), hier)
            assert build_mg_packet(machine(width, simd), hier) is packet
            fresh = build_mg_packet(machine(width, simd), hierarchy_for_problem(problem))
            assert packet is not fresh
            assert packet.counters.to_dict() == fresh.counters.to_dict()
            assert packet.trace.to_dict() == fresh.trace.to_dict()
            assert packet.num_pes == fresh.num_pes == width * 4
            packets[width, simd] = packet
        assert len({id(p) for p in packets.values()}) == 3
        assert packets[4, 2].counters.to_dict() != packets[4, 1].counters.to_dict()

    def test_reference_solve(self, builds):
        result = repro.solve(
            make_problem(4, 4, 2, seed=5), backend="reference",
            spec=SolveSpec.from_kwargs(preconditioner="mg"),
        )
        assert result.telemetry["preconditioner"]["kind"] == "mg"
        assert len(builds) == 1

    @staticmethod
    def _dtypes(hier):
        """The dtypes a captured hierarchy's levels are built in."""
        return {level.op.dtype for level in hier.levels}

    def test_solves_build_in_their_working_precision(self, builds):
        """The solve's ``dtype`` knob is the hierarchy's: a float32 solve
        runs a float32 V-cycle, a float64 solve a float64 one, and the
        reference backend's ``M`` is float64 whatever the spec's."""
        problem = make_problem(4, 4, 2, seed=5)
        for dtype in (np.float32, np.float64):
            report = WseMatrixFreeSolver(
                problem, engine="fused", **{**MG_SOLVE, "dtype": dtype},
            ).solve()
            assert report.converged
        repro.solve(problem, backend="reference", spec=SolveSpec.from_kwargs(
            preconditioner="mg", dtype="float32",
        ))
        assert [self._dtypes(hier) for hier in builds] == [
            {np.dtype(np.float32)}, {np.dtype(np.float64)}, {np.dtype(np.float64)},
        ]

    def test_float32_simulation_builds_float32(self, builds):
        steps = list(simulate_reports(
            make_problem(4, 4, 2, seed=5), engine="fused", dts=[1.0, 2.0],
            **{**MG_SOLVE, "dtype": np.float32},
        ))
        assert len(steps) == 2 and len(builds) == 2
        assert all(self._dtypes(hier) == {np.dtype(np.float32)} for hier in builds)
