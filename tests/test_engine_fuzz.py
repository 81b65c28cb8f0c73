"""Engine-parity fuzzing: event vs. vectorized vs. batched vs. sharded
vs. fused.

Fifty seeded random cases draw grid shapes and spacings, heterogeneity
fields, boundary-condition mixes (wells, Dirichlet planes, random pinned
cells/columns) and spec knobs (kernel variant, preconditioner, buffer
reuse, SIMD width, precision, comm-only, fixed-iteration vs. converging
runs) plus shard layouts and fused cache-tile shapes, then assert the
five execution paths agree: iterates to fp round-off, and *exactly*
identical op/traffic counters, memory statistics and state sequences.

Every assertion message carries the case's derived seed, so a CI failure
reproduces locally with::

    FUZZ_CASE=<case> python -m pytest tests/test_engine_fuzz.py -k "case<case>"

(the case index IS the reproduction key: parameters are a pure function
of ``MASTER_SEED + case``).
"""

import numpy as np
import pytest

from helpers import make_problem  # noqa: F401  (documents the family origin)
import repro
from repro.core.solver import WseMatrixFreeSolver, solve_batch
from repro.mesh.boundary import DirichletSet
from repro.mesh.geomodel import layered_permeability, lognormal_permeability
from repro.mesh.grid import CartesianGrid3D
from repro.mesh.wells import quarter_five_spot
from repro.physics.darcy import build_problem
from repro.wse.specs import WSE2

MASTER_SEED = 20260729
N_CASES = 50
SPEC = WSE2.with_fabric(8, 8)


def _draw_permeability(rng, grid):
    kind = rng.choice(["lognormal", "layered", "homogeneous"], p=[0.5, 0.25, 0.25])
    if kind == "lognormal":
        return lognormal_permeability(
            grid, seed=int(rng.integers(0, 2**31)),
            sigma_log=float(rng.uniform(0.2, 1.3)),
        )
    if kind == "layered":
        return layered_permeability(
            grid, num_layers=int(rng.integers(2, max(3, grid.nz + 1))),
            low=1.0, high=float(rng.uniform(10.0, 500.0)),
            seed=int(rng.integers(0, 2**31)),
        )
    return np.full(grid.shape, float(rng.uniform(1.0, 200.0)), dtype=np.float64)


def _draw_dirichlet(rng, grid):
    """A BC mix: five-spot wells, plus optional planes/cells/columns."""
    _, dirichlet = quarter_five_spot(
        grid,
        injection_pressure=float(rng.uniform(0.5, 2.0)),
        production_pressure=float(rng.uniform(-0.5, 0.4)),
    )
    if grid.nz >= 2 and rng.random() < 0.35:  # a constant-pressure plane
        dirichlet.set_plane(2, int(rng.integers(0, grid.nz)), float(rng.uniform(0, 2)))
    if rng.random() < 0.35:  # an extra pinned column (another well)
        dirichlet.set_column(
            int(rng.integers(0, grid.nx)), int(rng.integers(0, grid.ny)),
            float(rng.uniform(0, 2)),
        )
    for _ in range(int(rng.integers(0, 4))):  # scattered pinned cells
        dirichlet.set_cell(
            int(rng.integers(0, grid.nx)), int(rng.integers(0, grid.ny)),
            int(rng.integers(0, grid.nz)), float(rng.uniform(0, 2)),
        )
    return dirichlet


def _draw_case(case: int):
    """Parameters are a pure function of the case index (reproducible)."""
    seed = MASTER_SEED + case
    rng = np.random.default_rng(seed)
    converging = rng.random() < 0.3
    if converging:
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(1, 4)))
    else:
        shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)), int(rng.integers(1, 5)))
    grid = CartesianGrid3D(
        *shape,
        dx=float(rng.uniform(0.5, 2.0)),
        dy=float(rng.uniform(0.5, 2.0)),
        dz=float(rng.uniform(0.5, 2.0)),
    )
    problem = build_problem(
        grid,
        _draw_permeability(rng, grid),
        _draw_dirichlet(rng, grid),
        viscosity=float(rng.uniform(0.5, 2.0)),
    )
    # A sibling problem on the same shape (different fields/BCs) rides in
    # lane 1 of the batched run so lane 0's freeze masking is non-trivial.
    sibling = build_problem(
        grid, _draw_permeability(rng, grid), _draw_dirichlet(rng, grid),
        viscosity=float(rng.uniform(0.5, 2.0)),
    )
    kwargs = dict(
        spec=SPEC,
        variant=str(rng.choice(["precomputed", "fused_mobility"])),
        preconditioner="jacobi" if rng.random() < 0.3 else "none",
        reuse_buffers=bool(rng.random() < 0.8),
        simd_width=int(rng.choice([1, 2, 3])),
    )
    if converging:
        kwargs.update(dtype=np.float64, rel_tol=1e-8, max_iters=3000)
    else:
        kwargs.update(
            dtype=np.float32 if rng.random() < 0.5 else np.float64,
            rel_tol=None,
            fixed_iterations=int(rng.integers(2, 7)),
        )
        if rng.random() < 0.15:
            kwargs["comm_only"] = True
    # Shard-layout draws ride at the END so every earlier draw (and
    # therefore every previously pinned case) is unchanged.  Shard
    # counts range over the full [1, n] axis — degenerate 1xN rows and
    # counts that do not divide the grid are the common case, not an
    # edge case.
    shard_shape = (
        int(rng.integers(1, problem.grid.nx + 1)),
        int(rng.integers(1, problem.grid.ny + 1)),
    )
    # Fused-tile draws ride after the shard draws (same append-at-the-end
    # contract).  Tiles range over the full [1, n] axis, so narrow
    # generic tiles, full-width slabs (the fast path) and whole-grid
    # tiles all occur; every third case auto-picks instead.
    fused_tile = (
        int(rng.integers(1, problem.grid.nx + 1)),
        int(rng.integers(1, problem.grid.ny + 1)),
    )
    if case % 3 == 0:
        fused_tile = None
    # Preconditioner draws ride after the tile draws (same append-at-
    # the-end contract): a quarter of the cases upgrade to the geometric
    # multigrid preconditioner — overriding the jacobi/none draw, whose
    # bit was already consumed above — except comm-only cases
    # (comm_only + mg is rejected by the program).
    if rng.random() < 0.25 and not kwargs.get("comm_only"):
        kwargs["preconditioner"] = "mg"
        kwargs["mg_levels"] = (
            int(rng.integers(2, 4)) if rng.random() < 0.5 else None
        )
        kwargs["mg_smoother_iters"] = int(rng.integers(1, 3))
    return seed, problem, sibling, kwargs, shard_shape, fused_tile


@pytest.mark.parametrize("case", range(N_CASES))
def test_fuzz_engine_parity(case):
    seed, problem, sibling, kwargs, shard_shape, fused_tile = _draw_case(case)
    ctx = (
        f"[fuzz case {case}: seed={seed}, grid={problem.grid.shape}, "
        f"shards={shard_shape}, tile={fused_tile}, "
        f"knobs={ {k: v for k, v in kwargs.items() if k != 'spec'} }]"
    )
    event = WseMatrixFreeSolver(problem, engine="event", **kwargs).solve()
    vector = WseMatrixFreeSolver(problem, engine="vectorized", **kwargs).solve()

    # -- event vs. vectorized -------------------------------------------------
    assert event.iterations == vector.iterations, ctx
    assert event.converged == vector.converged, ctx
    atol = 1e-8 if np.dtype(kwargs["dtype"]) == np.float64 else 5e-4
    np.testing.assert_allclose(
        vector.pressure.astype(np.float64),
        event.pressure.astype(np.float64),
        atol=atol, err_msg=ctx,
    )
    assert dict(event.counters.op_counts) == dict(vector.counters.op_counts), ctx
    # idle_cycles derives from the makespan, which the vectorized model
    # estimates (critical path) rather than schedules — everything else
    # is exact (same contract as tests/test_engine_parity.py).
    event_counts = {k: v for k, v in event.counters.to_dict().items() if k != "idle_cycles"}
    vector_counts = {k: v for k, v in vector.counters.to_dict().items() if k != "idle_cycles"}
    assert event_counts == vector_counts, ctx
    for field in (
        "total_messages", "total_wavelets", "total_hop_wavelets", "comm_busy_cycles"
    ):
        assert getattr(event.trace, field) == getattr(vector.trace, field), (field, ctx)
    assert event.memory == vector.memory, ctx
    assert event.state_visits == vector.state_visits, ctx
    assert len(event.residual_history) == len(vector.residual_history), ctx

    # -- vectorized vs. batched lane ------------------------------------------
    solver_kwargs = {k: v for k, v in kwargs.items()}
    reports = solve_batch([problem, sibling], **solver_kwargs)
    lane = reports[0]
    assert lane.iterations == vector.iterations, ctx
    np.testing.assert_array_equal(lane.pressure, vector.pressure, err_msg=ctx)
    assert lane.residual_history == vector.residual_history, ctx
    assert lane.counters.to_dict() == vector.counters.to_dict(), ctx
    assert lane.trace.to_dict() == vector.trace.to_dict(), ctx
    assert lane.memory == vector.memory, ctx
    assert lane.state_visits == vector.state_visits, ctx
    # The sibling lane is a complete, self-consistent solve of its own.
    sib = reports[1]
    sib_serial = WseMatrixFreeSolver(sibling, engine="vectorized", **kwargs).solve()
    assert sib.iterations == sib_serial.iterations, ctx
    np.testing.assert_array_equal(sib.pressure, sib_serial.pressure, err_msg=ctx)
    assert sib.counters.to_dict() == sib_serial.counters.to_dict(), ctx

    # -- vectorized vs. sharded -----------------------------------------------
    # Per-element sweeps are bitwise identical under domain decomposition;
    # the only fp divergence is the shard-ordered dot reduction, so
    # alpha/beta (and the pressure) drift at round-off and a converging
    # run may cross the tolerance one iteration early or late.  With a
    # fixed iteration count the charge sequence is identical, so every
    # counter is pinned exactly.
    sharded = WseMatrixFreeSolver(
        problem, engine="sharded", shard_shape=shard_shape, **kwargs,
    ).solve()
    assert sharded.engine == "sharded", ctx
    assert sharded.memory == vector.memory, ctx
    assert abs(sharded.iterations - vector.iterations) <= 2, ctx
    np.testing.assert_allclose(
        sharded.pressure.astype(np.float64),
        vector.pressure.astype(np.float64),
        rtol=1e-5, atol=atol, err_msg=ctx,
    )
    n_shards = shard_shape[0] * shard_shape[1]
    links = sharded.shard["links"]
    if n_shards == 1:
        assert links["halo_bytes"] == 0 and links["reduce_bytes"] == 0, ctx
    else:
        assert links["exchanges"] == sharded.iterations + 1, ctx
        assert links["halo_bytes"] > 0 and links["reduce_bytes"] > 0, ctx
    if not kwargs.get("fixed_iterations"):
        return
    # Fixed-iteration runs: the round-off channel cannot change control
    # flow, so the parity is exact across the board.
    assert sharded.iterations == vector.iterations, ctx
    assert sharded.converged == vector.converged, ctx
    assert sharded.counters.to_dict() == vector.counters.to_dict(), ctx
    assert sharded.trace.to_dict() == vector.trace.to_dict(), ctx
    assert sharded.state_visits == vector.state_visits, ctx
    # Residuals at the bottom of a converged run are catastrophically
    # cancelled (1e-29 vs 9e3 starts), so the floor scales to rtr0.
    rtr0 = max(vector.residual_history[0], 1.0)
    np.testing.assert_allclose(
        np.asarray(sharded.residual_history),
        np.asarray(vector.residual_history),
        rtol=1e-5, atol=1e-12 * rtr0, err_msg=ctx,
    )


@pytest.mark.parametrize("case", range(N_CASES))
def test_fuzz_fused_engine_parity(case):
    """The fused leg: cache-blocked single-pass sweeps vs. the vectorized
    oracle, over the case's random tile shape (plus the batched-fused
    lane and run-to-run determinism).  The only fp divergence is the
    tile-ordered dot reduction — the sharded engine's contract — so
    fixed-iteration runs pin every counter exactly."""
    seed, problem, sibling, kwargs, _shard_shape, fused_tile = _draw_case(case)
    ctx = (
        f"[fused fuzz case {case}: seed={seed}, grid={problem.grid.shape}, "
        f"tile={fused_tile}, "
        f"knobs={ {k: v for k, v in kwargs.items() if k != 'spec'} }]"
    )
    vector = WseMatrixFreeSolver(problem, engine="vectorized", **kwargs).solve()
    fused = WseMatrixFreeSolver(
        problem, engine="fused", fused_tile=fused_tile, **kwargs
    ).solve()
    assert fused.engine == "fused", ctx
    info = fused.fused
    assert info is not None and set(info) == {"tile", "tiles"}, ctx
    assert info["tiles"] >= 1 and len(info["tile"]) == 2, ctx
    if fused_tile is not None:
        assert tuple(info["tile"]) == (
            min(fused_tile[0], problem.grid.nx),
            min(fused_tile[1], problem.grid.ny),
        ), ctx
    assert fused.memory == vector.memory, ctx
    atol = 1e-8 if np.dtype(kwargs["dtype"]) == np.float64 else 5e-4
    assert abs(fused.iterations - vector.iterations) <= 2, ctx
    np.testing.assert_allclose(
        fused.pressure.astype(np.float64),
        vector.pressure.astype(np.float64),
        rtol=1e-5, atol=atol, err_msg=ctx,
    )

    # Determinism: a second identical run is bit-for-bit the first.
    again = WseMatrixFreeSolver(
        problem, engine="fused", fused_tile=fused_tile, **kwargs
    ).solve()
    np.testing.assert_array_equal(again.pressure, fused.pressure, err_msg=ctx)
    assert again.residual_history == fused.residual_history, ctx
    assert again.iterations == fused.iterations, ctx

    # Batched-fused lanes are bitwise the serial fused solve (same
    # tile order per lane, same charge composition).
    lanes = solve_batch(
        [problem, sibling], engine="fused", fused_tile=fused_tile, **kwargs
    )
    lane = lanes[0]
    assert lane.engine == "batched_fused", ctx
    np.testing.assert_array_equal(lane.pressure, fused.pressure, err_msg=ctx)
    assert lane.residual_history == fused.residual_history, ctx
    assert lane.counters.to_dict() == fused.counters.to_dict(), ctx
    assert lane.trace.to_dict() == fused.trace.to_dict(), ctx
    assert lane.memory == fused.memory, ctx
    assert lane.state_visits == fused.state_visits, ctx

    if not kwargs.get("fixed_iterations"):
        return
    # Fixed-iteration runs: the round-off channel cannot change control
    # flow, so every counter/trace/visit is pinned exactly — makespan
    # included (elapsed_seconds is makespan over the clock).
    assert fused.iterations == vector.iterations, ctx
    assert fused.converged == vector.converged, ctx
    assert fused.counters.to_dict() == vector.counters.to_dict(), ctx
    assert fused.trace.to_dict() == vector.trace.to_dict(), ctx
    assert fused.state_visits == vector.state_visits, ctx
    assert fused.elapsed_seconds == vector.elapsed_seconds, ctx
    rtr0 = max(vector.residual_history[0], 1.0)
    np.testing.assert_allclose(
        np.asarray(fused.residual_history),
        np.asarray(vector.residual_history),
        rtol=1e-5, atol=1e-12 * rtr0, err_msg=ctx,
    )


N_TRANSIENT_CASES = 12


def _draw_transient_case(case: int):
    """Transient fuzz parameters — like :func:`_draw_case`, a pure
    function of the case index, over a separate seed range."""
    seed = MASTER_SEED + 10_000 + case
    rng = np.random.default_rng(seed)
    shape = (
        int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(1, 4))
    )
    grid = CartesianGrid3D(
        *shape,
        dx=float(rng.uniform(0.5, 2.0)),
        dy=float(rng.uniform(0.5, 2.0)),
        dz=float(rng.uniform(0.5, 2.0)),
    )
    problem = build_problem(
        grid, _draw_permeability(rng, grid), _draw_dirichlet(rng, grid),
        viscosity=float(rng.uniform(0.5, 2.0)),
    )
    sibling = build_problem(
        grid, _draw_permeability(rng, grid), _draw_dirichlet(rng, grid),
        viscosity=float(rng.uniform(0.5, 2.0)),
    )
    n_steps = int(rng.integers(2, 5))
    if rng.random() < 0.4:  # a ramped Δt schedule
        dts = [float(rng.uniform(0.1, 5.0)) for _ in range(n_steps)]
    else:
        dts = [float(rng.uniform(0.1, 5.0))] * n_steps
    kwargs = dict(
        spec=SPEC,
        variant=str(rng.choice(["precomputed", "fused_mobility"])),
        preconditioner="jacobi" if rng.random() < 0.3 else "none",
        reuse_buffers=bool(rng.random() < 0.8),
        simd_width=int(rng.choice([1, 2, 3])),
        dtype=np.float64,
        rel_tol=1e-8,
        max_iters=3000,
        dts=dts,
        porosity=float(rng.uniform(0.05, 0.4)),
        total_compressibility=float(10 ** rng.uniform(-3, -1)),
        warm_start=bool(rng.random() < 0.7),
    )
    # Appended after every pre-existing draw (same contract as
    # :func:`_draw_case`): shard layout for the 4th parity leg.
    shard_shape = (
        int(rng.integers(1, problem.grid.nx + 1)),
        int(rng.integers(1, problem.grid.ny + 1)),
    )
    # Appended after the shard draws: the fused leg's cache tile.
    fused_tile = (
        int(rng.integers(1, problem.grid.nx + 1)),
        int(rng.integers(1, problem.grid.ny + 1)),
    )
    if case % 3 == 0:
        fused_tile = None
    return seed, problem, sibling, kwargs, shard_shape, fused_tile


@pytest.mark.parametrize("case", range(N_TRANSIENT_CASES))
def test_fuzz_transient_engine_parity(case):
    """Per-*step* parity on transient problems: event vs. vectorized vs.
    batched lane — iterates to fp round-off, counters/traffic/memory/state
    sequences exactly, at every backward-Euler step."""
    from repro.core.solver import simulate_reports, simulate_reports_batch

    seed, problem, sibling, kwargs, shard_shape, fused_tile = (
        _draw_transient_case(case)
    )
    ctx = (
        f"[transient fuzz case {case}: seed={seed}, "
        f"grid={problem.grid.shape}, "
        f"shards={shard_shape}, tile={fused_tile}, "
        f"knobs={ {k: v for k, v in kwargs.items() if k != 'spec'} }]"
    )
    event = list(simulate_reports(problem, engine="event", **kwargs))
    vector = list(simulate_reports(problem, engine="vectorized", **kwargs))
    assert len(event) == len(vector) == len(kwargs["dts"]), ctx

    for step, (ev, vec) in enumerate(zip(event, vector), start=1):
        sctx = (f"step {step} " + ctx, )
        assert ev.iterations == vec.iterations, sctx
        assert ev.converged == vec.converged, sctx
        np.testing.assert_allclose(
            vec.pressure.astype(np.float64),
            ev.pressure.astype(np.float64),
            atol=1e-8, err_msg=str(sctx),
        )
        ev_counts = {
            k: v for k, v in ev.counters.to_dict().items() if k != "idle_cycles"
        }
        vec_counts = {
            k: v for k, v in vec.counters.to_dict().items() if k != "idle_cycles"
        }
        assert ev_counts == vec_counts, sctx
        for field in (
            "total_messages", "total_wavelets", "total_hop_wavelets",
            "comm_busy_cycles",
        ):
            assert getattr(ev.trace, field) == getattr(vec.trace, field), (
                field, sctx,
            )
        assert ev.memory == vec.memory, sctx
        assert ev.state_visits == vec.state_visits, sctx

    # -- vectorized vs. batched lanes (per step) ------------------------------
    batched = list(simulate_reports_batch([problem, sibling], **kwargs))
    sib_serial = list(simulate_reports(sibling, engine="vectorized", **kwargs))
    for step, (vec, lanes) in enumerate(zip(vector, batched), start=1):
        lane = lanes[0]
        assert lane.iterations == vec.iterations, (step, ctx)
        np.testing.assert_array_equal(lane.pressure, vec.pressure, err_msg=ctx)
        assert lane.residual_history == vec.residual_history, (step, ctx)
        assert lane.counters.to_dict() == vec.counters.to_dict(), (step, ctx)
        assert lane.trace.to_dict() == vec.trace.to_dict(), (step, ctx)
        assert lane.memory == vec.memory, (step, ctx)
        assert lane.state_visits == vec.state_visits, (step, ctx)
        sib = lanes[1]
        ser = sib_serial[step - 1]
        assert sib.iterations == ser.iterations, (step, ctx)
        np.testing.assert_array_equal(sib.pressure, ser.pressure, err_msg=ctx)
        assert sib.counters.to_dict() == ser.counters.to_dict(), (step, ctx)

    # -- vectorized vs. sharded (per step) ------------------------------------
    # Warm starts carry the shard-reduction round-off from step to step,
    # so per-step states agree to fp round-off and iteration counts stay
    # within the tolerance-crossing jitter; memory rehearsal is exact.
    sharded = list(simulate_reports(
        problem, engine="sharded", shard_shape=shard_shape, **kwargs,
    ))
    assert len(sharded) == len(vector), ctx
    for step, (vec, sh) in enumerate(zip(vector, sharded), start=1):
        assert sh.engine == "sharded", (step, ctx)
        assert sh.memory == vec.memory, (step, ctx)
        assert abs(sh.iterations - vec.iterations) <= 3, (step, ctx)
        np.testing.assert_allclose(
            sh.pressure.astype(np.float64),
            vec.pressure.astype(np.float64),
            rtol=1e-5, atol=1e-7, err_msg=str((step, ctx)),
        )

    # -- vectorized vs. fused (per step) --------------------------------------
    # Same contract as the sharded leg: the tile-ordered dot reduction
    # is the only fp channel, and warm starts carry it across steps.
    fused = list(simulate_reports(
        problem, engine="fused", fused_tile=fused_tile, **kwargs,
    ))
    assert len(fused) == len(vector), ctx
    for step, (vec, fu) in enumerate(zip(vector, fused), start=1):
        assert fu.engine == "fused", (step, ctx)
        assert fu.fused is not None, (step, ctx)
        assert fu.memory == vec.memory, (step, ctx)
        assert abs(fu.iterations - vec.iterations) <= 3, (step, ctx)
        np.testing.assert_allclose(
            fu.pressure.astype(np.float64),
            vec.pressure.astype(np.float64),
            rtol=1e-5, atol=1e-7, err_msg=str((step, ctx)),
        )

    # -- fused serial vs. batched-fused lane (per step, bitwise) --------------
    fused_batched = list(simulate_reports_batch(
        [problem, sibling], engine="fused", fused_tile=fused_tile, **kwargs,
    ))
    for step, (fu, lanes) in enumerate(zip(fused, fused_batched), start=1):
        lane = lanes[0]
        assert lane.engine == "batched_fused", (step, ctx)
        assert lane.iterations == fu.iterations, (step, ctx)
        np.testing.assert_array_equal(lane.pressure, fu.pressure, err_msg=ctx)
        assert lane.residual_history == fu.residual_history, (step, ctx)
        assert lane.counters.to_dict() == fu.counters.to_dict(), (step, ctx)
        assert lane.state_visits == fu.state_visits, (step, ctx)


def test_transient_iterations_drop_monotonically_with_dt():
    """The conditioning property documented in ``physics/transient.py``,
    pinned on the fabric path: the accumulation diagonal ``φ c_t V / Δt``
    grows as Δt shrinks, so per-step CG iteration counts must be
    non-increasing as the schedule tightens (cold starts isolate the
    conditioning effect from warm-start history)."""
    problem = make_problem(6, 6, 3, seed=2)
    totals = []
    for dt in (1e6, 1e2, 1.0, 1e-2):
        sim = repro.simulate(
            problem,
            backend="wse",
            spec=repro.SolveSpec.from_kwargs(
                spec=SPEC, engine="vectorized", dtype="float64",
                rel_tol=1e-8, max_iters=5000,
                n_steps=3, dt=dt, total_compressibility=1e-2,
                warm_start=False,
            ),
        )
        totals.append(sim.total_iterations)
    assert totals == sorted(totals, reverse=True), totals
    assert totals[-1] < totals[0]


def test_fuzz_is_deterministic():
    """The reproduction contract: redrawing a case yields the same
    problem and knobs (so the seed in a failure message is sufficient)."""
    seed_a, problem_a, _, kwargs_a, shard_a, tile_a = _draw_case(7)
    seed_b, problem_b, _, kwargs_b, shard_b, tile_b = _draw_case(7)
    assert seed_a == seed_b
    np.testing.assert_array_equal(problem_a.permeability, problem_b.permeability)
    np.testing.assert_array_equal(problem_a.dirichlet.mask, problem_b.dirichlet.mask)
    assert {k: v for k, v in kwargs_a.items() if k != "spec"} == {
        k: v for k, v in kwargs_b.items() if k != "spec"
    }
    assert (shard_a, tile_a) == (shard_b, tile_b)


def test_fuzz_spans_the_knob_space():
    """Sanity on the generator: across the 50 cases, both kernel
    variants, all three preconditioners, converging and fixed modes,
    and a comm-only case all occur (the suite actually covers what it
    claims to cover)."""
    cases = [_draw_case(i) for i in range(N_CASES)]
    drawn = [c[3] for c in cases]
    assert {k["variant"] for k in drawn} == {"precomputed", "fused_mobility"}
    assert {k["preconditioner"] for k in drawn} == {"none", "jacobi", "mg"}
    assert any(k.get("fixed_iterations") for k in drawn)
    assert any(k.get("rel_tol") for k in drawn)
    assert any(k.get("comm_only") for k in drawn)
    assert {k["simd_width"] for k in drawn} == {1, 2, 3}
    # The mg corpus: present in both run modes (the fixed-iteration mg
    # cases are where sharded/fused counters pin *exactly*), with both
    # capped and full hierarchies, and never alongside comm_only.
    mg_cases = [k for k in drawn if k.get("preconditioner") == "mg"]
    assert mg_cases
    assert any(k.get("rel_tol") for k in mg_cases)
    assert any(k.get("fixed_iterations") for k in mg_cases)
    assert any(k.get("mg_levels") for k in mg_cases)
    assert any(k.get("mg_levels") is None for k in mg_cases)
    assert {k["mg_smoother_iters"] for k in mg_cases} == {1, 2}
    assert not any(k.get("comm_only") for k in mg_cases)
    shards = [c[4] for c in cases]
    grids = [c[1].grid for c in cases]
    assert any(sx * sy == 1 for sx, sy in shards)  # single-shard identity
    assert any(sx * sy > 1 for sx, sy in shards)  # real decompositions
    assert any(sx == 1 and sy > 1 for sx, sy in shards)  # degenerate 1xN
    assert any(  # shard counts that do not divide the grid evenly
        (sx > 1 and g.nx % sx) or (sy > 1 and g.ny % sy)
        for (sx, sy), g in zip(shards, grids)
    )
    tiles = [c[5] for c in cases]
    assert any(t is None for t in tiles)  # the auto-picked tile
    assert any(  # full-width slabs: the contiguous fast path
        t is not None and t[1] == g.ny for t, g in zip(tiles, grids)
    )
    assert any(  # narrow tiles: the general strided path
        t is not None and t[1] < g.ny for t, g in zip(tiles, grids)
    )
    assert any(  # tiles that do not divide the grid evenly
        t is not None and ((t[0] > 1 and g.nx % t[0]) or (t[1] > 1 and g.ny % t[1]))
        for t, g in zip(tiles, grids)
    )
