"""Unit tests for the fused cache-blocked hot-loop engine.

The cross-engine *numerics* parity (fused vs. event/vectorized/sharded/
batched, steady and transient) lives in ``tests/test_engine_fuzz.py``;
this file pins the machinery around it: tile selection and validation,
the ``fused_tile`` spec knob's round-trip and engine gating, the bitwise
loop-reorder property of :class:`TiledApply` (slab and staged tiles run
one apply), telemetry plumbing, and the sharded-worker composition.
"""

import numpy as np
import pytest

from helpers import make_problem
import repro
from repro.core.engines import (
    BATCH_CAPABLE_ENGINES,
    TILE_CAPABLE_ENGINES,
    create_batched_engine,
    create_engine,
)
from repro.core.fv_kernel import KernelVariant
from repro.core.host import _stage_problem
from repro.core.program import CgProgram
from repro.core.solver import WseMatrixFreeSolver
from repro.fused import auto_tile, normalize_fused_tile, tile_boxes
from repro.fused.kernels import FusedNumpyBackend
from repro.mesh.grid import CartesianGrid3D
from repro.physics.analytic import analytic_two_plane_solution
from repro.physics.darcy import build_problem
from repro.physics.transient import build_accumulation
from repro.spec import MachineSpec, SolveSpec, TILE_ENGINES
from repro.util.errors import ConfigurationError
from repro.wse.specs import WSE2

SPEC = WSE2.with_fabric(8, 8)


# -- tile selection and validation --------------------------------------------


def test_normalize_fused_tile_accepts_the_documented_spellings():
    assert normalize_fused_tile(None) is None
    assert normalize_fused_tile(16) == (16, 16)
    assert normalize_fused_tile((8, 4)) == (8, 4)
    assert normalize_fused_tile([8, 4]) == (8, 4)
    assert normalize_fused_tile("16x16") == (16, 16)
    assert normalize_fused_tile("8X4") == (8, 4)
    assert normalize_fused_tile(" 8 , 4 ") == (8, 4)
    assert normalize_fused_tile(np.int64(16)) == (16, 16)


@pytest.mark.parametrize(
    "bad", [True, 0, -3, (0, 4), (4, -1), (1, 2, 3), "16", "axb", "16x", 2.5]
)
def test_normalize_fused_tile_rejects_garbage(bad):
    with pytest.raises(ConfigurationError):
        normalize_fused_tile(bad)


def test_auto_tile_picks_full_width_slabs():
    """Full-width tiles are what unlock the contiguous fast path, so the
    auto pick always spans y; the row count shrinks as the working set
    per row grows, and never drops below the 8-row floor."""
    tx, ty = auto_tile(128, 128, 4, 4)
    assert ty == 128 and 8 <= tx <= 128
    # A huge working set per row still yields >= 8 rows.
    assert auto_tile(64, 4096, 32, 8)[0] == 8
    # Small grids come back whole.
    assert auto_tile(4, 4, 3, 4) == (4, 4)


def test_tile_boxes_partition_the_grid_in_row_major_order():
    boxes = tile_boxes(5, 4, (2, 3))
    # Clipped, never padded: every cell in exactly one box.
    cover = np.zeros((5, 4), dtype=int)
    for x0, x1, y0, y1 in boxes:
        assert x0 < x1 and y0 < y1
        cover[x0:x1, y0:y1] += 1
    assert (cover == 1).all()
    assert boxes == sorted(boxes)  # row-major: the deterministic dot order


# -- the spec knob ------------------------------------------------------------


def test_fused_tile_spec_round_trip_and_fingerprint():
    spec = SolveSpec(machine=MachineSpec(engine="fused", fused_tile=(8, 4)))
    payload = spec.to_dict()
    assert payload["machine"]["fused_tile"] == [8, 4]
    back = SolveSpec.from_dict(payload)
    assert back.machine.fused_tile == (8, 4)
    assert back.fingerprint() == spec.fingerprint()
    # An int coerces to a square tile; the fingerprint sees the pair.
    square = SolveSpec(machine=MachineSpec(engine="fused", fused_tile=8))
    assert square.machine.fused_tile == (8, 8)
    # from_kwargs maps the flat knob onto machine.fused_tile.
    kw = SolveSpec.from_kwargs(engine="fused", fused_tile=(8, 4))
    assert kw.machine.fused_tile == (8, 4)
    assert kw.fingerprint() == spec.fingerprint()
    # The CLI/env string spelling normalizes to the same pair (and hence
    # the same fingerprint) at the spec boundary too.
    text = SolveSpec.from_kwargs(engine="fused", fused_tile="8x4")
    assert text.machine.fused_tile == (8, 4)
    assert text.fingerprint() == spec.fingerprint()
    with pytest.raises(ConfigurationError, match="look like '16x16'"):
        MachineSpec(engine="fused", fused_tile="8 by 4")
    # Entries are integers: the tile fixes the dot order, so a float or
    # a bool is refused on both the kwargs and the wire path, never
    # truncated.
    for bad in [(2.5, 3), (True, 4)]:
        with pytest.raises(ConfigurationError, match="two positive integers"):
            SolveSpec.from_kwargs(engine="fused", fused_tile=bad)
        wire = dict(payload, machine=dict(payload["machine"], fused_tile=list(bad)))
        with pytest.raises(ConfigurationError, match="two positive integers"):
            SolveSpec.from_dict(wire)


def test_fused_tile_requires_a_tiled_engine():
    with pytest.raises(ConfigurationError, match="tiled engines"):
        MachineSpec(engine="vectorized", fused_tile=(4, 4))
    with pytest.raises(ConfigurationError, match="tiled engines"):
        MachineSpec(engine=None, fused_tile=4)
    for engine in TILE_ENGINES:
        assert MachineSpec(engine=engine, fused_tile=4).fused_tile == (4, 4)


def test_engine_registry_gates_the_tile_knob():
    assert TILE_CAPABLE_ENGINES == TILE_ENGINES
    assert BATCH_CAPABLE_ENGINES == ("vectorized", "fused")
    problem = make_problem(4, 4, 2)
    program = CgProgram(fixed_iterations=2)
    with pytest.raises(ConfigurationError, match="untiled; fused_tile"):
        create_engine(
            "event", problem, program, spec=SPEC, fused_tile=(2, 2)
        )
    batch = CgProgram(fixed_iterations=2, batch=2)
    with pytest.raises(ConfigurationError, match="untiled; fused_tile"):
        create_batched_engine(
            "vectorized", [problem, problem], batch, spec=SPEC,
            fused_tile=(2, 2),
        )
    with pytest.raises(ConfigurationError, match="batched"):
        create_batched_engine("sharded", [problem, problem], batch, spec=SPEC)


def test_fused_engine_rejects_batched_programs():
    problem = make_problem(4, 4, 2)
    with pytest.raises(ConfigurationError, match="create_batched_engine"):
        create_engine(
            "fused", problem, CgProgram(fixed_iterations=2, batch=2), spec=SPEC
        )


# -- the bitwise loop-reorder property ----------------------------------------


def _staged_apply(problem, program, boxes_tile, accumulation=None):
    """One FV apply of a staged seeded random ``y`` (Dirichlet values
    applied, so every cell carries data) through a fresh backend tiled
    by ``boxes_tile``; returns the ``jx`` array."""
    guess = np.random.default_rng(5).uniform(-1.0, 1.0, problem.grid.shape)
    st = _stage_problem(
        problem, program, np.dtype(np.float32), guess,
        accumulation=accumulation,
        precondition=program.preconditioner_for(problem, accumulation),
    )
    nx, ny, _ = problem.grid.shape
    backend = FusedNumpyBackend(
        st, program, boxes=tile_boxes(nx, ny, boxes_tile),
        dtype=np.dtype(np.float32),
    )
    backend.init_pass()
    return backend.jx.copy()


def _partial_dirichlet_problem():
    """A Dirichlet z-plane makes every column PARTIAL (built as
    ``test_partial_dirichlet_column`` builds it)."""
    grid = CartesianGrid3D(7, 5, 4)
    dirichlet, _ = analytic_two_plane_solution(grid, 2, 2.0, 0.0)
    return build_problem(grid, 10.0, dirichlet)


@pytest.mark.parametrize("variant", list(KernelVariant))
@pytest.mark.parametrize("jacobi", [False, True])
def test_tiled_apply_is_a_pure_loop_reorder(variant, jacobi):
    """The same staged problem swept under different tilings — narrow
    (staged) tiles, full-width slabs, the whole grid — produces
    bitwise-identical ``Jx``: tiling only reorders elementwise/
    stencil-local work.  The inputs reach every branch of the one
    apply: the z sweep and its absence (``nz = 1``), the accumulation
    FMA of a transient program, and the partial-Dirichlet blend."""
    transient = make_problem(7, 5, 3, seed=13)
    inputs = [
        ("plain", make_problem(7, 5, 3, seed=11), None),
        ("nz=1", make_problem(7, 5, 1, seed=12), None),
        (
            "transient", transient,
            build_accumulation(
                transient, porosity=0.2, total_compressibility=1e-2, dt=0.5
            ),
        ),
        ("partial Dirichlet", _partial_dirichlet_problem(), None),
    ]
    for name, problem, acc in inputs:
        program = CgProgram(
            variant=variant,
            preconditioner="jacobi" if jacobi else "none",
            fixed_iterations=2,
            accumulation=acc is not None,
        )
        whole = _staged_apply(problem, program, (7, 5), acc)
        for tile in [(2, 2), (3, 5), (7, 1), (1, 5), (4, 3)]:
            np.testing.assert_array_equal(
                _staged_apply(problem, program, tile, acc), whole,
                err_msg=f"{name} {tile}",
            )


def test_layouts_differ_only_in_the_kernel_tile():
    """``"vectorized"`` and ``"fused"`` are layouts of one kernel: the
    driver runs a FusedNumpyBackend either way, over one whole-grid tile
    or over the requested tiles."""
    problem = make_problem(4, 4, 2)
    program = CgProgram(fixed_iterations=2)
    whole = create_engine("vectorized", problem, program, spec=SPEC)
    tiled = create_engine("fused", problem, program, spec=SPEC, fused_tile=2)
    (vec_lane,), (fused_lane,) = whole.lanes, tiled.lanes
    assert type(vec_lane.kernel) is type(fused_lane.kernel) is FusedNumpyBackend
    assert vec_lane.kernel.boxes == [(0, 4, 0, 4)]
    assert len(fused_lane.kernel.boxes) == 4


# -- telemetry and report plumbing --------------------------------------------


def test_fused_report_and_backend_telemetry():
    problem = make_problem(6, 5, 2, seed=3)
    report = WseMatrixFreeSolver(
        problem, engine="fused", fused_tile="4x5", spec=SPEC,
        rel_tol=1e-6,
    ).solve()
    assert report.engine == "fused"
    assert report.fused["tile"] == [4, 5]
    assert report.fused == {"tile": [4, 5], "tiles": 2}
    result = repro.solve(
        problem,
        backend="wse",
        spec=SolveSpec.from_kwargs(
            spec=SPEC, engine="fused", fused_tile=(4, 5), rel_tol=1e-6
        ),
    )
    assert result.telemetry["engine"] == "fused"
    assert result.telemetry["fused"]["tile"] == [4, 5]
    # Untiled engines carry no fused telemetry.
    plain = repro.solve(
        problem, backend="wse",
        spec=SolveSpec.from_kwargs(spec=SPEC, engine="vectorized", rel_tol=1e-6),
    )
    assert "fused" not in plain.telemetry


# -- sharded-worker composition -----------------------------------------------


@pytest.mark.parametrize("variant", list(KernelVariant))
def test_sharded_workers_run_the_fused_kernel_bitwise(variant):
    """``fused_tile`` on the sharded layout tiles every shard and
    reduces its dot partials per tile, as the fused layout does.
    The sweeps are a pure loop reorder, so against the untiled sharded
    solve the charges and link accounting are exact and the iterates
    agree to round-off (only the partial-sum order differs); a ``1x1``
    layout with tile T is bitwise the fused layout with tile T."""
    problem = make_problem(8, 7, 3, seed=6)
    kwargs = dict(
        spec=SPEC, variant=variant, preconditioner="jacobi", rel_tol=1e-6
    )
    sharded = dict(kwargs, engine="sharded", shard_shape=(2, 3))
    plain = WseMatrixFreeSolver(problem, **sharded).solve()
    tiled = WseMatrixFreeSolver(problem, fused_tile=(3, 2), **sharded).solve()
    np.testing.assert_allclose(tiled.pressure, plain.pressure, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(
        tiled.residual_history, plain.residual_history, rtol=1e-4
    )
    assert tiled.iterations == plain.iterations
    assert tiled.counters.to_dict() == plain.counters.to_dict()
    assert tiled.trace.to_dict() == plain.trace.to_dict()
    assert tiled.shard["links"] == plain.shard["links"]
    assert tiled.shard["fused_tile"] == [3, 2]
    assert plain.shard["fused_tile"] is None

    single = WseMatrixFreeSolver(
        problem, engine="sharded", shard_shape=(1, 1), fused_tile=(3, 2),
        **kwargs,
    ).solve()
    fused = WseMatrixFreeSolver(
        problem, engine="fused", fused_tile=(3, 2), **kwargs
    ).solve()
    np.testing.assert_array_equal(single.pressure, fused.pressure)
    assert single.residual_history == fused.residual_history
    assert single.counters.to_dict() == fused.counters.to_dict()
    assert single.state_visits == fused.state_visits
