"""The sharded layout: layout geometry, its bits, link accounting,
multi-wafer projection, and the spec/backend plumbing.

The parity *sweep* (event vs. vectorized vs. batched vs. sharded over
random shapes and layouts) lives in ``tests/test_engine_fuzz.py``; this
file pins the pieces: exact layout arithmetic, shard-major tiles that
are bitwise the fused layout's, hand-checked link counters, and the
``MachineSpec`` round trip.
"""

import numpy as np
import pytest

from helpers import make_problem
import repro
from repro.core.engines import SHARD_CAPABLE_ENGINES, create_engine
from repro.core.solver import WseMatrixFreeSolver
from repro.shard import (
    InterShardLinkModel,
    MultiWaferLink,
    ShardLayout,
    normalize_shard_shape,
    project_multiwafer,
)
from repro.shard.links import REDUCE_SCALAR_BYTES
from repro.spec import FABRIC_ENGINES, MachineSpec, SolveSpec
from repro.util.errors import ConfigurationError
from repro.wse.specs import WSE2

SPEC = WSE2.with_fabric(8, 8)


def _solver(problem, **kw):
    kw.setdefault("spec", SPEC)
    kw.setdefault("dtype", np.float64)
    kw.setdefault("rel_tol", 1e-8)
    kw.setdefault("max_iters", 3000)
    return WseMatrixFreeSolver(problem, **kw)


# -- layout geometry ----------------------------------------------------------


class TestShardLayout:
    def test_balanced_non_dividing_split(self):
        layout = ShardLayout.build((3, 2), 7, 5)
        assert [b.nx for b in layout.boxes] == [3, 3, 2, 2, 2, 2]
        assert [b.ny for b in layout.boxes] == [3, 2, 3, 2, 3, 2]
        # Row-major in shard coordinates, contiguous, covering the grid.
        assert [(b.ix, b.iy) for b in layout.boxes] == [
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)
        ]
        assert sum(b.columns for b in layout.boxes) == 7 * 5

    def test_int_means_1d_split(self):
        assert normalize_shard_shape(4) == (4, 1)
        layout = ShardLayout.build(4, 8, 3)
        assert (layout.shards_x, layout.shards_y) == (4, 1)

    def test_neighbors_and_edges(self):
        layout = ShardLayout.build((2, 2), 4, 4)
        nw = layout.boxes[0]  # (ix=0, iy=0)
        assert layout.neighbors(nw) == {
            "west": None, "east": 2, "north": None, "south": 1
        }
        se = layout.boxes[3]
        assert layout.neighbors(se) == {
            "west": 1, "east": None, "north": 2, "south": None
        }

    def test_boundaries_extents(self):
        # (2, 2) over 5x4: x splits (3, 2), y splits (2, 2).  East seams
        # carry the west box's ny, south seams its nx.
        layout = ShardLayout.build((2, 2), 5, 4)
        ext = {(a, b): e for a, b, e in layout.boundaries()}
        assert set(ext) == {(0, 1), (0, 2), (1, 3), (2, 3)}
        assert ext[(0, 2)] == 2 and ext[(1, 3)] == 2  # east seams: ny
        assert ext[(0, 1)] == 3 and ext[(2, 3)] == 2  # south seams: nx

    def test_too_many_shards_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one grid plane"):
            ShardLayout.build((5, 1), 4, 4)

    def test_bad_shapes_rejected(self):
        # An entry is never rounded or coerced: the layout fixes the
        # dot-partial order, and so the bits of the answer.
        for bad in (
            (0, 2), (2, 0), (1, 2, 3), "nope", -1, (2.5, 3), (True, 2),
            ("2", 1), 2.0, None,
        ):
            with pytest.raises(ConfigurationError):
                normalize_shard_shape(bad)
        assert normalize_shard_shape((np.int64(2), 3)) == (2, 3)

    def test_from_dict_rejects_non_integer_entries(self):
        """The gateway's JSON path: a float entry raises instead of
        truncating to ``(2, 1)``."""
        with pytest.raises(ConfigurationError, match="shard_shape"):
            SolveSpec.from_dict(
                {"machine": {"engine": "sharded", "shard_shape": [2.7, 1]}}
            )
        spec = SolveSpec.from_dict(
            {"machine": {"engine": "sharded", "shard_shape": [2, 1]}}
        )
        assert spec.machine.shard_shape == (2, 1)

    def test_tile_boxes_are_shard_major(self):
        """Each shard's own tiles, offset to its origin, shard by shard."""
        layout = ShardLayout.build((2, 2), 5, 4)  # x (3, 2), y (2, 2)
        assert layout.tile_boxes() == [
            (0, 3, 0, 2), (0, 3, 2, 4), (3, 5, 0, 2), (3, 5, 2, 4),
        ]
        assert layout.tile_boxes((2, 5)) == [
            (0, 2, 0, 2), (2, 3, 0, 2), (0, 2, 2, 4), (2, 3, 2, 4),
            (3, 5, 0, 2), (3, 5, 2, 4),
        ]


# -- layout parity ------------------------------------------------------------


class TestCrewParity:
    def test_single_shard_matches_vectorized_bitwise(self):
        problem = make_problem(5, 4, 2, seed=3)
        vec = _solver(problem, engine="vectorized").solve()
        sh = _solver(problem, engine="sharded", shard_shape=(1, 1)).solve()
        np.testing.assert_array_equal(sh.pressure, vec.pressure)
        assert sh.iterations == vec.iterations
        assert sh.residual_history == vec.residual_history
        assert sh.counters.to_dict() == vec.counters.to_dict()
        assert sh.trace.to_dict() == vec.trace.to_dict()
        assert sh.state_visits == vec.state_visits
        assert sh.memory == vec.memory


#: Layouts that divide their grid: each shard is one tile of the fused
#: layout's row-major tiling, and shard order is that tiling's order.
DIVIDING_LAYOUTS = [
    ((8, 6, 3), (2, 3)), ((8, 6, 3), (4, 1)), ((8, 6, 3), (1, 2)),
    ((12, 10, 2), (3, 5)), ((12, 10, 2), (2, 2)),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("preconditioner", ["none", "jacobi", "mg"])
@pytest.mark.parametrize(
    "grid, shards", DIVIDING_LAYOUTS,
    ids=[f"{g[0]}x{g[1]}x{g[2]}-{s[0]}x{s[1]}" for g, s in DIVIDING_LAYOUTS],
)
def test_dividing_layout_is_bitwise_the_fused_tiling(
    grid, shards, preconditioner, dtype
):
    """A layout that divides the grid, without ``fused_tile``, is the
    fused layout with tile ``(nx/sx, ny/sy)``, bit for bit."""
    nx, ny, nz = grid
    problem = make_problem(nx, ny, nz, seed=4)
    kw = dict(
        spec=WSE2.with_fabric(16, 16), dtype=dtype,
        preconditioner=preconditioner, max_iters=3000,
        rel_tol=1e-8 if dtype == np.float64 else 1e-5,
    )
    sh = WseMatrixFreeSolver(
        problem, engine="sharded", shard_shape=shards, **kw
    ).solve()
    fu = WseMatrixFreeSolver(
        problem, engine="fused",
        fused_tile=(nx // shards[0], ny // shards[1]), **kw,
    ).solve()
    assert sh.pressure.dtype == fu.pressure.dtype
    np.testing.assert_array_equal(sh.pressure, fu.pressure)
    assert sh.iterations == fu.iterations
    assert sh.residual_history == fu.residual_history
    assert sh.counters.to_dict() == fu.counters.to_dict()
    assert sh.trace.to_dict() == fu.trace.to_dict()
    assert sh.memory == fu.memory
    assert sh.state_visits == fu.state_visits


# -- link accounting ----------------------------------------------------------


class TestLinkAccounting:
    def test_hand_checked_counters(self):
        """(2, 1) over 6x4x3, float64: one seam of extent 4; each
        exchange moves 2 * 4 * 3 elements = 192 bytes both ways."""
        layout = ShardLayout.build((2, 1), 6, 4)
        links = InterShardLinkModel(layout, 3, 8)
        links.charge_exchange()
        links.charge_reduce()
        c = links.counters
        assert c.exchanges == 1 and c.reductions == 1
        assert c.halo_messages == 2  # one seam, both directions
        assert c.halo_bytes == 2 * 4 * 3 * 8
        assert c.reduce_messages == 2 * (2 - 1)
        assert c.reduce_bytes == 2 * (2 - 1) * 8

    def test_single_shard_moves_nothing(self):
        layout = ShardLayout.build((1, 1), 8, 8)
        links = InterShardLinkModel(layout, 5, 4)
        links.charge_exchange()
        links.charge_reduce()
        assert links.counters.to_dict() == {
            "exchanges": 1, "reductions": 1, "halo_messages": 0,
            "halo_bytes": 0, "reduce_messages": 0, "reduce_bytes": 0,
        }

    def test_engine_charges_links_per_round(self):
        problem = make_problem(6, 4, 2, seed=5)
        rep = _solver(
            problem, engine="sharded", shard_shape=(2, 1),
            rel_tol=None, fixed_iterations=4,
        ).solve()
        links = rep.shard["links"]
        # One exchange at init plus one per iteration; the init round
        # reduces rtr once, each iteration reduces pAp and the new rtr.
        assert rep.iterations == 4
        assert links["exchanges"] == 1 + rep.iterations
        assert links["reductions"] == 1 + 2 * rep.iterations
        per_exchange = links["halo_elems_per_exchange"]
        assert links["halo_bytes"] == links["exchanges"] * per_exchange * 8

    def test_multiwafer_projection(self):
        rows = project_multiwafer((1, 2, 4), nz=64, iterations=10)
        assert [r["wafers"] for r in rows] == [1, 2, 4]
        assert rows[0]["link_s_per_iter"] == 0.0
        assert rows[0]["efficiency"] == 1.0
        # Interconnect time only grows with wafer count; efficiency only
        # falls; aggregate throughput (cells/s) still rises while the
        # cable stays subdominant to per-iteration compute.
        assert rows[1]["link_s_per_iter"] < rows[2]["link_s_per_iter"]
        assert rows[0]["efficiency"] > rows[1]["efficiency"] > rows[2]["efficiency"]
        assert rows[0]["cells_per_s"] < rows[1]["cells_per_s"] < rows[2]["cells_per_s"]
        for r in rows:
            assert r["total_s"] == pytest.approx(
                (r["compute_s_per_iter"] + r["link_s_per_iter"]) * 10
            )

    def test_multiwafer_link_time_hand_checked(self):
        """w=2 at the defaults: one seam's bidirectional halo
        (2 x 994 x 922 x 4 B) plus the link model's 4(w-1) = 4 reduce
        messages of one 8 B scalar each, serialized over the cable."""
        (row,) = project_multiwafer((2,))
        link = MultiWaferLink()
        seam = link.transfer_time(2 * 994 * 922 * 4)
        reduce = 4 * link.transfer_time(REDUCE_SCALAR_BYTES)
        assert row["link_s_per_iter"] == pytest.approx(seam + reduce, rel=1e-12)
        assert row["link_s_per_iter"] == pytest.approx(78.31776e-6, rel=1e-6)

    def test_multiwafer_rejects_bad_count(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            project_multiwafer((0,))


# -- spec and backend plumbing ------------------------------------------------


class TestSpecPlumbing:
    def test_sharded_is_a_fabric_engine(self):
        assert "sharded" in FABRIC_ENGINES
        assert SHARD_CAPABLE_ENGINES == ("sharded",)

    def test_engine_typo_names_nearest(self):
        with pytest.raises(ConfigurationError, match="did you mean 'sharded'"):
            MachineSpec(engine="shardded")
        with pytest.raises(
            ConfigurationError,
            match="valid engines: event, vectorized, sharded",
        ):
            MachineSpec(engine="onnx")

    def test_shard_shape_needs_sharded_engine(self):
        with pytest.raises(ConfigurationError, match="set engine='sharded'"):
            MachineSpec(engine="vectorized", shard_shape=(2, 2))
        problem = make_problem(4, 4, 2)
        program = _solver(problem, engine="vectorized").program
        with pytest.raises(ConfigurationError, match="single-shard"):
            create_engine(
                "vectorized", problem, program, spec=SPEC, shard_shape=(2, 1)
            )

    def test_kwargs_round_trip_and_fingerprint(self):
        spec = SolveSpec.from_kwargs(engine="sharded", shard_shape=(2, 3))
        assert spec.machine.shard_shape == (2, 3)
        again = SolveSpec.from_dict(spec.to_dict())
        assert again.machine.shard_shape == (2, 3)
        assert again.fingerprint() == spec.fingerprint()
        other = SolveSpec.from_kwargs(engine="sharded", shard_shape=(3, 2))
        assert other.fingerprint() != spec.fingerprint()

    def test_int_shard_shape_normalizes(self):
        spec = SolveSpec.from_kwargs(engine="sharded", shard_shape=4)
        assert spec.machine.shard_shape == (4, 1)

    def test_backend_solve_reports_shard_telemetry(self):
        problem = make_problem(6, 5, 2, seed=2)
        result = repro.solve(
            problem, backend="wse",
            spec=SolveSpec.from_kwargs(
                spec=SPEC, engine="sharded", shard_shape=(2, 2),
                dtype="float64", rel_tol=1e-8, max_iters=3000,
            ),
        )
        shard = result.telemetry["shard"]
        assert shard["layout"]["shards_x"] == 2
        assert shard["layout"]["shards_y"] == 2
        assert sum(shard["layout"]["columns_per_shard"]) == 6 * 5
        assert shard["links"]["halo_bytes"] > 0
        vec = repro.solve(
            problem, backend="wse",
            spec=SolveSpec.from_kwargs(
                spec=SPEC, engine="vectorized", dtype="float64",
                rel_tol=1e-8, max_iters=3000,
            ),
        )
        np.testing.assert_allclose(
            result.pressure, vec.pressure, rtol=1e-6, atol=1e-8
        )
        assert "shard" not in vec.telemetry

    def test_fused_batch_rejects_sharded(self):
        # The sharded engine cannot batch, so a batched plan runs each
        # entry solo — exactly the serial sharded solves.
        problems = [make_problem(4, 4, 2, seed=s) for s in range(2)]
        spec = SolveSpec.from_kwargs(spec=SPEC, engine="sharded")
        batched = repro.solve_many(problems, backend="wse", batch=True, spec=spec)
        serial = repro.solve_many(problems, backend="wse", n_workers=1, spec=spec)
        for b, s in zip(batched, serial):
            assert b.telemetry["engine"] == "sharded"
            assert "batch" not in b.telemetry
            np.testing.assert_array_equal(b.pressure, s.pressure)
            assert b.iterations == s.iterations
            assert b.telemetry["counters"] == s.telemetry["counters"]

    def test_batch_size_rejects_sharded(self):
        problem = make_problem(4, 4, 2)
        spec = SolveSpec.from_kwargs(spec=SPEC, engine="sharded", batch_size=2)
        with pytest.raises(ConfigurationError, match="batch-capable"):
            repro.solve(problem, backend="wse", spec=spec)


# -- transient ----------------------------------------------------------------


def test_sharded_transient_simulation():
    """The backend's simulate() path runs sharded end to end and keeps
    per-step shard telemetry."""
    problem = make_problem(5, 4, 2, seed=7)
    sim = repro.simulate(
        problem, backend="wse",
        spec=SolveSpec.from_kwargs(
            spec=SPEC, engine="sharded", shard_shape=(2, 1),
            dtype="float64", rel_tol=1e-8, max_iters=3000,
            n_steps=2, dt=10.0, total_compressibility=1e-2,
        ),
    )
    assert len(sim.steps) == 2
    for step in sim.steps:
        assert step.telemetry["engine"] == "sharded"
        assert step.telemetry["shard"]["links"]["exchanges"] >= 1
    ref = repro.simulate(
        problem, backend="wse",
        spec=SolveSpec.from_kwargs(
            spec=SPEC, engine="vectorized", dtype="float64",
            rel_tol=1e-8, max_iters=3000,
            n_steps=2, dt=10.0, total_compressibility=1e-2,
        ),
    )
    np.testing.assert_allclose(
        sim.steps[-1].pressure, ref.steps[-1].pressure, rtol=1e-6, atol=1e-8
    )
