"""Tests for the data mapping and the Table-I halo exchange."""

import numpy as np
import pytest

from repro.core.exchange import (
    ActionKind,
    ExchangeColors,
    HALO_BUFFER,
    HaloExchange,
    NUM_STEPS,
)
from repro.core.mapping import (
    DIRECTION_FOR_PORT,
    PORT_FOR_DIRECTION,
    ProblemMapping,
)
from repro.mesh.grid import CartesianGrid3D, Direction, LATERAL_DIRECTIONS
from repro.util.errors import ConfigurationError
from repro.wse.color import ColorAllocator
from repro.wse.fabric import Fabric
from repro.wse.router import Port
from repro.wse.specs import WSE2


def make_fabric(width, height, **kwargs):
    return Fabric(WSE2.with_fabric(32, 32), width=width, height=height, **kwargs)


def make_exchange(fabric, depth):
    colors = ExchangeColors.allocate(ColorAllocator(31))
    return HaloExchange(fabric, colors, depth)


def stage_columns(fabric, depth, seed=0):
    """Give every PE a distinct 'p' column; returns the per-PE values."""
    rng = np.random.default_rng(seed)
    vals = {}
    for pe in fabric.iter_pes():
        if "p" not in pe.memory:
            pe.memory.alloc("p", depth)
        col = rng.standard_normal(depth).astype(np.float32)
        pe.memory.get("p")[:] = col
        vals[(pe.x, pe.y)] = col.copy()
    return vals


def check_halos(fabric, depth, vals):
    for pe in fabric.iter_pes():
        for port, bufname in HALO_BUFFER.items():
            got = pe.memory.get(bufname)
            n = fabric.neighbor_coords(pe.x, pe.y, port)
            want = vals[n] if n else np.zeros(depth, dtype=np.float32)
            np.testing.assert_array_equal(
                got, want,
                err_msg=f"PE({pe.x},{pe.y}) {port.name} halo wrong",
            )


class TestMapping:
    def test_port_direction_tables_are_offset_consistent(self):
        """The mesh-direction <-> fabric-port pairing must agree on
        coordinate offsets (mesh SOUTH = y-1 = fabric NORTH)."""
        for direction, port in PORT_FOR_DIRECTION.items():
            assert port.offset == (direction.offset[0], direction.offset[1])
        assert set(PORT_FOR_DIRECTION) == set(LATERAL_DIRECTIONS)
        for port, direction in DIRECTION_FOR_PORT.items():
            assert PORT_FOR_DIRECTION[direction] is port

    def test_mapping_bounds_check(self):
        grid = CartesianGrid3D(800, 4, 4)
        with pytest.raises(ConfigurationError, match="exceeds"):
            ProblemMapping(grid, WSE2)

    def test_scatter_gather_roundtrip(self, rng):
        grid = CartesianGrid3D(4, 3, 5)
        mapping = ProblemMapping(grid, WSE2)
        field = rng.standard_normal(grid.shape).astype(np.float32)
        cols = mapping.scatter(field)
        assert len(cols) == 12
        out = mapping.gather(cols)
        np.testing.assert_array_equal(out, field)

    def test_pe_for_cell(self):
        grid = CartesianGrid3D(4, 3, 5)
        mapping = ProblemMapping(grid, WSE2)
        assert mapping.pe_for_cell(2, 1, 4) == (2, 1)


class TestScheduleTable:
    """The static Table-I schedule itself."""

    def test_every_step_has_one_x_and_one_y_action(self):
        fab = make_fabric(4, 4)
        ex = make_exchange(fab, 2)
        for step in range(1, NUM_STEPS + 1):
            actions = ex.actions_for(1, 2, step)
            assert len(actions) == 2
            assert actions[0].port in (Port.EAST, Port.WEST)
            assert actions[1].port in (Port.NORTH, Port.SOUTH)

    def test_odd_x_sends_east_step1(self):
        fab = make_fabric(4, 4)
        ex = make_exchange(fab, 2)
        a = ex.actions_for(1, 0, 1)[0]
        assert a.kind is ActionKind.SEND and a.port is Port.EAST
        b = ex.actions_for(2, 0, 1)[0]
        assert b.kind is ActionKind.RECV and b.port is Port.WEST

    def test_send_recv_pairing(self):
        """In every step, X senders pair with the opposite-parity receiver
        on the facing port, on the same color."""
        fab = make_fabric(6, 6)
        ex = make_exchange(fab, 2)
        for step in range(1, NUM_STEPS + 1):
            for x in range(6):
                a = ex.actions_for(x, 0, step)[0]
                nbr = fab.neighbor_coords(x, 0, a.port)
                if nbr is None:
                    continue
                b = ex.actions_for(nbr[0], 0, step)[0]
                assert a.color == b.color
                assert a.kind is not b.kind
                assert b.port is a.port.opposite

    def test_each_direction_covered_once_per_round(self):
        """Across the 4 steps a PE receives from each live port exactly once."""
        fab = make_fabric(5, 5)
        ex = make_exchange(fab, 2)
        for x in range(5):
            for y in range(5):
                recv_ports = [
                    a.port
                    for step in range(1, 5)
                    for a in ex.actions_for(x, y, step)
                    if a.kind is ActionKind.RECV
                ]
                assert sorted(p.name for p in recv_ports) == sorted(
                    ["WEST", "EAST", "NORTH", "SOUTH"]
                )

    def test_invalid_step_rejected(self):
        fab = make_fabric(2, 2)
        ex = make_exchange(fab, 2)
        with pytest.raises(ConfigurationError):
            ex.actions_for(0, 0, 5)

    def test_bad_depth_rejected(self):
        fab = make_fabric(2, 2)
        with pytest.raises(ConfigurationError):
            make_exchange(fab, 0)


class TestExchangeCorrectness:
    @pytest.mark.parametrize("shape", [(3, 3), (4, 2), (2, 4), (5, 4), (1, 4), (4, 1), (1, 1), (2, 2)])
    def test_halos_correct(self, shape):
        fab = make_fabric(*shape)
        depth = 4
        ex = make_exchange(fab, depth)
        vals = stage_columns(fab, depth)
        done = []
        ex.start("p", on_pe_complete=lambda pe: done.append((pe.x, pe.y)))
        fab.run()
        assert len(done) == shape[0] * shape[1]
        check_halos(fab, depth, vals)

    def test_depth_one_column(self):
        """nz = 1 stresses event-ordering margins."""
        fab = make_fabric(4, 3)
        ex = make_exchange(fab, 1)
        vals = stage_columns(fab, 1)
        ex.start("p")
        fab.run()
        check_halos(fab, 1, vals)

    def test_multiple_rounds_ring_mode_restores_switches(self):
        """Three consecutive rounds must all deliver correctly (the ring
        returns every router to position 0 after each round)."""
        fab = make_fabric(4, 4)
        depth = 3
        ex = make_exchange(fab, depth)
        for round_idx in range(3):
            vals = stage_columns(fab, depth, seed=round_idx)
            ex.start("p")
            fab.run()
            check_halos(fab, depth, vals)

    def test_completion_called_inside_task(self):
        fab = make_fabric(2, 2)
        ex = make_exchange(fab, 2)
        stage_columns(fab, 2)
        in_task = []
        ex.start("p", on_pe_complete=lambda pe: in_task.append(pe.in_task))
        fab.run()
        assert all(in_task) and len(in_task) == 4

    def test_skewed_entry(self):
        """PEs entering the round at different times (as in the CG loop)
        still exchange correctly — early data parks in ramp FIFOs and
        switch controls act at the router level."""
        fab = make_fabric(3, 3)
        depth = 3
        ex = make_exchange(fab, depth)
        vals = stage_columns(fab, depth)
        done = []
        delays = {(x, y): 37 * (x + 3 * y) for x in range(3) for y in range(3)}
        for pe in fab.iter_pes():
            fab.schedule_task(
                pe,
                delays[(pe.x, pe.y)],
                lambda pe=pe: ex.begin_pe(pe, "p", lambda q: done.append(1)),
            )
        fab.run()
        assert len(done) == 9
        check_halos(fab, depth, vals)

    def test_fabric_traffic_volume(self):
        """Every internal lateral face moves exactly `depth` wavelets in
        each direction, plus one control per live send."""
        W, H, depth = 4, 3, 5
        fab = make_fabric(W, H)
        ex = make_exchange(fab, depth)
        stage_columns(fab, depth)
        ex.start("p")
        trace = fab.run()
        x_pairs = (W - 1) * H
        y_pairs = W * (H - 1)
        live_sends = 2 * (x_pairs + y_pairs)
        expected_data = live_sends * depth
        assert trace.total_hop_wavelets == expected_data + live_sends  # + controls
        assert trace.total_messages == 2 * live_sends  # data + control

    def test_boundary_pe_gets_zero_halos(self):
        fab = make_fabric(2, 2)
        ex = make_exchange(fab, 3)
        stage_columns(fab, 3)
        ex.start("p")
        fab.run()
        corner = fab.pe(0, 0)
        np.testing.assert_array_equal(corner.memory.get("halo_W"), 0.0)
        np.testing.assert_array_equal(corner.memory.get("halo_N"), 0.0)
        assert not np.array_equal(corner.memory.get("halo_E"), np.zeros(3))

    def test_exchange_overlap_two_rounds_back_to_back(self):
        """Start a second round immediately from each PE's completion of
        the first (no global barrier) — the CG usage pattern."""
        fab = make_fabric(3, 2)
        depth = 2
        ex = make_exchange(fab, depth)
        vals = stage_columns(fab, depth)
        finished = []

        def second_round(pe):
            finished.append(1)

        def first_round(pe):
            ex.begin_pe(pe, "p", second_round)

        ex.start("p", on_pe_complete=first_round)
        fab.run()
        assert len(finished) == 6
        check_halos(fab, depth, vals)
