"""Unit tests for the performance-counter layer (`repro.wse.trace`).

The counters are the currency every Table IV/V cross-check trades in;
these tests pin the per-op accounting (Table V's FLOP/traffic
conventions), the merge algebra, and the stable ``to_dict`` summaries
the backend telemetry and bench JSON rely on.
"""

import json

import pytest

from repro.wse.isa import (
    F32_BYTES,
    OP_FABRIC_LOADS,
    OP_FLOPS,
    OP_MEM_LOADS,
    OP_MEM_STORES,
    Op,
)
from repro.wse.trace import FabricTrace, PerfCounters


class TestPerfCounters:
    def test_record_op_applies_table5_conventions(self):
        c = PerfCounters()
        c.record_op(Op.FMA, 10, cycles=5)
        assert c.op_counts[Op.FMA] == 10
        assert c.flops == OP_FLOPS[Op.FMA] * 10 == 20
        assert c.mem_load_bytes == OP_MEM_LOADS[Op.FMA] * 10 * F32_BYTES
        assert c.mem_store_bytes == OP_MEM_STORES[Op.FMA] * 10 * F32_BYTES
        assert c.fabric_load_bytes == OP_FABRIC_LOADS[Op.FMA] * 10 * F32_BYTES
        assert c.compute_cycles == 5

    def test_fmov_charges_fabric_not_flops(self):
        """Table V: FMOV loads from fabric, stores to memory, 0 FLOPs."""
        c = PerfCounters()
        c.record_op(Op.FMOV, 8, cycles=4)
        assert c.flops == 0
        assert c.fabric_load_bytes == 8 * F32_BYTES
        assert c.mem_load_bytes == 0
        assert c.mem_store_bytes == 8 * F32_BYTES

    def test_fabric_send_receive_bookkeeping(self):
        c = PerfCounters()
        c.record_fabric_send(100)
        c.record_fabric_receive(60)
        assert c.fabric_store_bytes == 100
        assert c.fabric_load_bytes == 60
        assert c.fabric_bytes == 160

    def test_mem_bytes_is_loads_plus_stores(self):
        c = PerfCounters()
        c.record_op(Op.FMUL, 4, cycles=2)  # 2 loads + 1 store per element
        assert c.mem_bytes == 3 * 4 * F32_BYTES

    def test_merged_with_sums_everything(self):
        a, b = PerfCounters(), PerfCounters()
        a.record_op(Op.FADD, 3, cycles=2)
        a.record_fabric_send(8)
        b.record_op(Op.FADD, 5, cycles=3)
        b.record_op(Op.FSUB, 2, cycles=1)
        b.record_fabric_receive(4)
        merged = a.merged_with(b)
        assert merged.op_counts[Op.FADD] == 8
        assert merged.op_counts[Op.FSUB] == 2
        assert merged.flops == a.flops + b.flops
        assert merged.compute_cycles == 6
        assert merged.fabric_bytes == 12
        # Merge does not mutate the operands.
        assert a.op_counts[Op.FADD] == 3
        assert b.op_counts[Op.FADD] == 5

    def test_add_scaled_is_n_merges_in_place(self):
        packet = PerfCounters()
        packet.record_op(Op.FMA, 4, cycles=2)
        packet.record_fabric_send(8)
        packet.idle_cycles = 5
        packet.op_counts[Op.FSUB] += 0  # counted zero times: no entry
        total = PerfCounters()
        total.record_op(Op.FADD, 1, cycles=1)
        expected = total.merged_with(packet).merged_with(packet).merged_with(packet)
        total.add_scaled(packet, 3)
        assert total.to_dict() == expected.to_dict()
        assert Op.FSUB not in total.op_counts
        assert total.idle_cycles == 15

    def test_to_dict_is_json_stable(self):
        c = PerfCounters()
        c.record_op(Op.FMA, 6, cycles=3)
        c.record_op(Op.FMOV, 2, cycles=1)
        c.record_fabric_send(8)
        d = c.to_dict()
        # Plain JSON-able values, op names as keys, derived fields present.
        assert json.loads(json.dumps(d)) == d
        assert d["op_counts"] == {"fma": 6, "fmov": 2}
        assert d["flops"] == 12
        assert d["mem_bytes"] == d["mem_load_bytes"] + d["mem_store_bytes"]
        assert d["fabric_bytes"] == d["fabric_load_bytes"] + d["fabric_store_bytes"]
        assert d["compute_cycles"] == 4


class TestFabricTrace:
    def test_comm_exposed_cycles(self):
        trace = FabricTrace(makespan_cycles=100, max_compute_cycles=60)
        assert trace.comm_exposed_cycles == 40

    def test_add_scaled_sums_every_total(self):
        trace = FabricTrace(makespan_cycles=1, total_messages=2)
        trace.add_scaled(FabricTrace(*range(1, 7)), 2)
        assert trace == FabricTrace(3, 6, 6, 8, 10, 12)

    def test_comm_exposed_clamps_at_zero(self):
        trace = FabricTrace(makespan_cycles=50, max_compute_cycles=80)
        assert trace.comm_exposed_cycles == 0

    def test_to_dict_round_trips_through_json(self):
        trace = FabricTrace(
            makespan_cycles=123,
            total_messages=4,
            total_wavelets=40,
            total_hop_wavelets=44,
            comm_busy_cycles=44,
            max_compute_cycles=100,
        )
        d = trace.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["makespan_cycles"] == 123
        assert d["comm_exposed_cycles"] == 23
        assert set(d) == {
            "makespan_cycles", "total_messages", "total_wavelets",
            "total_hop_wavelets", "comm_busy_cycles", "max_compute_cycles",
            "comm_exposed_cycles",
        }

    def test_live_fabric_populates_trace(self):
        """Counters attached to a real (tiny) run stay consistent."""
        import numpy as np

        from repro.core.solver import WseMatrixFreeSolver
        from helpers import make_problem
        from repro.wse.specs import WSE2

        report = WseMatrixFreeSolver(
            make_problem(3, 3, 2, seed=0), spec=WSE2.with_fabric(4, 4),
            engine="event", dtype=np.float32, fixed_iterations=2,
        ).solve()
        trace = report.trace
        assert trace.makespan_cycles > 0
        assert trace.total_messages > 0
        assert trace.total_hop_wavelets >= trace.total_wavelets
        assert trace.max_compute_cycles <= trace.makespan_cycles
        assert trace.to_dict()["comm_exposed_cycles"] == trace.comm_exposed_cycles
