"""Integration tests: whole-system flows, failure injection, examples.

These cross module boundaries on purpose: problem construction → staging →
fabric protocols → solution gathering → perf reporting, plus the failure
modes a user would hit (too-deep grids, dead links, fabric/grid
mismatches).
"""

import runpy
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from helpers import make_problem
from repro import api
from repro.core.exchange import ExchangeColors, HaloExchange
from repro.core.solver import WseMatrixFreeSolver
from repro.util.errors import ConfigurationError, PeOutOfMemory, RoutingError
from repro.wse.color import ColorAllocator
from repro.wse.fabric import Fabric
from repro.wse.router import Port
from repro.wse.specs import WSE2


class TestEndToEndFlows:
    def test_full_pipeline_heterogeneous(self):
        """Geomodel → problem → dataflow solve → physical solution."""
        from repro.mesh.geomodel import lognormal_permeability
        from repro.mesh.grid import CartesianGrid3D

        grid = CartesianGrid3D(7, 6, 4)
        perm = lognormal_permeability(grid, seed=11, sigma_log=1.2)
        problem = api.quarter_five_spot_problem(7, 6, 4, permeability=perm)
        report = WseMatrixFreeSolver(
            problem, spec=WSE2.with_fabric(8, 8), engine="event",
            dtype=np.float64, rel_tol=1e-9, max_iters=3000,
        ).solve()
        assert report.converged
        # Maximum principle.
        assert report.pressure.min() >= -1e-7
        assert report.pressure.max() <= 1.0 + 1e-7
        # Telemetry is populated.
        assert report.counters.flops > 0
        assert report.trace.total_messages > 0
        assert report.memory["max_high_water"] > 0

    def test_solver_reuse_of_one_problem(self):
        """Two solver instances over the same problem are independent."""
        problem = make_problem(4, 4, 3, seed=5)
        a, b = (
            WseMatrixFreeSolver(
                problem, spec=WSE2.with_fabric(8, 8), engine="event",
                dtype=np.float64, rel_tol=1e-8,
            ).solve()
            for _ in range(2)
        )
        np.testing.assert_array_equal(a.pressure, b.pressure)
        assert a.iterations == b.iterations

    def test_deterministic_event_ordering(self):
        """The discrete-event runtime is deterministic: identical runs
        produce identical traces."""
        problem = make_problem(4, 3, 3, seed=6)
        reports = [
            WseMatrixFreeSolver(
                problem, spec=WSE2.with_fabric(8, 8), engine="event",
                dtype=np.float32, fixed_iterations=3,
            ).solve()
            for _ in range(2)
        ]
        assert reports[0].trace.makespan_cycles == reports[1].trace.makespan_cycles
        assert reports[0].counters.flops == reports[1].counters.flops


class TestFailureModes:
    def test_too_deep_column_raises_pe_oom(self):
        """A column that exceeds 48 KiB fails at staging, like an
        oversized CSL program."""
        problem = api.quarter_five_spot_problem(2, 2, 1000)
        with pytest.raises(PeOutOfMemory):
            WseMatrixFreeSolver(problem, spec=WSE2.with_fabric(4, 4))

    def test_max_depth_column_fits(self):
        """Just inside the capacity boundary must still stage."""
        from repro.perf.memmodel import PeMemoryModel

        depth = PeMemoryModel().max_depth()
        problem = api.quarter_five_spot_problem(2, 2, depth)
        solver = WseMatrixFreeSolver(
            problem, spec=WSE2.with_fabric(4, 4), engine="event"
        )
        assert solver.fabric.pe(0, 0).memory.used_bytes <= 48 * 1024

    def test_grid_wider_than_fabric(self):
        problem = api.quarter_five_spot_problem(10, 10, 2)
        with pytest.raises(ConfigurationError, match="exceeds"):
            WseMatrixFreeSolver(problem, spec=WSE2.with_fabric(4, 4))

    def test_dead_link_fails_loudly_mid_protocol(self):
        fab = Fabric(WSE2.with_fabric(8, 8), width=3, height=3)
        ex = HaloExchange(fab, ExchangeColors.allocate(ColorAllocator(31)), 2)
        for pe in fab.iter_pes():
            pe.memory.alloc("p", 2)
        fab.kill_link(1, 1, Port.EAST)
        ex.start("p")
        with pytest.raises(RoutingError, match="dead"):
            fab.run()


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
#: Small sizes for the examples that take them.
EXAMPLE_ARGV = {"pressure_propagation.py": ["--size", "8", "--depth", "2"]}


@pytest.mark.parametrize(
    "script", sorted(EXAMPLES.glob("*.py")), ids=lambda path: path.name
)
def test_examples_run(script, monkeypatch, capsys, tmp_path):
    """Every example executes end to end (smoke test with small sizes)."""
    monkeypatch.setattr(sys, "argv", [str(script)] + EXAMPLE_ARGV.get(script.name, []))
    # The service and gateway demos keep their stores in mkdtemp folders.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 100  # produced a real report
