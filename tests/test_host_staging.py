"""Host staging: one PE column inventory, and the oracle's PEs loaded
from the array staging.

``repro.core.host.pe_columns`` is the only list of the column buffers a
PE allocates.  The event oracle allocates from it and the array layouts'
memory rehearsal replays it, and the capacity model
(``PeMemoryModel.num_columns``) counts it, so all three agree by
construction; the independent check is the paper's analytic column
count, spelled out below.  The oracle copies each PE's column of the
staged arrays in, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.event_engine import EventEngine
from repro.core.exchange import HALO_BUFFER
from repro.core.fv_kernel import (
    COEFF_BUFFER,
    MOBILITY_BUFFER,
    DirichletKind,
    KernelVariant,
)
from repro.core.host import pe_columns
from repro.core.mapping import DIRECTION_FOR_PORT
from repro.core.program import CgProgram
from repro.mesh.boundary import DirichletSet
from repro.mesh.grid import CartesianGrid3D
from repro.perf.memmodel import PeMemoryModel
from repro.physics.darcy import build_problem
from repro.physics.transient import build_accumulation
from repro.wse.specs import WSE2

SPEC = WSE2.with_fabric(8, 8)

#: The paper's analytic count (§III-E.1): five CG vectors (``y``, ``p``,
#: ``r``, ``b``, ``Jx``) and four halos, plus six ``c = Υλ`` columns
#: (precomputed) or six Υ, own λ, four neighbour λ and a λ-scratch
#: (fused mobility).  No buffer reuse adds a scratch column, a
#: partial-Dirichlet column a mask.
PAPER_COLUMNS = {KernelVariant.PRECOMPUTED: 15, KernelVariant.FUSED_MOBILITY: 21}


@pytest.mark.parametrize("kind", list(DirichletKind))
@pytest.mark.parametrize("reuse", [True, False])
@pytest.mark.parametrize("variant", list(KernelVariant))
def test_inventory_is_the_papers_column_count(variant, reuse, kind):
    columns = (
        *HALO_BUFFER.values(),
        *pe_columns(variant, reuse, False, False, False, kind is DirichletKind.PARTIAL),
    )
    assert len(set(columns)) == len(columns)
    expected = PAPER_COLUMNS[variant] + (not reuse) + (kind is DirichletKind.PARTIAL)
    assert len(columns) == expected
    model = PeMemoryModel(variant=variant, reuse_buffers=reuse, dirichlet=kind)
    assert model.num_columns() == expected


def _problem():
    """Two full well columns and one partial column (its top cell)."""
    rng = np.random.default_rng(3)
    grid = CartesianGrid3D(4, 3, 3)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[0, 0, :] = mask[3, 2, :] = True
    mask[2, 1, 0] = True
    values = rng.uniform(0.0, 1.0, grid.shape)
    perm = np.exp(rng.normal(0.0, 1.0, grid.shape))
    return build_problem(grid, perm, DirichletSet(grid, mask, values))


@pytest.mark.parametrize("transient", [False, True], ids=["steady", "transient"])
@pytest.mark.parametrize("variant", list(KernelVariant))
def test_event_pes_hold_their_column_of_the_staging(variant, transient):
    problem = _problem()
    rng = np.random.default_rng(4)
    acc = build_accumulation(problem, dt=0.5) if transient else None
    rhs = rng.uniform(-1.0, 1.0, problem.grid.shape) if transient else None
    program = CgProgram(
        variant=variant, preconditioner="jacobi", accumulation=transient
    )
    engine = EventEngine(
        problem, program, spec=SPEC, dtype=np.float32,
        initial_pressure=rng.uniform(-1.0, 1.0, problem.grid.shape),
        accumulation=acc, rhs=rhs,
    )
    st = engine.staging
    host = st.host_columns()
    kinds = set()
    for pe in engine.fabric.iter_pes():
        x, y = pe.x, pe.y
        kind = engine.kernel_configs[(x, y)].dirichlet
        kinds.add(kind)
        partial = kind is DirichletKind.PARTIAL
        inventory = pe_columns(variant, True, True, False, transient, partial)
        assert list(pe.memory.report()) == [*HALO_BUFFER.values(), *inventory]
        loaded = [name for name in inventory if host.get(name) is not None]
        assert {"y", "b", "inv_diag"} <= set(loaded)
        assert ("acc" in loaded) == transient
        assert ("bc_mask" in loaded) == partial
        for name in inventory:
            column = pe.memory.get(name)
            if name in loaded:
                expected = host[name][x, y]
                assert column.dtype == expected.dtype, name
                assert column.tobytes() == expected.tobytes(), (name, x, y)
            else:
                assert not column.any(), name
        # The port-keyed columns, against the problem and the fabric:
        # each face coefficient is the face the port faces, and each
        # neighbour mobility column the neighbour's own, zero off the
        # fabric edge.
        if variant is KernelVariant.PRECOMPUTED:
            for port, name in COEFF_BUFFER.items():
                face = problem.coefficients.cell_view(DIRECTION_FOR_PORT[port])
                np.testing.assert_array_equal(
                    pe.memory.get(name), face[x, y].astype(np.float32)
                )
        else:
            for port, name in MOBILITY_BUFFER.items():
                n = engine.fabric.neighbor_coords(x, y, port)
                expected = np.zeros(3) if n is None else st.lam[n[0], n[1]]
                np.testing.assert_array_equal(pe.memory.get(name), expected)
    assert kinds == set(DirichletKind)
