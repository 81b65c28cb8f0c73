"""The sharded layout's kernel: one grid, swept by a worker crew.

:class:`ShardedKernel` is a :class:`~repro.core.cg_driver.CgDriver`
lane whose passes are crew *rounds* (named after
:meth:`CgProgram.shard_rounds`).  A pass dispatches its round to every
shard worker — each runs a :class:`~repro.fused.kernels.FusedNumpyBackend`
over its own shard, with its neighbours' boundary planes written into
that backend's ``x_ext`` pad ring — and hands the driver every shard's
dot partials in shard order (tile order within a shard).  The sharded
solve therefore runs the same loop, charges and convergence logic as
every other layout.

Parity contract (pinned in ``tests/test_sharded_engine.py`` and fuzzed
in ``tests/test_engine_fuzz.py``):

* **counters / traffic / memory / state visits** — exactly the
  vectorized layout's: the driver charges one fabric, however many
  workers sweep it.
* **iterates** — bitwise per element (the pad rings reproduce
  ``_shifted``); only the shard-ordered reduction of the dot partials
  differs, so alpha/beta and the pressure agree to fp round-off.  With
  an explicit ``fused_tile`` each shard reduces per tile, as the fused
  layout does, so a ``1x1`` layout with tile T is bitwise the fused
  layout with tile T.
* **inter-shard traffic** — :class:`~repro.shard.links.InterShardLinkModel`
  charges one halo exchange per FV apply and one reduction per dot,
  reported under ``EngineReport.shard["links"]``.  A ``1x1`` layout
  moves zero bytes.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.program import CgProgram
from repro.fused.tiling import normalize_fused_tile
from repro.shard.layout import ShardLayout
from repro.shard.links import InterShardLinkModel
from repro.shard.workers import CREW_MODES, WorkerParams, create_crew, default_crew
from repro.util.errors import ConfigurationError
from repro.wse.vector_engine import _Staging, staging_to_arrays


class ShardedKernel:
    """The CG passes of one problem, run as rounds of a shard crew.

    ``shard_shape`` is an ``(sx, sy)`` pair or an int for a 1-D split;
    ``shard_workers`` is ``"serial"`` or ``"thread"`` (``None`` picks
    :func:`~repro.shard.workers.default_crew`).  The crew lives for one
    driver run: entering the kernel spawns it and publishes the ``y``
    planes, leaving it joins every worker.
    """

    def __init__(
        self,
        st: _Staging,
        program: CgProgram,
        *,
        dtype: np.dtype,
        shard_shape=None,
        shard_workers: str | None = None,
        fused_tile=None,
    ):
        if shard_workers is not None and shard_workers not in CREW_MODES:
            raise ConfigurationError(
                f"unknown shard worker mode {shard_workers!r}; choose one "
                f"of {', '.join(CREW_MODES)}"
            )
        self.shape = st.y.shape
        nx, ny, _ = self.shape
        self.layout = ShardLayout.build(
            shard_shape if shard_shape is not None else (1, 1), nx, ny
        )
        self.workers = (
            shard_workers if shard_workers is not None
            else default_crew(self.layout)
        )
        self.dtype = np.dtype(dtype)
        self.fused_tile = normalize_fused_tile(fused_tile)
        self._arrays = staging_to_arrays(st, program)
        self._params = WorkerParams(
            program=program,
            dtype=self.dtype.str,
            has_partial=st.has_partial,
            fused_tile=self.fused_tile,
        )
        self._crew = None

    def __enter__(self) -> "ShardedKernel":
        crew = create_crew(
            self.workers, self.layout, self._arrays, self._params,
            self.shape[2], self.dtype,
        )
        try:
            crew.start()  # spawn workers + stage round (publish y planes)
        except BaseException:
            crew.close()
            raise
        self._crew = crew
        return self

    def __exit__(self, *exc) -> None:
        self._crew.close()
        self._crew = None

    # -- the global fields ----------------------------------------------------

    @property
    def r(self) -> np.ndarray:
        """The crew board: after ``init_residual_pass``/
        ``update_axpy_pass`` it holds every shard's ``r`` block, and the
        V-cycle's ``z`` written here is what the next round reads."""
        return self._crew.board()

    z = r

    @property
    def y(self) -> np.ndarray:
        """Every shard's solution block, gathered."""
        return self._crew.gather()

    # -- the passes -----------------------------------------------------------

    def _partials(self, name: str, scalar: float | None = None):
        return itertools.chain.from_iterable(self._crew.round(name, scalar))

    def init_pass(self):
        partials = list(self._partials("init"))
        # p is published only after the init barrier: neighbours may
        # still be filling their y halos from the same single-buffered
        # mailbox planes.
        self._crew.round("publish")
        return partials

    def init_residual_pass(self) -> None:
        self._crew.round("init")

    def mg_seed_pass(self):
        partials = list(self._partials("mg_init"))
        self._crew.round("publish")
        return partials

    def body_pass(self):
        return self._partials("body")

    def update_pass(self, alpha: float):
        return self._partials("update", alpha)

    def update_axpy_pass(self, alpha: float) -> None:
        self._crew.round("update", alpha)

    def mg_dot_pass(self):
        return self._partials("mg_update")

    def direction_pass(self, beta: float) -> None:
        self._crew.round("direction", beta)  # also republishes p planes

    # -- telemetry ------------------------------------------------------------

    def extras(self, iterations: int) -> dict:
        """``EngineReport.shard`` for a solve of ``iterations`` steps:
        one halo exchange at INIT and one per iteration; one reduction
        at INIT and two (``p·Jp``, ``r·z``) per iteration."""
        links = InterShardLinkModel(self.layout, self.shape[2], self.dtype.itemsize)
        links.charge_exchange(iterations + 1)
        links.charge_reduce(2 * iterations + 1)
        shard = {
            "layout": self.layout.to_dict(),
            "workers": self.workers,
            "links": links.to_dict(),
            "fused_tile": (
                None if self.fused_tile is None else list(self.fused_tile)
            ),
        }
        if self._params.program.mg:
            # Each V-cycle gathers r off the board and scatters z back;
            # the fabric-side cost is in the driver's mg packet, and the
            # link model stays untouched.
            cells = self.shape[0] * self.shape[1] * self.shape[2]
            shard["mg_host_bytes"] = 2 * (iterations + 1) * cells * self.dtype.itemsize
        return {"shard": shard}


__all__ = ["ShardedKernel"]
