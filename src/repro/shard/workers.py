"""Shard workers and the pools ("crews") that run them.

A :class:`ShardWorker` owns one shard's numerics: a
:class:`~repro.fused.kernels.FusedNumpyBackend` over the shard's slice
of the staging, whose ``x_ext`` pad ring takes the neighbours' boundary
planes.  The :class:`~repro.shard.kernel.ShardedKernel` drives all
workers in lockstep *rounds* (named after :meth:`CgProgram.shard_rounds`):
every round is a barrier — it is dispatched to every worker and returns
once every shard has handed back its dot partials.  Halo mailboxes are
written at the end of one round and read at the start of a later one,
so the barrier *is* the happens-before edge that makes the exchange
race-free.

Two crews share the worker code:

* ``serial`` — an in-process loop (deterministic baseline, tests);
* ``thread`` — persistent daemon threads over the coordinator's own
  arrays (NumPy releases the GIL inside the sweeps, so shards genuinely
  overlap; zero-copy staging — the default).

Every crew guarantees **no orphaned workers**: threads are daemonic, and
``close()`` (called when the kernel's run ends, however it ends) joins
them.  ``benchmarks/shard_smoke.py`` asserts this in CI.
"""

from __future__ import annotations

import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.program import CgProgram
from repro.fused.kernels import FusedNumpyBackend
from repro.shard.layout import DIRECTIONS, OPPOSITE, ShardBox, ShardLayout
from repro.util.errors import ConfigurationError
from repro.wse.vector_engine import staging_from_arrays

#: Worker-pool modes the sharded engine accepts.
CREW_MODES = ("serial", "thread")


def default_crew(layout: ShardLayout) -> str:
    """The crew a solve gets when the caller doesn't choose one.

    A worker pool only pays for its barrier sync when shards can
    actually sweep concurrently: with a single shard, or a single host
    CPU, the pool is pure overhead, so those solves run the in-process
    serial crew.  Every crew is bit-identical, so the choice is purely
    a throughput matter."""
    if len(layout.boxes) == 1 or (os.cpu_count() or 1) < 2:
        return "serial"
    return "thread"


@dataclass(frozen=True)
class WorkerParams:
    """Per-solve settings every worker needs."""

    program: CgProgram
    dtype: str
    #: The *global* partial-Dirichlet flag (see :func:`staging_from_arrays`).
    has_partial: bool
    #: Cache-tile shape inside the shard (``None``: one whole-shard tile).
    fused_tile: tuple[int, int] | None = None


def _boundary_plane(field: np.ndarray, direction: str) -> np.ndarray:
    """The one-cell boundary plane of ``field`` on side ``direction``."""
    return {
        "west": field[0, :, :], "east": field[-1, :, :],
        "north": field[:, 0, :], "south": field[:, -1, :],
    }[direction]


class ShardWorker:
    """One shard's CG numerics between coordinator rounds."""

    def __init__(
        self,
        arrays: dict[str, np.ndarray],
        box: ShardBox,
        neighbors: dict[str, int | None],
        outboxes: list[dict[str, np.ndarray]],
        result: np.ndarray,
        params: WorkerParams,
    ):
        program = params.program
        self.mg = program.mg
        st = staging_from_arrays(
            arrays, program, (slice(box.x0, box.x1), slice(box.y0, box.y1)),
            has_partial=params.has_partial,
        )
        self.kernel = FusedNumpyBackend(
            st, program, tile=params.fused_tile or (box.nx, box.ny),
            dtype=np.dtype(params.dtype),
        )
        # The sides of the kernel's stencil-buffer pad ring (the corners
        # are never read).  Fabric-edge sides stay zero forever, which
        # reproduces `_shifted`'s zero halos.  My halo source in
        # direction d is that neighbour's plane published *toward me* —
        # its OPPOSITE[d] mailbox.
        ext = self.kernel.x_ext
        pads = {
            "west": ext[0, 1:-1], "east": ext[-1, 1:-1],
            "north": ext[1:-1, 0], "south": ext[1:-1, -1],
        }
        self.halos = [
            (pads[direction], outboxes[nbr][OPPOSITE[direction]])
            for direction, nbr in neighbors.items()
            if nbr is not None
        ]
        self.outbox = outboxes[box.index]
        # The crew board: the gather target, and the mg residual/
        # correction exchange with the coordinator's V-cycle.
        self.board = result[box.x0:box.x1, box.y0:box.y1, :]

    def _fill(self) -> None:
        """Copy the neighbours' published planes into the pad ring."""
        for pad, inbox in self.halos:
            pad[...] = inbox

    def _publish(self, field: np.ndarray) -> None:
        """Copy this shard's boundary planes into its mailboxes."""
        for direction, plane in self.outbox.items():
            plane[...] = _boundary_plane(field, direction)

    def round(self, name: str, scalar: float | None = None) -> list | None:
        """Run round ``name``; reducing rounds return the shard's dot
        partials (tile order)."""
        k = self.kernel
        if name == "stage":
            self._publish(k.y)
        elif name == "gather":
            self.board[...] = k.y
        elif name == "publish":
            # p is published in its own round, after the init barrier:
            # neighbours may still be filling their y halos from these
            # same single-buffered mailbox planes.
            self._publish(k.p)
        elif name == "init":
            self._fill()
            if not self.mg:
                return k.init_pass().tolist()
            # The V-cycle is global: push r to the board and wait for
            # the coordinator's z ("mg_init" completes the phase).
            k.init_residual_pass()
            self.board[...] = k.r
        elif name == "mg_init":
            k.z[...] = self.board
            return k.mg_seed_pass().tolist()
        elif name == "body":
            self._fill()
            return k.body_pass().tolist()
        elif name == "update":
            if not self.mg:
                return k.update_pass(scalar).tolist()
            k.update_axpy_pass(scalar)
            self.board[...] = k.r
        elif name == "mg_update":
            k.z[...] = self.board
            return k.mg_dot_pass().tolist()
        elif name == "direction":
            k.direction_pass(scalar)
            self._publish(k.p)
        else:
            raise ConfigurationError(f"unknown shard round {name!r}")
        return None


def _build_outboxes(
    layout: ShardLayout, nz: int, dtype: np.dtype
) -> list[dict[str, np.ndarray]]:
    """One zeroed mailbox plane per live (shard, direction)."""
    out: list[dict[str, np.ndarray]] = []
    for box in layout.boxes:
        planes: dict[str, np.ndarray] = {}
        for direction, _, _ in DIRECTIONS:
            if layout.neighbor_index(box, direction) is not None:
                extent = box.ny if direction in ("west", "east") else box.nx
                planes[direction] = np.zeros((extent, nz), dtype=dtype)
        out.append(planes)
    return out


# -- crews --------------------------------------------------------------------


class SerialCrew:
    """All shards in one loop — the determinism/debug baseline."""

    mode = "serial"

    def __init__(self, layout, arrays, params, nz, dtype):
        dtype = np.dtype(dtype)
        self._result = np.zeros((layout.nx, layout.ny, nz), dtype=dtype)
        outboxes = _build_outboxes(layout, nz, dtype)
        self._workers = [
            ShardWorker(
                arrays, box, layout.neighbors(box), outboxes,
                self._result, params,
            )
            for box in layout.boxes
        ]

    def start(self) -> None:
        self.round("stage")

    def round(self, name: str, scalar: float | None = None) -> list:
        """Run one round on every shard; the per-shard results, in
        shard order (returning is the barrier)."""
        return [w.round(name, scalar) for w in self._workers]

    def board(self) -> np.ndarray:
        """The full-grid board (mg residual/correction staging between
        barriers; also the gather target)."""
        return self._result

    def gather(self) -> np.ndarray:
        self.round("gather")
        return self.board().copy()

    def close(self) -> None:
        pass


class ThreadCrew(SerialCrew):
    """Persistent daemon threads, one per shard, dispatched per round
    (queue hand-offs order the coordinator's board writes against the
    workers' reads)."""

    mode = "thread"

    def __init__(self, layout, arrays, params, nz, dtype):
        super().__init__(layout, arrays, params, nz, dtype)
        self._cmd: list[queue.SimpleQueue] = [
            queue.SimpleQueue() for _ in self._workers
        ]
        self._out: queue.SimpleQueue = queue.SimpleQueue()
        self._threads = [
            threading.Thread(
                target=self._loop, args=(i,), daemon=True,
                name=f"shard-worker-{i}",
            )
            for i in range(len(self._workers))
        ]

    def _loop(self, i: int) -> None:
        while True:
            cmd = self._cmd[i].get()
            if cmd is None:
                return
            name, scalar = cmd
            try:
                self._out.put((i, "ok", self._workers[i].round(name, scalar)))
            except BaseException as exc:  # surfaced by the coordinator
                self._out.put((i, "err", exc))

    def start(self) -> None:
        for t in self._threads:
            t.start()
        super().start()

    def round(self, name: str, scalar: float | None = None) -> list:
        for q in self._cmd:
            q.put((name, scalar))
        results: list = [None] * len(self._workers)
        error: BaseException | None = None
        for _ in self._workers:
            i, status, payload = self._out.get()
            if status == "err":
                error = error or payload
            else:
                results[i] = payload
        if error is not None:
            raise error
        return results

    def close(self) -> None:
        for q in self._cmd:
            q.put(None)
        for t in self._threads:
            if t.is_alive():
                t.join(timeout=5.0)


_CREWS = {"serial": SerialCrew, "thread": ThreadCrew}


def create_crew(mode: str, layout, arrays, params, nz, dtype):
    """The ``mode`` crew (one of :data:`CREW_MODES`) over ``layout``."""
    return _CREWS[mode](layout, arrays, params, nz, dtype)


__all__ = [
    "CREW_MODES",
    "SerialCrew",
    "ShardWorker",
    "ThreadCrew",
    "WorkerParams",
    "create_crew",
    "default_crew",
]
