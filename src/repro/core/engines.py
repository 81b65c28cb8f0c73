"""Fabric engine registry: how a :class:`CgProgram` gets executed.

Two executions of the same engine-agnostic program description
(:mod:`repro.core.program`) exist:

* ``"event"`` — the discrete-event oracle (one Python PE per fabric PE,
  one event per wavelet; cycle-accurate, byte-stable traces);
* :class:`~repro.core.cg_driver.CgDriver` — one CG loop over the tiled
  array kernel (:class:`~repro.fused.kernels.FusedNumpyBackend`) with
  an analytic cycle/counter model whose counters, traffic and memory
  are exactly the oracle's.

Every other engine name is a *layout* of the driver's kernel:

* ``"vectorized"`` — one whole-grid tile (paper-scale fabrics);
* ``"fused"`` — cache-sized tiles (auto-picked, or ``fused_tile``);
* ``"sharded"`` — the grid split over a worker crew (serial or
  threads), one kernel per shard with real halo
  exchange and shard-ordered dot reduction (``shard_shape``,
  ``shard_workers``, optionally ``fused_tile`` inside each shard);
* batched ``"vectorized"``/``"fused"`` — N same-shape problems, one
  lane each (reported as ``"batched"``/``"batched_fused"``).

Selection is declarative via ``MachineSpec(engine=...)``; the solver
resolves the name here.  An unset engine means :data:`DEFAULT_ENGINE`,
the ``"fused"`` layout: the wse backend fills it in before anything
reads the spec, so ``"event"`` is an explicit opt-in for oracle work
(the paper's cycle-accurate tables and the fabric's own tests).
Construction is lazy per name so the event oracle never imports the
array machinery and vice versa.
"""

from __future__ import annotations

import difflib
from typing import Protocol, Sequence

import numpy as np

from repro.core.program import CgProgram, EngineReport
from repro.physics.darcy import SinglePhaseProblem
from repro.solvers.preconditioning import Preconditioner
from repro.spec import FABRIC_ENGINES, TILE_ENGINES
from repro.util.errors import ConfigurationError
from repro.wse.specs import WseSpecs

#: Engine names MachineSpec.engine accepts (None defers to the default).
#: Aliases :data:`repro.spec.FABRIC_ENGINES` — one source of truth.
ENGINE_NAMES = FABRIC_ENGINES

#: What an unset ``MachineSpec.engine`` means — the only place the
#: default is spelled (``WseBackend.resolve`` and every entry point of
#: :mod:`repro.core.solver` read it from here).
DEFAULT_ENGINE = "fused"

#: Engines that accept a shard layout (``shard_shape``/``shard_workers``).
SHARD_CAPABLE_ENGINES = ("sharded",)

#: Engines that accept a cache-tile shape (``fused_tile``).  The sharded
#: engine qualifies because its per-shard kernels are tiled too.
#: Aliases :data:`repro.spec.TILE_ENGINES`.
TILE_CAPABLE_ENGINES = TILE_ENGINES

#: Engines that can execute a ``batch > 1`` program.  The event oracle
#: plays one wavelet at a time and cannot; the sharded engine spends its
#: parallelism across the fabric, not across problems.  Asking either to
#: batch is a configuration error, not a silent serialization.
BATCH_CAPABLE_ENGINES = ("vectorized", "fused")


def _unknown_engine_error(name: str) -> ConfigurationError:
    close = difflib.get_close_matches(str(name), ENGINE_NAMES, n=1, cutoff=0.5)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    return ConfigurationError(
        f"unknown fabric engine {name!r}{hint} "
        f"(valid engines: {', '.join(ENGINE_NAMES)})"
    )


class FabricEngine(Protocol):
    """What the solver needs from an engine (structural typing)."""

    name: str

    def run(self) -> EngineReport:
        ...


def _check_layout(name: str, shard_shape, shard_workers, fused_tile) -> None:
    if name not in ENGINE_NAMES:
        raise _unknown_engine_error(name)
    if name not in SHARD_CAPABLE_ENGINES and (
        shard_shape is not None or shard_workers is not None
    ):
        raise ConfigurationError(
            f"fabric engine {name!r} is single-shard; shard_shape/"
            f"shard_workers require one of "
            f"{', '.join(SHARD_CAPABLE_ENGINES)}"
        )
    if name not in TILE_CAPABLE_ENGINES and fused_tile is not None:
        raise ConfigurationError(
            f"fabric engine {name!r} is untiled; fused_tile requires "
            f"one of {', '.join(TILE_CAPABLE_ENGINES)}"
        )


def create_engine(
    name: str,
    problem: SinglePhaseProblem,
    program: CgProgram,
    *,
    spec: WseSpecs,
    dtype=np.float32,
    simd_width: int | None = None,
    initial_pressure: np.ndarray | None = None,
    accumulation: np.ndarray | None = None,
    rhs: np.ndarray | None = None,
    precondition: Preconditioner | None = None,
    shard_shape=None,
    shard_workers: str | None = None,
    fused_tile=None,
) -> FabricEngine:
    """Instantiate the engine ``name`` for one solve (staging included).
    ``precondition`` is the system's built ``M`` (default: the
    program's, built at staging)."""
    _check_layout(name, shard_shape, shard_workers, fused_tile)
    if name == "event":
        from repro.core.event_engine import EventEngine

        return EventEngine(
            problem, program, spec=spec, dtype=dtype, simd_width=simd_width,
            initial_pressure=initial_pressure, accumulation=accumulation,
            rhs=rhs, precondition=precondition,
        )
    if program.batch != 1:
        raise ConfigurationError(
            f"engine {name!r} runs single-problem programs; got batch="
            f"{program.batch} (use create_batched_engine)"
        )
    return _layout(
        name, [problem], program, spec=spec, dtype=dtype,
        simd_width=simd_width, tol_rtrs=[program.tol_rtr],
        guesses=[initial_pressure], accs=[accumulation], rhss=[rhs],
        preconditions=[precondition],
        fused_tile=fused_tile, shard_shape=shard_shape,
        shard_workers=shard_workers,
    )


def create_batched_engine(
    name: str,
    problems,
    program: CgProgram,
    *,
    spec: WseSpecs,
    dtype=np.float32,
    simd_width: int | None = None,
    tol_rtrs=None,
    initial_pressure=None,
    accumulation=None,
    rhs=None,
    preconditions=None,
    shard_shape=None,
    shard_workers: str | None = None,
    fused_tile=None,
):
    """Instantiate the batched layout for one multi-problem solve.

    ``name`` follows the same vocabulary as :func:`create_engine`; only
    :data:`BATCH_CAPABLE_ENGINES` are accepted.  All problems must share
    one grid shape; ``tol_rtrs`` supplies each lane's resolved absolute
    tolerance (default ``program.tol_rtr``) and ``preconditions`` each
    lane's built ``M`` (default: built at staging); ``initial_pressure``/
    ``accumulation``/``rhs`` accept one shared field or one per lane.
    The returned driver's ``run_lanes()`` yields one report per problem,
    exactly what a serial solve of that problem alone would produce."""
    from repro.wse.vector_engine import normalize_guesses

    _check_layout(name, shard_shape, shard_workers, fused_tile)
    if name not in BATCH_CAPABLE_ENGINES:
        raise ConfigurationError(
            f"fabric engine {name!r} runs one problem at a time; batched "
            f"execution requires one of "
            f"{', '.join(BATCH_CAPABLE_ENGINES)}"
        )
    problems = list(problems)
    if not problems:
        raise ConfigurationError("batched engine needs at least one problem")
    if program.batch != len(problems):
        raise ConfigurationError(
            f"program.batch is {program.batch} but {len(problems)} "
            f"problems were supplied"
        )
    shapes = {p.grid.shape for p in problems}
    if len(shapes) != 1:
        raise ConfigurationError(
            f"all problems in a batch must share one grid shape; got "
            f"{sorted(shapes)}"
        )
    count, shape = len(problems), problems[0].grid.shape
    if tol_rtrs is None:
        tol_rtrs = [program.tol_rtr] * count
    if preconditions is None:
        preconditions = [None] * count
    for label, values in (("tol_rtrs", tol_rtrs), ("preconditions", preconditions)):
        if len(values) != count:
            raise ConfigurationError(
                f"{label} has {len(values)} entries for a batch of {count}"
            )
    return _layout(
        "batched" if name == "vectorized" else "batched_fused",
        problems, program, spec=spec, dtype=dtype, simd_width=simd_width,
        tol_rtrs=tol_rtrs,
        guesses=normalize_guesses(initial_pressure, count, shape),
        accs=normalize_guesses(accumulation, count, shape),
        rhss=normalize_guesses(rhs, count, shape),
        preconditions=preconditions,
        fused_tile=fused_tile,
    )


def _layout(
    name: str,
    problems: Sequence[SinglePhaseProblem],
    program: CgProgram,
    *,
    spec: WseSpecs,
    dtype,
    simd_width: int | None,
    tol_rtrs,
    guesses,
    accs,
    rhss,
    preconditions,
    fused_tile=None,
    shard_shape=None,
    shard_workers: str | None = None,
):
    """Stage every problem into a lane of the kernel ``name`` lays out,
    and hand the lanes to one :class:`~repro.core.cg_driver.CgDriver`."""
    from repro.core.cg_driver import CgDriver, Lane
    from repro.core.mapping import ProblemMapping
    from repro.fused.kernels import FusedNumpyBackend
    from repro.fused.tiling import resolve_tile
    from repro.wse.vector_engine import _memory_report, _stage_problem

    dtype = np.dtype(dtype)
    nx, ny, nz = problems[0].grid.shape
    if name in ("vectorized", "batched"):
        tile = (nx, ny)
    else:
        tile = resolve_tile(fused_tile, nx, ny, nz, dtype.itemsize)
    lanes = []
    for problem, tol, guess, acc, rhs, precondition in zip(
        problems, tol_rtrs, guesses, accs, rhss, preconditions
    ):
        st = _stage_problem(
            problem, program, dtype, guess, accumulation=acc, rhs=rhs,
            precondition=precondition,
        )
        memory = _memory_report(spec, program, nz, dtype, st.kind_counts)
        if name == "sharded":
            from repro.shard import ShardedKernel

            kernel = ShardedKernel(
                st, program, dtype=dtype, shard_shape=shard_shape,
                shard_workers=shard_workers, fused_tile=fused_tile,
            )
            lane = Lane(kernel, st, float(tol), memory, kernel.extras)
        else:
            kernel = FusedNumpyBackend(st, program, tile=tile, dtype=dtype)
            lane = Lane(kernel, st, float(tol), memory)
            if name in ("fused", "batched_fused"):
                info = {"tile": list(tile), "tiles": len(kernel.boxes)}
                lane.extras = lambda k, info=info: {"fused": dict(info)}
        lanes.append(lane)
    return CgDriver(
        name, lanes, program, spec=spec,
        simd_width=int(simd_width if simd_width is not None else spec.simd_width_f32),
        mapping=ProblemMapping(problems[0].grid, spec),
    )


__all__ = [
    "BATCH_CAPABLE_ENGINES",
    "DEFAULT_ENGINE",
    "ENGINE_NAMES",
    "FabricEngine",
    "SHARD_CAPABLE_ENGINES",
    "TILE_CAPABLE_ENGINES",
    "create_batched_engine",
    "create_engine",
]
