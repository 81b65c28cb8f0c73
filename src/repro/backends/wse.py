"""The simulated wafer-scale dataflow fabric as a registered backend.

The simulator machinery is imported lazily inside ``solve`` so importing
``repro`` (or solving on the reference/GPU paths) never pays for it.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.backends.base import SimulationResult, SolveResult, StepResult
from repro.physics.darcy import SinglePhaseProblem
from repro.spec import SolveSpec, coerce_spec
from repro.util.errors import ConfigurationError


class WseBackend:
    """Matrix-free CG on the simulated dataflow fabric.

    Consumes a :class:`~repro.spec.SolveSpec`: ``machine.spec`` is the
    :class:`WseSpecs` target (default :data:`WSE2`, the full 750×994 CS-2
    fabric, so any simulator-scale grid fits), ``machine.engine`` selects
    the fabric execution engine (a layout of the one array CG driver:
    ``"fused"``, cache-sized tiles — ``fused_tile`` picks the tile — and
    the default, see :meth:`resolve`; ``"vectorized"``, one whole-grid
    tile for paper-scale fabrics; or ``"sharded"``, a fabric decomposed
    into shards whose tiles run shard by shard — ``shard_shape`` picks
    the decomposition, ``fused_tile`` tiles each shard, and
    ``telemetry["shard"]`` reports the inter-shard traffic; or
    ``"event"``, the per-PE
    discrete-event oracle, as an explicit opt-in), plus the dataflow
    design knobs
    ``simd_width`` (§III-E.3), ``variant`` (precomputed ``c = Υλ`` vs.
    in-kernel mobility fusion), ``reuse_buffers`` (§III-E.1),
    ``comm_only``/``fixed_iterations`` (§V-C's Table IV methodology) and
    ``preconditioner`` — ``"jacobi"`` (purely PE-local diagonal scaling)
    or ``"mg"`` (host-assisted geometric multigrid V-cycle, charged
    through the shared packet builders; ``mg_levels`` /
    ``mg_smoother_iters`` tune the hierarchy).  The resolved spec goes
    straight to :mod:`repro.core.solver`, whose one builder reads the
    program every engine runs from it (and rejects ``block_shape``,
    which belongs to the GPU).
    """

    name = "wse"

    #: This backend answers ``spec.time`` natively: the transient kernel
    #: (accumulation FMA) runs on every fabric engine, batched included.
    supports_transient = True

    @staticmethod
    def resolve(spec: SolveSpec) -> SolveSpec:
        """``spec`` with an unset ``machine.engine`` filled in from
        :data:`~repro.core.engines.DEFAULT_ENGINE` (a spec that names
        its engine comes back as the same object).

        The one place an unset engine gets its meaning: every entry
        point here resolves first, and :func:`repro.session.plan_entry`
        fingerprints the resolved spec, so an unset request is keyed,
        stored and fused exactly like one naming the default engine.
        """
        if spec.machine.engine is not None:
            return spec
        from repro.core.engines import DEFAULT_ENGINE

        return spec.with_options(engine=DEFAULT_ENGINE)

    @classmethod
    def can_batch(cls, spec: SolveSpec) -> bool:
        """The one fusability rule: whether ``spec``'s engine (resolved
        by :meth:`resolve`) can run several problems as the lanes of one
        program.  The batching planner
        (:func:`repro.session.plan_lanes`) asks this; the multi-problem
        entry points refuse specs it rejects.
        """
        from repro.core.engines import BATCH_CAPABLE_ENGINES

        return cls.resolve(spec).machine.engine in BATCH_CAPABLE_ENGINES

    def _refuse_unbatchable(self, spec: SolveSpec, what: str) -> None:
        if self.can_batch(spec):
            return
        from repro.core.engines import BATCH_CAPABLE_ENGINES

        raise ConfigurationError(
            f"{what} needs a batch-capable engine "
            f"({', '.join(BATCH_CAPABLE_ENGINES)}); engine="
            f"{spec.machine.engine!r} plays one problem at a time (set "
            f"engine='fused' or engine='vectorized')"
        )

    def _telemetry_from_report(
        self, report, spec: SolveSpec, extra_telemetry: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        # Telemetry carries stable to_dict() summaries, not live simulator
        # objects: ResultStore records, bench JSON and pickled
        # process-pool results stay serializable and small.
        # mg reports carry a structured preconditioner record (levels,
        # sweeps, V-cycle count); none/jacobi stay the plain spec string.
        precond = getattr(report, "preconditioner", None)
        telemetry: dict[str, Any] = {
            "time_kind": "simulated_device",
            "preconditioner": (
                precond if precond is not None else spec.preconditioner
            ),
            "engine": report.engine,
            "trace": report.trace.to_dict(),
            "counters": report.counters.to_dict(),
            "memory": dict(report.memory),
            "state_visits": [state.name for state in report.state_visits],
        }
        shard = getattr(report, "shard", None)
        if shard is not None:
            telemetry["shard"] = shard
        fused = getattr(report, "fused", None)
        if fused is not None:
            telemetry["fused"] = fused
        if extra_telemetry:
            telemetry.update(extra_telemetry)
        return telemetry

    def _result_from_report(
        self, report, spec: SolveSpec, extra_telemetry: dict[str, Any] | None = None
    ) -> SolveResult:
        telemetry = self._telemetry_from_report(report, spec, extra_telemetry)
        return SolveResult(
            pressure=np.asarray(report.pressure),
            iterations=report.iterations,
            converged=report.converged,
            residual_history=[float(v) for v in report.residual_history],
            elapsed_seconds=report.elapsed_seconds,
            backend=self.name,
            telemetry=telemetry,
        )

    def solve(self, problem: SinglePhaseProblem, spec: SolveSpec | None = None) -> SolveResult:
        from repro.core.solver import _build

        spec = self.resolve(coerce_spec(spec))
        if spec.machine.batch_size is not None:
            self._refuse_unbatchable(spec, "machine.batch_size")
        if spec.time is not None:
            # Transient study: one signature for steady and time-dependent
            # targets — the simulation folds into a canonical SolveResult
            # (final state; aggregate iterations/device time; per-step
            # breakdown under telemetry["transient"]).
            return SimulationResult.collect(
                self.simulate(problem, spec), spec
            ).as_solve_result()
        report = _build(spec, [problem], [None], [None], [None], batched=False).run()
        return self._result_from_report(report, spec)

    # -- transient time stepping ----------------------------------------------

    def _step_from_report(
        self,
        report,
        spec: SolveSpec,
        *,
        step: int,
        time: float,
        dt: float,
        extra_telemetry: dict[str, Any] | None = None,
    ) -> StepResult:
        return StepResult(
            step=step,
            time=time,
            dt=dt,
            pressure=np.asarray(report.pressure),
            iterations=report.iterations,
            converged=report.converged,
            residual_history=[float(v) for v in report.residual_history],
            elapsed_seconds=report.elapsed_seconds,
            backend=self.name,
            telemetry=self._telemetry_from_report(report, spec, extra_telemetry),
        )

    def simulate(
        self,
        problem: SinglePhaseProblem,
        spec: SolveSpec | None = None,
        *,
        start_step: int = 0,
        state: np.ndarray | None = None,
    ) -> Iterator[StepResult]:
        """Stream the backward-Euler steps of ``spec.time`` as
        :class:`StepResult`\\ s.

        Each step runs the transient CG program (flux stencil plus the
        accumulation FMA) on the spec's fabric engine; warm starts carry
        the previous step's pressure into the next step's CG.
        ``start_step``/``state`` resume an interrupted schedule (the
        :class:`~repro.session.ResultStore` resume path).
        """
        from repro.core.solver import _simulate

        spec = self.resolve(coerce_spec(spec))
        time = spec.require_time()
        dts, times = time.dts(), time.times()
        steps = _simulate(
            spec, [problem], [state], batched=False, start_step=start_step,
            **time.stepper_options(),
        )
        for offset, (report,) in enumerate(steps):
            idx = start_step + offset
            yield self._step_from_report(
                report, spec, step=idx + 1, time=times[idx], dt=dts[idx]
            )

    def simulate_batch(
        self,
        problems: list[SinglePhaseProblem],
        spec: SolveSpec | None = None,
        *,
        start_step: int = 0,
        states=None,
    ) -> list[SimulationResult]:
        """Time-step many same-shape realizations together.

        Every step is one batched program, one lane per realization,
        with per-lane accumulation/rhs/warm-start/tolerance and
        convergence; each realization comes back as its own
        :class:`SimulationResult` whose per-step counters equal a serial
        simulation of that realization alone.
        """
        from repro.core.solver import _simulate

        spec = self.resolve(coerce_spec(spec))
        problems = list(problems)
        if not problems:
            return []
        self._refuse_unbatchable(spec, "batched execution")
        time = spec.require_time()
        dts, times = time.dts(), time.times()
        batches = _batch_records(len(problems), spec.machine.batch_size)
        lane_steps: list[list[StepResult]] = [[] for _ in problems]
        step_lists = _simulate(
            spec, problems, states, batched=True, start_step=start_step,
            **time.stepper_options(),
        )
        for offset, reports in enumerate(step_lists):
            idx = start_step + offset
            for lane, report in enumerate(reports):
                lane_steps[lane].append(
                    self._step_from_report(
                        report,
                        spec,
                        step=idx + 1,
                        time=times[idx],
                        dt=dts[idx],
                        extra_telemetry={"batch": dict(batches[lane])},
                    )
                )
        return [SimulationResult.collect(steps, spec) for steps in lane_steps]

    def solve_batch(
        self, problems: list[SinglePhaseProblem], spec: SolveSpec | None = None
    ) -> list[SolveResult]:
        """Solve many independent same-shape problems as the lanes of
        one batched program (vectorized or fused engine).

        All problems must share one grid shape.  ``machine.batch_size``
        caps lanes per program (``None`` puts everything in one);
        ``machine.engine`` must pass :meth:`can_batch` — an unset engine
        resolves to ``"fused"`` and batches, ``"event"`` and
        ``"sharded"`` are refused.  Results
        come back in input order; each carries ``telemetry["engine"]``
        (``"batched"``/``"batched_fused"``) plus a ``telemetry["batch"]``
        record (chunk size and lane) so batched and serial results stay
        distinguishable, and per-problem counters identical to a serial
        solve of that problem.
        """
        from repro.core.solver import _solve_batch

        spec = self.resolve(coerce_spec(spec))
        problems = list(problems)
        if not problems:
            return []
        self._refuse_unbatchable(spec, "batched execution")
        if spec.time is not None:
            # Batched transient: N realizations time-step together; each
            # folds into its own canonical SolveResult.
            return [
                sim.as_solve_result()
                for sim in self.simulate_batch(problems, spec)
            ]
        reports = _solve_batch(spec, problems)
        batches = _batch_records(len(problems), spec.machine.batch_size)
        return [
            self._result_from_report(report, spec, extra_telemetry={"batch": batch})
            for report, batch in zip(reports, batches)
        ]


def _batch_records(n: int, batch_size: int | None) -> list[dict[str, int]]:
    """Each lane's ``telemetry["batch"]`` record: the size of its chunk
    and its lane within it.  Chunks are ``batch_size`` consecutive
    problems in input order (``None``: one chunk), exactly as
    :func:`repro.core.solver.solve_batch` cuts them."""
    size = batch_size or n
    return [
        {"size": min(size, n - index // size * size), "lane": index % size}
        for index in range(n)
    ]
