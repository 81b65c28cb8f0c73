"""The in-process workloads: solve_default, ensemble_128 and simulate_mg.

Each is a closed loop with one caller.  The loop walks a seeded member
pool in order and stops on the first round boundary after ``--seconds``
(a round holds one member of each kind, so every run sees the same mix
of member kinds), or at any member boundary once the hard cap passes.
Reference solutions and every check run outside the timed loop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro
from repro import SolveSpec

from perfbench import inputs
from perfbench.calibrate import Sampler
from perfbench.common import (
    GROSS_ERROR,
    Outcome,
    array_digest,
    json_digest,
    median,
    peak_rss_mib,
    percentile,
    pressure_problem,
    relative_error,
)
from perfbench.tracing import LIBRARY_HOOKS, Recorder, install

#: float64 reference solves, far tighter than anything measured.
REFERENCE = dict(dtype="float64", rel_tol=1e-10)

#: The device's default absolute floor on r^T r (see resolve_tolerance).
DEFAULT_TOL_RTR = 2e-10


@dataclass
class Answer:
    """One call's result, reduced to what the checks compare."""

    pressures: list[np.ndarray]
    counters: list[Any]
    iterations: list[int]
    converged: list[bool]
    device_s: list[float]

    @property
    def digest(self) -> str:
        return array_digest(*self.pressures) + json_digest(self.counters)


@dataclass
class Loop:
    """A measured closed loop: per-call timings and first answers."""

    wall: float = 0.0
    seconds: list[float] = field(default_factory=list)  # per call
    latencies: list[float] = field(default_factory=list)  # per answer
    members: list[int] = field(default_factory=list)
    digests: list[str | None] = field(default_factory=list)
    errors: dict[int, str] = field(default_factory=dict)  # call -> exception
    first: dict[int, Answer] = field(default_factory=dict)  # member -> answer
    steps: int = 0

    @property
    def calls(self) -> int:
        return len(self.seconds)


def _answer(result: Any) -> Answer:
    steps = getattr(result, "steps", None) or [result]
    return Answer(
        pressures=[np.asarray(s.pressure) for s in steps],
        counters=[s.telemetry.get("counters") for s in steps],
        iterations=[int(s.iterations) for s in steps],
        converged=[bool(s.converged) for s in steps],
        device_s=[float(s.elapsed_seconds) for s in steps],
    )


class LibraryWorkload:
    """A seeded member pool plus the one call the loop repeats."""

    name = ""
    round_size = 1
    #: Spans that must record calls on this workload when traced.
    required: tuple[str, ...] = ("backends", "core.create_engine", "engine.run")
    rel_tol: float | None = None
    steps = 1  # answers per call

    def __init__(self, members: list[inputs.Member]):
        self.members = members
        self._refs: dict[int, list[np.ndarray]] = {}

    @classmethod
    def warm_up(cls) -> None:
        """One call on a tiny input outside the measured set."""
        raise NotImplementedError

    def call(self, index: int) -> Any:
        raise NotImplementedError

    def latencies(self, start: float, end: float) -> list[float]:
        """Latency of each answer of the call that ran from start to end."""
        return [end - start]

    def _reference(self, index: int) -> list[np.ndarray] | None:
        """float64 reference pressures per step, or ``None`` (no accuracy check)."""
        return None

    def shape(self, index: int) -> tuple[int, int, int]:
        params = dict(self.members[index][1])
        return (params["nx"], params["ny"], params["nz"])

    def step_errors(self, index: int, answer: Answer) -> list[float]:
        if index not in self._refs:
            self._refs[index] = self._reference(index)
        refs = self._refs[index]
        if refs is None:
            return []
        return [relative_error(p, ref) for p, ref in zip(answer.pressures, refs)]

    def errors(self, loop: Loop) -> list[float]:
        return [e for i in sorted(loop.first) for e in self.step_errors(i, loop.first[i])]

    def check(self, loop: Loop) -> dict[int, list[str]]:
        """Per member, the reasons its first answer is wrong."""
        bad: dict[int, list[str]] = {}
        for index, answer in sorted(loop.first.items()):
            if len(answer.pressures) != self.steps:
                reason = f"{len(answer.pressures)} answers, expected {self.steps}"
            else:
                reason = next(
                    (r for r in (pressure_problem(p, self.shape(index))
                                 for p in answer.pressures) if r is not None),
                    None,
                )
            if reason is None:
                worst = max(self.step_errors(index, answer), default=0.0)
                if not worst <= GROSS_ERROR:
                    reason = (
                        f"pressure_err {worst:.3g} above the gross-error limit "
                        f"{GROSS_ERROR:g}"
                    )
            if reason is not None:
                bad[index] = [reason]
        return bad

    def true_relres_ratios(self, loop: Loop) -> list[float]:
        return []


def _build(member: inputs.Member):
    name, params = member
    return repro.scenario(name, **dict(params))


def _steady_relres_ratio(problem, pressure, rel_tol: float) -> float:
    """True float64 relative residual over the tolerance the device applied
    (rel_tol, or the tol_rtr floor when that binds)."""
    r0 = problem.residual(problem.initial_pressure(dtype=np.float64))
    r = problem.residual(np.asarray(pressure, dtype=np.float64))
    r0n = float(np.linalg.norm(r0))
    tol = max(rel_tol, math.sqrt(DEFAULT_TOL_RTR) / r0n)
    return float(np.linalg.norm(r)) / r0n / tol


class SolveDefault(LibraryWorkload):
    """``repro.solve`` with engine, precision and preconditioner unset."""

    name = "solve_default"
    round_size = len(inputs.STEADY_TYPES)
    required = LibraryWorkload.required + ("scenarios.build", "core.resolve_tolerance")
    rel_tol = 1e-5
    pool_rounds = 16

    spec = SolveSpec.from_kwargs(rel_tol=rel_tol)

    def __init__(self, seed: int):
        super().__init__(inputs.steady_members(seed, self.pool_rounds))
        self.targets = [_build(m) for m in self.members]

    @classmethod
    def warm_up(cls) -> None:
        tiny = repro.scenario("lognormal_reservoir", nx=4, ny=4, nz=2, seed=1)
        repro.solve(tiny, backend="wse", spec=cls.spec)

    def call(self, index: int) -> Any:
        return repro.solve(self.targets[index], backend="wse", spec=self.spec)

    def _reference(self, index: int) -> list[np.ndarray]:
        spec = SolveSpec.from_kwargs(**REFERENCE)
        return [repro.solve(self.targets[index], backend="reference", spec=spec).pressure]

    def true_relres_ratios(self, loop: Loop) -> list[float]:
        return [
            _steady_relres_ratio(
                self.targets[i].build(), loop.first[i].pressures[0], self.rel_tol
            )
            for i in sorted(loop.first)
        ]


class Ensemble128(LibraryWorkload):
    """Fixed-work fused solves at paper fabric scale."""

    name = "ensemble_128"
    required = LibraryWorkload.required + (
        "fused.body_pass", "fused.update_pass", "fused.direction_pass", "wse.charge",
    )
    pool = 4
    iterations = 300

    spec = SolveSpec.from_kwargs(
        engine="fused", dtype="float32", fixed_iterations=iterations,
    )

    def __init__(self, seed: int):
        super().__init__(inputs.ensemble_members(seed, self.pool))
        self.targets = [_build(m).build() for m in self.members]

    @classmethod
    def warm_up(cls) -> None:
        tiny = repro.scenario("lognormal_reservoir", nx=8, ny=8, nz=2, seed=1).build()
        repro.solve(tiny, backend="wse", spec=cls.spec)

    def call(self, index: int) -> Any:
        return repro.solve(self.targets[index], backend="wse", spec=self.spec)

    def check(self, loop: Loop) -> dict[int, list[str]]:
        """The fused answer must equal ``engine="vectorized"`` bitwise, in
        pressure and in the modeled counters."""
        bad = super().check(loop)
        spec = SolveSpec.from_kwargs(
            engine="vectorized", dtype="float32", fixed_iterations=self.iterations,
        )
        for index in sorted(loop.first):
            if index in bad:
                continue
            answer = loop.first[index]
            oracle = repro.solve(self.targets[index], backend="wse", spec=spec)
            if not np.array_equal(answer.pressures[0], oracle.pressure):
                bad.setdefault(index, []).append(
                    "fused pressure differs from engine='vectorized'"
                )
            if answer.counters[0] != oracle.telemetry.get("counters"):
                bad.setdefault(index, []).append(
                    "fused counters differ from engine='vectorized'"
                )
        return bad


class SimulateMg(LibraryWorkload):
    """Transient multigrid: many warm-started implicit systems per call."""

    name = "simulate_mg"
    required = LibraryWorkload.required + (
        "core.resolve_tolerance", "mg.vcycle", "mg.hierarchy",
        "fused.update_pass", "wse.charge",
    )
    rel_tol = 1e-5
    pool = 6
    time_options = dict(n_steps=12, dt=2.0, total_compressibility=5e-3)

    round_size = pool
    steps = time_options["n_steps"]
    spec = SolveSpec.from_kwargs(
        engine="fused", preconditioner="mg", rel_tol=rel_tol, **time_options,
    )

    def __init__(self, seed: int):
        super().__init__(inputs.transient_members(seed, self.pool))
        self.targets = [_build(m).build() for m in self.members]

    @classmethod
    def warm_up(cls) -> None:
        tiny = repro.scenario("transient_injection", nx=8, ny=8, nz=2, seed=1).build()
        repro.simulate(tiny, backend="wse", spec=cls.spec)

    def call(self, index: int) -> Any:
        self._stamps: list[float] = []
        return repro.simulate(
            self.targets[index], backend="wse", spec=self.spec,
            on_step=lambda _step: self._stamps.append(time.perf_counter()),
        )

    def latencies(self, start: float, end: float) -> list[float]:
        """Per step: a streaming consumer waits this long for each system."""
        stamps = [start] + self._stamps
        return [b - a for a, b in zip(stamps, stamps[1:])]

    def _reference(self, index: int) -> list[np.ndarray]:
        spec = SolveSpec.from_kwargs(preconditioner="mg", **REFERENCE, **self.time_options)
        sim = repro.simulate(self.targets[index], backend="reference", spec=spec)
        return [s.pressure for s in sim.steps]

    def true_relres_ratios(self, loop: Loop) -> list[float]:
        """Each step's system rebuilt with TransientStepper from the
        answer's own trajectory, then its float64 true residual."""
        from repro.fv.operator import apply_jx
        from repro.physics.transient import TransientStepper

        time_spec = self.spec.time
        ratios = []
        for index in sorted(loop.first):
            problem = self.targets[index]
            stepper = TransientStepper(
                problem,
                dts=time_spec.dts(),
                porosity=time_spec.porosity,
                total_compressibility=time_spec.total_compressibility,
                initial_condition=time_spec.initial_condition,
                warm_start=time_spec.warm_start,
                state_dtype=np.float32,
            )

            def residual(acc, rhs, x):
                x = np.asarray(x, dtype=np.float64)
                jx = apply_jx(problem.coefficients, problem.dirichlet, x)
                return rhs - (jx + acc * x)

            for step, pressure in zip(stepper.pending(), loop.first[index].pressures):
                acc, rhs, x0 = stepper.begin(step)
                r0 = float(np.linalg.norm(residual(acc, rhs, x0)))
                r = float(np.linalg.norm(residual(acc, rhs, pressure)))
                if r0 > 0:
                    tol = max(self.rel_tol, math.sqrt(DEFAULT_TOL_RTR) / r0)
                    ratios.append(r / r0 / tol)
                stepper.advance(pressure)
        return ratios


WORKLOADS = {w.name: w for w in (SolveDefault, Ensemble128, SimulateMg)}


def closed_loop(
    workload: LibraryWorkload,
    seconds: float,
    recorder: Recorder | None = None,
    sampler: Sampler | None = None,
) -> Loop:
    """Call members in pool order until a round boundary after ``seconds``
    (or any member boundary after the hard cap).  Calibration samples
    taken between calls are left out of the loop's time."""
    loop = Loop()
    n = len(workload.targets)
    hard_cap = 2.5 * seconds
    if sampler is not None:
        sampler.sample()
    spent = sampler.spent if sampler is not None else 0.0
    start = time.perf_counter()
    i = 0
    while True:
        index = i % n
        t0 = time.perf_counter()
        try:
            if recorder is None:
                result = workload.call(index)
            else:
                result = recorder.call("backends", workload.call, index)
        except Exception as exc:  # noqa: BLE001 - an exception is a failed call
            loop.seconds.append(time.perf_counter() - t0)
            loop.latencies.append(float("inf"))
            loop.errors[loop.calls - 1] = f"{type(exc).__name__}: {exc}"
            loop.digests.append(None)
        else:
            t1 = time.perf_counter()
            loop.seconds.append(t1 - t0)
            loop.latencies.extend(workload.latencies(t0, t1))
            answer = _answer(result)
            loop.digests.append(answer.digest)
            loop.first.setdefault(index, answer)
            loop.steps += len(answer.pressures)
        loop.members.append(index)
        i += 1
        if sampler is not None:
            sampler.tick()
            spent_now = sampler.spent
        else:
            spent_now = 0.0
        elapsed = time.perf_counter() - start - (spent_now - spent)
        if (i % workload.round_size == 0 and elapsed >= seconds) or elapsed >= hard_cap:
            break
    loop.wall = elapsed
    if sampler is not None:
        sampler.sample()
    return loop


def score(workload: LibraryWorkload, loop: Loop, outcome: Outcome) -> set[int]:
    """Count failed calls; return the members whose answers were wrong."""
    bad = workload.check(loop)
    for index, reasons in bad.items():
        for reason in reasons:
            outcome.failures.append(f"member {index} {workload.members[index]}: {reason}")
    for call, index in enumerate(loop.members):
        outcome.attempted += 1
        if call in loop.errors:
            outcome.fail(f"call {call} raised {loop.errors[call]}")
        elif index in bad:
            outcome.failed += 1
        elif loop.digests[call] != loop.first[index].digest:
            outcome.fail(f"call {call}: member {index} answered differently than before")
    return set(bad)


def end_to_end(loop: Loop, slowdown: float = 1.0) -> dict[str, float]:
    """Rates and latencies at the reference host speed (see calibrate)."""
    return {
        "solves_per_s": slowdown * loop.calls / loop.wall,
        "steps_per_s": slowdown * loop.steps / loop.wall,
        "req_latency_s_p50": percentile(loop.latencies, 50) / slowdown,
        "req_latency_s_p99": percentile(loop.latencies, 99) / slowdown,
    }


def score_traced(untraced: Loop, traced: Loop, outcome: Outcome) -> None:
    """Every traced call must reproduce the untraced answer exactly:
    pressures bitwise and the modeled counters."""
    for call, (index, digest) in enumerate(zip(traced.members, traced.digests)):
        outcome.attempted += 1
        expected = untraced.first.get(index)
        if digest is None:
            outcome.fail(f"traced call {call} raised {traced.errors.get(call)}")
        elif expected is not None and digest != expected.digest:
            outcome.fail(f"traced call {call}: member {index} differs from untraced")


def layer_metrics(
    workload: LibraryWorkload, loop: Loop, recorder: Recorder, untraced: Loop,
    outcome: Outcome,
) -> dict[str, float]:
    """Per-layer metrics of one traced loop (see README.md)."""
    spans = recorder.summary()
    steps = max(loop.steps, 1)
    calls = max(loop.calls, 1)
    iterations = spans.get("engine.run", {}).get("value", 0.0)

    def total(name: str, key: str = "total_ms") -> float:
        return spans.get(name, {}).get(key, 0.0)

    def count(name: str) -> float:
        return spans.get(name, {}).get("calls", 0)

    def per_call(name: str) -> float:
        return total(name) / count(name) if count(name) else 0.0

    def per_iter_us(name: str, key: str = "total_ms") -> float:
        return total(name, key) * 1e3 / iterations if iterations else 0.0

    answers = list(loop.first.values())
    device = [d for a in answers for d in a.device_s]
    under_spans = total("backends")
    metrics = {
        "scenarios.build_ms": per_call("scenarios.build"),
        "core.resolve_tolerance_ms": total("core.resolve_tolerance") / steps,
        "core.create_engine_ms": total("core.create_engine") / steps,
        "engine.run_us_per_iter": per_iter_us("engine.run"),
        "engine.driver_us_per_iter": per_iter_us("engine.run", "self_ms"),
        "fused.body_pass_us_per_iter": per_iter_us("fused.body_pass"),
        "fused.update_pass_us_per_iter": per_iter_us("fused.update_pass"),
        "fused.direction_pass_us_per_iter": per_iter_us("fused.direction_pass"),
        "wse.charge_us_per_iter": per_iter_us("wse.charge"),
        "mg.vcycle_ms": per_call("mg.vcycle"),
        "mg.vcycles_per_step": count("mg.vcycle") / steps,
        "mg.hierarchy_ms": per_call("mg.hierarchy"),
        "mg.hierarchy_builds_per_step": count("mg.hierarchy") / steps,
        "backends.self_ms": total("backends", "self_ms") / calls,
        "cg.iterations": iterations / steps,
        "device.sim_ms": 1e3 * median(device) if device else 0.0,
        "trace.other_share": max(0.0, 1.0 - under_spans / (1e3 * loop.wall)),
        "trace.overhead_share": 1.0 - (loop.calls / loop.wall) / (untraced.calls / untraced.wall),
    }
    ratios = workload.true_relres_ratios(untraced)
    metrics["cg.true_relres_over_tol_max"] = max(ratios) if ratios else 0.0
    if not ratios:
        outcome.notes["cg.true_relres_over_tol_max"] = (
            "fixed-iteration solves have no tolerance"
        )
    for metric, layer in LAYER_OF.items():
        if layer in recorder.missing:
            outcome.notes[metric] = recorder.missing[layer]
        elif not count(layer):
            outcome.notes[metric] = f"{layer} made no calls on {workload.name}"
    for layer in workload.required:
        if layer not in recorder.missing and not count(layer):
            outcome.fail(f"layer {layer} recorded no calls on {workload.name}")
    return metrics


#: The span each span-derived per-layer metric reads.
LAYER_OF = {
    "scenarios.build_ms": "scenarios.build",
    "core.resolve_tolerance_ms": "core.resolve_tolerance",
    "core.create_engine_ms": "core.create_engine",
    "engine.run_us_per_iter": "engine.run",
    "engine.driver_us_per_iter": "engine.run",
    "fused.body_pass_us_per_iter": "fused.body_pass",
    "fused.update_pass_us_per_iter": "fused.update_pass",
    "fused.direction_pass_us_per_iter": "fused.direction_pass",
    "wse.charge_us_per_iter": "wse.charge",
    "mg.vcycle_ms": "mg.vcycle",
    "mg.vcycles_per_step": "mg.vcycle",
    "mg.hierarchy_ms": "mg.hierarchy",
    "mg.hierarchy_builds_per_step": "mg.hierarchy",
}


def run(workload: LibraryWorkload, seconds: float, trace: bool) -> Outcome:
    """Measure, check and score one workload run."""
    outcome = Outcome()
    sampler = Sampler()
    loop = closed_loop(workload, seconds, sampler=sampler)
    # Read before the checks: the reference and oracle solves are not
    # the system under measurement.
    outcome.metrics["peak_rss_mb"] = peak_rss_mib()
    bad = score(workload, loop, outcome)
    slowdown = sampler.slowdown()
    outcome.metrics.update(end_to_end(loop, slowdown))
    outcome.info.update(
        host_slowdown=slowdown, kernels=sampler.medians(), raw=end_to_end(loop),
    )
    errors = workload.errors(loop)
    outcome.info.update(
        calls=loop.calls, steps=loop.steps, wall_s=loop.wall,
        members_answered=len(loop.first), bad_members=sorted(bad),
        pressure_err_max=max(errors) if errors else None,
    )
    if trace:
        recorder = Recorder()
        hooks = install(LIBRARY_HOOKS, recorder)
        try:
            traced = closed_loop(workload, seconds, recorder)
        finally:
            hooks.remove()
        score_traced(loop, traced, outcome)
        outcome.metrics.update(layer_metrics(workload, traced, recorder, loop, outcome))
        outcome.info["spans"] = recorder.summary()
    return outcome
