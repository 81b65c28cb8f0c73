"""Canonical solver result and the backend contract.

Every backend — the NumPy host reference, the wafer-scale dataflow
simulator, the CUDA-like GPU model, and anything registered later —
answers the same question ("solve this pressure problem") through the same
signature and returns the same :class:`SolveResult`.  Backend-specific
riches (fabric traces, instruction counters, memory high-water marks, GPU
DRAM traffic) live in the open ``telemetry`` mapping so cross-backend code
never has to branch on the concrete type.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from typing import Any, Iterable, Protocol, runtime_checkable

import numpy as np

from repro.physics.darcy import SinglePhaseProblem


# -- wire encoding -----------------------------------------------------------
#
# Results must survive a JSON hop (the network gateway's POST /v1/solve
# and WebSocket step frames) without losing a bit of the field data.
# ndarrays travel as base64 of their raw bytes plus shape/dtype — exact,
# compact, and decodable with nothing but the stdlib — and telemetry is
# filtered to its JSON-able core (live objects collapse to an
# ``{"__opaque__": <type>}`` marker; the stable ``to_dict()`` summaries
# every engine reports since PR 3 pass through untouched).


def encode_array(array: np.ndarray) -> dict[str, Any]:
    """A JSON-able, bit-exact stand-in for an ndarray."""
    data = np.ascontiguousarray(array)
    return {
        "__ndarray__": base64.b64encode(data.tobytes()).decode("ascii"),
        "shape": list(data.shape),
        "dtype": data.dtype.name,
    }


def decode_array(payload: Any) -> np.ndarray:
    raw = base64.b64decode(payload["__ndarray__"])
    array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    return array.reshape(tuple(payload["shape"])).copy()


def is_encoded_array(value: Any) -> bool:
    return isinstance(value, dict) and "__ndarray__" in value


def jsonable_telemetry(value: Any) -> Any:
    """Telemetry reduced to what JSON can carry, arrays encoded exactly."""
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): jsonable_telemetry(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable_telemetry(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return {"__opaque__": type(value).__name__}


def decode_telemetry(value: Any) -> Any:
    if is_encoded_array(value):
        return decode_array(value)
    if isinstance(value, dict):
        return {k: decode_telemetry(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_telemetry(v) for v in value]
    return value


class _ResultFields:
    """What a solve and a step share: ``final_rtr`` and the wire form of
    their seven common fields (``pressure`` through ``telemetry``, in
    that order)."""

    @property
    def final_rtr(self) -> float:
        return self.residual_history[-1] if self.residual_history else float("nan")

    def _encode_fields(self) -> dict[str, Any]:
        return {
            "pressure": encode_array(self.pressure),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "residual_history": [float(v) for v in self.residual_history],
            "elapsed_seconds": float(self.elapsed_seconds),
            "backend": self.backend,
            "telemetry": jsonable_telemetry(self.telemetry),
        }

    @staticmethod
    def _decode_fields(data: dict[str, Any]) -> dict[str, Any]:
        return {
            "pressure": decode_array(data["pressure"]),
            "iterations": int(data["iterations"]),
            "converged": bool(data["converged"]),
            "residual_history": [float(v) for v in data["residual_history"]],
            "elapsed_seconds": float(data["elapsed_seconds"]),
            "backend": data.get("backend", ""),
            "telemetry": decode_telemetry(data.get("telemetry", {})),
        }


@dataclass
class SolveResult(_ResultFields):
    """The canonical outcome of a pressure solve on any backend.

    Attributes
    ----------
    pressure:
        Converged pressure field, shaped like the problem grid.
    iterations:
        Linear (CG) iterations performed, summed over Newton steps where
        applicable.
    converged:
        Whether the backend's convergence criterion was met.
    residual_history:
        ``r^T r`` values as the backend observed them, initial residual
        first.
    elapsed_seconds:
        The backend's native notion of solve time: wall clock for the
        host reference, simulated device time for the fabric, modeled
        kernel time for the GPU.  ``telemetry["time_kind"]`` says which.
    backend:
        Registry name of the backend that produced this result.
    telemetry:
        Open mapping of backend-specific extras (e.g. ``trace``,
        ``counters``, ``memory`` for the fabric; ``counters``,
        ``device_bytes`` for the GPU; ``newton_iterations`` for the
        reference).  Keys are backend-defined; consumers must tolerate
        absence.
    """

    pressure: np.ndarray
    iterations: int
    converged: bool
    residual_history: list[float] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    backend: str = ""
    telemetry: dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line human-readable digest (used by examples)."""
        return (
            f"[{self.backend}] {self.iterations} iterations, "
            f"converged={self.converged}, "
            f"elapsed={self.elapsed_seconds:.3e}s, "
            f"pressure in [{float(self.pressure.min()):.4f}, "
            f"{float(self.pressure.max()):.4f}]"
        )

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able encoding that :meth:`from_dict` round-trips —
        pressure bit-exact (base64), telemetry reduced to its JSON-able
        core.  This is the gateway's ``POST /v1/solve`` response body."""
        return self._encode_fields()

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SolveResult":
        return cls(**cls._decode_fields(data))


@dataclass
class StepResult(_ResultFields):
    """One backward-Euler step of a transient simulation.

    The per-step analogue of :class:`SolveResult`: the step's converged
    pressure, its CG cost, and the backend's step telemetry.  ``time`` is
    the physical time *after* the step; ``step`` is 1-based.
    """

    step: int
    time: float
    dt: float
    pressure: np.ndarray
    iterations: int
    converged: bool
    residual_history: list[float] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    backend: str = ""
    telemetry: dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"[{self.backend}] step {self.step} (t={self.time:g}, "
            f"dt={self.dt:g}): {self.iterations} iterations, "
            f"converged={self.converged}"
        )

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able encoding that :meth:`from_dict` round-trips —
        the gateway's WebSocket step-frame payload."""
        return {
            "step": int(self.step),
            "time": float(self.time),
            "dt": float(self.dt),
            **self._encode_fields(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StepResult":
        return cls(
            step=int(data["step"]),
            time=float(data["time"]),
            dt=float(data["dt"]),
            **cls._decode_fields(data),
        )


@dataclass
class SimulationResult:
    """The outcome of a transient simulation: an ordered step stack.

    Collects the :class:`StepResult` stream of one ``simulate`` run plus
    run-level telemetry; aggregates (total iterations, summed device
    time) answer the questions a study asks of the whole simulation.
    """

    steps: list[StepResult] = field(default_factory=list)
    backend: str = ""
    telemetry: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def collect(cls, steps: Iterable[StepResult], spec: Any) -> "SimulationResult":
        """Drain a step iterator into a result with its run telemetry.

        The one place a simulation's run-level keys are spelled:
        ``preconditioner`` and ``warm_start`` come from ``spec`` (a
        :class:`~repro.spec.SolveSpec` with a time schedule), and
        ``backend``, ``time_kind`` and ``engine`` from the last step, so
        a run resumed from a store reports the engine that computed its
        tail (stored steps carry none).
        """
        out = cls(
            steps=list(steps),
            telemetry={
                "preconditioner": spec.preconditioner,
                "warm_start": spec.time.warm_start,
            },
        )
        if out.steps:
            last = out.steps[-1]
            out.backend = last.backend
            out.telemetry["time_kind"] = last.telemetry.get("time_kind")
            if last.telemetry.get("engine") is not None:
                out.telemetry["engine"] = last.telemetry["engine"]
        return out

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def final_pressure(self) -> np.ndarray:
        return self.steps[-1].pressure

    @property
    def times(self) -> list[float]:
        return [s.time for s in self.steps]

    @property
    def dts(self) -> list[float]:
        return [s.dt for s in self.steps]

    @property
    def per_step_iterations(self) -> list[int]:
        return [s.iterations for s in self.steps]

    @property
    def total_iterations(self) -> int:
        return sum(s.iterations for s in self.steps)

    @property
    def elapsed_seconds(self) -> float:
        return sum(s.elapsed_seconds for s in self.steps)

    @property
    def converged(self) -> bool:
        return all(s.converged for s in self.steps)

    def summary(self) -> str:
        return (
            f"[{self.backend}] {self.n_steps} steps to t="
            f"{self.times[-1] if self.steps else 0.0:g}, "
            f"{self.total_iterations} total CG iterations, "
            f"converged={self.converged}, "
            f"elapsed={self.elapsed_seconds:.3e}s"
        )

    def to_dict(self) -> dict[str, Any]:
        """The stable serialized face (scalars only, no field arrays) —
        what the golden-schema tests pin and stores/benches may record."""
        return {
            "backend": self.backend,
            "n_steps": self.n_steps,
            "times": [float(t) for t in self.times],
            "dts": [float(dt) for dt in self.dts],
            "per_step_iterations": [int(n) for n in self.per_step_iterations],
            "per_step_converged": [bool(s.converged) for s in self.steps],
            "total_iterations": int(self.total_iterations),
            "converged": bool(self.converged),
            "elapsed_seconds": float(self.elapsed_seconds),
            "time_kind": self.telemetry.get("time_kind"),
            "engine": self.telemetry.get("engine"),
            "warm_start": self.telemetry.get("warm_start"),
        }

    def as_solve_result(self) -> SolveResult:
        """Fold the simulation into one canonical :class:`SolveResult`.

        The final state is the pressure; ``iterations`` and
        ``elapsed_seconds`` aggregate over every step (so plan rows and
        store manifests stay meaningful for multi-step entries);
        ``residual_history`` concatenates the per-step histories;
        ``telemetry["transient"]`` keeps the per-step breakdown.
        """
        if not self.steps:
            raise ValueError("cannot fold an empty simulation")
        history: list[float] = []
        for s in self.steps:
            history.extend(float(v) for v in s.residual_history)
        telemetry = dict(self.telemetry)
        telemetry["transient"] = self.to_dict()
        return SolveResult(
            pressure=self.final_pressure,
            iterations=self.total_iterations,
            converged=self.converged,
            residual_history=history,
            elapsed_seconds=self.elapsed_seconds,
            backend=self.backend,
            telemetry=telemetry,
        )


@runtime_checkable
class SolverBackend(Protocol):
    """The contract every registered backend satisfies.

    ``name`` is the registry key; ``solve`` takes a problem plus a typed,
    validated :class:`~repro.spec.SolveSpec` (``None`` meaning "all
    defaults") and returns a :class:`SolveResult`.  Backends are strict:
    a spec field the machine cannot honour raises
    :class:`~repro.util.errors.ConfigurationError` instead of being
    silently ignored.  Backends are stateless: per-solve state lives
    inside ``solve``.

    Backends that can time-step declare ``supports_transient = True`` and
    implement ``simulate(problem, spec, *, start_step=0, state=None)``
    returning an iterator of :class:`StepResult`; their ``solve`` must
    answer a spec with ``time`` set by folding the simulation via
    :meth:`SimulationResult.collect` and
    :meth:`SimulationResult.as_solve_result` (one signature for steady
    and transient studies).
    """

    name: str

    def solve(
        self, problem: SinglePhaseProblem, spec: Any = None
    ) -> SolveResult:  # pragma: no cover - protocol signature
        ...
