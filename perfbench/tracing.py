"""Span recorder and call-point hooks for the traced run.

Hooks wrap public functions and methods of the program from the
benchmark's own files; nothing under ``src/`` changes.  Every wrapper
counts its calls.  A call point that no longer exists is reported as
missing and the run goes on.

Spans use ``perf_counter_ns`` and stay in memory until the run ends.  A
span's self time is its duration minus the durations of its direct
children (children on one thread never overlap, so the sum is their
union).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    child_ns: int
    value: float | None = None  # e.g. the CG iterations an engine run made

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


class Recorder:
    """Per-thread span stacks plus the finished spans, in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: dict[str, str] = {}
        self._local = threading.local()

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list[Any]:
        frame = [name, time.perf_counter_ns(), 0]
        self._stack().append(frame)
        return frame

    def close(self, frame: list[Any], value: float | None = None) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        name, start, child_ns = frame
        if stack:
            stack[-1][2] += end - start
        self.spans.append(Span(name, start, end, child_ns, value))

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        frame = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(frame)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self milliseconds, value sum."""
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(
                s.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "value": 0.0}
            )
            row["calls"] += 1
            row["total_ms"] += s.duration_ns / 1e6
            row["self_ms"] += s.self_ns / 1e6
            if s.value is not None:
                row["value"] += s.value
        return out


@dataclass(frozen=True)
class Hook:
    """Wrap ``module:attr`` (``attr`` may be ``Class.method``) in a span.

    ``value(args, result)`` extracts a number stored on the span;
    ``wrap_result`` post-processes the result, e.g. to hook a method of
    the object a factory returned.
    """

    span: str
    module: str
    attr: str
    value: Callable[[tuple, Any], float] | None = None
    wrap_result: Callable[[Any, Recorder], Any] | None = None


class Installed:
    """Hooks in place; :meth:`remove` restores every original."""

    def __init__(self) -> None:
        self._restore: list[tuple[Any, str, Any]] = []

    def remove(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


def _resolve(hook: Hook) -> tuple[Any, str, Any]:
    owner: Any = importlib.import_module(hook.module)
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    target = getattr(original, "__func__", original)
    if not callable(target):
        raise TypeError(f"{hook.module}:{hook.attr} is not callable")
    return owner, name, original


def _wrapper(hook: Hook, original: Callable, recorder: Recorder) -> Callable:
    @functools.wraps(original)
    def traced(*args: Any, **kwargs: Any) -> Any:
        frame = recorder.open(hook.span)
        value = None
        try:
            result = original(*args, **kwargs)
            if hook.value is not None:
                value = hook.value(args, result)
            if hook.wrap_result is not None:
                result = hook.wrap_result(result, recorder)
            return result
        finally:
            recorder.close(frame, value)

    return traced


def install(hooks: Iterable[Hook], recorder: Recorder) -> Installed:
    """Install every hook that resolves; record why the others did not."""
    installed = Installed()
    for hook in hooks:
        try:
            owner, name, original = _resolve(hook)
        except (ImportError, AttributeError, KeyError, TypeError) as exc:
            recorder.missing[hook.span] = (
                f"call point {hook.module}:{hook.attr} not found "
                f"({type(exc).__name__}: {exc})"
            )
            continue
        if isinstance(original, (classmethod, staticmethod)):
            replacement: Any = type(original)(
                _wrapper(hook, original.__func__, recorder)
            )
        else:
            replacement = _wrapper(hook, original, recorder)
        setattr(owner, name, replacement)
        installed._restore.append((owner, name, original))
    return installed


def _iterations(args: tuple, report: Any) -> float:
    return float(report.iterations)


def _hook_engine_run(engine: Any, recorder: Recorder) -> Any:
    """Wrap the ``run`` of whatever engine the factory built, so the span
    survives engines being renamed, merged or added."""
    run = getattr(engine, "run", None)
    if callable(run):
        engine.run = _wrapper(
            Hook("engine.run", "", "", value=_iterations), run, recorder
        )
    return engine


#: Library call points (see README.md for the layer each one times).
LIBRARY_HOOKS: tuple[Hook, ...] = (
    Hook("scenarios.build", "repro.scenarios.base", "Scenario.build"),
    Hook("core.resolve_tolerance", "repro.core.solver", "resolve_tolerance"),
    Hook(
        "core.create_engine", "repro.core.solver", "create_engine",
        wrap_result=_hook_engine_run,
    ),
    Hook("fused.body_pass", "repro.fused.kernels", "FusedNumpyBackend.body_pass"),
    Hook("fused.update_pass", "repro.fused.kernels", "FusedNumpyBackend.update_pass"),
    Hook(
        "fused.update_pass", "repro.fused.kernels",
        "FusedNumpyBackend.update_axpy_pass",
    ),
    Hook("fused.update_pass", "repro.fused.kernels", "FusedNumpyBackend.mg_dot_pass"),
    Hook(
        "fused.direction_pass", "repro.fused.kernels",
        "FusedNumpyBackend.direction_pass",
    ),
    Hook("wse.charge", "repro.wse.vector_engine", "_ChargeModel.merge_scaled"),
    Hook("mg.vcycle", "repro.mg", "mg_apply"),
    Hook("mg.hierarchy", "repro.mg", "build_hierarchy"),
    Hook("mg.hierarchy", "repro.mg", "hierarchy_for_problem"),
)

#: Call points inside the gateway process.
SERVER_HOOKS: tuple[Hook, ...] = (
    Hook("net.decode", "repro.net.server", "decode_json"),
    Hook("net.decode", "repro.net.server", "parse_solve_payload"),
    Hook("net.encode", "repro.backends.base", "SolveResult.to_dict"),
    Hook("net.encode", "repro.net.server", "encode_json"),
    Hook("serve.submit", "repro.serve.service", "SolveService.submit"),
    Hook("session.store_save", "repro.session", "ResultStore.save"),
    Hook("session.store_load", "repro.session", "ResultStore.load"),
    Hook("backends.solve", "repro.backends.wse", "WseBackend.solve"),
    Hook("backends.solve", "repro.backends.wse", "WseBackend.solve_batch"),
)

#: Call points in the load generator's own process.
CLIENT_HOOKS: tuple[Hook, ...] = (
    Hook("net.client_decode", "repro.backends.base", "SolveResult.from_dict"),
    Hook(
        "net.client_json", "repro.net.client", "decode_json",
        value=lambda args, _result: float(len(args[0])),
    ),
)
