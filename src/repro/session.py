"""The execution engine: :class:`Session`, :class:`ExecutionPlan`,
:class:`ResultStore`.

``repro.solve`` answers one question; studies ask hundreds (Table III's
weak-scaling family, Table IV's full/comm-only pairs, heterogeneity
sweeps).  A :class:`Session` turns a batch into an *inspectable plan*
before anything runs:

>>> session = repro.Session(store="runs/table3")
>>> plan = session.plan(weak_scaling_family(), spec, backend="wse")
>>> plan.entries          # what will run, with content fingerprints
>>> results = plan.run(executor="process", n_workers=4)

Design points (the matrix-free lesson applied to execution — separate
the operator/configuration from how it is driven):

* **Deferred, memoized assembly** — a :class:`PlanEntry` stores the
  resolved scenario, not the built problem; assembly happens at run time
  and is memoized by scenario fingerprint, so N specs over one scenario
  assemble once.
* **Executor fan-out** — ``serial`` (simple tracebacks), ``thread``
  (NumPy-heavy kernels overlap well), ``process`` (true parallelism for
  long reference solves; entries are plain picklable values).
* **Per-entry error capture** — one diverging entry yields a
  :class:`PlanEntryResult` with ``error`` set instead of poisoning the
  batch; results always come back in input order.
* **Persistent results** — a :class:`ResultStore` writes one JSON record
  and one NPZ pressure field per entry; re-running a plan against a
  populated store skips completed entries (``from_store=True``).
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import pickle
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.backends import SolveResult, StepResult, get_backend
from repro.physics.darcy import SinglePhaseProblem
from repro.scenarios.base import Scenario, scenario as _bind_scenario
from repro.spec import SolveSpec, coerce_spec
from repro.util.errors import ConfigurationError, picklesafe_error

EXECUTORS = ("serial", "thread", "process", "batched")


# -- fingerprinting ----------------------------------------------------------


def _jsonable(value: Any) -> Any:
    """A JSON-encodable stand-in for arbitrary scenario parameters."""
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest(),
            "shape": list(value.shape),
            "dtype": value.dtype.name,
        }
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # Fall back to a content digest of the pickle stream: deterministic for
    # value-like objects (pickle carries no memory addresses), and a loud
    # failure for things that cannot be fingerprinted at all — a repr()
    # fallback would silently embed `object at 0x...` addresses and defeat
    # both memoization and store resume.
    try:
        stream = pickle.dumps(value, protocol=4)
    except Exception:  # noqa: BLE001
        raise ConfigurationError(
            f"cannot fingerprint scenario parameter of type "
            f"{type(value).__name__}: use JSON-able values, ndarrays, or "
            f"picklable objects"
        ) from None
    return {
        "__pickle__": type(value).__name__,
        "digest": hashlib.sha256(stream).hexdigest(),
    }


def _problem_fingerprint(problem: SinglePhaseProblem) -> dict[str, Any]:
    grid = problem.grid
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(problem.permeability).tobytes())
    digest.update(np.ascontiguousarray(problem.dirichlet.mask).tobytes())
    digest.update(np.ascontiguousarray(problem.dirichlet.values).tobytes())
    return {
        "grid": [grid.nx, grid.ny, grid.nz, grid.dx, grid.dy, grid.dz],
        "viscosity": problem.viscosity,
        "fields": digest.hexdigest(),
    }


def _target_payload(scenario: Scenario | None, problem: SinglePhaseProblem | None) -> Any:
    if scenario is not None:
        return {"scenario": scenario.name, "params": _jsonable(scenario.params)}
    assert problem is not None
    return {"problem": _problem_fingerprint(problem)}


# -- plan entries ------------------------------------------------------------


@dataclass(frozen=True)
class PlanEntry:
    """One scheduled solve: a resolved target + spec + backend.

    Problem assembly is deferred: ``scenario`` holds the recipe and
    :meth:`build_problem` materializes it (optionally through a shared
    memo cache keyed by :attr:`scenario_key`).  ``fingerprint`` is the
    content identity of the whole entry (target + spec + backend) — the
    result-store and resume key.
    """

    index: int
    spec: SolveSpec
    backend: str
    scenario: Scenario | None = None
    problem: SinglePhaseProblem | None = None
    fingerprint: str = ""
    scenario_key: str = ""

    @property
    def label(self) -> str:
        if self.scenario is not None:
            base = self.scenario.label()
        else:
            assert self.problem is not None
            shape = "x".join(str(v) for v in self.problem.grid.shape)
            base = f"problem[{shape}]"
        if self.spec.time is not None:
            base += f" [{self.spec.time.n_steps} steps]"
        return base

    @property
    def n_steps(self) -> int | None:
        """Steps of a transient entry (``None`` for steady solves)."""
        return None if self.spec.time is None else self.spec.time.n_steps

    def build_problem(
        self, cache: dict[str, SinglePhaseProblem] | None = None
    ) -> SinglePhaseProblem:
        """Materialize the problem, memoized by scenario fingerprint."""
        if self.problem is not None:
            return self.problem
        assert self.scenario is not None
        if cache is None:
            return self.scenario.build()
        problem = cache.get(self.scenario_key)
        if problem is None:
            problem = self.scenario.build()
            cache[self.scenario_key] = problem
        return problem


@dataclass
class PlanEntryResult:
    """Outcome of one plan entry: a result, or a captured error.

    ``elapsed_seconds`` is host wall clock around the backend call (the
    result's own ``elapsed_seconds`` keeps the backend's native time
    notion); ``from_store`` marks entries satisfied by the
    :class:`ResultStore` without re-solving.
    """

    entry: PlanEntry
    result: SolveResult | None = None
    error: Exception | None = None
    elapsed_seconds: float = 0.0
    from_store: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def n_steps(self) -> int | None:
        """Steps a transient entry actually ran (``None`` for steady).

        Prefers the result's own ``telemetry["transient"]`` record (what
        the backend executed); falls back to the entry's spec for errored
        or store-rehydrated results."""
        if self.result is not None:
            transient = self.result.telemetry.get("transient")
            if isinstance(transient, Mapping):
                steps = transient.get("n_steps")
                if steps is not None:
                    return int(steps)
        return self.entry.n_steps

    @property
    def total_iterations(self) -> int | None:
        """Aggregate CG iterations — summed over every step for
        multi-step (transient) entries, so plan rows stay meaningful.
        ``None`` for errored entries."""
        return None if self.result is None else int(self.result.iterations)

    @property
    def engine(self) -> str | None:
        """The fabric engine that produced the result (``"event"``,
        ``"vectorized"``, ``"batched"``), if the backend reported one —
        how batched and serial results of the same entry stay
        distinguishable.  ``None`` for errors, non-fabric backends and
        store-rehydrated results."""
        if self.result is None:
            return None
        engine = self.result.telemetry.get("engine")
        return engine if isinstance(engine, str) else None


def _execute_entry(
    entry: PlanEntry, cache: dict[str, SinglePhaseProblem] | None = None
) -> tuple[SolveResult | None, Exception | None, float]:
    """Run one entry, capturing any exception."""
    start = time.perf_counter()
    try:
        problem = entry.build_problem(cache)
        result = get_backend(entry.backend).solve(problem, entry.spec)
        return result, None, time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - per-entry capture is the contract
        return None, exc, time.perf_counter() - start


def _execute_entry_in_worker(
    entry: PlanEntry,
) -> tuple[SolveResult | None, Exception | None, float]:
    """Process-pool worker: like :func:`_execute_entry`, with the error
    made pickle-safe (:func:`~repro.util.errors.picklesafe_error`).
    Serial/thread executors keep the original exception object."""
    result, error, elapsed = _execute_entry(entry)
    if error is not None:
        error = picklesafe_error(error)
    return result, error, elapsed


# -- result store ------------------------------------------------------------


class ResultStore:
    """Directory-backed persistence for :class:`SolveResult` batches.

    Layout, one set of files per fingerprint::

        <root>/<fingerprint>.json             record (scenario, backend,
                                              spec, iterations, timings)
        <root>/<fingerprint>.npz              pressure field + residual history
        <root>/<fingerprint>#steps.json       a simulation's record
        <root>/<fingerprint>.steps/NNNNN.npz  its completed steps

    Only the JSON-able core survives persistence: reloaded results carry
    ``telemetry = {"time_kind": ..., "from_store": True}``, not live
    fabric traces or counters.

    **Multi-writer safe without a lock.**  Several store instances —
    worker threads of one service, or separate gateway *processes* — may
    share one root.  A fingerprint never maps to two answers, so every
    file belongs to one key and is written through a unique temp file
    renamed into place, payload before record: writers share no document
    in which to lose each other's records, a reader never sees a torn
    file, and the directory is the index — every probe asks the disk, so
    gateway B's cache probe sees gateway A's record without either
    restarting.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._migrate_manifest()

    def _record_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _migrate_manifest(self) -> None:
        """Give each record of a legacy ``manifest.json`` (the one-document
        format) its own record file, then remove the manifest and its lock
        file.  A stack's count is its step files now, so its
        ``steps_completed`` is dropped."""
        legacy = self.root / "manifest.json"
        try:
            records = json.loads(legacy.read_text())
        except FileNotFoundError:
            return
        for key, record in records.items():
            if not self.contains(key):
                record.pop("steps_completed", None)
                _write_json(self._record_path(key), record)
        legacy.unlink(missing_ok=True)
        (self.root / "manifest.lock").unlink(missing_ok=True)

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, fingerprint: str) -> bool:
        return self.has(fingerprint)

    def keys(self) -> list[str]:
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(self.root)
            if name.endswith(".json")
        )

    def records(self) -> list[dict[str, Any]]:
        """Every record, sorted by fingerprint."""
        records = (self.get(key) for key in self.keys())
        return [record for record in records if record is not None]

    def has(self, fingerprint: str) -> bool:
        return (
            self.contains(fingerprint)
            and (self.root / f"{fingerprint}.npz").exists()
        )

    def contains(self, fingerprint: str) -> bool:
        """Record-only cache probe: one ``stat``, no NPZ payload touched.

        The serving tier answers "is this fingerprint cached?" for every
        incoming request; loading (or even ``stat``-ing) the NPZ payload
        on that hot path would make every *miss* pay for it.  The record
        is renamed into place after its payload, so it exists only once
        the payload does — :meth:`load` still verifies the payload when
        a hit is actually consumed.
        """
        return self._record_path(fingerprint).exists()

    def get(self, fingerprint: str) -> dict[str, Any] | None:
        """The record for a fingerprint (a fresh dict), or ``None``.

        The metadata face of :meth:`contains`: label, backend, spec,
        iterations and timings without loading the NPZ payload — what a
        cache probe or an admission decision needs, at one small read.
        """
        try:
            return json.loads(self._record_path(fingerprint).read_text())
        except FileNotFoundError:
            return None

    def save(self, entry: PlanEntry, result: SolveResult) -> None:
        """Persist one completed entry: its payload, then its record."""
        fingerprint = entry.fingerprint
        _write_npz(
            self.root / f"{fingerprint}.npz",
            pressure=result.pressure,
            residual_history=np.asarray(result.residual_history, dtype=np.float64),
        )
        _write_json(self._record_path(fingerprint), {
            "fingerprint": fingerprint,
            "label": entry.label,
            "scenario": entry.scenario.name if entry.scenario is not None else None,
            "backend": entry.backend,
            "spec": entry.spec.to_dict(),
            "iterations": int(result.iterations),
            "converged": bool(result.converged),
            "elapsed_seconds": float(result.elapsed_seconds),
            "time_kind": result.telemetry.get("time_kind"),
        })

    def load(self, fingerprint: str) -> SolveResult:
        """Rehydrate a persisted :class:`SolveResult`."""
        record = self.get(fingerprint)
        payload = self.root / f"{fingerprint}.npz"
        if record is None or not payload.exists():
            raise ConfigurationError(
                f"result store at {self.root} has no entry {fingerprint!r}"
            )
        with np.load(payload) as arrays:
            pressure = arrays["pressure"]
            history = [float(v) for v in arrays["residual_history"]]
        return SolveResult(
            pressure=pressure,
            iterations=record["iterations"],
            converged=record["converged"],
            residual_history=history,
            elapsed_seconds=record["elapsed_seconds"],
            backend=record["backend"],
            telemetry={"time_kind": record["time_kind"], "from_store": True},
        )

    # -- transient step stacks ------------------------------------------------
    #
    # A simulation persists as an append-only *step stack*: one NPZ per
    # completed step under ``<fingerprint>.steps/`` (written atomically,
    # tmp + rename) plus a record under ``<fingerprint>#steps``, written
    # after step 1's file.  Appending step N touches only step N's file —
    # O(1) per step — and a torn write can at worst lose the step being
    # written, never the stack behind it, so an interrupted run always
    # leaves a valid partial stack for ``repro.simulate(..., store=...)``
    # to resume from.

    @staticmethod
    def _steps_key(fingerprint: str) -> str:
        return f"{fingerprint}#steps"

    def _steps_dir(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.steps"

    def _step_path(self, fingerprint: str, step: int) -> Path:
        return self._steps_dir(fingerprint) / f"{step:05d}.npz"

    def simulation_steps_completed(self, fingerprint: str) -> int:
        """How many steps of this simulation are already persisted.

        Counts the consecutive step files from step 1, or 0 without the
        simulation's record — a step file that never finished writing
        (crash before the rename) is simply not there and ends the
        prefix.
        """
        if not self.contains(self._steps_key(fingerprint)):
            return 0
        try:
            names = set(os.listdir(self._steps_dir(fingerprint)))
        except FileNotFoundError:
            return 0
        completed = 0
        while f"{completed + 1:05d}.npz" in names:
            completed += 1
        return completed

    def save_simulation_step(
        self,
        fingerprint: str,
        step: StepResult,
        *,
        meta: Mapping[str, Any] | None = None,
    ) -> None:
        """Append one completed step to the fingerprint's step stack.

        Steps must arrive in order (``step.step == completed + 1``); the
        first step's record carries ``meta`` (label, backend, spec,
        n_steps).

        Appending a step that is *already durable* is a silent no-op,
        not an error: steps are content-addressed and deterministic, so
        two producers for one fingerprint (a stream abandoned mid-cut
        racing its resumed successor) write identical bytes, and the
        loser of the race has nothing left to do.  Only a *gap* —
        appending past ``completed + 1`` — is a real bug.
        """
        completed = self.simulation_steps_completed(fingerprint)
        if step.step <= completed:
            return
        if step.step != completed + 1:
            raise ConfigurationError(
                f"simulation store for {fingerprint[:12]} has {completed} "
                f"step(s); cannot append step {step.step}"
            )
        self._steps_dir(fingerprint).mkdir(parents=True, exist_ok=True)
        _write_npz(
            self._step_path(fingerprint, step.step),
            pressure=step.pressure,
            residual_history=np.asarray(step.residual_history, dtype=np.float64),
            iterations=np.int64(step.iterations),
            converged=np.bool_(step.converged),
            time=np.float64(step.time),
            dt=np.float64(step.dt),
            elapsed=np.float64(step.elapsed_seconds),
        )
        if step.step == 1:
            record = dict(meta or {})
            record.update(
                kind="simulation",
                fingerprint=fingerprint,
                time_kind=step.telemetry.get("time_kind", record.get("time_kind")),
                backend=step.backend or record.get("backend"),
            )
            _write_json(self._record_path(self._steps_key(fingerprint)), record)

    def clear_simulation(self, fingerprint: str) -> None:
        """Drop a fingerprint's step stack (the ``resume=False`` path).

        The record goes first, so the stack counts 0 from then on; the
        step directory is renamed away before it is removed, so a removal
        that stops half-way leaves no step files under the stack's name
        for a later run to take for its own."""
        self._record_path(self._steps_key(fingerprint)).unlink(missing_ok=True)
        directory = self._steps_dir(fingerprint)
        if directory.exists():
            trash = Path(tempfile.mkdtemp(dir=self.root, prefix=".tmp-"))
            os.replace(directory, trash / directory.name)
            shutil.rmtree(trash)

    def resume_simulation(
        self, fingerprint: str, n_steps: int, *, resume: bool
    ) -> list[StepResult]:
        """The stored steps a run of ``n_steps`` restarts after: the
        persisted prefix, at most ``n_steps`` long.  ``resume=False``
        clears the stack instead and returns no steps.  The one resume
        rule of ``repro.simulate(store=...)`` and ``SolveService.stream``.
        """
        if not resume:
            self.clear_simulation(fingerprint)
            return []
        completed = min(self.simulation_steps_completed(fingerprint), n_steps)
        if not completed:
            return []
        return self.load_simulation_steps(fingerprint)[:completed]

    def load_simulation_steps(self, fingerprint: str) -> list[StepResult]:
        """Rehydrate the persisted step stack (JSON-able core only:
        telemetry is ``{"time_kind": ..., "from_store": True}``)."""
        record = self.get(self._steps_key(fingerprint))
        completed = self.simulation_steps_completed(fingerprint)
        if not record or not completed:
            raise ConfigurationError(
                f"result store at {self.root} has no step stack for "
                f"{fingerprint!r}"
            )
        steps: list[StepResult] = []
        for index in range(1, completed + 1):
            with np.load(self._step_path(fingerprint, index)) as arrays:
                steps.append(
                    StepResult(
                        step=index,
                        time=float(arrays["time"]),
                        dt=float(arrays["dt"]),
                        pressure=arrays["pressure"],
                        iterations=int(arrays["iterations"]),
                        converged=bool(arrays["converged"]),
                        residual_history=[
                            float(v) for v in arrays["residual_history"]
                        ],
                        elapsed_seconds=float(arrays["elapsed"]),
                        backend=record.get("backend") or "",
                        telemetry={
                            "time_kind": record.get("time_kind"),
                            "from_store": True,
                        },
                    )
                )
        return steps


def _write_npz(path: Path, **arrays: Any) -> None:
    """Write ``arrays`` as an NPZ at ``path`` (see :func:`_replace_into`)."""
    _replace_into(path, lambda handle: np.savez_compressed(handle, **arrays))


def _write_json(path: Path, record: Mapping[str, Any]) -> None:
    """Write ``record`` as JSON at ``path`` (see :func:`_replace_into`)."""
    text = json.dumps(record, indent=2, sort_keys=True)
    _replace_into(path, lambda handle: handle.write(text.encode()))


def _replace_into(path: Path, write: Callable[[Any], Any]) -> None:
    """Write a file through a unique temp file beside ``path``, then
    rename it into place: a reader never sees a partial file, and
    concurrent writers never share a temp file.  Temp names are
    ``.tmp-<random>.tmp``, so no listing takes one for a record."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


# -- the plan ----------------------------------------------------------------


class ExecutionPlan:
    """An ordered, inspectable batch of solves bound to a session.

    Build one with :meth:`Session.plan`; inspect :attr:`entries` (or
    :meth:`describe`); execute with :meth:`run`.
    """

    def __init__(self, session: "Session", entries: Sequence[PlanEntry]):
        self.session = session
        self.entries: list[PlanEntry] = list(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[PlanEntry]:
        return iter(self.entries)

    def describe(self) -> list[list[Any]]:
        """Table rows (index, label, backend, fingerprint prefix, steps).

        ``steps`` is the time-step count of a transient entry (1 spec =
        1 step *sequence*) or ``"-"`` for steady solves, so transient and
        steady rows stay distinguishable at a glance."""
        return [
            [
                e.index, e.label, e.backend, e.fingerprint[:12],
                "-" if e.n_steps is None else e.n_steps,
            ]
            for e in self.entries
        ]

    def run(
        self,
        *,
        executor: str = "thread",
        n_workers: int | None = None,
        on_result: Callable[[PlanEntryResult], None] | None = None,
        resume: bool = True,
    ) -> list[PlanEntryResult]:
        """Execute every entry; results return in input order.

        Parameters
        ----------
        executor:
            ``"serial"`` (in-process loop), ``"thread"`` (default;
            NumPy releases the GIL in the hot kernels), ``"process"``
            (true parallelism; entries and results cross a pickle
            boundary, so live telemetry objects must be picklable), or
            ``"batched"`` (the lanes of :func:`plan_lanes`, one batched
            program per lane of several entries).
        n_workers:
            Pool width; defaults to ``min(len(pending), cpu_count)``.
        on_result:
            Callback invoked as each entry finishes (completion order),
            including store-satisfied entries.
        resume:
            When the session has a :class:`ResultStore`, skip entries
            whose fingerprint is already stored and rehydrate them
            (``from_store=True``) instead of re-solving.
        """
        if executor not in EXECUTORS:
            raise ConfigurationError(
                f"unknown executor {executor!r}; choose one of "
                f"{', '.join(EXECUTORS)}"
            )
        if n_workers is not None and n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")

        store = self.session.store
        slots: list[PlanEntryResult | None] = [None] * len(self.entries)
        pending: list[int] = []
        for i, entry in enumerate(self.entries):
            if resume and store is not None and store.has(entry.fingerprint):
                slots[i] = PlanEntryResult(
                    entry=entry, result=store.load(entry.fingerprint),
                    from_store=True,
                )
                if on_result is not None:
                    on_result(slots[i])
            else:
                pending.append(i)

        def _finish(i: int, outcome: tuple) -> None:
            result, error, elapsed = outcome
            slots[i] = PlanEntryResult(
                entry=self.entries[i], result=result, error=error,
                elapsed_seconds=elapsed,
            )
            if store is not None and error is None and result is not None:
                store.save(self.entries[i], result)
            if on_result is not None:
                on_result(slots[i])

        cache = self.session._problem_cache
        if not pending:
            pass
        elif executor == "batched":
            self._run_batched(pending, cache, _finish)
        elif executor == "serial" or (n_workers == 1):
            for i in pending:
                _finish(i, _execute_entry(self.entries[i], cache))
        else:
            workers = n_workers or min(len(pending), os.cpu_count() or 1)
            if executor == "thread":
                pool_cls = concurrent.futures.ThreadPoolExecutor
                submit = lambda e: (_execute_entry, e, cache)  # noqa: E731
            else:
                # Workers rebuild problems themselves: scenarios are plain
                # values and builtin recipes re-register on import.  The
                # parent's memo cache is not shared across processes.
                pool_cls = concurrent.futures.ProcessPoolExecutor
                submit = lambda e: (_execute_entry_in_worker, e)  # noqa: E731
            with pool_cls(max_workers=workers) as pool:
                futures = {
                    pool.submit(*submit(self.entries[i])): i for i in pending
                }
                for future in concurrent.futures.as_completed(futures):
                    _finish(futures[future], future.result())

        return [slot for slot in slots if slot is not None]

    def _run_batched(
        self,
        pending: Sequence[int],
        cache: dict[str, SinglePhaseProblem] | None,
        finish: Callable[[int, tuple], None],
    ) -> None:
        """The ``executor="batched"`` path: run :func:`plan_lanes`' lanes.

        A lane of several entries is one ``solve_batch`` call (chunked
        by ``machine.batch_size``); a lane of one runs as a serial solve.
        Per-entry error capture still holds (a failing lane fails each of
        its entries, nothing else), and a fused entry's
        ``elapsed_seconds`` is the lane wall clock amortized over its
        members.
        """
        built: list[tuple[int, SinglePhaseProblem]] = []
        for i in pending:
            start = time.perf_counter()
            try:
                get_backend(self.entries[i].backend)  # fails this entry only
                built.append((i, self.entries[i].build_problem(cache)))
            except Exception as exc:  # noqa: BLE001 - per-entry capture
                finish(i, (None, exc, time.perf_counter() - start))
        lanes = plan_lanes([(self.entries[i], problem) for i, problem in built])
        for lane in lanes:
            members = [built[k][0] for k in lane]
            if len(members) == 1:
                finish(members[0], _execute_entry(self.entries[members[0]], cache))
                continue
            entry = self.entries[members[0]]
            start = time.perf_counter()
            try:
                results = get_backend(entry.backend).solve_batch(
                    [built[k][1] for k in lane], entry.spec
                )
                outcomes = [(result, None) for result in results]
            except Exception as exc:  # noqa: BLE001 - per-entry capture
                outcomes = [(None, exc)] * len(members)
            share = (time.perf_counter() - start) / len(members)
            for i, (result, error) in zip(members, outcomes):
                finish(i, (result, error, share))


def _fusable(backend: Any, spec: SolveSpec) -> bool:
    """Whether ``backend`` can run ``spec`` as a lane of a batched
    program: it has ``solve_batch``, and its own fusability rule
    (``can_batch``, the wse backend's) accepts the spec.  Backends
    without a rule batch whenever they can."""
    if not hasattr(backend, "solve_batch"):
        return False
    rule = getattr(backend, "can_batch", None)
    return rule is None or rule(spec)


def plan_lanes(
    items: Sequence[tuple[PlanEntry, SinglePhaseProblem]],
) -> list[list[int]]:
    """The one batching rule: which items share one batched program.

    Groups item indices by (backend, spec fingerprint, grid shape) in
    first-arrival order — the spec fingerprint covers every solve knob
    except the target, so one key means "these can share a launch".
    An item whose backend cannot batch its spec gets a lane of its own,
    and a lane of one member runs solo.  Both ``executor="batched"`` and
    the service's admission controller dispatch exactly these lanes;
    ``machine.batch_size`` chunking happens inside ``solve_batch``.
    """
    fingerprints: dict[int, str] = {}  # plans share spec objects; hash once
    lanes: dict[Any, list[int]] = {}
    for index, (entry, problem) in enumerate(items):
        if not _fusable(get_backend(entry.backend), entry.spec):
            lanes[("solo", index)] = [index]
            continue
        fingerprint = fingerprints.get(id(entry.spec))
        if fingerprint is None:
            fingerprint = fingerprints[id(entry.spec)] = entry.spec.fingerprint()
        key = (entry.backend, fingerprint, tuple(problem.grid.shape))
        lanes.setdefault(key, []).append(index)
    return list(lanes.values())


class Session:
    """Owns problem-assembly memoization and (optionally) a result store.

    One session per study: plans created from it share the assembly cache
    (N specs over one scenario build the problem once) and the store
    (completed entries are skipped on re-runs).
    """

    def __init__(self, *, store: ResultStore | str | Path | None = None):
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store: ResultStore | None = store
        self._problem_cache: dict[str, SinglePhaseProblem] = {}

    def plan(
        self,
        targets: Iterable[Any],
        spec: SolveSpec | Mapping[str, Any] | None = None,
        *,
        backend: str = "reference",
    ) -> ExecutionPlan:
        """Resolve a batch of targets into an :class:`ExecutionPlan`.

        Each target may be a registered scenario name, a bound
        :class:`Scenario`, a built :class:`SinglePhaseProblem`, or a
        ``(target, spec)`` / ``(target, spec, backend)`` tuple overriding
        the plan-wide spec/backend per entry (heterogeneous batches like
        Table IV's full vs. comm-only pair).
        """
        default_spec = coerce_spec(spec)
        get_backend(backend)  # fail fast on a typo'd plan-wide backend
        entries: list[PlanEntry] = []
        for index, item in enumerate(targets):
            entry_spec, entry_backend = default_spec, backend
            target = item
            if isinstance(item, tuple):
                if not 2 <= len(item) <= 3:
                    raise ConfigurationError(
                        f"plan tuple entries are (target, spec) or "
                        f"(target, spec, backend); got length {len(item)}"
                    )
                target = item[0]
                entry_spec = coerce_spec(item[1])
                if len(item) == 3:
                    entry_backend = item[2]
            get_backend(entry_backend)
            entries.append(
                self._entry(index, target, entry_spec, entry_backend)
            )
        return ExecutionPlan(self, entries)

    def _entry(
        self, index: int, target: Any, spec: SolveSpec, backend: str
    ) -> PlanEntry:
        return plan_entry(target, spec, backend, index=index)


def resolve_target(target: Any) -> tuple[Scenario | None, SinglePhaseProblem | None]:
    """Normalize a plan/simulate target into (scenario, problem)."""
    if isinstance(target, SinglePhaseProblem):
        return None, target
    if isinstance(target, Scenario):
        return target, None
    if isinstance(target, str):
        return _bind_scenario(target), None
    raise ConfigurationError(
        f"cannot plan {target!r}: expected a SinglePhaseProblem, a "
        f"Scenario, or a registered scenario name"
    )


def plan_entry(
    target: Any, spec: SolveSpec, backend: str, *, index: int = 0
) -> PlanEntry:
    """Resolve one (target, spec, backend) into a :class:`PlanEntry`.

    The same resolution and content fingerprint :meth:`Session.plan`
    assigns, usable standalone — the serving tier builds entries this way
    so its cache keys and store records match in-process plans exactly.
    A backend with a ``resolve`` rule (the wse backend's, which fills in
    an unset engine) resolves ``spec`` first, so the entry carries and
    fingerprints the spec that will actually run.
    """
    resolve = getattr(get_backend(backend), "resolve", None)
    if resolve is not None:
        spec = resolve(spec)
    scenario, problem = resolve_target(target)
    target_payload = _target_payload(scenario, problem)
    return PlanEntry(
        index=index,
        spec=spec,
        backend=backend,
        scenario=scenario,
        problem=problem,
        fingerprint=_digest(
            {
                "target": target_payload,
                "spec": spec.to_dict(),
                "backend": backend,
            }
        ),
        scenario_key=_digest({"target": target_payload}),
    )


def entry_fingerprint(target: Any, spec: SolveSpec, backend: str) -> str:
    """The content identity of one (target, spec, backend) entry — the
    :func:`plan_entry` digest, usable standalone (e.g. by
    ``repro.simulate``'s store/resume path)."""
    return plan_entry(target, spec, backend).fingerprint


def _digest(payload: Mapping[str, Any]) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


__all__ = [
    "EXECUTORS",
    "ExecutionPlan",
    "PlanEntry",
    "PlanEntryResult",
    "ResultStore",
    "Session",
    "entry_fingerprint",
    "plan_entry",
    "plan_lanes",
    "resolve_target",
]
