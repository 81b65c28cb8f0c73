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
* **Persistent results** — a :class:`ResultStore` writes a JSON manifest
  plus NPZ pressure fields per entry; re-running a plan against a
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
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.backends import SolveResult, StepResult, get_backend
from repro.physics.darcy import SinglePhaseProblem
from repro.scenarios.base import Scenario, scenario as _bind_scenario
from repro.spec import SolveSpec, coerce_spec
from repro.util.errors import ConfigurationError
from repro.util.locking import FileLock

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
    """Process-pool worker: like :func:`_execute_entry`, pickle-safe errors.

    Results travel back through pickle; an exception whose constructor
    signature breaks the default reduce protocol would otherwise kill the
    whole batch at *deserialization* time, so unpicklable errors are
    replaced by a faithful stand-in.  Serial/thread executors keep the
    original exception object (no pickle boundary there).
    """
    result, error, elapsed = _execute_entry(entry)
    if error is not None:
        try:
            pickle.loads(pickle.dumps(error))
        except Exception:  # noqa: BLE001
            error = RuntimeError(f"{type(error).__name__}: {error}")
    return result, error, elapsed


# -- result store ------------------------------------------------------------


class ResultStore:
    """Directory-backed persistence for :class:`SolveResult` batches.

    Layout::

        <root>/manifest.json      one record per fingerprint (scenario,
                                  backend, spec, iterations, timings)
        <root>/<fingerprint>.npz  pressure field + residual history

    Only the JSON-able core survives persistence: reloaded results carry
    ``telemetry = {"time_kind": ..., "from_store": True}``, not live
    fabric traces or counters.

    **Multi-writer safe.**  Several store instances — worker threads of
    one service, or separate gateway *processes* — may share one root.
    Every manifest rewrite happens under an advisory file lock
    (``manifest.lock``) as read-merge-write: the on-disk manifest is
    re-read and this instance's pending changes (tracked as dirty /
    deleted key sets) are overlaid before the atomic replace, so
    concurrent writers never drop each other's records.  Reads go
    through a manifest ``stat`` check that reloads when another writer
    has flushed — gateway B's cache probe sees gateway A's record
    without either restarting.
    """

    MANIFEST = "manifest.json"
    LOCKFILE = "manifest.lock"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._manifest: dict[str, dict[str, Any]] = {}
        #: Keys this instance changed / removed since its last flush —
        #: exactly what read-merge-write overlays onto the disk state.
        self._dirty: set[str] = set()
        self._deleted: set[str] = set()
        self._mutex = threading.RLock()
        self._filelock = FileLock(self.root / self.LOCKFILE)
        self._disk_state: tuple[int, int, int] | None = None
        with self._mutex:
            self._reload_from_disk()

    @property
    def _manifest_path(self) -> Path:
        return self.root / self.MANIFEST

    def _stat_state(self) -> tuple[int, int, int] | None:
        """The manifest file's identity: (mtime_ns, inode, size).

        ``os.replace`` swaps in a new inode, so any completed rewrite —
        even one within the same mtime tick — changes this tuple.
        """
        try:
            st = os.stat(self._manifest_path)
        except FileNotFoundError:
            return None
        return (st.st_mtime_ns, st.st_ino, st.st_size)

    def _reload_from_disk(self) -> None:
        """Re-read the manifest, overlaying this instance's pending edits.

        Caller holds ``_mutex``.  The atomic-replace write discipline
        means the read always sees a complete JSON document (old or
        new, never torn).
        """
        state = self._stat_state()
        disk: dict[str, dict[str, Any]] = {}
        if state is not None:
            try:
                disk = json.loads(self._manifest_path.read_text())
            except FileNotFoundError:  # replaced away between stat and read
                state = None
        for key in self._dirty:
            if key in self._manifest:
                disk[key] = self._manifest[key]
        for key in self._deleted:
            disk.pop(key, None)
        self._manifest = disk
        self._disk_state = state

    def _maybe_reload(self) -> None:
        """Pick up other writers' flushes (cheap: one ``stat`` per read)."""
        with self._mutex:
            if self._stat_state() != self._disk_state:
                self._reload_from_disk()

    def __len__(self) -> int:
        self._maybe_reload()
        return len(self._manifest)

    def __contains__(self, fingerprint: str) -> bool:
        return self.has(fingerprint)

    def keys(self) -> list[str]:
        self._maybe_reload()
        return sorted(self._manifest)

    def records(self) -> list[dict[str, Any]]:
        """Manifest records (copies), sorted by fingerprint."""
        with self._mutex:
            self._maybe_reload()
            return [dict(self._manifest[k]) for k in sorted(self._manifest)]

    def has(self, fingerprint: str) -> bool:
        self._maybe_reload()
        return (
            fingerprint in self._manifest
            and (self.root / f"{fingerprint}.npz").exists()
        )

    def contains(self, fingerprint: str) -> bool:
        """Manifest-only cache probe: no NPZ payload is touched.

        The serving tier answers "is this fingerprint cached?" for every
        incoming request; loading (or even ``stat``-ing) the NPZ payload
        on that hot path would make every *miss* pay disk I/O.  This
        answers purely from the in-memory manifest (refreshed by a
        single manifest ``stat`` when another writer flushed) —
        :meth:`load` still verifies the payload exists when a hit is
        actually consumed.
        """
        self._maybe_reload()
        return fingerprint in self._manifest

    def get(self, fingerprint: str) -> dict[str, Any] | None:
        """The manifest record for a fingerprint (a copy), or ``None``.

        The metadata face of :meth:`contains`: label, backend, spec,
        iterations and timings without loading the NPZ payload — what a
        cache probe or an admission decision needs, at manifest cost.
        """
        with self._mutex:
            self._maybe_reload()
            record = self._manifest.get(fingerprint)
            return None if record is None else dict(record)

    def save(self, entry: PlanEntry, result: SolveResult) -> None:
        """Persist one completed entry (manifest rewritten atomically)."""
        fingerprint = entry.fingerprint
        _write_npz(
            self.root / f"{fingerprint}.npz",
            pressure=result.pressure,
            residual_history=np.asarray(result.residual_history, dtype=np.float64),
        )
        with self._mutex:
            self._manifest[fingerprint] = {
                "fingerprint": fingerprint,
                "label": entry.label,
                "scenario": entry.scenario.name if entry.scenario is not None else None,
                "backend": entry.backend,
                "spec": entry.spec.to_dict(),
                "iterations": int(result.iterations),
                "converged": bool(result.converged),
                "elapsed_seconds": float(result.elapsed_seconds),
                "time_kind": result.telemetry.get("time_kind"),
            }
            self._dirty.add(fingerprint)
            self._deleted.discard(fingerprint)
            self._flush()

    def load(self, fingerprint: str) -> SolveResult:
        """Rehydrate a persisted :class:`SolveResult`."""
        if not self.has(fingerprint):
            raise ConfigurationError(
                f"result store at {self.root} has no entry {fingerprint!r}"
            )
        record = self.get(fingerprint)
        assert record is not None  # has() just confirmed it
        with np.load(self.root / f"{fingerprint}.npz") as arrays:
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
    # tmp + rename) plus a manifest record under ``<fingerprint>#steps``
    # tracking ``steps_completed``.  Appending step N touches only step
    # N's file — O(1) per step — and a torn write can at worst lose the
    # step being written, never the stack behind it, so an interrupted
    # run always leaves a valid partial stack for
    # ``repro.simulate(..., store=...)`` to resume from.

    @staticmethod
    def _steps_key(fingerprint: str) -> str:
        return f"{fingerprint}#steps"

    def _steps_dir(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.steps"

    def _step_path(self, fingerprint: str, step: int) -> Path:
        return self._steps_dir(fingerprint) / f"{step:05d}.npz"

    def simulation_steps_completed(self, fingerprint: str) -> int:
        """How many steps of this simulation are already persisted.

        Counts the consecutive on-disk prefix, capped by the manifest
        record — a step file that never finished writing (crash before
        the rename) is simply not there and ends the prefix.
        """
        record = self.get(self._steps_key(fingerprint))
        if not record:
            return 0
        completed = int(record.get("steps_completed", 0))
        for step in range(1, completed + 1):
            if not self._step_path(fingerprint, step).exists():
                return step - 1
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
        manifest record carries ``meta`` (label, backend, spec, n_steps)
        from the first step onward.

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
        key = self._steps_key(fingerprint)
        with self._mutex:
            if self.simulation_steps_completed(fingerprint) >= step.step:
                return  # a racing producer appended this step first
            record = dict(self._manifest.get(key, {}))
            record.update(meta or {})
            record.update(
                kind="simulation",
                fingerprint=fingerprint,
                steps_completed=completed + 1,
                time_kind=step.telemetry.get("time_kind", record.get("time_kind")),
                backend=step.backend or record.get("backend"),
            )
            self._manifest[key] = record
            self._dirty.add(key)
            self._deleted.discard(key)
            self._flush()

    def clear_simulation(self, fingerprint: str) -> None:
        """Drop a fingerprint's step stack (the ``resume=False`` path)."""
        key = self._steps_key(fingerprint)
        with self._mutex:
            self._manifest.pop(key, None)
            self._deleted.add(key)
            self._dirty.discard(key)
            directory = self._steps_dir(fingerprint)
            if directory.exists():
                shutil.rmtree(directory)
            self._flush()

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

    def _flush(self) -> None:
        """Durably merge this instance's pending edits into the manifest.

        Read-merge-write under the advisory file lock: re-read the disk
        manifest (another writer may have flushed since we last looked),
        overlay our dirty/deleted keys, atomically replace.  A blind
        rewrite here was the classic lost-update bug — two store
        instances interleaving ``put()`` would each persist only their
        own records.
        """
        with self._mutex, self._filelock:
            self._reload_from_disk()
            path = self._manifest_path
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(self._manifest, indent=2, sort_keys=True))
            os.replace(tmp, path)
            self._disk_state = self._stat_state()
            self._dirty.clear()
            self._deleted.clear()


def _write_npz(path: Path, **arrays: Any) -> None:
    """Write ``arrays`` as an NPZ through a unique temp file beside
    ``path``, then rename it into place: a reader never sees a partial
    payload, and concurrent writers never share a temp file."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".npz")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(handle, **arrays)
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
