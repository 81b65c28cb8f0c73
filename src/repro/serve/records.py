"""Durable, debuggable run records for a service run.

The agentbench discipline applied to solving: every service run leaves
an artifact trail a human (or a test) can audit after the fact —

``<root>/<run_id>/run.json``
    The run-level record, rewritten atomically as requests finish:
    config, timestamps and live summary counters (submitted / executed /
    launches / fused launches / cache and dedup hits / failures /
    retries, i.e. second attempts).  Its size does not grow with the
    request count.
``<root>/<run_id>/requests.jsonl``
    Append-only, one JSON line per *request*, written once when it
    finishes (or, still ``"pending"``, when the run closes): its spec
    fingerprint, cache outcome, batch-lane assignment, attempt count,
    outcome and timings.  A finished request is written and forgotten,
    so the recorder holds only requests in flight.
``<root>/<run_id>/attempts.jsonl``
    Append-only, one JSON line per *attempt*, written after its launch:
    request id, fingerprint, attempt number, lane assignment, outcome,
    failure category and the request's share of the launch's elapsed
    seconds.  A crash can at worst lose the line being written — the
    history behind it survives, which is exactly what post-mortems
    need.

:func:`load_run_record` reads ``run.json`` back with the request lines
keyed by request id under ``"requests"``, and :func:`load_attempts` the
attempt lines; both stop at a torn last line.  With ``root=None`` the
recorder writes nothing (counters still feed the service's stats) — the
zero-setup default.  A write that fails (a full disk, say) loses its
line or its ``run.json`` rewrite and counts in
``repro_record_write_failures_total``; it never raises into the
service, so every request still gets its answer or its error.

Counter ownership: the recorder does not tally its summary itself.
Every summary increment routes through a
:class:`~repro.net.metrics.ServiceMetrics` registry (one is created if
none is injected) and :attr:`RunRecorder.summary` reads back from it —
so the gateway's ``/metrics``, ``SolveService.stats()`` and the
``run.json`` on disk report the same numbers *by construction*.  (The
pre-gateway design mutated a plain dict from worker callbacks with no
single ownership point, which let the surfaces drift.)
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Mapping

from repro.net.metrics import SUMMARY_METRICS, ServiceMetrics
from repro.util.errors import ConfigurationError

#: Counter names every run.json summary carries: the registry's
#: summary vocabulary, in its order.
SUMMARY_COUNTERS = tuple(SUMMARY_METRICS)


class RunRecorder:
    """Owns one service run's ``run.json``, ``requests.jsonl`` and
    ``attempts.jsonl``."""

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        run_id: str | None = None,
        config: Mapping[str, Any] | None = None,
        metrics: ServiceMetrics | None = None,
    ):
        if run_id is None:
            run_id = f"run-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
        if "/" in run_id or run_id in ("", ".", ".."):
            raise ConfigurationError(f"invalid run_id {run_id!r}")
        self.run_id = run_id
        self.run_dir: Path | None = None
        if root is not None:
            self.run_dir = Path(root) / run_id
            self.run_dir.mkdir(parents=True, exist_ok=True)
        self.started_at = time.time()
        self.finished_at: float | None = None
        self.config = dict(config or {})
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        #: The records of requests in flight, by request id.
        self.requests: dict[str, dict[str, Any]] = {}

    @property
    def summary(self) -> dict[str, int]:
        """The summary counters, read from the one metrics registry."""
        return self.metrics.summary()

    # -- request lifecycle ----------------------------------------------------

    def record_submit(
        self,
        request_id: int,
        *,
        fingerprint: str,
        backend: str,
        label: str,
        kind: str = "solve",
    ) -> None:
        self.metrics.bump("submitted")
        if kind == "stream":
            self.metrics.bump("streams")
        self.requests[str(request_id)] = {
            "request_id": request_id,
            "kind": kind,
            "fingerprint": fingerprint,
            "backend": backend,
            "label": label,
            "cache": None,
            "lane": None,
            "attempts": 0,
            "outcome": "pending",
            "submitted_at": time.time(),
        }

    def record_cache_hit(self, request_id: int, tier: str) -> None:
        """``tier``: ``"memory"`` / ``"store"`` / ``"dedup"`` (in-flight)."""
        if tier == "dedup":
            self.metrics.bump("dedup_hits")
        else:
            self.metrics.bump(f"cache_hits_{tier}")
        record = self.requests.get(str(request_id))
        if record is not None:
            record["cache"] = tier

    def record_attempt(
        self,
        request_id: int,
        *,
        fingerprint: str,
        attempt: int,
        outcome: str,
        lane: Mapping[str, Any] | None = None,
        category: str | None = None,
        error: str | None = None,
        elapsed_seconds: float | None = None,
    ) -> None:
        """One solve attempt (fused-lane or solo), success or failure;
        a second attempt counts in ``retries``."""
        line = {
            "ts": time.time(),
            "request_id": request_id,
            "fingerprint": fingerprint,
            "attempt": attempt,
            "lane": None if lane is None else dict(lane),
            "outcome": outcome,
            "category": category,
            "error": error,
            "elapsed_seconds": elapsed_seconds,
        }
        if attempt > 1:
            self.metrics.bump("retries")
        record = self.requests.get(str(request_id))
        if record is not None:
            record["attempts"] = max(record["attempts"], attempt)
            if lane is not None:
                record["lane"] = dict(lane)
        self._append("attempts.jsonl", line)

    def record_launch(self, *, fused: bool) -> None:
        """One backend launch (a fused lane of N counts once)."""
        self.metrics.bump("launches")
        if fused:
            self.metrics.bump("batched_launches")

    def record_outcome(
        self,
        request_id: int,
        *,
        outcome: str,
        cache: str | None = None,
        error: str | None = None,
        category: str | None = None,
        **extra: Any,
    ) -> None:
        """Finish a request: ``"ok"`` / ``"error"`` / ``"cancelled"``.

        ``cache=None`` on an ``"ok"`` outcome means a genuine solve, and
        bumps the ``executed`` counter.  The record is appended to
        ``requests.jsonl`` and dropped from memory.
        """
        record = self.requests.pop(str(request_id), None)
        if record is None:
            return
        record["outcome"] = outcome
        record["finished_at"] = time.time()
        record["elapsed_seconds"] = record["finished_at"] - record["submitted_at"]
        if error is not None:
            record["error"] = error
            record["category"] = category
        record.update(extra)
        if outcome == "error":
            self.metrics.bump("failed")
        elif outcome == "ok" and record.get("cache") is None and cache is None:
            self.metrics.bump("executed")
        self.metrics.observe_request(
            record["elapsed_seconds"], outcome=outcome
        )
        self._append("requests.jsonl", record)
        self.flush()

    def record_stream_steps(self, *, computed: int, resumed: int) -> None:
        if computed:
            self.metrics.bump("streamed_steps", computed)
        if resumed:
            self.metrics.bump("resumed_steps", resumed)

    # -- persistence ----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        summary = self.summary  # one registry read; keep the view coherent
        served_from_cache = (
            summary["cache_hits_memory"]
            + summary["cache_hits_store"]
            + summary["dedup_hits"]
        )
        total_probes = (
            served_from_cache + summary["executed"] + summary["failed"]
        )
        return {
            "run_id": self.run_id,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "config": self.config,
            "summary": {
                **summary,
                "cache_hit_ratio": (
                    0.0 if total_probes == 0 else served_from_cache / total_probes
                ),
            },
        }

    def _append(self, name: str, line: Mapping[str, Any]) -> None:
        """Append one JSON line to the run's ``name`` file (a failed
        write is counted, not raised)."""
        if self.run_dir is None:
            return
        text = json.dumps(line, sort_keys=True) + "\n"
        try:
            with (self.run_dir / name).open("a") as handle:
                handle.write(text)
        except OSError:
            self.metrics.record_write_failures.inc()

    def flush(self) -> None:
        """Atomically rewrite ``run.json`` with the current summary (a
        failed write is counted, not raised)."""
        if self.run_dir is None:
            return
        path = self.run_dir / "run.json"
        tmp = path.with_suffix(".json.tmp")
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        except OSError:
            self.metrics.record_write_failures.inc()

    def close(self) -> None:
        """Finish the run: requests still in flight are written as they
        stand (``"pending"``), so the run names every request it took."""
        self.finished_at = time.time()
        for record in self.requests.values():
            self._append("requests.jsonl", record)
        self.requests.clear()
        self.flush()


def load_run_record(run_dir: str | Path) -> dict[str, Any]:
    """Read back a run (what audits and tests consume): ``run.json`` with
    ``requests.jsonl``'s records keyed by request id under
    ``"requests"``."""
    record = json.loads((Path(run_dir) / "run.json").read_text())
    record["requests"] = {
        str(line["request_id"]): line
        for line in _read_lines(Path(run_dir) / "requests.jsonl")
    }
    return record


def load_attempts(run_dir: str | Path) -> list[dict[str, Any]]:
    """Read back a run's ``attempts.jsonl`` lines, tolerating a torn tail."""
    return _read_lines(Path(run_dir) / "attempts.jsonl")


def _read_lines(path: Path) -> list[dict[str, Any]]:
    """A JSON-lines file's records, up to a torn final line (a crash
    mid-write); none for a missing file."""
    if not path.exists():
        return []
    lines: list[dict[str, Any]] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            break  # torn final line from a crash mid-write
    return lines


__all__ = ["RunRecorder", "SUMMARY_COUNTERS", "load_attempts", "load_run_record"]
