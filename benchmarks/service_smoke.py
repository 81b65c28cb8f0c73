"""CI smoke for the serving tier: boot, mixed workload, clean shutdown.

Usage::

    PYTHONPATH=src python benchmarks/service_smoke.py

Boots a :class:`repro.serve.SolveService` three times — once on a
process worker pool with a steady-state fan-out (many requests, few
distinct specs) followed by a request whose backend kills its worker,
then on a thread pool with a transient streaming request and with a
stream abandoned after its first step — and asserts the service-level
invariants a deployment cares about:

* every request resolves and duplicates are answered from dedup/cache
  (the fan-out's cache-hit ratio must reflect ``requests >> distinct``);
* fused batched launches actually happen for compatible requests
  submitted on one loop turn;
* a killed worker fails only its own request (after two attempts), the
  broken pool is replaced and the next request is answered, and the
  run record holds one terminal outcome per request;
* a stream computes a step only when its consumer asks for it: the
  abandoned stream leaves exactly one step in the store;
* the durable run record (``run.json`` / ``attempts.jsonl``) agrees with
  the service's own accounting;
* shutdown leaves **zero orphaned worker processes** and no lingering
  service worker threads.

Exits non-zero on any violated invariant, so CI can gate on it.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import pathlib
import sys
import tempfile
import threading
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro.backends import register_backend  # noqa: E402
from repro.serve import SolveService, load_run_record  # noqa: E402
from repro.session import ResultStore, plan_entry  # noqa: E402

REQUESTS = 24
DISTINCT = 6


class WorkerKiller:
    """A backend whose solve ends the pool worker running it."""

    name = "smoke-worker-killer"

    def solve(self, problem, spec=None):
        if multiprocessing.parent_process() is None:
            raise RuntimeError("only a pool worker may be killed")
        os._exit(1)


# Registered at import, so that pool workers have it under every start
# method: spawn and forkserver workers import this script again.
register_backend(WorkerKiller(), overwrite=True)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"  ok: {message}")


async def steady_fanout(records_root: str) -> None:
    """Process pool, many concurrent steady-state requests."""
    scenarios = [
        repro.scenario(
            "quarter_five_spot", nx=8, ny=8, nz=2,
            permeability=float(40 + 7 * i),
        )
        for i in range(DISTINCT)
    ]
    spec = repro.SolveSpec.from_kwargs(rel_tol=1e-6, engine="vectorized")

    async with SolveService(
        records=records_root, pool="process", n_workers=2,
    ) as service:
        futures = [
            service.submit(scenarios[i % DISTINCT], backend="wse", spec=spec)
            for i in range(REQUESTS)
        ]
        results = await asyncio.gather(*futures)
        stats = service.stats()
        run_dir = service.recorder.run_dir

        try:
            await service.submit(scenarios[0], backend=WorkerKiller.name)
            killed = None
        except Exception as exc:  # noqa: BLE001 - checked below
            killed = exc
        after_kill = await service.submit(
            repro.scenario("quarter_five_spot", nx=8, ny=8, nz=2),
            backend="wse", spec=spec,
        )
        final = service.stats()

    check(len(results) == REQUESTS and all(r.converged for r in results),
          f"all {REQUESTS} steady requests resolved and converged")
    check(stats["executed"] == DISTINCT,
          f"exactly {DISTINCT} solves executed for {REQUESTS} requests")
    check(stats["batched_launches"] >= 1,
          f"compatible requests fused ({stats['batched_launches']} "
          f"batched launch(es))")
    expected_ratio = (REQUESTS - DISTINCT) / REQUESTS
    check(abs(stats["cache_hit_ratio"] - expected_ratio) < 1e-9,
          f"cache-hit ratio {stats['cache_hit_ratio']:.2f} matches "
          f"requests>>distinct ({expected_ratio:.2f})")
    check(type(killed).__name__ == "BrokenProcessPool"
          and final["retries"] == 1 and final["failed"] == 1,
          f"a killed worker failed its own request after two attempts "
          f"({type(killed).__name__})")
    check(after_kill.converged,
          "the broken pool was replaced: the next request was answered")
    record = load_run_record(run_dir)
    summary = record["summary"]
    check(all(summary[k] == final[k] for k in ("submitted", "executed", "failed"))
          and summary["submitted"] == REQUESTS + 2,
          "durable run.json agrees with the service accounting")
    # The record keys requests by id, so count the lines too: a second
    # terminal line for one request would collapse into the first.
    lines = (run_dir / "requests.jsonl").read_text().splitlines()
    outcomes = [r["outcome"] for r in record["requests"].values()]
    check(len(lines) == len(outcomes) == REQUESTS + 2
          and outcomes.count("ok") == REQUESTS + 1
          and outcomes.count("error") == 1,
          "one terminal outcome per request in the run record")


async def transient_stream() -> None:
    """Thread pool, one streamed transient request."""
    spec = repro.SolveSpec.from_kwargs(
        rel_tol=1e-6, engine="vectorized", n_steps=3, dt=1.0,
    )
    async with SolveService() as service:
        steps = [
            s async for s in service.stream(
                repro.scenario("quarter_five_spot", nx=8, ny=8, nz=2),
                backend="wse", spec=spec,
            )
        ]
        stats = service.stats()
    check([s.step for s in steps] == [1, 2, 3],
          "transient stream yielded every step in order")
    check(stats["streamed_steps"] == 3 and stats["streams"] == 1,
          "stream accounting recorded")


async def abandoned_stream(store_root: str) -> None:
    """Thread pool, a stream whose consumer stops after step 1."""
    target = repro.scenario("quarter_five_spot", nx=8, ny=8, nz=2)
    spec = repro.SolveSpec.from_kwargs(
        rel_tol=1e-6, engine="vectorized", n_steps=3, dt=1.0,
    )
    service = await SolveService(store=store_root).start()
    first = await service.stream(target, backend="wse", spec=spec).__anext__()
    await service.close()
    stored = ResultStore(store_root).simulation_steps_completed(
        plan_entry(target, spec, "wse").fingerprint
    )
    check(first.step == 1 and stored == 1,
          f"abandoned stream stored only the step it yielded ({stored})")


def main() -> int:
    start = time.perf_counter()
    before_threads = {t.name for t in threading.enumerate()}
    with tempfile.TemporaryDirectory() as records_root:
        print("service smoke: steady fan-out on a process pool")
        asyncio.run(steady_fanout(records_root))
        print("service smoke: transient stream on a thread pool")
        asyncio.run(transient_stream())
        print("service smoke: stream abandoned after its first step")
        asyncio.run(abandoned_stream(f"{records_root}/store"))

    orphans = multiprocessing.active_children()
    check(orphans == [],
          f"zero orphaned worker processes after shutdown ({orphans!r})")
    lingering = [
        t.name for t in threading.enumerate()
        if t.name.startswith("repro-serve") and t.is_alive()
        and t.name not in before_threads
    ]
    check(lingering == [],
          f"no lingering service worker threads ({lingering!r})")

    print(f"service smoke passed in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
