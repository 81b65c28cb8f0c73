"""CI smoke for the network tier: two gateways, one store, no lies.

Usage::

    PYTHONPATH=src python benchmarks/gateway_smoke.py

Boots **two** gateway processes (via :func:`repro.net.serve_forever`)
sharing one :class:`~repro.session.ResultStore` root, fires 100
concurrent HTTP solves over 10 distinct specs split across both
gateways, streams one transient over the WebSocket, and asserts the
invariants the issue's acceptance scenario names:

* every request resolves and converges;
* **zero lost store records** — the shared store holds exactly the
  10 distinct fingerprints, each loadable (the lost-update regression:
  blind rewrites of a shared manifest once dropped whichever gateway
  flushed first);
* cache + dedup + cross-gateway store sharing hold the number of
  genuine solves across *both* processes to **≤ 10**;
* each gateway's ``/metrics`` totals agree with its own durable
  ``run.json`` and ``attempts.jsonl`` — the single-registry counter
  design, checked over the wire;
* shutdown leaves **zero orphaned processes**.

Exits non-zero on any violated invariant, so CI can gate on it.
"""

from __future__ import annotations

import multiprocessing
import pathlib
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro.net import GatewayClient  # noqa: E402
from repro.net.server import serve_forever  # noqa: E402
from repro.serve import load_attempts, load_run_record  # noqa: E402
from repro.session import ResultStore, plan_entry  # noqa: E402

REQUESTS = 100
DISTINCT = 10
N_STEPS = 3
GATEWAYS = 2


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"  ok: {message}")


def _gateway_main(root: str, run_id: str, ready, stop) -> None:
    """One gateway process: service + listener over the shared store."""
    serve_forever(
        store=f"{root}/store",
        records=f"{root}/records",
        run_id=run_id,
        ready=lambda info: ready.put(info),
        stop=stop,
        admission_window=0.02,
    )


def _boot_gateways(root: str):
    context = multiprocessing.get_context("spawn")
    stop = context.Event()
    ready = context.Queue()
    processes = [
        context.Process(
            target=_gateway_main,
            args=(root, f"gateway-{index}", ready, stop),
            name=f"gateway-{index}",
        )
        for index in range(GATEWAYS)
    ]
    for process in processes:
        process.start()
    addresses = sorted(
        (ready.get(timeout=60) for _ in processes),
        key=lambda info: info["run_id"],
    )
    return processes, addresses, stop


def main() -> int:
    start = time.perf_counter()
    spec = repro.SolveSpec.from_kwargs(rel_tol=1e-6, engine="vectorized")
    scenarios = [
        repro.scenario(
            "quarter_five_spot", nx=8, ny=8, nz=2,
            permeability=float(40 + 7 * i),
        )
        for i in range(DISTINCT)
    ]

    with tempfile.TemporaryDirectory() as root:
        processes, addresses, stop = _boot_gateways(root)
        try:
            print(f"gateway smoke: {GATEWAYS} gateways on "
                  f"{[a['url'] for a in addresses]}, shared store {root}/store")
            clients = [
                GatewayClient(a["host"], a["port"]) for a in addresses
            ]

            def one(index: int):
                # Alternate gateways request by request: both processes
                # write to the shared store concurrently.
                client = clients[index % GATEWAYS]
                return client.solve(
                    scenarios[index % DISTINCT], backend="wse", spec=spec
                )

            with ThreadPoolExecutor(max_workers=16) as pool:
                results = list(pool.map(one, range(REQUESTS)))
            check(len(results) == REQUESTS
                  and all(r.converged for r in results),
                  f"all {REQUESTS} HTTP solves across {GATEWAYS} gateways "
                  f"resolved and converged")

            transient = spec.with_options(
                n_steps=N_STEPS, dt=1.0, total_compressibility=5e-3,
            )
            steps = list(clients[0].stream(
                scenarios[0], backend="wse", spec=transient
            ))
            check([s.step for s in steps] == list(range(1, N_STEPS + 1)),
                  "WebSocket transient streamed every step in order")

            # -- metrics vs durable records, per gateway, over the wire --
            metrics = [client.metrics_values() for client in clients]
            executed_total = 0
            for address, values in zip(addresses, metrics):
                run_id = address["run_id"]
                record = load_run_record(
                    pathlib.Path(root) / "records" / run_id
                )["summary"]
                for metric_name, summary_name in (
                    ("repro_requests_submitted_total", "submitted"),
                    ("repro_solves_executed_total", "executed"),
                    ("repro_requests_failed_total", "failed"),
                ):
                    check(values.get(metric_name, 0) == record[summary_name],
                          f"{run_id}: /metrics {metric_name} "
                          f"({values.get(metric_name, 0):.0f}) == run.json "
                          f"{summary_name} ({record[summary_name]})")
                attempts = load_attempts(
                    pathlib.Path(root) / "records" / run_id
                )
                ok_attempts = sum(1 for a in attempts if a["outcome"] == "ok")
                check(record["failed"] == 0
                      and ok_attempts == record["executed"],
                      f"{run_id}: attempts.jsonl consistent "
                      f"({ok_attempts} ok attempts == "
                      f"{record['executed']} executed)")
                executed_total += record["executed"]

            check(executed_total <= DISTINCT,
                  f"cache+dedup+shared store held genuine solves to "
                  f"{executed_total} <= {DISTINCT} across both gateways")

            for client in clients:
                client.close()
        finally:
            stop.set()
            for process in processes:
                process.join(timeout=60)

        # -- shared store integrity, after both writers are gone ---------
        store = ResultStore(pathlib.Path(root) / "store")
        expected = {
            plan_entry(s, spec, "wse").fingerprint for s in scenarios
        }
        solve_records = {k for k in store.keys() if "#" not in k}
        check(solve_records == expected,
              f"zero lost store records: {len(solve_records)}/{DISTINCT} "
              f"distinct fingerprints survived both writers")
        for fingerprint in expected:
            store.load(fingerprint)
        check(True, "every shared-store record rehydrates")

    check(all(p.exitcode == 0 for p in processes),
          f"both gateways exited cleanly "
          f"({[p.exitcode for p in processes]})")
    orphans = multiprocessing.active_children()
    check(orphans == [], f"zero orphaned processes ({orphans!r})")

    print(f"gateway smoke passed in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
