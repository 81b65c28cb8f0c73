"""Gateway demo: the SolveService behind a real TCP port.

Run:  python examples/gateway_demo.py

Boots a gateway (service + HTTP/WebSocket listener) in a background
thread via :func:`repro.net.serve_forever`, then walks the whole wire
surface with the blocking :class:`~repro.net.GatewayClient`:

* ``GET /healthz`` — liveness, run id, store path;
* 60 concurrent ``POST /v1/solve`` requests over 6 distinct reservoir
  realizations — the service's cache/dedup/admission machinery applies
  unchanged behind the wire, so far fewer than 60 solves run;
* an ``If-None-Match`` replay answered ``304 Not Modified`` before any
  cache probe — the ETag *is* the content fingerprint, and a
  fingerprint cannot map to a second answer;
* a transient streamed step-by-step over the WebSocket;
* ``GET /metrics`` — and the punchline: the Prometheus totals equal the
  service's own ``stats()``, because both read the one registry.
"""

import queue
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import repro
from repro.net import GatewayClient
from repro.net.server import serve_forever

N_REQUESTS = 60
N_DISTINCT = 6
N_STEPS = 5


def main() -> None:
    scenarios = [
        repro.scenario("lognormal_reservoir", nx=16, ny=16, nz=4, seed=seed)
        for seed in range(N_DISTINCT)
    ]
    spec = repro.SolveSpec.from_kwargs(rel_tol=1e-7, engine="vectorized")

    store_root = tempfile.mkdtemp(prefix="repro-gateway-store-")
    records_root = tempfile.mkdtemp(prefix="repro-gateway-records-")
    ready: queue.Queue = queue.Queue()
    stop = threading.Event()
    gateway_thread = threading.Thread(
        target=serve_forever,
        kwargs=dict(
            store=store_root, records=records_root, run_id="gateway-demo",
            ready=ready.put, stop=stop,
        ),
        name="gateway", daemon=True,
    )
    gateway_thread.start()
    address = ready.get(timeout=30)
    print(f"gateway listening on {address['url']} "
          f"(run id {address['run_id']})\n")

    client = GatewayClient(address["host"], address["port"])
    try:
        health = client.healthz()
        print(f"GET /healthz        -> {health['status']}, "
              f"store {health['store']}")

        # -- concurrent solves over the wire ------------------------------
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=12) as pool:
            results = list(pool.map(
                lambda i: client.solve(
                    scenarios[i % N_DISTINCT], backend="wse", spec=spec
                ),
                range(N_REQUESTS),
            ))
        elapsed = time.perf_counter() - start
        print(f"POST /v1/solve x{N_REQUESTS} ({N_DISTINCT} distinct specs) "
              f"-> all converged={all(r.converged for r in results)}, "
              f"{elapsed:.2f}s, {N_REQUESTS / elapsed:.0f} req/s")

        # -- conditional replay: the ETag is the content fingerprint ------
        client.solve(scenarios[0], backend="wse", spec=spec)
        etag = client.last_etag
        replay = client.solve(
            scenarios[0], backend="wse", spec=spec, if_none_match=etag
        )
        print(f"If-None-Match {etag} -> "
              f"{'304 Not Modified (no body, no cache probe)' if replay is None else 'unexpected body!'}")

        # -- transient over the WebSocket ---------------------------------
        transient = spec.with_options(
            n_steps=N_STEPS, dt=2.0, total_compressibility=5e-3,
            rel_tol=1e-5,  # keep the demo snappy; accuracy isn't the point here
        )
        print("GET /v1/stream      -> ", end="")
        for step in client.stream(scenarios[0], backend="wse", spec=transient):
            print(f"step {step.step} ({step.iterations} iters)",
                  end="  ", flush=True)
        print()

        # -- the metrics surface ------------------------------------------
        values = client.metrics_values()
        print("\nGET /metrics (the same registry stats() and run.json read):")
        for name in (
            "repro_requests_submitted_total",
            "repro_solves_executed_total",
            'repro_cache_hits_total{tier="memory"}',
            'repro_cache_hits_total{tier="dedup"}',
            "repro_stream_steps_total",
            'repro_http_requests_total{route="/v1/solve",status="200"}',
        ):
            total = sum(v for k, v in values.items()
                        if k == name or k.startswith(name + "{"))
            print(f"  {name:<55s} {total:.0f}")
    finally:
        client.close()
        stop.set()
        gateway_thread.join(timeout=30)
    print(f"\ngateway stopped; durable run record in "
          f"{records_root}/gateway-demo/run.json")


if __name__ == "__main__":
    main()
