"""Serving demo: 100 concurrent requests through one SolveService.

Run:  python examples/serve_demo.py

A hundred clients submit solve requests concurrently, but they only ask
for ~10 distinct things (10 permeability realizations of one reservoir,
all under the same solve spec).  The service turns that into far fewer
than 100 solves:

* identical requests arriving while the first is still solving attach to
  it (in-flight dedup),
* identical requests arriving later hit the content-addressed result
  cache (fingerprint = target + spec + backend, so a hit is *identity*,
  not heuristics),
* the ~10 genuinely distinct requests agree on backend / spec / grid
  shape and pin a batch-capable engine, so admission control fuses them
  into batched lanes — close to one launch for all of them.

The run record printed at the end is the service's own accounting
(`run.json`), not demo bookkeeping.
"""

import asyncio
import random
import tempfile
import time

import repro
from repro.serve import SolveService

N_REQUESTS = 100
N_DISTINCT = 10


async def client(service, scenarios, spec, i):
    """One impatient user: pick a reservoir, ask, wait, maybe re-ask."""
    await asyncio.sleep(random.uniform(0, 0.05))  # ragged arrivals
    target = scenarios[i % N_DISTINCT]
    result = await service.submit(target, backend="wse", spec=spec)
    return target, result


async def main() -> None:
    random.seed(0)
    # 10 permeability realizations of the same 16x16x4 reservoir: distinct
    # content fingerprints, identical backend / spec / grid shape.
    scenarios = [
        repro.scenario("lognormal_reservoir", nx=16, ny=16, nz=4, seed=seed)
        for seed in range(N_DISTINCT)
    ]
    # Only the vectorized/fused engines batch; an unset engine is the
    # event oracle, and its requests would each run solo.
    spec = repro.SolveSpec.from_kwargs(engine="vectorized", rel_tol=1e-7)

    records_root = tempfile.mkdtemp(prefix="repro-serve-demo-")
    start = time.perf_counter()
    async with SolveService(
        records=records_root, admission_window=0.02
    ) as service:
        answers = await asyncio.gather(
            *(client(service, scenarios, spec, i) for i in range(N_REQUESTS))
        )
        stats = service.stats()
        run_dir = service.recorder.run_dir
    elapsed = time.perf_counter() - start

    print(f"{N_REQUESTS} requests, {N_DISTINCT} distinct specs, "
          f"{elapsed:.2f}s wall clock\n")
    print(f"  solves actually executed : {stats['executed']}")
    print(f"  fused batched launches   : {stats['batched_launches']} "
          f"(of {stats['launches']} total)")
    print(f"  in-flight dedup hits     : {stats['dedup_hits']}")
    print(f"  memory cache hits        : {stats['cache_hits_memory']}")
    print(f"  cache hit ratio          : {stats['cache_hit_ratio']:.2f}")
    print(f"  run record               : {run_dir}/run.json")

    iters = sorted({r.iterations for _, r in answers})
    print(f"\nall {len(answers)} clients answered; CG iteration counts "
          f"across the {N_DISTINCT} realizations: {iters}")


if __name__ == "__main__":
    asyncio.run(main())
