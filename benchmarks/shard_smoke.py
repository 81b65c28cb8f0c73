"""CI smoke for the sharded engine: every crew runs, nothing leaks.

Usage::

    PYTHONPATH=src python benchmarks/shard_smoke.py

Runs one converging solve per worker-crew mode (serial, thread) on a
multi-shard layout and asserts the operational invariants a deployment
cares about:

* both crews produce **bit-identical** pressures, iterations and
  residual histories (rounds are barriers, reductions are
  shard-ordered — parallelism must not reorder a single float);
* the inter-shard link counters report real traffic on a multi-shard
  layout and ride along in ``telemetry["shard"]`` on the backend path;
* after every run there are **zero orphaned worker processes** and no
  lingering ``shard-worker-*`` threads — crews shut down inside the
  engine's ``finally``, even across repeated solves.

Exits non-zero on any violated invariant, so CI can gate on it.
"""

from __future__ import annotations

import multiprocessing
import pathlib
import sys
import threading

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro.core.solver import WseMatrixFreeSolver  # noqa: E402
from repro.wse.specs import WSE2  # noqa: E402

CREWS = ("serial", "thread")
SHARD_SHAPE = (2, 2)
SPEC = WSE2.with_fabric(16, 16)


def _shard_threads() -> list[str]:
    return [
        t.name for t in threading.enumerate()
        if t.name.startswith("shard-worker")
    ]


def main() -> int:
    problem = repro.scenario(
        "quarter_five_spot", nx=12, ny=10, nz=3
    ).build()
    failures: list[str] = []
    reports = {}
    for workers in CREWS:
        report = WseMatrixFreeSolver(
            problem, spec=SPEC, engine="sharded",
            shard_shape=SHARD_SHAPE, shard_workers=workers,
            dtype=np.float64, rel_tol=1e-8, max_iters=3000,
        ).solve()
        reports[workers] = report
        if report.shard["workers"] != workers:
            failures.append(
                f"{workers}: report says workers={report.shard['workers']!r}"
            )
        if report.shard["links"]["halo_bytes"] <= 0:
            failures.append(f"{workers}: no halo traffic on a 2x2 layout")
        orphans = multiprocessing.active_children()
        if orphans:
            failures.append(f"{workers}: orphaned processes {orphans}")
        threads = _shard_threads()
        if threads:
            failures.append(f"{workers}: lingering threads {threads}")
        print(f"shard_smoke: {workers:<7} iters={report.iterations} "
              f"halo_bytes={report.shard['links']['halo_bytes']} "
              f"orphans=0 threads=0")

    base = reports["serial"]
    for workers in CREWS[1:]:
        other = reports[workers]
        if not np.array_equal(other.pressure, base.pressure):
            failures.append(f"{workers}: pressure differs from serial crew")
        if other.iterations != base.iterations:
            failures.append(f"{workers}: iteration count differs from serial")
        if other.residual_history != base.residual_history:
            failures.append(f"{workers}: residual history differs from serial")

    # The declarative front door carries the same solve (the adaptive
    # crew default) and must surface shard telemetry.
    from repro.shard import ShardLayout, default_crew  # noqa: E402

    result = repro.solve(
        problem, backend="wse",
        spec=repro.SolveSpec.from_kwargs(
            spec=SPEC, engine="sharded", shard_shape=SHARD_SHAPE,
            dtype="float64", rel_tol=1e-8, max_iters=3000,
        ),
    )
    expected_crew = default_crew(
        ShardLayout.build(SHARD_SHAPE, problem.grid.nx, problem.grid.ny)
    )
    shard = result.telemetry.get("shard")
    if not shard or shard.get("workers") != expected_crew:
        failures.append(f"backend telemetry missing/odd shard block: {shard}")
    elif shard["links"]["halo_bytes"] <= 0:
        failures.append("backend telemetry reports no halo traffic")
    if not np.array_equal(result.pressure, base.pressure):
        failures.append("backend-path pressure differs from direct solver")

    if failures:
        for line in failures:
            print(f"shard_smoke: FAIL {line}")
        return 1
    print("shard_smoke: PASS (serial and thread crews bit-identical, "
          "backend telemetry intact, no orphaned workers)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
