"""CI smoke for the sharded layout: shard-major tiles, link telemetry.

Usage::

    PYTHONPATH=src python benchmarks/shard_smoke.py

Runs one converging 2x2 solve on 12x10x3, which divides the grid, and
asserts the invariants the layout promises:

* it is **bitwise** ``engine="fused", fused_tile=(6, 5)``: each shard
  is one tile of that tiling, and shard order is its tile order
  (pressure, iterations and residual history);
* the inter-shard link counters report halo traffic on a multi-shard
  layout;
* on the backend path ``telemetry["shard"]`` carries exactly the keys
  ``layout``, ``links`` and ``fused_tile``, and the pressure equals the
  direct solve's.

Exits non-zero on any violated invariant, so CI can gate on it.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro.core.solver import WseMatrixFreeSolver  # noqa: E402
from repro.wse.specs import WSE2  # noqa: E402

SHARD_SHAPE = (2, 2)
SPEC = WSE2.with_fabric(16, 16)
SOLVE = dict(spec=SPEC, dtype=np.float64, rel_tol=1e-8, max_iters=3000)


def main() -> int:
    problem = repro.scenario(
        "quarter_five_spot", nx=12, ny=10, nz=3
    ).build()
    failures: list[str] = []
    sharded = WseMatrixFreeSolver(
        problem, engine="sharded", shard_shape=SHARD_SHAPE, **SOLVE
    ).solve()
    fused = WseMatrixFreeSolver(
        problem, engine="fused", fused_tile=(6, 5), **SOLVE
    ).solve()
    if not np.array_equal(sharded.pressure, fused.pressure):
        failures.append("pressure differs from the fused (6, 5) tiling")
    if sharded.iterations != fused.iterations:
        failures.append("iteration count differs from the fused (6, 5) tiling")
    if sharded.residual_history != fused.residual_history:
        failures.append("residual history differs from the fused (6, 5) tiling")
    halo = sharded.shard["links"]["halo_bytes"]
    if halo <= 0:
        failures.append("no halo traffic on a 2x2 layout")
    print(f"shard_smoke: 2x2 iters={sharded.iterations} halo_bytes={halo} "
          f"bitwise fused (6, 5)="
          f"{np.array_equal(sharded.pressure, fused.pressure)}")

    # The declarative front door carries the same solve and must
    # surface the shard telemetry.
    result = repro.solve(
        problem, backend="wse",
        spec=repro.SolveSpec.from_kwargs(
            spec=SPEC, engine="sharded", shard_shape=SHARD_SHAPE,
            dtype="float64", rel_tol=1e-8, max_iters=3000,
        ),
    )
    shard = result.telemetry.get("shard")
    if not shard or set(shard) != {"layout", "links", "fused_tile"}:
        failures.append(f"backend telemetry missing/odd shard block: {shard}")
    if not np.array_equal(result.pressure, sharded.pressure):
        failures.append("backend-path pressure differs from direct solver")

    if failures:
        for line in failures:
            print(f"shard_smoke: FAIL {line}")
        return 1
    print("shard_smoke: PASS (2x2 bitwise the fused (6, 5) tiling, halo "
          "traffic reported, backend telemetry intact)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
