"""CI smoke for the fused engine: oracle parity is exact, runs repeat.

Usage::

    PYTHONPATH=src python benchmarks/fused_smoke.py

Runs the fused hot-loop engine over the tile regimes a deployment hits
(auto-picked slab, an explicit slab, a narrow tile — its padded window
copied into contiguous scratch for the same apply) and asserts the
operational invariants the parity pin promises:

* counters, fabric trace, memory report, state visits, iteration count
  and simulated elapsed time are **exactly** the vectorized oracle's —
  the charge model is shared, so fusing the host arithmetic must not
  change a single count;
* pressures match the oracle within fp round-off (the dots reduce in
  tile order, the only permitted divergence) and repeated fused runs
  are **bit-identical** (the tile-ordered reduction is deterministic);
* the backend path surfaces ``telemetry["fused"]`` (tile shape, tiles
  per sweep);
* ``engine="vectorized"`` *is* ``engine="fused"`` with a whole-grid
  tile: pressure, residual history and counters are bitwise equal (both
  are layouts of one driver over one kernel).

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

SPEC = WSE2.with_fabric(16, 16)
#: Auto slab, explicit full-width slab (read in place), narrow tile (the
#: staged-tile case: its padded window copied into contiguous scratch).
TILES = (None, (4, 10), (5, 3))
SOLVE = dict(spec=SPEC, dtype=np.float32, rel_tol=None, fixed_iterations=8)


def _solve_fused(problem, tile):
    return WseMatrixFreeSolver(
        problem, engine="fused", fused_tile=tile, **SOLVE
    ).solve()


def main() -> int:
    problem = repro.scenario(
        "quarter_five_spot", nx=12, ny=10, nz=3
    ).build()
    failures: list[str] = []

    oracle = WseMatrixFreeSolver(problem, engine="vectorized", **SOLVE).solve()
    for tile in TILES:
        label = "auto" if tile is None else f"{tile[0]}x{tile[1]}"
        first = _solve_fused(problem, tile)
        again = _solve_fused(problem, tile)
        for name in ("counters", "trace"):
            if getattr(first, name).to_dict() != getattr(oracle, name).to_dict():
                failures.append(f"tile {label}: {name} differ from oracle")
        if first.memory != oracle.memory:
            failures.append(f"tile {label}: memory report differs from oracle")
        if first.state_visits != oracle.state_visits:
            failures.append(f"tile {label}: state visits differ from oracle")
        if first.iterations != oracle.iterations:
            failures.append(f"tile {label}: iteration count differs from oracle")
        if first.elapsed_seconds != oracle.elapsed_seconds:
            failures.append(f"tile {label}: simulated time differs from oracle")
        if not np.allclose(first.pressure, oracle.pressure,
                           rtol=1e-5, atol=1e-8):
            failures.append(f"tile {label}: pressure beyond fp round-off")
        if not np.array_equal(again.pressure, first.pressure):
            failures.append(f"tile {label}: repeated run not bit-identical")
        if again.residual_history != first.residual_history:
            failures.append(f"tile {label}: residual history not repeatable")
        info = first.fused
        print(f"fused_smoke: tile={label:<5} "
              f"tiles={info['tiles']} iters={first.iterations} "
              f"counters=oracle-exact deterministic=yes")

    # The declarative front door must surface the fused telemetry block.
    result = repro.solve(
        problem, backend="wse",
        spec=repro.SolveSpec.from_kwargs(
            spec=SPEC, dtype="float32", engine="fused", fused_tile=(4, 10),
            fixed_iterations=8,
        ),
    )
    fused = result.telemetry.get("fused")
    if not fused:
        failures.append(f"backend telemetry missing fused block: {fused}")
    else:
        if fused.get("tile") != [4, 10]:
            failures.append(f"backend telemetry tile odd: {fused.get('tile')}")
        if fused.get("tiles") != 3:  # 12 rows / 4-row slabs
            failures.append(f"backend telemetry tiles odd: {fused.get('tiles')}")

    # The vectorized layout is the fused layout with one whole-grid tile.
    whole = _solve_fused(problem, (problem.grid.nx, problem.grid.ny))
    if not (
        np.array_equal(whole.pressure, oracle.pressure)
        and whole.residual_history == oracle.residual_history
        and whole.counters.to_dict() == oracle.counters.to_dict()
    ):
        failures.append("vectorized != fused with a whole-grid tile")
    else:
        print("fused_smoke: vectorized == fused whole-grid tile (bitwise)")

    if failures:
        for line in failures:
            print(f"fused_smoke: FAIL {line}")
        return 1
    print("fused_smoke: PASS (3 tile regimes oracle-exact and "
          "deterministic, whole-grid tile bitwise vectorized)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
