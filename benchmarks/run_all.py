"""Run the Table III/IV/V simulator benchmarks through one Session.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py [--out PATH] [--profile]

Builds a single :class:`repro.Session` plan covering the simulator-scale
workloads behind the paper's weak-scaling (Table III), time-distribution
(Table IV) and instruction-count (Table V) studies plus a reference-
backend baseline, executes it with per-entry error capture, and writes a
machine-readable ``BENCH_session.json`` at the repo root — the perf
baseline future PRs diff against (see ``benchmarks/diff_bench.py``).
Without ``--out`` the run overwrites (re-blesses) that baseline; write
elsewhere to diff against it.

The vectorized fabric engine adds the paper-scale rows the event engine
cannot reach: Table III weak scaling extended to 128×128-PE fabrics, an
event-vs-vectorized engine comparison on the largest fabric both can
run, and a full-fabric 750×994 smoke row.

``precond_iterations`` rows (schema ``repro.bench_session/8``) record
CG iteration counts at equal residual on the heterogeneous geomodel
scenarios (lognormal, channelized) for ``preconditioner`` none / jacobi
/ mg on the vectorized engine.  The mg rows'
``iteration_reduction_vs_none`` is the multigrid scale proof (expected
≥ 5×); iteration counts and the ``preconditioner`` field are
deterministic and gated by ``diff_bench.py``.

``--profile`` prints a per-phase host-time breakdown of the CG
driver's kernel passes at 128×128×4 for the vectorized (one whole-grid
tile), fused (auto tiles) and narrow-tile fused (square tiles of a
quarter of the grid side, each copying its padded window into scratch)
layouts, then of one multigrid V-cycle at 64×64×4 per level and part —
warm medians with IQR over interleaved repeats — then one
``ResultStore.save`` into stores of 10 and 800 records, one
``RunRecorder.record_outcome`` in runs that have finished 10 and 1,000
requests, then the footprint of ``import repro`` and of a few small
solves in fresh interpreters, instead of running the benches.

Every row records its convergence *mode*: Table III/IV/V rows run under
``fixed_iterations`` (truncated by design, the paper's Table IV
methodology), so their ``converged: false`` is expected — the ``mode``
and ``fixed_iterations`` fields keep them distinguishable from actual
convergence failures.

There is one run size; CI runs exactly the committed baseline's
workload, so ``diff_bench.py`` compares every row like-for-like.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro.scenarios import weak_scaling_family  # noqa: E402
from repro.wse.specs import WSE2  # noqa: E402


def build_targets() -> list[tuple]:
    """(table, target, spec, backend) rows for the session plan."""
    fabric = WSE2.with_fabric(32, 32)
    laterals, nz, iters = (3, 5, 8), 6, 4
    t4_grid, t4_iters = dict(nx=6, ny=6, nz=8), 8
    t5_grid, t5_iters = dict(nx=4, ny=4, nz=8), 3
    # Starts above compare_lateral so the sweep and the comparison
    # pair never duplicate a (scenario, spec) fingerprint.
    vector_laterals = (32, 64, 128)
    compare_lateral = 16
    full_fabric = dict(nx=750, ny=994, nz=2)

    # The paper's cycle-accurate methodology (Tables III-V) runs on the
    # event oracle, named explicitly: the default engine is the fused
    # layout, whose makespan is an analytic estimate.
    wse = repro.SolveSpec.from_kwargs(spec=fabric, dtype="float32", engine="event")
    rows: list[tuple] = []

    # Table III — weak scaling: growing fabric, fixed column depth.
    for sc in weak_scaling_family(laterals=laterals, nz=nz):
        rows.append(("table3", sc, wse.with_options(fixed_iterations=iters), "wse"))

    # Table III extended — the vectorized engine reaches paper-scale
    # fabrics the per-PE event simulation cannot.
    for sc in weak_scaling_family(laterals=vector_laterals, nz=nz):
        lateral = sc.params["lateral"]
        vec_spec = repro.SolveSpec.from_kwargs(
            spec=WSE2.with_fabric(max(32, lateral), max(32, lateral)),
            dtype="float32", engine="vectorized", fixed_iterations=iters,
        )
        rows.append(("table3_vector", sc, vec_spec, "wse"))

    # Engine comparison — same scenario, same program, both engines, on
    # the largest fabric the event engine can still run in bench time.
    # The host_seconds ratio of this pair is the vectorized engine's
    # speedup (the diff tool and the scale-proof assertion read it).
    compare = repro.scenario("weak_scaling", lateral=compare_lateral, nz=nz)
    compare_spec = repro.SolveSpec.from_kwargs(
        spec=WSE2.with_fabric(max(32, compare_lateral), max(32, compare_lateral)),
        dtype="float32", fixed_iterations=iters,
    )
    rows.append(("engine_compare_event", compare,
                 compare_spec.with_options(engine="event"), "wse"))
    rows.append(("engine_compare_vectorized", compare,
                 compare_spec.with_options(engine="vectorized"), "wse"))

    # Full-fabric smoke — the wafer rectangle of the paper (§III intro):
    # 750×994 PEs, vectorized engine only.
    full = repro.scenario("quarter_five_spot", **full_fabric)
    full_spec = repro.SolveSpec.from_kwargs(
        spec=WSE2, dtype="float32", engine="vectorized", fixed_iterations=2,
    )
    rows.append(("full_fabric_smoke", full, full_spec, "wse"))

    # Table IV — time distribution: full run vs. comm-only on one scenario
    # (shared scenario fingerprint -> one assembly).
    t4 = repro.scenario("quarter_five_spot", **t4_grid)
    t4_spec = wse.with_options(fixed_iterations=t4_iters)
    rows.append(("table4_full", t4, t4_spec, "wse"))
    rows.append(("table4_comm", t4, t4_spec.with_options(comm_only=True), "wse"))

    # Table V — instruction counts: the trace cross-check run.
    t5 = repro.scenario("quarter_five_spot", **t5_grid)
    rows.append(("table5", t5, wse.with_options(fixed_iterations=t5_iters), "wse"))

    # Reference baseline for cross-machine context (converged solve).
    ref_spec = repro.SolveSpec.from_kwargs(dtype="float64", rel_tol=1e-8, max_iters=2000)
    rows.append(("reference_baseline", t4, ref_spec, "reference"))
    return rows


def run_precond_iterations() -> list[dict]:
    """Preconditioner iteration-reduction rows (to-convergence).

    Solves the heterogeneous geomodel scenarios (lognormal, channelized
    — where unpreconditioned CG suffers most) on the vectorized fabric
    engine with ``preconditioner`` none/jacobi/mg at the *same* resolved
    tolerance, so the recorded iteration counts compare equal-residual
    solves.  The mg rows carry ``iteration_reduction_vs_none`` — the
    multigrid scale proof (expected ≥ 5× on both scenarios) — plus the
    V-cycle telemetry shape (level count, cycles).  Iteration counts are
    deterministic replays of the same arithmetic, so ``diff_bench.py``
    gates on them (and on the ``preconditioner`` field) exactly.
    """
    cases = [("lognormal_reservoir", dict(nx=24, ny=24, nz=6)),
             ("channelized_reservoir", dict(nx=24, ny=24, nz=6))]

    records = []
    for name, grid in cases:
        scenario = repro.scenario(name, **grid)
        problem = scenario.build()
        lateral = max(grid["nx"], grid["ny"])
        base = repro.SolveSpec.from_kwargs(
            spec=WSE2.with_fabric(max(32, lateral), max(32, lateral)),
            dtype="float32", engine="vectorized", rel_tol=1e-5,
            max_iters=20_000,
        )
        iters_by_precond: dict[str, int] = {}
        for precond in ("none", "jacobi", "mg"):
            spec = base.with_options(preconditioner=precond)
            start = time.perf_counter()
            result = repro.solve(problem, backend="wse", spec=spec)
            host = time.perf_counter() - start
            iters_by_precond[precond] = result.iterations
            record = {
                "table": "precond_iterations",
                "scenario": f"{name}[{grid['nx']}x{grid['ny']}x{grid['nz']}] "
                            f"{precond}",
                "backend": "wse",
                "engine": result.telemetry.get("engine"),
                "mode": "to_convergence",
                "fixed_iterations": None,
                "preconditioner": precond,
                "rel_tol": 1e-5,
                "iterations": result.iterations,
                "converged": bool(result.converged),
                "time_kind": "host",
                "host_seconds": host,
            }
            if precond != "none":
                record["iteration_reduction_vs_none"] = (
                    iters_by_precond["none"] / max(1, result.iterations)
                )
            if precond == "mg":
                tele = result.telemetry["preconditioner"]
                record.update(
                    mg_levels=len(tele["levels"]),
                    mg_cycles=tele["cycles"],
                    mg_coarse_solve=tele["coarse_solve"],
                )
            records.append(record)
            reduction = record.get("iteration_reduction_vs_none")
            extra = "" if reduction is None else f" ({reduction:.1f}x fewer)"
            print(f"  precond_iterations {name:<22} {precond:<6} "
                  f"{result.iterations:>5} iters "
                  f"converged={result.converged}{extra}")
    return records


def run_profile() -> None:
    """Per-phase host time of the CG driver's kernel passes (``--profile``).

    ``"vectorized"`` and ``"fused"`` are layouts of one driver over one
    kernel — a whole-grid tile, auto-picked slabs, and narrow tiles of
    ``lateral // 4`` square (the staged-tile case, whose copy of its
    padded stencil window into scratch shows in ``body_pass``) — so
    every column times the same calls: staging (``create_engine``), the
    three passes of a plain CG iteration (the stacked apply and the
    ``p·jx`` dot; the ``[y; r]`` block update and the ``r·r`` dot; the
    direction update), the per-lane charge composition, and a whole
    fixed-iteration run per iteration.  Every repeat times each
    phase once per layout, rotating which layout goes first; the first
    repeat is a discarded warm-up, and each cell is the median with its
    interquartile range.
    """
    import numpy as np

    from repro.core.solver import WseMatrixFreeSolver
    from repro.solvers.state_machine import CGState

    # 128x128 puts the working set beyond L2; at small grids the auto
    # tile is the whole grid and the "fused" column repeats "vectorized".
    lateral, nz, iters, reps = 128, 4, 24, 41
    problem = repro.scenario(
        "quarter_five_spot", nx=lateral, ny=lateral, nz=nz,
    ).build()
    fabric = WSE2.with_fabric(max(32, lateral), max(32, lateral))
    narrow = (lateral // 4, lateral // 4)
    layouts = ("vectorized", "fused", f"fused {narrow[0]}x{narrow[1]}")
    engines = {
        "vectorized": dict(engine="vectorized"),
        "fused": dict(engine="fused"),
        layouts[2]: dict(engine="fused", fused_tile=narrow),
    }

    def build(name):
        return WseMatrixFreeSolver(
            problem, spec=fabric, dtype=np.float32, rel_tol=None,
            fixed_iterations=iters, **engines[name],
        ).engine

    drivers = {name: build(name) for name in layouts}
    for driver in drivers.values():
        driver.lanes[0].kernel.init_pass()

    def phases(name):
        driver = drivers[name]
        lane = driver.lanes[0]
        kernel = lane.kernel
        history = [1.0] * (iters + 1)
        pressure = kernel.y
        return {
            "stage (create_engine)": lambda: build(name),
            "body_pass (apply+dot)": kernel.body_pass,
            "update_pass (axpy+dot)": lambda: kernel.update_pass(0.5),
            "direction_pass": lambda: kernel.direction_pass(0.5),
            "charge (per lane)": lambda: driver._report(
                lane, iters, CGState.MAXITER, False, history, pressure
            ),
            "run / iteration": driver.run,
        }

    calls = {name: phases(name) for name in layouts}
    samples = {name: {label: [] for label in calls[name]} for name in layouts}
    for rep in range(reps):
        lead = rep % len(layouts)
        order = layouts[lead:] + layouts[:lead]
        for label in calls[layouts[0]]:
            for name in order:
                start = time.perf_counter()
                calls[name][label]()
                elapsed = (time.perf_counter() - start) * 1e3
                if label == "run / iteration":
                    elapsed /= iters
                if rep:
                    samples[name][label].append(elapsed)

    kernel = drivers["fused"].lanes[0].kernel
    tile = kernel.boxes[0]
    print(f"\nprofile: warm host ms per call, median [IQR] over {reps - 1} "
          f"interleaved repeats ({lateral}x{lateral}x{nz} float32; fused "
          f"auto tile {tile[1] - tile[0]}x{tile[3] - tile[2]}, "
          f"{len(kernel.boxes)} tiles)")
    print(f"  {'phase':<24}" + "".join(f" {name:>22}" for name in layouts))
    for label in calls[layouts[0]]:
        cells = []
        for name in layouts:
            q1, med, q3 = np.percentile(samples[name][label], [25, 50, 75])
            cells.append(f"{med:.3f} [{q1:.3f}-{q3:.3f}]")
        print(f"  {label:<24}" + "".join(f" {cell:>22}" for cell in cells))


def run_vcycle_profile() -> None:
    """Warm host time of one mg V-cycle and of its parts (``--profile``).

    The hierarchy is the float32 one of a 64x64x4 ``transient_injection``
    system at Δt = 2 (the accumulation perfbench's ``simulate_mg`` steps
    with).  Each repeat runs one plain ``mg_apply`` and one cycle whose
    schedule steps are timed one by one in cycle order (copying ``r`` in
    and ``z`` out as ``mg_apply`` does), alternating which goes first;
    the first repeat is a discarded warm-up.  Each step is charged to its
    level and part (``hier.parts``), so the parts add up to the timed
    cycle, which the last line compares with the plain one.
    """
    import numpy as np

    from repro.mg import hierarchy_for_problem, mg_apply
    from repro.physics.transient import TransientStepper

    reps = 41
    problem = repro.scenario("transient_injection", nx=64, ny=64, nz=4).build()
    acc = TransientStepper(problem, dts=[2.0], total_compressibility=5e-3).begin(0)[0]
    hier = hierarchy_for_problem(problem, accumulation=acc, dtype=np.float32)
    fine = hier.levels[0]
    r = np.random.default_rng(0).standard_normal(fine.shape).astype(np.float32)
    r[fine.mask] = 0.0
    z = np.empty_like(r)
    clock = time.perf_counter

    def timed_cycle():
        marks = [clock()]
        np.copyto(fine.rhs, r, casting="same_kind")
        marks.append(clock())
        for kernel, operands in hier.schedule:
            kernel(*operands)
            marks.append(clock())
        np.copyto(z, fine.z, casting="same_kind")
        marks.append(clock())
        return np.diff(marks) * 1e6

    parts = ("smoothing", "residual", "restriction", "prolongation", "coarse solve")
    plain, timed, io = [], [], []
    split = {(level, part): [] for level in range(len(hier.levels)) for part in parts}
    for rep in range(reps):
        for timed_first in ((True, False) if rep % 2 else (False, True)):
            if timed_first:
                steps = timed_cycle()
                spent = dict.fromkeys(split, 0.0)
                for label, elapsed in zip(hier.parts, steps[1:-1]):
                    spent[label] += elapsed
            else:
                start = clock()
                mg_apply(hier, r, out=z)
                elapsed = (clock() - start) * 1e6
            if not rep:
                continue
            if timed_first:
                timed.append(steps.sum())
                io.append(steps[0] + steps[-1])
                for label, elapsed in spent.items():
                    split[label].append(elapsed)
            else:
                plain.append(elapsed)

    def cell(values):
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        return f"{med:.1f} [{q1:.1f}-{q3:.1f}]"

    print(f"\nprofile: mg V-cycle, warm host us per cycle, median [IQR] over "
          f"{reps - 1} interleaved repeats (64x64x4 float32 transient_injection, "
          f"dt 2, {len(hier.levels)} levels, {len(hier.schedule)} schedule steps)")
    print(f"  {'whole cycle (mg_apply)':<24} {cell(plain):>20}")
    print(f"  {'level':<24}" + "".join(f" {part:>20}" for part in parts))
    for index, level in enumerate(hier.levels):
        shape = "x".join(map(str, level.shape))
        cells = [cell(split[index, part]) if any(split[index, part]) else "-"
                 for part in parts]
        print(f"  {index} {shape:<22}" + "".join(f" {c:>20}" for c in cells))
    print(f"  {'copy r in, z out':<24} {cell(io):>20}")
    ratio = np.median(timed) / np.median(plain)
    print(f"  {'sum of parts':<24} {cell(timed):>20}  ({ratio:.3f} x whole cycle)")


def run_store_profile(saves: int = 20) -> None:
    """Host ms of one ``ResultStore.save`` (``--profile``): the median
    [IQR] of ``saves`` saves of 16x16x4 float32 results into a temp store
    that already holds 10 records, and again at 800.  A save writes only
    its own payload and record, so the two rows should match."""
    import tempfile

    import numpy as np

    from repro.session import ResultStore, plan_entry

    spec = repro.SolveSpec.from_kwargs(dtype="float32")
    rng = np.random.default_rng(0)
    seeds = iter(range(1 << 30))

    def fresh():
        target = repro.scenario(
            "lognormal_reservoir", nx=16, ny=16, nz=4, seed=next(seeds)
        )
        result = repro.SolveResult(
            pressure=rng.random((16, 16, 4), dtype=np.float32),
            iterations=60, converged=True,
            residual_history=rng.random(61).tolist(),
            elapsed_seconds=1e-3, backend="wse", telemetry={},
        )
        return plan_entry(target, spec, "wse"), result

    print(f"\nprofile: ResultStore.save, host ms per save, median [IQR] over "
          f"{saves} saves of 16x16x4 float32 results")
    for held in (10, 800):
        with tempfile.TemporaryDirectory() as root:
            store = ResultStore(root)
            for _ in range(held):
                store.save(*fresh())
            pairs = [fresh() for _ in range(saves)]
            elapsed = []
            for entry, result in pairs:
                start = time.perf_counter()
                store.save(entry, result)
                elapsed.append((time.perf_counter() - start) * 1e3)
        q1, med, q3 = np.percentile(elapsed, [25, 50, 75])
        print(f"  {f'into {held} records':<24} {med:.3f} [{q1:.3f}-{q3:.3f}]")


def run_records_profile(outcomes: int = 20) -> None:
    """Host ms of one ``RunRecorder.record_outcome`` (``--profile``): the
    median [IQR] of ``outcomes`` outcomes in a temp run that has already
    finished 10 requests, and again at 1,000.  An outcome appends one
    line to ``requests.jsonl`` and rewrites a ``run.json`` of constant
    size, so the two rows should match."""
    import tempfile

    import numpy as np

    from repro.serve.records import RunRecorder

    print(f"\nprofile: RunRecorder.record_outcome, host ms per outcome, "
          f"median [IQR] over {outcomes} outcomes")
    for held in (10, 1000):
        with tempfile.TemporaryDirectory() as root:
            recorder = RunRecorder(root, run_id="profile")
            elapsed = []
            for request_id in range(held + outcomes):
                recorder.record_submit(
                    request_id, fingerprint="0" * 64, backend="wse",
                    label="profile",
                )
                start = time.perf_counter()
                recorder.record_outcome(request_id, outcome="ok")
                if request_id >= held:
                    elapsed.append((time.perf_counter() - start) * 1e3)
        q1, med, q3 = np.percentile(elapsed, [25, 50, 75])
        print(f"  {f'after {held} requests':<24} {med:.3f} [{q1:.3f}-{q3:.3f}]")


#: One fresh interpreter's footprint, printed as one JSON object:
#: ``import repro`` (wall ms, peak RSS), then small solves of a 4x4x4
#: lognormal reservoir (the default call on each backend, and the event
#: and sharded wse engines) and a three-step fused mg simulation of an
#: 8x8x2 transient injection, with the peak RSS after them, the loaded
#: modules per top-level package and every loaded module under
#: ``OFF_PATH``: SciPy's iterative solvers and LAPACK wrappers, the
#: performance models and the serving tier (``repro.serve``,
#: ``repro.net`` and the ``asyncio`` they run on), which no solve runs.
#: ``tests/test_packaging.py`` asserts that list is empty.
FOOTPRINT_CHILD = """
import json, sys, time


def peak_mib():
    # This address space's own peak (VmHWM): ru_maxrss also carries over
    # the peak of the process that started this one.
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return float("nan")


start = time.perf_counter()
import repro
import_ms = (time.perf_counter() - start) * 1e3
import_mib = peak_mib()

problem = repro.scenario("lognormal_reservoir", nx=4, ny=4, nz=4).build()
repro.solve(problem)
repro.solve(problem, backend="gpu")
repro.solve(problem, backend="wse")
repro.solve(problem, backend="wse", engine="event")
repro.solve(problem, backend="wse", engine="sharded", shard_shape=(2, 2))
repro.simulate(
    repro.scenario("transient_injection", nx=8, ny=8, nz=2).build(),
    backend="wse", engine="fused", preconditioner="mg", n_steps=3, dt=1.0,
)

OFF_PATH = (
    "scipy.sparse.linalg", "scipy.linalg", "repro.perf",
    "asyncio", "repro.serve", "repro.net",
)
print(json.dumps({
    "import_ms": import_ms,
    "import_rss_mib": import_mib,
    "solved_rss_mib": peak_mib(),
    "modules": {
        top: sum(name.partition(".")[0] == top for name in sys.modules)
        for top in ("numpy", "scipy", "repro")
    },
    "off_path": sorted(
        name for name in sys.modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in OFF_PATH)
    ),
}))
"""


def run_footprint_child() -> dict:
    """Run :data:`FOOTPRINT_CHILD` in a fresh interpreter on the ``src``
    tree this process imported ``repro`` from, and return its record."""
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_CHILD],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout)


def run_footprint_profile(runs: int = 3) -> None:
    """Medians of :data:`FOOTPRINT_CHILD` over ``runs`` fresh
    interpreters (``--profile``): whatever ``import repro`` loads, every
    process that solves pays for, in import time and resident memory."""
    import numpy as np

    records = [run_footprint_child() for _ in range(runs)]

    def median(read):
        return float(np.median([read(record) for record in records]))

    cache = "off" if sys.dont_write_bytecode else "on"
    print(f"\nprofile: footprint, median of {runs} fresh interpreters "
          f"(bytecode cache writes {cache})")
    print(f"  {'import repro':<20} {median(lambda r: r['import_ms']):7.0f} ms "
          f"{median(lambda r: r['import_rss_mib']):7.1f} MiB peak RSS")
    print(f"  {'after the solves':<20} {'':>10} "
          f"{median(lambda r: r['solved_rss_mib']):7.1f} MiB peak RSS")
    print(f"  {'loaded modules':<20} " + "  ".join(
        f"{top} {median(lambda r: r['modules'][top]):.0f}"
        for top in ("numpy", "scipy", "repro")
    ))
    print(f"  {'off the solve path':<20} "
          f"{median(lambda r: len(r['off_path'])):.0f} modules "
          f"(scipy.sparse.linalg, scipy.linalg, repro.perf, asyncio, "
          f"repro.serve, repro.net)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_session.json")
    parser.add_argument("--profile", action="store_true",
                        help="print the per-phase host-time breakdown "
                             "(stage/apply/dot/charge; vectorized, fused "
                             "and narrow-tile fused), the mg V-cycle's "
                             "per-level parts, a store save at 10 and 800 "
                             "records, a run-record outcome after 10 and "
                             "1,000 requests and the footprint of fresh "
                             "interpreters, and exit without running the "
                             "benches")
    args = parser.parse_args(argv)

    if args.profile:
        run_profile()
        run_vcycle_profile()
        run_store_profile()
        run_records_profile()
        run_footprint_profile()
        return 0

    rows = build_targets()
    # The engine-comparison pair is a controlled measurement: its
    # host_seconds become the recorded speedup, so it must not share the
    # interpreter with concurrently running entries (the pure-Python
    # event engine is GIL-bound and would absorb the pool's contention).
    # It runs in its own serial plan; everything else fans out.
    compare_idx = [i for i, row in enumerate(rows)
                   if row[0].startswith("engine_compare")]
    other_idx = [i for i in range(len(rows)) if i not in compare_idx]

    session = repro.Session()
    plan = session.plan(
        [(rows[i][1], rows[i][2], rows[i][3]) for i in other_idx]
    )
    compare_plan = session.plan(
        [(rows[i][1], rows[i][2], rows[i][3]) for i in compare_idx]
    )
    print(f"plan: {len(plan)} + {len(compare_plan)} serial comparison entries")
    for index, label, backend, fp, _steps in plan.describe():
        print(f"  [{index}] {rows[other_idx[index]][0]:<26} {backend:<9} {label}  ({fp})")
    for index, label, backend, fp, _steps in compare_plan.describe():
        print(f"  [serial {index}] {rows[compare_idx[index]][0]:<19} "
              f"{backend:<9} {label}  ({fp})")

    start = time.perf_counter()
    results_by_row: dict[int, object] = dict(zip(
        other_idx, plan.run(executor="thread")
    ))
    results_by_row.update(zip(compare_idx, compare_plan.run(executor="serial")))
    results = [results_by_row[i] for i in range(len(rows))]

    records = []
    failures = 0
    for (table, _target, spec, _backend), er in zip(rows, results):
        fixed = spec.machine.fixed_iterations
        # Record the engine that actually ran (the backend reports it in
        # telemetry; rows that never ran fall back to the requested knob).
        engine = spec.machine.engine
        if er.ok:
            engine = er.result.telemetry.get("engine", engine)
        record = {
            "table": table,
            "scenario": er.entry.label,
            "backend": er.entry.backend,
            "engine": engine,
            "fingerprint": er.entry.fingerprint,
            # Truncated-by-design rows (the Table IV methodology) must not
            # read as convergence failures: record how the run terminates.
            "mode": "fixed_iterations" if fixed is not None else "to_convergence",
            "fixed_iterations": fixed,
        }
        if er.ok:
            record.update(
                iterations=er.result.iterations,
                converged=bool(er.result.converged),
                elapsed_seconds=er.result.elapsed_seconds,
                time_kind=er.result.telemetry.get("time_kind"),
                host_seconds=er.elapsed_seconds,
            )
        else:
            failures += 1
            record["error"] = f"{type(er.error).__name__}: {er.error}"
        records.append(record)

    by_table = {r["table"]: r for r in records}
    ev = by_table.get("engine_compare_event", {})
    vec = by_table.get("engine_compare_vectorized", {})
    if ev.get("host_seconds") and vec.get("host_seconds"):
        speedup = ev["host_seconds"] / vec["host_seconds"]
        print(f"\nengine comparison ({ev['scenario']}): "
              f"event {ev['host_seconds']:.3f}s vs vectorized "
              f"{vec['host_seconds']:.3f}s -> {speedup:.1f}x")

    # Preconditioner rows: CG iterations at equal residual, none vs
    # jacobi vs multigrid on the heterogeneous geomodels.
    print("\npreconditioner iteration reduction (equal residual):")
    records.extend(run_precond_iterations())
    wall = time.perf_counter() - start

    payload = {
        "schema": "repro.bench_session/9",
        "wall_seconds": wall,
        "results": records,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out} ({len(records)} records, "
          f"{failures} failures, {wall:.1f}s wall)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
