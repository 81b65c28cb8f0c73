"""Run the Table III/IV/V simulator benchmarks through one Session.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py [--smoke] [--out PATH]

Builds a single :class:`repro.Session` plan covering the simulator-scale
workloads behind the paper's weak-scaling (Table III), time-distribution
(Table IV) and instruction-count (Table V) studies plus a reference-
backend baseline, executes it with per-entry error capture, and writes a
machine-readable ``BENCH_session.json`` at the repo root — the perf
baseline future PRs diff against (see ``benchmarks/diff_bench.py``).

The vectorized fabric engine adds the paper-scale rows the event engine
cannot reach: Table III weak scaling extended to 128×128-PE fabrics, an
event-vs-vectorized engine comparison on the largest fabric both can
run, and a full-fabric 750×994 smoke row.

``batched_throughput`` rows measure Table-III-style weak-scaling
*throughput* (problems/sec): the same scenario family solved serially on
the vectorized engine (batch=1, the baseline) and as the lanes of one
batched program (batch=8/64) at 16×16 and 128×128 fabrics.
``speedup_vs_serial`` records what batching saves per problem (shared
charge packets and set-up; every lane still runs its own passes).

``transient_throughput`` rows measure the ``simulate()`` time-stepping
path: warm- vs. cold-started CG on one realization (the ``warm`` row
records the measured ``iteration_reduction_vs_cold``) and batched
transient lanes at batch=1/8/64 (steps/sec and ``speedup_vs_serial``).

``service_throughput`` rows measure the serving tier
(:mod:`repro.serve`): a ``SolveService`` fan-out of many concurrent
requests over few distinct specs (requests/sec, ``cache_hit_ratio``,
solves actually executed, fused launches) and a streamed transient
solve through ``SolveService.stream`` (steps/sec).

``sharded_throughput`` rows measure the domain-sharded engine against
the cache-bound ceiling the batched rows exposed at 128×128: the same
problem family solved serially on the single-worker vectorized engine
(the baseline) and on ``engine="sharded"`` at 1/2/4 shards (thread
crew).  The multi-shard ``speedup_vs_serial`` is the scale proof for
sharded execution — shard subgrids fit cache and sweep concurrently.

``fused_throughput`` rows (schema ``repro.bench_session/7``) measure
the fused cache-blocked hot-loop engine (``engine="fused"``) against
the same serial-vectorized baseline, interleaved per problem like the
sharded rows: a tile sweep (auto slab, an explicit slab, a narrow
staged tile) at 16×16 and 128×128.  Each fused row also records the
oracle-parity booleans (``counters_match_serial`` etc. — the charge
model is shared, so counters/trace/memory must be *exactly* the
vectorized engine's) and the counter scalars (``flops``,
``fabric_bytes``) that ``diff_bench.py`` gates on.  Both sides run the
same kernel (the vectorized layout is one whole-grid tile), so the
128×128 auto row's ``speedup_vs_serial`` measures cache blocking alone.

``gateway_throughput`` rows (schema ``repro.bench_session/9``) measure
the network tier (:mod:`repro.net`): the same fan-out as
``service_throughput`` but over real HTTP — concurrent
``GatewayClient`` threads POSTing ``/v1/solve`` against a live
``Gateway`` (requests/sec, executed solves, ``cache_hit_ratio``) — plus
one transient streamed over the WebSocket (steps/sec including wire
framing).  The deltas against the ``service_throughput`` rows are the
protocol overhead, isolated.

``precond_iterations`` rows (schema ``repro.bench_session/8``) record
CG iteration counts at equal residual on the heterogeneous geomodel
scenarios (lognormal, channelized) for ``preconditioner`` none / jacobi
/ mg on the vectorized engine.  The mg rows'
``iteration_reduction_vs_none`` is the multigrid scale proof (expected
≥ 5×); iteration counts and the ``preconditioner`` field are
deterministic and gated by ``diff_bench.py``.

``--profile`` prints a per-phase host-time breakdown of the CG
driver's kernel passes for the vectorized (one whole-grid tile), fused
(auto tiles) and narrow-tile fused (square tiles of a quarter of the
grid side, staged through contiguous scratch) layouts — warm medians
with IQR over interleaved repeats — instead of running the benches.

Every row records its convergence *mode*: Table III/IV/V rows run under
``fixed_iterations`` (truncated by design, the paper's Table IV
methodology), so their ``converged: false`` is expected — the ``mode``
and ``fixed_iterations`` fields keep them distinguishable from actual
convergence failures.

``--smoke`` shrinks every grid/iteration count for CI; the JSON schema is
identical.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro.scenarios import weak_scaling_family  # noqa: E402
from repro.wse.specs import WSE2  # noqa: E402


def build_targets(smoke: bool) -> list[tuple]:
    """(table, target, spec, backend) rows for the session plan."""
    fabric = WSE2.with_fabric(32, 32)
    if smoke:
        laterals, nz, iters = (3, 4), 3, 2
        t4_grid, t4_iters = dict(nx=4, ny=4, nz=4), 3
        t5_grid, t5_iters = dict(nx=3, ny=3, nz=4), 2
        vector_laterals = (16, 32)
        compare_lateral = 8
        full_fabric = dict(nx=128, ny=128, nz=2)
    else:
        laterals, nz, iters = (3, 5, 8), 6, 4
        t4_grid, t4_iters = dict(nx=6, ny=6, nz=8), 8
        t5_grid, t5_iters = dict(nx=4, ny=4, nz=8), 3
        # Starts above compare_lateral so the sweep and the comparison
        # pair never duplicate a (scenario, spec) fingerprint.
        vector_laterals = (32, 64, 128)
        compare_lateral = 16
        full_fabric = dict(nx=750, ny=994, nz=2)

    wse = repro.SolveSpec.from_kwargs(spec=fabric, dtype="float32")
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


def run_batched_throughput(smoke: bool) -> list[dict]:
    """Timed outside the session plan: each row is one execution
    strategy (serial vectorized vs. fused batches) over one problem
    family, so ``problems_per_sec`` is a clean host-side throughput."""
    if smoke:
        cases = [(8, 2, 3, 8, (1, 4, 8))]
    else:
        # 24 fixed steps approximates a real CG solve's iteration weight
        # (converged 16x16 runs take hundreds); at 16x16 the per-solve
        # Python overhead dominates and fusing wins, at 128x128 the
        # per-problem working set no longer fits in cache and serial
        # cache reuse wins -- both regimes are recorded.
        cases = [(16, 4, 24, 64, (1, 8, 64)), (128, 4, 24, 64, (1, 8, 64))]

    records = []
    for lateral, nz, iters, count, batches in cases:
        # Independent problems: same grid family, per-problem fields.
        problems = [
            repro.scenario(
                "quarter_five_spot", nx=lateral, ny=lateral, nz=nz,
                permeability=float(40 + 7 * i),
            ).build()
            for i in range(count)
        ]
        base = repro.SolveSpec.from_kwargs(
            spec=WSE2.with_fabric(max(32, lateral), max(32, lateral)),
            dtype="float32", engine="vectorized", fixed_iterations=iters,
        )
        serial_pps = None
        for batch in batches:
            start = time.perf_counter()
            if batch == 1:  # the serial-vectorized baseline, one solve per entry
                results = repro.solve_many(
                    problems, backend="wse", spec=base, n_workers=1
                )
            else:
                results = repro.solve_many(
                    problems, backend="wse",
                    spec=base.with_options(batch_size=batch), batch=True,
                )
            host = time.perf_counter() - start
            pps = count / host
            if serial_pps is None:
                serial_pps = pps
            records.append({
                "table": "batched_throughput",
                # batch is part of the row identity (diff_bench keys on
                # table+scenario, and each batch size is its own rung).
                "scenario": f"quarter_five_spot[{lateral}x{lateral}x{nz}] "
                            f"x{count} batch={batch}",
                "backend": "wse",
                "engine": results[0].telemetry.get("engine"),
                "mode": "fixed_iterations",
                "fixed_iterations": iters,
                "fabric": f"{lateral}x{lateral}",
                "batch": batch,
                "problems": count,
                "iterations": results[0].iterations,
                "converged": all(bool(r.converged) for r in results),
                "time_kind": "host",
                "host_seconds": host,
                "problems_per_sec": pps,
                "speedup_vs_serial": pps / serial_pps,
            })
            print(f"  batched_throughput {lateral:>3}x{lateral} batch={batch:<3} "
                  f"{count} problems in {host:.3f}s -> {pps:,.1f} problems/s "
                  f"({pps / serial_pps:.1f}x serial)")
    return records


def run_sharded_throughput(smoke: bool) -> list[dict]:
    """Sharded-engine throughput rows against the serial baseline.

    Sharding attacks the 128×128 cache ceiling by splitting the grid —
    each shard's subgrid fits cache and the thread crew sweeps shards
    concurrently (NumPy releases the GIL).  Rows: the single-worker
    vectorized baseline, then 1/2/4 shards.  The 1-shard row isolates
    the coordinator's round-dispatch overhead; the multi-shard rows are
    the win.

    Host timings on shared runners drift minute-to-minute — on the same
    scale as the sharding win itself — so the configurations are
    interleaved *per problem*: every problem is solved once by every
    config back-to-back (rotating which config goes first) before the
    next problem starts.  Adjacent solves land ~tens of milliseconds
    apart, inside the same drift window, so total host time is a fair
    throughput comparison and ``speedup_vs_serial`` — the median of the
    per-problem paired ratios against the serial rung — cancels what
    little drift remains.
    """
    if smoke:
        cases = [(16, 2, 6, 8, ((1, 1), (2, 1)))]
    else:
        # Same workload as the 128x128 batched rows so the two tables
        # share a serial baseline rung (~21-22 problems/sec committed).
        cases = [(128, 4, 24, 64, ((1, 1), (2, 1), (2, 2)))]

    records = []
    for lateral, nz, iters, count, shapes in cases:
        problems = [
            repro.scenario(
                "quarter_five_spot", nx=lateral, ny=lateral, nz=nz,
                permeability=float(40 + 7 * i),
            ).build()
            for i in range(count)
        ]
        base = repro.SolveSpec.from_kwargs(
            spec=WSE2.with_fabric(max(32, lateral), max(32, lateral)),
            dtype="float32", engine="vectorized", fixed_iterations=iters,
        )
        configs = []
        for shape in (None, *shapes):  # None = the vectorized baseline
            if shape is None:
                spec, label = base, "serial"
            else:
                spec = base.with_options(engine="sharded", shard_shape=shape)
                label = f"shards={shape[0]}x{shape[1]}"
            configs.append({
                "shape": shape, "spec": spec, "label": label,
                "solve_seconds": [], "last": None, "converged": True,
            })
        # Warm each config once (first solve pays buffer/pool setup and
        # allocator warm-up that steady-state throughput never sees).
        for cfg in configs:
            repro.solve(problems[0], backend="wse", spec=cfg["spec"])
        for i, problem in enumerate(problems):
            # Rotate which config goes first: host throughput drifts
            # even within a burst, so a fixed order would systematically
            # favour whoever runs first.
            for j in range(len(configs)):
                cfg = configs[(i + j) % len(configs)]
                start = time.perf_counter()
                result = repro.solve(problem, backend="wse", spec=cfg["spec"])
                cfg["solve_seconds"].append(time.perf_counter() - start)
                cfg["last"] = result
                cfg["converged"] &= bool(result.converged)
        def median(values):
            ordered = sorted(values)
            mid = len(ordered) // 2
            if len(ordered) % 2:
                return ordered[mid]
            return 0.5 * (ordered[mid - 1] + ordered[mid])

        serial_solves = configs[0]["solve_seconds"]
        for cfg in configs:
            shape, label, last = cfg["shape"], cfg["label"], cfg["last"]
            host = sum(cfg["solve_seconds"])
            pps = count / host
            speedup = median([
                s / t for s, t in zip(serial_solves, cfg["solve_seconds"])
            ])
            records.append({
                "table": "sharded_throughput",
                "scenario": f"quarter_five_spot[{lateral}x{lateral}x{nz}] "
                            f"x{count} {label}",
                "backend": "wse",
                "engine": last.telemetry.get("engine"),
                "mode": "fixed_iterations",
                "fixed_iterations": iters,
                "fabric": f"{lateral}x{lateral}",
                "shard_shape": None if shape is None else list(shape),
                "shard_workers": None if shape is None
                else last.telemetry["shard"]["workers"],
                "host_cpus": os.cpu_count(),
                "problems": count,
                "interleave": "per_problem",
                "median_solve_seconds": median(cfg["solve_seconds"]),
                "iterations": last.iterations,
                "converged": cfg["converged"],
                "time_kind": "host",
                "host_seconds": host,
                "problems_per_sec": pps,
                "speedup_vs_serial": speedup,
            })
            print(f"  sharded_throughput {lateral:>3}x{lateral} {label:<11} "
                  f"{count} problems interleaved, median "
                  f"{median(cfg['solve_seconds']) * 1e3:.1f}ms/solve -> "
                  f"{pps:,.1f} problems/s ({speedup:.2f}x serial)")
    return records


def run_fused_throughput(smoke: bool) -> list[dict]:
    """Fused hot-loop engine throughput rows against the serial baseline.

    The fused layout attacks the 128×128 cache ceiling *within* one
    problem — each CG phase runs as a single pass per tile, so a tile's
    working set stays cache-resident across the phase's operations,
    where the vectorized layout's one whole-grid tile streams the grid
    once per numpy op.  Rows: the serial-vectorized baseline, the
    auto-picked slab tile, one explicit slab and one narrow tile (staged
    through contiguous scratch into the same apply).  Timing is interleaved per
    problem with a rotating lead config, exactly like the sharded rows,
    and ``speedup_vs_serial`` is the median of the per-problem paired
    ratios.

    Fusion reorders host arithmetic only — the charge model is shared
    with the vectorized engine — so every fused row carries parity
    booleans (counters/trace/memory exactly equal, pressure within fp
    round-off) against the serial rung's solve of the same problem.
    ``diff_bench.py`` gates on those booleans and on the recorded
    ``flops``/``fabric_bytes``.
    """
    if smoke:
        cases = [(8, 2, 3, 8, (None, (4, 8), (3, 3)))]
    else:
        # Same workload as the 128x128 batched/sharded rows so all three
        # tables share a serial baseline rung; the 16x16 case shows the
        # small-grid regime where Python overhead, not cache, dominates.
        cases = [
            (16, 4, 24, 64, (None, (8, 16), (8, 8))),
            (128, 4, 24, 64, (None, (32, 128), (16, 16))),
        ]

    records = []
    for lateral, nz, iters, count, tiles in cases:
        problems = [
            repro.scenario(
                "quarter_five_spot", nx=lateral, ny=lateral, nz=nz,
                permeability=float(40 + 7 * i),
            ).build()
            for i in range(count)
        ]
        base = repro.SolveSpec.from_kwargs(
            spec=WSE2.with_fabric(max(32, lateral), max(32, lateral)),
            dtype="float32", engine="vectorized", fixed_iterations=iters,
        )
        configs = [{
            "tile": "serial", "spec": base, "label": "serial",
            "solve_seconds": [], "last": None, "converged": True,
        }]
        for tile in tiles:
            label = "fused auto" if tile is None \
                else f"fused {tile[0]}x{tile[1]}"
            configs.append({
                "tile": tile, "label": label,
                "spec": base.with_options(engine="fused", fused_tile=tile),
                "solve_seconds": [], "last": None, "converged": True,
            })
        for cfg in configs:  # warm-up: first solve pays allocator setup
            repro.solve(problems[0], backend="wse", spec=cfg["spec"])
        for i, problem in enumerate(problems):
            for j in range(len(configs)):
                cfg = configs[(i + j) % len(configs)]
                start = time.perf_counter()
                result = repro.solve(problem, backend="wse", spec=cfg["spec"])
                cfg["solve_seconds"].append(time.perf_counter() - start)
                cfg["last"] = result
                cfg["converged"] &= bool(result.converged)

        def median(values):
            ordered = sorted(values)
            mid = len(ordered) // 2
            if len(ordered) % 2:
                return ordered[mid]
            return 0.5 * (ordered[mid - 1] + ordered[mid])

        import numpy as np

        serial_cfg = configs[0]
        serial = serial_cfg["last"]  # every config ends on problems[-1]
        for cfg in configs:
            last = cfg["last"]
            host = sum(cfg["solve_seconds"])
            pps = count / host
            speedup = median([
                s / t for s, t in
                zip(serial_cfg["solve_seconds"], cfg["solve_seconds"])
            ])
            counters = last.telemetry["counters"]
            fused = last.telemetry.get("fused")
            record = {
                "table": "fused_throughput",
                "scenario": f"quarter_five_spot[{lateral}x{lateral}x{nz}] "
                            f"x{count} {cfg['label']}",
                "backend": "wse",
                "engine": last.telemetry.get("engine"),
                "mode": "fixed_iterations",
                "fixed_iterations": iters,
                "fabric": f"{lateral}x{lateral}",
                "fused_tile": None if fused is None else fused["tile"],
                "tiles_per_iteration": None if fused is None else fused["tiles"],
                "host_cpus": os.cpu_count(),
                "problems": count,
                "interleave": "per_problem",
                "median_solve_seconds": median(cfg["solve_seconds"]),
                "iterations": last.iterations,
                "converged": cfg["converged"],
                # Counter scalars + oracle-parity booleans: deterministic
                # (unlike host timings), so diff_bench gates on them.
                "flops": counters["flops"],
                "fabric_bytes": counters["fabric_bytes"],
                "time_kind": "host",
                "host_seconds": host,
                "problems_per_sec": pps,
                "speedup_vs_serial": speedup,
            }
            if cfg is not serial_cfg:
                record.update(
                    counters_match_serial=(counters == serial.telemetry["counters"]),
                    trace_match_serial=(
                        last.telemetry["trace"] == serial.telemetry["trace"]
                    ),
                    memory_match_serial=(
                        last.telemetry["memory"] == serial.telemetry["memory"]
                    ),
                    pressure_close_serial=bool(np.allclose(
                        last.pressure, serial.pressure, rtol=1e-5, atol=1e-8
                    )),
                )
            records.append(record)
            parity = "" if cfg is serial_cfg else (
                " parity=ok" if record["counters_match_serial"]
                and record["trace_match_serial"]
                and record["memory_match_serial"]
                and record["pressure_close_serial"] else " parity=BROKEN"
            )
            print(f"  fused_throughput {lateral:>3}x{lateral} "
                  f"{cfg['label']:<12} {count} problems interleaved, median "
                  f"{median(cfg['solve_seconds']) * 1e3:.1f}ms/solve -> "
                  f"{pps:,.1f} problems/s ({speedup:.2f}x serial){parity}")
    return records


def run_precond_iterations(smoke: bool) -> list[dict]:
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
    if smoke:
        cases = [("lognormal_reservoir", dict(nx=10, ny=10, nz=3)),
                 ("channelized_reservoir", dict(nx=10, ny=10, nz=3))]
    else:
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


def run_profile(smoke: bool) -> None:
    """Per-phase host time of the CG driver's kernel passes (``--profile``).

    ``"vectorized"`` and ``"fused"`` are layouts of one driver over one
    kernel — a whole-grid tile, auto-picked slabs, and narrow tiles of
    ``lateral // 4`` square (the staged-tile case, whose copy into and
    out of contiguous scratch shows in ``body_pass``) — so every column
    times the same calls: staging (``create_engine``), the three passes
    of a plain CG iteration, the per-lane charge composition, and a
    whole fixed-iteration run per iteration.  Every repeat times each
    phase once per layout, rotating which layout goes first; the first
    repeat is a discarded warm-up, and each cell is the median with its
    interquartile range.
    """
    import numpy as np

    from repro.core.solver import WseMatrixFreeSolver
    from repro.solvers.state_machine import CGState

    lateral, nz, iters, reps = (16, 2, 8, 21) if smoke else (128, 4, 24, 41)
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


def run_transient_throughput(smoke: bool) -> list[dict]:
    """Transient (time-stepping) throughput rows.

    Two families, all on the vectorized fabric engine:

    * warm vs. cold CG starts on one realization — the ``warm`` row
      records ``iteration_reduction_vs_cold`` (total cold CG iterations
      over total warm), the measured payoff of carrying each step's
      pressure into the next step's CG;
    * batched lanes — ``count`` same-shape realizations time-stepped
      together as batched programs of batch=1/8/64 lanes, recording
      steps/sec (``count × n_steps / host_seconds``) and
      ``speedup_vs_serial``.
    """
    if smoke:
        lateral, nz, n_steps, count, batches = 8, 2, 3, 8, (1, 4, 8)
    else:
        lateral, nz, n_steps, count, batches = 16, 4, 12, 64, (1, 8, 64)

    base = repro.SolveSpec.from_kwargs(
        spec=WSE2.with_fabric(max(32, lateral), max(32, lateral)),
        dtype="float32", engine="vectorized", rel_tol=1e-6, max_iters=4000,
        n_steps=n_steps, dt=2.0, total_compressibility=5e-3,
    )
    scenario_label = f"transient[{lateral}x{lateral}x{nz}]"
    records = []

    # -- warm vs cold (single realization) -----------------------------------
    problem = repro.scenario(
        "quarter_five_spot", nx=lateral, ny=lateral, nz=nz, permeability=40.0,
    ).build()
    totals = {}
    for mode, warm in (("cold", False), ("warm", True)):
        spec = base.with_options(warm_start=warm)
        start = time.perf_counter()
        sim = repro.simulate(problem, spec=spec, backend="wse")
        host = time.perf_counter() - start
        totals[mode] = sim.total_iterations
        record = {
            "table": "transient_throughput",
            "scenario": f"{scenario_label} {mode}_start",
            "backend": "wse",
            "engine": "vectorized",
            "mode": "to_convergence",
            "fixed_iterations": None,
            "n_steps": n_steps,
            "warm_start": warm,
            "iterations": sim.total_iterations,
            "converged": bool(sim.converged),
            "time_kind": "host",
            "host_seconds": host,
            "steps_per_sec": n_steps / host,
        }
        if mode == "warm":
            record["iteration_reduction_vs_cold"] = (
                totals["cold"] / max(totals["warm"], 1)
            )
        records.append(record)
        print(f"  transient_throughput {mode}_start: "
              f"{sim.total_iterations} CG iters over {n_steps} steps "
              f"in {host:.3f}s host")
    print(f"  warm-start iteration reduction: "
          f"{totals['cold'] / max(totals['warm'], 1):.2f}x")

    # -- batched lanes --------------------------------------------------------
    problems = [
        repro.scenario(
            "quarter_five_spot", nx=lateral, ny=lateral, nz=nz,
            permeability=float(40 + 7 * i),
        ).build()
        for i in range(count)
    ]
    serial_sps = None
    for batch in batches:
        start = time.perf_counter()
        if batch == 1:  # one simulate() per realization — the serial baseline
            sims = repro.simulate_many(problems, backend="wse", spec=base)
        else:
            sims = repro.simulate_many(
                problems, backend="wse",
                spec=base.with_options(batch_size=batch), batch=True,
            )
        host = time.perf_counter() - start
        sps = count * n_steps / host
        if serial_sps is None:
            serial_sps = sps
        records.append({
            "table": "transient_throughput",
            "scenario": f"{scenario_label} x{count} batch={batch}",
            "backend": "wse",
            "engine": sims[0].telemetry.get("engine"),
            "mode": "to_convergence",
            "fixed_iterations": None,
            "n_steps": n_steps,
            "batch": batch,
            "problems": count,
            "iterations": sims[0].total_iterations,
            "converged": all(bool(s.converged) for s in sims),
            "time_kind": "host",
            "host_seconds": host,
            "steps_per_sec": sps,
            "speedup_vs_serial": sps / serial_sps,
        })
        print(f"  transient_throughput batch={batch:<3} {count} realizations "
              f"x {n_steps} steps in {host:.3f}s -> {sps:,.1f} steps/s "
              f"({sps / serial_sps:.1f}x serial)")
    return records


def run_service_throughput(smoke: bool) -> list[dict]:
    """Serving-tier rows: what the SolveService front door sustains.

    * ``fanout`` — ``requests`` concurrent submissions over ``distinct``
      specs (same backend / spec / shape, so admission fuses the distinct
      ones).  Records requests/sec, the run-record ``cache_hit_ratio``
      (dedup + cache over all finished requests), solves actually
      executed and fused launches.
    * ``stream`` — one transient request streamed step by step through
      ``SolveService.stream`` (steps/sec including per-step persistence
      into the service store is a different measurement than the raw
      ``simulate()`` rows above; here the store is off, so the row is the
      pure bridge overhead).
    """
    import asyncio
    import tempfile

    from repro.serve import SolveService

    if smoke:
        lateral, nz, requests, distinct, n_steps = 8, 2, 40, 8, 3
    else:
        lateral, nz, requests, distinct, n_steps = 16, 4, 200, 16, 12

    base = repro.SolveSpec.from_kwargs(
        spec=WSE2.with_fabric(max(32, lateral), max(32, lateral)),
        dtype="float32", engine="vectorized", rel_tol=1e-6, max_iters=4000,
    )
    scenarios = [
        repro.scenario(
            "quarter_five_spot", nx=lateral, ny=lateral, nz=nz,
            permeability=float(40 + 7 * i),
        )
        for i in range(distinct)
    ]
    records = []

    async def fanout():
        with tempfile.TemporaryDirectory() as records_root:
            async with SolveService(
                records=records_root, admission_window=0.02
            ) as service:
                start = time.perf_counter()
                futures = [
                    service.submit(
                        scenarios[i % distinct], backend="wse", spec=base
                    )
                    for i in range(requests)
                ]
                await asyncio.gather(*futures)
                host = time.perf_counter() - start
                return host, service.stats()

    host, stats = asyncio.run(fanout())
    rps = requests / host
    records.append({
        "table": "service_throughput",
        "scenario": f"serve[{lateral}x{lateral}x{nz}] "
                    f"x{requests} distinct={distinct}",
        "backend": "wse",
        "engine": "vectorized",
        "mode": "to_convergence",
        "fixed_iterations": None,
        "requests": requests,
        "distinct_specs": distinct,
        "executed": stats["executed"],
        "batched_launches": stats["batched_launches"],
        "dedup_hits": stats["dedup_hits"],
        "cache_hit_ratio": stats["cache_hit_ratio"],
        "converged": stats["failed"] == 0,
        "time_kind": "host",
        "host_seconds": host,
        "requests_per_sec": rps,
    })
    print(f"  service_throughput fanout: {requests} requests "
          f"({distinct} distinct) in {host:.3f}s -> {rps:,.1f} req/s, "
          f"{stats['executed']} solves, hit ratio "
          f"{stats['cache_hit_ratio']:.2f}")

    transient = base.with_options(
        n_steps=n_steps, dt=2.0, total_compressibility=5e-3,
    )

    async def stream_one():
        async with SolveService() as service:
            start = time.perf_counter()
            steps = [
                s async for s in service.stream(
                    scenarios[0], backend="wse", spec=transient
                )
            ]
            return time.perf_counter() - start, steps

    host, steps = asyncio.run(stream_one())
    sps = len(steps) / host
    records.append({
        "table": "service_throughput",
        "scenario": f"serve[{lateral}x{lateral}x{nz}] stream "
                    f"n_steps={n_steps}",
        "backend": "wse",
        "engine": "vectorized",
        "mode": "to_convergence",
        "fixed_iterations": None,
        "n_steps": n_steps,
        "converged": all(bool(s.converged) for s in steps),
        "time_kind": "host",
        "host_seconds": host,
        "steps_per_sec": sps,
    })
    print(f"  service_throughput stream: {len(steps)} steps in {host:.3f}s "
          f"-> {sps:,.1f} steps/s")
    return records


def run_gateway_throughput(smoke: bool) -> list[dict]:
    """Network-tier rows: the same workload as ``service_throughput``,
    but through a live :class:`repro.net.Gateway` over localhost TCP.

    * ``fanout`` — worker threads, each with its own keep-alive
      ``GatewayClient`` connection, POST ``requests`` solves over
      ``distinct`` specs to ``/v1/solve``.  The service underneath
      dedups/fuses exactly as in-process; the row measures what HTTP
      adds on top.
    * ``stream`` — one transient streamed over the WebSocket
      (handshake + per-step JSON text frames included in the timing).
    """
    import concurrent.futures
    import tempfile
    import threading

    from repro.net import GatewayClient
    from repro.net.server import serve_forever

    if smoke:
        lateral, nz, requests, distinct, n_steps = 8, 2, 40, 8, 3
        client_threads = 8
    else:
        lateral, nz, requests, distinct, n_steps = 16, 4, 200, 16, 12
        client_threads = 16

    base = repro.SolveSpec.from_kwargs(
        spec=WSE2.with_fabric(max(32, lateral), max(32, lateral)),
        dtype="float32", engine="vectorized", rel_tol=1e-6, max_iters=4000,
    )
    scenarios = [
        repro.scenario(
            "quarter_five_spot", nx=lateral, ny=lateral, nz=nz,
            permeability=float(40 + 7 * i),
        )
        for i in range(distinct)
    ]

    address: dict = {}
    listening = threading.Event()
    stop = threading.Event()
    final: dict = {}

    def on_ready(info: dict) -> None:
        address.update(info)
        listening.set()

    with tempfile.TemporaryDirectory() as records_root:
        def serve() -> None:
            final["stats"] = serve_forever(
                records=records_root, ready=on_ready, stop=stop,
                admission_window=0.02, run_id="bench-gateway",
            )

        server = threading.Thread(target=serve, name="bench-gateway")
        server.start()
        try:
            assert listening.wait(timeout=30), "gateway never came up"
            host, port = address["host"], address["port"]

            # One client, shared: its connections are per-thread, so
            # each pool worker keeps its own keep-alive socket.
            client = GatewayClient(host, port)

            def one_solve(index: int) -> bool:
                result = client.solve(
                    scenarios[index % distinct], backend="wse", spec=base
                )
                return bool(result.converged)

            start = time.perf_counter()
            with concurrent.futures.ThreadPoolExecutor(client_threads) as pool:
                converged = list(pool.map(one_solve, range(requests)))
            fanout_host = time.perf_counter() - start

            transient = base.with_options(
                n_steps=n_steps, dt=2.0, total_compressibility=5e-3,
            )
            stream_client = GatewayClient(host, port)
            start = time.perf_counter()
            steps = list(stream_client.stream(
                scenarios[0], backend="wse", spec=transient
            ))
            stream_host = time.perf_counter() - start
            stream_client.close()
        finally:
            stop.set()
            server.join(timeout=30)

    stats = final["stats"]
    rps = requests / fanout_host
    sps = len(steps) / stream_host
    records = [
        {
            "table": "gateway_throughput",
            "scenario": f"gateway[{lateral}x{lateral}x{nz}] "
                        f"x{requests} distinct={distinct}",
            "backend": "wse",
            "engine": "vectorized",
            "mode": "to_convergence",
            "fixed_iterations": None,
            "requests": requests,
            "distinct_specs": distinct,
            "executed": stats["executed"],
            "dedup_hits": stats["dedup_hits"],
            "cache_hit_ratio": stats["cache_hit_ratio"],
            "converged": all(converged) and stats["failed"] == 0,
            "time_kind": "host",
            "host_seconds": fanout_host,
            "requests_per_sec": rps,
        },
        {
            "table": "gateway_throughput",
            "scenario": f"gateway[{lateral}x{lateral}x{nz}] ws-stream "
                        f"n_steps={n_steps}",
            "backend": "wse",
            "engine": "vectorized",
            "mode": "to_convergence",
            "fixed_iterations": None,
            "n_steps": n_steps,
            "converged": all(bool(s.converged) for s in steps),
            "time_kind": "host",
            "host_seconds": stream_host,
            "steps_per_sec": sps,
        },
    ]
    print(f"  gateway_throughput fanout: {requests} HTTP requests "
          f"({distinct} distinct) in {fanout_host:.3f}s -> {rps:,.1f} req/s, "
          f"{stats['executed']} solves")
    print(f"  gateway_throughput stream: {len(steps)} WS steps in "
          f"{stream_host:.3f}s -> {sps:,.1f} steps/s")
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids/iteration counts (CI-sized)")
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_session.json")
    parser.add_argument("--executor", default="thread",
                        choices=("serial", "thread", "process"))
    parser.add_argument("--n-workers", type=int, default=None)
    parser.add_argument("--profile", action="store_true",
                        help="print the per-phase host-time breakdown "
                             "(stage/apply/dot/charge; vectorized, fused "
                             "and narrow-tile fused) and exit without "
                             "running the benches")
    args = parser.parse_args(argv)

    if args.profile:
        run_profile(args.smoke)
        return 0

    rows = build_targets(args.smoke)
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
    print(f"plan: {len(plan)} + {len(compare_plan)} serial comparison "
          f"entries ({'smoke' if args.smoke else 'full'})")
    for index, label, backend, fp, _steps in plan.describe():
        print(f"  [{index}] {rows[other_idx[index]][0]:<26} {backend:<9} {label}  ({fp})")
    for index, label, backend, fp, _steps in compare_plan.describe():
        print(f"  [serial {index}] {rows[compare_idx[index]][0]:<19} "
              f"{backend:<9} {label}  ({fp})")

    start = time.perf_counter()
    results_by_row: dict[int, object] = dict(zip(
        other_idx, plan.run(executor=args.executor, n_workers=args.n_workers)
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

    # Batched scale proof: serial vectorized vs fused batches, timed in
    # their own serial section (like the engine comparison, these are
    # controlled host-side measurements).
    print("\nbatched throughput (problems/sec):")
    batched_records = run_batched_throughput(args.smoke)
    records.extend(batched_records)

    # Transient rows: warm vs cold starts + batched time-stepping lanes
    # (controlled serial host-side measurements, like the above).
    print("\ntransient throughput (steps/sec):")
    records.extend(run_transient_throughput(args.smoke))

    # Serving-tier rows: SolveService fan-out + streamed transient.
    print("\nservice throughput (requests/sec):")
    records.extend(run_service_throughput(args.smoke))

    # Sharded-engine rows: domain decomposition vs the serial baseline.
    print("\nsharded throughput (problems/sec):")
    records.extend(run_sharded_throughput(args.smoke))

    # Fused-engine rows: cache-blocked hot loop vs the serial baseline.
    print("\nfused throughput (problems/sec):")
    records.extend(run_fused_throughput(args.smoke))

    # Preconditioner rows: CG iterations at equal residual, none vs
    # jacobi vs multigrid on the heterogeneous geomodels.
    print("\npreconditioner iteration reduction (equal residual):")
    records.extend(run_precond_iterations(args.smoke))

    # Network-tier rows: the service fan-out again, but over real HTTP
    # and WebSocket through a live gateway — the delta is the protocol.
    print("\ngateway throughput (requests/sec over HTTP):")
    records.extend(run_gateway_throughput(args.smoke))
    wall = time.perf_counter() - start

    payload = {
        "schema": "repro.bench_session/9",
        "smoke": args.smoke,
        "executor": args.executor,
        "wall_seconds": wall,
        "results": records,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out} ({len(records)} records, "
          f"{failures} failures, {wall:.1f}s wall)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
