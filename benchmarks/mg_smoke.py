"""CI smoke for the multigrid preconditioner: iterations drop, parity holds.

Usage::

    PYTHONPATH=src python benchmarks/mg_smoke.py

Runs ``preconditioner="mg"`` over the regimes the tentpole promises and
asserts the operational invariants:

* **iteration reduction** — on a lognormal-permeability case the
  MG-preconditioned CG converges to the *same* resolved tolerance as
  the unpreconditioned run in ≥ 5× fewer iterations (the paper-facing
  scale proof the ``precond_iterations`` bench rows record);
* **engine parity** — one fixed-iteration float32 MG program run on the
  event, vectorized, sharded and fused engines produces exactly equal
  counters, fabric trace, memory report and per-state visit counts
  (event idle cycles excepted — the oracle's idle bookkeeping is
  per-PE), with pressures within fp round-off: the V-cycle is charged
  through the same packet builders everywhere, so preconditioning must
  not unpin a single count;
* **working precision** — the V-cycle runs in the solve's ``dtype``:
  the float32 parity runs build float32 hierarchies (every level), the
  float64 front-door and simulation runs float64 ones, and the
  reference backend float64 ones;
* **telemetry shape** — every MG run surfaces the structured
  ``preconditioner={kind, levels, smoother_iters, omega, cycles,
  coarse_solve}`` record, with ``cycles == iterations + 1`` (one
  V-cycle seeds the solve, one per iteration);
* **cross-backend agreement** — the reference solver's MG path and the
  fabric engine's agree on the pressure field;
* **one hierarchy build per solve** — the front-door wse solve (with
  ``rel_tol`` set, so tolerance resolution and staging both need ``M``)
  and the reference solve each build exactly one V-cycle hierarchy,
  counted by wrapping ``repro.mg``'s two builders;
* **one hierarchy build per Δt** — a 3-step ``repro.simulate`` with
  ``dt=[1.0, 2.0, 2.0]`` builds exactly two hierarchies on the wse
  backend (fused engine) and on the reference backend: the two steps at
  Δt = 2 share one ``M``;
* **one engine build per Δt** — the same wse simulation builds exactly
  two engines, counted by wrapping ``repro.core.solver``'s
  ``create_engine`` and ``create_batched_engine``: the second step at
  Δt = 2 re-stages the first one's engine.

Exits non-zero on any violated invariant, so CI can gate on it.
"""

from __future__ import annotations

import contextlib
import pathlib
import sys

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
import repro.core.solver  # noqa: E402
import repro.mg  # noqa: E402
from repro.core.solver import WseMatrixFreeSolver  # noqa: E402
from repro.wse.specs import WSE2  # noqa: E402

SPEC = WSE2.with_fabric(16, 16)
GRID = dict(nx=10, ny=10, nz=3)
#: The tentpole's acceptance floor for CG-iteration reduction.
MIN_REDUCTION = 5.0


def _telemetry_ok(tele, iterations, failures, label):
    if not isinstance(tele, dict) or tele.get("kind") != "mg":
        failures.append(f"{label}: preconditioner telemetry not an mg "
                        f"record: {tele!r}")
        return
    levels = tele.get("levels")
    if not (isinstance(levels, list) and len(levels) >= 2
            and all(len(s) == 3 for s in levels)):
        failures.append(f"{label}: telemetry levels malformed: {levels!r}")
    if tele.get("cycles") != iterations + 1:
        failures.append(f"{label}: cycles {tele.get('cycles')} != "
                        f"iterations+1 ({iterations + 1})")
    if tele.get("coarse_solve") not in ("dense", "smooth"):
        failures.append(f"{label}: coarse_solve odd: "
                        f"{tele.get('coarse_solve')!r}")
    if not isinstance(tele.get("smoother_iters"), int):
        failures.append(f"{label}: smoother_iters missing")


@contextlib.contextmanager
def _calls(module, names, record):
    """Wrap ``module``'s functions ``names`` the way ``perfbench/tracing.py``
    hooks them and yield a list that gets ``record(args, result)`` per
    call.  Restored on exit."""
    calls: list[str] = []
    originals = {name: getattr(module, name) for name in names}

    def counting(original):
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(record(args, result))
            return result

        return counted

    for name, original in originals.items():
        setattr(module, name, counting(original))
    try:
        yield calls
    finally:
        for name, original in originals.items():
            setattr(module, name, original)


def _hierarchy_builds():
    """One entry per call to ``repro.mg``'s two hierarchy builders: the
    dtype names of the returned hierarchy's levels, ``/``-joined."""
    return _calls(
        repro.mg, ("build_hierarchy", "hierarchy_for_problem"),
        lambda args, hier: "/".join(sorted({lvl.op.dtype.name for lvl in hier.levels})),
    )


def _engine_builds():
    """One entry per call to ``repro.core.solver``'s two engine
    factories: the engine name."""
    return _calls(
        repro.core.solver, ("create_engine", "create_batched_engine"),
        lambda args, engine: args[0],
    )


def main() -> int:
    problem = repro.scenario("lognormal_reservoir", **GRID).build()
    failures: list[str] = []

    # -- iteration reduction at equal residual ---------------------------
    solve = dict(spec=SPEC, dtype=np.float32, rel_tol=1e-5, max_iters=20_000,
                 engine="vectorized")
    none = WseMatrixFreeSolver(problem, **solve).solve()
    mg = WseMatrixFreeSolver(problem, preconditioner="mg", **solve).solve()
    if not (none.converged and mg.converged):
        failures.append(f"convergence lost: none={none.converged} "
                        f"mg={mg.converged}")
    reduction = none.iterations / max(1, mg.iterations)
    if reduction < MIN_REDUCTION:
        failures.append(f"iteration reduction {reduction:.2f}x below the "
                        f"{MIN_REDUCTION}x floor "
                        f"({none.iterations} -> {mg.iterations})")
    if not np.allclose(mg.pressure, none.pressure, rtol=1e-4, atol=1e-6):
        failures.append("mg pressure drifts from the unpreconditioned solve")
    _telemetry_ok(mg.preconditioner, mg.iterations, failures, "vectorized")
    print(f"mg_smoke: lognormal[{GRID['nx']}x{GRID['ny']}x{GRID['nz']}] "
          f"none={none.iterations} mg={mg.iterations} iters "
          f"({reduction:.1f}x reduction, floor {MIN_REDUCTION:.0f}x)")

    # -- engine parity on one fixed-iteration MG program -----------------
    pinned = dict(spec=SPEC, dtype=np.float32, rel_tol=None,
                  fixed_iterations=6, preconditioner="mg")
    with _hierarchy_builds() as parity_builds:
        runs = {
            engine: WseMatrixFreeSolver(problem, engine=engine, **pinned).solve()
            for engine in ("event", "vectorized", "sharded", "fused")
        }
    oracle = runs["vectorized"]
    parity = {}
    for engine, report in runs.items():
        if engine == "vectorized":
            continue
        counters = report.counters.to_dict()
        oracle_counters = dict(oracle.counters.to_dict())
        trace = report.trace.to_dict()
        oracle_trace = dict(oracle.trace.to_dict())
        if engine == "event":
            # The per-PE oracle's idle/timing bookkeeping (idle cycles,
            # makespan, exposed comm) is modelled differently by the
            # flat engines; the parity pin (tests/test_engine_fuzz.py)
            # compares event-vs-vectorized on the work totals.
            for d in (counters, oracle_counters):
                d.pop("idle_cycles", None)
            totals = ("total_messages", "total_wavelets",
                      "total_hop_wavelets", "comm_busy_cycles")
            trace = {k: trace.get(k) for k in totals}
            oracle_trace = {k: oracle_trace.get(k) for k in totals}
        ok = (
            counters == oracle_counters
            and trace == oracle_trace
            and report.memory == oracle.memory
            and report.state_visits == oracle.state_visits
            and report.iterations == oracle.iterations
            and np.allclose(report.pressure, oracle.pressure,
                            rtol=1e-5, atol=5e-4)
        )
        parity[engine] = ok
        if not ok:
            failures.append(f"{engine} engine breaks mg parity with the "
                            f"vectorized oracle")
        _telemetry_ok(report.preconditioner, report.iterations, failures,
                      engine)
    print(f"mg_smoke: parity vs vectorized oracle: " + ", ".join(
        f"{engine}={'ok' if ok else 'BROKEN'}"
        for engine, ok in sorted(parity.items())))

    # -- front door + cross-backend agreement ----------------------------
    with _hierarchy_builds() as wse_builds:
        wse = repro.solve(
            problem, backend="wse",
            spec=repro.SolveSpec.from_kwargs(
                spec=SPEC, dtype="float64", engine="vectorized",
                preconditioner="mg", rel_tol=1e-9, max_iters=20_000,
            ),
        )
    with _hierarchy_builds() as ref_builds:
        ref = repro.solve(
            problem, backend="reference",
            spec=repro.SolveSpec.from_kwargs(preconditioner="mg"),
        )
    for label, builds in (("wse", wse_builds), ("reference", ref_builds)):
        if len(builds) != 1:
            failures.append(f"{label} mg solve built {len(builds)} "
                            f"hierarchies, not 1")
    precision = {"parity": (parity_builds, "float32"),
                 "wse front door": (wse_builds, "float64"),
                 "reference": (ref_builds, "float64")}
    print(f"mg_smoke: hierarchy builds per solve: wse={len(wse_builds)} "
          f"reference={len(ref_builds)}")
    _telemetry_ok(wse.telemetry.get("preconditioner"), wse.iterations,
                  failures, "wse front door")
    if not isinstance(ref.telemetry.get("preconditioner"), dict):
        failures.append("reference backend telemetry lost the mg record")
    if not np.allclose(wse.pressure, ref.pressure, atol=1e-5):
        failures.append("reference and wse mg solves disagree on pressure")
    print("mg_smoke: reference/wse mg pressures agree, telemetry intact")

    # -- one hierarchy build per Δt in a simulation ----------------------
    schedule = dict(preconditioner="mg", n_steps=3, dt=[1.0, 2.0, 2.0])
    sim_builds, sim_engines = {}, {}
    for backend, knobs in (
        ("wse", dict(spec=SPEC, dtype="float64", engine="fused", rel_tol=1e-9)),
        ("reference", {}),
    ):
        with _hierarchy_builds() as builds, _engine_builds() as engines:
            sim = repro.simulate(
                problem, backend=backend,
                spec=repro.SolveSpec.from_kwargs(**schedule, **knobs),
            )
        sim_builds[backend] = len(builds)
        precision[f"{backend} simulation"] = (builds, "float64")
        if len(sim.steps) != 3 or len(builds) != 2:
            failures.append(f"{backend} mg simulation over dts 1, 2, 2 built "
                            f"{len(builds)} hierarchies in {len(sim.steps)} "
                            f"steps, not 2 in 3")
        sim_engines[backend] = engines
    if len(sim_engines["wse"]) != 2:
        failures.append(f"wse mg simulation over dts 1, 2, 2 built "
                        f"{len(sim_engines['wse'])} engines, not 2")
    print(f"mg_smoke: hierarchy builds per simulation (dts 1, 2, 2): "
          f"wse={sim_builds['wse']} reference={sim_builds['reference']}")
    print(f"mg_smoke: engine builds per simulation (dts 1, 2, 2): "
          f"wse={len(sim_engines['wse'])}")

    # -- the V-cycle runs in the solve's working precision ---------------
    for label, (builds, want) in precision.items():
        if not builds or set(builds) != {want}:
            failures.append(f"{label} runs built hierarchies in {builds}, "
                            f"not all {want}")
    print("mg_smoke: hierarchy dtypes: " + ", ".join(
        f"{label}={'+'.join(sorted(set(builds)))} x{len(builds)}"
        for label, (builds, _) in precision.items()))

    if failures:
        for line in failures:
            print(f"mg_smoke: FAIL {line}")
        return 1
    print(f"mg_smoke: PASS ({reduction:.1f}x iteration reduction, 4-engine "
          f"float32 parity, telemetry shape verified, one hierarchy build "
          f"per solve and per simulation dt, each in the solve's working "
          f"precision, one engine build per simulation dt)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
