"""One SHA-256 over the answers of every fabric engine and every host
stencil path on a fixed corpus.

Usage::

    PYTHONPATH=src python benchmarks/answers_digest.py [--cases]

Runs a fixed, seeded corpus through every engine name — ``"event"``,
``"vectorized"``, ``"fused"``, ``"sharded"`` and the batched lanes of
``"vectorized"``/``"fused"`` — and prints one SHA-256 over what each run
reports: pressure bytes and dtype, iterations, ``converged``, residual
history (``float.hex``), counters, trace, memory report, state visits,
engine name, mg/fused/shard telemetry and simulated elapsed seconds.  An
expected failure contributes its exception type and message.

The corpus crosses both kernel variants, buffer reuse on and off, no,
Jacobi and mg preconditioning, float32 and float64, steady solves (with
and without a guess and a right-hand side) and four-step transient
simulations, on problems with full and partial-Dirichlet columns; it
adds one ``comm_only`` run and two ``PeOutOfMemory`` cases per engine.
The fabric simulations repeat each Δt (``dts=[0.5, 0.5, 2.0, 2.0]``),
so every engine's second step of a Δt runs re-staged rather than
freshly built; the batched ones run both as one program and as one
program per lane (``batch_size=1``, two chunk engines).

The host stencil (``repro.fv.operator.FlatStencil``) is covered on its
own too: reference-backend steady solves and two-step simulations with
no, Jacobi and mg preconditioning in float32 and float64 (pressure,
iterations, ``converged``, residual history, Newton and mg telemetry;
not their wall-clock time), and the arrays ``apply_jx``,
``compute_residual``, ``MatrixFreeOperator``, ``TransientOperator`` and
``mg_apply`` return with ``out=None``, on odd lateral sizes and
``nz = 1`` with partial-Dirichlet masks, for float32 and float64 inputs.

The front doors are covered on every backend (``reference``, ``gpu``,
``wse``): ``repro.solve`` steady and with a time schedule,
``repro.simulate``, ``repro.simulate_many`` (serial, and batched on
``wse``), ``repro.solve_many(batch=True)`` with a time schedule, and a
``wse`` simulation through a result store (cut after two steps, resumed,
replayed from the store, re-run with ``resume=False``).  A backend
result hashes its pressure, iterations, ``converged``, residual history,
step/time/Δt, and its telemetry with dataclasses by field value; a
simulation also hashes its run telemetry and ``to_dict()``.  Wall-clock
``elapsed_seconds`` is left out wherever ``time_kind`` is
``"wall_clock"``, and so are the reference's live ``linear_results``
(their iterations and histories are the result's own).
``--cases`` prints one short digest per case too, to find the first
case two trees disagree on.

A refactor that claims byte-identical answers runs this script against
the parent's sources and its own (``PYTHONPATH`` picks the tree; the
script does not add ``src`` itself) and compares the two digests.  The
bits depend on the NumPy and BLAS build, so compare digests taken on one
host only.  Exits non-zero when a run that must succeed raises, or a run
that must fail does not.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
import time

import numpy as np

import repro
from repro.backends.base import SimulationResult, SolveResult, StepResult
from repro.core.solver import (
    WseMatrixFreeSolver,
    simulate_reports,
    simulate_reports_batch,
    solve_batch,
)
from repro.fv.operator import MatrixFreeOperator, apply_jx
from repro.fv.residual import compute_residual
from repro.mesh.boundary import DirichletSet
from repro.mesh.grid import CartesianGrid3D
from repro.mg import build_hierarchy, mg_apply
from repro.physics.darcy import build_problem
from repro.physics.transient import TransientOperator
from repro.session import ResultStore
from repro.util.errors import PeOutOfMemory
from repro.wse.specs import WSE2

SPEC = WSE2.with_fabric(8, 8)
SERIAL_ENGINES = ("event", "vectorized", "fused", "sharded")
BATCH_ENGINES = ("vectorized", "fused")
#: Per-engine layout knobs (the sharded layout splits the fabric 2x2).
LAYOUT = {"sharded": {"shard_shape": (2, 2)}, "fused": {"fused_tile": (2, 3)}}
VARIANTS = ("precomputed", "fused_mobility")
PRECONDITIONERS = ("none", "jacobi", "mg")
DTYPES = (np.float32, np.float64)
#: Columns too deep for a PE: they overflow in a coefficient column and
#: in a mobility column.
OOM_CASES = (
    (1000, {}),
    (600, dict(variant="fused_mobility", reuse_buffers=False, preconditioner="jacobi")),
)
#: The fabric simulations' schedule: each Δt twice, so a step runs on a
#: re-staged engine as well as on a freshly built one.
STEPPED_DTS = [0.5, 0.5, 2.0, 2.0]
#: Host stencil grids: odd lateral sizes, and one plane (nz = 1).
STENCIL_SHAPES = ((7, 5, 3), (9, 3, 1), (5, 6, 2))


def problem(shape, seed):
    """Lognormal permeability, an injector and a producer column, and on
    a grid deeper than one cell a partial-Dirichlet column (one pinned
    cell at the top of the middle column)."""
    rng = np.random.default_rng(seed)
    grid = CartesianGrid3D(*shape)
    perm = np.exp(rng.normal(0.0, 1.0, shape))
    mask = np.zeros(shape, dtype=bool)
    values = np.zeros(shape)
    mask[0, 0, :], values[0, 0, :] = True, 1.0
    mask[-1, -1, :] = True
    if shape[2] > 1:
        mid = (shape[0] // 2, shape[1] // 2, 0)
        mask[mid], values[mid] = True, 0.5
    return build_problem(grid, perm, DirichletSet(grid, mask, values))


def canon(value):
    """A JSON-able, bit-exact form: floats as ``float.hex``."""
    if isinstance(value, dict):
        return {str(k): canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return canon(dataclasses.asdict(value))
    if hasattr(value, "name"):
        return value.name
    return value


def digest_bytes(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def timeless(record: dict) -> dict:
    """``record`` without ``elapsed_seconds`` when that is wall-clock time."""
    if record.get("time_kind") == "wall_clock":
        return {k: v for k, v in record.items() if k != "elapsed_seconds"}
    return record


def fingerprint(report) -> dict:
    """A fabric report's answers, a backend result's or simulation's
    answers without wall-clock time, or an array's dtype, shape and
    bytes."""
    if isinstance(report, np.ndarray):
        return canon({"dtype": report.dtype.str, "shape": report.shape,
                      "bytes": digest_bytes(report)})
    if isinstance(report, SimulationResult):
        return canon({
            "steps": [fingerprint(step) for step in report.steps],
            "backend": report.backend,
            "telemetry": report.telemetry,
            "summary": timeless(report.to_dict()),
        })
    if isinstance(report, (SolveResult, StepResult)):
        telemetry = {
            k: v for k, v in report.telemetry.items() if k != "linear_results"
        }
        if "transient" in telemetry:
            telemetry["transient"] = timeless(telemetry["transient"])
        answers = {
            "backend": report.backend,
            "pressure_dtype": report.pressure.dtype.str,
            "pressure": digest_bytes(report.pressure),
            "iterations": report.iterations,
            "converged": report.converged,
            "residual_history": list(report.residual_history),
            "elapsed_seconds": report.elapsed_seconds,
            "time_kind": telemetry.get("time_kind"),
            "telemetry": telemetry,
        }
        if isinstance(report, StepResult):
            answers.update(step=report.step, time=report.time, dt=report.dt)
        return canon(timeless(answers))
    pressure = np.ascontiguousarray(report.pressure)
    return canon({
        "engine": report.engine,
        "pressure_dtype": pressure.dtype.str,
        "pressure": hashlib.sha256(pressure.tobytes()).hexdigest(),
        "iterations": report.iterations,
        "converged": report.converged,
        "residual_history": list(report.residual_history),
        "counters": report.counters.to_dict(),
        "trace": report.trace.to_dict(),
        "memory": report.memory,
        "state_visits": list(report.state_visits),
        "preconditioner": report.preconditioner,
        "fused": report.fused,
        "shard": report.shard,
        "elapsed_seconds": report.elapsed_seconds,
    })


def cases():
    """Yield ``(label, run, expect)``: ``run()`` returns a list of
    reports, and ``expect`` is an exception type it must raise, or
    ``None``."""
    deep, flat = problem((4, 3, 3), 0), problem((5, 4, 1), 1)
    pair = [deep, problem((4, 3, 3), 1)]
    rng = np.random.default_rng(7)
    # A guess that violates the Dirichlet values and a steady rhs, one
    # per lane of the pair.
    guesses = rng.uniform(-1.0, 1.0, (2,) + deep.grid.shape)
    rhss = rng.uniform(-1.0, 1.0, (2,) + deep.grid.shape)
    configs = [
        dict(variant=v, reuse_buffers=reuse, preconditioner=pc, dtype=dt)
        for v in VARIANTS
        for reuse in (True, False)
        for pc in PRECONDITIONERS
        for dt in DTYPES
    ]

    def name(cfg):
        return "/".join(
            np.dtype(v).name if k == "dtype" else str(v) for k, v in cfg.items()
        )

    def serial(p, engine, **knobs):
        knobs = {"spec": SPEC, "rel_tol": 1e-6, **LAYOUT.get(engine, {}), **knobs}
        return lambda: [WseMatrixFreeSolver(p, engine=engine, **knobs).solve()]

    def batched(problems, engine, **knobs):
        knobs = {"spec": SPEC, "rel_tol": 1e-6, **LAYOUT.get(engine, {}), **knobs}
        return lambda: solve_batch(problems, engine=engine, **knobs)

    def stepped(engine, **knobs):
        knobs = {"spec": SPEC, "rel_tol": 1e-6, "dts": STEPPED_DTS,
                 **LAYOUT.get(engine, {}), **knobs}
        return lambda: list(simulate_reports(deep, engine=engine, **knobs))

    def stepped_batch(engine, **knobs):
        knobs = {"spec": SPEC, "rel_tol": 1e-6, "dts": STEPPED_DTS,
                 **LAYOUT.get(engine, {}), **knobs}
        return lambda: [
            report
            for step in simulate_reports_batch(pair, engine=engine, **knobs)
            for report in step
        ]

    for engine in SERIAL_ENGINES:
        for grid, p in (("deep", deep), ("flat", flat)):
            for cfg in configs:
                yield f"{engine}/{grid}/{name(cfg)}", serial(p, engine, **cfg), None
        for pc in PRECONDITIONERS:
            for dt in DTYPES:
                cfg = dict(preconditioner=pc, dtype=dt)
                yield f"{engine}/guess_rhs/{name(cfg)}", serial(
                    deep, engine, initial_pressure=guesses[0], rhs=rhss[0], **cfg
                ), None
        yield f"{engine}/comm_only", serial(
            deep, engine, comm_only=True, fixed_iterations=3, rel_tol=None
        ), None
        for i, pc in enumerate(PRECONDITIONERS):
            cfg = dict(preconditioner=pc, variant=VARIANTS[i % 2])
            yield f"{engine}/simulate/{name(cfg)}", stepped(engine, **cfg), None
        for depth, cfg in OOM_CASES:
            yield f"{engine}/oom/{depth}", serial(
                problem((2, 2, depth), 0), engine, rel_tol=None, **cfg
            ), PeOutOfMemory

    for engine in BATCH_ENGINES:
        for cfg in configs:
            yield f"batched-{engine}/{name(cfg)}", batched(pair, engine, **cfg), None
        for pc in PRECONDITIONERS:
            yield f"batched-{engine}/guess_rhs/{pc}", batched(
                pair, engine, initial_pressure=guesses, rhs=rhss, preconditioner=pc
            ), None
            yield f"batched-{engine}/simulate/{pc}", stepped_batch(
                engine, preconditioner=pc
            ), None
            yield f"batched-{engine}/simulate/{pc}/batch_size=1", stepped_batch(
                engine, preconditioner=pc, batch_size=1
            ), None
        for depth, cfg in OOM_CASES:
            yield f"batched-{engine}/oom/{depth}", batched(
                [problem((2, 2, depth), 0)] * 2, engine, rel_tol=None, **cfg
            ), PeOutOfMemory

    yield from host_cases(deep, flat)
    yield from front_door_cases(deep, pair)


def host_cases(deep, flat):
    """The reference backend's solves and simulations, and the host
    stencil's direct outputs, as ``(label, run, None)``."""
    for pc in PRECONDITIONERS:
        for dt in DTYPES:
            tag = f"{pc}/{np.dtype(dt).name}"
            spec = dict(dtype=dt, rel_tol=1e-6, preconditioner=pc)
            for grid, p in (("deep", deep), ("flat", flat)):
                yield f"reference/{grid}/{tag}", (
                    lambda p=p, spec=spec: [repro.solve(p, backend="reference", **spec)]
                ), None
            yield f"reference/simulate/{tag}", (
                lambda spec=spec: list(repro.simulate_steps(
                    deep, backend="reference", n_steps=2, dt=(0.5, 2.0), **spec
                ))
            ), None

    for shape in STENCIL_SHAPES:
        p = problem(shape, 2)
        coeffs, dirichlet = p.coefficients, p.dirichlet
        rng = np.random.default_rng(11)
        xs = [rng.standard_normal(shape).astype(dt) for dt in DTYPES]
        acc = rng.uniform(0.1, 1.0, shape)
        acc[dirichlet.mask] = 0.0
        label = "x".join(map(str, shape))
        yield f"apply_jx/{label}", (lambda c=coeffs, d=dirichlet, xs=xs: [
            apply_jx(c, dset, x) for dset in (None, d) for x in xs
        ]), None
        yield f"compute_residual/{label}", (lambda c=coeffs, d=dirichlet, xs=xs: [
            compute_residual(c, d, x) for x in xs
        ]), None
        yield f"MatrixFreeOperator/{label}", (
            lambda op=MatrixFreeOperator(coeffs, dirichlet), xs=xs: [
                y for x in xs for y in (op(x), op.apply_flat(x.reshape(-1)))
            ]
        ), None
        yield f"TransientOperator/{label}", (lambda p=p, acc=acc, xs=xs: [
            TransientOperator(p, acc.astype(x.dtype))(x) for x in xs
        ]), None
        for dt in DTYPES:
            yield f"mg_apply/{label}/{np.dtype(dt).name}", (
                lambda c=coeffs, d=dirichlet, acc=acc, xs=xs, dt=dt: [
                    mg_apply(build_hierarchy(c, d.mask, accumulation=a, dtype=dt),
                             np.where(d.mask, 0.0, x).astype(x.dtype))
                    for a in (None, acc) for x in xs
                ]
            ), None


class _Cut(Exception):
    """Stops a stored simulation part-way, as a killed run would."""


def front_door_cases(deep, pair):
    """``repro.solve``, ``solve_many``, ``simulate`` and
    ``simulate_many`` on every backend, and a stored ``wse``
    simulation, as ``(label, run, None)``."""
    knobs = {
        "reference": dict(rel_tol=1e-6, preconditioner="mg"),
        "gpu": dict(rel_tol=1e-6),
        "wse": dict(specs=SPEC, rel_tol=1e-6, preconditioner="mg"),
    }
    schedule = dict(n_steps=4, dt=tuple(STEPPED_DTS))
    for backend, opts in knobs.items():
        timed = {**opts, **schedule}
        yield f"solve/{backend}", (lambda b=backend, o=opts: [
            repro.solve(deep, backend=b, **o)
        ]), None
        yield f"solve/{backend}/time", (lambda b=backend, o=timed: [
            repro.solve(deep, backend=b, **o)
        ]), None
        yield f"simulate/{backend}", (lambda b=backend, o=timed: [
            repro.simulate(deep, backend=b, **o)
        ]), None
        yield f"simulate_many/{backend}", (
            lambda b=backend, o=timed: repro.simulate_many(pair, backend=b, **o)
        ), None
    wse = {**knobs["wse"], **schedule}
    yield "simulate_many/wse/batch", (
        lambda: repro.simulate_many(pair, backend="wse", batch=True, **wse)
    ), None
    yield "solve_many/wse/batch/time", (
        lambda: repro.solve_many(pair, backend="wse", batch=True, **wse)
    ), None

    def stored():
        with tempfile.TemporaryDirectory() as root:
            store = ResultStore(root)

            def cut(step):
                if step.step == 2:
                    raise _Cut

            try:
                repro.simulate(deep, backend="wse", store=store, on_step=cut, **wse)
            except _Cut:
                pass
            return [
                repro.simulate(deep, backend="wse", store=store, **wse),
                repro.simulate(deep, backend="wse", store=store, **wse),
                repro.simulate(deep, backend="wse", store=store, resume=False, **wse),
            ]

    yield "simulate/wse/store", stored, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cases", action="store_true", help="also print one digest per case"
    )
    args = parser.parse_args(argv)
    print(f"repro from {repro.__file__}", file=sys.stderr)
    digest = hashlib.sha256()
    failures: list[str] = []
    count = 0
    start = time.perf_counter()
    for label, run, expect in cases():
        try:
            outcome = [fingerprint(report) for report in run()]
            if expect is not None:
                failures.append(f"{label}: expected {expect.__name__}, got reports")
        except Exception as exc:  # noqa: BLE001 - the digest records it
            outcome = {"raised": type(exc).__name__, "message": str(exc)}
            if expect is None or not isinstance(exc, expect):
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
        blob = json.dumps({"case": label, "outcome": outcome}, sort_keys=True).encode()
        digest.update(blob)
        count += 1
        if args.cases:
            print(f"{hashlib.sha256(blob).hexdigest()[:16]}  {label}")
    print(f"{count} cases in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    print(digest.hexdigest())
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
