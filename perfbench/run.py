"""Repository benchmark: one workload per run, outputs checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve_default --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 15   # every workload, one table
    python3 perfbench/run.py --self-test                   # seed discipline

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same loop untraced and then traced, and reports the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric with its unit, the provenance, and any failed check.  The
exit code is non-zero when any output check fails.  Metric names, units
and directions come from ``BENCHMARK.json``; see ``perfbench/README.md``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("solve_default", "ensemble_128", "simulate_mg", "gateway_mix")

#: Set-up probes per run besides the run's own set-up (median of all).
SETUP_PROBES = 3


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--self-test", action="store_true", help="check seed discipline")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--gateway-child", nargs=2, metavar=("STORE", "RECORDS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.all or args.self_test or args.gateway_child) and args.workload is None:
        parser.error("--workload is required (or --all / --self-test)")
    return args


def _program_present() -> str | None:
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"the program's sources are missing (no {SRC / 'repro'})"
    if not (ROOT / "BENCHMARK.json").is_file():
        return f"no BENCHMARK.json at {ROOT}"
    return None


def _import_program() -> float:
    """Put the sources on the path and import everything a run needs."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    import numpy  # noqa: F401

    import repro  # noqa: F401
    from perfbench import gateway, library  # noqa: F401

    return time.perf_counter() - T0


def _scratch(tag: str) -> Path:
    path = SCRATCH / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _probe_setups(args: argparse.Namespace) -> list[float]:
    """Set up again in fresh interpreters; each prints its set-up time at
    the reference host speed."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def _setup_probe(args: argparse.Namespace) -> int:
    import_s = _import_program()
    if args.workload == "gateway_mix":
        from perfbench import gateway

        scratch = _scratch("probe")
        try:
            setup = gateway.probe_setup(scratch, import_s)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    else:
        from perfbench import library

        start = time.perf_counter()
        library.WORKLOADS[args.workload].warm_up()
        setup = import_s + time.perf_counter() - start
    from perfbench.calibrate import Sampler

    # The host's speed right after this set-up, so that set-up is stated
    # at the reference speed like the run's other timings.
    sampler = Sampler()
    for _ in range(3):
        sampler.sample()
    print(json.dumps({"setup_s": setup / sampler.slowdown(), "raw_setup_s": setup}))
    return 0


def _measure(args: argparse.Namespace):
    """Import, set up, measure and check one workload run."""
    import_s = _import_program()
    from perfbench import provenance

    setups: list[float] = []
    if args.workload == "gateway_mix":
        from perfbench import gateway

        scratch = _scratch(f"{args.workload}-{args.seed}")
        try:
            outcome = gateway.run(
                args.seed, args.seconds, bool(args.trace), scratch, setups, import_s
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    else:
        from perfbench import library

        cls = library.WORKLOADS[args.workload]
        start = time.perf_counter()
        cls.warm_up()
        setups.append(import_s + time.perf_counter() - start)
        workload = cls(args.seed)
        outcome = library.run(workload, args.seconds, bool(args.trace))
    own = setups[0] / outcome.info.get("host_slowdown", 1.0)
    outcome.info["setup_samples"] = [own] + _probe_setups(args)
    outcome.info["provenance"] = provenance.collect(ROOT)
    return outcome


def _metric_table(kind: str) -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec[kind]}


def _finite(value) -> float:
    value = float(value)
    return value if math.isfinite(value) else 0.0


def _report(args: argparse.Namespace, outcome) -> int:
    from perfbench.common import median

    outcome.metrics["setup_s"] = median(outcome.info["setup_samples"])
    error = outcome.info.get("pressure_err_max")
    checked = {
        "pressure_err_max": 0.0 if error is None else error,
        "failed_share": outcome.failed / max(outcome.attempted, 1),
    }
    if error is None:
        outcome.notes["pressure_err_max"] = f"not measured on {args.workload}"
    end_to_end = _metric_table("end_to_end")
    per_layer = _metric_table("per_layer")
    shown = {**outcome.metrics, **checked}
    if args.trace:
        for name in per_layer:
            if name not in shown:
                shown[name] = 0.0
                outcome.notes[name] = f"no such layer work on {args.workload}"
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# provenance " + json.dumps(outcome.info.pop("provenance"), sort_keys=True))
    for table, title in ((end_to_end, "end-to-end"), (per_layer, "per-layer")):
        rows = [name for name in table if name in shown]
        if rows:
            print(f"# {title}")
        for name in rows:
            note = outcome.notes.get(name)
            print(f"{name:34s} {shown[name]:14.6g} {table[name]['unit']:6s}"
                  + (f"  (missing: {note})" if note else ""))
    print("# info " + json.dumps(outcome.info, sort_keys=True, default=str))
    metrics_for = end_to_end if args.trace == 0 else per_layer
    for name in metrics_for:
        if name not in shown:
            outcome.fail(f"metric {name} was not produced")
    for reason in outcome.failures:
        print(f"# FAILED {reason}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(int(outcome.attempted), 1),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": _finite(shown.get(name, 0.0)), "unit": spec["unit"]}
            for name, spec in metrics_for.items()
        },
    }))
    return 0 if correct else 1


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, then one table of the results."""
    end_to_end = _metric_table("end_to_end")
    results, status = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        try:
            results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            results[workload] = None
            status = status or 1
    print("# summary")
    print(f"{'metric':22s} {'unit':6s} " + " ".join(f"{w:>14s}" for w in WORKLOADS))
    for name, spec in end_to_end.items():
        cells = []
        for workload in WORKLOADS:
            result = results[workload]
            value = result["metrics"][name]["value"] if result else float("nan")
            cells.append(f"{value:14.6g}")
        print(f"{name:22s} {spec['unit']:6s} " + " ".join(cells))
    failed = {w: (r["failed"] if r else "crashed") for w, r in results.items()}
    print("# failed " + json.dumps(failed))
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    # Unwind on SIGTERM too, so the cleanup that stops and waits for the
    # gateway and probe processes runs on that path as well.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    problem = _program_present()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    if args.gateway_child:
        # The gateway_mix gateway process (see gateway.GatewayProcess).
        sys.path[:0] = [str(SRC), str(ROOT)]
        from perfbench import gateway

        return gateway.child_main(*args.gateway_child, traced=bool(args.trace))
    if args.setup_probe:
        return _setup_probe(args)
    if args.self_test:
        _import_program()
        from perfbench import selftest

        problems = selftest.run(args.seed)
        for line in problems:
            print(f"FAILED {line}")
        print("self-test " + ("passed" if not problems else "failed"))
        return 1 if problems else 0
    if args.all:
        return _run_all(args)
    outcome = _measure(args)
    from perfbench import selftest

    for line in selftest.run(args.seed):
        outcome.fail(f"self-test: {line}")
    return _report(args, outcome)


if __name__ == "__main__":
    sys.exit(main())
