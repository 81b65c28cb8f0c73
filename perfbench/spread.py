"""Run workloads over several seeds and summarize each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workloads solve_default gateway_mix \\
        --seeds 1 2 3 4 5 --seconds 15 [--trace 0] [--out summary.json]

Runs happen one after another, each in its own process, exactly as the
benchmark command line runs them.  For every metric the summary gives
the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), and the spread: the distance
between the quartiles as a share of the median.  The provenance of the
first run is kept alongside.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
sys.path.insert(0, str(ROOT))

from perfbench.provenance import comparable  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output\n{proc.stderr}")
    result = json.loads(lines[-1])
    provenance = next(
        (json.loads(l.split(" ", 2)[2]) for l in lines if l.startswith("# provenance ")),
        {},
    )
    if proc.returncode != 0 or not result["correct"]:
        failed = [l for l in lines if l.startswith("# FAILED")]
        raise RuntimeError(f"{workload} seed {seed} failed: {failed}\n{proc.stderr[-2000:]}")
    return result, provenance


def summarize(values: list[float]) -> dict[str, float]:
    mid = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / mid if mid else float("nan"),
        "runs": len(values),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    summary: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            result, provenance = run_once(workload, seed, args.seconds, args.trace)
            summary.setdefault("provenance", provenance)
            differs = comparable(summary["provenance"], provenance)
            if differs:
                raise SystemExit(
                    f"{workload} seed {seed}: provenance differs from the first run "
                    f"({', '.join(differs)}); runs are not comparable"
                )
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
            ), flush=True)
        rows = {
            name: {**summarize(vals), "unit": units[name], "values": vals}
            for name, vals in values.items()
        }
        summary["workloads"][workload] = {"seeds": args.seeds, "metrics": rows}
        for name, row in rows.items():
            print(f"  {workload:14s} {name:34s} median {row['median']:<12.5g} "
                  f"spread {row['spread']:.3f}", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
