"""Diff a bench-session run against the committed baseline.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py --out bench_run.json
    python benchmarks/diff_bench.py bench_run.json [--baseline BENCH_session.json]

``run_all.py`` has one run size, so a run replays exactly the baseline's
workloads and rows match one for one by ``(table, scenario)`` — every
rung of a multi-row sweep (table3's laterals, table3_vector's
32/64/128 fabrics) gets its own line.  Prints a regression table of
``host_seconds`` (baseline vs. current, ratio) and flags rows whose
slowdown exceeds ``--warn-ratio`` (default 2.0).

**Timing is warn-only; everything else gates.**  Host timings on shared
CI runners are noisy, so they never block a merge.  Everything else a
bench row records is deterministic, and drift there is a bug, not
noise — the tool **exits 1** when:

* either file is missing;
* a row of the current run carries ``error`` (its workload raised);
* a baseline row is absent from the current run;
* a matched row's :data:`GATE_EXACT_FIELDS` differ: iteration counts,
  convergence flags, run mode, engine, preconditioner and mg telemetry.
  The engine check keeps the paper tables on the cycle-accurate
  ``"event"`` oracle whatever the library's default engine is.

A row only the current run has is listed, not gated.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Non-timing fields compared exactly, row for row.  All are
#: deterministic replays of the same arithmetic/charge model; a mismatch
#: means the numerics, the accounting or the engine choice changed.
GATE_EXACT_FIELDS = (
    "iterations", "converged", "mode", "fixed_iterations", "engine",
    "preconditioner", "mg_levels", "mg_cycles",
)


def load_rows(path: pathlib.Path) -> dict[str, dict]:
    rows: dict[str, dict] = {}
    for record in json.loads(path.read_text()).get("results", []):
        rows[f"{record['table']} {record.get('scenario', '')}".strip()] = record
    return rows


def format_row(cells: list[str], widths: list[int]) -> str:
    return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", type=pathlib.Path,
                        help="bench JSON produced by this PR's run")
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_session.json")
    parser.add_argument("--warn-ratio", type=float, default=2.0,
                        help="flag rows slower than baseline by this factor")
    args = parser.parse_args(argv)

    for label, path in (("baseline", args.baseline),
                        ("current run", args.current)):
        if not path.exists():
            print(f"diff_bench: no {label} at {path} — failing")
            return 1
    base = load_rows(args.baseline)
    cur = load_rows(args.current)

    header = ["table", "baseline host_s", "current host_s", "ratio", "flag"]
    table_rows: list[list[str]] = []
    warnings = 0
    for key in sorted(set(base) | set(cur)):
        b, c = base.get(key), cur.get(key)
        if b is None:
            table_rows.append([key, "-", _fmt(c), "-", "new row"])
            continue
        if c is None:
            table_rows.append([key, _fmt(b), "-", "-", "missing"])
            continue
        if "error" in c or "error" in b:
            table_rows.append([key, _fmt(b), _fmt(c), "-", "error"])
            continue
        bs, cs = b.get("host_seconds"), c.get("host_seconds")
        if not bs or cs is None:
            table_rows.append([key, _fmt(b), _fmt(c), "-", ""])
            continue
        ratio = cs / bs
        flag = ""
        if ratio > args.warn_ratio:
            flag = f"WARN >{args.warn_ratio:.1f}x"
            warnings += 1
        table_rows.append([key, f"{bs:.4f}", f"{cs:.4f}", f"{ratio:.2f}x", flag])

    widths = [
        max(len(header[i]), *(len(r[i]) for r in table_rows)) if table_rows
        else len(header[i])
        for i in range(len(header))
    ]
    sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    print("\nbench host_seconds vs baseline (warn-only)")
    print(format_row(header, widths))
    print(sep)
    for row in table_rows:
        print(format_row(row, widths))

    # ---- the gate: everything but timing ------------------------------------
    gate_failures = [
        f"{key}: missing from the current run"
        for key in sorted(set(base) - set(cur))
    ]
    gate_failures += [
        f"{key}: raised {record['error']}"
        for key, record in sorted(cur.items()) if "error" in record
    ]
    for key in sorted(set(base) & set(cur)):
        b, c = base[key], cur[key]
        if "error" in b or "error" in c:
            continue  # a failing current row is gated above
        for name in GATE_EXACT_FIELDS:
            if b.get(name) != c.get(name):
                gate_failures.append(
                    f"{key}: {name} {b.get(name)!r} -> {c.get(name)!r}"
                )

    if warnings:
        print(f"\ndiff_bench: {warnings} timing row(s) flagged (non-blocking)")
    else:
        print("\ndiff_bench: no timing regressions flagged")
    if gate_failures:
        for line in gate_failures:
            print(f"diff_bench: GATE {line}")
        print(f"diff_bench: {len(gate_failures)} non-timing regression(s) — "
              f"failing")
        return 1
    print("diff_bench: non-timing gate clean")
    return 0


def _fmt(record: dict | None) -> str:
    if record is None:
        return "-"
    if "error" in record:
        return "error"
    value = record.get("host_seconds")
    return f"{value:.4f}" if value is not None else "-"


if __name__ == "__main__":
    sys.exit(main())
