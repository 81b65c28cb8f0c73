"""Diff a bench-session run against the committed baseline.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py --smoke --out bench_smoke.json
    python benchmarks/diff_bench.py bench_smoke.json [--baseline BENCH_session.json]

Matches rows by ``(table, scenario)`` so every rung of a multi-row
sweep (table3's laterals, table3_vector's 16/64/128 fabrics) gets its
own line; when one side is a smoke run and the other full-size, the
grids differ, so rows collapse to one per ``table`` and ratios are
informational only.  Prints a regression table of ``host_seconds``
(baseline vs. current, ratio) and flags rows whose slowdown exceeds
``--warn-ratio`` (default 2.0).

**Timing is warn-only; non-timing rows gate.**  Host timings on shared
CI runners are noisy, so they never block a merge.  Everything else a
bench row records is deterministic, and drift there is a bug, not
noise — the tool **exits 1** when:

* any oracle-parity boolean in the *current* run is false (the fused
  rows' ``counters_match_serial`` / ``trace_match_serial`` /
  ``memory_match_serial`` / ``pressure_close_serial`` — these hold on
  every machine, so this gate applies even against a mismatched
  baseline);
* a table's set of row engines differs from the baseline's
  (:func:`table_engines`).  Which engine a table runs on does not
  depend on grid size, so this gate also applies smoke against full:
  the paper tables must stay on the cycle-accurate ``"event"`` oracle
  whatever the library's default engine is;
* the runs are like-for-like (same smoke/full shape) and a matched
  row's non-timing fields drift: exact for counter scalars, iteration
  counts, convergence flags and layout knobs
  (:data:`GATE_EXACT_FIELDS`), within a tolerance band for the fields
  that absorb scheduling jitter (:data:`GATE_BAND_FIELDS`, e.g. the
  service cache-hit ratio).

The ``gateway_throughput`` rows follow the same split: their
``requests_per_sec`` / ``steps_per_sec`` / ``host_seconds`` timings are
warn-only (localhost TCP on a shared runner is noisy), while their
request/executed counters sit in :data:`GATE_EXACT_FIELDS` — a gateway
that starts re-solving cached work fails the diff even when it got
faster.

Missing/new/failed rows are still listed, not errored.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Non-timing fields compared exactly between like-for-like runs.
#: All are deterministic replays of the same arithmetic/charge model;
#: a mismatch means the numerics or the accounting changed.
GATE_EXACT_FIELDS = (
    "iterations", "converged", "mode", "fixed_iterations", "batch",
    "problems", "n_steps", "shard_shape", "fused_tile",
    "tiles_per_iteration", "flops", "fabric_bytes",
    "preconditioner", "mg_levels", "mg_cycles",
    # Serving/gateway counters: the workload shape is pinned by the row,
    # so "how many solves actually executed" is deterministic — drift
    # means cache/dedup/admission behavior changed.  (batched_launches
    # and dedup_hits wobble with admission timing and stay ungated.)
    "requests", "distinct_specs", "executed",
)

#: Non-timing fields gated within an absolute tolerance band — they are
#: shaped by admission/scheduling timing, so they wobble without being
#: regressions (a drop beyond the band still is one).
GATE_BAND_FIELDS = {"cache_hit_ratio": 0.15}

#: Row keys that assert oracle parity inside one run; ``True`` is the
#: only healthy value wherever they appear.
PARITY_KEYS = (
    "counters_match_serial", "trace_match_serial", "memory_match_serial",
    "pressure_close_serial",
)


def load_rows(path: pathlib.Path, *, by_scenario: bool) -> dict[str, dict]:
    payload = json.loads(path.read_text())
    rows: dict[str, dict] = {}
    for record in payload.get("results", []):
        if by_scenario:
            # Multi-row tables (table3's lateral sweep, table3_vector's
            # 16/64/128 rungs) each get their own diff line.
            key = f"{record['table']} {record.get('scenario', '')}".strip()
            rows[key] = record
        else:
            rows.setdefault(record["table"], record)
    return rows


def table_engines(path: pathlib.Path) -> dict[str, list]:
    """Each table's sorted engines over its non-error rows (``None``
    for rows of a backend without fabric engines)."""
    engines: dict[str, set] = {}
    for record in json.loads(path.read_text()).get("results", []):
        if "error" not in record:
            engines.setdefault(record["table"], set()).add(record.get("engine"))
    return {table: sorted(found, key=str) for table, found in engines.items()}


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

    if not args.baseline.exists():
        print(f"diff_bench: no baseline at {args.baseline}; nothing to diff")
        return 0
    if not args.current.exists():
        print(f"diff_bench: no current run at {args.current}; nothing to diff")
        return 0

    base_smoke = json.loads(args.baseline.read_text()).get("smoke")
    cur_smoke = json.loads(args.current.read_text()).get("smoke")
    if base_smoke != cur_smoke:
        print(
            f"diff_bench: baseline is a {'smoke' if base_smoke else 'full'} "
            f"run, current is {'smoke' if cur_smoke else 'full'} — grids "
            "differ, so ratios show workload shape only, not regressions."
        )
    like_for_like = base_smoke == cur_smoke
    base = load_rows(args.baseline, by_scenario=like_for_like)
    cur = load_rows(args.current, by_scenario=like_for_like)

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
            warnings += 1
            continue
        bs, cs = b.get("host_seconds"), c.get("host_seconds")
        if not bs or cs is None:
            table_rows.append([key, _fmt(b), _fmt(c), "-", ""])
            continue
        ratio = cs / bs
        flag = ""
        if like_for_like and ratio > args.warn_ratio:
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
    # Serving-tier visibility: cache-hit ratios ride along — a hit-ratio
    # drop is an admission/dedup regression host_seconds alone can hide.
    # (The warn here is the early signal; drops beyond the
    # GATE_BAND_FIELDS band hard-fail in the gate below.)
    hit_rows = [
        key for key in sorted(set(base) | set(cur))
        if "cache_hit_ratio" in (cur.get(key) or {})
        or "cache_hit_ratio" in (base.get(key) or {})
    ]
    if hit_rows:
        print("\nservice cache-hit ratio vs baseline")
        for key in hit_rows:
            br = (base.get(key) or {}).get("cache_hit_ratio")
            cr = (cur.get(key) or {}).get("cache_hit_ratio")
            flag = ""
            if like_for_like and br is not None and cr is not None \
                    and cr < br - 0.1:
                flag = "  WARN hit-ratio drop"
                warnings += 1
            print(f"  {key}: "
                  f"{'-' if br is None else f'{br:.2f}'} -> "
                  f"{'-' if cr is None else f'{cr:.2f}'}{flag}")

    # Sharded-engine visibility: each shard layout's problems/sec
    # against the serial-vectorized rung of the *same run* (warn-only).
    # Only full-size runs are flagged — smoke grids are small enough
    # that round-dispatch overhead legitimately beats the sharding win —
    # and only on hosts with more than one CPU: with a single core the
    # crews cannot sweep concurrently, so multi-shard rows losing to
    # serial is physics, not a regression.
    sharded = [
        r for r in json.loads(args.current.read_text()).get("results", [])
        if r.get("table") == "sharded_throughput" and "error" not in r
    ]
    if sharded:
        serial = next(
            (r for r in sharded if r.get("shard_shape") is None), None
        )
        print("\nsharded vs serial problems/sec (current run)")
        for row in sharded:
            if row is serial:
                continue
            pps = row.get("problems_per_sec")
            ratio = row.get("speedup_vs_serial")
            multi_cpu = (row.get("host_cpus") or 1) > 1
            flag = ""
            if not cur_smoke and multi_cpu and ratio is not None \
                    and ratio < 1.0 and row.get("shard_shape") != [1, 1]:
                flag = "  WARN sharded slower than serial"
                warnings += 1
            base_pps = serial.get("problems_per_sec") if serial else None
            print(
                f"  {row['scenario']}: "
                f"{'-' if base_pps is None else f'{base_pps:.1f}'} -> "
                f"{'-' if pps is None else f'{pps:.1f}'} "
                f"({'-' if ratio is None else f'{ratio:.2f}x'}){flag}"
            )

    # ---- the gate: non-timing rows ------------------------------------------
    gate_failures: list[str] = []

    # Oracle-parity booleans hold on any machine against any baseline:
    # the fused engine's counters/trace/memory are computed, not timed.
    for record in json.loads(args.current.read_text()).get("results", []):
        label = f"{record.get('table', '?')} {record.get('scenario', '')}".strip()
        for key in PARITY_KEYS:
            if key in record and record[key] is not True:
                gate_failures.append(f"{label}: {key} is {record[key]!r}")

    # The engine a table runs on is independent of grid size, so it is
    # compared on every run, smoke against full included.
    base_engines = table_engines(args.baseline)
    cur_engines = table_engines(args.current)
    for table in sorted(set(base_engines) & set(cur_engines)):
        if base_engines[table] != cur_engines[table]:
            gate_failures.append(
                f"{table}: engine {base_engines[table]!r} -> "
                f"{cur_engines[table]!r}"
            )

    # Like-for-like runs replay identical deterministic workloads, so
    # every non-timing field must survive the PR (band fields within
    # their tolerance).
    if like_for_like:
        for key in sorted(set(base) & set(cur)):
            b, c = base[key], cur[key]
            if "error" in b or "error" in c:
                continue  # already surfaced in the table above
            for name in GATE_EXACT_FIELDS:
                if name not in b and name not in c:
                    continue
                if b.get(name) != c.get(name):
                    gate_failures.append(
                        f"{key}: {name} {b.get(name)!r} -> {c.get(name)!r}"
                    )
            for name, band in GATE_BAND_FIELDS.items():
                bv, cv = b.get(name), c.get(name)
                if bv is None or cv is None:
                    continue
                if abs(cv - bv) > band:
                    gate_failures.append(
                        f"{key}: {name} {bv:.3f} -> {cv:.3f} "
                        f"(band +/-{band})"
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
