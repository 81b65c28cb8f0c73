"""``benchmarks/diff_bench.py``: the CI gate on the bench-session baseline.

Host timing is warn-only. A missing file, a row that raised, a dropped
baseline row or a drifted non-timing field fails the diff; a row only
the current run has does not.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "diff_bench.py"


def _load_diff_bench():
    """Load the script by path: ``benchmarks/`` is not a package."""
    spec = importlib.util.spec_from_file_location("diff_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


diff_bench = _load_diff_bench()

BASELINE = {
    "schema": "repro.bench_session/9",
    "results": [
        {
            "table": "table3", "scenario": "weak_scaling(lateral=3, nz=6)",
            "backend": "wse", "engine": "event", "mode": "fixed_iterations",
            "fixed_iterations": 4, "iterations": 4, "converged": False,
            "host_seconds": 0.04,
        },
        {
            "table": "precond_iterations",
            "scenario": "lognormal_reservoir[24x24x6] mg",
            "backend": "wse", "engine": "vectorized",
            "mode": "to_convergence", "fixed_iterations": None,
            "preconditioner": "mg", "iterations": 24, "converged": True,
            "mg_levels": 4, "mg_cycles": 25, "host_seconds": 0.03,
        },
    ],
}


def _diff(tmp_path: Path, current: dict | None) -> int:
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(BASELINE))
    run = tmp_path / "run.json"
    if current is not None:
        run.write_text(json.dumps(current))
    return diff_bench.main([str(run), "--baseline", str(baseline)])


def _unchanged(rows):
    pass


def _drift_iterations(rows):
    rows[1]["iterations"] += 1


def _drift_engine(rows):
    rows[0]["engine"] = "fused"


def _slow_down_tenfold(rows):
    for row in rows:
        row["host_seconds"] *= 10


def _raise(rows):
    # What run_all.py records for an entry whose solve raised.
    rows[0] = {key: rows[0][key] for key in
               ("table", "scenario", "backend", "engine", "mode",
                "fixed_iterations")}
    rows[0]["error"] = "RuntimeError: boom"


def _drop_row(rows):
    rows.pop()


def _add_row(rows):
    rows.append(dict(rows[0], scenario="weak_scaling(lateral=5, nz=6)"))


@pytest.mark.parametrize("edit, status", [
    (_unchanged, 0),
    (_drift_iterations, 1),
    (_drift_engine, 1),
    (_slow_down_tenfold, 0),
    (_raise, 1),
    (_drop_row, 1),
    (_add_row, 0),
], ids=lambda value: value.__name__.strip("_") if callable(value) else None)
def test_gate(tmp_path, edit, status):
    current = copy.deepcopy(BASELINE)
    edit(current["results"])
    assert _diff(tmp_path, current) == status


def test_missing_current_run_fails(tmp_path):
    assert _diff(tmp_path, None) == 1


def test_missing_baseline_fails(tmp_path):
    run = tmp_path / "run.json"
    run.write_text(json.dumps(BASELINE))
    missing = tmp_path / "no_baseline.json"
    assert diff_bench.main([str(run), "--baseline", str(missing)]) == 1
