"""Seed discipline: the same seed gives identical inputs, another seed
different ones, and pre-seeded store keys never meet new keys.

Uses tiny smoke sizes, and compares both the generated descriptions and
the permeability fields the program builds from them.
"""

from __future__ import annotations

from typing import Any

from perfbench import inputs
from perfbench.common import array_digest


def _materialized(members: list[inputs.Member]) -> list[str]:
    import repro

    return [
        array_digest(repro.scenario(name, **dict(params)).build().permeability)
        for name, params in members
    ]


def _inputs(seed: int) -> dict[str, Any]:
    steady = inputs.steady_members(seed, 1, shape=(4, 4, 2))
    ensemble = inputs.ensemble_members(seed, 2, shape=(6, 6, 2))
    transient = inputs.transient_members(seed, 1, shape=(6, 6, 2))
    plan = inputs.gateway_plan(seed, 2.0, store_size=12, shape=(4, 4, 2))
    return {
        "solve_default": (steady, _materialized(steady)),
        "ensemble_128": (ensemble, _materialized(ensemble)),
        "simulate_mg": (transient, _materialized(transient)),
        "gateway_mix": (plan, _materialized([plan.member(k) for k in plan.store_keys[:3]])),
    }


def run(seed: int) -> list[str]:
    """Problems found (empty when the seed discipline holds)."""
    problems = []
    first, again, other = _inputs(seed), _inputs(seed), _inputs(seed + 1)
    for name in first:
        if first[name] != again[name]:
            problems.append(f"{name}: seed {seed} gave different inputs twice")
        if first[name][0] == other[name][0] or first[name][1] == other[name][1]:
            problems.append(f"{name}: seeds {seed} and {seed + 1} gave equal inputs")
    plan = first["gateway_mix"][0]
    stored = set(plan.store_keys)
    for request in plan.requests:
        in_store = request.key < inputs.KEY_SPLIT
        if request.kind == "new" and (in_store or request.key in stored):
            problems.append(f"gateway_mix: new key {request.key} is in the store range")
        if request.kind == "store" and request.key not in stored:
            problems.append(f"gateway_mix: store key {request.key} was never pre-seeded")
    return problems
