"""Seeded inputs: every member, schedule and store key derives from --seed.

Inputs are plain data (scenario name plus parameters, arrival offsets),
so the self-test can compare them, and the program only ever sees what
these functions generate.  ``random.Random`` seeded with a string hashes
it with SHA-512, so a seed means the same inputs in every process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

STEADY_TYPES = ("lognormal_reservoir", "channelized_reservoir", "layered_reservoir")
ENSEMBLE_TYPES = ("lognormal_reservoir", "channelized_reservoir")
GATEWAY_SCENARIO = "lognormal_reservoir"

#: Scenario ``seed`` parameters of pre-seeded store entries come from
#: ``[0, KEY_SPLIT)``, those of new content from ``[KEY_SPLIT, 2 * KEY_SPLIT)``.
KEY_SPLIT = 2**30

#: Request kinds per block of ten: new content, store-only, repeats.
BLOCK = (1, 3, 6)

#: Answered keys re-solved in-process after a gateway run.
SAMPLE_SIZE = 6

Member = tuple[str, tuple[tuple[str, int], ...]]


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _member(name: str, shape: tuple[int, int, int], field_seed: int) -> Member:
    nx, ny, nz = shape
    return (name, (("nx", nx), ("ny", ny), ("nz", nz), ("seed", field_seed)))


def steady_members(seed: int, rounds: int, shape=(4, 4, 4)) -> list[Member]:
    """``rounds`` rounds of one lognormal, channelized and layered member."""
    rng = _rng(seed, "solve_default")
    return [
        _member(name, shape, rng.randrange(1, 2**31))
        for _ in range(rounds)
        for name in STEADY_TYPES
    ]


def ensemble_members(seed: int, count: int, shape=(128, 128, 4)) -> list[Member]:
    """Alternating lognormal and channelized members."""
    rng = _rng(seed, "ensemble_128")
    return [
        _member(ENSEMBLE_TYPES[i % 2], shape, rng.randrange(1, 2**31))
        for i in range(count)
    ]


def transient_members(seed: int, count: int, shape=(64, 64, 4)) -> list[Member]:
    rng = _rng(seed, "simulate_mg")
    return [
        _member("transient_injection", shape, rng.randrange(1, 2**31))
        for _ in range(count)
    ]


@dataclass(frozen=True)
class Request:
    due: float  # seconds after the schedule starts
    key: int  # the target's scenario seed parameter
    kind: str  # "new", "store" or "repeat"


@dataclass(frozen=True)
class GatewayPlan:
    store_keys: tuple[int, ...]
    requests: tuple[Request, ...]
    sample: tuple[int, ...]  # keys re-solved in-process after the run
    shape: tuple[int, int, int]

    def member(self, key: int) -> Member:
        return _member(GATEWAY_SCENARIO, self.shape, key)


def gateway_plan(
    seed: int,
    seconds: float,
    *,
    rate: float = 16.0,
    store_size: int = 400,
    shape=(16, 16, 4),
) -> GatewayPlan:
    """An open-loop schedule of ``rate * seconds`` Poisson arrivals.

    The arrival count is fixed and the times are uniform order
    statistics, i.e. a Poisson process conditioned on its count, so the
    offered load is the same for every seed.  Each request asks for new
    content, for content only the pre-seeded store holds, or repeats
    content asked for earlier in this run.  Kinds are dealt in blocks of
    ten: one new request opening each block, then 3 store and 6 repeat
    requests in shuffled order.  Every run carries the same mix, and the
    costly new-content requests (a solve plus a store write on the event
    loop) come about ten requests apart instead of clustering by chance,
    so the tail latency measures one write-path stall, not the draw.
    """
    rng = _rng(seed, "gateway_mix")
    store_keys = tuple(rng.sample(range(KEY_SPLIT), store_size))
    count = max(1, round(rate * seconds))
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    n_new, n_store, n_repeat = BLOCK
    rest = ["store"] * n_store + ["repeat"] * n_repeat
    kinds: list[str] = []
    while len(kinds) < count:
        kinds.extend(["new"] * n_new + rng.sample(rest, len(rest)))
    unused_store = list(store_keys)
    asked: list[int] = []
    requests = []
    for due, kind in zip(dues, kinds):
        if kind == "repeat" and not asked:
            kind = "store"
        if kind == "store" and not unused_store:
            kind = "new"
        if kind == "new":
            key = rng.randrange(KEY_SPLIT, 2 * KEY_SPLIT)
        elif kind == "store":
            key = unused_store.pop(rng.randrange(len(unused_store)))
        else:
            key = rng.choice(asked)
        if kind != "repeat":
            asked.append(key)
        requests.append(Request(due, key, kind))
    sample = tuple(rng.sample(sorted(set(asked)), min(SAMPLE_SIZE, len(set(asked)))))
    return GatewayPlan(store_keys, tuple(requests), sample, tuple(shape))
