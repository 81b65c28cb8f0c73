"""Sharded fabric execution: domain decomposition, halo exchange,
worker crews and inter-shard link accounting.

Entry point: :class:`ShardedKernel`, the kernel of the
``MachineSpec(engine="sharded")`` layout (see :mod:`repro.core.engines`).
"""

from repro.shard.kernel import ShardedKernel
from repro.shard.layout import ShardBox, ShardLayout, normalize_shard_shape
from repro.shard.links import (
    InterShardLinkModel,
    MultiWaferLink,
    ShardLinkCounters,
    project_multiwafer,
)
from repro.shard.workers import CREW_MODES, default_crew

__all__ = [
    "CREW_MODES",
    "default_crew",
    "InterShardLinkModel",
    "MultiWaferLink",
    "ShardBox",
    "ShardLayout",
    "ShardLinkCounters",
    "ShardedKernel",
    "normalize_shard_shape",
    "project_multiwafer",
]
