"""The sharded layout: a fabric decomposed into shards, and the traffic
the decomposition moves.

:class:`ShardLayout` splits the lateral grid into rectangular shards;
``MachineSpec(engine="sharded")`` runs the one fused kernel over its
tiles in shard-major order (see :mod:`repro.core.engines`), and
:func:`shard_telemetry` charges :class:`InterShardLinkModel` from the
solve's counts.  :func:`project_multiwafer` extends the same link
accounting to fabrics larger than one wafer.
"""

from repro.shard.layout import ShardBox, ShardLayout, normalize_shard_shape
from repro.shard.links import (
    InterShardLinkModel,
    MultiWaferLink,
    ShardLinkCounters,
    project_multiwafer,
    shard_telemetry,
)

__all__ = [
    "InterShardLinkModel",
    "MultiWaferLink",
    "ShardBox",
    "ShardLayout",
    "ShardLinkCounters",
    "normalize_shard_shape",
    "project_multiwafer",
    "shard_telemetry",
]
