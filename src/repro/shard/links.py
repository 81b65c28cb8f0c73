"""Analytic inter-shard link accounting and multi-wafer what-if counters.

Two layers:

* :class:`InterShardLinkModel` — counts the traffic a fabric decomposed
  as the sharded layout moves between its shards during a solve: one
  boundary plane per live boundary per halo exchange, plus the
  gather/broadcast scalars of every cross-shard dot-product reduction.
  It is charged from the solve's exchange and reduction counts
  (:func:`shard_telemetry`), so the counters follow the run exactly.
  On a ``1x1`` layout every counter is zero — one shard moves nothing.

* :func:`project_multiwafer` — the ROADMAP's "what-if" study: extend the
  same link accounting to fabrics *larger than one wafer*, where each
  shard is a whole WSE-2 and the inter-shard links are a cabled
  interconnect instead of on-wafer wires.  Per-iteration compute time
  comes from the calibrated CS-2 time model (per-PE work is
  fabric-size-free — the paper's flat weak scaling), link time from the
  seam traffic over the modelled cable bandwidth/latency; the output
  rows quantify how much interconnect a multi-wafer CG would need to
  stay compute-bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.shard.layout import ShardLayout
from repro.util.errors import ConfigurationError
from repro.wse.specs import WSE2, WseSpecs

#: Bytes of one reduced partial (dot products reduce in float64).
REDUCE_SCALAR_BYTES = 8


@dataclass
class ShardLinkCounters:
    """Exact inter-shard traffic of one sharded solve."""

    exchanges: int = 0
    reductions: int = 0
    halo_messages: int = 0
    halo_bytes: int = 0
    reduce_messages: int = 0
    reduce_bytes: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "exchanges": self.exchanges,
            "reductions": self.reductions,
            "halo_messages": self.halo_messages,
            "halo_bytes": self.halo_bytes,
            "reduce_messages": self.reduce_messages,
            "reduce_bytes": self.reduce_bytes,
        }


class InterShardLinkModel:
    """Charge inter-shard traffic per halo exchange and reduction.

    A halo exchange moves each live boundary's plane in both directions
    (two messages of ``extent * nz`` elements); a reduction gathers one
    float64 partial per non-root shard and broadcasts the total back.
    """

    def __init__(self, layout: ShardLayout, nz: int, elem_bytes: int):
        if nz < 1:
            raise ConfigurationError(f"nz must be >= 1, got {nz}")
        self.layout = layout
        self.nz = int(nz)
        self.elem_bytes = int(elem_bytes)
        boundaries = layout.boundaries()
        self._messages_per_exchange = 2 * len(boundaries)
        self._elems_per_exchange = 2 * sum(ext for _, _, ext in boundaries) * nz
        self.counters = ShardLinkCounters()

    def charge_exchange(self, count: int = 1) -> None:
        c = self.counters
        c.exchanges += count
        c.halo_messages += self._messages_per_exchange * count
        c.halo_bytes += self._elems_per_exchange * self.elem_bytes * count

    def charge_reduce(self, count: int = 1) -> None:
        c = self.counters
        c.reductions += count
        n = self.layout.n_shards
        if n > 1:
            # Gather (n-1 partials to the root) + broadcast (n-1 totals).
            c.reduce_messages += 2 * (n - 1) * count
            c.reduce_bytes += 2 * (n - 1) * REDUCE_SCALAR_BYTES * count

    def to_dict(self) -> dict:
        return {
            "boundaries": len(self.layout.boundaries()),
            "halo_elems_per_exchange": self._elems_per_exchange,
            **self.counters.to_dict(),
        }


def shard_telemetry(
    layout: ShardLayout,
    nz: int,
    elem_bytes: int,
    iterations: int,
    *,
    fused_tile: tuple[int, int] | None,
    mg: bool,
) -> dict:
    """``EngineReport.shard`` for a sharded solve of ``iterations`` steps.

    The links carry one halo exchange at INIT and one per iteration, and
    one reduction at INIT and two (``p·Jp``, ``r·z``) per iteration.
    With mg, ``mg_host_bytes`` is the modeled V-cycle host traffic of a
    decomposed fabric: each V-cycle gathers ``r`` to the host and
    scatters ``z`` back.  Its fabric-side cost is in the driver's mg
    packet, and the link model stays untouched.
    """
    links = InterShardLinkModel(layout, nz, elem_bytes)
    links.charge_exchange(iterations + 1)
    links.charge_reduce(2 * iterations + 1)
    shard = {
        "layout": layout.to_dict(),
        "links": links.to_dict(),
        "fused_tile": None if fused_tile is None else list(fused_tile),
    }
    if mg:
        cells = layout.nx * layout.ny * nz
        shard["mg_host_bytes"] = 2 * (iterations + 1) * cells * elem_bytes
    return shard


# -- multi-wafer what-if projection -------------------------------------------


@dataclass(frozen=True)
class MultiWaferLink:
    """The cabled inter-wafer interconnect of the what-if machine.

    Defaults model an aggressive chassis-to-chassis link (100 GB/s
    effective, 1 µs one-way latency) — far below on-wafer bandwidth,
    which is the point of the study.
    """

    bandwidth_bytes_per_s: float = 100e9
    latency_s: float = 1e-6

    def transfer_time(self, payload_bytes: float) -> float:
        return self.latency_s + payload_bytes / self.bandwidth_bytes_per_s


def project_multiwafer(
    wafers: tuple[int, ...] = (1, 2, 4, 8, 16),
    *,
    nz: int = 922,
    iterations: int = 225,
    spec: WseSpecs = WSE2,
    link: MultiWaferLink | None = None,
    elem_bytes: int = 4,
) -> list[dict]:
    """What-if rows for a CG sheet spanning ``w`` wafers side by side.

    Each wafer is one shard of a ``(w * W) x H`` fabric (wafers tiled
    along x, so every seam carries ``H * nz`` elements per direction per
    exchange).  Per-iteration compute time comes from the calibrated
    CS-2 model and is identical on every wafer (weak scaling); link time
    is one seam's bidirectional halo transfer plus the two all-reduces'
    gather/broadcast chain across wafers, serialized over the cable.
    ``efficiency`` is compute over compute-plus-link — the fraction of a
    perfect ``w``-wafer speedup the interconnect leaves standing.
    """
    from repro.perf.timemodel import Cs2TimeModel

    if link is None:
        link = MultiWaferLink()
    model = Cs2TimeModel.calibrated(spec)
    W, H = spec.fabric_width, spec.fabric_height
    compute_iter = model.iteration_time_alg1(W, H, nz)
    rows: list[dict] = []
    for w in wafers:
        if w < 1:
            raise ConfigurationError(f"wafer counts must be >= 1, got {w}")
        layout = ShardLayout.build((w, 1), w * W, H)
        links = InterShardLinkModel(layout, nz, elem_bytes)
        # One exchange + two reductions per iteration (plus INIT's,
        # amortized into `iterations` here).
        links.charge_exchange()
        links.charge_reduce()
        links.charge_reduce()
        per_iter = links.counters
        if w == 1:
            link_iter = 0.0
        else:
            # Seams transfer concurrently (each wafer drives its own
            # cables), so the exchange costs one seam's bidirectional
            # payload; the two reductions' gather/broadcast messages
            # cross the cable one after another.
            seam_payload = 2 * H * nz * elem_bytes
            exchange_t = link.transfer_time(seam_payload)
            reduce_t = per_iter.reduce_messages * link.transfer_time(
                REDUCE_SCALAR_BYTES
            )
            link_iter = exchange_t + reduce_t
        total_iter = compute_iter + link_iter
        rows.append({
            "wafers": w,
            "fabric": [w * W, H],
            "nz": nz,
            "iterations": iterations,
            "cells": w * W * H * nz,
            "halo_bytes_per_iter": per_iter.halo_bytes,
            "reduce_bytes_per_iter": per_iter.reduce_bytes,
            "compute_s_per_iter": compute_iter,
            "link_s_per_iter": link_iter,
            "total_s": total_iter * iterations,
            "efficiency": compute_iter / total_iter,
            "cells_per_s": (w * W * H * nz) / total_iter,
        })
    return rows


__all__ = [
    "InterShardLinkModel",
    "MultiWaferLink",
    "REDUCE_SCALAR_BYTES",
    "ShardLinkCounters",
    "project_multiwafer",
    "shard_telemetry",
]
