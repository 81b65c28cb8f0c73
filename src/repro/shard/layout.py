"""Domain decomposition of the fabric into rectangular shards.

A :class:`ShardLayout` is a validated ``shards_x x shards_y`` tensor
decomposition of the ``nx x ny`` lateral grid: each shard owns a
contiguous block of whole PE columns (the z axis is never split — a
column is the unit of PE state, exactly as in the paper's mapping).
Splits are balanced (``numpy.array_split`` semantics: the first
``n % parts`` shards get one extra plane), so shard counts that do not
divide the grid are first-class rather than an error.

The layout is pure geometry: boxes, neighbour topology, boundary
extents, and the shard-major tile boxes the sharded layout's kernel
sweeps (:meth:`ShardLayout.tile_boxes`).  The analytic link accounting
lives in :mod:`repro.shard.links`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fused.tiling import tile_boxes
from repro.spec import normalize_shard_shape
from repro.util.errors import ConfigurationError

#: The four lateral directions, as (attribute, dx, dy) in fabric
#: coordinates (x grows eastward, y grows southward — matrix style, like
#: :class:`repro.wse.router.Port`).
DIRECTIONS = (
    ("west", -1, 0),
    ("east", 1, 0),
    ("north", 0, -1),
    ("south", 0, 1),
)


def _split(n: int, parts: int) -> list[tuple[int, int]]:
    """Balanced contiguous half-open ranges covering ``range(n)``."""
    base, extra = divmod(n, parts)
    ranges, start = [], 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


@dataclass(frozen=True)
class ShardBox:
    """One shard's owned block of the fabric (half-open ranges)."""

    index: int
    ix: int
    iy: int
    x0: int
    x1: int
    y0: int
    y1: int

    @property
    def nx(self) -> int:
        return self.x1 - self.x0

    @property
    def ny(self) -> int:
        return self.y1 - self.y0

    @property
    def columns(self) -> int:
        """PE columns (lateral cells) this shard owns."""
        return self.nx * self.ny


@dataclass(frozen=True)
class ShardLayout:
    """A validated decomposition of an ``nx x ny`` fabric into shards.

    Boxes are ordered row-major in shard coordinates
    (``index = ix * shards_y + iy``); that order is also the
    deterministic reduction order of cross-shard dot products.
    """

    shards_x: int
    shards_y: int
    nx: int
    ny: int
    boxes: tuple[ShardBox, ...]

    @classmethod
    def build(cls, shard_shape, nx: int, ny: int) -> "ShardLayout":
        sx, sy = normalize_shard_shape(shard_shape)
        if sx > nx or sy > ny:
            raise ConfigurationError(
                f"shard_shape ({sx}, {sy}) needs at least one grid plane "
                f"per shard; the fabric is {nx} x {ny}"
            )
        xr = _split(nx, sx)
        yr = _split(ny, sy)
        boxes = tuple(
            ShardBox(
                index=ix * sy + iy, ix=ix, iy=iy,
                x0=xr[ix][0], x1=xr[ix][1], y0=yr[iy][0], y1=yr[iy][1],
            )
            for ix in range(sx)
            for iy in range(sy)
        )
        return cls(shards_x=sx, shards_y=sy, nx=nx, ny=ny, boxes=boxes)

    @property
    def n_shards(self) -> int:
        return self.shards_x * self.shards_y

    def neighbor_index(self, box: ShardBox, direction: str) -> int | None:
        """The shard adjacent to ``box`` in ``direction``, or ``None`` at
        the fabric edge."""
        for name, dx, dy in DIRECTIONS:
            if name == direction:
                ix, iy = box.ix + dx, box.iy + dy
                if 0 <= ix < self.shards_x and 0 <= iy < self.shards_y:
                    return ix * self.shards_y + iy
                return None
        raise ConfigurationError(f"unknown direction {direction!r}")

    def neighbors(self, box: ShardBox) -> dict[str, int | None]:
        """All four lateral neighbours of ``box`` (``None`` off-fabric)."""
        return {name: self.neighbor_index(box, name) for name, _, _ in DIRECTIONS}

    def boundaries(self) -> list[tuple[int, int, int]]:
        """Undirected inter-shard boundaries as ``(a, b, extent)``.

        ``extent`` is the number of shared boundary cell columns (each
        exchange moves ``extent * nz`` values per direction across it).
        """
        out: list[tuple[int, int, int]] = []
        for box in self.boxes:
            east = self.neighbor_index(box, "east")
            if east is not None:
                out.append((box.index, east, box.ny))
            south = self.neighbor_index(box, "south")
            if south is not None:
                out.append((box.index, south, box.nx))
        return out

    def tile_boxes(
        self, tile: tuple[int, int] | None = None
    ) -> list[tuple[int, int, int, int]]:
        """The kernel's ``(x0, x1, y0, y1)`` tile boxes, shard-major.

        Shards come in index order; each contributes its own
        :func:`~repro.fused.tiling.tile_boxes` over ``tile`` (one tile
        per shard when ``None``), offset to the shard's origin.  The
        list order is the dot-reduction order: shard order, then tile
        order within a shard.
        """
        return [
            (box.x0 + x0, box.x0 + x1, box.y0 + y0, box.y0 + y1)
            for box in self.boxes
            for x0, x1, y0, y1 in tile_boxes(
                box.nx, box.ny, tile or (box.nx, box.ny)
            )
        ]

    def to_dict(self) -> dict:
        return {
            "shards_x": self.shards_x,
            "shards_y": self.shards_y,
            "nx": self.nx,
            "ny": self.ny,
            "columns_per_shard": [box.columns for box in self.boxes],
        }


__all__ = [
    "DIRECTIONS",
    "ShardBox",
    "ShardLayout",
    "normalize_shard_shape",
]
