"""Cache-blocked tiled execution of the dataflow CG passes.

The kernel every non-event fabric engine runs: cache-tile selection
(:mod:`repro.fused.tiling`) and the tiled FV apply plus the fused CG
passes (:mod:`repro.fused.kernels`).  Every tile runs one stacked apply
over a contiguous window of the padded stencil buffer — full-width row
slabs in place, other tiles through a copy of their padded window.  The CG loop itself lives in
:class:`repro.core.cg_driver.CgDriver`; ``MachineSpec(engine="fused")``
is the layout that runs this kernel with auto-picked tiles.
"""

from repro.fused.kernels import FusedNumpyBackend, TiledApply
from repro.fused.tiling import (
    auto_tile,
    normalize_fused_tile,
    resolve_tile,
    tile_boxes,
)

__all__ = [
    "FusedNumpyBackend",
    "TiledApply",
    "auto_tile",
    "normalize_fused_tile",
    "resolve_tile",
    "tile_boxes",
]
