"""The paper's contribution: matrix-free FV kernels on the dataflow fabric.

Composes the `repro.wse` simulator into the system of §III:

* `mapping`     — 3D mesh → 2D fabric data mapping (§III-A, Fig. 3);
* `exchange`    — the 4-step odd/even cardinal halo exchange of Table I,
                  driven by router switch positions (Fig. 4);
* `allreduce`   — the whole-fabric all-reduce (§III-C);
* `fv_kernel`   — the per-PE matrix-free Jx computation over a Z column,
                  vectorized with DSDs (§III-E.3);
* `cg_dataflow` — conjugate gradient as the 14-state event-driven machine
                  (§III-D), distributed over all PEs;
* `program`     — the engine-agnostic CG program description (phases:
                  halo exchange, FV apply, axpy/dot, all-reduce);
* `engines`     — the pluggable engine registry: ``"event"`` (per-PE
                  discrete-event oracle) and the array layouts
                  ``"vectorized"``, ``"fused"`` and ``"sharded"`` (plus
                  batched lanes) of one CG driver;
* `cg_driver`   — :class:`CgDriver`, the one CG loop of every array
                  layout, over the tiled kernel of `repro.fused`;
* `event_engine`— the event-driven engine composition;
* `solver`      — :class:`WseMatrixFreeSolver` and the batched/transient
                  entry points, all forwarding to one builder;
* `host`        — memcpy-style host staging (outside kernel timing, §IV/V):
                  the one staging every engine reads, the PE column
                  inventory and the memory rehearsal.
"""

from repro.core.mapping import ProblemMapping, PORT_FOR_DIRECTION
from repro.core.exchange import HaloExchange, ExchangeColors
from repro.core.allreduce import AllReduce, AllReduceColors
from repro.core.engines import DEFAULT_ENGINE, ENGINE_NAMES, create_engine
from repro.core.fv_kernel import PeKernelConfig, FvColumnKernel
from repro.core.program import CG_PHASES, CgProgram, EngineReport, Phase
from repro.core.solver import WseMatrixFreeSolver, WseSolveReport

__all__ = [
    "ProblemMapping",
    "PORT_FOR_DIRECTION",
    "HaloExchange",
    "ExchangeColors",
    "AllReduce",
    "AllReduceColors",
    "PeKernelConfig",
    "FvColumnKernel",
    "CG_PHASES",
    "CgProgram",
    "DEFAULT_ENGINE",
    "ENGINE_NAMES",
    "EngineReport",
    "Phase",
    "create_engine",
    "WseMatrixFreeSolver",
    "WseSolveReport",
]
