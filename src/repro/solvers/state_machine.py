"""CG as a 14-state machine (§III-D).

On the dataflow architecture there is no host-style control flow: every
``if``/``while`` of Algorithm 1 becomes a state transition triggered by a
completion callback.  The paper reports devising *14 states*.  This module
defines that state graph once; the event oracle
(``repro.core.cg_dataflow``) drives it asynchronously on the simulated
fabric and the array engines (``repro.core.cg_driver``) walk the same
graph, so every engine's ``state_visits`` is a path through
:data:`CG_TRANSITIONS` (tested).

State graph (conditionals are transitions, §III-D).  INIT evaluates
``r0 = b - J y0`` on the fabric, so it routes through the halo exchange
of ``y0`` and the ``r^T r`` all-reduce before the first ITER_CHECK:

    INIT -> EXCHANGE                  (exchange y0)
    ITER_CHECK -> CONVERGED           (r^T r < ε: a converged start)
    ITER_CHECK -> MAXITER             (k >= k_max)
    ITER_CHECK -> EXCHANGE            (otherwise)
    EXCHANGE -> COMPUTE_JX            (halo data arrived)
    COMPUTE_JX -> DOT_PAP             (local Jp done; start all-reduce)
    COMPUTE_JX -> DOT_RR              (INIT: r0 = b - J y0 done)
    DOT_PAP -> COMPUTE_ALPHA          (all-reduce callback)
    COMPUTE_ALPHA -> UPDATE_SOL
    UPDATE_SOL -> UPDATE_RES
    UPDATE_RES -> DOT_RR              (start all-reduce)
    DOT_RR -> THRES_CHECK             (all-reduce callback)
    DOT_RR -> ITER_CHECK              (INIT: r0^T r0 arrived)
    THRES_CHECK -> CONVERGED          (r^T r < ε)
    THRES_CHECK -> COMPUTE_BETA       (otherwise)
    COMPUTE_BETA -> UPDATE_DIR
    UPDATE_DIR -> ITER_CHECK
    CONVERGED, MAXITER                (terminal)
"""

from __future__ import annotations

import enum


class CGState(enum.Enum):
    """The 14 states orchestrating Algorithm 1 on the dataflow machine."""

    INIT = enum.auto()
    ITER_CHECK = enum.auto()
    EXCHANGE = enum.auto()
    COMPUTE_JX = enum.auto()
    DOT_PAP = enum.auto()
    COMPUTE_ALPHA = enum.auto()
    UPDATE_SOL = enum.auto()
    UPDATE_RES = enum.auto()
    DOT_RR = enum.auto()
    THRES_CHECK = enum.auto()
    COMPUTE_BETA = enum.auto()
    UPDATE_DIR = enum.auto()
    CONVERGED = enum.auto()
    MAXITER = enum.auto()


#: Number of states, matching the paper's "14 states" (§III-D).
CG_NUM_STATES = len(CGState)

#: Legal transitions of the state graph (target sets per source state).
CG_TRANSITIONS: dict[CGState, tuple[CGState, ...]] = {
    CGState.INIT: (CGState.EXCHANGE,),
    CGState.ITER_CHECK: (CGState.EXCHANGE, CGState.CONVERGED, CGState.MAXITER),
    CGState.EXCHANGE: (CGState.COMPUTE_JX,),
    CGState.COMPUTE_JX: (CGState.DOT_PAP, CGState.DOT_RR),
    CGState.DOT_PAP: (CGState.COMPUTE_ALPHA,),
    CGState.COMPUTE_ALPHA: (CGState.UPDATE_SOL,),
    CGState.UPDATE_SOL: (CGState.UPDATE_RES,),
    CGState.UPDATE_RES: (CGState.DOT_RR,),
    CGState.DOT_RR: (CGState.THRES_CHECK, CGState.ITER_CHECK),
    CGState.THRES_CHECK: (CGState.CONVERGED, CGState.COMPUTE_BETA),
    CGState.COMPUTE_BETA: (CGState.UPDATE_DIR,),
    CGState.UPDATE_DIR: (CGState.ITER_CHECK,),
    CGState.CONVERGED: (),
    CGState.MAXITER: (),
}

#: States in which the fabric performs collective communication.
COMMUNICATING_STATES = (CGState.EXCHANGE, CGState.DOT_PAP, CGState.DOT_RR)

#: Terminal states.
TERMINAL_STATES = (CGState.CONVERGED, CGState.MAXITER)
