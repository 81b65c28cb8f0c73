"""Conjugate gradient on the fabric: the 14-state machine, distributed.

Every PE drives the state graph of :mod:`repro.solvers.state_machine`
independently; synchronization is implicit in the collectives (the halo
exchange gates COMPUTE_JX, the all-reduce gates COMPUTE_ALPHA and
THRES_CHECK), exactly as §III-D describes: "All conditional checks ... are
converted into state transitions."

Buffers per PE (names shared with `repro.core.host`):

    y   — solution iterate (pressure), exchanged once during INIT;
    p   — search direction, exchanged every iteration;
    r   — residual column;
    b   — right-hand side column (read once, in INIT);
    Jx  — operator output / accumulator;
    halo_W/E/N/S, c_* / ups_* / lam_* — see `fv_kernel` / `exchange`.

Scalars (α, β, r^T r, p^T J p) are held per PE — every PE computes its own
copy from the broadcast totals, as on the real machine.

``fixed_iterations`` mode runs exactly N iterations with the convergence
check disabled — the paper's Table IV methodology ("the run without
computation never converged, we terminated it at step 225").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.allreduce import AllReduce
from repro.core.exchange import HaloExchange
from repro.core.fv_kernel import FvColumnKernel, PeKernelConfig
from repro.core.program import CgProgram
from repro.solvers.state_machine import CGState
from repro.util.errors import ConfigurationError
from repro.wse.dsd import Dsd
from repro.wse.fabric import Fabric
from repro.wse.pe import ProcessingElement


@dataclass
class PeCgState:
    """Per-PE CG scalars and bookkeeping."""

    k: int = 0
    rtr: float = 0.0
    rtr_new: float = 0.0
    pap: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    state: CGState = CGState.INIT
    terminal: bool = False


@dataclass
class DataflowCGResult:
    """Fabric-side solve outcome (solution gathered by the solver)."""

    iterations: int
    converged: bool
    residual_history: list[float] = field(default_factory=list)
    state_visits: list[CGState] = field(default_factory=list)


class DataflowCG:
    """Distributed CG over all PEs of a fabric.

    Parameters
    ----------
    fabric, exchange, allreduce, kernel:
        The composed machinery (routers/buffers already programmed).
    kernel_configs:
        Per-PE kernel configuration keyed by (x, y) (Dirichlet kinds
        differ between well columns and interior PEs).
    program:
        The engine-agnostic :class:`~repro.core.program.CgProgram`:
        resolved tolerance (Algorithm 1's ε on the *global* ``r^T r``),
        iteration cap, ``fixed_iterations`` (Table IV methodology),
        Jacobi preconditioning (purely PE-local diagonal scaling — the
        CG scalars become ``r^T z`` and ε applies to ``r^T z``).
    """

    def __init__(
        self,
        fabric: Fabric,
        exchange: HaloExchange,
        allreduce: AllReduce,
        kernel: FvColumnKernel,
        kernel_configs: dict[tuple[int, int], PeKernelConfig],
        program: CgProgram,
        *,
        track_states_for: tuple[int, int] = (0, 0),
        mg_hierarchy=None,
    ):
        self.fabric = fabric
        self.exchange = exchange
        self.allreduce = allreduce
        self.kernel = kernel
        self.kernel_configs = kernel_configs
        self.program = program
        self.tol_rtr = float(program.tol_rtr)
        self.max_iters = int(program.max_iters)
        self.fixed_iterations = program.fixed_iterations
        self.jacobi = bool(program.jacobi)
        self.mg = bool(program.mg)
        self.mg_hierarchy = mg_hierarchy
        if self.mg and mg_hierarchy is None:
            raise ConfigurationError(
                "an mg-preconditioned program needs its hierarchy staged"
            )
        #: V-cycle applications performed (the engine folds this many
        #: analytic mg charge packets into the run's counters/trace).
        self.mg_applies = 0
        self._mg_waiting: list[tuple[ProcessingElement, Callable[[], None]]] = []
        self._pe_state: dict[tuple[int, int], PeCgState] = {
            (pe.x, pe.y): PeCgState() for pe in fabric.iter_pes()
        }
        self._tracked = track_states_for
        self.result = DataflowCGResult(iterations=0, converged=False)
        self._terminal_count = 0
        self._num_pes = fabric.width * fabric.height

    # -- helpers -----------------------------------------------------------------

    def _st(self, pe: ProcessingElement) -> PeCgState:
        return self._pe_state[(pe.x, pe.y)]

    def _visit(self, pe: ProcessingElement, state: CGState) -> None:
        st = self._st(pe)
        st.state = state
        # A couple of cycles of sequencer work per transition.
        pe.scalar_cycles(2)
        if (pe.x, pe.y) == self._tracked:
            self.result.state_visits.append(state)

    def _config(self, pe: ProcessingElement) -> PeKernelConfig:
        return self.kernel_configs[(pe.x, pe.y)]

    @property
    def check_convergence(self) -> bool:
        return self.fixed_iterations is None

    # -- mg preconditioning (host-assisted barrier) ------------------------------

    def _mg_submit(self, pe: ProcessingElement, cont: Callable[[], None]) -> None:
        """Park ``pe`` at the V-cycle barrier; the last arrival runs the
        (host-assisted) V-cycle over the gathered residual and resumes
        every PE with its ``z`` column written back.  The float64 gather
        casts exactly into the hierarchy's dtype, so ``z`` is bitwise the
        array engines'.

        The numerical work happens host-side — like tolerance resolution,
        it is a *program-level* construct shared verbatim by every engine
        so ``z`` stays bitwise identical — while the fabric cost of the
        cycle is charged analytically by the engine from one
        :func:`repro.mg.build_mg_packet` per application (see
        ``mg_applies``).
        """
        self._mg_waiting.append((pe, cont))
        if len(self._mg_waiting) < self._num_pes:
            return
        waiting, self._mg_waiting = self._mg_waiting, []
        from repro.mg import mg_apply

        nz = waiting[0][0].memory.get("r").shape[0]
        r = np.zeros((self.fabric.width, self.fabric.height, nz), dtype=np.float64)
        for peer, _ in waiting:
            r[peer.x, peer.y, :] = peer.host_read("r")
        z = mg_apply(self.mg_hierarchy, r)  # host_write casts each column
        self.mg_applies += 1
        now = self.fabric.now
        for peer, peer_cont in waiting:
            peer.host_write("z", z[peer.x, peer.y, :])
            self.fabric.schedule_task(peer, now, peer_cont)

    # -- program entry --------------------------------------------------------------

    def launch(self) -> None:
        """Kick off INIT on every PE (host-side program start)."""
        for pe in self.fabric.iter_pes():
            self.fabric.schedule_task(pe, self.fabric.now, lambda pe=pe: self._init(pe))

    # -- INIT: r0 = b - A y0 ; p0 = r0 ; rtr = <r0, r0> --------------------------------

    def _init(self, pe: ProcessingElement) -> None:
        self._visit(pe, CGState.INIT)
        self._visit(pe, CGState.EXCHANGE)
        self.exchange.begin_pe(pe, "y", self._init_after_halo)

    def _init_after_halo(self, pe: ProcessingElement) -> None:
        self._visit(pe, CGState.COMPUTE_JX)
        self.kernel.run(pe, self._config(pe), x_buffer="y")
        r = Dsd(pe.memory.get("r"))
        b = Dsd(pe.memory.get("b"))
        jx = Dsd(pe.memory.get("Jx"))
        p = Dsd(pe.memory.get("p"))
        pe.fsubs(r, b, jx)
        if self.mg:
            self._mg_submit(pe, lambda pe=pe: self._init_after_mg(pe))
            return
        if self.jacobi:
            z = Dsd(pe.memory.get("z"))
            inv = Dsd(pe.memory.get("inv_diag"))
            pe.fmuls(z, r, inv)
            pe.fmovs(p, z)
            local = pe.dot_local(r, z)
        else:
            pe.fmovs(p, r)
            local = pe.dot_local(r, r)
        self._visit(pe, CGState.DOT_RR)
        self.allreduce.submit(pe, local, lambda total, pe=pe: self._init_rtr(pe, total))

    def _init_after_mg(self, pe: ProcessingElement) -> None:
        r = Dsd(pe.memory.get("r"))
        p = Dsd(pe.memory.get("p"))
        z = Dsd(pe.memory.get("z"))
        pe.fmovs(p, z)
        local = pe.dot_local(r, z)
        self._visit(pe, CGState.DOT_RR)
        self.allreduce.submit(pe, local, lambda total, pe=pe: self._init_rtr(pe, total))

    def _init_rtr(self, pe: ProcessingElement, total: float) -> None:
        st = self._st(pe)
        st.rtr = total
        if (pe.x, pe.y) == self._tracked:
            self.result.residual_history.append(total)
        self._iter_check(pe)

    # -- ITER_CHECK -> EXCHANGE -> COMPUTE_JX -> DOT_PAP --------------------------------

    def _iter_check(self, pe: ProcessingElement) -> None:
        self._visit(pe, CGState.ITER_CHECK)
        st = self._st(pe)
        limit = self.fixed_iterations if self.fixed_iterations is not None else self.max_iters
        if self.check_convergence and st.rtr < self.tol_rtr:
            self._terminal(pe, CGState.CONVERGED)
            return
        if st.k >= limit:
            self._terminal(pe, CGState.MAXITER)
            return
        self._visit(pe, CGState.EXCHANGE)
        self.exchange.begin_pe(pe, "p", self._after_halo)

    def _after_halo(self, pe: ProcessingElement) -> None:
        self._visit(pe, CGState.COMPUTE_JX)
        self.kernel.run(pe, self._config(pe), x_buffer="p")
        p = Dsd(pe.memory.get("p"))
        jx = Dsd(pe.memory.get("Jx"))
        local_pap = pe.dot_local(p, jx)
        self._visit(pe, CGState.DOT_PAP)
        self.allreduce.submit(pe, local_pap, lambda total, pe=pe: self._after_pap(pe, total))

    # -- COMPUTE_ALPHA -> UPDATE_SOL -> UPDATE_RES -> DOT_RR -------------------------------

    def _after_pap(self, pe: ProcessingElement, pap_total: float) -> None:
        st = self._st(pe)
        st.pap = pap_total
        self._visit(pe, CGState.COMPUTE_ALPHA)
        if pap_total == 0.0:
            # Only legal with FP suppressed (Table IV runs); otherwise the
            # SPD operator guarantees pap > 0 for a nonzero direction.
            if not pe.suppress_fp and self.check_convergence:
                raise ConfigurationError(
                    f"PE ({pe.x},{pe.y}): p^T A p = 0 with live arithmetic"
                )
            st.alpha = 0.0
        else:
            st.alpha = st.rtr / pap_total
        pe.scalar_cycles(4)  # scalar divide on the CE

        y = Dsd(pe.memory.get("y"))
        p = Dsd(pe.memory.get("p"))
        r = Dsd(pe.memory.get("r"))
        jx = Dsd(pe.memory.get("Jx"))
        self._visit(pe, CGState.UPDATE_SOL)
        pe.fmacs(y, st.alpha, p)
        self._visit(pe, CGState.UPDATE_RES)
        pe.fmacs(r, -st.alpha, jx)
        if self.mg:
            self._mg_submit(pe, lambda pe=pe: self._body_after_mg(pe))
            return
        if self.jacobi:
            z = Dsd(pe.memory.get("z"))
            inv = Dsd(pe.memory.get("inv_diag"))
            pe.fmuls(z, r, inv)
            local_rtr = pe.dot_local(r, z)
        else:
            local_rtr = pe.dot_local(r, r)
        self._visit(pe, CGState.DOT_RR)
        self.allreduce.submit(pe, local_rtr, lambda total, pe=pe: self._after_rtr(pe, total))

    def _body_after_mg(self, pe: ProcessingElement) -> None:
        r = Dsd(pe.memory.get("r"))
        z = Dsd(pe.memory.get("z"))
        local_rtr = pe.dot_local(r, z)
        self._visit(pe, CGState.DOT_RR)
        self.allreduce.submit(pe, local_rtr, lambda total, pe=pe: self._after_rtr(pe, total))

    # -- THRES_CHECK -> (CONVERGED | COMPUTE_BETA -> UPDATE_DIR -> ITER_CHECK) -----------------

    def _after_rtr(self, pe: ProcessingElement, rtr_total: float) -> None:
        st = self._st(pe)
        st.rtr_new = rtr_total
        st.k += 1
        self._visit(pe, CGState.THRES_CHECK)
        if (pe.x, pe.y) == self._tracked:
            self.result.residual_history.append(rtr_total)
        if self.check_convergence and rtr_total < self.tol_rtr:
            self._terminal(pe, CGState.CONVERGED)
            return
        self._visit(pe, CGState.COMPUTE_BETA)
        st.beta = (st.rtr_new / st.rtr) if st.rtr > 0 else 0.0
        pe.scalar_cycles(4)
        self._visit(pe, CGState.UPDATE_DIR)
        p = Dsd(pe.memory.get("p"))
        pe.fmuls(p, p, st.beta)
        if self.jacobi or self.mg:
            pe.fadds(p, p, Dsd(pe.memory.get("z")))
        else:
            pe.fadds(p, p, Dsd(pe.memory.get("r")))
        st.rtr = st.rtr_new
        self._iter_check(pe)

    # -- termination ------------------------------------------------------------------

    def _terminal(self, pe: ProcessingElement, state: CGState) -> None:
        st = self._st(pe)
        if st.terminal:  # pragma: no cover - guard
            raise ConfigurationError(f"PE ({pe.x},{pe.y}) terminated twice")
        self._visit(pe, state)
        st.terminal = True
        self._terminal_count += 1
        if self._terminal_count == self._num_pes:
            tracked = self._pe_state[self._tracked]
            self.result.iterations = tracked.k
            self.result.converged = all(
                s.state is CGState.CONVERGED for s in self._pe_state.values()
            )
