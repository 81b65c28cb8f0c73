"""Analytic charge packets for the multigrid V-cycle.

The mg preconditioner is a *program-level* construct: every engine runs
the identical V-cycle (``repro.mg.cycle.mg_apply``) host-side, in the
solve's working precision, so what distinguishes engines is only
*where* the charges land — and
they must land identically, or the event/vectorized/sharded/fused
parity pinning breaks.  This module builds ONE charge packet per
hierarchy and machine (a ``_ChargeModel``-compatible object holding
exactly one V-cycle's instruction counts, memory/fabric traffic and
critical path) that every engine merges at every preconditioner
application (``iterations + 1`` applications per solve: INIT plus one
per UPDATE_RES).

The per-level cost recipe models the V-cycle as the fabric would run
it, per term: damped-Jacobi sweeps that each apply the stencil and then
update ``z``.  It does not follow the host's bound schedule
(``repro.mg.hierarchy``), which forms ``c = ωD⁻¹·rhs`` once, makes the
first sweep from zero ``z = c`` without an apply and runs every other
sweep as one DIA sweep of ``S = I − ωD⁻¹A``; so the host's arithmetic
can change without moving a counter.  It is charged on a *per-level*
model whose fabric dimensions are that level's coarsened grid (coarse
levels occupy a shrinking corner of the fabric):

* each damped-Jacobi sweep: one halo-exchange round of ``z``, one
  matrix-free apply (FMUL diagonal + FSUB/FMA per face direction), and
  the FSUB/FMUL/FMUL/FADD update;
* the mid-cycle residual: one more exchange + apply + FSUB;
* restriction: one coarse-level exchange round (the aggregate gather)
  plus two coarse FADD sweeps (the lateral pair-sums);
* prolongation: one coarse-level exchange round (the correction
  scatter) plus the fine-level FADD (``z += P zc``);
* the coarsest solve: one reduction round plus two FMA sweeps for the
  dense backsolve-and-broadcast, or the fixed fallback smoothing sweeps
  when the level is too large for a dense inverse.

Like the vectorized engine's own model, this is an *analytic* cost
model over the same ISA cost tables — deterministic, engine-independent
and exactly reproducible, which is all the parity contract requires.
"""

from __future__ import annotations

from repro.mg.hierarchy import COARSE_FALLBACK_SWEEPS, MgHierarchy
from repro.wse.isa import Op

#: vec-op sequence of one matrix-free level apply: the diagonal FMUL,
#: then one FSUB (difference) + FMA (coefficient accumulate) per face
#: direction (4 lateral + 2 vertical).
_APPLY_OPS = (Op.FMUL,) + (Op.FSUB, Op.FMA) * 6

#: vec-op sequence of one damped-Jacobi update after the apply:
#: ``r − Az``, ``× inv_diag``, ``× ω``, ``z += …``.
_SMOOTH_UPDATE_OPS = (Op.FSUB, Op.FMUL, Op.FMUL, Op.FADD)


def _charge_apply(m) -> None:
    for op in _APPLY_OPS:
        m.vec(op)


def _charge_sweep(m) -> None:
    """One damped-Jacobi sweep: halo round + apply + update."""
    m.charge_exchange()
    _charge_apply(m)
    for op in _SMOOTH_UPDATE_OPS:
        m.vec(op)


def build_mg_packet(model, hierarchy: MgHierarchy):
    """One V-cycle's charges as a mergeable packet.

    ``model`` is the engine's fine-grid charge model (only its machine
    parameters — dims, SIMD width, spec — are read); the returned packet
    is a model of the same class, mergeable with ``merge_scaled``.  It
    is built once per hierarchy and machine, kept in
    ``hierarchy.packets``, and only read by the engines that share it.
    """
    cls = type(model)
    key = (cls, model.width, model.height, model.depth, model.simd_width,
           model.spec, model.suppress)
    if key not in hierarchy.packets:
        hierarchy.packets[key] = _packet(cls, model, hierarchy)
    return hierarchy.packets[key]


def _packet(cls, model, hierarchy: MgHierarchy):
    def level_model(shape):
        return cls(
            width=shape[0], height=shape[1], depth=shape[2],
            simd_width=model.simd_width, spec=model.spec,
            suppress=model.suppress, kind_counts={}, kernel_plans={},
        )

    packet = level_model((model.width, model.height, model.depth))
    levels = hierarchy.levels
    sweeps = hierarchy.smoother_iters
    for index, level in enumerate(levels):
        m = level_model(level.shape)
        last = index == len(levels) - 1
        if last:
            if level.dense_inv is not None:
                # Reduce the coarse residual, backsolve, broadcast.
                m.charge_allreduce()
                m.vec(Op.FMA)
                m.vec(Op.FMA)
            else:
                for _ in range(COARSE_FALLBACK_SWEEPS):
                    _charge_sweep(m)
        else:
            for _ in range(2 * sweeps):  # pre + post smoothing
                _charge_sweep(m)
            # Mid-cycle residual for the restriction.
            m.charge_exchange()
            _charge_apply(m)
            m.vec(Op.FSUB)
            # Restriction: aggregate gather + the two lateral pair-sums.
            coarse = level_model(levels[index + 1].shape)
            coarse.charge_exchange()
            coarse.vec(Op.FADD)
            coarse.vec(Op.FADD)
            # Prolongation: correction scatter + the fine-level add.
            coarse.charge_exchange()
            m.vec(Op.FADD)
            packet.merge_scaled(coarse, 1)
        packet.merge_scaled(m, 1)
    return packet


def merge_mg_packet(counters, trace, packet, n: int) -> None:
    """Fold ``n`` V-cycles of packet charges into raw counter/trace
    objects (the event engine's post-run path — it has no
    ``_ChargeModel`` to merge into, only the fabric's merged
    ``PerfCounters``/``FabricTrace``).

    Mirrors ``_ChargeModel.merge_scaled`` plus the makespan/critical-path
    fields, and extends idle time by the packet's own idle so the
    per-run identity ``makespan · PEs = compute + idle`` is preserved.
    """
    if n <= 0:
        return
    counters.add_scaled(packet.counters, n)
    trace.add_scaled(packet.trace, n)
    trace.makespan_cycles += packet.makespan * n
    trace.max_compute_cycles += packet.pe_compute * n
    counters.idle_cycles += max(
        0, (packet.makespan * packet.num_pes - packet.counters.compute_cycles) * n
    )


__all__ = ["build_mg_packet", "merge_mg_packet"]
