"""Geometric multigrid hierarchy for the matrix-free FV operator.

The fine level *is* the engine operator: per-axis face coefficient
arrays (``FluxCoefficients.cx/cy/cz``), an optional accumulation
diagonal (the transient backward-Euler term), and the Dirichlet mask
whose rows the operator replaces with identity.  Coarser levels are
built by **lateral semi-coarsening** — 2×2 cell aggregation in x/y, the
vertical axis untouched, matching the fabric layout where each PE owns a
full z-column — with **piecewise-constant Galerkin** coarse operators:

* a coarse face coefficient is the sum of the fine face coefficients
  crossing it (pair-sums of the odd-index fine faces);
* the coarse accumulation diagonal is the aggregate sum;
* the coarse diagonal is ``Σ coarse faces + acc`` — exactly the
  aggregate block-sum of the fine operator (the FV row-sum identity
  ``Σ_j A_ij = acc_i + Σ_{faces leaving the aggregate} c``), so every
  level is the variational (RAP) coarse operator for piecewise-constant
  transfer and the V-cycle stays symmetric positive definite.

Every level's operator is the one host stencil
(:class:`repro.fv.operator.FlatStencil`); coarsening pair-sums its
per-cell faces directly.

Restriction is the aggregate sum, prolongation its exact adjoint
(injection); a coarse cell is masked when *any* fine cell in its
aggregate is masked, and residuals/corrections are kept exactly zero on
masked cells — the invariant the engine operator relies on.

At build each level lays out its V-cycle operands (:class:`MgLevel`),
and the whole V-cycle is bound once as the hierarchy's ``schedule`` of
``(kernel, operands)`` steps on the levels' scratch, which
:func:`repro.mg.mg_apply` runs in order.

A hierarchy is built in one ``dtype``, the solve's working precision:
sums, diagonals, inverses and operator rows are formed in float64 and
cast once into it.  Every engine of one dtype runs the V-cycle on the
same hierarchy, so ``z`` is bitwise identical across engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Private: the compiled kernels behind ``dia_array``/``csr_array``/``csc_array`` products.
from scipy.sparse import _sparsetools

from repro.fv.coefficients import cell_faces, diagonal_from_faces
from repro.fv.operator import FlatStencil, dia_operands
from repro.spec import MG_MAX_LEVELS as MAX_MG_LEVELS, MG_MAX_SMOOTHER_ITERS
from repro.util.errors import ConfigurationError

#: Default pre/post weighted-Jacobi sweeps per level.
DEFAULT_SMOOTHER_ITERS = 2

#: Weighted-Jacobi damping factor (the classic 2/3 choice is robust for
#: the 7-point heterogeneous stencil under 2×2 lateral aggregation).
DEFAULT_OMEGA = 2.0 / 3.0

#: Largest coarsest-level size (cells) that gets an exact dense solve;
#: beyond it the coarsest level falls back to fixed smoothing sweeps
#: (only reachable by explicitly capping ``mg_levels`` on a big grid).
DENSE_SOLVE_MAX_CELLS = 4096

#: Weighted-Jacobi sweeps used on an over-large coarsest level.
COARSE_FALLBACK_SWEEPS = 8


def _pair_sum(a: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sum adjacent index pairs along ``axis`` (odd tail rides alone); on
    a boolean ``a`` the sum is a logical or."""
    lead = (slice(None),) * axis
    even = a[lead + (slice(0, None, 2),)]
    if out is None:
        out = even.copy()
    else:
        np.copyto(out, even)
    out[lead + (slice(0, a.shape[axis] // 2),)] += a[lead + (slice(1, None, 2),)]
    return out


@dataclass
class MgLevel:
    """One level: its operator, diagonals and mask, and the V-cycle's
    scratch and operands, laid out once at build.

    ``op`` holds the level's per-cell faces, its diagonal
    ``Σ faces + acc`` with 1.0 on masked rows, and the mask as identity
    rows, in the level's dtype (``op.dtype``).  The scratch is
    allocated once with the level, in that dtype:

    * ``rhs`` — the level's right-hand side (level 0: the copy of the
      ``r`` the V-cycle is applied to; coarser: the restricted residual);
    * ``c`` — ``ωD⁻¹·rhs``, formed once per cycle;
    * ``z`` and ``az`` — the correction and the other sweep buffer: a
      sweep writes ``c + S z`` into the one not holding ``z``, and the
      residual goes there too.  ``z`` holds the correction when a cycle
      ends.

    The operands are in the level's dtype, formed from ``op`` in float64
    and cast once, and none refers back to a level: ``rows``, the masked
    cells as a flat index; ``weight``, ``ωD⁻¹`` with zero on masked rows,
    and ``smoother``, the :func:`~repro.fv.operator.dia_operands` of
    ``S = I − ωD⁻¹A`` with zero masked rows (:meth:`lay_out`); and, on
    all but the coarsest level, ``negated``, those of ``−A`` with zero
    masked rows, and the transfers (:func:`_lay_out_transfers`).
    """

    op: FlatStencil
    acc: np.ndarray  # (nx, ny, nz) float64 accumulation diagonal
    mask: np.ndarray  # (nx, ny, nz) bool — identity rows
    dense_inv: np.ndarray | None = None  # coarsest-level exact inverse
    rhs: np.ndarray = field(init=False, repr=False)
    c: np.ndarray = field(init=False, repr=False)
    z: np.ndarray = field(init=False, repr=False)
    az: np.ndarray = field(init=False, repr=False)
    rows: np.ndarray = field(init=False, repr=False)
    weight: np.ndarray = field(init=False, repr=False)
    smoother: tuple = field(init=False, repr=False)
    negated: tuple = field(init=False, repr=False, default=())
    restriction: tuple = field(init=False, repr=False, default=())
    prolongation: tuple = field(init=False, repr=False, default=())

    def __post_init__(self) -> None:
        dtype = self.op.dtype
        self.rhs, self.c, self.z, self.az = (np.empty(self.shape, dtype) for _ in range(4))
        self.rows = np.flatnonzero(self.mask)

    def lay_out(self, omega: float) -> None:
        """Lay out ``weight`` and ``smoother`` for damping ``omega``."""
        op = self.op
        w = omega / op.diagonal.astype(np.float64)
        w[self.mask] = 0.0
        self.weight = w.astype(op.dtype)
        self.smoother = dia_operands(op.faces, np.where(self.mask, 0.0, 1.0 - omega), w, op.dtype)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.op.shape

    @property
    def cells(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz


def _lay_out_transfers(fine: MgLevel, coarse: MgLevel) -> None:
    """Lay out what ``fine`` hands its residual to ``coarse`` with:
    ``negated`` (``−A``), and the transfers ``(rows, columns, indptr,
    indices, data)``.  Coarse cell ``(I, J)`` aggregates fine cells
    ``2I, 2I+1`` by ``2J, 2J+1``: ``restriction`` is the CSR matrix of
    their sums, each row in ascending flat order and empty on a masked
    coarse cell, and ``prolongation`` its transpose, the same arrays
    read as CSC (``csc_matvec``)."""
    keep = ~fine.mask  # -A's couplings scale: 0/1, exact in the level's dtype
    fine.negated = dia_operands(fine.op.faces, np.where(keep, -fine.op.diagonal, 0.0),
                                keep.astype(fine.op.dtype), fine.op.dtype)
    nx, ny, nz = fine.shape
    cx, cy, _ = coarse.shape
    cells = np.full((2 * cx, 2 * cy, nz), -1, np.int32)  # -1 past an odd edge
    cells[:nx, :ny] = np.arange(fine.cells, dtype=np.int32).reshape(fine.shape)
    members = cells.reshape(cx, 2, cy, 2, nz).transpose(0, 2, 4, 1, 3).reshape(-1, 4)
    members[coarse.rows] = -1
    indices = members[members >= 0]
    sizes = np.outer(np.minimum(nx - 2 * np.arange(cx), 2), np.minimum(ny - 2 * np.arange(cy), 2))
    indptr = np.zeros(coarse.cells + 1, np.int32)
    np.cumsum(sizes[:, :, None] * ~coarse.mask, out=indptr[1:])
    csr = (indptr, indices, np.ones(indices.size, fine.op.dtype))
    fine.restriction = (coarse.cells, fine.cells, *csr)
    fine.prolongation = (fine.cells, coarse.cells, *csr)


def _level(faces, acc: np.ndarray, mask: np.ndarray, dtype) -> MgLevel:
    """The level of float64 ``faces`` and ``acc``, cast into ``dtype``."""
    diag = diagonal_from_faces(faces)
    diag += acc
    diag[mask] = 1.0
    if not np.all(diag > 0):
        raise ConfigurationError(
            "mg hierarchy needs a positive operator diagonal on every "
            "level; the problem's coefficients/accumulation produce a "
            "non-positive row"
        )
    faces = tuple(np.asarray(f, dtype) for f in faces)
    return MgLevel(op=FlatStencil(faces, np.asarray(diag, dtype), mask), acc=acc, mask=mask)


def _coarsen(fine: MgLevel) -> MgLevel:
    nxf, nyf, nz = fine.shape
    shape = (-(-nxf // 2), -(-nyf // 2), nz)
    cx, cy, cz = (np.asarray(f, np.float64) for f in fine.op.faces)
    # Cross-aggregate faces are the odd-index fine faces (between fine
    # cells 2I+1 and 2I+2, i.e. between aggregates I and I+1), summed
    # over the perpendicular lateral pairing.  A fine cell without an
    # upper neighbour carries a zero face, and so does its aggregate.
    fxc = np.zeros(shape)
    _pair_sum(cx[1::2], 1, out=fxc[: nxf // 2])
    fyc = np.zeros(shape)
    _pair_sum(cy[:, 1::2], 0, out=fyc[:, : nyf // 2])
    fzc = _pair_sum(_pair_sum(cz, 0), 1)
    acc = _pair_sum(_pair_sum(fine.acc, 0), 1)
    mask = _pair_sum(_pair_sum(fine.mask, 0), 1)
    coarse = _level((fxc, fyc, fzc), acc, mask, fine.op.dtype)
    _lay_out_transfers(fine, coarse)
    return coarse


def planned_level_shapes(
    shape: tuple[int, int, int], levels: int | None = None
) -> list[tuple[int, int, int]]:
    """The per-level grid shapes the hierarchy will use (pure geometry).

    Coarsens ``ceil(n/2)`` laterally while either lateral extent exceeds
    2, capped at ``levels`` (when given) and :data:`MAX_MG_LEVELS`.
    Shared by the hierarchy builder, the charge model and telemetry so
    they can never disagree.
    """
    cap = MAX_MG_LEVELS if levels is None else min(levels, MAX_MG_LEVELS)
    nx, ny, nz = shape
    out = [(nx, ny, nz)]
    while len(out) < cap and (nx > 2 or ny > 2):
        nx, ny = -(-nx // 2), -(-ny // 2)
        out.append((nx, ny, nz))
    return out


def _dense_matrix(level: MgLevel) -> np.ndarray:
    """The level operator as a dense symmetric matrix (identity masked
    rows *and* zeroed masked columns — the operator restricted to the
    zero-on-mask subspace, which is where CG's residuals live), in float64."""
    n = level.cells
    a = np.diag(level.op.diagonal.reshape(-1).astype(np.float64))
    stride = n
    for axis, f in enumerate(level.op.faces):
        # Flat neighbours K and K + stride; a wrapped pair's face is 0.
        stride //= level.shape[axis]
        k = np.arange(n - stride)
        vals = f.reshape(-1)[: n - stride]
        a[k, k + stride] -= vals
        a[k + stride, k] -= vals
    a[level.rows, :] = 0.0
    a[:, level.rows] = 0.0
    a[level.rows, level.rows] = 1.0
    return a


def _bind_cycle(levels: list[MgLevel], sweeps: int) -> list[tuple]:
    """The V-cycle on ``levels`` (see :mod:`repro.mg.cycle`), bound:
    ``((level, part), (kernel, operands))`` steps in cycle order on the
    levels' flat scratch.  ``z`` moves between a level's ``z`` and
    ``az`` instead of being copied back, and ends each cycle in ``z``."""
    steps = []
    scratch = [tuple(a.reshape(-1) for a in (lv.rhs, lv.c, lv.z, lv.az, lv.weight))
               for lv in levels]

    def step(index, part, kernel, *operands):
        steps.append(((index, part), (kernel, operands)))

    def smooth(index, part, z, count):
        """``count`` sweeps from ``z`` (``None``: from zero); returns the buffer holding ``z``."""
        rhs, c, z1, z2, weight = scratch[index]
        if z is None:
            step(index, part, np.multiply, rhs, weight, c)
            z, count = c, count - 1
        for _ in range(count):
            into = z2 if z is z1 else z1
            step(index, part, np.copyto, into, c)
            step(index, part, _sparsetools.dia_matvec, *levels[index].smoother, z, into)
            z = into
        return z

    held = []
    for index, level in enumerate(levels[:-1]):
        rhs, _, z1, z2, _ = scratch[index]
        z = smooth(index, "smoothing", None, sweeps)
        r = z2 if z is z1 else z1
        coarse_rhs = scratch[index + 1][0]
        step(index, "residual", np.copyto, r, rhs)
        step(index, "residual", _sparsetools.dia_matvec, *level.negated, z, r)
        step(index, "restriction", coarse_rhs.fill, 0.0)
        step(index, "restriction", _sparsetools.csr_matvec, *level.restriction, r, coarse_rhs)
        held.append(z)
    last, coarsest = len(levels) - 1, levels[-1]
    if coarsest.dense_inv is not None:
        rhs, _, z, _, _ = scratch[last]
        step(last, "coarse solve", np.matmul, coarsest.dense_inv, rhs, z)
        step(last, "coarse solve", np.put, z, coarsest.rows, 0.0)  # zero-on-mask exact
    else:
        z = smooth(last, "coarse solve", None, COARSE_FALLBACK_SWEEPS)
    for index in reversed(range(last)):
        zc, z = z, held[index]
        _, c, _, z2, _ = scratch[index]
        if z is c:  # one sweep left z in c, which the post-smoothing reads
            step(index, "prolongation", np.copyto, z2, c)
            z = z2
        step(index, "prolongation", _sparsetools.csc_matvec, *levels[index].prolongation, zc, z)
        z = smooth(index, "smoothing", z, sweeps)
    return steps


@dataclass
class MgHierarchy:
    """A full V-cycle hierarchy plus the smoothing schedule.

    A hierarchy belongs to one linear system and is not shared across
    threads: :func:`repro.mg.mg_apply` runs its ``schedule`` in the
    levels' scratch, so two V-cycles on one hierarchy must not overlap.
    ``parts`` labels each step of the schedule with its ``(level,
    part)``.  ``packets`` keeps its V-cycle charge packets, one per
    machine (:func:`repro.mg.build_mg_packet`).
    """

    levels: tuple[MgLevel, ...]
    smoother_iters: int = DEFAULT_SMOOTHER_ITERS
    omega: float = DEFAULT_OMEGA
    schedule: tuple = field(default=(), repr=False)
    parts: tuple = field(default=(), repr=False)
    packets: dict = field(default_factory=dict, init=False, repr=False)

    def level_shapes(self) -> list[list[int]]:
        return [list(level.shape) for level in self.levels]

    def telemetry(self, cycles: int) -> dict:
        """The JSON-able ``preconditioner={...}`` telemetry payload."""
        return {
            "kind": "mg",
            "levels": self.level_shapes(),
            "smoother_iters": int(self.smoother_iters),
            "omega": float(self.omega),
            "cycles": int(cycles),
            "coarse_solve": (
                "dense" if self.levels[-1].dense_inv is not None
                else "smooth"
            ),
        }


def build_hierarchy(
    coefficients,
    dirichlet_mask: np.ndarray,
    *,
    accumulation: np.ndarray | None = None,
    levels: int | None = None,
    smoother_iters: int | None = None,
    omega: float = DEFAULT_OMEGA,
    dtype=np.float64,
) -> MgHierarchy:
    """Build the hierarchy from the engine's own operator ingredients.

    Parameters
    ----------
    coefficients:
        A :class:`repro.fv.coefficients.FluxCoefficients` (any dtype;
        promoted to float64 for the build).
    dirichlet_mask:
        Boolean identity-row mask, fine-grid shaped.
    accumulation:
        Optional transient accumulation diagonal (fine grid).  The
        hierarchy must be rebuilt when it changes (per-Δt), exactly like
        the Jacobi inverse diagonal; a simulation builds one per Δt and
        reuses it while Δt holds.
    levels / smoother_iters / omega:
        Schedule knobs; ``None`` means the defaults above.
    dtype:
        The levels' dtype, the V-cycle's: the solve's working precision.
    """
    iters = DEFAULT_SMOOTHER_ITERS if smoother_iters is None else int(smoother_iters)
    if not 1 <= iters <= MG_MAX_SMOOTHER_ITERS:
        raise ConfigurationError(
            f"mg smoother_iters must be in [1, {MG_MAX_SMOOTHER_ITERS}], got {iters}"
        )
    shape = tuple(int(v) for v in dirichlet_mask.shape)
    mask = np.asarray(dirichlet_mask, dtype=bool)
    acc = (
        np.zeros(shape, dtype=np.float64)
        if accumulation is None
        else np.asarray(accumulation, dtype=np.float64).reshape(shape).copy()
    )
    faces = (coefficients.cx, coefficients.cy, coefficients.cz)
    built = [_level(cell_faces(faces, shape, np.float64), acc, mask, dtype)]
    for _ in planned_level_shapes(shape, levels)[1:]:
        built.append(_coarsen(built[-1]))
    coarsest = built[-1]
    if coarsest.cells <= DENSE_SOLVE_MAX_CELLS:
        dense_inv = np.linalg.inv(_dense_matrix(coarsest))
        coarsest.dense_inv = dense_inv.astype(coarsest.op.dtype, copy=False)
    for level in built:
        level.lay_out(float(omega))
    parts, schedule = zip(*_bind_cycle(built, iters))
    return MgHierarchy(tuple(built), smoother_iters=iters, omega=float(omega),
                       schedule=schedule, parts=parts)


def hierarchy_for_problem(
    problem,
    *,
    accumulation: np.ndarray | None = None,
    levels: int | None = None,
    smoother_iters: int | None = None,
    dtype=np.float64,
) -> MgHierarchy:
    """Convenience wrapper taking a ``SinglePhaseProblem``."""
    return build_hierarchy(
        problem.coefficients,
        problem.dirichlet.mask,
        accumulation=accumulation,
        levels=levels,
        smoother_iters=smoother_iters,
        dtype=dtype,
    )


__all__ = [
    "COARSE_FALLBACK_SWEEPS",
    "DEFAULT_OMEGA",
    "DEFAULT_SMOOTHER_ITERS",
    "DENSE_SOLVE_MAX_CELLS",
    "MAX_MG_LEVELS",
    "MgHierarchy",
    "MgLevel",
    "build_hierarchy",
    "hierarchy_for_problem",
    "planned_level_shapes",
]
