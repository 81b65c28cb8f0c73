"""The one host stencil and the V-cycle on it, pinned bit for bit
against the 3-D slice forms in ``stencil_reference``.

The flat stencil's DIA sweep reorders no arithmetic, so every comparison
here is of dtype, shape and bit patterns (``np.array_equal`` would take
−0.0 for +0.0), never a tolerance: odd lateral sizes, columns of extent
1 along each axis, partial and empty Dirichlet masks, float32 and
float64 coefficients and inputs, signed-zero inputs, with and without
the transient accumulation, and a capped hierarchy whose coarsest level
is smoothed instead of solved.  With mixed dtypes the sweep runs in the
widest and rounds into ``out`` once, so there the slice form runs in
that dtype and is cast once.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import _sparsetools, csc_array, csr_array, dia_array

import stencil_reference as ref
from repro.fv.coefficients import build_flux_coefficients
from repro.fv.operator import FlatStencil, MatrixFreeOperator, apply_jx
from repro.mesh.boundary import DirichletSet
from repro.mesh.geomodel import lognormal_permeability
from repro.mesh.grid import CartesianGrid3D
from repro.mg import build_hierarchy, mg_apply
from repro.mg import hierarchy as mg_hierarchy
from repro.physics.darcy import build_problem
from repro.physics.transient import TransientOperator
from repro.util.errors import ValidationError

#: Odd lateral sizes, nz = 1, and nx = 1 / ny = 1 / nx = ny = 1 columns.
SHAPES = [(13, 9, 4), (6, 5, 1), (1, 7, 3), (7, 1, 3), (1, 1, 5), (4, 4, 4)]
DTYPES = [np.float32, np.float64]


def _coefficients(shape, dtype, seed=0):
    grid = CartesianGrid3D(*shape)
    perm = lognormal_permeability(grid, seed=seed, sigma_log=0.7)
    return build_flux_coefficients(grid, perm, dtype=dtype)


def _mask(shape, seed=0):
    """About a fifth of the cells, and always the first one."""
    mask = np.random.default_rng(seed).random(shape) < 0.2
    mask[0, 0, 0] = True
    return mask


def _dirichlet(grid, kind):
    if kind == "none":
        return None
    mask = _mask(grid.shape) if kind == "partial" else None
    values = np.random.default_rng(7).standard_normal(grid.shape)
    return DirichletSet(grid, mask, values)


def _field(shape, dtype, seed=1):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


def _slice_loop(coeffs, dset, x, out_dtype):
    """The slice loop run in the widest dtype of the coefficients, ``x``
    and ``out``, then cast once into ``out_dtype``."""
    wide = np.result_type(coeffs.dtype, x.dtype, out_dtype)
    out = np.empty(x.shape, wide)
    return ref.apply_jx_slices(coeffs, dset, x.astype(wide), out=out).astype(out_dtype)


def _assert_bits(got, want):
    """Equal dtype, shape and bit patterns, so −0.0 is not +0.0."""
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    uint = np.dtype(f"u{got.dtype.itemsize}")
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(uint), np.ascontiguousarray(want).view(uint)
    )


class TestApply:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("coeff_dtype", DTYPES)
    @pytest.mark.parametrize("x_dtype", DTYPES)
    @pytest.mark.parametrize("dirichlet", ["none", "empty", "partial"])
    def test_apply_jx_equals_slice_loop(self, shape, coeff_dtype, x_dtype, dirichlet):
        coeffs = _coefficients(shape, coeff_dtype)
        dset = _dirichlet(coeffs.grid, dirichlet)
        x = _field(shape, x_dtype)
        _assert_bits(apply_jx(coeffs, dset, x), _slice_loop(coeffs, dset, x, x_dtype))
        for out_dtype in DTYPES:  # into a caller's buffer of either precision
            out = np.empty(shape, out_dtype)
            assert apply_jx(coeffs, dset, x, out=out) is out
            _assert_bits(out, _slice_loop(coeffs, dset, x, out_dtype))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_signed_zeros(self, shape, dtype):
        """``x`` is +0.0 but for −0.0 on a checkerboard of unmasked
        cells: every row there sums −0.0 terms only, so the slice loop
        returns −0.0, and so must the sweep (a +0.0 start gives +0.0).

        The flat form also adds a ``±0·x`` term across each flat wrap
        (``j = ny−1`` to the next x plane, ``k = nz−1`` to the next
        column), where the slice loop has none; the −0.0 cells stay off
        the upper side of a wrap, so no wrap joins two −0.0 cells."""
        coeffs = _coefficients(shape, dtype)
        dset = _dirichlet(coeffs.grid, "partial")
        i, j, k = np.indices(shape)
        _, ny, nz = shape
        neg = ((i + j + k) % 2 == 1) & (j < max(ny - 1, 1)) & (k < max(nz - 1, 1))
        x = np.zeros(shape, dtype)
        x[neg & ~dset.mask] = -0.0
        expected = ref.apply_jx_slices(coeffs, dset, x)
        assert np.signbit(expected).any()
        _assert_bits(apply_jx(coeffs, dset, x), expected)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_private_dia_kernel_equals_public_product(self, dtype):
        """The stencil's operands through ``_sparsetools.dia_matvec`` give
        what SciPy's public ``dia_array @ x`` gives, bit for bit, on an
        ``x`` with no zero entries (the public product starts from
        +0.0): a SciPy release that changes the private kernel fails
        here by name."""
        coeffs = _coefficients((13, 9, 4), dtype)
        op = FlatStencil.from_coefficients(coeffs, None)
        x = _field((13, 9, 4), dtype, seed=4)
        x[x == 0] = 1.0
        n, _, _, _, offsets, data = op._sweep(np.dtype(dtype))
        got = np.full(n, -0.0, dtype)
        _sparsetools.dia_matvec(n, n, len(offsets), n, offsets, data, x.reshape(-1), got)
        _assert_bits(got, dia_array((data, offsets), shape=(n, n)) @ x.reshape(-1))
        _assert_bits(op.apply(x).reshape(-1), got)

    def test_strided_input(self):
        """A non-contiguous ``x`` is read in C order."""
        coeffs = _coefficients((13, 9, 4), np.float32)
        dset = _dirichlet(coeffs.grid, "partial")
        x = np.asfortranarray(_field((13, 9, 4), np.float64))
        _assert_bits(apply_jx(coeffs, dset, x), ref.apply_jx_slices(coeffs, dset, x))

    def test_one_stencil_serves_both_precisions(self):
        """A built operator applied to float32, float64, then float32
        again matches the slice loop every time."""
        coeffs = _coefficients((13, 9, 4), np.float32)
        dset = _dirichlet(coeffs.grid, "partial")
        op = MatrixFreeOperator(coeffs, dset)
        for dtype in (np.float32, np.float64, np.float32):
            x = _field((13, 9, 4), dtype, seed=3)
            _assert_bits(op(x), ref.apply_jx_slices(coeffs, dset, x))

    @pytest.mark.parametrize("x_dtype", DTYPES)
    def test_transient_operator(self, x_dtype):
        grid = CartesianGrid3D(13, 9, 4)
        perm = lognormal_permeability(grid, seed=2, sigma_log=0.7)
        problem = build_problem(grid, perm, _dirichlet(grid, "partial"))
        acc = np.random.default_rng(4).random(grid.shape).astype(np.float32)
        acc[problem.dirichlet.mask] = 0.0
        op = TransientOperator(problem, acc)
        for seed in (5, 6):
            x = _field(grid.shape, x_dtype, seed=seed)
            expected = ref.apply_jx_slices(problem.coefficients, problem.dirichlet, x)
            expected += acc * x
            _assert_bits(op(x), expected)

    def test_shape_checks(self):
        coeffs = _coefficients((4, 4, 4), np.float32)
        with pytest.raises(ValidationError, match="x shape"):
            apply_jx(coeffs, None, np.zeros((4, 4, 3)))
        with pytest.raises(ValidationError, match="out shape"):
            apply_jx(coeffs, None, np.zeros((4, 4, 4)), out=np.zeros((4, 4)))
        with pytest.raises(ValidationError, match="C-contiguous"):
            apply_jx(coeffs, None, np.zeros((4, 4, 4)), out=np.zeros((4, 4, 4), order="F"))
        with pytest.raises(ValidationError, match="faces"):
            FlatStencil((coeffs.cx, coeffs.cy, coeffs.cz), coeffs.diagonal)


class TestDiagonal:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_flux_diagonal_equals_slice_loop(self, shape, dtype):
        coeffs = _coefficients(shape, dtype)
        faces = (coeffs.cx, coeffs.cy, coeffs.cz)
        expected = ref.diagonal_slices(faces, coeffs.grid.shape).astype(dtype)
        assert coeffs.diagonal.dtype == expected.dtype
        np.testing.assert_array_equal(coeffs.diagonal, expected)


MG_SHAPES = [(13, 9, 4), (12, 10, 4), (6, 5, 1), (1, 8, 3), (8, 1, 3)]


def _assert_same_hierarchy(hier, expected):
    assert hier.level_shapes() == [list(level.shape) for level in expected.levels]
    for level, want in zip(hier.levels, expected.levels):
        for got_f, want_f in zip(ref.internal_faces(level.op.faces), (want.fx, want.fy, want.fz)):
            np.testing.assert_array_equal(got_f, want_f)
        np.testing.assert_array_equal(level.op.diagonal, want.diag)
        np.testing.assert_array_equal(level.weight, ref.weight(want, expected.omega))
        np.testing.assert_array_equal(level.acc, want.acc)
        np.testing.assert_array_equal(level.mask, want.mask)
        assert (level.dense_inv is None) == (want.dense_inv is None)
        if want.dense_inv is not None:
            np.testing.assert_array_equal(level.dense_inv, want.dense_inv)


def _assert_same_cycles(hier, expected, mask, seeds=(8, 9)):
    for seed in seeds:
        for dtype in DTYPES:
            r = _field(mask.shape, dtype, seed=seed)
            r[mask] = 0.0
            _assert_bits(mg_apply(hier, r), ref.mg_apply(expected, r))


class TestVCycle:
    @pytest.mark.parametrize("shape", MG_SHAPES)
    @pytest.mark.parametrize("coeff_dtype", DTYPES)
    @pytest.mark.parametrize("accumulation", [False, True])
    def test_mg_apply_equals_reference(self, shape, coeff_dtype, accumulation):
        coeffs = _coefficients(shape, coeff_dtype)
        mask = _mask(shape)
        acc = np.random.default_rng(3).random(shape) * 0.5 if accumulation else None
        hier = build_hierarchy(coeffs, mask, accumulation=acc)
        expected = ref.build_hierarchy(coeffs, mask, accumulation=acc)
        _assert_same_hierarchy(hier, expected)
        _assert_same_cycles(hier, expected, mask)

    @pytest.mark.parametrize("shape", MG_SHAPES)
    def test_bound_transfers_equal_reference(self, shape):
        """Every level's laid-out restriction, run as the cycle runs it
        (``csr_matvec`` into a zeroed coarse ``rhs``), gives the
        reference ``R r``, and its prolongation (``csc_matvec``) the
        reference ``z + P zc``, bit for bit (sign bits included), for a
        ``zc`` zero on masked coarse cells as every coarse level holds
        it after its cycle."""
        coeffs = _coefficients(shape, np.float64)
        mask = _mask(shape)
        hier = build_hierarchy(coeffs, mask)
        expected = ref.build_hierarchy(coeffs, mask)
        rng = np.random.default_rng(10)
        pairs = zip(hier.levels, hier.levels[1:], expected.levels[1:])
        for fine, coarse, ref_coarse in pairs:
            r = rng.standard_normal(fine.shape)
            rc = np.zeros(coarse.shape)
            _sparsetools.csr_matvec(*fine.restriction, r.reshape(-1), rc.reshape(-1))
            _assert_bits(rc, ref.restrict(ref_coarse, r))
            z = rng.standard_normal(fine.shape)
            z[::3] = -0.0
            zc = rng.standard_normal(coarse.shape)
            zc[coarse.mask] = 0.0
            want = ref.prolong(ref_coarse, z, zc)
            _sparsetools.csc_matvec(*fine.prolongation, zc.reshape(-1), z.reshape(-1))
            _assert_bits(z, want)

    @pytest.mark.parametrize("iters", [1, 3])
    def test_smoother_sweeps(self, iters):
        coeffs = _coefficients((13, 9, 4), np.float32)
        mask = _mask((13, 9, 4))
        hier = build_hierarchy(coeffs, mask, smoother_iters=iters)
        expected = ref.build_hierarchy(coeffs, mask, smoother_iters=iters)
        _assert_same_cycles(hier, expected, mask)

    @pytest.mark.parametrize("accumulation", [False, True])
    def test_capped_levels_smooth_the_coarsest(self, monkeypatch, accumulation):
        """A capped hierarchy whose coarsest level is too big for the
        dense solve falls back to smoothing sweeps there."""
        monkeypatch.setattr(mg_hierarchy, "DENSE_SOLVE_MAX_CELLS", 8)
        shape = (13, 9, 4)
        coeffs = _coefficients(shape, np.float32)
        mask = _mask(shape)
        acc = np.full(shape, 0.2) if accumulation else None
        hier = build_hierarchy(coeffs, mask, accumulation=acc, levels=2)
        expected = ref.build_hierarchy(coeffs, mask, accumulation=acc, levels=2)
        assert hier.telemetry(1)["coarse_solve"] == "smooth"
        _assert_same_hierarchy(hier, expected)
        _assert_same_cycles(hier, expected, mask)


def _dense_operator(level):
    """A level's operator as a dense float64 matrix: its diagonal and
    the couplings ``−f`` of every cell pair, masked rows included."""
    n = level.cells
    a = np.diag(level.op.diagonal.reshape(-1).astype(np.float64))
    idx = np.arange(n).reshape(level.shape)
    for axis, f in enumerate(ref.internal_faces(level.op.faces)):
        lo, hi = ref._lo_hi(axis)
        a[idx[lo].ravel(), idx[hi].ravel()] -= f.ravel()
        a[idx[hi].ravel(), idx[lo].ravel()] -= f.ravel()
    return a


def _dia_dense(operands):
    n, _, _, _, offsets, data = operands
    return dia_array((data, offsets), shape=(n, n)).toarray()


def _sparse_dense(kind, operands):
    rows, cols, indptr, indices, data = operands
    return kind((data, indices, indptr), shape=(rows, cols)).toarray()


class TestLevelOperands:
    @pytest.mark.parametrize("shape", MG_SHAPES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_operands_equal_their_definitions(self, shape, dtype):
        """On every level the DIA rows of ``S`` are the dense
        ``I − ωD⁻¹A`` with zero masked rows and ``weight`` is ``ωD⁻¹``
        with zero masked rows; on every level but the coarsest (which
        restricts nothing) the rows of ``−A`` are ``−A`` with zero masked
        rows, the restriction is the aggregate-sum matrix with zero
        masked coarse rows and the prolongation its transpose.  Rows are
        formed in float64 from the level's operator: checked there to
        round-off, and a float32 level's must be those float64 rows cast
        once."""
        coeffs = _coefficients(shape, np.float32)
        mask = _mask(shape)
        acc = np.random.default_rng(3).random(shape) * 0.5
        hier = build_hierarchy(coeffs, mask, accumulation=acc, dtype=dtype)
        omega = hier.omega
        for index, level in enumerate(hier.levels):
            op = level.op
            wide = mg_hierarchy.MgLevel(
                FlatStencil(tuple(f.astype(np.float64) for f in op.faces),
                            op.diagonal.astype(np.float64), level.mask),
                level.acc, level.mask,
            )
            wide.lay_out(omega)
            last = index == len(hier.levels) - 1
            if not last:
                mg_hierarchy._lay_out_transfers(wide, hier.levels[index + 1])
            pairs = [(level.smoother, wide.smoother)] + [(level.negated, wide.negated)] * (not last)
            for got, want in pairs:
                np.testing.assert_array_equal(got[4], want[4])
                _assert_bits(got[5], want[5].astype(dtype))
            _assert_bits(level.weight, wide.weight.astype(dtype))

            keep = ~level.mask.reshape(-1)
            a = _dense_operator(wide)
            d = wide.op.diagonal.reshape(-1)
            s = np.eye(level.cells) - omega * a / d[:, None]
            np.testing.assert_allclose(_dia_dense(wide.smoother), s * keep[:, None],
                                       rtol=1e-14, atol=1e-15)
            np.testing.assert_allclose(wide.weight.reshape(-1), omega / d * keep, rtol=1e-15)
            if last:
                assert level.negated == level.restriction == level.prolongation == ()
                continue
            np.testing.assert_array_equal(_dia_dense(wide.negated), -a * keep[:, None])
            coarse = hier.levels[index + 1]
            nx, ny, nz = level.shape
            i, j, k = np.indices(level.shape).reshape(3, -1)
            owner = ((i // 2) * coarse.shape[1] + j // 2) * nz + k
            r = np.zeros((coarse.cells, level.cells))
            r[owner, np.arange(level.cells)] = 1.0
            r[coarse.mask.reshape(-1)] = 0.0
            restriction = _sparse_dense(csr_array, level.restriction)
            assert level.restriction[4].dtype == np.dtype(dtype)
            np.testing.assert_array_equal(restriction, r)
            np.testing.assert_array_equal(_sparse_dense(csc_array, level.prolongation),
                                          restriction.T)
