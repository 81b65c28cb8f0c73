"""Unit tests for Dirichlet sets, geomodels and wells."""

import numpy as np
import pytest

from repro.mesh.boundary import DirichletSet
from repro.mesh.geomodel import (
    channelized_permeability,
    homogeneous_permeability,
    layered_permeability,
    lognormal_permeability,
)
from repro.mesh.grid import CartesianGrid3D
from repro.mesh.wells import Well, WellKind, apply_wells, quarter_five_spot
from repro.util.errors import ValidationError


class TestDirichletSet:
    def test_empty_by_default(self, small_grid):
        d = DirichletSet(small_grid)
        assert d.is_empty
        assert d.num_dirichlet == 0

    def test_set_cell(self, small_grid):
        d = DirichletSet(small_grid).set_cell(1, 2, 3, 5.0)
        assert d.contains(1, 2, 3)
        assert not d.contains(0, 0, 0)
        assert d.values[1, 2, 3] == 5.0
        assert d.num_dirichlet == 1

    def test_set_column(self, small_grid):
        d = DirichletSet(small_grid).set_column(2, 3, 1.5)
        assert d.num_dirichlet == small_grid.nz
        assert np.all(d.mask[2, 3, :])

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_set_plane(self, small_grid, axis):
        d = DirichletSet(small_grid).set_plane(axis, 0, 2.0)
        expected = small_grid.num_cells // small_grid.shape[axis]
        assert d.num_dirichlet == expected

    def test_set_plane_bad_axis(self, small_grid):
        with pytest.raises(ValidationError):
            DirichletSet(small_grid).set_plane(3, 0, 1.0)

    def test_apply_to_overwrites_only_masked(self, small_grid):
        d = DirichletSet(small_grid).set_cell(0, 0, 0, 9.0)
        p = np.ones(small_grid.shape, dtype=np.float32)
        d.apply_to(p)
        assert p[0, 0, 0] == 9.0
        assert p[1, 0, 0] == 1.0

    def test_apply_to_shape_mismatch(self, small_grid):
        d = DirichletSet(small_grid)
        with pytest.raises(ValidationError):
            d.apply_to(np.zeros((1, 1, 1)))

    def test_copy_independent(self, small_grid):
        d = DirichletSet(small_grid).set_cell(0, 0, 0, 1.0)
        c = d.copy()
        c.set_cell(1, 1, 1, 2.0)
        assert not d.contains(1, 1, 1)


class TestGeomodels:
    def test_homogeneous(self, small_grid):
        perm = homogeneous_permeability(small_grid, 42.0)
        assert perm.shape == small_grid.shape
        assert np.all(perm == 42.0)

    def test_homogeneous_rejects_nonpositive(self, small_grid):
        with pytest.raises(ValidationError):
            homogeneous_permeability(small_grid, -1.0)

    def test_layered_is_constant_within_layer(self):
        grid = CartesianGrid3D(4, 4, 10)
        perm = layered_permeability(grid, num_layers=5, seed=3)
        assert perm.shape == grid.shape
        # Each z-slice is constant laterally.
        for z in range(grid.nz):
            assert np.unique(perm[:, :, z]).size == 1
        assert np.all(perm > 0)
        # More than one distinct layer value exists.
        assert np.unique(perm).size > 1

    def test_layered_within_bounds(self):
        grid = CartesianGrid3D(2, 2, 8)
        perm = layered_permeability(grid, low=2.0, high=50.0, seed=1)
        assert perm.min() >= 2.0 * 0.999
        assert perm.max() <= 50.0 * 1.001

    def test_lognormal_positive_and_reproducible(self, small_grid):
        a = lognormal_permeability(small_grid, seed=5)
        b = lognormal_permeability(small_grid, seed=5)
        c = lognormal_permeability(small_grid, seed=6)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(a > 0)

    def test_lognormal_is_heterogeneous(self, small_grid):
        a = lognormal_permeability(small_grid, seed=5, sigma_log=1.0)
        assert np.unique(a).size > small_grid.num_cells // 2

    def test_channelized_contrast(self):
        grid = CartesianGrid3D(16, 16, 6)
        perm = channelized_permeability(
            grid, background=1.0, channel=1000.0, seed=2
        )
        values = np.unique(perm)
        assert set(values).issubset({np.float32(1.0), np.float32(1000.0)})
        assert (perm == 1000.0).any(), "at least one channel cell expected"
        assert (perm == 1.0).any()

    def test_channelized_zero_channels(self, small_grid):
        perm = channelized_permeability(small_grid, num_channels=0)
        assert np.all(perm == 1.0)


class TestWells:
    def test_quarter_five_spot_positions(self, small_grid):
        wells, dirichlet = quarter_five_spot(small_grid)
        assert wells[0].x == 0 and wells[0].y == 0
        assert wells[1].x == small_grid.nx - 1
        assert wells[1].y == small_grid.ny - 1
        assert wells[0].kind is WellKind.INJECTOR
        assert wells[1].kind is WellKind.PRODUCER
        assert dirichlet.num_dirichlet == 2 * small_grid.nz

    def test_quarter_five_spot_pressures(self, small_grid):
        _, d = quarter_five_spot(
            small_grid, injection_pressure=3.0, production_pressure=-1.0
        )
        assert np.all(d.values[0, 0, :] == 3.0)
        assert np.all(d.values[-1, -1, :] == -1.0)

    def test_apply_wells_out_of_grid(self, small_grid):
        bad = Well("BAD", small_grid.nx, 0, 1.0)
        with pytest.raises(ValidationError):
            apply_wells(small_grid, [bad])

    def test_apply_wells_multiple(self, small_grid):
        wells = [
            Well("A", 0, 0, 1.0),
            Well("B", 1, 1, 2.0, WellKind.PRODUCER),
        ]
        d = apply_wells(small_grid, wells)
        assert d.num_dirichlet == 2 * small_grid.nz
