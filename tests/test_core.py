import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nwspectral.core import (KernelSpec, PhysicalParams, SpatialGrid,
                             SpectralField, SpectralGrid, make_grids)


class TestPhysicalParams:
    def test_accepts_the_reference_set(self):
        params = PhysicalParams(1.0, 1.0, 0.1, 2)
        assert params.D == 1.0 and params.p == 2

    def test_rejects_nonpositive_diffusion(self):
        with pytest.raises(ValueError):
            PhysicalParams(0.0, 1.0, 0.1, 2)
        with pytest.raises(ValueError):
            PhysicalParams(-1.0, 1.0, 0.1, 2)

    def test_rejects_small_or_fractional_p(self):
        with pytest.raises(ValueError):
            PhysicalParams(1.0, 1.0, 0.1, 1)
        with pytest.raises(ValueError):
            PhysicalParams(1.0, 1.0, 0.1, 2.5)

    def test_rejects_non_finite_coefficients(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                PhysicalParams(1.0, bad, 0.1, 2)
            with pytest.raises(ValueError):
                PhysicalParams(1.0, 1.0, bad, 2)

    def test_negative_eps_is_legal(self):
        assert PhysicalParams(1.0, 1.0, -0.5, 3).eps == -0.5


class TestGrids:
    def test_duality_identity(self):
        # dx * ds * n = 1 ties the two spacings together exactly
        for n, L in ((16, 1.0), (256, 20.0), (1024, 77.5)):
            spatial, spectral = make_grids(n, L)
            assert spatial.dx * spectral.ds * n == pytest.approx(1.0,
                                                                 abs=1e-15)

    def test_points_are_centered(self):
        spatial, spectral = make_grids(64, 8.0)
        assert spatial.points[32] == 0.0
        assert spectral.frequencies[32] == 0.0
        assert spatial.points[0] == -8.0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            SpectralGrid(100, 10.0)
        with pytest.raises(ValueError):
            SpatialGrid(12, 10.0)

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            SpectralGrid(8, 10.0)

    @given(st.sampled_from([16, 32, 64, 128, 256]),
           st.floats(min_value=0.5, max_value=200.0))
    def test_nyquist_is_half_the_band(self, n, L):
        grid = SpectralGrid(n, L)
        assert grid.s_max == pytest.approx(n / (4.0 * L))
        assert grid.frequencies[0] == pytest.approx(-grid.s_max)


class TestSpectralField:
    def test_values_are_frozen(self):
        _, grid = make_grids(64, 8.0)
        field = SpectralField(grid, 0.0, np.ones(64))
        with pytest.raises(ValueError):
            field.values[0] = 2.0

    def test_rejects_wrong_length(self):
        _, grid = make_grids(64, 8.0)
        with pytest.raises(ValueError):
            SpectralField(grid, 0.0, np.ones(63))

    def test_rejects_negative_time(self):
        _, grid = make_grids(64, 8.0)
        with pytest.raises(ValueError):
            SpectralField(grid, -0.1, np.ones(64))


class TestKernelSpec:
    def test_default_is_unit_constant(self):
        spec = KernelSpec()
        assert spec.C_at(0.3) == 1.0
        assert np.all(spec.C_at(np.linspace(-1, 1, 5)) == 1.0)

    def test_callable_profile(self):
        spec = KernelSpec(C=lambda s: np.exp(-s ** 2))
        got = spec.C_at(np.array([0.0, 1.0]))
        assert got == pytest.approx([1.0, math.exp(-1.0)])

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            KernelSpec(pole_policy="ignore")

    def test_rejects_non_finite_constant(self):
        with pytest.raises(ValueError):
            KernelSpec(C=math.inf)

    def test_rejects_non_finite_profile_on_evaluation(self):
        spec = KernelSpec(C=lambda s: np.where(s == 0.0, np.inf, 1.0))
        with pytest.raises(ValueError):
            spec.C_at(np.array([0.0, 1.0]))


class TestExports:
    def test_every_exported_name_resolves_once(self):
        import nwspectral
        names = nwspectral.__all__
        assert len(names) == len(set(names))
        missing = [name for name in names if not hasattr(nwspectral, name)]
        assert missing == []

    def test_star_import(self):
        import nwspectral
        namespace = {}
        exec("from nwspectral import *", namespace)
        assert set(nwspectral.__all__) <= set(namespace)
