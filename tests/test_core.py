import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nwspectral.core import KernelSpec, PhysicalParams
from nwspectral.spectral import TransformPlan


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
            plan = TransformPlan(n, L)
            assert plan.dx * plan.ds * n == pytest.approx(1.0, abs=1e-15)

    def test_points_are_centered(self):
        plan = TransformPlan(64, 8)
        assert plan.length == 8.0 and isinstance(plan.length, float)
        assert plan.points[32] == 0.0
        assert plan.frequencies[32] == 0.0
        assert plan.points[0] == -8.0

    def test_rejects_non_power_of_two(self):
        for n in (100, 12):
            with pytest.raises(ValueError, match="power of two"):
                TransformPlan(n, 10.0)

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError, match=">= 16"):
            TransformPlan(8, 10.0)

    @given(st.sampled_from([16, 32, 64, 128, 256]),
           st.floats(min_value=0.5, max_value=200.0))
    def test_nyquist_is_half_the_band(self, n, L):
        plan = TransformPlan(n, L)
        assert plan.s_max == pytest.approx(n / (4.0 * L))
        assert plan.frequencies[0] == pytest.approx(-plan.s_max)

    def test_transforms_reject_wrong_length(self):
        plan = TransformPlan(64, 8.0)
        for transform in (plan.forward, plan.inverse):
            with pytest.raises(ValueError, match="sample count"):
                transform(np.ones(63))


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
