import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nwspectral.kernels import gauss_codomain, heat_kernel
from nwspectral.spectral import (circular_convolve, circular_convolve_many,
                                 conv_theorem_residual, default_plan,
                                 derivative_distribution_residual,
                                 parseval_defect, wraparound_mass)


@pytest.fixture(scope="module")
def plan():
    return default_plan()


def _band_limited(plan, seed, modes=12):
    """Random smooth periodic test function built from low modes."""
    rng = np.random.default_rng(seed)
    x = plan.points
    L = plan.length
    out = np.zeros_like(x)
    for k in range(1, modes + 1):
        out += rng.normal() * np.cos(math.pi * k * x / L) \
            + rng.normal() * np.sin(math.pi * k * x / L)
    return out


class TestRoundTrip:
    def test_heat_kernel_round_trip(self, plan):
        f = heat_kernel(plan.points, 0.3, 1.0)
        back = plan.inverse(plan.forward(f))
        assert np.max(np.abs(back - f)) < 1e-12 * np.max(np.abs(f))

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, seed):
        plan = default_plan()
        f = _band_limited(plan, seed)
        back = plan.inverse(plan.forward(f))
        scale = max(np.max(np.abs(f)), 1e-30)
        assert np.max(np.abs(back - f)) < 1e-12 * scale

    def test_forward_matches_analytic_gaussian(self, plan):
        f = heat_kernel(plan.points, 0.3, 1.0)
        want = gauss_codomain(plan.frequencies, 0.3, 1.0)
        got = plan.forward(f)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_inverse_rejects_non_finite(self, plan):
        vals = np.ones(plan.n, dtype=complex)
        vals[3] = np.inf
        with pytest.raises(ValueError):
            plan.inverse(vals)


class TestConvolution:
    def test_heat_semigroup_via_convolution(self, plan):
        # G(.,a) * G(.,b) = G(.,a+b); wraparound negligible at L = 20
        x = plan.points
        got = circular_convolve(heat_kernel(x, 0.3, 1.0),
                                heat_kernel(x, 0.5, 1.0), plan.dx)
        want = heat_kernel(x, 0.8, 1.0)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_convolution_commutes(self, plan):
        f = _band_limited(plan, 7)
        g = heat_kernel(plan.points, 0.4, 1.0)
        lhs = circular_convolve(f, g, plan.dx)
        rhs = circular_convolve(g, f, plan.dx)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_many_reduces_to_pairwise(self, plan):
        x = plan.points
        fs = [heat_kernel(x, t, 1.0) for t in (0.2, 0.3, 0.5)]
        got = circular_convolve_many(fs, plan.dx)
        want = circular_convolve(circular_convolve(fs[0], fs[1], plan.dx),
                                 fs[2], plan.dx)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_many_requires_two_operands(self, plan):
        f = heat_kernel(plan.points, 0.3, 1.0)
        with pytest.raises(ValueError):
            circular_convolve_many([f], plan.dx)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_convolution_theorem_property(self, seed):
        plan = default_plan()
        f = _band_limited(plan, seed)
        g = _band_limited(plan, seed + 1)
        assert conv_theorem_residual(plan, f, g) < 1e-10


class TestResiduals:
    def test_parseval_on_heat_kernel(self, plan):
        f = heat_kernel(plan.points, 0.4, 1.0)
        assert parseval_defect(plan, f) < 1e-12

    def test_derivative_rules_on_heat_family(self, plan):
        dt = 1e-3
        x = plan.points
        times = 0.3 + dt * np.arange(-2, 3)
        G = np.stack([heat_kernel(x, t, 1.0) for t in times])
        f = np.stack([heat_kernel(x, t + 0.2, 0.5) for t in times])
        res = derivative_distribution_residual(plan, G, f, dt)
        assert res.time_rule < 1e-6
        assert res.space_left < 1e-6
        assert res.space_right < 1e-6

    def test_derivative_rules_need_five_rows(self, plan):
        x = plan.points
        G = np.stack([heat_kernel(x, t, 1.0) for t in (0.3, 0.301)])
        with pytest.raises(ValueError):
            derivative_distribution_residual(plan, G, G, 1e-3)

    def test_wraparound_mass_flags_wide_profiles(self, plan):
        x = plan.points
        narrow = heat_kernel(x, 0.1, 1.0)
        wide = np.exp(-np.abs(x) / 25.0)
        assert wraparound_mass(narrow) < 1e-12
        assert wraparound_mass(wide) > 1e-3
