import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nwspectral.kernels import (erfc, erfc_pair,
                                erfc_pair_codomain, gauss_codomain,
                                gauss_selfconv_exact, heat_kernel,
                                iterated_gauss_selfconv,
                                lorentzian_codomain, lorentzian_pair,
                                rooted_codomain)
from nwspectral.spectral import circular_convolve_many, default_plan


class TestErfc:
    def test_against_high_precision_oracle(self):
        # 50-digit reference frozen before comparing erfc
        mpmath.mp.dps = 50
        for x in (-8.0, -2.5, -0.3, 0.0, 0.4, 1.7, 5.0, 12.0, 26.0):
            want = float(mpmath.erfc(x))
            got = erfc(x)
            assert got == pytest.approx(want, rel=1e-14, abs=1e-300), x

    def test_symmetry_identity(self):
        xs = np.linspace(0.0, 6.0, 301)
        assert np.max(np.abs(erfc(-xs) + erfc(xs) - 2.0)) < 1e-13

    @given(st.floats(min_value=-12.0, max_value=12.0))
    @settings(max_examples=80, deadline=None)
    def test_monotone_decreasing(self, x):
        assert erfc(x + 1e-3) <= erfc(x)

    def test_tail_underflow_is_clean(self):
        assert erfc(40.0) == 0.0
        assert erfc(-40.0) == pytest.approx(2.0)


class TestHeatKernel:
    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            heat_kernel(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            heat_kernel(0.0, -0.5, 1.0)

    def test_mass_is_one(self):
        plan = default_plan()
        mass = float(np.sum(heat_kernel(plan.points, 0.3, 1.0))
                     * plan.dx)
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_transform_is_the_gaussian(self):
        plan = default_plan()
        got = plan.forward(heat_kernel(plan.points, 0.3, 1.0))
        want = gauss_codomain(plan.frequencies, 0.3, 1.0)
        assert np.max(np.abs(got - want)) < 1e-10

    @given(st.floats(min_value=0.05, max_value=2.0),
           st.floats(min_value=0.2, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_semigroup_in_codomain(self, t1, t2):
        s = np.linspace(-2.0, 2.0, 41)
        lhs = gauss_codomain(s, t1, 1.0) * gauss_codomain(s, t2, 1.0)
        rhs = gauss_codomain(s, t1 + t2, 1.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestRootedKernel:
    def test_rejects_trivial_root_order(self):
        with pytest.raises(ValueError):
            rooted_codomain(0.0, 0.4, 1.0, 1)

    def test_n_factors_remake_the_heat_transform(self):
        # n factors need n-1 convolution operators; this pins the
        # factor-count convention used everywhere downstream
        plan = default_plan()
        s = plan.frequencies
        for p in (2, 3):
            rooted = rooted_codomain(s, 0.4, 1.0, p + 1)
            back = circular_convolve_many([rooted] * (p + 1), plan.ds)
            want = gauss_codomain(s, 0.4, 1.0)
            assert np.max(np.abs(back - want)) < 1e-8

    def test_off_by_one_convention_fails(self):
        plan = default_plan()
        s = plan.frequencies
        rooted = rooted_codomain(s, 0.4, 1.0, 3)
        over = circular_convolve_many([rooted] * 4, plan.ds)
        want = gauss_codomain(s, 0.4, 1.0)
        assert np.max(np.abs(over - want)) > 1e-2


class TestIteratedSelfConvolution:
    def test_discrete_oracle_matches_continuum(self):
        plan = default_plan()
        s = plan.frequencies
        for i in (1, 2):
            exact = gauss_selfconv_exact(s, 0.5, 1.0, i)
            disc = iterated_gauss_selfconv(s, 0.5, 1.0, i,
                                           "discrete_oracle", plan)
            assert np.max(np.abs(exact - disc)) < 1e-8

    def test_stated_form_off_by_the_prefactor_law(self):
        # the closed form divides by an extra (4 pi D t)^((i+1)/2); the
        # exponential profile is shared, so the ratio is s-independent
        s = np.linspace(0.0, 1.0, 11)
        for i in (1, 2, 3):
            for t in (0.25, 1.0, 2.0):
                stated = iterated_gauss_selfconv(s, t, 1.0, i,
                                                 "paper_formula")
                exact = gauss_selfconv_exact(s, t, 1.0, i)
                ratio = stated / exact
                law = (4.0 * math.pi * t) ** (-(i + 1) / 2.0)
                assert np.max(np.abs(ratio - law)) < 1e-12 * law

    def test_rejects_unknown_source(self):
        with pytest.raises(ValueError):
            iterated_gauss_selfconv(0.0, 0.5, 1.0, 1, "guess")

    def test_rejects_i_zero(self):
        with pytest.raises(ValueError):
            iterated_gauss_selfconv(0.0, 0.5, 1.0, 0, "paper_formula")


class TestClosedFormPairs:
    def test_lorentzian_pair_forward(self):
        plan = default_plan(32768, 20.0)
        f = lorentzian_pair(plan.points, 1.0, 1.0)
        want = lorentzian_codomain(plan.frequencies, 1.0, 1.0)
        got = plan.forward(f)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_lorentzian_inverse_off_the_kink(self):
        plan = default_plan(16384, 40.0)
        inv = plan.inverse(lorentzian_codomain(plan.frequencies,
                                               1.0, 1.0))
        want = lorentzian_pair(plan.points, 1.0, 1.0)
        off = np.abs(plan.points) > 0.5
        assert np.max(np.abs(inv[off] - want[off])) < 1e-6

    def test_erfc_pair_vs_inverse_dft(self):
        plan = default_plan(4096, 80.0)
        got = erfc_pair(plan.points, 0.7, 1.0, 1.0)
        want = plan.inverse(erfc_pair_codomain(plan.frequencies, 0.7,
                                               1.0, 1.0))
        assert np.max(np.abs(got - want)) < 1e-6

    def test_erfc_pair_against_the_four_factor_form_in_mpmath(self):
        # x steps through the switch of each term's erfc argument
        # z = (2t sqrt(Db) -+ x)/(2 sqrt(Dt)) from z = 4 down to z = -4, so
        # both the erfcx branch (z >= 0) and the direct one (z < 0) are hit
        mpmath.mp.dps = 50
        for D, b in ((1.0, 0.25), (2.0, 0.5)):
            for t in (0.05, 0.7, 50.0, 800.0):
                edge = 2.0 * t * math.sqrt(D * b)
                ks = np.linspace(-8.0, 8.0, 33) * math.sqrt(D * t)
                x = np.concatenate((edge + ks, -edge - ks, [0.0]))
                z = (edge - x) / (2.0 * math.sqrt(D * t))
                assert np.any(z < 0.0) and np.any(z >= 0.0)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    got = erfc_pair(x, t, D, b)
                rate = mpmath.sqrt(mpmath.mpf(b) / D)
                denom = 2 * mpmath.sqrt(mpmath.mpf(D) * t)
                root = mpmath.sqrt(mpmath.mpf(D) * b)
                for xv, gv in zip(x, got):
                    xm = mpmath.mpf(float(xv))
                    want = mpmath.exp(b * mpmath.mpf(t)) / (4 * root) * (
                        mpmath.exp(-xm * rate)
                        * mpmath.erfc((2 * t * root - xm) / denom)
                        + mpmath.exp(xm * rate)
                        * mpmath.erfc((2 * t * root + xm) / denom))
                    assert float(want) > 0.0
                    assert gv == pytest.approx(float(want), rel=1e-12), \
                        (D, b, t, xv)

    def test_erfc_pair_large_time_transient_vanishes(self):
        # e^(bt) prefactor must cancel against the erfc decay, not overflow
        plan = default_plan()
        vals = erfc_pair(plan.points, 50.0, 1.0, 1.0)
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(math.exp(-50.0) * vals)) < 1e-8

    def test_erfc_pair_rejects_bad_arguments(self):
        for t, D, b in ((0.0, 1.0, 1.0), (0.5, 0.0, 1.0), (0.5, 1.0, 0.0)):
            with pytest.raises(ValueError):
                erfc_pair(0.0, t, D, b)

    @given(st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=0.2, max_value=4.0),
           st.floats(min_value=0.2, max_value=4.0))
    @settings(max_examples=30, deadline=None)
    def test_erfc_pair_is_even_in_x(self, t, D, b):
        x = np.linspace(0.25, 6.0, 24)
        left = erfc_pair(-x, t, D, b)
        right = erfc_pair(x, t, D, b)
        scale = np.max(np.abs(right))
        assert np.max(np.abs(left - right)) < 1e-12 * scale
