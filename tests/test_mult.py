import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nwspectral.core import PhysicalParams
from nwspectral.kernels import gauss_codomain, heat_kernel, rooted_codomain
from nwspectral.mult import (GrowthWarning, MultSolverPlan,
                             corollary_integrand, fisher_constant_prob,
                             fisher_quadratic, h_mult_certificate,
                             h_mult_corollary, h_mult_quadrature,
                             mult_codomain, pde_residual_physical,
                             solve_mult)
from nwspectral.spectral import default_plan

P2 = PhysicalParams(1.0, 1.0, 0.01, 2)
P3 = PhysicalParams(1.0, 1.0, -0.5, 3)


@pytest.fixture(scope="module")
def plan():
    return default_plan()


class TestPlan:
    def test_derived_quantities_p2(self):
        mp = MultSolverPlan(P2)
        # integrand carries tau^(-p^2/(2(p+1))); q < 1 is integrable
        assert mp.singularity_exponent == pytest.approx(-4.0 / 6.0)

    def test_derived_quantities_p3(self):
        mp = MultSolverPlan(P3)
        assert mp.singularity_exponent == pytest.approx(-9.0 / 8.0)

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            MultSolverPlan(P2, t_min=0.0)

    def test_plan_at_p_fifty_constructs(self):
        # 1/(1 - p) (p - 1) + 1 is not exactly 0 in floating point at
        # p = 50; the plan must not depend on that round-off
        mp = MultSolverPlan(PhysicalParams(1.0, 0.01, -0.1, 50))
        assert mp.params.p == 50


class TestQuadrature:
    def test_eps_zero_skips_quadrature_exactly(self):
        from nwspectral.mult import _mult_prefactor
        mp = MultSolverPlan(PhysicalParams(1.0, 1.0, 0.0, 2))
        s = np.linspace(-1.0, 1.0, 9)
        h = h_mult_quadrature(s, 0.5, mp)
        assert np.all(h == _mult_prefactor(0.5, mp))

    def test_certificates_honor_their_error_estimate(self):
        rng = np.random.default_rng(0)
        for k in range(20):
            mp = MultSolverPlan(P2) if k < 14 else MultSolverPlan(P3)
            s = float(rng.uniform(0.0, 1.2))
            t = float(rng.uniform(0.05, 1.5))
            cert = h_mult_certificate(s, t, mp)
            assert cert.observed_change <= max(cert.error, 1e-16), (s, t)

    def test_certificate_refinement_is_consistent(self):
        cert = h_mult_certificate(0.3, 0.8, MultSolverPlan(P2))
        assert cert.value == pytest.approx(cert.refined_value,
                                           rel=1e-9, abs=1e-12)

    def test_sign_flip_in_s_for_positive_eps(self):
        # h changes sign along s at fixed t: positive where the growth
        # integral is small, negative once it dominates the constant
        mp = MultSolverPlan(P2)
        svals = np.linspace(0.0, 1.0, 41)
        h = h_mult_quadrature(svals, 1.0, mp)
        finite = np.isfinite(h)
        assert h[0] > 0.0
        assert np.any(h[finite] < 0.0)

    def test_overflow_frequencies_are_flagged(self, plan):
        mp = MultSolverPlan(P2)
        field, flagged = mult_codomain(1.0, mp, plan)
        assert flagged.any()
        assert np.all(field[flagged] == 0.0)
        assert np.all(np.isfinite(field))

    def test_p3_needs_the_cutoff(self):
        mp = MultSolverPlan(P3, t_min=0.01)
        with pytest.raises(ValueError):
            h_mult_quadrature(0.0, 0.005, mp)

    @given(st.floats(min_value=0.0, max_value=1.2),
           st.floats(min_value=0.05, max_value=1.5))
    @settings(max_examples=20, deadline=None)
    def test_certificate_property(self, s, t):
        cert = h_mult_certificate(s, t, MultSolverPlan(P2))
        assert cert.observed_change <= max(cert.error, 1e-16)


class TestClosedFormAccuracy:
    """h on the whole grid against 40-digit mpmath quadrature of its
    defining integral, at D = 1, eps = -0.5 and the default C = 1."""

    @staticmethod
    def _reference(s, t, mp):
        p, b = mp.params.p, mp.params.b
        with mpmath.workdps(40):
            s, t, b, eps = (mpmath.mpf(float(v)) for v in
                            (s, t, b, mp.params.eps))
            a = p * (2 * mpmath.pi * s) ** 2 + (1 - p * p) * b
            q = mpmath.mpf(p * p) / (2 * (p + 1))
            lower = 0 if p == 2 else mpmath.mpf(mp.t_min)
            integral = mpmath.quad(lambda tau: tau ** -q * mpmath.exp(a * tau),
                                   [lower, t])
            pref = (mpmath.exp((p * p - 1) * b * t)
                    * t ** (mpmath.mpf(p * p - p) / (2 * p + 2)))
            coef = (eps * (1 - p) * mpmath.sqrt(p + 1)
                    * (4 * mpmath.pi) ** (-mpmath.mpf(p) / (2 * p + 2)))
            return pref * (coef * integral + 1)

    # b = 100 takes 1F1 to arguments near -400; at that b the prefactor
    # e^((p^2 - 1) b t) leaves the double range past t = 0.88
    @pytest.mark.parametrize("p, b, t", [(2, 1.0, 1.0), (3, 1.0, 0.5),
                                         (3, 1.0, 1.0), (3, 1.0, 2.0),
                                         (3, 1.0, 4.0), (4, 1.0, 1.0),
                                         (3, 100.0, 0.5)])
    def test_grid_h_matches_mpmath(self, plan, p, b, t):
        mp = MultSolverPlan(PhysicalParams(1.0, b, -0.5, p))
        s = plan.frequencies
        h = h_mult_quadrature(s, t, mp)
        for target in (0.0, 0.5, 1.0):
            k = int(np.argmin(np.abs(s - target)))
            want = self._reference(s[k], t, mp)
            assert abs(float((h[k] - want) / want)) <= 1e-13, (s[k], h[k])


class TestSolutionField:
    def test_solution_assembles_rooted_kernel_and_h(self, plan):
        mp = MultSolverPlan(P3)
        s = plan.frequencies
        field, flagged = mult_codomain(0.5, mp, plan)
        h = h_mult_quadrature(s, 0.5, mp)
        rooted = rooted_codomain(s, 0.5, P3.D, P3.p + 1)
        want = rooted * h ** (1.0 / (1.0 - 3.0))
        assert not flagged.any()
        assert np.max(np.abs(field - want)) < 1e-12

    def test_pole_in_s_is_tamed_by_the_rooted_kernel(self, plan):
        # h crosses zero between grid points, but the rooted kernel has
        # already decayed there; the physical inversion stays finite
        mp = MultSolverPlan(P2)
        s = plan.frequencies
        h = h_mult_quadrature(s, 1.0, mp)
        finite = np.isfinite(h)
        assert np.any(h[finite] > 0.0) and np.any(h[finite] < 0.0)
        u = solve_mult(1.0, mp, plan)
        assert np.all(np.isfinite(u))

    def test_decay_for_nonpositive_eps(self, plan):
        for params in (P3, PhysicalParams(1.0, 1.0, 0.0, 2)):
            sups = [float(np.abs(solve_mult(t, MultSolverPlan(params),
                                            plan)).max())
                    for t in (0.5, 1.0, 2.0, 4.0)]
            assert all(b < a for a, b in zip(sups, sups[1:])), params


class TestScalingHypotheses:
    def test_calibration_on_a_known_solution(self, plan):
        # the residual machinery itself is validated against the
        # convolutional closed form, which does solve its PDE
        from nwspectral.conv import ConvSolution, solve_physical
        dt = 1e-3
        times = np.array([0.5 + k * dt for k in range(-2, 3)])
        sol = ConvSolution(P2, grid=plan)
        fam = np.stack([solve_physical(t, sol) for t in times])
        res = pde_residual_physical(fam, times, plan, P2, "none",
                                    "convolution_p")
        assert res < 1e-5

    def test_linear_part_matches_times_np1_at_eps_zero(self, plan):
        params = PhysicalParams(1.0, 1.0, 0.0, 2)
        dt = 1e-3
        times = np.array([0.5 + k * dt for k in range(-2, 3)])
        fam = np.stack([solve_mult(t, MultSolverPlan(params), plan)
                        for t in times])
        res = pde_residual_physical(fam, times, plan, params, "times_np1",
                                    "multiplicative_p")
        assert res < 1e-8

    def test_no_hypothesis_survives_nonzero_eps(self, plan):
        # the recorded negative result: every scaling leaves an O(eps)
        # first-order mismatch in the nonlinear term
        dt = 1e-3
        times = np.array([0.5 + k * dt for k in range(-2, 3)])
        fam = np.stack([solve_mult(t, MultSolverPlan(P2), plan)
                        for t in times])
        for hyp in ("none", "sqrt_np1", "times_np1"):
            res = pde_residual_physical(fam, times, plan, P2, hyp,
                                        "multiplicative_p")
            assert res > 1e-4, hyp

    def test_rejects_mismatched_shapes(self, plan):
        times = np.array([0.5, 0.501, 0.502, 0.503, 0.504])
        fam = np.zeros((4, plan.n))
        with pytest.raises(ValueError):
            pde_residual_physical(fam, times, plan, P2)


class TestCorollary:
    def test_integrand_sources_differ_by_the_prefactor_law(self, plan):
        svals = np.linspace(0.0, 1.0, 9)
        for p in (2, 3, 4):
            mp = MultSolverPlan(PhysicalParams(1.0, 1.0, 0.5, p))
            i = p - 2
            for tau in (0.25, 1.0):
                a = corollary_integrand(svals, tau, mp, "paper_formula")
                b = corollary_integrand(svals, tau, mp, "discrete_oracle",
                                        grid=plan)
                ratio = a / b
                law = (4.0 * math.pi * tau) ** (-(i + 1) / 2.0)
                spread = (ratio.max() - ratio.min()) / np.abs(ratio).max()
                assert spread < 1e-8
                assert np.max(np.abs(ratio - law)) < 1e-6 * law

    def test_integrated_ratio_is_not_constant_in_s(self, plan):
        # the factor is tau-dependent, so integrating mixes it; the
        # discrepancy cannot be absorbed by one constant
        mp = MultSolverPlan(PhysicalParams(1.0, 1.0, 0.5, 2))
        r0 = h_mult_corollary(0.0, 1.0, mp, "paper_formula") \
            / h_mult_corollary(0.0, 1.0, mp, "discrete_oracle",
                               grid=plan)
        r5 = h_mult_corollary(0.5, 1.0, mp, "paper_formula") \
            / h_mult_corollary(0.5, 1.0, mp, "discrete_oracle",
                               grid=plan)
        assert abs(r0 - r5) > 0.5

    def test_rejects_unknown_source(self):
        with pytest.raises(ValueError):
            h_mult_corollary(0.0, 1.0, MultSolverPlan(P2), "guess")


class TestFisherForms:
    def test_constant_probability_is_damped_heat_kernel(self):
        got = fisher_constant_prob(0.4, 1.0, 1.0, -0.3, 0.5)
        want = heat_kernel(0.4, 1.0, 1.0) * math.exp(-0.3 * 0.5)
        assert got == pytest.approx(want, rel=1e-14)

    def test_growth_regime_warns(self):
        with pytest.warns(GrowthWarning):
            fisher_constant_prob(0.0, 1.0, 1.0, 1.0, 0.25)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            fisher_constant_prob(0.0, 1.0, 1.0, 0.1, 0.0)
        with pytest.raises(ValueError):
            fisher_constant_prob(0.0, 1.0, 1.0, 0.1, 1.5)

    def test_quadratic_form_matches_per_frequency_ode(self, plan):
        from scipy.integrate import solve_ivp
        params = PhysicalParams(1.0, 1.0, 0.3, 2)

        def rhs(t, y, s):
            g = gauss_codomain(s, t, 1.0)
            return [-(2.0 * math.pi * s) ** 2 * y[0]
                    - 0.3 * 0.25 * g * y[0]]

        # atol far below the field keeps u(0.2, 100) = 2.5e-69 a relative
        # comparison rather than one against the solver's absolute floor
        for t_end in (1.0, 0.01, 100.0):
            field = fisher_quadratic(t_end, MultSolverPlan(params),
                                     prob_product=0.25, grid=plan)
            for target in (0.0, 0.2, 0.5):
                idx = int(np.argmin(np.abs(plan.frequencies
                                           - target)))
                s0 = float(plan.frequencies[idx])
                ode = solve_ivp(rhs, (0.0, t_end), [1.0], args=(s0,),
                                method="DOP853", rtol=1e-12, atol=1e-300)
                assert float(field[idx].real) == pytest.approx(
                    ode.y[0, -1], rel=1e-9), (t_end, target)

    def test_quadratic_requires_p_two(self):
        with pytest.raises(ValueError):
            fisher_quadratic(1.0, MultSolverPlan(P3))
