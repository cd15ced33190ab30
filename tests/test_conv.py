import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nwspectral.conv import (REGIMES, ConvSolution, beta_of,
                             codomain_ode_residual,
                             fisher_codomain_expansion, fisher_erfc_approx,
                             fisher_erfc_transform_consistent, h_specific,
                             large_p_limit, root_locus, root_time,
                             solve_forced,
                             solve_physical, solve_with_kernels)
from nwspectral.core import BranchError, KernelSpec, PhysicalParams, PoleError
from nwspectral.kernels import gauss_codomain, heat_kernel
from nwspectral.oracle import OracleRun, scalar_ode_oracle, step_etd
from nwspectral.spectral import TransformPlan, default_plan

P_REF = PhysicalParams(1.0, 1.0, 0.1, 2)


@pytest.fixture(scope="module")
def plan():
    return default_plan()


class TestHSpecific:
    def test_time_zero_returns_the_constant(self, plan):
        s = plan.frequencies
        assert np.array_equal(h_specific(s, 0.0, P_REF, KernelSpec()),
                              np.ones(s.shape))
        spec = KernelSpec(C=2.5)
        assert np.array_equal(h_specific(s, 0.0, P_REF, spec),
                              np.full(s.shape, 2.5))

    def test_matches_direct_formula(self):
        # C - eps (p-1) (1 - e^(-(p-1) beta t)) / ((p-1) beta)
        for s in (0.0, 0.3, 1.1):
            for t in (0.2, 1.0):
                beta = beta_of(s, P_REF)
                want = 1.0 - 0.1 * (1.0 - math.exp(-beta * t)) / beta
                got = h_specific(s, t, P_REF, KernelSpec())
                assert got == pytest.approx(want, rel=1e-14)

    def test_small_z_series_branch_is_continuous(self):
        # phi crosses its series cutoff without a jump
        params = PhysicalParams(1.0, 1e-9, 0.1, 2)
        lo = h_specific(0.0, 1e-2, params, KernelSpec())
        params2 = PhysicalParams(1.0, 2e-9, 0.1, 2)
        hi = h_specific(0.0, 1e-2, params2, KernelSpec())
        assert abs(lo - hi) < 1e-10

    def test_negative_time_allowed_for_forced_integrand(self):
        val = h_specific(0.0, -0.5, P_REF, KernelSpec())
        assert math.isfinite(val)

    @given(st.floats(min_value=-1.5, max_value=1.5),
           st.floats(min_value=0.01, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_eps_zero_is_identically_C(self, s, t):
        params = PhysicalParams(1.0, 1.0, 0.0, 2)
        assert h_specific(s, t, params, KernelSpec()) == 1.0


class TestPulledOutForm:
    def test_equivalent_arrangement_of_the_solution(self, plan):
        # u = g e^(-bt) h^m equals g (e^((p-1)bt) h)^m since
        # e^(-bt) = (e^((p-1)bt))^m at m = -1/(p-1)
        s = plan.frequencies
        for params in (P_REF, PhysicalParams(0.5, 2.0, 0.05, 4)):
            sol = ConvSolution(params, grid=plan)
            m = -1.0 / (params.p - 1.0)
            for t in (0.2, 0.8):
                h = h_specific(s, t, params, KernelSpec())
                pulled = gauss_codomain(s, t, params.D) \
                    * (np.exp((params.p - 1.0) * params.b * t) * h) ** m
                direct = sol.u(s, t)
                assert np.max(np.abs(pulled - direct)) < 1e-13


class TestCodomainResiduals:
    def test_reference_sets_satisfy_the_ode(self, plan):
        s = plan.frequencies
        for combo in ((1.0, 1.0, 0.1, 2), (1.0, 1.0, -0.5, 3),
                      (0.5, 2.0, 0.05, 4)):
            sol = ConvSolution(PhysicalParams(*combo), grid=plan)
            for t in (0.2, 0.5, 1.0):
                worst = float(np.max(codomain_ode_residual(sol, s, t,
                                                           dt=1e-5)))
                assert worst < 1e-6, (combo, t)

    def test_rejects_oversized_stencil_step(self):
        sol = ConvSolution(P_REF)
        with pytest.raises(ValueError):
            codomain_ode_residual(sol, 0.0, 0.5, dt=0.01)


class TestLinearReduction:
    def test_eps_zero_collapses_to_transported_kernel(self, plan):
        params = PhysicalParams(1.0, 1.0, 0.0, 2)
        sol = ConvSolution(params, grid=plan)
        s = plan.frequencies
        for t in (0.1, 0.5, 1.0):
            want = gauss_codomain(s, t, 1.0) * math.exp(-t)
            got = sol.u_field(t)
            rel = np.max(np.abs(got - want) / np.maximum(np.abs(want),
                                                         1e-300))
            assert rel < 1e-12


class TestRootLocus:
    def test_reference_root_is_log_two(self):
        rep = root_locus(PhysicalParams(1.0, 1.0, 2.0, 2))
        assert rep.regime == "root_at"
        assert rep.t0 == pytest.approx(math.log(2.0), abs=1e-12)
        assert rep.difference < 1e-8

    def test_negative_eps_has_no_root(self):
        for eps in (-2.0, -0.5, -0.01):
            rep = root_locus(PhysicalParams(1.0, 1.0, eps, 2))
            assert rep.regime == "no_root"
            assert rep.t0 is None

    def test_threshold_case_is_asymptotic(self):
        # eps = C beta exactly: h decays to 0 but never crosses
        rep = root_locus(PhysicalParams(1.0, 1.0, 1.0, 2))
        assert rep.regime == "asymptotic_infinity"

    def test_monotone_in_eps_toward_threshold(self):
        eps_values = (1.5, 1.3, 1.1, 1.05, 1.01)
        t0s = [root_locus(PhysicalParams(1.0, 1.0, e, 2)).t0
               for e in eps_values]
        assert all(b > a for a, b in zip(t0s, t0s[1:]))

    def test_blow_up_oracle_agrees(self):
        from nwspectral.oracle import BlowUpError
        rep = root_locus(PhysicalParams(1.0, 1.0, 2.0, 2))
        with pytest.raises(BlowUpError) as info:
            scalar_ode_oracle(0.0, PhysicalParams(1.0, 1.0, 2.0, 2), 1.0,
                              2.0)
        assert abs(info.value.time - rep.t0) < 1e-3

    def test_root_time_really_zeroes_h(self):
        rep = root_locus(PhysicalParams(1.0, 1.0, 2.0, 2))
        val = h_specific(0.0, rep.t0, PhysicalParams(1.0, 1.0, 2.0, 2),
                         KernelSpec())
        assert abs(val) < 1e-10

    def test_zero_b_formula_matches_bisection(self):
        # at b = 0, s = 0: h = 1 - eps (p-1) t, so t0 = 1/(eps (p-1))
        for eps, p, want in ((0.5, 2, 2.0), (2.0, 2, 0.5), (0.5, 3, 1.0)):
            rep = root_locus(PhysicalParams(1.0, 0.0, eps, p))
            assert rep.regime == "root_at"
            assert rep.t0 == pytest.approx(want, rel=1e-15)
            assert rep.difference < 1e-8

    @given(st.floats(min_value=1.05, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_formula_vs_bisection_property(self, eps):
        rep = root_locus(PhysicalParams(1.0, 1.0, eps, 2))
        assert rep.regime == "root_at"
        assert rep.difference < 1e-8


class TestRootTime:
    @pytest.mark.parametrize("C, beta, eps, p, t0, regime", [
        (1.0, 1.0, -0.5, 2, None, "no_root"),              # eps < 0
        (1.0, 2.0, 1.0, 3, None, "no_root"),               # 0 < eps < C beta
        (1.0, 1.0, 1.0, 2, None, "asymptotic_infinity"),   # eps = C beta
        (1.0, 1.0, 2.0, 2, math.log(2.0), "root_at"),      # eps > C beta
        (2.0, 1.5, 4.0, 3, math.log(4.0) / 3.0, "root_at"),
        (1.0, -1.0, 1.0, 2, math.log(2.0), "root_at"),     # h = 2 - e^t
        (1.0, 0.0, 0.5, 2, 2.0, "root_at"),                # beta = 0
        (1.0, 0.0, 0.5, 4, 2.0 / 3.0, "root_at"),
        (1.0, 0.0, -0.5, 2, None, "no_root"),
        (1.0, 1.0, 0.0, 2, None, "no_root"),               # eps = 0
        (1.0, 0.0, 0.0, 2, None, "no_root"),
    ])
    def test_scalar_regimes(self, C, beta, eps, p, t0, regime):
        got_t0, got_regime = root_time(C, beta, eps, p)
        assert type(got_t0) is float and type(got_regime) is str
        assert got_regime == regime
        if t0 is None:
            assert math.isnan(got_t0)
        else:
            assert got_t0 == pytest.approx(t0, rel=1e-15)

    def test_no_warnings_at_the_degenerate_points(self):
        with np.errstate(all="raise"):
            root_time(np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                      np.array([0.0, 1.0, 0.0]), 2)

    def test_broadcasts_like_its_scalar_form(self):
        beta = np.array([0.0, 0.5, 1.0, 2.0])
        eps = np.array([[-1.0], [0.0], [0.5], [1.0], [3.0]])
        p = np.array([2, 3, 2, 5, 3])[:, None]
        t0, regime = root_time(1.0, beta, eps, p)
        assert t0.shape == regime.shape == (5, 4)
        for i, j in np.ndindex(5, 4):
            want = root_time(1.0, float(beta[j]), float(eps[i, 0]),
                             int(p[i, 0]))
            assert regime[i, j] == want[1]
            assert t0[i, j] == want[0] or np.isnan(t0[i, j]) \
                and math.isnan(want[0])
        assert set(regime.ravel()) == set(REGIMES)

    @pytest.mark.parametrize("b, eps, p", [
        (1.0, 2.0, 2), (0.5, 0.6, 3), (2.0, 9.0, 4), (-0.5, 0.25, 2),
        (1.0, 1.01, 2)])
    def test_agrees_with_bisection(self, b, eps, p):
        rep = root_locus(PhysicalParams(1.0, b, eps, p))
        t0, regime = root_time(1.0, b, eps, p)
        assert regime == rep.regime == "root_at"
        assert abs(t0 - rep.t0_bisection) < 1e-8


class TestPolicies:
    def test_report_policy_marks_the_pole_infinite(self):
        params = PhysicalParams(1.0, 1.0, 2.0, 2)
        sol = ConvSolution(params)
        t0 = math.log(2.0)
        assert np.isinf(sol.u(0.0, t0))

    def test_error_policy_raises(self):
        params = PhysicalParams(1.0, 1.0, 2.0, 2)
        sol = ConvSolution(params, kernel=KernelSpec(pole_policy="error"))
        with pytest.raises(PoleError):
            sol.u(0.0, math.log(2.0))

    def test_clamp_policy_stays_finite(self):
        params = PhysicalParams(1.0, 1.0, 2.0, 2)
        sol = ConvSolution(params, kernel=KernelSpec(pole_policy="clamp"))
        val = sol.u(0.0, math.log(2.0))
        assert np.isfinite(val)

    def test_even_root_branch_raises_beyond_the_pole(self):
        # p = 3: h < 0 needs (-)^(-1/2), which has no real branch
        params = PhysicalParams(1.0, 1.0, 4.0, 3)
        rep = root_locus(params)
        with pytest.raises(BranchError):
            ConvSolution(params).u(0.0, rep.t0 * 1.5)

    def test_odd_root_continues_negative(self):
        # p = 2: h < 0 flips the sign of u, no branch problem
        params = PhysicalParams(1.0, 1.0, 2.0, 2)
        val = ConvSolution(params).u(0.0, 1.2 * math.log(2.0))
        assert np.isfinite(val) and val < 0


class TestLimits:
    def test_delta_limit_at_time_zero(self, plan):
        sol = ConvSolution(P_REF, grid=plan)
        h0 = sol.h_spec(plan.frequencies, 0.0)
        assert np.array_equal(h0, np.ones(plan.n))

    def test_large_p_sweep_decreases_to_zero(self):
        sups = large_p_limit(P_REF, t=1.0)
        assert all(b < a for a, b in zip(sups, sups[1:]))
        assert sups[-1] < 1e-3

    def test_large_p_requires_small_eps(self):
        with pytest.raises(ValueError):
            large_p_limit(PhysicalParams(1.0, 1.0, 2.0, 2), t=1.0)


class TestSolvePhysical:
    def test_matches_manual_inverse(self, plan):
        sol = ConvSolution(P_REF, grid=plan)
        got = solve_physical(0.5, sol)
        want = plan.inverse(sol.u_field(0.5))
        assert np.array_equal(got, want)

    def test_rejects_under_resolved_grid(self):
        sol = ConvSolution(P_REF, grid=TransformPlan(16, 20.0))
        from nwspectral.core import SolverError
        with pytest.raises(SolverError):
            solve_physical(0.5, sol)

    def test_pole_time_raises(self):
        sol = ConvSolution(PhysicalParams(1.0, 1.0, 2.0, 2))
        with pytest.raises(PoleError):
            solve_physical(math.log(2.0), sol)


class TestForced:
    def test_zero_forcing_reduces_to_homogeneous(self, plan):
        sol = ConvSolution(P_REF, grid=plan)

        def forcing(s, tau):
            return np.zeros(np.shape(s))

        got = solve_forced(0.4, sol, forcing, initial=1.0)
        want = sol.u_field(0.4)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_linear_case_is_exact_duhamel(self):
        # eps = 0: compare against the standard variation-of-constants
        # integral computed independently per frequency
        from scipy.integrate import quad
        params = PhysicalParams(1.0, 1.0, 0.0, 2)
        sol = ConvSolution(params)
        grid = sol.grid
        amp = 0.3

        def forcing(s, tau):
            prof = np.exp(-(2.0 * np.pi * np.asarray(s)) ** 2 * 0.5)
            win = math.sin(math.pi * tau / 0.2) ** 2 \
                if 0.0 < tau < 0.2 else 0.0
            return amp * prof * win

        t = 0.4
        got = solve_forced(t, sol, forcing, initial=0.0)
        for idx in (grid.n // 2, grid.n // 2 + 3):
            s0 = float(grid.frequencies[idx])
            beta = beta_of(s0, params)

            def integrand(tau):
                return float(forcing(s0, tau)) * math.exp(-beta * (t - tau))

            want, err = quad(integrand, 0.0, t, limit=200)
            assert got[idx].real == pytest.approx(want, rel=1e-9, abs=1e-14)

    def test_forced_oracle_agreement(self):
        # B = 1 reading: the defect is O(eps * amplitude), inside 1e-3
        plan40 = TransformPlan(256, 40.0)
        sol = ConvSolution(P_REF, grid=plan40)

        def forcing(s, tau):
            prof = np.exp(-(2.0 * np.pi * np.asarray(s)) ** 2 * 0.5)
            win = np.where((tau > 0.0) & (tau < 0.2),
                           np.sin(np.pi * np.clip(tau, 0.0, 0.2) / 0.2) ** 2,
                           0.0)
            return 0.2 * prof * win

        ic = solve_forced(0.05, sol, forcing, initial=1.0)
        steps = 144
        run = OracleRun(P_REF, plan40, "forced_convolution", 0.05, 0.4,
                        0.35 / steps, initial=ic, forcing=forcing)
        traj = step_etd(run)
        want = solve_forced(0.4, sol, forcing, initial=1.0)
        rel = np.linalg.norm(traj.values[-1] - want) / np.linalg.norm(want)
        assert rel < 1e-3

    def test_unbounded_forcing_rejected(self, plan):
        # eps = 0 leaves e^(beta tau) uncompensated; a flat spectrum then
        # overflows once beta_max * t passes the exp range
        sol = ConvSolution(PhysicalParams(1.0, 1.0, 0.0, 2),
                           grid=plan)
        from nwspectral.core import SolverError

        def forcing(s, tau):
            return np.ones(np.shape(s))

        with pytest.raises(SolverError):
            solve_forced(2.0, sol, forcing)


class TestKernelModes:
    @staticmethod
    def _gauss_profile(s):
        return np.exp(-(2.0 * np.pi * np.asarray(s)) ** 2 * 0.25)

    def test_empty_profiles_fall_back(self, plan):
        sol = ConvSolution(P_REF, grid=plan)
        got = solve_with_kernels(0.4, sol, extra=())
        assert np.array_equal(got, sol.u_field(0.4))

    def test_product_mode_matches_plain_ode_with_scaled_data(self):
        # kappa multiplies the initial data; the evolution is the plain
        # codomain ODE, confirmed against the stepping oracle
        plan40 = TransformPlan(256, 40.0)
        sol = ConvSolution(P_REF, grid=plan40)
        f0 = solve_with_kernels(0.05, sol, extra=(self._gauss_profile,),
                                mode="product_K1")
        f1 = solve_with_kernels(0.4, sol, extra=(self._gauss_profile,),
                                mode="product_K1")
        steps = 144
        run = OracleRun(P_REF, plan40, "convolution_p", 0.05, 0.4,
                        0.35 / steps, initial=f0)
        traj = step_etd(run)
        rel = np.linalg.norm(traj.values[-1] - f1) \
            / np.linalg.norm(f1)
        assert rel < 1e-10

    def test_convolution_mode_matches_kernel_weighted_ode(self):
        # the kernel multiplies the nonlinear term in codomain; without
        # that modification the same run misses by orders of magnitude
        plan40 = TransformPlan(256, 40.0)
        sol = ConvSolution(P_REF, grid=plan40)
        f0 = solve_with_kernels(0.05, sol, extra=(self._gauss_profile,),
                                mode="convolution_K2")
        f1 = solve_with_kernels(0.4, sol, extra=(self._gauss_profile,),
                                mode="convolution_K2")
        steps = 144
        run = OracleRun(P_REF, plan40, "convolution_p", 0.05, 0.4,
                        0.35 / steps, initial=f0,
                        kernel_profile=self._gauss_profile)
        traj = step_etd(run)
        rel = np.linalg.norm(traj.values[-1] - f1) \
            / np.linalg.norm(f1)
        assert rel < 1e-10

        plain = OracleRun(P_REF, plan40, "convolution_p", 0.05, 0.4,
                          0.35 / steps, initial=f0)
        traj2 = step_etd(plain)
        rel2 = np.linalg.norm(traj2.values[-1] - f1) \
            / np.linalg.norm(f1)
        assert rel2 > 1e-4

    def test_rejects_unknown_mode(self, plan):
        sol = ConvSolution(P_REF, grid=plan)
        with pytest.raises(ValueError):
            solve_with_kernels(0.4, sol, extra=(self._gauss_profile,),
                               mode="K3")

    @pytest.mark.parametrize("mode", ["product_K1", "convolution_K2"])
    def test_h_matches_per_frequency_quadrature(self, plan, mode):
        # h recovered from the field against C - eps (p-1) int A e^(-k tau)
        # by scalar quadrature; D = 0.05 keeps g(1.5, 50) a normal double.
        # At t = 0, h is C exactly, so the field is the plain solve's.
        from scipy.integrate import quad
        s = plan.frequencies
        kappa = 1.0 / (1.0 + s * s)
        for p in (2, 3):
            for b in (0.0, 1.0):
                params = PhysicalParams(0.05, b, -0.3, p)
                sol = ConvSolution(params, kernel=KernelSpec(C=2.0),
                                   grid=plan)
                amp = kappa ** (p - 1) if mode == "product_K1" else kappa
                at_zero = sol.u_field(0.0)
                if mode == "product_K1":
                    at_zero = at_zero * kappa
                assert np.array_equal(solve_with_kernels(
                    0.0, sol, extra=(kappa,), mode=mode), at_zero)
                for t in (0.4, 50.0):
                    field = solve_with_kernels(t, sol, extra=(kappa,),
                                               mode=mode)
                    for target in (0.0, 0.5, 1.5):
                        k = int(np.argmin(np.abs(s - target)))
                        scale = gauss_codomain(s[k], t, 0.05) \
                            * math.exp(-b * t)
                        if mode == "product_K1":
                            scale = scale * kappa[k]
                        h = (field[k].real / scale) ** (1.0 - p)
                        rate = (p - 1.0) * beta_of(s[k], params)
                        integral = quad(lambda tau: math.exp(-rate * tau),
                                        0.0, t, epsabs=0.0, epsrel=1e-13,
                                        limit=200)[0]
                        want = 2.0 + 0.3 * (p - 1.0) * amp[k] * integral
                        assert abs(h - want) <= 1e-13 * abs(want), \
                            (p, b, t, target)

    @pytest.mark.parametrize("mode", ["product_K1", "convolution_K2"])
    def test_error_policy_raises_past_the_pole(self, plan, mode):
        # the root of h at s = 0 is t0 = ln 2, as for the plain solve
        sol = ConvSolution(PhysicalParams(1.0, 1.0, 2.0, 2),
                           kernel=KernelSpec(pole_policy="error"),
                           grid=plan)
        unit = np.ones(plan.n)
        with pytest.raises(PoleError):
            sol.u_field(1.0)
        with pytest.raises(PoleError):
            solve_with_kernels(1.0, sol, extra=(unit,), mode=mode)
        before = solve_with_kernels(0.5, sol, extra=(unit,), mode=mode)
        assert np.all(np.isfinite(before))


class TestScalarExample:
    def test_codomain_value_at_origin(self):
        # e^(-t) / (1 - eps (1 - e^(-t))) at s = 0, b = 1, p = 2
        sol = ConvSolution(P_REF)
        t = 0.5
        want = math.exp(-t) / (1.0 - 0.1 * (1.0 - math.exp(-t)))
        assert float(np.real(sol.u(0.0, t))) == pytest.approx(want,
                                                              rel=1e-14)

    def test_adaptive_ode_oracle_confirms(self):
        got = scalar_ode_oracle(0.0, P_REF, 1.0, 0.5)
        sol = ConvSolution(P_REF)
        assert float(np.real(sol.u(0.0, 0.5))) == pytest.approx(got,
                                                                rel=1e-10)


class TestFisherForms:
    def test_printed_form_misses_the_acceptance_bound(self):
        # the stated four-erfc expression inverts its last term with the
        # wrong decay pattern; the gap is first order in eps and lands
        # just above 1e-4 at the pinned parameters
        params = PhysicalParams(1.0, 1.0, 0.01, 2)
        plan = TransformPlan(4096, 80.0)
        ref = plan.inverse(fisher_codomain_expansion(plan.frequencies,
                                                     0.5, params))
        printed = fisher_erfc_approx(plan.points, 0.5, params)
        gap = float(np.max(np.abs(printed - ref)))
        assert 1e-4 < gap < 1.2e-4

    def test_consistent_variant_matches_to_roundoff(self):
        params = PhysicalParams(1.0, 1.0, 0.01, 2)
        plan = TransformPlan(4096, 80.0)
        ref = plan.inverse(fisher_codomain_expansion(plan.frequencies,
                                                     0.5, params))
        got = fisher_erfc_transform_consistent(plan.points, 0.5, params)
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_gap_scales_linearly_in_eps(self):
        plan = TransformPlan(1024, 80.0)
        gaps = []
        for eps in (0.005, 0.01, 0.02):
            params = PhysicalParams(1.0, 1.0, eps, 2)
            ref = plan.inverse(fisher_codomain_expansion(
                plan.frequencies, 0.5, params))
            printed = fisher_erfc_approx(plan.points, 0.5, params)
            gaps.append(float(np.max(np.abs(printed - ref))))
        assert gaps[1] / gaps[0] == pytest.approx(2.0, rel=0.05)
        assert gaps[2] / gaps[1] == pytest.approx(2.0, rel=0.05)

    def test_guards_reject_out_of_scope_parameters(self):
        with pytest.raises(ValueError):
            fisher_erfc_approx(0.0, 0.5, PhysicalParams(1.0, 1.0, 0.01, 3))
        with pytest.raises(ValueError):
            fisher_erfc_approx(0.0, 0.5, PhysicalParams(1.0, 1.0, 0.5, 2))
