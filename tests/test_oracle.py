import math

import numpy as np
import pytest

from nwspectral import oracle, report
from nwspectral.conv import ConvSolution
from nwspectral.core import PhysicalParams, SolverError
from nwspectral.kernels import gauss_codomain
from nwspectral.oracle import (BlowUpError, OracleRun, _dealiased_power,
                               resolve_initial, scalar_ode_oracle,
                               stability_bound, step_etd)
from nwspectral.spectral import TransformPlan, default_plan

P_REF = PhysicalParams(1.0, 1.0, 0.1, 2)


@pytest.fixture(scope="module")
def plan40():
    return TransformPlan(256, 40.0)


def _run(params, plan, t_end, steps, **kw):
    return OracleRun(params, plan, kw.pop("nonlinearity", "convolution_p"),
                     0.05, t_end, (t_end - 0.05) / steps, **kw)


class TestRunValidation:
    def test_rejects_unstable_step(self, plan40):
        # the bound is 2.5 over the stage's Lipschitz constant eps p A^(p-1)
        params = PhysicalParams(1.0, 1.0, 2.0, 2)
        u0 = ConvSolution(params, grid=plan40).u_field(0.05)
        bound = 2.5 / (4.0 * float(np.abs(u0).max()))
        assert stability_bound(params, plan40, u0) == pytest.approx(bound)
        dt = bound * 1.001
        with pytest.raises(ValueError, match="stability bound"):
            OracleRun(params, plan40, "convolution_p", 0.05, 0.05 + dt, dt)
        dt = bound * 0.999
        OracleRun(params, plan40, "convolution_p", 0.05, 0.05 + dt, dt)

    def test_accepts_a_step_the_diffusive_bound_rejected(self):
        # the max-principle run's step on the 256/20 grid, 5x the old
        # explicit-diffusion limit 0.5 / (D (2 pi s_max)^2 + |b|)
        plan = default_plan()
        dt = 0.95 / 154
        for b in (0.0, 1.0):
            params = PhysicalParams(1.0, b, -0.5, 2)
            cfl = 0.5 / ((2.0 * math.pi * plan.s_max) ** 2 + b)
            assert dt > 4.0 * cfl
            run = OracleRun(params, plan, "convolution_p", 0.05, 1.0, dt)
            assert run.n_steps == 154

    def test_linear_run_takes_any_dividing_step(self, plan40):
        params = PhysicalParams(1.0, 1.0, 0.0, 2)
        assert stability_bound(params, plan40) == math.inf
        s = plan40.frequencies
        want = gauss_codomain(s, 0.5, 1.0) * math.exp(-0.5)
        for steps in (1, 3):
            got = step_etd(_run(params, plan40, 0.5, steps)).values[-1]
            assert np.max(np.abs(got - want)
                          / np.maximum(np.abs(want), 1e-300)) < 1e-13

    def test_multiplicative_bound_reads_the_physical_amplitude(self, plan40):
        s = plan40.frequencies
        init = gauss_codomain(s, 0.3, 1.0)
        peak = float(np.abs(plan40.inverse(init)).max())
        got = stability_bound(P_REF, plan40, init, "multiplicative_p")
        assert got == pytest.approx(2.5 / (0.2 * peak), rel=1e-12)

    def test_kernel_profile_peak_scales_the_bound(self, plan40):
        init = np.full(plan40.n, 2.0, dtype=complex)
        got = stability_bound(P_REF, plan40, init,
                              kernel_profile=np.full(plan40.n, 0.5))
        assert got == pytest.approx(2.5 / (0.1 * 2 * 0.5 * 2.0))

    def test_rejects_non_divisible_span(self, plan40):
        with pytest.raises(ValueError):
            OracleRun(P_REF, plan40, "convolution_p", 0.05, 0.5, 1.1e-3)

    def test_rejects_unknown_nonlinearity(self, plan40):
        with pytest.raises(ValueError):
            _run(P_REF, plan40, 0.5, 92, nonlinearity="cubic")

    def test_rejects_forcing_without_forced_mode(self, plan40):
        with pytest.raises(ValueError):
            _run(P_REF, plan40, 0.5, 92, forcing=lambda s, t: 0.0 * s)

    def test_forced_mode_requires_forcing(self, plan40):
        with pytest.raises(ValueError):
            _run(P_REF, plan40, 0.5, 92, nonlinearity="forced_convolution")

    def test_rejects_early_start_without_data(self, plan40):
        with pytest.raises(ValueError):
            OracleRun(P_REF, plan40, "convolution_p", 0.001, 0.5, 1e-4)

    def test_kernel_profile_is_conv_only(self, plan40):
        with pytest.raises(ValueError):
            _run(P_REF, plan40, 0.5, 92, nonlinearity="multiplicative_p",
                 kernel_profile=lambda s: np.ones(np.shape(s)))


class TestStepping:
    def test_linear_case_reproduces_transport_exactly(self, plan40):
        params = PhysicalParams(1.0, 1.0, 0.0, 2)
        run = _run(params, plan40, 0.5, 92)
        traj = step_etd(run)
        s = plan40.frequencies
        want = gauss_codomain(s, 0.5, 1.0) * math.exp(-0.5)
        got = traj.values[-1]
        # the integrating factor makes eps = 0 exact, not just accurate
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)) \
            < 1e-13

    def test_agrees_with_closed_form(self, plan40):
        run = _run(P_REF, plan40, 0.5, 92)
        traj = step_etd(run)
        want = ConvSolution(P_REF, grid=plan40).u_field(0.5)
        rel = np.linalg.norm(traj.values[-1] - want) / np.linalg.norm(want)
        assert rel < 1e-3

    def test_matches_the_textbook_tableau(self, plan40):
        # the step loop regroups the IFRK4 arithmetic; the plain tableau
        # must agree to round-off
        run = _run(P_REF, plan40, 0.5, 92)
        s = plan40.frequencies
        beta = 1.0 + (2.0 * np.pi * s) ** 2
        dt = run.dt
        E, E2 = np.exp(-beta * dt), np.exp(-beta * dt / 2.0)
        u = run.start
        for _ in range(run.n_steps):
            k1 = 0.1 * u ** 2
            k2 = 0.1 * (E2 * (u + dt / 2.0 * k1)) ** 2
            k3 = 0.1 * (E2 * u + dt / 2.0 * k2) ** 2
            k4 = 0.1 * (E * u + dt * E2 * k3) ** 2
            u = E * u + dt / 6.0 * (E * k1 + 2.0 * E2 * (k2 + k3) + k4)
        got = step_etd(run).values[-1]
        assert np.max(np.abs(got - u)) <= 1e-13 * np.max(np.abs(u))

    def test_fourth_order_convergence(self, plan40):
        # measured away from the round-off floor by running toward a pole
        params = PhysicalParams(1.0, 1.0, 2.0, 2)
        exact = ConvSolution(params,
                             grid=plan40).u_field(0.65)
        errs = []
        for steps in (123, 246, 492):
            traj = step_etd(_run(params, plan40, 0.65, steps))
            errs.append(np.linalg.norm(traj.values[-1] - exact)
                        / np.linalg.norm(exact))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(3.5 < o < 4.5 for o in orders), orders

    def test_mass_conserved_without_decay(self, plan40):
        # b = 0, eps = 0: u(0, t) is the conserved total mass
        params = PhysicalParams(1.0, 0.0, 0.0, 2)
        run = _run(params, plan40, 0.5, 91)
        traj = step_etd(run)
        n_half = plan40.n // 2
        start = traj.values[0][n_half]
        end = traj.values[-1][n_half]
        assert abs(end - start) < 1e-13 * abs(start)

    def test_trajectory_layout(self, plan40):
        run = _run(P_REF, plan40, 0.5, 92)
        traj = step_etd(run)
        assert len(traj.times) == 93
        assert traj.times[0] == pytest.approx(0.05)
        assert traj.times[-1] == pytest.approx(0.5)
        assert traj.values.shape == (len(traj.times), plan40.n)

    def test_instability_aborts_with_diagnosis(self, plan40):
        # stepping across the blow-up time must fail loudly, not wrap
        params = PhysicalParams(1.0, 1.0, 2.0, 2)
        run = _run(params, plan40, 0.75, 143)
        with pytest.raises(SolverError):
            step_etd(run)

    def test_non_finite_state_aborts(self, plan40):
        # a NaN forcing makes the state NaN, which no amplitude check passes
        s = plan40.frequencies

        def forcing(freq, t):
            return np.full(np.shape(freq), np.nan if t > 0.1 else 0.0)

        run = _run(P_REF, plan40, 0.5, 92, nonlinearity="forced_convolution",
                   initial=gauss_codomain(s, 0.05, 1.0), forcing=forcing)
        with pytest.raises(SolverError):
            step_etd(run)

    def test_steps_from_the_start_resolved_at_construction(self, plan40,
                                                           monkeypatch):
        run = _run(P_REF, plan40, 0.5, 92)
        want = ConvSolution(P_REF, grid=plan40).u_field(0.05)
        assert np.max(np.abs(run.start - want)) == 0.0

        def resolve_again(run):
            raise AssertionError("start field resolved a second time")

        monkeypatch.setattr(oracle, "resolve_initial", resolve_again)
        assert np.array_equal(step_etd(run).values[0], run.start)

    def test_multiplicative_stage_uses_dealiasing(self, plan40):
        # a pure mode at k drives 2k; without padding it would fold back
        s = plan40.frequencies
        init = gauss_codomain(s, 0.3, 1.0)
        run = OracleRun(PhysicalParams(1.0, 1.0, 0.2, 2), plan40,
                        "multiplicative_p", 0.05, 0.1,
                        (0.1 - 0.05) / 32, initial=init)
        traj = step_etd(run)
        assert np.all(np.isfinite(traj.values[-1]))


class TestResolveInitial:
    def test_closed_form_default(self, plan40):
        run = _run(P_REF, plan40, 0.5, 92)
        got = resolve_initial(run)
        want = ConvSolution(P_REF, grid=plan40).u_field(0.05)
        assert np.max(np.abs(got - want)) == 0.0

    def test_explicit_array_wins(self, plan40):
        init = np.ones(plan40.n, dtype=complex)
        run = _run(P_REF, plan40, 0.5, 92, initial=init)
        assert np.array_equal(resolve_initial(run), init)

    def test_forced_default_is_the_forced_solution(self, plan40):
        # at eps = 0 the forced construction is exact, so stepping from its
        # value at t_start must land on its value at t_end
        from nwspectral.conv import solve_forced
        from nwspectral.report import _gauss_profile, _pulse_window
        params = PhysicalParams(1.0, 1.0, 0.0, 2)
        gauss = _gauss_profile(0.5)

        def forcing(s, tau):
            return 0.2 * gauss(s) * _pulse_window(tau)

        run = _run(params, plan40, 0.4, 144,
                   nonlinearity="forced_convolution", forcing=forcing)
        got = step_etd(run).values[-1]
        solution = ConvSolution(params, grid=plan40)
        want = solve_forced(0.4, solution, forcing)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-6

    def test_rejects_non_finite_initial(self, plan40):
        init = np.ones(plan40.n)
        init[0] = np.inf
        with pytest.raises(ValueError):
            _run(P_REF, plan40, 0.5, 92, initial=init)


class TestScalarOracle:
    def test_confirms_the_printed_example(self):
        # e^(-0.5)/(1 - 0.1 (1 - e^(-0.5))) at the origin frequency
        want = math.exp(-0.5) / (1.0 - 0.1 * (1.0 - math.exp(-0.5)))
        got = scalar_ode_oracle(0.0, P_REF, 1.0, 0.5)
        assert got == pytest.approx(want, rel=1e-10)

    def test_blow_up_reports_the_time(self):
        with pytest.raises(BlowUpError) as info:
            scalar_ode_oracle(0.0, PhysicalParams(1.0, 1.0, 2.0, 2), 1.0,
                              2.0)
        assert info.value.time == pytest.approx(math.log(2.0), abs=1e-3)

    def test_requires_positive_horizon(self):
        with pytest.raises(ValueError):
            scalar_ode_oracle(0.0, P_REF, 1.0, 0.0)


class TestDealiasedPower:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_matches_the_truncated_spectral_convolution(self, p):
        # on a full-band field every p-fold sum of retained frequencies
        # must land outside the band or exactly on its own frequency
        n = 64
        plan = default_plan(n, 20.0)
        rng = np.random.default_rng(p)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        full = v
        for _ in range(p - 1):
            full = np.convolve(full, v)
        # index j of the linear p-fold convolution is frequency j - p n/2
        start = (p - 1) * n // 2
        want = plan.ds ** (p - 1) * full[start:start + n]
        got = _dealiased_power(v, p, plan)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestReportStepCounts:
    """The conv suite sizes its oracle runs by accuracy: each run differs
    from the same run at twice the steps by <= 1e-9 relative L2, over the
    states its record reads."""

    @staticmethod
    def _doubling_gap(make_run, steps, whole=False):
        coarse = step_etd(make_run(steps)).values
        fine = step_etd(make_run(2 * steps)).values[::2]
        if not whole:
            coarse, fine = coarse[-1], fine[-1]
        return np.linalg.norm(coarse - fine) / np.linalg.norm(fine)

    @pytest.mark.parametrize("b", [0.0, 1.0])
    def test_max_principle_runs(self, b):
        # every stored state feeds the record, so the whole trajectory counts
        plan = default_plan()
        params = PhysicalParams(1.0, b, -0.5, 2)

        def make_run(steps):
            return OracleRun(params, plan, "convolution_p", 0.05, 1.0,
                             0.95 / steps)

        gap = self._doubling_gap(make_run, report._MAX_PRINCIPLE_STEPS,
                                 whole=True)
        assert gap <= 1e-9, gap

    def test_forced_run(self, plan40):
        from nwspectral.conv import solve_forced
        gauss = report._gauss_profile(0.5)

        def forcing(s, tau):
            return 0.2 * gauss(s) * report._pulse_window(tau)

        ic = solve_forced(0.05, ConvSolution(P_REF, grid=plan40),
                          forcing, initial=1.0)

        def make_run(steps):
            return OracleRun(P_REF, plan40, "forced_convolution", 0.05, 0.4,
                             0.35 / steps, initial=ic, forcing=forcing)

        gap = self._doubling_gap(make_run, report._FORCED_STEPS)
        assert gap <= 1e-9, gap

    @pytest.mark.parametrize("mode", ["product_K1", "convolution_K2"])
    def test_kernel_mode_runs(self, plan40, mode):
        from nwspectral.conv import solve_with_kernels
        khat = report._gauss_profile(0.25)
        start = solve_with_kernels(
            0.05, ConvSolution(P_REF, grid=plan40), extra=(khat,),
            mode=mode)
        profile = khat if mode == "convolution_K2" else None

        def make_run(steps):
            return OracleRun(P_REF, plan40, "convolution_p", 0.05, 0.4,
                             0.35 / steps, initial=start,
                             kernel_profile=profile)

        gap = self._doubling_gap(make_run, report._KERNEL_MODE_STEPS)
        assert gap <= 1e-9, gap
