import math

import numpy as np
import pytest

from nwspectral.conv import ConvSolution
from nwspectral.core import PhysicalParams, SolverError, make_grids
from nwspectral.kernels import gauss_codomain
from nwspectral.oracle import (BlowUpError, OracleRun, _dealiased_power,
                               resolve_initial, scalar_ode_oracle,
                               stability_bound, step_etd)
from nwspectral.spectral import TransformPlan, default_plan

P_REF = PhysicalParams(1.0, 1.0, 0.1, 2)


@pytest.fixture(scope="module")
def plan40():
    spatial, spectral = make_grids(256, 40.0)
    return TransformPlan(spatial, spectral)


def _run(params, plan, t_end, factor=1, **kw):
    span = t_end - 0.05
    steps = math.ceil(span / stability_bound(params, plan)) * factor
    return OracleRun(params, plan, kw.pop("nonlinearity", "convolution_p"),
                     0.05, t_end, span / steps, **kw)


class TestRunValidation:
    def test_rejects_unstable_step(self, plan40):
        bound = stability_bound(P_REF, plan40)
        with pytest.raises(ValueError):
            OracleRun(P_REF, plan40, "convolution_p", 0.05, 0.5,
                      bound * 40.0)

    def test_rejects_non_divisible_span(self, plan40):
        with pytest.raises(ValueError):
            OracleRun(P_REF, plan40, "convolution_p", 0.05, 0.5, 1.1e-3)

    def test_rejects_unknown_nonlinearity(self, plan40):
        with pytest.raises(ValueError):
            _run(P_REF, plan40, 0.5, nonlinearity="cubic")

    def test_rejects_forcing_without_forced_mode(self, plan40):
        with pytest.raises(ValueError):
            _run(P_REF, plan40, 0.5, forcing=lambda s, t: 0.0 * s)

    def test_forced_mode_requires_forcing(self, plan40):
        with pytest.raises(ValueError):
            _run(P_REF, plan40, 0.5, nonlinearity="forced_convolution")

    def test_rejects_early_start_without_data(self, plan40):
        with pytest.raises(ValueError):
            OracleRun(P_REF, plan40, "convolution_p", 0.001, 0.5, 1e-4)

    def test_kernel_profile_is_conv_only(self, plan40):
        with pytest.raises(ValueError):
            _run(P_REF, plan40, 0.5, nonlinearity="multiplicative_p",
                 kernel_profile=lambda s: np.ones(np.shape(s)))


class TestStepping:
    def test_linear_case_reproduces_transport_exactly(self, plan40):
        params = PhysicalParams(1.0, 1.0, 0.0, 2)
        run = _run(params, plan40, 0.5)
        traj = step_etd(run)
        s = plan40.spectral.frequencies
        want = gauss_codomain(s, 0.5, 1.0) * math.exp(-0.5)
        got = traj.values[-1]
        # the integrating factor makes eps = 0 exact, not just accurate
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)) \
            < 1e-13

    def test_agrees_with_closed_form(self, plan40):
        run = _run(P_REF, plan40, 0.5)
        traj = step_etd(run)
        want = ConvSolution(P_REF, grid=plan40.spectral).u_field(0.5).values
        rel = np.linalg.norm(traj.values[-1] - want) / np.linalg.norm(want)
        assert rel < 1e-3

    def test_fourth_order_convergence(self, plan40):
        # measured away from the round-off floor by running toward a pole
        params = PhysicalParams(1.0, 1.0, 2.0, 2)
        exact = ConvSolution(params,
                             grid=plan40.spectral).u_field(0.65).values
        errs = []
        for factor in (1, 2, 4):
            traj = step_etd(_run(params, plan40, 0.65, factor))
            errs.append(np.linalg.norm(traj.values[-1] - exact)
                        / np.linalg.norm(exact))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(3.5 < o < 4.5 for o in orders), orders

    def test_mass_conserved_without_decay(self, plan40):
        # b = 0, eps = 0: u(0, t) is the conserved total mass
        params = PhysicalParams(1.0, 0.0, 0.0, 2)
        run = _run(params, plan40, 0.5)
        traj = step_etd(run)
        n_half = plan40.n // 2
        start = traj.values[0][n_half]
        end = traj.values[-1][n_half]
        assert abs(end - start) < 1e-13 * abs(start)

    def test_trajectory_layout(self, plan40):
        run = _run(P_REF, plan40, 0.5, store_every=10)
        traj = step_etd(run)
        assert traj.times[0] == pytest.approx(0.05)
        assert traj.times[-1] == pytest.approx(0.5)
        assert traj.values.shape == (len(traj.times), plan40.n)

    def test_instability_aborts_with_diagnosis(self, plan40):
        # stepping across the blow-up time must fail loudly, not wrap
        params = PhysicalParams(1.0, 1.0, 2.0, 2)
        run = _run(params, plan40, 0.75)
        with pytest.raises(SolverError):
            step_etd(run)

    def test_multiplicative_stage_uses_dealiasing(self, plan40):
        # a pure mode at k drives 2k; without padding it would fold back
        s = plan40.spectral.frequencies
        init = gauss_codomain(s, 0.3, 1.0)
        run = OracleRun(PhysicalParams(1.0, 1.0, 0.2, 2), plan40,
                        "multiplicative_p", 0.05, 0.1,
                        (0.1 - 0.05) / 32, initial=init)
        traj = step_etd(run)
        assert np.all(np.isfinite(traj.values[-1]))


class TestResolveInitial:
    def test_closed_form_default(self, plan40):
        run = _run(P_REF, plan40, 0.5)
        got = resolve_initial(run)
        want = ConvSolution(P_REF, grid=plan40.spectral).u_field(0.05).values
        assert np.max(np.abs(got - want)) == 0.0

    def test_explicit_array_wins(self, plan40):
        init = np.ones(plan40.n, dtype=complex)
        run = _run(P_REF, plan40, 0.5, initial=init)
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

        run = _run(params, plan40, 0.4, factor=2,
                   nonlinearity="forced_convolution", forcing=forcing)
        got = step_etd(run).values[-1]
        solution = ConvSolution(params, grid=plan40.spectral)
        want = solve_forced(0.4, solution, forcing).values
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-6

    def test_rejects_non_finite_initial(self, plan40):
        init = np.ones(plan40.n)
        init[0] = np.inf
        with pytest.raises(ValueError):
            _run(P_REF, plan40, 0.5, initial=init)


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
