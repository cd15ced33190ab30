"""Independent time integrators used to accept or reject the closed forms.

The PDE oracle is integrating-factor RK4 (IFRK4, Kassam & Trefethen 2005):
it steps the codomain field with the linear part integrated exactly (it is
diagonal there) and a classical 4th-order explicit stage for the
nonlinearity, so every digit of disagreement with a closed-form solution
is attributable to the nonlinear term or to the formula itself. Only the
nonlinear stage is stepped explicitly, so only its Lipschitz constant
limits dt; a caller sizes the step count by accuracy below that limit. A
scalar per-frequency integrator covers the codomain ODE, including
finite-time blow-up detection.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .core import KernelSpec, PhysicalParams, SolverError
from .conv import ConvSolution, solve_forced
from .mult import MultSolverPlan, mult_codomain
from .spectral import TransformPlan, _centred_fft, _centred_ifft

NONLINEARITIES = ("convolution_p", "multiplicative_p", "forced_convolution")

# distributional initial data cannot be sampled; analytic starts wait until
# the field is band-limited on any reasonable grid
_ANALYTIC_T_MIN = 0.05

_BLOWUP_THRESHOLD = 1e8
# |dt L| <= 2.5 keeps dt times the stage's Jacobian spectrum inside RK4's
# real stability interval [-2.785, 0]
_RK4_REAL_LIMIT = 2.5
_INSTABILITY_FACTOR = 1e6

Trajectory = namedtuple("Trajectory", ["times", "values"])


class BlowUpError(SolverError):
    """The scalar integrator hit the blow-up threshold in finite time."""

    def __init__(self, message, time):
        super().__init__(message)
        self.time = time


def stability_bound(params, plan, start=None, nonlinearity="convolution_p",
                    kernel_profile=None):
    """Largest dt the explicit nonlinear stage tolerates from this start.

    The integrating factor takes the linear part exactly, so the bound is
    RK4's real stability limit over the Lipschitz constant of the stage,
    2.5 / (|eps| p max|kernel_profile| A^(p-1)). A is the start amplitude:
    max|u| in physical space for multiplicative_p, max|u_hat| in codomain
    for the convolution modes; start = None takes A = 1. inf when eps = 0.
    The bound holds at the start; a run that grows past it is caught by the
    step loop's instability check, not by this guard.
    """
    if start is None:
        amplitude = 1.0
    elif nonlinearity == "multiplicative_p":
        amplitude = float(np.abs(_centred_ifft(start)).max()) / plan.dx
    else:
        amplitude = float(np.abs(start).max())
    peak = 1.0 if kernel_profile is None \
        else float(np.abs(kernel_profile).max())
    lipschitz = (abs(params.eps) * params.p * peak
                 * amplitude ** (params.p - 1))
    return _RK4_REAL_LIMIT / lipschitz if lipschitz > 0 else math.inf


@dataclass(frozen=True)
class OracleRun:
    """One reference integration: parameters, grid, scheme inputs.

    initial = None resolves the analytic solution of the chosen
    nonlinearity at t_start (requires t_start >= 0.05); an explicit array
    is taken as codomain samples on the plan's grid. forcing is a callable
    (s, t) -> codomain forcing samples, consumed only by the
    forced_convolution mode. kernel_profile is an optional codomain
    multiplier on the u^p term (physical-space convolution of the
    nonlinearity with an extra kernel), convolution modes only.
    Construction resolves the start field once into start and rejects a dt
    above stability_bound from it.
    """

    params: PhysicalParams
    plan: TransformPlan
    nonlinearity: str
    t_start: float
    t_end: float
    dt: float
    initial: object = None
    kernel: KernelSpec = KernelSpec()
    forcing: object = None
    kernel_profile: object = None
    start: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError("nonlinearity must be one of %s"
                             % (NONLINEARITIES,))
        if not (np.isfinite(self.t_start) and np.isfinite(self.t_end)
                and 0.0 <= self.t_start < self.t_end):
            raise ValueError("need 0 <= t_start < t_end")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        span = self.t_end - self.t_start
        steps = round(span / self.dt)
        if steps < 1 or abs(steps * self.dt - span) > 1e-9 * max(1.0, span):
            raise ValueError("dt must divide t_end - t_start")
        if self.nonlinearity == "forced_convolution":
            if not callable(self.forcing):
                raise ValueError("forced_convolution requires a forcing callable")
        elif self.forcing is not None:
            raise ValueError("forcing is only consumed by forced_convolution")
        if self.initial is None:
            if self.t_start < _ANALYTIC_T_MIN:
                raise ValueError("analytic start requires t_start >= %g"
                                 % _ANALYTIC_T_MIN)
        else:
            arr = np.asarray(self.initial, dtype=complex)
            if arr.shape != (self.plan.n,):
                raise ValueError("initial samples must match the grid")
            if not np.all(np.isfinite(arr)):
                raise ValueError("initial samples must be finite")
            object.__setattr__(self, "initial", arr)
        if self.kernel_profile is not None:
            if self.nonlinearity == "multiplicative_p":
                raise ValueError("kernel_profile applies to convolution modes")
            s = self.plan.frequencies
            prof = self.kernel_profile
            prof = np.asarray(prof(s) if callable(prof) else prof,
                              dtype=complex)
            if prof.shape != (self.plan.n,):
                raise ValueError("kernel_profile length must match the grid")
            if not np.all(np.isfinite(prof)):
                raise ValueError("kernel_profile must be finite")
            object.__setattr__(self, "kernel_profile", prof)
        start = resolve_initial(self)
        bound = stability_bound(self.params, self.plan, start,
                                self.nonlinearity, self.kernel_profile)
        if self.dt > bound:
            raise ValueError("dt = %g exceeds the stability bound %g"
                             % (self.dt, bound))
        object.__setattr__(self, "start", start)

    @property
    def n_steps(self):
        return round((self.t_end - self.t_start) / self.dt)


def resolve_initial(run):
    """Codomain start field at t_start: explicit samples if given, else the
    analytic solution of the run's own nonlinearity."""
    if run.initial is not None:
        return np.array(run.initial, dtype=complex)
    if run.nonlinearity == "multiplicative_p":
        field, flagged = mult_codomain(
            run.t_start, MultSolverPlan(run.params, run.kernel), run.plan)
        if np.any(flagged):
            raise SolverError("analytic start has overflow-flagged frequencies")
        return np.array(field, dtype=complex)
    solution = ConvSolution(run.params, run.kernel, run.plan)
    if run.nonlinearity == "forced_convolution":
        return np.array(solve_forced(run.t_start, solution, run.forcing),
                        dtype=complex)
    return np.array(solution.u_field(run.t_start), dtype=complex)


def _dealiased_power(values, p, plan):
    # (p+1)/2-rule zero padding (Orszag 1971): evaluate the pointwise power
    # on a grid of (p+1) n/2 points, fine enough that no p-fold sum of
    # retained frequencies aliases back into the retained band
    n = plan.n
    fine = (p + 1) * n // 2
    pad = (fine - n) // 2  # fine - n = (p-1) n/2 is even: n is 2^k >= 16
    spec = np.pad(np.asarray(values, dtype=complex), pad)
    dx_fine = 2.0 * plan.length / fine
    u_fine = _centred_ifft(spec) / dx_fine
    w_fine = u_fine ** p
    w_spec = dx_fine * _centred_fft(w_fine)
    return w_spec[pad:pad + n]


def _nonlinear_stage(run, s):
    eps, p = run.params.eps, run.params.p
    coef = eps if run.kernel_profile is None else eps * run.kernel_profile
    if run.nonlinearity == "convolution_p":
        def stage(u, t):
            return coef * u ** p
    elif run.nonlinearity == "multiplicative_p":
        def stage(u, t):
            return eps * _dealiased_power(u, p, run.plan)
    else:
        forcing = run.forcing

        def stage(u, t):
            return coef * u ** p + np.asarray(forcing(s, t), dtype=complex)
    return stage


def step_etd(run):
    """Integrate the run, returning a Trajectory of every codomain state.

    Linear factor e^(-(D(2 pi s)^2 + b) dt) applied exactly; nonlinear
    stage advanced by the integrating-factor RK4 tableau from run.start.
    Detected instability (norm growth past 1e6x the start without a flagged
    pole, or a non-finite state) aborts with the step time named.
    """
    s = run.plan.frequencies
    beta = run.params.b + run.params.D * (2.0 * np.pi * s) ** 2
    dt = run.dt
    half = 0.5 * dt
    E = np.exp(-beta * dt)
    E2 = np.exp(-beta * half)
    dt_E2 = dt * E2
    dt6_E = (dt / 6.0) * E
    dt3_E2 = (dt / 3.0) * E2
    dt6 = dt / 6.0
    stage = _nonlinear_stage(run, s)
    u = run.start
    limit = _INSTABILITY_FACTOR * max(float(np.abs(u).max()), 1e-30)
    times = [run.t_start]
    states = [u]
    t = run.t_start
    for k in range(1, run.n_steps + 1):
        E_u = E * u
        k1 = stage(u, t)
        k2 = stage(E2 * (u + half * k1), t + half)
        k3 = stage(E2 * u + half * k2, t + half)
        k4 = stage(E_u + dt_E2 * k3, t + dt)
        u = E_u + dt6_E * k1 + dt3_E2 * (k2 + k3) + dt6 * k4
        t = run.t_start + k * dt
        # a NaN or inf peak fails the comparison too
        if not float(np.abs(u).max()) <= limit:
            raise SolverError(
                "oracle run unstable at t = %g (amplitude grew past %g x "
                "start); consistent with stepping into a finite-time pole"
                % (t, _INSTABILITY_FACTOR))
        times.append(t)
        states.append(u)
    return Trajectory(np.asarray(times), np.asarray(states))


def scalar_ode_oracle(s, params, u0, t_end):
    """Adaptive integration of the per-frequency codomain ODE

        u' = -(D (2 pi s)^2 + b) u + eps u^p,   u(0) = u0

    to 1e-10 relative. Finite-time blow-up raises BlowUpError carrying the
    detected blow-up time."""
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    beta = params.b + params.D * (2.0 * math.pi * s) ** 2
    eps, p = params.eps, params.p

    def rhs(t, y):
        return [-beta * y[0] + eps * y[0] ** p]

    def blow(t, y):
        return abs(y[0]) - _BLOWUP_THRESHOLD

    blow.terminal = True
    blow.direction = 1.0
    sol = solve_ivp(rhs, (0.0, float(t_end)), [float(u0)], method="DOP853",
                    rtol=1e-10, atol=1e-12, events=blow)
    if sol.status == 1 and sol.t_events[0].size:
        t_blow = float(sol.t_events[0][0])
        raise BlowUpError("solution blew up at t = %g" % t_blow, t_blow)
    if sol.status != 0:
        raise SolverError("scalar integration failed: %s" % sol.message)
    return float(sol.y[0, -1])
