"""Quadrature solver for the multiplicative nonlinearity u^p.

In the codomain the pointwise power becomes a p-fold convolution, which the
rooted-kernel substitution turns back into a Bernoulli structure: the n-th
root of the heat kernel (n = p + 1) carries the linear part and a time
integral with an endpoint singularity carries the nonlinear response. The
resulting h(s,t) is evaluated in closed form through the confluent
hypergeometric function 1F1, and cross-checked by an independent scalar
quadrature. The formulas are treated as claims under test: the PDE
residual machinery in this module measures, rather than assumes, which
coefficient scaling (if any) the construction solves.
"""

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, quad_vec
from scipy.special import hyp1f1

from .core import (QUAD_REL_TOL, KernelSpec, PhysicalParams, PoleError,
                   SolverError)
from .conv import _check_quadrature, _h_power, _phi
from .kernels import (gauss_codomain, heat_kernel, iterated_gauss_selfconv,
                      rooted_codomain)
from .spectral import _central_diff_time, circular_convolve_many, default_plan

T_MIN = 0.01
SCALING_HYPOTHESES = ("sqrt_np1", "times_np1", "none")
INTEGRAND_SOURCES = ("paper_formula", "discrete_oracle")

# Exponent ceiling for e^(a t) inside the h integral; frequencies above it
# are flagged and carried to the u -> 0 limit instead of overflowing.
_EXP_LIMIT = 690.0


class GrowthWarning(UserWarning):
    """The constant-probability response grows without bound in t."""


@dataclass(frozen=True)
class MultSolverPlan:
    """Coefficients plus the solver conventions for the multiplicative case.

    The kernel substitution roots the heat kernel at order p + 1 and the
    solution raises h to the Bernoulli exponent 1/(1 - p). t_min floors
    all physical-time evaluation: the solution family is singular at the
    time origin. The scaling hypotheses of the PDE residual sweep are an
    argument of pde_residual_physical, not part of the plan.
    """

    params: PhysicalParams
    kernel: KernelSpec = KernelSpec()
    t_min: float = T_MIN

    def __post_init__(self):
        if not (isinstance(self.t_min, (int, float)) and self.t_min > 0):
            raise ValueError("t_min must be positive")

    @property
    def singularity_exponent(self):
        """Power of tau in the h integrand at tau -> 0: -p^2/(2(p+1))."""
        p = self.params.p
        return -p * p / (2.0 * (p + 1.0))


def _mult_prefactor(t, plan):
    p, b = plan.params.p, plan.params.b
    return math.exp((p * p - 1.0) * b * t) * t ** ((p * p - p) / (2.0 * p + 2.0))


def _mult_coefficient(plan):
    p, D, eps = plan.params.p, plan.params.D, plan.params.eps
    return (eps * (1.0 - p) * math.sqrt(p + 1.0)
            * (4.0 * math.pi * D) ** (-p / (2.0 * p + 2.0)))


def _growth_rate(s, plan):
    # coefficient of tau in the integrand exponent: p D (2 pi s)^2 + (1-p^2) b
    params = plan.params
    return (params.p * params.D * (2.0 * np.pi * s) ** 2
            + (1.0 - params.p * params.p) * params.b)


def _endpoint_rule(expo, t, t_min):
    """(lower, upper, alpha) for integrating over (0, t] an integrand that
    behaves as tau^expo at the origin.

    expo <= -1 is not integrable: cut off at t_min, alpha None. A singular
    but integrable endpoint (-1 < expo < 0) takes tau = sigma^alpha with
    alpha = 1/(1 + expo), which bounds the transformed integrand, over
    [0, t^(1/alpha)]. expo >= 0 integrates plainly from 0, alpha None.
    """
    if expo <= -1.0:
        if not t > t_min:
            raise ValueError("t must exceed the t_min cutoff")
        return t_min, float(t), None
    if expo < 0.0:
        alpha = 1.0 / (1.0 + expo)
        return 0.0, t ** (1.0 / alpha), alpha
    return 0.0, float(t), None


def _mult_integral(s, t, plan):
    """(integral values, flagged mask) of int e^(a tau) tau^(-q) d tau.

    Closed form: with c = 1 - q, F(tau) = tau^c 1F1(c; c+1; a tau) / c is
    an antiderivative (DLMF 13.2, 8.5), and c is neither 0 nor c + 1 a
    non-positive integer for any integer p >= 2. Integrable endpoints
    (p = 2, c > 0, F(0) = 0) are taken from 0; non-integrable ones from
    the t_min cutoff, which is a recorded deviation of the formula.

    For p >= 3 and a t_min well below -1, F(t) - F(t_min) cancels: at
    b = 100, p = 3 I is up to 1.7e-10 relative off, but coef I is then
    1e-4 of C = 1 and h = pref (coef I + C) stays within 1.5e-14.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    a = _growth_rate(s, plan)
    flagged = a * t > _EXP_LIMIT
    band = ~flagged
    out = np.zeros(s.shape)
    if not np.any(band):
        return out, flagged
    ab = a[band]
    c = 1.0 + plan.singularity_exponent
    # 0 or t_min; an integrable endpoint's 0 is 0 in either coordinate
    lower = _endpoint_rule(plan.singularity_exponent, t, plan.t_min)[0]

    def antiderivative(tau):
        return tau ** c * hyp1f1(c, c + 1.0, ab * tau) / c

    out[band] = antiderivative(float(t)) - antiderivative(lower)
    return out, flagged


def h_mult_quadrature(s, t, plan):
    """h(s,t) = e^((p^2-1)bt) t^((p^2-p)/(2p+2)) [coef * I(s,t) + C(s)] with
    coef = eps (1-p) sqrt(p+1) (4 pi D)^(-p/(2p+2)) and I the time integral
    of e^(p D (2 pi s)^2 tau + (1-p^2) b tau) tau^(-p^2/(2(p+1))), taken
    in closed form (see _mult_integral), so every frequency is accurate
    on its own, with no quadrature tolerance involved.

    Frequencies where the integrand exponent overflows are flagged and
    return signed infinity; the solution factor h^(1/(1-p)) carries them
    to the correct 0 limit.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    scalar = np.ndim(s) == 0
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    C = np.broadcast_to(np.asarray(plan.kernel.C_at(s_arr), dtype=float),
                        s_arr.shape)
    pref = _mult_prefactor(t, plan)
    if plan.params.eps == 0.0:
        out = C * pref
        return float(out[0]) if scalar else out
    coef = _mult_coefficient(plan)
    integral, flagged = _mult_integral(s_arr, t, plan)
    with np.errstate(over="ignore"):
        out = pref * (coef * integral + C)
    if np.any(flagged):
        out = np.where(flagged, math.copysign(math.inf, coef), out)
    return float(out[0]) if scalar else out


QuadCertificate = namedtuple("QuadCertificate",
                             ["value", "error", "refined_value",
                              "observed_change"])


def h_mult_certificate(s, t, plan):
    """Scalar-quadrature certificate for h at one (s, t).

    Integrates numerically, independently of the closed form that
    h_mult_quadrature uses, at QUAD_REL_TOL and again at half of it; the
    certificate is honest when the observed change stays within the
    scaled error estimate of the coarser run.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    s = float(s)
    C = float(np.asarray(plan.kernel.C_at(s), dtype=float))
    pref = _mult_prefactor(t, plan)
    if plan.params.eps == 0.0:
        return QuadCertificate(C * pref, 0.0, C * pref, 0.0)
    a = float(_growth_rate(np.asarray([s]), plan)[0])
    if a * t > _EXP_LIMIT:
        raise SolverError("frequency is overflow-flagged; no finite h value")
    q = -plan.singularity_exponent
    lower, upper, alpha = _endpoint_rule(plan.singularity_exponent, t,
                                         plan.t_min)
    if alpha is None:
        def fn(tau):
            return tau ** (-q) * math.exp(a * tau)
    else:
        power = alpha * (1.0 - q) - 1.0

        def fn(sigma):
            return alpha * sigma ** power * math.exp(a * sigma ** alpha)

    coef = _mult_coefficient(plan)
    scale = abs(pref * coef)
    v1, e1 = quad(fn, lower, upper, epsabs=1e-14, epsrel=QUAD_REL_TOL,
                  limit=200)
    v2, _ = quad(fn, lower, upper, epsabs=1e-14, epsrel=0.5 * QUAD_REL_TOL,
                 limit=200)
    h1 = pref * (coef * v1 + C)
    h2 = pref * (coef * v2 + C)
    return QuadCertificate(h1, e1 * scale, h2, abs(h1 - h2))


def _corollary_integrand(s, tau, plan, source, grid):
    i = plan.params.p - 2
    D = plan.params.D
    if i >= 1:
        return iterated_gauss_selfconv(s, tau, D, i, source, grid)
    # i = 0 falls outside the iterated op; the stated form and the trivial
    # 0-fold oracle (g itself) are written out directly
    if source == "paper_formula":
        c = 4.0 * math.pi * D * tau
        s = np.asarray(s, dtype=float)
        return np.exp(-(2.0 * math.pi * s) ** 2 * D * tau) / math.sqrt(c)
    if source == "discrete_oracle":
        return gauss_codomain(s, tau, D)
    raise ValueError("source must be one of %s" % (INTEGRAND_SOURCES,))


def corollary_integrand(s, tau, plan, source="paper_formula",
                        grid=default_plan()):
    """The iterated-self-convolution integrand of the alternative h at
    (s, tau), from either source. At fixed tau the two sources differ by
    an s-independent prefactor; that discrepancy is the measured output
    of the dual-source comparison."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    if source not in INTEGRAND_SOURCES:
        raise ValueError("source must be one of %s" % (INTEGRAND_SOURCES,))
    return _corollary_integrand(np.asarray(s, dtype=float), tau, plan,
                                source, grid)


def h_mult_corollary(s, t, plan, source="paper_formula",
                     grid=default_plan()):
    """h from the alternative derivation:

    eps (1-p) e^(bt) int [sqrt(4 pi D tau) e^(-(2 pi s)^2 D tau/(p-1))
                          / ((4 pi D tau)^(p-1) sqrt(p-1))] e^(-b tau) d tau

    with the bracket replaceable by the discrete-convolution oracle. A
    non-integrable endpoint (source-dependent; every p >= 3 for the stated
    form) is cut off at t_min, and integrable-but-singular endpoints are
    tamed by a power substitution.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    if source not in INTEGRAND_SOURCES:
        raise ValueError("source must be one of %s" % (INTEGRAND_SOURCES,))
    params = plan.params
    scalar = np.ndim(s) == 0
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if params.eps == 0.0:
        out = np.zeros(s_arr.shape)
        return float(out[0]) if scalar else out
    # endpoint power of the integrand: the stated form carries
    # tau^(1/2 - (p-1)), the oracle's continuum scale tau^(-(p-2)/2)
    expo = 0.5 - (params.p - 1.0) if source == "paper_formula" \
        else -(params.p - 2.0) / 2.0
    lower, upper, alpha = _endpoint_rule(expo, t, plan.t_min)
    if alpha is None:
        def fn(tau):
            return (_corollary_integrand(s_arr, tau, plan, source, grid)
                    * math.exp(-params.b * tau))
    else:
        def fn(sigma):
            tau = sigma ** alpha
            return (alpha * sigma ** (alpha - 1.0)
                    * _corollary_integrand(s_arr, tau, plan, source, grid)
                    * math.exp(-params.b * tau))

    val, err = quad_vec(fn, lower, upper, epsabs=1e-14, epsrel=QUAD_REL_TOL,
                        norm="max")
    _check_quadrature(err, val)
    out = params.eps * (1.0 - params.p) * math.exp(params.b * t) * val
    return float(out[0]) if scalar else out


def mult_codomain(t, plan, grid=default_plan()):
    """(u samples, flagged mask) of u(s,t) = g'(s,t) h(s,t)^(1/(1-p)) at the
    grid frequencies.

    g' is the rooted codomain kernel at n = p + 1. Overflow-flagged
    frequencies carry u = 0, their analytic limit.
    """
    if not t >= plan.t_min:
        raise ValueError("t below t_min = %g" % plan.t_min)
    s = grid.frequencies
    h = h_mult_quadrature(s, t, plan)
    flagged = ~np.isfinite(h)
    rooted = rooted_codomain(s, t, plan.params.D, plan.params.p + 1)
    hp = _h_power(np.where(flagged, 1.0, h), plan.params.p,
                  plan.kernel.pole_policy)
    return np.where(flagged, 0.0, rooted * hp), flagged


def solve_mult(t, plan, transform=default_plan()):
    """Spatial samples of the multiplicative-case solution at time t."""
    field, _ = mult_codomain(t, plan, transform)
    if not np.all(np.isfinite(field)):
        raise PoleError("h vanished on the grid at t = %g" % t)
    return transform.inverse(field)


def pde_residual_physical(u_family, times, transform, params,
                          scaling_hypothesis="none",
                          nonlinearity="multiplicative_p"):
    """Max interior residual of u_t - D' u_xx + b' u - eps' f(u) over a
    uniform time window.

    The primed coefficients follow the hypothesis (multiplied by
    sqrt(p+1), by p+1, or untouched). u_t uses the 5-point central stencil
    over >= 5 samples; u_xx is spectral; f(u) is the pointwise power or
    the p-factor circular convolution.
    """
    if scaling_hypothesis not in SCALING_HYPOTHESES:
        raise ValueError("scaling_hypothesis must be one of %s"
                         % (SCALING_HYPOTHESES,))
    if nonlinearity not in ("multiplicative_p", "convolution_p"):
        raise ValueError("unknown nonlinearity %r" % (nonlinearity,))
    u = np.asarray(u_family, dtype=float)
    times = np.asarray(times, dtype=float)
    if u.ndim != 2 or u.shape[0] != times.size:
        raise ValueError("u_family must be (n_times, n_points) matching times")
    if times.size < 5:
        raise ValueError("need at least 5 time samples")
    if u.shape[1] != transform.n:
        raise ValueError("sample count must match grid")
    steps = np.diff(times)
    dt = float(steps[0])
    if not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise ValueError("times must be uniformly spaced")
    if not np.all(times > T_MIN):
        raise ValueError("all times must exceed t_min = %g" % T_MIN)
    scale = {"sqrt_np1": math.sqrt(params.p + 1.0),
             "times_np1": params.p + 1.0,
             "none": 1.0}[scaling_hypothesis]
    Dp, bp, epsp = scale * params.D, scale * params.b, scale * params.eps
    ut = _central_diff_time(u, dt)
    mid = u[2:-2]
    deriv = -(2.0 * np.pi * transform.frequencies) ** 2
    uxx = np.empty_like(mid)
    for k in range(mid.shape[0]):
        uxx[k] = transform.inverse(transform.forward(mid[k]) * deriv)
    if nonlinearity == "multiplicative_p":
        nonlin = mid ** params.p
    else:
        nonlin = np.stack([circular_convolve_many([row] * params.p,
                                                  transform.dx)
                           for row in mid])
    resid = ut - Dp * uxx + bp * mid - epsp * nonlin
    return float(np.abs(resid).max())


def fisher_constant_prob(x, t, D, eps, prob_product):
    """G(x,t) e^(eps * prob_product * t), the constant-probability response.

    Grows without bound in t whenever eps*prob_product > 0 (decay is
    violated); that regime raises a GrowthWarning.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    if not D > 0:
        raise ValueError("D must be positive")
    if not 0.0 < prob_product <= 1.0:
        raise ValueError("prob_product must lie in (0, 1]")
    if eps * prob_product > 0.0:
        warnings.warn("eps*prob_product > 0: the response grows in t",
                      GrowthWarning)
    return heat_kernel(x, t, D) * math.exp(eps * prob_product * t)


def fisher_quadratic(t, plan, prob_product=1.0, grid=default_plan()):
    """u(s,t) = g e^(-eps int_0^t P g d tau) for p = 2.

    h = exp(+eps int ...) and u = g h^(-1); every frequency matches the
    scalar integration of u' = -D (2 pi s)^2 u - eps P g u. The integral
    is P t phi(D (2 pi s)^2 t) in closed form, phi(z) = (1 - e^(-z))/z.
    """
    if plan.params.p != 2:
        raise ValueError("p must be 2")
    if not t > 0:
        raise ValueError("t must be positive")
    if not 0.0 < prob_product <= 1.0:
        raise ValueError("prob_product must lie in (0, 1]")
    s = grid.frequencies
    D, eps = plan.params.D, plan.params.eps
    integral = prob_product * t * _phi(D * (2.0 * np.pi * s) ** 2 * t)
    return gauss_codomain(s, t, D) * np.exp(-eps * integral)
