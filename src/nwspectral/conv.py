"""Closed-form codomain solver for the convolutional nonlinearity.

The p-fold convolution power transforms to a pointwise p-th power, so each
grid frequency obeys the scalar Bernoulli equation

    u'(s,t) = -(b + D (2 pi s)^2) u + eps u^p.

Its solution factors as u = g(s,t) e^(-bt) h(s,t)^(-1/(p-1)) with g the
Gaussian codomain factor and h the integrated nonlinear response. h can
vanish at a finite time, where the solution blows up; root location and
pole policy live here as well.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (QUAD_REL_TOL, BranchError, KernelSpec, PhysicalParams,
                   PoleError, SolverError)
from .kernels import erfc_pair, gauss_codomain, heat_kernel
from .spectral import (TransformPlan, _central_diff, circular_convolve_many,
                       default_plan)

REGIMES = ("no_root", "root_at", "asymptotic_infinity")
KERNEL_MODES = ("product_K1", "convolution_K2")

# Integrand floor below which a non-finite forced-integrand entry is treated
# as an underflowed zero rather than a genuine overflow of k/g.
_FORCING_FLOOR = 1e-250


def beta_of(s, params):
    """Codomain decay rate b + D (2 pi s)^2."""
    s = np.asarray(s, dtype=float)
    out = params.b + params.D * (2.0 * np.pi * s) ** 2
    return out if out.ndim else float(out)


def _phi(z):
    # (1 - e^(-z))/z with the removable singularity filled by its series;
    # the switch point 1e-8 keeps both branches accurate to ~1e-16
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-8
    safe = np.where(small, 1.0, z)
    with np.errstate(over="ignore"):
        out = np.where(small, 1.0 - 0.5 * z, -np.expm1(-safe) / safe)
    return out


def h_specific(s, t, params, kernel=KernelSpec()):
    """h(s,t) = C(s) - eps (1 - e^(-(p-1)(b + D(2 pi s)^2) t))/(b + D(2 pi s)^2).

    Written as C - eps (p-1) t phi((p-1) beta t) so the b = 0, s = 0 point
    reduces smoothly to the limit form C - eps (p-1) t. The reciprocal
    integrating factor e^((p-1)bt) is deliberately excluded; it re-enters
    through the e^(-bt) factor of u.
    """
    s = np.asarray(s, dtype=float)
    C = kernel.C_at(s)
    if params.eps == 0.0:
        # exact collapse to C; also avoids 0 * phi(inf) = nan at huge z
        out = np.broadcast_arrays(np.asarray(C, dtype=float),
                                  np.asarray(t, dtype=float))[0].copy()
        return out if np.ndim(out) else float(out)
    beta = beta_of(s, params)
    pm1 = params.p - 1.0
    z = pm1 * np.asarray(beta) * t
    out = C - params.eps * pm1 * t * _phi(z)
    return out if np.ndim(out) else float(out)


def _h_power(h, p, policy="report"):
    """h^(-1/(p-1)) with a real branch for negative h only when p-1 is odd."""
    m = -1.0 / (p - 1.0)
    h = np.asarray(h, dtype=float)
    if np.any(h < 0) and (p - 1) % 2 == 0:
        raise BranchError("h < 0 with even p-1: no real root exists")
    if policy == "clamp":
        tiny = 1e-300
        h = np.where(np.abs(h) < tiny, np.where(h < 0, -tiny, tiny), h)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(h == 0.0, np.inf, np.sign(h) * np.abs(h) ** m)
    return out if out.ndim else float(out)


def root_time(C, beta, eps, p):
    """First root t0 >= 0 of h = C - eps (1 - e^(-(p-1) beta t))/beta,
    elementwise over broadcast C, beta, eps, p.

    Returns (t0, regime): t0 = log(eps/(eps - C beta))/((p-1) beta), or
    C/(eps (p-1)) at beta = 0, and nan where h has no root; regime is
    root_at, asymptotic_infinity (eps = C beta exactly: h decays to 0
    without crossing it) or no_root. Scalar input gives (float, str).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = (eps - np.multiply(C, beta)) / eps
        t0 = np.where(np.equal(beta, 0.0), np.divide(C, eps * (p - 1.0)),
                      -np.log(ratio) / ((p - 1.0) * beta))
    root = np.isfinite(t0) & (t0 >= 0.0)
    # codes index REGIMES: 0 no_root, 1 root_at, 2 asymptotic_infinity
    regime = np.asarray(REGIMES)[np.where(root, 1, 2 * (ratio == 0.0))]
    t0 = np.where(root, t0, np.nan)
    return (float(t0), str(regime)) if t0.ndim == 0 else (t0, regime)


def earliest_root(params, kernel, s):
    """(t0, regime) of the earliest root of h over the frequencies s; t0 is
    None, and the regime that of the smallest |s|, when h has no root."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t0, regime = root_time(kernel.C_at(s), beta_of(s, params), params.eps,
                           params.p)
    k = np.lexsort((np.abs(s), np.nan_to_num(t0, nan=np.inf)))[0]
    return (None if np.isnan(t0[k]) else float(t0[k])), str(regime[k])


@dataclass(frozen=True)
class ConvSolution:
    """Bundle of coefficients, integration-constant profile, and grid.

    Point accessors h_spec/u evaluate at arbitrary (s, t); u_field
    samples them at the grid frequencies.
    h_spec(s, 0) = C(s) exactly, and with eps = 0 the solution collapses
    to g e^(-bt) with no quadrature involved.
    """

    params: PhysicalParams
    kernel: KernelSpec = KernelSpec()
    grid: TransformPlan = default_plan()

    def h_spec(self, s, t):
        return h_specific(s, t, self.params, self.kernel)

    def u(self, s, t):
        return _u_values(self, np.asarray(s, dtype=float), t)

    def u_field(self, t):
        return self.u(self.grid.frequencies, t)


def _u_values(solution, s, t):
    params, kernel = solution.params, solution.kernel
    if kernel.pole_policy == "error":
        t0 = earliest_root(params, kernel, s)[0]
        if t0 is not None and t >= t0:
            raise PoleError("t = %g is at or past the earliest pole t0 = %g"
                            % (t, t0))
    h = h_specific(s, t, params, kernel)
    hp = _h_power(h, params.p, kernel.pole_policy)
    return gauss_codomain(s, t, params.D) * np.exp(-params.b * t) * hp


def solve_physical(t, solution):
    """Spatial samples of u(., t), the inverse transform of u_field.

    Requires t > 0 (the t = 0 state is distributional for C = 1) and a grid
    fine enough that the codomain Gaussian is negligible at Nyquist.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    grid = solution.grid
    if not grid.band_limit_ok(solution.params.D, t):
        raise SolverError(
            "grid cannot band-limit the solution at t = %g (margin %.3e)"
            % (t, grid.band_limit_margin(solution.params.D, t)))
    field = solution.u_field(t)
    if not np.all(np.isfinite(field)):
        raise PoleError("codomain field is singular at t = %g" % t)
    return grid.inverse(field)


def _time_derivative(solution, fn, s, t, dt):
    """d/dt fn(s, t) by the 5-point central stencil with step dt <= 1e-3 t
    (default 1e-3 t), refused within 10 dt of a root of h."""
    if not t > 0:
        raise ValueError("t must be positive")
    dt = 1e-3 * t if dt is None else dt
    if not 0.0 < dt <= 1e-3 * t:
        raise ValueError("dt must satisfy 0 < dt <= 1e-3 t")
    params = solution.params
    roots = root_time(solution.kernel.C_at(s), beta_of(s, params),
                      params.eps, params.p)[0]
    if np.any(np.abs(roots - t) <= 10.0 * dt):
        raise ValueError("t is within 10 dt of a root of h")
    return _central_diff(lambda k: fn(s, t + k * dt), dt)


def codomain_ode_residual(solution, s, t, dt=None):
    """Relative residual of u' + (D (2 pi s)^2 + b) u - eps u^p at (s, t).

    This is the transformed image of the PDE itself and the strongest
    single correctness property of the solver. Scaled by the largest of
    the three terms.
    """
    s = np.asarray(s, dtype=float)
    uprime = _time_derivative(solution, solution.u, s, t, dt)
    params = solution.params
    u0 = solution.u(s, t)
    lin = beta_of(s, params) * u0
    nonlin = params.eps * u0 ** params.p
    resid = np.abs(uprime + lin - nonlin)
    scale = np.maximum.reduce([np.abs(uprime), np.abs(lin),
                               np.abs(nonlin), np.full(resid.shape, 1e-300)])
    out = resid / scale
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class RootReport:
    """First zero of h(s, .) with the regime classification.

    t0 carries the formula value when the regime is root_at;
    t0_bisection is an independent cross-check by bisection of h, and
    difference is their gap (None unless both exist).
    """

    t0: object
    regime: str
    t0_bisection: object
    difference: object


def _bisect_h_root(params, t_max):
    # h at s = 0 with C = 1: a 4097-point scan, then bisection
    ts = np.linspace(0.0, t_max, 4097)
    hs = np.asarray(h_specific(0.0, ts, params))
    if hs[0] == 0.0:
        return 0.0
    sign0 = np.sign(hs[0])
    # Demand a strict sign reversal: in the asymptotic regime h decays to 0
    # and eventually underflows to exact 0.0 without ever crossing.
    flips = np.nonzero(np.sign(hs) == -sign0)[0]
    if flips.size == 0:
        return None
    k = int(flips[0])
    lo, hi = float(ts[k - 1]), float(ts[k])
    flo = float(hs[k - 1])
    if flo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = float(h_specific(0.0, mid, params))
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def root_locus(params):
    """Locate the first zero of h(0, .) with C = 1 by formula and verify
    it by bisection.

    At s = 0, beta = b; the formula value is
    t0 = log(eps/(eps - b))/((p-1) b), or 1/(eps (p-1)) at b = 0; the
    report classifies the regime as no_root, root_at, or
    asymptotic_infinity (eps = b exactly).
    """
    t0, regime = root_time(1.0, beta_of(0.0, params), params.eps, params.p)
    t0 = None if math.isnan(t0) else t0
    t_max = 50.0 if t0 is None else max(50.0, 4.0 * t0)
    t0_bis = _bisect_h_root(params, t_max)
    diff = None
    if t0 is not None and t0_bis is not None:
        diff = abs(t0 - t0_bis)
    return RootReport(t0=t0, regime=regime, t0_bisection=t0_bis,
                      difference=diff)


def large_p_limit(params, t=1.0):
    """sup_s |h^(-1/(p-1)) - 1| with C = 1 on the default grid along the
    doubling sweep p = 2, 4, ..., 128.

    Any constant to the power 0 is unity, so the sequence decreases to 0.
    Requires |eps| <= 1; the p carried by params is ignored in favor of
    the sweep.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    if abs(params.eps) > 1.0:
        raise ValueError("|eps| must be <= 1")
    s = default_plan().frequencies
    sups = []
    for q in (2, 4, 8, 16, 32, 64, 128):
        pq = PhysicalParams(params.D, params.b, params.eps, q)
        h = h_specific(s, t, pq)
        sups.append(float(np.abs(_h_power(h, q) - 1.0).max()))
    return np.asarray(sups)


def _check_quadrature(err, result):
    scale = float(np.max(np.abs(result))) if np.size(result) else 0.0
    if err > 10.0 * max(1e-14, QUAD_REL_TOL * max(scale, 1.0)):
        raise SolverError("time quadrature did not converge (err %.3e)" % err)


def solve_forced(t, solution, forcing, initial=0.0):
    """Forced response u = g e^(-bt) h^m [B(s) + int_0^t k g^(-1) e^(b tau)
    h(s,-tau)^m dtau], m = -1/(p-1).

    forcing is a callable k(s, tau) over the grid frequencies; initial is
    the profile B(s) (callable, array, or constant) multiplying the
    homogeneous solution. The integrand contains g^(-1), which grows as
    e^(D (2 pi s)^2 tau); k must be band-limited so the product stays
    bounded. With eps = 0 this is the exact linear forced solution.
    """
    from scipy.integrate import quad_vec
    if not t >= 0:
        raise ValueError("t must be >= 0")
    params, kernel, grid = solution.params, solution.kernel, solution.grid
    p = params.p
    s = grid.frequencies
    if callable(initial):
        B = np.asarray(initial(s), dtype=complex)
        if B.shape != s.shape:
            raise ValueError("initial profile length must match grid")
    else:
        B = np.broadcast_to(np.asarray(initial, dtype=complex), s.shape)
    growth = params.D * (2.0 * np.pi * s) ** 2 + params.b

    def integrand(tau):
        kv = np.asarray(forcing(s, tau), dtype=complex)
        if kv.shape != s.shape:
            raise ValueError("forcing must return one value per frequency")
        hneg = h_specific(s, -tau, params, kernel)
        hp = _h_power(hneg, p, "report")
        with np.errstate(over="ignore", invalid="ignore"):
            val = kv * np.exp(growth * tau) * hp
        bad = ~np.isfinite(val)
        if np.any(bad):
            if np.any(np.abs(kv[bad]) > _FORCING_FLOOR):
                raise SolverError("forcing is not band-limited: k/g overflows")
            val = np.where(bad, 0.0, val)
        return val

    if t == 0.0:
        response = np.zeros(s.shape, dtype=complex)
    else:
        response, err = quad_vec(integrand, 0.0, float(t), epsabs=1e-14,
                                 epsrel=QUAD_REL_TOL, norm="max")
        _check_quadrature(err, response)
    return _u_values(solution, s, t) * (response + B)


def solve_with_kernels(t, solution, extra=(), mode="product_K1"):
    """Solution with extra codomain kernel profiles folded into h.

    h = C - eps (p-1) A t phi((p-1) beta t), the closed form of
    C - eps (p-1) int_0^t A e^(-(p-1) beta tau) dtau. product_K1 convolves
    the profiles into kappa = k1 conv ... conv kn, takes A = kappa^(p-1)
    and multiplies the solution by kappa; convolution_K2 multiplies the
    profiles pointwise and takes A as that product to the n-th power. An
    empty profile list falls back to the plain solve. h is monotone in t
    from h(0) = C, so under pole_policy "error" any frequency where h is 0
    or has the opposite sign to C is at or past its pole and raises.
    """
    if mode not in KERNEL_MODES:
        raise ValueError("mode must be one of %s" % (KERNEL_MODES,))
    if not t >= 0:
        raise ValueError("t must be >= 0")
    params, kernel, grid = solution.params, solution.kernel, solution.grid
    s = grid.frequencies
    profiles = []
    for q in extra:
        arr = np.asarray(q(s) if callable(q) else q, dtype=float)
        if arr.shape != s.shape:
            raise ValueError("kernel profile length must match grid")
        if not np.all(np.isfinite(arr)):
            raise ValueError("kernel profiles must be finite on the grid")
        profiles.append(arr)
    if not profiles:
        return solution.u_field(t)
    p = params.p
    beta = beta_of(s, params)
    if mode == "product_K1":
        kappa = profiles[0] if len(profiles) == 1 \
            else circular_convolve_many(profiles, grid.ds)
        amplitude = kappa ** (p - 1)
    else:
        merged = profiles[0].copy()
        for nxt in profiles[1:]:
            merged = merged * nxt
        amplitude = merged ** len(profiles)
    integral = amplitude * t * _phi((p - 1.0) * beta * t)
    C = np.asarray(kernel.C_at(s), dtype=float)
    h = C - params.eps * (p - 1.0) * integral
    if kernel.pole_policy == "error" and np.any(h * np.sign(C) <= 0.0):
        raise PoleError("t = %g is at or past a pole of h" % t)
    hp = _h_power(h, p, kernel.pole_policy)
    u = gauss_codomain(s, t, params.D) * np.exp(-params.b * t) * hp
    return u * kappa if mode == "product_K1" else u


def _check_fisher(params):
    if params.p != 2:
        raise ValueError("p must be 2")
    if abs(params.eps) > 0.1:
        raise ValueError("|eps| must be <= 0.1")
    if not params.b > 0:
        raise ValueError("b must be positive")


def _fisher_erfc(x, t, params, third_D, third_b, weight):
    # G e^(-bt) + eps e^(-bt) pair(x,t; D,b)
    #   - weight eps e^(-2bt) pair(x,t; third_D,third_b)
    _check_fisher(params)
    if not t > 0:
        raise ValueError("t must be positive")
    D, b, eps = params.D, params.b, params.eps
    x = np.asarray(x, dtype=float)
    decay = math.exp(-b * t)
    linear = heat_kernel(x, t, D) * decay
    second = eps * decay * erfc_pair(x, t, D, b)
    third = weight * eps * decay * decay * erfc_pair(x, t, third_D, third_b)
    return linear + second - third


def fisher_erfc_approx(x, t, params):
    """Small-eps closed form for p = 2 built from four erfc terms:

    G e^(-bt) + eps e^(-bt) pair(x,t; D,b) - eps e^(-2bt) pair(x,t; 2D,b)

    where pair is the erfc pair of e^(-D(2 pi s)^2 t)/(b + D(2 pi s)^2)
    and the substitution D -> 2D reproduces the printed sqrt(2D) factors
    of the last term verbatim.

    It does not invert fisher_codomain_expansion: its third term is the
    pair of g^2/(b + 2D(2 pi s)^2), not of g^2/(b + D(2 pi s)^2), which
    puts it 1.0605e-4 off the inverse DFT at eps = 0.01, t = 0.5 on the
    4096/80 grid. fisher_erfc_transform_consistent is the exact pair.
    """
    return _fisher_erfc(x, t, params, 2.0 * params.D, params.b, 1.0)


def fisher_erfc_transform_consistent(x, t, params):
    """Variant of fisher_erfc_approx whose last term is the exact spatial
    pair of its codomain counterpart eps g^2 e^(-2bt)/(b + D(2 pi s)^2).

    Writing 1/(b + D w^2) = 2/(2b + 2D w^2) turns the last term into twice
    the erfc pair at (2D, 2b). Agrees with the inverse transform of
    fisher_codomain_expansion to round-off; the printed form differs in
    this term only.
    """
    return _fisher_erfc(x, t, params, 2.0 * params.D, 2.0 * params.b, 2.0)


def fisher_codomain_expansion(s, t, params):
    """First-order expansion of u(s,t) in eps for p = 2:

    g e^(-bt) + eps g e^(-bt)/beta - eps g^2 e^(-2bt)/beta.
    """
    _check_fisher(params)
    s = np.asarray(s, dtype=float)
    g = gauss_codomain(s, t, params.D)
    beta = beta_of(s, params)
    decay = math.exp(-params.b * t)
    return g * decay + params.eps * g * decay / beta \
        - params.eps * g * g * decay * decay / beta
