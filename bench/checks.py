"""Checks of the CLI's outputs against computations made apart from the
program: scipy's ODE integrator, scipy's quadrature, scipy's erfc and the
closed-form sign of h. Each check returns a list of problems; an empty
list means the output holds.

Tolerances sit far above the round-off of a correct output and far below
the smallest fault the self-test plants (selftest.py): a field scaled by
1 + 1e-6 and a blow-up time moved by 1e-9 of itself.
"""

import io
import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.special import erfc, erfcx

FIELD_RTOL = 1e-9       # of the largest sampled |u(s)| or |u(x)|
EVEN_RTOL = 1e-12       # |u(x) - u(-x)| over max |u|
T0_STEP = 1e-10         # h is probed at t0 (1 -+ T0_STEP)
SIGN_PROBES = 64        # points of (0, t0) and [0, inf) where h's sign is probed
DFT_INDICES = (0, 1, 4, 16, 40)   # frequencies s = k ds of the DFT samples
FISHER_FINDING = "conv/fisher_erfc_acceptance"


def read_field_csv(data, n):
    """(x, u) from the bytes of a solve CSV; problems in a list."""
    problems = []
    header, _, _ = data.partition(b"\r\n")
    if header != b"x,u":
        problems.append("header is %r, not 'x,u'" % header)
    table = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1,
                       ndmin=2)
    if table.shape != (n, 2):
        problems.append("table has shape %s, not (%d, 2)" % (table.shape, n))
        return None, None, problems
    return table[:, 0], table[:, 1], problems


def _dft(x, u, length):
    """dx-scaled DFT of real samples at s = k / (2 length) for DFT_INDICES."""
    dx = x[1] - x[0]
    s = np.asarray(DFT_INDICES, dtype=float) / (2.0 * length)
    return s, dx * (np.exp(-2j * np.pi * np.outer(s, x)) @ u)


def _conv_reference(s, t, params):
    """u(s, t) of u' = -(b + D (2 pi s)^2) u + eps u^p, u(s, 0) = 1."""
    out = []
    for sk in s:
        beta = params["b"] + params["D"] * (2.0 * math.pi * sk) ** 2
        eps, p = params["eps"], params["p"]
        sol = solve_ivp(lambda _, y: -beta * y + eps * y ** p, (0.0, t),
                        [1.0], method="DOP853", rtol=1e-12, atol=1e-16)
        if sol.status != 0:
            raise RuntimeError("reference integration failed: %s" % sol.message)
        out.append(sol.y[0, -1])
    return np.asarray(out)


def _mult_reference(s, t, params):
    """Stated candidate g'(s,t) h(s,t)^(1/(1-p)) for p = 2, with

    h = e^((p^2-1)bt) t^((p^2-p)/(2p+2)) [coef I(s,t) + 1],
    coef = eps (1-p) sqrt(p+1) (4 pi D)^(-p/(2p+2)),
    I = int_0^t e^((p D (2 pi s)^2 + (1-p^2) b) tau) tau^(-p^2/(2(p+1))) dtau,
    g' = sqrt(p+1) e^(-D (2 pi s)^2 (p+1) t) (4 pi D t)^(p/(2(p+1))).

    The endpoint singularity is left to quad's algebraic weight.
    """
    D, b, eps, p = params["D"], params["b"], params["eps"], params["p"]
    if p != 2:
        raise ValueError("the mult reference covers p = 2 only")
    q = p * p / (2.0 * (p + 1.0))
    coef = eps * (1.0 - p) * math.sqrt(p + 1.0) \
        * (4.0 * math.pi * D) ** (-p / (2.0 * p + 2.0))
    out = []
    for sk in s:
        w2 = (2.0 * math.pi * sk) ** 2
        a = p * D * w2 + (1.0 - p * p) * b
        integral, _ = quad(lambda tau: math.exp(a * tau), 0.0, t,
                           weight="alg", wvar=(-q, 0.0),
                           epsabs=0.0, epsrel=1e-13, limit=200)
        h = math.exp((p * p - 1.0) * b * t) \
            * t ** ((p * p - p) / (2.0 * p + 2.0)) * (coef * integral + 1.0)
        g_rooted = math.sqrt(p + 1.0) * math.exp(-D * w2 * (p + 1.0) * t) \
            * (4.0 * math.pi * D * t) ** (p / (2.0 * (p + 1.0)))
        out.append(g_rooted * h ** (1.0 / (1.0 - p)))
    return np.asarray(out)


def _exp_erfc(a, z):
    """e^a erfc(z), written with erfcx where erfc would underflow."""
    with np.errstate(over="ignore", under="ignore"):
        return np.where(z >= 0.0,
                        np.exp(a - z * z) * erfcx(np.maximum(z, 0.0)),
                        np.exp(a) * erfc(z))


def _erfc_pair(x, t, D, b):
    root_bd = math.sqrt(D * b)
    rate = math.sqrt(b / D)
    denom = 2.0 * math.sqrt(D * t)
    left = _exp_erfc(-x * rate, (2.0 * t * root_bd - x) / denom)
    right = _exp_erfc(x * rate, (2.0 * t * root_bd + x) / denom)
    return math.exp(b * t) / (4.0 * root_bd) * (left + right)


def fisher_printed(x, t, params):
    """The printed four-erfc form:
    G e^(-bt) + eps e^(-bt) pair(D, b) - eps e^(-2bt) pair(2D, b)."""
    D, b, eps = params["D"], params["b"], params["eps"]
    heat = np.exp(-x * x / (4.0 * D * t)) / math.sqrt(4.0 * math.pi * D * t)
    decay = math.exp(-b * t)
    return heat * decay + eps * decay * _erfc_pair(x, t, D, b) \
        - eps * decay * decay * _erfc_pair(x, t, 2.0 * D, b)


def check_field(equation, params, t, n, length, x, u):
    """Problems of one written solve field at time t."""
    problems = []
    grid = -length + (2.0 * length / n) * np.arange(n)
    if not np.allclose(x, grid, rtol=0.0, atol=1e-12 * length):
        problems.append("x column is not the grid")
    if not np.all(np.isfinite(u)):
        return problems + ["field has non-finite values"]
    scale = float(np.max(np.abs(u)))
    if scale == 0.0:
        return problems + ["field is identically zero"]
    odd = float(np.max(np.abs(u[1:] - u[1:][::-1])))
    if odd > EVEN_RTOL * scale:
        problems.append("field is not even in x: %.3e of its scale"
                        % (odd / scale))
    if equation == "fisher_erfc":
        want = fisher_printed(x, t, params)
        miss = float(np.max(np.abs(u - want))) / float(np.max(np.abs(want)))
    else:
        s, got = _dft(x, u, length)
        reference = _conv_reference if equation == "conv" else _mult_reference
        want = reference(s, t, params)
        miss = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
    if not miss <= FIELD_RTOL:
        problems.append("%s field at t = %r misses its reference by %.3e"
                        % (equation, t, miss))
    return problems


def h_at_zero(t, eps, b, p):
    """h(0, t) = 1 - (eps/b)(1 - e^(-(p-1) b t)), with C = 1, summed so that
    h = e^(-(p-1) b t) stays positive when eps = b."""
    return (1.0 - eps / b) + (eps / b) * np.exp(-(p - 1.0) * b * np.asarray(t))


def read_sweep_csv(data):
    """Rows (eps, b, p, t0, regime) of a sweep CSV; problems in a list."""
    lines = data.decode("utf-8").split("\r\n")
    problems = []
    if lines[0] != "eps,b,p,t0,regime":
        problems.append("header is %r" % lines[0])
    if lines[-1] != "":
        problems.append("last row is not CRLF-terminated")
    rows = []
    for line in lines[1:-1]:
        eps, b, p, t0, regime = line.split(",")
        rows.append((float(eps), float(b), int(p), float(t0), regime))
    return rows, problems


def check_sweep(rows, tuples):
    """Problems of the sweep table against the (eps, b, p) tuples swept."""
    if len(rows) != len(tuples):
        return ["%d rows for %d tuples" % (len(rows), len(tuples))]
    problems = []
    frac = np.linspace(0.0, 1.0, SIGN_PROBES + 1)[1:]
    for (eps, b, p, t0, regime), want in zip(rows, tuples):
        if (eps, b, p) != tuple(want):
            problems.append("row %r is not tuple %r" % ((eps, b, p), want))
            continue
        limit = 1.0 - eps / b   # h(0, t) as t -> infinity
        if limit < 0.0:
            expect = "root_at"
        elif limit > 0.0:
            expect = "no_root"
        else:
            expect = "asymptotic_infinity"
        if regime != expect:
            problems.append("%r: regime %s, h says %s" % (want, regime, expect))
            continue
        if regime == "root_at":
            if not (math.isfinite(t0) and t0 > 0.0):
                problems.append("%r: t0 = %r" % (want, t0))
                continue
            before = h_at_zero(frac * t0 * (1.0 - T0_STEP), eps, b, p)
            after = h_at_zero(t0 * (1.0 + T0_STEP), eps, b, p)
            if not (np.all(before > 0.0) and after < 0.0):
                problems.append("%r: h does not change sign at t0 = %r"
                                % (want, t0))
        else:
            if not math.isnan(t0):
                problems.append("%r: %s row has t0 = %r" % (want, regime, t0))
            probes = h_at_zero(np.concatenate(([0.0], 1e2 * frac)), eps, b, p)
            if not np.all(probes > 0.0):
                problems.append("%r: h changes sign on [0, inf)" % (want,))
    return problems


def check_verify(code, report):
    """Problems of one `verify --suite all` run: exit code 3 and exactly one
    failing record, the documented Fisher finding."""
    problems = []
    if code != 3:
        problems.append("exit code %r, not 3" % code)
    failing = []
    for rec in report["records"]:
        passed = rec["measured"] < rec["tolerance"]
        if passed != rec["passed"]:
            problems.append("%s: passed flag disagrees with its numbers"
                            % rec["name"])
        if not passed:
            failing.append(rec["name"])
    if failing != [FISHER_FINDING]:
        problems.append("failing records %s, not [%s]"
                        % (failing, FISHER_FINDING))
    finding = [rec for rec in report["records"]
               if rec["name"] == FISHER_FINDING]
    if not (finding and finding[0]["tolerance"] == 1e-4
            and finding[0]["measured"] > 1e-4):
        problems.append("%s is not measured above its 1e-4 tolerance"
                        % FISHER_FINDING)
    if report["passed"] is not False:
        problems.append("report says passed")
    return problems
