"""Closed-form kernels: the heat kernel and its codomain Gaussian, the
rooted kernel, iterated Gaussian self-convolutions, and the two
transform-table pairs, the second built on scipy's erfc and erfcx.

`erfc` is scipy.special.erfc, re-exported under the package's name and
resolved on first access, so importing this module does not import scipy.
"""

import math

import numpy as np

from .spectral import circular_convolve_many, default_plan

def heat_kernel(x, t, D):
    """G(x,t) = e^(-x^2/(4Dt)) / sqrt(4 pi D t), the impulse solution of
    u_t = D u_xx. Requires t > 0."""
    if not t > 0:
        raise ValueError("t must be positive")
    if not D > 0:
        raise ValueError("D must be positive")
    x = np.asarray(x, dtype=float) if np.ndim(x) else x
    return np.exp(-(x * x) / (4.0 * D * t)) / math.sqrt(4.0 * math.pi * D * t)


def gauss_codomain(s, t, D):
    """g(s,t) = e^(-D (2 pi s)^2 t), the transform of the heat kernel."""
    s = np.asarray(s, dtype=float) if np.ndim(s) else s
    return np.exp(-D * (2.0 * math.pi * s) ** 2 * t)


def rooted_codomain(s, t, D, n):
    """g'(s,t) = sqrt(n) e^(-D (2 pi s)^2 n t) / (4 pi D t)^((1-n)/(2n)),
    the transform of the n-th root of the heat kernel; the multiplicative
    solver uses n = p + 1. Requires t > 0 and an integer n >= 2."""
    if not t > 0:
        raise ValueError("t must be positive")
    if not (isinstance(n, int) and n >= 2):
        raise ValueError("n must be an integer >= 2")
    s = np.asarray(s, dtype=float) if np.ndim(s) else s
    pref = math.sqrt(n) / (4.0 * math.pi * D * t) ** ((1.0 - n) / (2.0 * n))
    return pref * np.exp(-D * (2.0 * math.pi * s) ** 2 * n * t)


def iterated_gauss_selfconv(s, t, D, i, source, grid=default_plan()):
    """Value of the i-th self-convolution of g(s,t) over frequency.

    source "paper_formula" evaluates the stated closed form
    sqrt(4 pi D t) e^(-(2 pi s)^2 D t/(i+1)) / ((4 pi D t)^(i+1) sqrt(i+1));
    source "discrete_oracle" convolves i+1 sampled copies of g on the grid
    (i convolution operators). The two disagree by a t-dependent prefactor;
    the discrepancy is a first-class reported output, not an error.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    if not (isinstance(i, int) and i >= 1):
        raise ValueError("i must be an integer >= 1")
    if source == "paper_formula":
        s = np.asarray(s, dtype=float) if np.ndim(s) else s
        c = 4.0 * math.pi * D * t
        return (math.sqrt(c) / (c ** (i + 1) * math.sqrt(i + 1.0))
                * np.exp(-(2.0 * math.pi * s) ** 2 * D * t / (i + 1.0)))
    if source == "discrete_oracle":
        freqs = grid.frequencies
        g = gauss_codomain(freqs, t, D)
        conv = circular_convolve_many([g] * (i + 1), grid.ds)
        if np.ndim(s) == 0:
            return float(np.interp(s, freqs, conv))
        return np.interp(np.asarray(s, dtype=float), freqs, conv)
    raise ValueError("source must be 'paper_formula' or 'discrete_oracle'")


def gauss_selfconv_exact(s, t, D, i):
    """Continuum value of the i-fold self-convolution of g: the transform
    of G^(i+1), namely (4 pi D t)^(-i/2) (i+1)^(-1/2) e^(-(2 pi s)^2 Dt/(i+1)).

    Reference for quantifying the closed-form prefactor discrepancy.
    """
    s = np.asarray(s, dtype=float) if np.ndim(s) else s
    c = 4.0 * math.pi * D * t
    return (c ** (-0.5 * i) / math.sqrt(i + 1.0)
            * np.exp(-(2.0 * math.pi * s) ** 2 * D * t / (i + 1.0)))


def lorentzian_pair(x, D, b):
    """Spatial pair of 1/(b + D (2 pi s)^2): e^(-sqrt(b/D)|x|) / (2 sqrt(Db)).

    The two one-sided branches merge continuously; the step weight at x = 0
    is 1/2 on each side, so the merged form needs no case split.
    """
    if not D > 0:
        raise ValueError("D must be positive")
    if not b > 0:
        raise ValueError("b must be positive")
    x = np.asarray(x, dtype=float) if np.ndim(x) else x
    return np.exp(-math.sqrt(b / D) * np.abs(x)) / (2.0 * math.sqrt(D * b))


def lorentzian_codomain(s, D, b):
    """1/(b + D (2 pi s)^2), the codomain side of the pair above."""
    s = np.asarray(s, dtype=float) if np.ndim(s) else s
    return 1.0 / (b + D * (2.0 * math.pi * s) ** 2)


def erfc_pair(x, t, D, b):
    """Spatial pair of e^(-D (2 pi s)^2 t) / (b + D (2 pi s)^2):

    (e^(bt) / (4 sqrt(Db))) [ e^(-x sqrt(b/D)) erfc((2t sqrt(Db) - x)/(2 sqrt(Dt)))
                            + e^(+x sqrt(b/D)) erfc((2t sqrt(Db) + x)/(2 sqrt(Dt))) ].

    Each term is evaluated where its erfc argument z is >= 0 as
    e^(-x^2/(4Dt)) erfcx(z), the exponents cancelling exactly
    (bt -+ x sqrt(b/D) - z^2 = -x^2/(4Dt)), and where z < 0 in the direct
    form, whose exponent is then below -bt. Neither overflows, at any t.

    Requires t > 0.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    if not D > 0:
        raise ValueError("D must be positive")
    if not b > 0:
        raise ValueError("b must be positive")
    from scipy.special import erfc, erfcx
    x = np.asarray(x, dtype=float)
    rate = math.sqrt(b / D)
    denom = 2.0 * math.sqrt(D * t)
    shift = 2.0 * t * math.sqrt(D * b)
    gauss = np.exp(-(x * x) / (denom * denom))
    total = np.zeros(x.shape)
    for sign in (-1.0, 1.0):
        z = (shift + sign * x) / denom
        big = z >= 0.0
        total[big] += gauss[big] * erfcx(z[big])
        total[~big] += np.exp(b * t + sign * rate * x[~big]) * erfc(z[~big])
    return (total / (4.0 * math.sqrt(D * b)))[()]


def erfc_pair_codomain(s, t, D, b):
    """e^(-D (2 pi s)^2 t) / (b + D (2 pi s)^2), the codomain side."""
    return gauss_codomain(s, t, D) * lorentzian_codomain(s, D, b)


def __getattr__(name):
    if name == "erfc":
        from scipy.special import erfc
        return erfc
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
