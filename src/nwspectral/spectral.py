"""The grid, its discrete Fourier transforms, discrete convolution, and
executable convolution-identity checks.

One TransformPlan holds the (n, L) grid decision: spatial samples on
[-L, L) and their dual frequencies. Codomain samples travel as plain
arrays in centred frequency order, matching plan.frequencies. Forward
transform approximates F(s) = integral f(x) e^(-2 pi i s x) dx by
dx-scaled DFT; inverse approximates the e^(+2 pi i s x) integral. Discrete
convolution is circular with dx scaling, so the convolution theorem holds
exactly on the grid.
"""

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

# Default desk-scale grid. Keeps the codomain Gaussian at the Nyquist
# frequency below the band-limit floor for t >= 0.05, D = 1.
DEFAULT_N = 256
DEFAULT_L = 20.0
BAND_LIMIT_FLOOR = 1e-8
IMAG_RESIDUE_TOL = 1e-10


def _centred_fft(values):
    """DFT of samples stored in centred order (origin at index n/2), with
    the result in centred order too; _centred_ifft is its inverse."""
    return np.fft.fftshift(np.fft.fft(np.fft.ifftshift(values)))


def _centred_ifft(values):
    return np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(values)))


@dataclass(frozen=True)
class TransformPlan:
    """The (n, L) grid decision and the transform between its two sides.

    Spatial samples sit at x_j = -L + j dx on [-L, L), dx = 2L/n; their
    dual frequencies are s_k = k/(2L) for k = -n/2 .. n/2 - 1, ds = 1/(2L),
    so dx * ds * n = 1 exactly and the Nyquist frequency is s_max = n/(4L).
    n must be a power of two >= 16 so the grid is symmetric about x = 0,
    where the heat kernel is centred. Forward is the unscaled DFT times dx;
    inverse is the scaled inverse DFT divided by dx, so round_trip(f) = f
    to 1e-12 relative for finite input.
    """

    n: int
    length: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1 or self.n & (self.n - 1):
            raise ValueError("n_points must be a power of two")
        if self.n < 16:
            raise ValueError("n_points must be >= 16")
        if not (isinstance(self.length, (int, float))
                and math.isfinite(self.length) and self.length > 0):
            raise ValueError("length must be positive and finite")
        object.__setattr__(self, "length", float(self.length))

    @property
    def dx(self):
        return 2.0 * self.length / self.n

    @property
    def ds(self):
        return 1.0 / (2.0 * self.length)

    @property
    def points(self):
        return -self.length + self.dx * np.arange(self.n)

    @property
    def frequencies(self):
        return (np.arange(self.n) - self.n // 2) * self.ds

    @property
    def s_max(self):
        return self.n / (4.0 * self.length)

    def band_limit_margin(self, D, t_min):
        """|g(s_max, t_min)| for the codomain Gaussian g = e^(-D(2 pi s)^2 t)."""
        return math.exp(-D * (2.0 * math.pi * self.s_max) ** 2 * t_min)

    def band_limit_ok(self, D, t_min):
        """Anti-aliasing guard: the codomain Gaussian must be negligible at Nyquist."""
        return self.band_limit_margin(D, t_min) <= BAND_LIMIT_FLOOR

    def forward(self, f):
        """Transform spatial samples (natural x order) to centred codomain
        samples."""
        f = np.asarray(f)
        if f.shape != (self.n,):
            raise ValueError("sample count must match grid")
        return self.dx * _centred_fft(f)

    def inverse(self, values):
        """Invert centred codomain samples to real spatial samples.

        The imaginary residue of a Hermitian field stays below 1e-10 of the
        field scale; anything above that is discarded with a warning.
        """
        values = np.asarray(values)
        if values.shape != (self.n,):
            raise ValueError("sample count must match grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        f = _centred_ifft(values) / self.dx
        scale = float(np.abs(f).max())
        residue = float(np.abs(f.imag).max())
        if scale > 0 and residue > IMAG_RESIDUE_TOL * scale:
            warnings.warn("imaginary residue %.3e exceeds %.0e of field scale; "
                          "discarding it" % (residue / scale, IMAG_RESIDUE_TOL))
        return f.real


def default_plan(n_points=DEFAULT_N, length=DEFAULT_L):
    return TransformPlan(n_points, length)


def circular_convolve(f, g, spacing):
    """Spacing-scaled circular convolution of samples in centered order.

    Approximates (f*g)(x_j) = integral f(y) g(x_j - y) dy on a periodic
    domain whose origin sits at index n/2. Computed by direct summation,
    not by DFT, so convolution-theorem checks against it are not vacuous.
    """
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != g.shape or f.ndim != 1:
        raise ValueError("operands must be 1-d arrays of equal length")
    n = f.size
    full = np.convolve(f, g)
    folded = full[:n].astype(full.dtype, copy=True)
    folded[: n - 1] += full[n:]
    # Index-sum convention puts the origin at 0; shift it back to n/2.
    return spacing * np.roll(folded, -(n // 2))


def circular_convolve_many(arrays, spacing):
    """Left fold of circular_convolve over two or more sample arrays."""
    arrays = list(arrays)
    if len(arrays) < 2:
        raise ValueError("need at least two arrays")
    out = arrays[0]
    for nxt in arrays[1:]:
        out = circular_convolve(out, nxt, spacing)
    return out


def conv_theorem_residual(plan, *samples):
    """sup-norm residual of transform(f1 conv ... conv fm) vs the product
    of transforms, scaled by the product's sup norm.

    Stays below 1e-10 for band-limited inputs on an adequate grid.
    """
    if len(samples) < 2:
        raise ValueError("need at least two sample arrays")
    arrays = [np.asarray(f) for f in samples]
    for f in arrays:
        if f.shape != (plan.n,):
            raise ValueError("sample count must match grid")
    convolved = circular_convolve_many(arrays, plan.dx)
    lhs = plan.forward(convolved)
    rhs = np.ones(plan.n, dtype=complex)
    for f in arrays:
        rhs = rhs * plan.forward(f)
    scale = float(np.abs(rhs).max())
    if scale == 0.0:
        return float(np.abs(lhs).max())
    return float(np.abs(lhs - rhs).max()) / scale


def parseval_defect(plan, f):
    """Relative defect of ||f||^2 dx = ||forward(f)||^2 ds."""
    f = np.asarray(f)
    lhs = float(np.sum(np.abs(f) ** 2)) * plan.dx
    rhs = float(np.sum(np.abs(plan.forward(f)) ** 2)) * plan.ds
    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale


def _central_diff(sample, h):
    """5-point central difference (f(-2h) - 8 f(-h) + 8 f(h) - f(2h))/(12h),
    where sample(k) returns f at the offset k h for k in -2, -1, 1, 2."""
    return (sample(-2) - 8.0 * sample(-1) + 8.0 * sample(1)
            - sample(2)) / (12.0 * h)


def _central_diff_time(series, dt):
    """5-point central time derivative of an (nt, nx) family at interior
    indices 2 .. nt-3."""
    nt = len(series)
    return _central_diff(lambda k: series[2 + k:nt - 2 + k], dt)


def _central_diff_x(samples, dx):
    """5-point central x derivative with periodic wrap, along the last axis."""
    return _central_diff(lambda k: np.roll(samples, -k, axis=-1), dx)


DerivativeResiduals = namedtuple(
    "DerivativeResiduals", ["time_rule", "space_left", "space_right"])


def derivative_distribution_residual(plan, G_family, f_family, dt):
    """Residuals of the derivative-through-convolution identities.

    time_rule: max |d/dt (G conv f) - (G' conv f + f' conv G)| with the time
    derivative by 5-point central difference (the off-convolution variable).
    space_left / space_right: max |d/dx (G conv f) - (q' conv other)| with
    the x derivative placed on either factor in turn.
    """
    G = np.asarray(G_family, dtype=float)
    f = np.asarray(f_family, dtype=float)
    if G.ndim != 2 or G.shape != f.shape:
        raise ValueError("families must be (nt, nx) arrays of equal shape")
    nt, nx = G.shape
    if nt < 5:
        raise ValueError("need at least 5 time samples")
    if nx != plan.n:
        raise ValueError("sample count must match grid")
    dx = plan.dx

    conv = np.array([circular_convolve(G[k], f[k], dx) for k in range(nt)])

    d_conv = _central_diff_time(conv, dt)
    dG = _central_diff_time(G, dt)
    df = _central_diff_time(f, dt)
    G_mid = G[2:nt - 2]
    f_mid = f[2:nt - 2]
    rule = np.array([
        circular_convolve(dG[k], f_mid[k], dx)
        + circular_convolve(df[k], G_mid[k], dx)
        for k in range(nt - 4)
    ])
    time_rule = float(np.abs(d_conv - rule).max())

    conv_x = _central_diff_x(conv, dx)
    Gx = _central_diff_x(G, dx)
    fx = _central_diff_x(f, dx)
    left = np.array([circular_convolve(Gx[k], f[k], dx) for k in range(nt)])
    right = np.array([circular_convolve(fx[k], G[k], dx) for k in range(nt)])
    space_left = float(np.abs(conv_x - left).max())
    space_right = float(np.abs(conv_x - right).max())

    return DerivativeResiduals(time_rule, space_left, space_right)


def wraparound_mass(f):
    """Fraction of |f| mass sitting in the outer 1% at each end of the
    domain.

    The domain half-width must be large enough that this is negligible
    for every shipped example; callers treat values above 1e-12 of the
    total as a failed tail check.
    """
    f = np.abs(np.asarray(f, dtype=float))
    n = f.size
    edge = max(1, int(round(0.01 * n)))
    total = float(f.sum())
    if total == 0.0:
        return 0.0
    return float(f[:edge].sum() + f[-edge:].sum()) / total
