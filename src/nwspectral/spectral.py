"""Discrete Fourier transforms, discrete convolution, and executable
convolution-identity checks.

Forward transform approximates F(s) = integral f(x) e^(-2 pi i s x) dx by
dx-scaled DFT; inverse approximates the e^(+2 pi i s x) integral. Discrete
convolution is circular with dx scaling, so the convolution theorem holds
exactly on the grid.
"""

import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_L, DEFAULT_N, SpatialGrid, SpectralField,
                   SpectralGrid, make_grids)

IMAG_RESIDUE_TOL = 1e-10


def _centred_fft(values):
    """DFT of samples stored in centred order (origin at index n/2), with
    the result in centred order too; _centred_ifft is its inverse."""
    return np.fft.fftshift(np.fft.fft(np.fft.ifftshift(values)))


def _centred_ifft(values):
    return np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(values)))


@dataclass(frozen=True)
class TransformPlan:
    """Paired grids plus the fixed normalization of the transform.

    Forward is unscaled DFT times dx; inverse is the scaled inverse DFT
    divided by dx. round_trip(f) = f to 1e-12 relative for finite input.
    """

    spatial: SpatialGrid
    spectral: SpectralGrid

    def __post_init__(self):
        if (self.spatial.n_points != self.spectral.n_points
                or self.spatial.length != self.spectral.length):
            raise ValueError("spatial and spectral grids must be duals")

    @property
    def n(self):
        return self.spatial.n_points

    @property
    def dx(self):
        return self.spatial.dx

    @property
    def ds(self):
        return self.spectral.ds

    def forward(self, f, time=0.0):
        """Transform spatial samples (natural x order) to a SpectralField."""
        f = np.asarray(f)
        if f.shape != (self.n,):
            raise ValueError("sample count must match grid")
        spec = self.dx * _centred_fft(f)
        return SpectralField(self.spectral, time, spec)

    def inverse(self, field):
        """Invert a SpectralField (or raw centered spectrum) to real samples.

        The imaginary residue of a Hermitian field stays below 1e-10 of the
        field scale; anything above that is discarded with a warning.
        """
        values = field.values if isinstance(field, SpectralField) else np.asarray(field)
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


def default_plan(n_points=None, length=None):
    n = DEFAULT_N if n_points is None else n_points
    ell = DEFAULT_L if length is None else length
    spatial, spectral = make_grids(n, ell)
    return TransformPlan(spatial, spectral)


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
    lhs = plan.forward(convolved).values
    rhs = np.ones(plan.n, dtype=complex)
    for f in arrays:
        rhs = rhs * plan.forward(f).values
    scale = float(np.abs(rhs).max())
    if scale == 0.0:
        return float(np.abs(lhs).max())
    return float(np.abs(lhs - rhs).max()) / scale


def parseval_defect(plan, f):
    """Relative defect of ||f||^2 dx = ||forward(f)||^2 ds."""
    f = np.asarray(f)
    lhs = float(np.sum(np.abs(f) ** 2)) * plan.dx
    rhs = float(np.sum(np.abs(plan.forward(f).values) ** 2)) * plan.ds
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


def wraparound_mass(f, fraction=0.01):
    """Fraction of |f| mass sitting in the outer tails of the domain.

    The domain half-width must be large enough that this is negligible
    for every shipped example; callers treat values above 1e-12 of the
    total as a failed tail check.
    """
    f = np.abs(np.asarray(f, dtype=float))
    n = f.size
    edge = max(1, int(round(fraction * n)))
    total = float(f.sum())
    if total == 0.0:
        return 0.0
    return float(f[:edge].sum() + f[-edge:].sum()) / total
