"""Shared domain types, parameter validation, and grid construction.

All types are immutable after construction and safe to share across threads.
The single project-wide Fourier convention is ordinary frequency s with
kernel e^(-2*pi*i*s*x) forward, e^(+2*pi*i*s*x) inverse.
"""

import math
from dataclasses import dataclass

import numpy as np

# Default desk-scale grid. Keeps the codomain Gaussian at the Nyquist
# frequency below the band-limit floor for t >= 0.05, D = 1.
DEFAULT_N = 256
DEFAULT_L = 20.0
BAND_LIMIT_FLOOR = 1e-8

# Relative tolerance of the adaptive time quadratures that have no closed
# form: the forced response, the corollary h and the h certificate.
QUAD_REL_TOL = 1e-10

# Verification suites; "all" runs the other four in this order.
SUITES = ("all", "conv", "mult", "kernels", "appendix")


class SolverError(Exception):
    """A solver could not produce a valid field."""


class BranchError(SolverError):
    """Negative base under an even-denominator real root; no real branch."""


class PoleError(SolverError):
    """Evaluation at or beyond a finite-time pole under pole_policy='error'."""


def _check_grid(n_points, length):
    """Shared validation of the (n, L) pair behind both dual grids."""
    if not isinstance(n_points, int) or n_points < 1 \
            or n_points & (n_points - 1):
        raise ValueError("n_points must be a power of two")
    if n_points < 16:
        raise ValueError("n_points must be >= 16")
    if not (isinstance(length, (int, float)) and math.isfinite(length)
            and length > 0):
        raise ValueError("length must be positive and finite")


@dataclass(frozen=True)
class PhysicalParams:
    """Coefficients of u_t - D u_xx + b u - eps f(u) = 0.

    D > 0 is the diffusion coefficient, b any finite real decay/convection
    coefficient, eps any finite real nonlinear response magnitude, and
    p >= 2 the integer nonlinearity order.
    """

    D: float
    b: float
    eps: float
    p: int

    def __post_init__(self):
        # Report every violated constraint, not just the first.
        if not (isinstance(self.p, int) and not isinstance(self.p, bool)):
            raise ValueError("p must be an integer")
        problems = []
        for name, value in (("D", self.D), ("b", self.b), ("eps", self.eps)):
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                problems.append("%s must be a finite real" % name)
        if math.isfinite(self.D) and self.D <= 0:
            problems.append("D must be positive")
        if self.p < 2:
            problems.append("p must be >= 2")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform symmetric grid x_j = -L + j*dx on [-L, L), dx = 2L/n.

    n_points must be a power of two >= 16 so the grid is symmetric about
    x = 0, where the heat kernel is centered.
    """

    n_points: int
    length: float

    def __post_init__(self):
        _check_grid(self.n_points, self.length)

    @property
    def dx(self):
        return 2.0 * self.length / self.n_points

    @property
    def points(self):
        return -self.length + self.dx * np.arange(self.n_points)


@dataclass(frozen=True)
class SpectralGrid:
    """Dual frequency grid s_k = k/(2L) for k = -n/2 .. n/2 - 1.

    Frequency spacing ds = 1/(2L); dx * ds * n = 1 exactly. The Nyquist
    frequency is s_max = n/(4L).
    """

    n_points: int
    length: float

    def __post_init__(self):
        _check_grid(self.n_points, self.length)

    @property
    def ds(self):
        return 1.0 / (2.0 * self.length)

    @property
    def frequencies(self):
        return (np.arange(self.n_points) - self.n_points // 2) * self.ds

    @property
    def s_max(self):
        return self.n_points / (4.0 * self.length)

    def band_limit_margin(self, D, t_min):
        """|g(s_max, t_min)| for the codomain Gaussian g = e^(-D(2 pi s)^2 t)."""
        return math.exp(-D * (2.0 * math.pi * self.s_max) ** 2 * t_min)

    def band_limit_ok(self, D, t_min, floor=BAND_LIMIT_FLOOR):
        """Anti-aliasing guard: the codomain Gaussian must be negligible at Nyquist."""
        return self.band_limit_margin(D, t_min) <= floor


def make_grids(n_points, length):
    """Construct the dual (SpatialGrid, SpectralGrid) pair for (n, L)."""
    return SpatialGrid(n_points, float(length)), SpectralGrid(n_points, float(length))


@dataclass(frozen=True)
class SpectralField:
    """Complex samples of a codomain function at a fixed time.

    Values are stored in centered frequency order matching grid.frequencies.
    A field representing a real-valued spatial function satisfies Hermitian
    symmetry value(-s) = conj(value(s)) to within 1e-12 relative.
    """

    grid: SpectralGrid
    time: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.n_points,):
            raise ValueError("values length must match grid")
        if not (isinstance(self.time, (int, float)) and math.isfinite(self.time)
                and self.time >= 0):
            raise ValueError("time must be a finite real >= 0")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


POLE_POLICIES = ("error", "clamp", "report")


@dataclass(frozen=True)
class KernelSpec:
    """Integration-constant profile C(s) plus the pole policy.

    C may be a finite constant or a callable over s; the default is the
    constant 1. pole_policy governs evaluation near a root of h.
    """

    C: object = 1.0
    pole_policy: str = "report"

    def __post_init__(self):
        if self.pole_policy not in POLE_POLICIES:
            raise ValueError("pole_policy must be one of %s" % (POLE_POLICIES,))
        if not callable(self.C):
            c = float(self.C)
            if not math.isfinite(c):
                raise ValueError("C must be finite")

    def C_at(self, s):
        """Evaluate C at frequency s (scalar or array); must be finite."""
        if callable(self.C):
            out = np.asarray(self.C(np.asarray(s, dtype=float)), dtype=float)
        else:
            out = np.broadcast_to(float(self.C), np.shape(s)).astype(float) \
                if np.ndim(s) else float(self.C)
        if not np.all(np.isfinite(out)):
            raise ValueError("C(s) must be finite at every grid frequency")
        return out
