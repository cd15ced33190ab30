"""Shared domain types, parameter validation, and the error taxonomy.

All types are immutable after construction and safe to share across threads.
The single project-wide Fourier convention is ordinary frequency s with
kernel e^(-2*pi*i*s*x) forward, e^(+2*pi*i*s*x) inverse; the grid and the
transform live in spectral.TransformPlan.
"""

import math
from dataclasses import dataclass

import numpy as np

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
