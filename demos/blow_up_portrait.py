"""
Finite-time blow-up of the convolutional model
==============================================

For eps > C the codomain profile h(0, t) crosses zero at a finite time
t0 and the solution develops a pole ("nonlinear resonance"). This
script locates t0 three independent ways, then draws the spatial field
approaching the pole.
"""

import math
import os

import numpy as np

from nwspectral import (ConvSolution, PhysicalParams, root_locus,
                        scalar_ode_oracle, solve_physical)
from nwspectral.oracle import BlowUpError
from nwspectral.spectral import default_plan
from nwspectral.svgplot import line_plot

params = PhysicalParams(D=1.0, b=1.0, eps=2.0, p=2)

# 1. closed form: t0 = log(eps/(eps - C beta))/((p-1) beta) at s = 0
report = root_locus(params)
print("regime            : %s" % report.regime)
print("t0 (formula)      : %.12f" % report.t0)
print("t0 (exact ln 2)   : %.12f" % math.log(2.0))

# 2. bisection on h(0, .) knows nothing about the formula
print("t0 (bisection)    : %.12f" % report.t0_bisection)
print("formula-bisection : %.3e" % report.difference)

# 3. an adaptive ODE integrator of the codomain equation blows up there
try:
    scalar_ode_oracle(0.0, params, 1.0, 2.0)
except BlowUpError as exc:
    print("t0 (ODE oracle)   : %.12f" % exc.time)

# portrait: the field flattens its decay and rears up near t0
plan = default_plan()
solution = ConvSolution(params, grid=plan)
times = (0.30, 0.50, 0.60, 0.65, 0.680)
x = plan.points
series = [np.real(solve_physical(t, solution)) for t in times]
labels = ["t = %.3f" % t for t in times]
svg = line_plot(x, series, labels=labels,
                title="approach to the t0 = ln 2 pole",
                xlabel="x", ylabel="u")
out = os.path.join(os.path.dirname(__file__) or ".", "blow_up.svg")
with open(out, "w", encoding="utf-8") as fh:
    fh.write(svg)
print("wrote %s" % out)
print("sup|u| by time    : %s"
      % ", ".join("%.3g" % np.abs(s).max() for s in series))
