"""
Closed form versus time-stepping oracle
=======================================

The integrating-factor RK4 integrator knows only the PDE; the
closed form knows only the integrating-factor algebra. Agreement of the
two, and clean 4th-order error decay under step halving, is the
strongest internal evidence that both are right.
"""

import math

import numpy as np

from nwspectral import ConvSolution, OracleRun, PhysicalParams, step_etd
from nwspectral.oracle import stability_bound
from nwspectral.spectral import TransformPlan

plan = TransformPlan(256, 40.0)

# run toward (but short of) the eps = 2 pole so the nonlinear term is
# doing real work and the error sits far above the round-off floor
params = PhysicalParams(D=1.0, b=1.0, eps=2.0, p=2)
t_end = 0.65
solution = ConvSolution(params, grid=plan)
exact = solution.u_field(t_end)

# the integrating factor takes the stiff linear part exactly, so only the
# nonlinear stage bounds dt; the base step count is chosen by accuracy,
# inside the asymptotic regime where each halving gains a factor 16
span = t_end - 0.05
start = solution.u_field(0.05)
base = 123
print("stability bound dt : %.3e" % stability_bound(params, plan, start))
print("base step dt       : %.3e" % (span / base))
print("base step count    : %d" % base)
print()
print("%8s  %12s  %8s" % ("steps", "rel L2", "order"))

previous = None
for level in range(4):
    steps = base * 2 ** level
    run = OracleRun(params, plan, "convolution_p", 0.05, t_end,
                    span / steps)
    trajectory = step_etd(run)
    err = (np.linalg.norm(trajectory.values[-1] - exact)
           / np.linalg.norm(exact))
    order = "" if previous is None else "%8.3f" % math.log2(previous / err)
    print("%8d  %12.4e  %s" % (steps, err, order))
    previous = err
