"""
Driving the medium: forced response as a transfer function
==========================================================

A time-windowed source B(s) w(tau) enters the codomain solution through
a response integral over the impulse kernel. This script drives the
convolutional model with a smooth pulse, checks the construction
against a forced time-stepping run, and draws the before/during/after
fields.
"""

import os

import numpy as np

from nwspectral import ConvSolution, OracleRun, PhysicalParams, step_etd
from nwspectral.conv import solve_forced
from nwspectral.oracle import stability_bound
from nwspectral.spectral import TransformPlan
from nwspectral.svgplot import line_plot

plan = TransformPlan(256, 40.0)
params = PhysicalParams(D=1.0, b=1.0, eps=0.1, p=2)
solution = ConvSolution(params, grid=plan)


def forcing(s, tau):
    # sin^2 pulse on [0, 0.2], flat codomain profile, amplitude 0.2
    window = np.where((0.0 <= tau) & (tau <= 0.2),
                      np.sin(np.pi * np.asarray(tau) / 0.2) ** 2, 0.0)
    return 0.2 * np.exp(-(2.0 * np.pi * np.asarray(s)) ** 2 * 0.5) * window


# closed-form forced field at three stages of the pulse
stages = (0.05, 0.15, 0.40)
fields = [solve_forced(t, solution, forcing, initial=1.0) for t in stages]

# independent check: march the forced PDE from the t = 0.05 state
# the step count is set by accuracy, far below the stability bound: the
# pulse is only C1 at its window edges, which 70 steps resolve to ~1e-9
n_steps = 70
bound = stability_bound(params, plan, fields[0], "forced_convolution")
run = OracleRun(params, plan, "forced_convolution", 0.05, 0.40,
                0.35 / n_steps, initial=fields[0], forcing=forcing)
trajectory = step_etd(run)
rel = (np.linalg.norm(trajectory.values[-1] - fields[-1])
       / np.linalg.norm(fields[-1]))
print("stability bound dt : %.3e" % bound)
print("steps              : %d (dt = %.3e)" % (n_steps, 0.35 / n_steps))
print("rel L2 vs oracle   : %.3e" % rel)

series = [np.real(plan.inverse(f)) for f in fields]
labels = ["t = %.2f (%s)" % (t, tag) for t, tag in
          zip(stages, ("pulse starting", "mid pulse", "after pulse"))]
svg = line_plot(plan.points, series, labels=labels,
                title="forced response of the convolutional model",
                xlabel="x", ylabel="u")
out = os.path.join(os.path.dirname(__file__) or ".", "forced_response.svg")
with open(out, "w", encoding="utf-8") as fh:
    fh.write(svg)
print("wrote %s" % out)
