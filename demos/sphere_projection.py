"""Projection of the mean onto the observed direction on the sphere.

The target gamma^T mu with gamma = y/||y|| is chosen by the data from a
continuum of directions.  The plausible directions form a cap around y
whose half-angle shrinks as ||y|| grows, interpolating between the Scheffe
width (total uncertainty) and the nominal width (obvious direction).
"""

import math

import numpy as np

from locsim import BudgetSplit, RngSpec, SphereProblem, sphere_interval
from locsim.sphere import cap_angle, cap_quantile
from locsim.stats_core import normal_quantile

d = 5
budget = BudgetSplit(0.1, 0.01)

nominal = normal_quantile(1 - budget.inference_level / 2)
scheffe = cap_quantile(math.pi, d, budget.inference_level, RngSpec(51), 100_000)
print(f"d = {d}: nominal half-width {nominal:.3f}, Scheffe half-width {scheffe:.3f}\n")

print("||y||   cap angle (deg)   half-width")
for norm in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 50.0, 100.0):
    y = np.r_[norm, np.zeros(d - 1)]
    prob = SphereProblem(y, budget)
    delta = cap_angle(prob, RngSpec(52), 50_000)
    lo, hi = sphere_interval(prob, RngSpec(52), 50_000)
    print(f"{norm:5.1f}   {math.degrees(delta):15.1f}   {(hi - lo) / 2:10.3f}")

print("\nLarge ||y|| pins the direction, so the interval approaches nominal;")
print("tiny ||y|| leaves every direction plausible, recovering Scheffe.")
