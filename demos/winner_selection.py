"""Inference on the winner among correlated candidates.

A smooth mean profile plus RBF-correlated Gaussian noise: the screening
step keeps only candidates near the observed maximum, and the final
correction prices the maximum z-statistic over that plausible set alone.
"""

import numpy as np

from locsim import BudgetSplit, GaussianNoise, RngSpec, WinnerProblem, winner_interval
from locsim.experiments import generate_mu, rbf_covariance
from locsim.stats_core import max_stat_quantile_mc
from locsim.winner import plausible_winner_set, _screening_margin_quantile

m, phi = 60, 10.0
budget = BudgetSplit(0.1, 0.01)
rng = RngSpec(7)

# theta = 0.5 makes the winner stand out; C stretches the profile.
mu = generate_mu(m, 0.5, 35.0)
noise = GaussianNoise(rbf_covariance(m, phi))
y = mu + noise.sample(np.random.default_rng(3), 1)[0]

# What the screening step sees.
margin = _screening_margin_quantile(noise, budget.nu, rng.child(0), 50_000)
plausible = plausible_winner_set(y, margin)
print(f"{m} candidates, winner at index {plausible.realized[0]}, "
      f"screening margin 4q = {plausible.margin:.3f}")
print(f"plausible candidates: {plausible.size} of {m} -> {plausible.indices.tolist()}")

iv = winner_interval(WinnerProblem(y, noise, budget), rng, 50_000)
full = max_stat_quantile_mc(noise, range(m), budget.alpha, rng.child(9), 50_000)
print(f"\nlocally simultaneous interval: {iv.centers[0]:.3f} +- {iv.half_widths[0]:.3f}")
print(f"fully simultaneous half-width over all {m}: {full.value:.3f}")
print(f"true winner mean (unknown in practice): {mu[iv.indices[0]]:.3f}")
