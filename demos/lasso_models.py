"""Post-LASSO inference corrected only over the plausible models.

Solve the LASSO, tile the sufficient-statistic box around X^T y with
model-sign regions, and pay the simultaneous projection-parameter
correction only for the supports that show up.  Weak signals near the
selection boundary generate several plausible models; strong ones stay put.
"""

import math

import numpy as np

from locsim import BudgetSplit, Design, RngSpec
from locsim.lasso import (
    column_max_quantile,
    enumerate_plausible_models,
    lasso_solve,
    posi_intervals,
)

n, d = 300, 6
budget = BudgetSplit(0.1, 0.01)
gen = np.random.default_rng(31)

X = gen.standard_normal((n, d))
X /= np.linalg.norm(X, axis=0)
design = Design(X)
lam = 3.0 * math.sqrt(2 * math.log(math.e * d))
beta = np.zeros(d)
beta[0] = 2.5 * lam   # strong
beta[1] = 1.0 * lam   # weak, near the selection boundary
beta[2] = 1.1 * lam   # weak
y = X @ beta + gen.standard_normal(n)

beta_hat, pair = lasso_solve(design, y, lam)
print(f"lambda = {lam:.2f}; selected support {pair.M} with signs {pair.s}")

s_nu = 2 * column_max_quantile(design, 1.0, budget.nu, RngSpec(32), 50_000)
models, frontier = enumerate_plausible_models(design, y, lam, s_nu)
print(f"box radius s_nu = {s_nu:.3f}; visited {len(frontier.visited)} "
      f"model-sign regions with {frontier.lp_count} LPs "
      f"({frontier.safe_skips} checks safely skipped)")
print("plausible models:", sorted(models))

iv = posi_intervals(design, y, pair, models, budget, 1.0, RngSpec(34), 50_000)
print("\nprojection intervals for the selected model:")
for j, c, h in zip(iv.indices, iv.centers, iv.half_widths):
    print(f"  feature {j}: {c:7.3f} +- {h:.3f}")
