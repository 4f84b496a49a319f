"""Inference for the projection of the mean onto the observed direction
y / ||y|| on the unit sphere.

The plausible directions form a spherical cap around y whose half-angle
shrinks as ||y|| grows: a noncentral-chi-squared lower bound on ||mu||
feeds a noncentral-t cosine bound, and the final width is the simulated
sup-|projection| quantile over the cap.  All noncentral distributions are
handled through their Gaussian sampling identities with conservative
Monte-Carlo margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats_core import (DEFAULT_DRAWS, RngSpec, _check_at_least, _check_level,
                         conservative_quantile)
from .theory_core import BudgetSplit

__all__ = [
    "SphereProblem",
    "mu_norm_lower_bound",
    "s_tau",
    "cap_quantile",
    "sphere_interval",
    "cap_angle",
]


@dataclass(frozen=True)
class SphereProblem:
    y: np.ndarray
    budget: BudgetSplit

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).ravel()
        if y.size < 2:
            raise ValueError("need dimension >= 2")
        if not np.all(np.isfinite(y)) or np.linalg.norm(y) == 0.0:
            raise ValueError("y must be finite with positive norm")
        object.__setattr__(self, "y", y)

    @property
    def d(self) -> int:
        return int(self.y.size)


def mu_norm_lower_bound(y_norm_sq: float, d: int, tau: float, rng: RngSpec,
                        n_draws: int = DEFAULT_DRAWS) -> float:
    """High-probability lower bound on ||mu|| from ||y||^2.

    ||y||^2 is noncentral chi-squared with d degrees of freedom and
    noncentrality ||mu||^2; the bound is the largest noncentrality whose MC
    CDF at the observation stays above 1 - tau after a 3-standard-error
    conservative shave.  Returns 0 when even noncentrality zero fails.
    """
    _check_at_least("y_norm_sq", y_norm_sq, 0)
    _check_at_least("d", d, 1)
    _check_level("tau", tau)
    _check_at_least("n_draws", n_draws, 1)
    gen = rng.generator()
    z = gen.standard_normal((n_draws, d))
    z1 = z[:, 0]
    norm_sq = np.einsum("ij,ij->i", z, z)

    def cdf_ok(c: float) -> bool:
        # ||sqrt(c) e1 + Z||^2 = ||Z||^2 + 2 sqrt(c) Z_1 + c, shared draws.
        vals = norm_sq + 2.0 * math.sqrt(c) * z1 + c
        p = float(np.mean(vals <= y_norm_sq))
        se = math.sqrt(max(p * (1.0 - p), 1e-12) / n_draws)
        return p - 3.0 * se >= 1.0 - tau

    if not cdf_ok(0.0):
        return 0.0
    lo, hi = 0.0, 4.0 * y_norm_sq + 100.0
    if cdf_ok(hi):
        return math.sqrt(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cdf_ok(mid):
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo)


def s_tau(c: float, d: int, tau: float, rng: RngSpec,
          n_draws: int = DEFAULT_DRAWS) -> float:
    """Lower tau-quantile cosine bound from the noncentral-t identity.

    Samples T = (Z + c) / sqrt(chi2_{d-1} / (d-1)), takes the conservative
    (downward-biased) tau-quantile q, and maps it to a cosine through
    sign(q) * sqrt(1 / ((d-1)/q^2 + 1)).
    """
    _check_at_least("noncentrality c", c, 0)
    _check_at_least("d", d, 2)
    _check_level("tau", tau)
    _check_at_least("n_draws", n_draws, 1)
    gen = rng.generator()
    num = gen.standard_normal(n_draws) + c
    chi_sq = gen.standard_normal((n_draws, d - 1))
    denom = np.sqrt(np.einsum("ij,ij->i", chi_sq, chi_sq) / (d - 1))
    # Lower quantile, biased down: the conservative upper quantile of -T.
    q = -conservative_quantile(-(num / denom), tau)
    if q == 0.0:
        return 0.0
    return math.copysign(math.sqrt(1.0 / ((d - 1) / q**2 + 1.0)), q)


def cap_quantile(delta: float, d: int, alpha: float, rng: RngSpec,
                 n_draws: int = DEFAULT_DRAWS) -> float:
    """1-alpha quantile of sup |gamma^T Z| over the cap of half-angle delta
    around a fixed axis, Z ~ N(0, I_d).

    Per draw the supremum is closed form: the full norm when Z (or -Z) lies
    inside the cap, otherwise the boundary value Z_axis cos(delta) +
    ||Z_perp|| sin(delta).  Conservative rank quantile.
    """
    if not (0.0 <= delta <= math.pi):
        raise ValueError("delta must lie in [0, pi]")
    _check_at_least("d", d, 2)
    _check_level("alpha", alpha)
    _check_at_least("n_draws", n_draws, 1)
    gen = rng.generator()
    z = gen.standard_normal((n_draws, d))
    z1 = z[:, 0]
    perp = np.sqrt(np.maximum(np.einsum("ij,ij->i", z, z) - z1**2, 0.0))
    norm = np.sqrt(z1**2 + perp**2)
    angle = np.arctan2(perp, z1)
    cos_d, sin_d = math.cos(delta), math.sin(delta)
    f_plus = np.where(angle <= delta, norm, z1 * cos_d + perp * sin_d)
    f_minus = np.where(math.pi - angle <= delta, norm, -z1 * cos_d + perp * sin_d)
    return conservative_quantile(np.maximum(f_plus, f_minus), alpha)


def cap_angle(problem: SphereProblem, rng: RngSpec,
              n_draws: int = DEFAULT_DRAWS) -> float:
    """Data-dependent cap half-angle in radians: 2 arccos of the cosine bound,
    with the screening budget split evenly between the norm bound and the cosine."""
    nu = problem.budget.nu
    y_norm_sq = float(problem.y @ problem.y)
    mu_lb = mu_norm_lower_bound(y_norm_sq, problem.d, nu / 2.0, rng.child(0), n_draws)
    s = s_tau(mu_lb, problem.d, nu / 2.0, rng.child(1), n_draws)
    delta = 2.0 * math.acos(min(max(s, -1.0), 1.0))
    return min(delta, math.pi)


def sphere_interval(problem: SphereProblem, rng: RngSpec,
                    n_draws: int = DEFAULT_DRAWS):
    """Interval for the mean's projection onto the observed direction:
    ||y|| +- (sup-over-cap quantile at level alpha - nu)."""
    delta = cap_angle(problem, rng, n_draws)
    q = cap_quantile(delta, problem.d, problem.budget.inference_level,
                     rng.child(2), n_draws)
    center = float(np.linalg.norm(problem.y))
    return (center - q, center + q)
