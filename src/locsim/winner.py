"""Selective confidence intervals for the winner and for all candidates
above a threshold (the file-drawer setting), parametric and nonparametric,
plus a two-candidate closed form and a conditional truncated-Gaussian
baseline.

The screening step buys a data-dependent plausible set: candidates within a
margin of the selection boundary.  The final simultaneous correction is then
taken only over that set, at the remaining error budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .stats_core import (
    DEFAULT_DRAWS,
    GaussianNoise,
    RngSpec,
    betting_ci,
    bentkus_width,
    hoeffding_width,
    max_abs_quantile_iid,
    max_stat_quantile_mc,
)
from .theory_core import BudgetSplit

__all__ = [
    "WinnerProblem",
    "FileDrawerProblem",
    "SampleMatrix",
    "PlausibleSet",
    "IntervalSet",
    "plausible_winner_set",
    "plausible_filedrawer_set",
    "winner_interval",
    "filedrawer_region",
    "np_winner_interval",
    "np_filedrawer_region",
    "two_candidate_interval",
    "conditional_winner_interval",
]


@dataclass(frozen=True)
class PlausibleSet:
    """Indices that survive screening; always a superset of the realized
    selection.  ``margin`` is the additive slack that was applied."""

    indices: np.ndarray
    realized: np.ndarray
    margin: float
    nu_used: float = float("nan")

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        rea = np.asarray(self.realized, dtype=int)
        if not set(rea.tolist()) <= set(idx.tolist()):
            raise ValueError("plausible set must contain the realized selection")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "realized", rea)

    @property
    def size(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class IntervalSet:
    """Symmetric intervals (center +- half_width) for the selected targets,
    jointly certified at the stated level."""

    indices: np.ndarray
    centers: np.ndarray
    half_widths: np.ndarray
    level: float

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        ctr = np.asarray(self.centers, dtype=float)
        hw = np.asarray(self.half_widths, dtype=float)
        if not (idx.shape == ctr.shape == hw.shape):
            raise ValueError("indices, centers and half_widths must align")
        if np.any(hw < 0):
            raise ValueError("half widths must be nonnegative")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "centers", ctr)
        object.__setattr__(self, "half_widths", hw)

    @property
    def is_empty(self) -> bool:
        return self.indices.size == 0

    @property
    def lower(self) -> np.ndarray:
        return self.centers - self.half_widths

    @property
    def upper(self) -> np.ndarray:
        return self.centers + self.half_widths

    @property
    def widths(self) -> np.ndarray:
        return 2.0 * self.half_widths

    def covers(self, truth) -> bool:
        """True when every selected target's truth lies in its interval."""
        truth = np.asarray(truth, dtype=float)
        vals = truth[self.indices] if truth.size > self.indices.size else truth
        return bool(np.all(np.abs(vals - self.centers) <= self.half_widths))


@dataclass(frozen=True)
class WinnerProblem:
    y: np.ndarray
    noise: GaussianNoise
    budget: BudgetSplit

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).ravel()
        if y.size == 0 or not np.all(np.isfinite(y)):
            raise ValueError("y must be a nonempty finite vector")
        if y.size != self.noise.dimension:
            raise ValueError("y and noise dimensions disagree")
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class FileDrawerProblem:
    y: np.ndarray
    threshold: float
    noise: GaussianNoise
    budget: BudgetSplit

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).ravel()
        if y.size == 0 or not np.all(np.isfinite(y)):
            raise ValueError("y must be a nonempty finite vector")
        if y.size != self.noise.dimension:
            raise ValueError("y and noise dimensions disagree")
        object.__setattr__(self, "y", y)


class SampleMatrix:
    """n x m matrix of [0,1]-bounded samples (rows) per candidate (columns)."""

    def __init__(self, data):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError("sample matrix must be two-dimensional")
        if data.shape[0] < 2:
            raise ValueError("need at least 2 samples per candidate")
        if not np.all(np.isfinite(data)) or data.min() < 0.0 or data.max() > 1.0:
            raise ValueError("all entries must lie in [0, 1]")
        self.data = data

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]

    def column_means(self) -> np.ndarray:
        return self.data.mean(axis=0)


# ---------------------------------------------------------------------------
# Screening sets
# ---------------------------------------------------------------------------

def plausible_winner_set(y, q_nu: float, nu: float = float("nan")) -> PlausibleSet:
    """Candidates within 4*q_nu of the maximum.

    Always contains the argmax; ties at the maximum are all included and the
    realized selection is the lowest tied index.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.size == 0:
        raise ValueError("y must be nonempty")
    if q_nu < 0:
        raise ValueError("q_nu must be nonnegative")
    winner = int(np.argmax(y))
    keep = np.flatnonzero(y >= y[winner] - 4.0 * q_nu)
    return PlausibleSet(keep, np.array([winner]), 4.0 * q_nu, nu)


def plausible_filedrawer_set(y, threshold: float, q_nu: float,
                             nu: float = float("nan")) -> PlausibleSet:
    """Candidates with y >= T - 2*q_nu; superset of the realized selection
    {y >= T}."""
    y = np.asarray(y, dtype=float).ravel()
    if q_nu < 0:
        raise ValueError("q_nu must be nonnegative")
    keep = np.flatnonzero(y >= threshold - 2.0 * q_nu)
    realized = np.flatnonzero(y >= threshold)
    return PlausibleSet(keep, realized, 2.0 * q_nu, nu)


# ---------------------------------------------------------------------------
# Parametric intervals
# ---------------------------------------------------------------------------

def _screening_margin_quantile(noise: GaussianNoise, nu: float, rng: RngSpec,
                               n_draws: int) -> float:
    """Screening half-width in outcome units.

    The max-z quantile is computed on standardized margins and scaled back
    by the largest marginal scale, which collapses to the plain max-|Z|
    quantile when all marginals share one scale and stays conservative
    otherwise.
    """
    q_z = max_stat_quantile_mc(noise, np.arange(noise.dimension), nu, rng, n_draws)
    return q_z.value * float(np.max(noise.marginal_scales))


def winner_interval(problem: WinnerProblem, rng: RngSpec,
                    n_draws: int = DEFAULT_DRAWS) -> IntervalSet:
    """Locally simultaneous interval for the mean of the winning candidate.

    Screens at nu over all m candidates, then corrects at alpha - nu using
    the covariance restricted to the plausible set.
    """
    y, noise, budget = problem.y, problem.noise, problem.budget
    q_nu = _screening_margin_quantile(noise, budget.nu, rng.child(0), n_draws)
    plausible = plausible_winner_set(y, q_nu, budget.nu)
    winner = int(plausible.realized[0])
    q_fin = max_stat_quantile_mc(noise, plausible.indices, budget.inference_level,
                                 rng.child(1), n_draws)
    half = q_fin.value * noise.marginal_scales[winner]
    return IntervalSet(np.array([winner]), np.array([y[winner]]),
                       np.array([half]), 1.0 - budget.alpha)


def filedrawer_region(problem: FileDrawerProblem, rng: RngSpec,
                      n_draws: int = DEFAULT_DRAWS) -> IntervalSet:
    """Simultaneous intervals for every candidate above the threshold."""
    y, noise, budget = problem.y, problem.noise, problem.budget
    q_nu = _screening_margin_quantile(noise, budget.nu, rng.child(0), n_draws)
    plausible = plausible_filedrawer_set(y, problem.threshold, q_nu, budget.nu)
    realized = plausible.realized
    if realized.size == 0:
        return IntervalSet(np.array([], dtype=int), np.array([]), np.array([]),
                           1.0 - budget.alpha)
    q_fin = max_stat_quantile_mc(noise, plausible.indices, budget.inference_level,
                                 rng.child(1), n_draws)
    halves = q_fin.value * noise.marginal_scales[realized]
    return IntervalSet(realized, y[realized], halves, 1.0 - budget.alpha)


# ---------------------------------------------------------------------------
# Nonparametric intervals for bounded samples
# ---------------------------------------------------------------------------

_WIDTH_FNS = {"hoeffding": hoeffding_width, "bentkus": bentkus_width}


def _np_margin(samples: SampleMatrix, budget: BudgetSplit, bound_kind: str) -> float:
    try:
        width_fn = _WIDTH_FNS[bound_kind]
    except KeyError:
        raise ValueError(f"unknown bound_kind {bound_kind!r}") from None
    return width_fn(samples.n, budget.nu / samples.m)


def _hoeffding_ci(x, alpha: float):
    mean = float(x.mean())
    w = hoeffding_width(x.size, alpha)
    return mean - w, mean + w


_CI_FNS = {"hoeffding": _hoeffding_ci, "betting": betting_ci}


def _np_single_ci(samples: SampleMatrix, col: int, level_alpha: float, ci_kind: str):
    try:
        ci_fn = _CI_FNS[ci_kind]
    except KeyError:
        raise ValueError(f"unknown ci_kind {ci_kind!r}") from None
    return ci_fn(samples.data[:, col], level_alpha)


def np_winner_interval(samples: SampleMatrix, budget: BudgetSplit,
                       bound_kind: str = "bentkus",
                       ci_kind: str = "betting") -> IntervalSet:
    """Nonparametric winner interval for bounded samples.

    The plausible set collects column means within 4*w_n^(nu/m) of the best
    one; the winner's confidence interval is then taken at the Bonferroni
    level (alpha - nu) / |plausible set|.
    """
    if not isinstance(samples, SampleMatrix):
        samples = SampleMatrix(samples)
    means = samples.column_means()
    plausible = plausible_winner_set(means, _np_margin(samples, budget, bound_kind),
                                     budget.nu)
    winner = int(plausible.realized[0])
    level = budget.inference_level / plausible.size
    lo, hi = _np_single_ci(samples, winner, level, ci_kind)
    return IntervalSet(np.array([winner]), np.array([(lo + hi) / 2.0]),
                       np.array([(hi - lo) / 2.0]), 1.0 - budget.alpha)


def np_filedrawer_region(samples: SampleMatrix, threshold: float,
                         budget: BudgetSplit, bound_kind: str = "bentkus",
                         ci_kind: str = "betting") -> IntervalSet:
    """Nonparametric intervals for every column mean above the threshold."""
    if not isinstance(samples, SampleMatrix):
        samples = SampleMatrix(samples)
    means = samples.column_means()
    plausible = plausible_filedrawer_set(
        means, threshold, _np_margin(samples, budget, bound_kind), budget.nu)
    realized = plausible.realized
    if realized.size == 0:
        return IntervalSet(np.array([], dtype=int), np.array([]), np.array([]),
                           1.0 - budget.alpha)
    level = budget.inference_level / plausible.size
    centers, halves = [], []
    for col in realized:
        lo, hi = _np_single_ci(samples, int(col), level, ci_kind)
        centers.append((lo + hi) / 2.0)
        halves.append((hi - lo) / 2.0)
    return IntervalSet(realized, np.array(centers), np.array(halves),
                       1.0 - budget.alpha)


# ---------------------------------------------------------------------------
# Two candidates, iid noise: fully closed form
# ---------------------------------------------------------------------------

def two_candidate_interval(y, budget: BudgetSplit, sigma: float = 1.0) -> IntervalSet:
    """Closed-form locally simultaneous interval for the better of two
    iid-Gaussian candidates.

    Both candidates stay plausible iff |y2 - y1| <= 2*sqrt(2)*sigma*q where
    q is the two-sided nu-quantile of a single standardized observation;
    otherwise only the winner does.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.size != 2:
        raise ValueError("exactly two candidates required")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    q_nu = max_abs_quantile_iid(1, budget.nu, 1.0)
    switch = 2.0 * math.sqrt(2.0) * sigma * q_nu
    k = 2 if abs(y[1] - y[0]) <= switch else 1
    winner = int(np.argmax(y))
    half = max_abs_quantile_iid(k, budget.inference_level, sigma)
    return IntervalSet(np.array([winner]), np.array([y[winner]]),
                       np.array([half]), 1.0 - budget.alpha)


# ---------------------------------------------------------------------------
# Conditional truncated-Gaussian baseline (iid case)
# ---------------------------------------------------------------------------

def _truncated_cdf(x: float, mu: float, sigma: float, lower: float) -> float:
    """P(X <= x | X >= lower) for X ~ N(mu, sigma^2), in log space."""
    zx = (x - mu) / sigma
    za = (lower - mu) / sigma
    # Survival ratio S(zx)/S(za) via log-normal-survival differences.
    log_ratio = log_ndtr(-zx) - log_ndtr(-za)
    return float(-math.expm1(min(log_ratio, 0.0)))


def conditional_winner_interval(y, sigma: float, alpha: float):
    """Truncated-Gaussian conditional interval for the winner's mean
    (iid N(mu, sigma^2 I) model).

    Conditional on the selection, the winning observation is Gaussian
    truncated to [runner-up, inf).  Endpoints are the mu values at which the
    truncated CDF of the observed winner equals 1 - alpha/2 and alpha/2,
    found by bisection over mu in [y_max - 20 sigma, y_max + 20 sigma].
    A solution falling outside the bracket is reported as an unbounded
    endpoint (-inf / +inf): for near-ties the conditional interval genuinely
    degenerates.

    Coverage is exact only when the candidates are Gaussian with known
    sigma.  Plugging in an estimated sd for non-Gaussian candidates is a
    heuristic: the `winner-np` study (bounded samples, pooled sd) measures
    about 0.894 coverage at n=100, theta=4, alpha=0.1, with the shortfall
    in the lower tail (truth below the interval).
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.size < 2:
        raise ValueError("need at least two candidates")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    winner = int(np.argmax(y))
    x = float(y[winner])
    lower = float(np.max(np.delete(y, winner)))

    def solve(target: float) -> float:
        lo, hi = x - 20.0 * sigma, x + 20.0 * sigma
        f_lo = _truncated_cdf(x, lo, sigma, lower)
        f_hi = _truncated_cdf(x, hi, sigma, lower)
        # The CDF decreases in mu.
        if f_lo < target:
            return -math.inf
        if f_hi > target:
            return math.inf
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                # lo and hi are adjacent floats: further halvings leave
                # 0.5 * (lo + hi) where it is.
                break
            if _truncated_cdf(x, mid, sigma, lower) >= target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return (solve(1.0 - alpha / 2.0), solve(alpha / 2.0))
