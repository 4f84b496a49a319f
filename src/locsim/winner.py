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
    _check_level,
    _check_samples,
    _check_scale,
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

    def __post_init__(self):
        if not self.margin >= 0:
            raise ValueError("the screening margin must be nonnegative")
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
        if not np.all(hw >= 0):
            raise ValueError("half widths must be nonnegative, not NaN")
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


def _finite_outcomes(y) -> np.ndarray:
    y = np.asarray(y, dtype=float).ravel()
    if y.size == 0 or not np.all(np.isfinite(y)):
        raise ValueError("y must be a nonempty finite vector")
    return y


@dataclass(frozen=True)
class WinnerProblem:
    y: np.ndarray
    noise: GaussianNoise
    budget: BudgetSplit

    def __post_init__(self):
        y = _finite_outcomes(self.y)
        if y.size != self.noise.dimension:
            raise ValueError("y and noise dimensions disagree")
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class FileDrawerProblem:
    y: np.ndarray
    threshold: float
    noise: GaussianNoise
    budget: BudgetSplit

    __post_init__ = WinnerProblem.__post_init__


class SampleMatrix:
    """n x m matrix of [0,1]-bounded samples (rows) per candidate (columns)."""

    def __init__(self, data):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError("sample matrix must be two-dimensional")
        if data.shape[0] < 2:
            raise ValueError("need at least 2 samples per candidate")
        _check_samples("samples", data, 0.0, 1.0)
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

# Screening margins in units of the nu-level quantile q_nu.
_WINNER_SLACK, _FILEDRAWER_SLACK = 4.0, 2.0


def _winner_mask(y, q_nu):
    """Winner screening along the last axis: within 4*q_nu of the maximum."""
    return y >= y.max(axis=-1, keepdims=True) - _WINNER_SLACK * q_nu


def _filedrawer_mask(y, threshold, q_nu):
    """File-drawer screening along the last axis: y >= T - 2*q_nu."""
    return y >= threshold - _FILEDRAWER_SLACK * q_nu


def plausible_winner_set(y, q_nu: float) -> PlausibleSet:
    """Candidates within 4*q_nu of the maximum.

    Always contains the argmax; ties at the maximum are all included and the
    realized selection is the lowest tied index.
    """
    y = _finite_outcomes(y)
    keep = np.flatnonzero(_winner_mask(y, q_nu))
    return PlausibleSet(keep, np.array([int(np.argmax(y))]), _WINNER_SLACK * q_nu)


def plausible_filedrawer_set(y, threshold: float, q_nu: float) -> PlausibleSet:
    """Candidates with y >= T - 2*q_nu; superset of the realized selection
    {y >= T}."""
    y = _finite_outcomes(y)
    keep = np.flatnonzero(_filedrawer_mask(y, threshold, q_nu))
    realized = np.flatnonzero(y >= threshold)
    return PlausibleSet(keep, realized, _FILEDRAWER_SLACK * q_nu)


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


def _parametric_correct(problem, plausible: PlausibleSet, rng: RngSpec,
                        n_draws: int) -> IntervalSet:
    """Correction step of both parametric problems: y_i +- q * sigma_i for each
    realized i, with q the max-z quantile over the plausible set at alpha - nu
    (not drawn for an empty selection)."""
    noise, budget, realized = problem.noise, problem.budget, plausible.realized
    q = (max_stat_quantile_mc(noise, plausible.indices, budget.inference_level,
                              rng.child(1), n_draws).value if realized.size else 0.0)
    return IntervalSet(realized, problem.y[realized], q * noise.marginal_scales[realized],
                       1.0 - budget.alpha)


def winner_interval(problem: WinnerProblem, rng: RngSpec,
                    n_draws: int = DEFAULT_DRAWS) -> IntervalSet:
    """Locally simultaneous interval for the mean of the winning candidate.

    Screens at nu over all m candidates, then corrects at alpha - nu using
    the covariance restricted to the plausible set.
    """
    q_nu = _screening_margin_quantile(problem.noise, problem.budget.nu, rng.child(0),
                                      n_draws)
    return _parametric_correct(problem, plausible_winner_set(problem.y, q_nu), rng,
                               n_draws)


def filedrawer_region(problem: FileDrawerProblem, rng: RngSpec,
                      n_draws: int = DEFAULT_DRAWS) -> IntervalSet:
    """Simultaneous intervals for every candidate above the threshold."""
    q_nu = _screening_margin_quantile(problem.noise, problem.budget.nu, rng.child(0),
                                      n_draws)
    plausible = plausible_filedrawer_set(problem.y, problem.threshold, q_nu)
    return _parametric_correct(problem, plausible, rng, n_draws)


# ---------------------------------------------------------------------------
# Nonparametric intervals for bounded samples
# ---------------------------------------------------------------------------

_WIDTH_FNS = {"hoeffding": hoeffding_width, "bentkus": bentkus_width}


def _np_margin(n: int, m: int, budget: BudgetSplit, bound_kind: str) -> float:
    """Screening quantile of m means of n bounded samples each."""
    try:
        width_fn = _WIDTH_FNS[bound_kind]
    except KeyError:
        raise ValueError(f"unknown bound_kind {bound_kind!r}") from None
    return width_fn(n, budget.nu / m)


def _hoeffding_ci(x, alpha):
    """Hoeffding interval around the sample mean; like ``betting_ci``,
    ``alpha`` is one level or a sequence of levels."""
    mean = float(x.mean())
    w = (hoeffding_width(x.size, alpha) if np.ndim(alpha) == 0
         else np.array([hoeffding_width(x.size, a) for a in alpha]))
    return mean - w, mean + w


_CI_FNS = {"hoeffding": _hoeffding_ci, "betting": betting_ci}


def _np_correct(samples: SampleMatrix, plausible: PlausibleSet, budget: BudgetSplit,
                ci_kind: str) -> IntervalSet:
    """Correction step of both nonparametric problems: each realized column's
    interval at the Bonferroni level (alpha - nu) / |plausible set|."""
    try:
        ci_fn = _CI_FNS[ci_kind]
    except KeyError:
        raise ValueError(f"unknown ci_kind {ci_kind!r}") from None
    lo, hi = np.array([ci_fn(samples.data[:, col], budget.inference_level / plausible.size)
                       for col in plausible.realized]).reshape(-1, 2).T
    return IntervalSet(plausible.realized, (lo + hi) / 2.0, (hi - lo) / 2.0,
                       1.0 - budget.alpha)


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
    margin = _np_margin(samples.n, samples.m, budget, bound_kind)
    plausible = plausible_winner_set(samples.column_means(), margin)
    return _np_correct(samples, plausible, budget, ci_kind)


def np_filedrawer_region(samples: SampleMatrix, threshold: float,
                         budget: BudgetSplit, bound_kind: str = "bentkus",
                         ci_kind: str = "betting") -> IntervalSet:
    """Nonparametric intervals for every column mean above the threshold."""
    if not isinstance(samples, SampleMatrix):
        samples = SampleMatrix(samples)
    margin = _np_margin(samples.n, samples.m, budget, bound_kind)
    plausible = plausible_filedrawer_set(samples.column_means(), threshold, margin)
    return _np_correct(samples, plausible, budget, ci_kind)


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
    y = _finite_outcomes(y)
    if y.size != 2:
        raise ValueError("exactly two candidates required")
    _check_scale("sigma", sigma)
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

def _truncated_cdf(x, mu, sigma, lower):
    """P(X <= x | X >= lower) for X ~ N(mu, sigma^2), in log space, element-wise."""
    # Log survival ratio S(zx)/S(za), each term as log S(z) = log_ndtr(-z).
    r = np.minimum(log_ndtr((mu - x) / sigma) - log_ndtr((mu - lower) / sigma), 0.0)
    # The C library's expm1 per element: numpy's vectorized expm1 can differ
    # from it in the last bit, and that moves an endpoint.
    return -np.fromiter(map(math.expm1, r.ravel().tolist()), float, r.size).reshape(r.shape)


def conditional_winner_interval(y, sigma, alpha: float):
    """Truncated-Gaussian conditional interval for the winner's mean
    (iid N(mu, sigma^2 I) model).

    ``y`` is one outcome of shape (m,), or a batch of shape (trials, m) with
    ``sigma`` a scalar or one value per row; the interval is computed along
    the last axis.  A single outcome returns two floats (lower, upper); a
    batch returns two arrays of shape (trials,).

    Conditional on the selection, the winning observation is Gaussian
    truncated to [runner-up, inf).  Endpoints are the mu values at which the
    truncated CDF of the observed winner equals 1 - alpha/2 and alpha/2,
    found by bisection over mu in [y_max - 20 sigma, y_max + 20 sigma].
    A solution falling outside the bracket is reported as an unbounded
    endpoint (-inf / +inf).  The bracket, not the interval, is at fault:
    a runner-up within about 0.15 sigma of the winner gives a -inf lower
    end, and a closer one can put both ends at -inf, whose width is nan and
    is left out of the runners' width quantiles.  The exact interval is
    finite for every gap > 0 (ROADMAP item 2).

    Coverage is exact only when the candidates are Gaussian with known
    sigma.  Plugging in an estimated sd for non-Gaussian candidates is a
    heuristic: the `winner-np` study (bounded samples, pooled sd) measures
    about 0.894 coverage at n=100, theta=4, alpha=0.1, with the shortfall
    in the lower tail (truth below the interval).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] < 2 or not np.all(np.isfinite(y)):
        raise ValueError("y must be finite, of shape (m,) or (trials, m) with m >= 2")
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), y.shape[:-1])
    if not np.all((0.0 < sigma) & (sigma < np.inf)):
        raise ValueError("sigma must be positive and finite")
    _check_level("alpha", alpha)
    top2 = np.partition(y, -2, axis=-1)
    lower, x = top2[..., -2], top2[..., -1]
    # Both endpoints at once, on a leading axis; the CDF decreases in mu.
    target = np.array([1.0 - alpha / 2.0, alpha / 2.0]).reshape((2,) + (1,) * x.ndim)
    lo, hi = x - 20.0 * sigma, x + 20.0 * sigma
    f_lo, f_hi = _truncated_cdf(x, lo, sigma, lower), _truncated_cdf(x, hi, sigma, lower)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # A row is done once lo and hi are adjacent floats: 0.5 * (lo + hi)
        # then equals lo or hi, and further steps leave it there.
        if ((mid == lo) | (mid == hi)).all():
            break
        up = _truncated_cdf(x, mid, sigma, lower) >= target
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    ends = np.where(f_lo < target, -np.inf,
                    np.where(f_hi > target, np.inf, 0.5 * (lo + hi)))
    return ends[0][()], ends[1][()]
