"""Localized generalization bound for empirical risk minimizers over a
finite hypothesis class.

The full-class complexity buys a data-dependent set of near-minimizers;
the reported risk bound then pays only for the complexity of that set.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .stats_core import RngSpec, _chunk_sizes
from .theory_core import BudgetSplit

__all__ = [
    "LossMatrix",
    "LocalizedBound",
    "rademacher_mc",
    "plausible_hypotheses",
    "erm_risk_bound",
    "load_loss_matrix",
]


class LossMatrix:
    """n x |F| per-sample losses with entries in [-1, 1]."""

    def __init__(self, losses, labels=None):
        losses = np.asarray(losses, dtype=float)
        if losses.ndim != 2:
            raise ValueError("loss matrix must be two-dimensional")
        if not np.all(np.isfinite(losses)) or np.abs(losses).max(initial=0.0) > 1.0:
            raise ValueError("losses must lie in [-1, 1]")
        if labels is None:
            labels = tuple(f"f{j}" for j in range(losses.shape[1]))
        labels = tuple(str(l) for l in labels)
        if len(labels) != losses.shape[1]:
            raise ValueError("one label per hypothesis required")
        self.losses = losses
        self.labels = labels

    @property
    def n(self) -> int:
        return self.losses.shape[0]

    @property
    def n_hypotheses(self) -> int:
        return self.losses.shape[1]

    def empirical_risks(self) -> np.ndarray:
        return self.losses.mean(axis=0)

    def restrict(self, subset) -> "LossMatrix":
        idx = np.asarray(subset, dtype=int)
        return LossMatrix(self.losses[:, idx], tuple(self.labels[i] for i in idx))


@dataclass(frozen=True)
class LocalizedBound:
    """ERM risk bound with full-class and localized complexity terms."""

    erm_index: int
    erm_risk: float
    gap_full: float
    gap_local: float
    plausible_count: int
    bound: float
    budget: BudgetSplit

    def __post_init__(self):
        if self.gap_local > self.gap_full:
            raise ValueError("localized gap cannot exceed the full-class gap")


def load_loss_matrix(path) -> LossMatrix:
    """Read a loss matrix from CSV: header row of hypothesis labels, then
    one row per sample."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if len(rows) < 2:
        raise ValueError("loss CSV needs a header row and at least one sample row")
    labels = tuple(c.strip() for c in rows[0])
    data = np.array([[float(c) for c in row] for row in rows[1:]])
    return LossMatrix(data, labels)


def rademacher_mc(losses, rng: RngSpec, n_draws: int = 2000) -> float:
    """Upper bound on the generalization gap of a finite class by
    Monte-Carlo Rademacher complexity.

    Estimates 2 E sup_f |n^{-1} sum_i sigma_i l(f, z_i)| over random signs
    and adds 3 MC standard errors, so the reported value stays an upper
    bound at the simulation confidence.
    """
    mat = losses.losses if isinstance(losses, LossMatrix) else np.asarray(losses, dtype=float)
    if mat.ndim != 2 or mat.shape[1] == 0:
        raise ValueError("need a nonempty hypothesis subset")
    n = mat.shape[0]
    gen = rng.generator()
    sups = np.empty(n_draws)
    pos = 0
    for take in _chunk_sizes(n_draws, mat.size, 2_000_000):
        signs = gen.integers(0, 2, size=(take, n)) * 2.0 - 1.0
        sups[pos:pos + take] = np.abs(signs @ mat).max(axis=1) / n
        pos += take
    stats = 2.0 * sups
    return float(stats.mean() + 3.0 * stats.std(ddof=1) / math.sqrt(n_draws))


def plausible_hypotheses(losses: LossMatrix, gap_full: float, nu: float) -> np.ndarray:
    """Hypotheses whose empirical risk is within the screening slack of the
    minimum: slack = 4 * gap_full + 4 sqrt((2/n) log(1/nu))."""
    if gap_full < 0:
        raise ValueError("gap_full must be nonnegative")
    if not (0.0 < nu < 1.0):
        raise ValueError("nu must lie in (0, 1)")
    risks = losses.empirical_risks()
    slack = 4.0 * gap_full + 4.0 * math.sqrt((2.0 / losses.n) * math.log(1.0 / nu))
    return np.flatnonzero(risks <= risks.min() + slack)


def erm_risk_bound(losses: LossMatrix, budget: BudgetSplit, rng: RngSpec,
                   n_draws: int = 2000) -> LocalizedBound:
    """Localized population-risk bound for the empirical risk minimizer.

    bound = R_n(f_hat) + gap(plausible set) + sqrt((2/n) log(1/(alpha-nu))).
    When screening keeps every hypothesis the plausible set is the class and
    its gap is ``gap_full``.  Otherwise a second Monte-Carlo pass estimates
    the subset's gap on the same sign draws, which makes it never exceed the
    full gap draw by draw; it is additionally clamped since either estimate
    upper-bounds the localized complexity.
    """
    risks = losses.empirical_risks()
    erm = int(np.argmin(risks))
    gap_full = rademacher_mc(losses, rng.child(0), n_draws)
    keep = plausible_hypotheses(losses, gap_full, budget.nu)
    if keep.size == losses.n_hypotheses:
        gap_local = gap_full
    else:
        gap_local = min(rademacher_mc(losses.restrict(keep), rng.child(0), n_draws),
                        gap_full)
    dev = math.sqrt((2.0 / losses.n) * math.log(1.0 / budget.inference_level))
    bound = float(risks[erm] + gap_local + dev)
    return LocalizedBound(erm, float(risks[erm]), gap_full, gap_local,
                          int(keep.size), bound, budget)
