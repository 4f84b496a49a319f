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

from .stats_core import (RngSpec, _check_at_least, _check_level, _check_samples,
                         _draw_stats, _read_csv)
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
    """n x |F| per-sample losses with entries in [-1, 1], n and |F| >= 1."""

    def __init__(self, losses, labels=None):
        losses = np.asarray(losses, dtype=float)
        if losses.ndim != 2:
            raise ValueError("loss matrix must be two-dimensional")
        for axis, what in enumerate(("samples", "hypotheses")):
            if losses.shape[axis] == 0:
                raise ValueError(f"loss matrix has no {what}")
        _check_samples("losses", losses, -1.0, 1.0)
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
    one row per sample.  Blank lines and ``#`` comments in the body are
    skipped."""
    header, losses = _read_csv(path, header_lines=1)
    return LossMatrix(losses, tuple(c.strip() for c in next(csv.reader(header))))


def rademacher_mc(losses, rng: RngSpec, n_draws: int = 2000) -> float:
    """Upper bound on the generalization gap of a finite class by
    Monte-Carlo Rademacher complexity.

    Estimates 2 E sup_f |n^{-1} sum_i sigma_i l(f, z_i)| over random signs
    and adds 3 MC standard errors, so the reported value stays an upper
    bound at the simulation confidence.
    """
    mat = (losses if isinstance(losses, LossMatrix) else LossMatrix(losses)).losses
    _check_at_least("n_draws", n_draws, 2)
    n, F = mat.shape
    gen = rng.generator()

    def draw(take):
        signs = gen.integers(0, 2, size=(take, n)) * 2.0 - 1.0
        return np.abs(signs @ mat).max(axis=1) / n

    # A row holds its n signs and its F products.
    stats = 2.0 * _draw_stats(n_draws, n + F, draw)
    return float(stats.mean() + 3.0 * stats.std(ddof=1) / math.sqrt(n_draws))


def plausible_hypotheses(losses: LossMatrix, gap_full: float, nu: float) -> np.ndarray:
    """Hypotheses whose empirical risk is within the screening slack of the
    minimum: slack = 4 * gap_full + 4 sqrt((2/n) log(1/nu))."""
    _check_at_least("gap_full", gap_full, 0)
    _check_level("nu", nu)
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
