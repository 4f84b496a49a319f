"""Small dense linear programs and polyhedral redundancy tests.

Polyhedra are closed regions {z : A z <= b}.

The solver is a dense two-phase Bland simplex that works on whole arrays: a
pivot is one rank-1 update of every row with a nonzero entry in the pivot
column, and the entering column is the first ``flatnonzero`` hit of the
reduced costs.  Only the ratio test walks rows one at a time.  It starts
from the slack basis; phase 1 runs only when the origin violates a row,
and then on one auxiliary column shared by every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "Polyhedron",
    "LpResult",
    "RedundancyResult",
    "LpError",
    "lp_maximize",
    "constraint_nonredundant",
]

_TOL = 1e-9


class LpError(RuntimeError):
    """Internal simplex failure (cycling guard or lost feasibility)."""


@dataclass(frozen=True)
class Polyhedron:
    """Closed region {z : A z <= b}."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        if A.shape[0] != b.shape[0]:
            raise ValueError("A and b row counts disagree")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("polyhedron rows must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return Polyhedron(np.vstack([self.A, other.A]), np.concatenate([self.b, other.b]))

    def contains(self, z) -> bool:
        """Whether A z <= b holds on every row, up to 1e-9."""
        return bool(np.all(self.A @ np.asarray(z, dtype=float) <= self.b + _TOL))

    @classmethod
    def box(cls, center, radius: float) -> "Polyhedron":
        """Axis-aligned box {z : |z_i - center_i| <= radius}."""
        center = np.asarray(center, dtype=float).ravel()
        n = center.size
        eye = np.eye(n)
        return cls(np.vstack([eye, -eye]),
                   np.concatenate([center + radius, -center + radius]))


@dataclass(frozen=True)
class LpResult:
    status: str  # optimal | unbounded | infeasible
    value: float
    witness: Optional[np.ndarray] = None


@dataclass(frozen=True)
class RedundancyResult:
    """Boolean-like answer to 'can this row be violated within the box?'."""

    nonredundant: bool
    intersection_feasible: bool = True

    def __bool__(self) -> bool:
        return self.nonredundant


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factor = tableau[:, col]
    rows = np.flatnonzero(factor != 0.0)
    rows = rows[rows != row]
    tableau[rows] -= factor[rows, None] * tableau[row]
    basis[row] = col


def _simplex_min(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> str:
    """Bland-rule simplex on an equality tableau [A | b] with rhs >= 0.

    Minimizes cost over x >= 0 given a starting basic feasible basis.
    Mutates tableau/basis in place; returns 'optimal' or 'unbounded'.
    """
    m, ncols = tableau.shape[0], tableau.shape[1] - 1
    max_iter = 2000 * (m + ncols)
    for _ in range(max_iter):
        # Reduced costs r_j = c_j - c_B^T B^{-1} A_j.
        cb = cost[basis]
        reduced = cost - cb @ tableau[:, :ncols]
        reduced[basis] = 0.0
        candidates = np.flatnonzero(reduced < -_TOL)
        if candidates.size == 0:
            return "optimal"
        entering = candidates[0]
        col = tableau[:, entering]
        best_ratio = np.inf
        leaving = -1
        # Sequential on purpose: a tie within _TOL depends on the row order.
        for r in np.flatnonzero(col > _TOL):
            ratio = tableau[r, -1] / col[r]
            if ratio < best_ratio - _TOL or (
                abs(ratio - best_ratio) <= _TOL
                and (leaving < 0 or basis[r] < basis[leaving])
            ):
                best_ratio = ratio
                leaving = r
        if leaving < 0:
            return "unbounded"
        _pivot(tableau, basis, leaving, entering)
    raise LpError("simplex iteration cap exceeded")


def lp_maximize(c, region: Polyhedron) -> LpResult:
    """Exact maximizer of c^T z over the region.

    Two-phase dense simplex with Bland's rule on the standard form
    A(u - v) + s - t = b with u, v, s, t >= 0: free variables are split into
    positive and negative parts, and the slacks s form the starting basis.
    When b >= 0 that basis is feasible and phase 1 is skipped.  Otherwise
    the single auxiliary variable t enters at the most violated row, which
    makes every right-hand side nonnegative, and phase 1 minimizes t
    (Chvatal, *Linear Programming*, 1983, ch. 3).
    """
    c = np.asarray(c, dtype=float).ravel()
    if c.shape[0] != region.dim:
        raise ValueError("objective dimension does not match the region")
    if not np.all(np.isfinite(c)):
        raise ValueError("objective must be finite")
    A, b = region.A, region.b
    k, n = A.shape
    if k == 0:
        if np.all(c == 0.0):
            return LpResult("optimal", 0.0, np.zeros(n))
        return LpResult("unbounded", np.inf)

    # Columns [u, v, s, t | rhs]; t is column `ncols`.
    ncols = 2 * n + k
    tableau = np.hstack([A, -A, np.eye(k), -np.ones((k, 1)), b[:, None]])
    basis = np.arange(2 * n, ncols)
    if b.min() < 0:
        _pivot(tableau, basis, int(np.argmin(b)), ncols)
        cost1 = np.zeros(ncols + 1)
        cost1[ncols] = 1.0  # minimize t
        if _simplex_min(tableau, basis, cost1) != "optimal":
            raise LpError("phase 1 reported unbounded")
        for r in np.flatnonzero(basis == ncols):
            if tableau[r, -1] > 1e-7:
                return LpResult("infeasible", -np.inf)
            # t is basic at zero.  Row r of B^{-1} [A, -A, I] is nonzero,
            # as B^{-1} is nonsingular, so t leaves on its largest entry.
            _pivot(tableau, basis, r, int(np.argmax(np.abs(tableau[r, :ncols]))))

    # Phase 2 on the same rows, t's column deleted.
    tableau = np.delete(tableau, ncols, axis=1)
    cost2 = np.concatenate([-c, c, np.zeros(k)])  # minimize -c^T(u - v)
    status = _simplex_min(tableau, basis, cost2)
    x = np.zeros(ncols)
    x[basis] = tableau[:, -1]
    witness = x[:n] - x[n:2 * n]
    if status == "unbounded":
        return LpResult("unbounded", np.inf, witness)
    value = float(c @ witness)
    return LpResult("optimal", value, witness)


def constraint_nonredundant(region: Polyhedron, i: int, box: Polyhedron) -> RedundancyResult:
    """Is row i of the region active within the box?

    True iff the maximum of a_i^T z over (region with row i removed)
    intersected with the box exceeds b_i + 1e-9; an unbounded maximum counts
    as exceeding.  If the intersection is infeasible the row is reported
    redundant with the diagnostic flag cleared.
    """
    if not (0 <= i < region.n_rows):
        raise ValueError("row index out of range")
    relaxed = Polyhedron(np.vstack([np.delete(region.A, i, axis=0), box.A]),
                         np.concatenate([np.delete(region.b, i), box.b]))
    res = lp_maximize(region.A[i], relaxed)
    if res.status == "infeasible":
        return RedundancyResult(False, intersection_feasible=False)
    if res.status == "unbounded":
        return RedundancyResult(True)
    return RedundancyResult(bool(res.value > region.b[i] + _TOL))
