"""Small dense linear programs and polyhedral redundancy tests.

Polyhedra are stored as {z : A z <= b} with an optional per-row strictness
flag.  Strict rows are measure-zero boundaries; the solver always works with
the closure and callers handle strictness through epsilon margins.

The solver is a dense two-phase Bland simplex that works on whole arrays: a
pivot is one rank-1 update of every row with a nonzero entry in the pivot
column, and the entering column is the first ``flatnonzero`` hit of the
reduced costs.  Only the ratio test walks rows one at a time.
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
    """Region {z : A z < b on open rows, A z <= b elsewhere}."""

    A: np.ndarray
    b: np.ndarray
    open_row: np.ndarray = None

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        if A.shape[0] != b.shape[0]:
            raise ValueError("A and b row counts disagree")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("polyhedron rows must be finite")
        open_row = self.open_row
        if open_row is None:
            open_row = np.zeros(A.shape[0], dtype=bool)
        else:
            open_row = np.asarray(open_row, dtype=bool).ravel()
            if open_row.shape[0] != A.shape[0]:
                raise ValueError("open_row length must match the row count")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "open_row", open_row)

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return Polyhedron(
            np.vstack([self.A, other.A]),
            np.concatenate([self.b, other.b]),
            np.concatenate([self.open_row, other.open_row]),
        )

    def contains(self, z, tol: float = _TOL) -> bool:
        z = np.asarray(z, dtype=float)
        vals = self.A @ z
        closed_ok = vals <= self.b + tol
        strict_ok = vals < self.b - tol
        return bool(np.all(np.where(self.open_row, strict_ok, closed_ok)))

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
    """Exact maximizer of c^T z over the closure of the region.

    Two-phase dense simplex with Bland's rule.  Free variables are split
    into positive and negative parts; strict rows are treated as closed.
    """
    c = np.asarray(c, dtype=float).ravel()
    if c.shape[0] != region.dim:
        raise ValueError("objective dimension does not match the region")
    A, b = region.A, region.b
    k, n = A.shape
    if k == 0:
        if np.all(c == 0.0):
            return LpResult("optimal", 0.0, np.zeros(n))
        return LpResult("unbounded", np.inf)

    # Standard form: A(u - v) + s = b with u, v, s >= 0.
    ncols = 2 * n + k
    body = np.hstack([A, -A, np.eye(k)])
    rhs = b.copy()
    neg = rhs < 0
    body[neg] *= -1.0
    rhs[neg] *= -1.0

    # Phase 1: artificial variable per row.
    tableau = np.hstack([body, np.eye(k), rhs[:, None]])
    basis = np.arange(ncols, ncols + k)
    cost1 = np.concatenate([np.zeros(ncols), np.ones(k)])
    status = _simplex_min(tableau, basis, cost1)
    if status != "optimal":
        raise LpError("phase 1 reported unbounded")
    phase1_value = cost1[basis] @ tableau[:, -1]
    if phase1_value > 1e-7:
        return LpResult("infeasible", -np.inf)
    # Drive any remaining artificials out of the basis.  A row with no
    # structural entry is redundant: it keeps its artificial and phase 2
    # drops it.
    for r in np.flatnonzero(basis >= ncols):
        structural = np.flatnonzero(np.abs(tableau[r, :ncols]) > _TOL)
        if structural.size:
            _pivot(tableau, basis, r, structural[0])

    # Phase 2 on structural columns only.
    live = np.flatnonzero(basis < ncols)
    tableau2 = np.delete(tableau[live], np.s_[ncols:ncols + k], axis=1)
    basis2 = basis[live]
    cost2 = np.concatenate([-c, c, np.zeros(k)])  # minimize -c^T(u - v)
    status = _simplex_min(tableau2, basis2, cost2)
    x = np.zeros(ncols)
    x[basis2] = tableau2[:, -1]
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
