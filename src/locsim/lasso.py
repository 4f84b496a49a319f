"""Post-LASSO locally simultaneous inference.

Pipeline: solve the LASSO at the observed outcome, represent its
model-sign selection event as a polyhedron, then flood-fill neighboring
model-sign regions until the sufficient-statistic box around X^T y is
tiled.  Simultaneous least-squares intervals are then corrected only over
the models discovered in the box.

Selection via the LASSO depends on y only through u = X^T y, so each pair
has one selection event, built in u-coordinates (dimension d instead of n).
The safe rules (each event row's maximum over the box) and the screening
LPs both read that event, and the quantile simulations work in the same
coordinates; the public outcome-space polyhedron is the event composed
with X^T.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .lp import Polyhedron, constraint_nonredundant
from .stats_core import DEFAULT_DRAWS, GaussianNoise, RngSpec, contrast_quantile_mc
from .theory_core import BudgetSplit
from .winner import IntervalSet

__all__ = [
    "Design",
    "ModelSignPair",
    "ModelFrontier",
    "DegeneracyError",
    "SolverError",
    "lasso_solve",
    "selection_polyhedron",
    "safe_screening",
    "exact_screening",
    "enumerate_plausible_models",
    "posi_intervals",
    "marginal_screening_plausible",
    "column_max_quantile",
    "projection_truth",
]

_RANK_TOL = 1e-8
_CD_TOL = 1e-10
_CD_MAX_SWEEPS = 100_000
_KKT_REL_TOL = 1e-6


class DegeneracyError(ValueError):
    """Rank-deficient submatrix where the selection event needs full rank."""


class SolverError(RuntimeError):
    """Coordinate descent failed to converge or violated its KKT check."""


@dataclass(frozen=True)
class ModelSignPair:
    """Canonical LASSO selection state: sorted support M and aligned signs."""

    M: tuple
    s: tuple

    def __post_init__(self):
        M = tuple(int(j) for j in self.M)
        s = tuple(int(v) for v in self.s)
        if len(M) != len(s):
            raise ValueError("signs must align with the support")
        if any(v not in (-1, 1) for v in s):
            raise ValueError("signs must be +-1")
        if any(M[i] >= M[i + 1] for i in range(len(M) - 1)):
            raise ValueError("support must be strictly increasing")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "s", s)

    def drop(self, j: int) -> "ModelSignPair":
        k = self.M.index(j)
        return ModelSignPair(self.M[:k] + self.M[k + 1:], self.s[:k] + self.s[k + 1:])

    def add(self, j: int, sign: int) -> "ModelSignPair":
        pos = 0
        while pos < len(self.M) and self.M[pos] < j:
            pos += 1
        return ModelSignPair(self.M[:pos] + (j,) + self.M[pos:],
                             self.s[:pos] + (sign,) + self.s[pos:])


@dataclass(frozen=True)
class ModelFrontier:
    """Outcome of the flood fill: its start (the pair the LASSO selects at
    y), visited pairs, cap flag, LPs run and checks the safe rules skipped."""

    start: ModelSignPair
    visited: frozenset
    capped: bool
    lp_count: int = 0
    safe_skips: int = 0


class Design:
    """Fixed design matrix with cached Gram data.

    Submatrices used for inference must have full column rank; this is
    checked (singular-value tolerance 1e-8) whenever a support's Gram
    inverse is built, and violations raise DegeneracyError.
    """

    def __init__(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("design must be a 2-d array")
        if not np.all(np.isfinite(X)):
            raise ValueError("design entries must be finite")
        self.X = X
        self.XtX = X.T @ X
        self._inverses = {}
        self._gram_factor = None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def gram_factor(self) -> np.ndarray:
        """Lower-triangular L with L L^T = X^T X (jitter retry on failure)."""
        if self._gram_factor is None:
            self._gram_factor = GaussianNoise(self.XtX).factor
        return self._gram_factor

    def gram_inverse(self, M) -> np.ndarray:
        """(X_M^T X_M)^{-1} for a support M (cached per support)."""
        M = tuple(int(j) for j in M)
        if M not in self._inverses:
            inv = np.zeros((0, 0))
            if M:
                G = self.XtX[np.ix_(M, M)]
                sv = np.sqrt(np.clip(np.linalg.eigvalsh(G), 0.0, None))
                if sv[0] <= _RANK_TOL * sv[-1] or sv[0] == 0.0:
                    raise DegeneracyError(f"rank-deficient submatrix for support {M}")
                inv = np.linalg.inv(G)
            self._inverses[M] = inv
        return self._inverses[M]


def _soft_threshold(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def lasso_solve(design: Design, y, lam: float):
    """Solve 0.5 ||y - X b||^2 + lam ||b||_1 by cyclic coordinate descent.

    Works on the sufficient statistics (X^T X, X^T y); converges when the
    largest coordinate update falls below 1e-10.  The returned support and
    signs are KKT-verified; a failed check raises SolverError.
    """
    if not 0.0 < lam < np.inf:
        raise ValueError("lambda must be finite and positive")
    y = np.asarray(y, dtype=float).ravel()
    if y.size != design.n:
        raise ValueError("y length does not match the design")
    G = design.XtX
    h = design.X.T @ y
    d = design.d
    beta = np.zeros(d)
    g_beta = np.zeros(d)  # G @ beta, maintained incrementally
    diag = np.diag(G)
    for _ in range(_CD_MAX_SWEEPS):
        delta_max = 0.0
        for j in range(d):
            if diag[j] <= 0.0:
                continue
            rho = h[j] - g_beta[j] + diag[j] * beta[j]
            new = _soft_threshold(rho, lam) / diag[j]
            if new != beta[j]:
                step = new - beta[j]
                g_beta += G[:, j] * step
                beta[j] = new
                delta_max = max(delta_max, abs(step))
        if delta_max < _CD_TOL:
            break
    else:
        raise SolverError(f"coordinate descent did not converge in {_CD_MAX_SWEEPS} sweeps")

    support = tuple(int(j) for j in np.flatnonzero(beta))
    signs = tuple(int(v) for v in np.sign(beta[list(support)]))
    pair = ModelSignPair(support, signs)
    design.gram_inverse(support)  # full-rank check on X_M

    grad = h - g_beta
    tol = _KKT_REL_TOL * max(1.0, lam)
    for j in range(d):
        if j in support:
            sj = signs[support.index(j)]
            if abs(grad[j] - lam * sj) > tol:
                raise SolverError(f"KKT stationarity failed at active coordinate {j}")
        elif abs(grad[j]) > lam * (1.0 + _KKT_REL_TOL):
            raise SolverError(f"KKT bound failed at inactive coordinate {j}")
    return beta, pair


# ---------------------------------------------------------------------------
# The selection event
# ---------------------------------------------------------------------------

def _selection_event(design: Design, pair: ModelSignPair, lam: float):
    """Selection event of a model-sign pair in u = X^T y coordinates.

    Returns (event, faces): the polyhedron {u : A u <= b} and, for each row,
    the pair across that face, tagged ("enter", j, sign) or ("leave", j).
    Row order: one (+) row per inactive variable ascending, then the (-)
    rows in the same order, then one row per active variable in support
    order.
    """
    if not 0.0 < lam < np.inf:
        raise ValueError("lambda must be finite and positive")
    M = list(pair.M)
    Mc = [j for j in range(design.d) if j not in pair.M]
    s = np.asarray(pair.s, dtype=float)
    inv = design.gram_inverse(pair.M)
    g_cross = design.XtX[np.ix_(Mc, M)]           # X_Mc^T X_M
    enter = np.zeros((len(Mc), design.d))
    enter[:, Mc] = np.eye(len(Mc)) / lam
    enter[:, M] = -(g_cross @ inv) / lam
    offset = 1.0 - g_cross @ (inv @ s)           # 1 - X_Mc^T (X_M^T)^+ s
    leave = np.zeros((len(M), design.d))
    leave[:, M] = -s[:, None] * inv
    event = Polyhedron(np.vstack([enter, -enter, leave]),
                       np.concatenate([offset, 2.0 - offset, -lam * s * (inv @ s)]))
    faces = ([("enter", j, +1) for j in Mc] + [("enter", j, -1) for j in Mc]
             + [("leave", j) for j in M])
    return event, faces


def selection_polyhedron(design: Design, pair: ModelSignPair, lam: float) -> Polyhedron:
    """Outcome-space polyhedron {y : the LASSO at y selects exactly (M, s)}.

    The selection event composed with X^T.  Row order: inactive variables
    ascending with their (+) rows, then their (-) rows in the same order,
    then one row per active variable in support order.  The region is
    returned closed; its boundary has measure zero.
    """
    event, _ = _selection_event(design, pair, lam)
    return Polyhedron(event.A @ design.X.T, event.b)


# ---------------------------------------------------------------------------
# Screening rules
# ---------------------------------------------------------------------------

def _box(design: Design, y, s_nu: float) -> Polyhedron:
    """The sufficient-statistic box {u : ||u - X^T y||_inf <= s_nu}."""
    if s_nu < 0:
        raise ValueError("s_nu must be nonnegative")
    return Polyhedron.box(design.X.T @ np.asarray(y, dtype=float), s_nu)


def safe_screening(design: Design, y, pair: ModelSignPair, lam: float, s_nu: float):
    """Sufficient screening of the pair's selection event over the box.

    Returns (safe_in, safe_out): active variables that cannot exit the model
    in any neighboring region within the box, and inactive variables that
    cannot enter.  A row a^T u <= b of the event is reached within the box
    when its maximum there, a^T X^T y + s_nu ||a||_1, is at least b; a
    variable is safe when none of its faces is reached.
    """
    if s_nu < 0:
        raise ValueError("s_nu must be nonnegative")
    u = design.X.T @ np.asarray(y, dtype=float)
    event, faces = _selection_event(design, pair, lam)
    reached = event.A @ u + s_nu * np.abs(event.A).sum(axis=1) >= event.b
    flips = {face[1] for face, hit in zip(faces, reached) if hit}
    return set(pair.M) - flips, set(range(design.d)) - set(pair.M) - flips


def _neighbors(design: Design, pair: ModelSignPair, lam: float, box: Polyhedron, safe,
               seen=frozenset()):
    """(neighbors, LPs run): the pairs across the faces of the pair's event
    that are active within the box, one LP per face not screened by the
    safe sets (safe_in, safe_out) and not leading to a pair in ``seen``."""
    safe_in, safe_out = safe
    event, faces = _selection_event(design, pair, lam)
    neighbors = set()
    n_lps = 0
    for i, face in enumerate(faces):
        if face[1] in (safe_out if face[0] == "enter" else safe_in):
            continue
        across = pair.add(face[1], face[2]) if face[0] == "enter" else pair.drop(face[1])
        if across in seen:
            continue
        n_lps += 1
        if constraint_nonredundant(event, i, box).nonredundant:
            neighbors.add(across)
    return neighbors, n_lps


def exact_screening(design: Design, y, pair: ModelSignPair, lam: float, s_nu: float):
    """Neighboring model-sign pairs reachable inside the box.

    Each constraint of the selection event is tested for redundancy within
    the event (that constraint removed) intersected with the box, one LP
    per test; an active constraint names the pair on the other side of its
    face.
    """
    return _neighbors(design, pair, lam, _box(design, y, s_nu), (set(), set()))[0]


# ---------------------------------------------------------------------------
# Plausible-model enumeration
# ---------------------------------------------------------------------------

def column_max_quantile(design: Design, sigma: float, alpha: float,
                        rng: RngSpec, n_draws: int = DEFAULT_DRAWS) -> float:
    """Quantile of max_j |X_j^T Z| for Z ~ N(0, sigma^2 I_n).

    Simulated in the d-dimensional sufficient-statistic coordinates: the
    vector X^T Z has covariance sigma^2 X^T X, so the rows of the Gram
    Cholesky factor are an exact contrast representation.
    """
    L = design.gram_factor()
    return contrast_quantile_mc(L, sigma, alpha, rng, n_draws).value


def _all_models(d: int):
    return set(chain.from_iterable(
        combinations(range(d), r) for r in range(d + 1)))


def enumerate_plausible_models(design: Design, y, lam: float, s_nu: float,
                               p_max: int = 2000, use_safe: bool = True):
    """Breadth-first flood fill of model-sign regions over the box
    {u : ||u - X^T y||_inf <= s_nu}.

    Returns (models, frontier).  models is the set of supports visited; if
    the number of visited plus queued pairs exceeds p_max the search stops,
    frontier.capped is set, and the sentinel set of all 2^d supports is
    returned so the caller falls back to the full simultaneous correction
    at level alpha - nu.

    s_nu is the box radius, usually 2 * column_max_quantile at level nu.
    With use_safe=True each pair's safe_screening sets skip the LPs of the
    faces they rule out.
    """
    box = _box(design, y, s_nu)
    _, start = lasso_solve(design, y, lam)
    todo = deque([start])
    seen = {start}
    visited = []
    lp_count = 0
    safe_skips = 0
    capped = False
    while todo:
        pair = todo.popleft()
        visited.append(pair)
        safe = safe_screening(design, y, pair, lam, s_nu) if use_safe else (set(), set())
        safe_skips += len(safe[0]) + len(safe[1])
        neighbors, n_lps = _neighbors(design, pair, lam, box, safe, seen)
        lp_count += n_lps
        for nb in sorted(neighbors, key=lambda p: (p.M, p.s)):
            seen.add(nb)
            todo.append(nb)
        if len(seen) > p_max:
            capped = True
            break
    frontier = ModelFrontier(start, frozenset(visited), capped, lp_count, safe_skips)
    if capped:
        if design.d > 16:
            raise ValueError("p_max exceeded with d too large to fall back on all subsets")
        return _all_models(design.d), frontier
    return {p.M for p in visited}, frontier


# ---------------------------------------------------------------------------
# Intervals over the plausible models
# ---------------------------------------------------------------------------

def posi_intervals(design: Design, y, selected: ModelSignPair, models,
                   budget: BudgetSplit, sigma: float, rng: RngSpec,
                   n_draws: int = DEFAULT_DRAWS) -> IntervalSet:
    """Simultaneous least-squares intervals for the selected model, corrected
    over every plausible (feature, model) projection target.

    Contrast set: e_{j.M}^T X_M^+ / sigma_hat_{j.M} over all plausible M and
    j in M; the interval half-width is q * sigma * sigma_hat_{j.Mhat} where
    q is the simulated sup-|contrast| quantile at level alpha - nu.
    """
    if not selected.M:
        return IntervalSet(np.array([], dtype=int), np.array([]), np.array([]),
                           1.0 - budget.alpha)
    L = design.gram_factor()
    reps = []
    # The realized model is always plausible.
    for M in sorted(set(tuple(m) for m in models) | {selected.M}):
        if not M:
            continue
        inv = design.gram_inverse(M)
        LM = L[list(M), :]
        block = inv @ LM                      # rows: contrasts in u-coordinates
        scales = np.sqrt(np.diag(inv))
        reps.append(block / scales[:, None])
    contrasts = np.vstack(reps)
    q = contrast_quantile_mc(contrasts, 1.0, budget.inference_level,
                             rng.child(1), n_draws).value
    M_hat = list(selected.M)
    inv = design.gram_inverse(selected.M)
    theta = inv @ (design.X[:, M_hat].T @ np.asarray(y, dtype=float))
    sig_hat = np.sqrt(np.diag(inv))
    halves = q * sigma * sig_hat
    return IntervalSet(np.array(M_hat), theta, halves, 1.0 - budget.alpha)


def projection_truth(design: Design, M, mu) -> np.ndarray:
    """Population projection coefficients X_M^+ mu for a fixed support."""
    M = list(M)
    inv = design.gram_inverse(M)
    return inv @ (design.X[:, M].T @ np.asarray(mu, dtype=float))


def marginal_screening_plausible(design: Design, y, k: int, s_nu: float) -> np.ndarray:
    """Candidate variables for top-k marginal screening under the box.

    Returns {i : |X_i^T y| >= c_(k) - 2 s_nu} where c_(k) is the k-th
    largest score; every k-subset of this set is a plausible model.
    """
    if not (1 <= k <= design.d):
        raise ValueError("k out of range")
    if s_nu < 0:
        raise ValueError("s_nu must be nonnegative")
    scores = np.abs(design.X.T @ np.asarray(y, dtype=float))
    kth = np.sort(scores)[::-1][k - 1]
    return np.flatnonzero(scores >= kth - 2.0 * s_nu)
