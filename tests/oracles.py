"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the code paths they check: the normal quantile
oracle integrates the density and bisects, the LP oracle enumerates
vertices, the LASSO grid oracle re-solves the program by proximal gradient
over a sweep of the sufficient-statistic box, and the closed-form safe
rules compute the pair's local solution and correlations directly instead
of reading the selection event.  The conditional-interval
oracle is the one-outcome-at-a-time bisection that the batched
``conditional_winner_interval`` replaced; the batch must match it bit for
bit.  The betting oracle is the full-grid capital profile that the
early-exit ``betting_capital_peaks`` replaced: every peak the early exit
keeps must match it bit for bit.  The Bentkus oracle bisects on
``scipy.stats.binom.cdf`` where the library calls ``scipy.special.bdtr``,
and the two-pass ERM oracle estimates the plausible set's gap by a second
Monte-Carlo pass even when the set is the whole class.  The dense max-stat
oracle restricts the noise on every call, full set included, and draws
through the product with the factor even when the noise is diagonal; the
library's full-set reuse and elementwise scaling must match it bit for bit.
The loop simplex is the dense Bland simplex with Python loops over rows and
columns that the array-wise ``lp_maximize`` replaced: status, value and
witness must match it bit for bit.  The sorted lower quantile is the
``floor(tau * (N + 1))`` rank rule that ``s_tau`` took before it read its
quantile from ``conservative_quantile``.
"""

import math
from itertools import combinations

import numpy as np
from scipy.integrate import quad
from scipy.special import log_ndtr
from scipy.stats import binom

from locsim.erm import LocalizedBound, plausible_hypotheses, rademacher_mc
from locsim.lp import LpError, LpResult
from locsim.stats_core import (
    _BET_TRUNCATION,
    _BETTING_GRID_STEP,
    _betting_lambdas,
    _chunk_sizes,
    _mc_quantile_estimate,
)


def normal_cdf_quad(x: float) -> float:
    """Standard normal CDF by numerical quadrature of the density."""
    if x < 0:
        return 1.0 - normal_cdf_quad(-x)
    val, _ = quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi), 0.0, x)
    return 0.5 + val


def phi_inv_bisect(p: float, tol: float = 1e-11) -> float:
    """Inverse normal CDF by bisection on the quadrature CDF."""
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if normal_cdf_quad(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def max_abs_quantile_bisect(m: int, alpha: float) -> float:
    """Solve P(max |Z_i| <= q)^... = (2 Phi(q) - 1)^m = 1 - alpha directly."""
    target = (1.0 - alpha) ** (1.0 / m)
    return phi_inv_bisect((1.0 + target) / 2.0)


def vertex_enumeration_max(c, A, b, tol: float = 1e-9):
    """Brute-force LP maximum over {A z <= b} by enumerating basic vertices.

    Only meaningful when the feasible set is bounded with at least one
    vertex (fixtures append a box).  Returns -inf when no feasible vertex
    exists.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    k, n = A.shape
    best = -np.inf
    for rows in combinations(range(k), n):
        sub = A[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        v = np.linalg.solve(sub, b[list(rows)])
        if np.all(A @ v <= b + tol):
            best = max(best, float(c @ v))
    return best


def lasso_supports_ista(G, U, lam, max_iter=6000, tol=1e-11):
    """Supports of the LASSO solutions for every column of U (stacked
    sufficient statistics X^T y'), by proximal gradient with step 1/L.

    Vectorized over points; iterates until the largest coordinate change
    stalls below tol (checked every 50 iterations).
    """
    G = np.asarray(G, dtype=float)
    U = np.asarray(U, dtype=float)
    L = float(np.linalg.eigvalsh(G)[-1])
    B = np.zeros_like(U)
    thresh = lam / L
    for it in range(max_iter):
        grad = B + (U - G @ B) / L
        new = np.sign(grad) * np.maximum(np.abs(grad) - thresh, 0.0)
        if it % 50 == 49 and np.max(np.abs(new - B)) < tol:
            B = new
            break
        B = new
    supports = set()
    for col in range(U.shape[1]):
        supports.add(tuple(np.flatnonzero(np.abs(B[:, col]) > 0.0).tolist()))
    return supports


def box_grid(center, radius, steps):
    """Full grid over an axis-aligned box, as a (d, steps^d) array."""
    center = np.asarray(center, dtype=float)
    axes = [center[i] + np.linspace(-radius, radius, steps) for i in range(center.size)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh])


def grid_lasso_models(design, y, lam, s_nu, steps=200, extra_random=0, seed=0):
    """Grid-sweep oracle for the plausible-model set.

    Sweeps the sufficient-statistic box around X^T y (full grid of the given
    resolution, optionally plus uniform random points) and records the LASSO
    support at every point.
    """
    G = design.XtX
    u0 = design.X.T @ np.asarray(y, dtype=float)
    pts = box_grid(u0, s_nu, steps)
    if extra_random:
        gen = np.random.default_rng(seed)
        rand = u0[:, None] + gen.uniform(-s_nu, s_nu, size=(u0.size, extra_random))
        pts = np.hstack([pts, rand])
    return lasso_supports_ista(G, pts, lam)


def safe_screening_closed_form(design, y, pair, lam, s_nu):
    """(safe_in, safe_out) from the pair's local solution at u = X^T y.

    beta = (X_M^T X_M)^{-1} (u_M - lam s) and the inactive correlations
    u_Mc - X_Mc^T X_M beta move by at most s_nu times the l1 norms of the
    corresponding rows within the box: an active variable is safe when
    |beta_j| stays above that, an inactive one when |corr_j| stays below
    lam by more than that.
    """
    M = list(pair.M)
    Mc = [j for j in range(design.d) if j not in pair.M]
    u = design.X.T @ np.asarray(y, dtype=float)
    inv = design.gram_inverse(pair.M)
    g_cross = design.XtX[np.ix_(Mc, M)]
    beta_loc = inv @ (u[M] - lam * np.asarray(pair.s, dtype=float))
    corr = u[Mc] - g_cross @ beta_loc
    inv_l1 = np.abs(inv).sum(axis=1)
    cross_l1 = np.abs(g_cross @ inv).sum(axis=1)
    safe_in = {M[k] for k in np.flatnonzero(np.abs(beta_loc) > s_nu * inv_l1)}
    safe_out = {Mc[k] for k in np.flatnonzero(np.abs(corr) < lam - s_nu * (1.0 + cross_l1))}
    return safe_in, safe_out


def exact_rademacher_mean_abs(n: int) -> float:
    """E |n^{-1} sum sigma_i| for iid signs, by the binomial closed form."""
    return sum(math.comb(n, k) * abs(2 * k - n) for k in range(n + 1)) / (2.0**n * n)


def binomial_se(p: float, trials: int) -> float:
    return math.sqrt(p * (1.0 - p) / trials)


def truncated_cdf_scalar(x: float, mu: float, sigma: float, lower: float) -> float:
    """P(X <= x | X >= lower) for X ~ N(mu, sigma^2), in log space."""
    zx = (x - mu) / sigma
    za = (lower - mu) / sigma
    # Survival ratio S(zx)/S(za) via log-normal-survival differences.
    log_ratio = log_ndtr(-zx) - log_ndtr(-za)
    return float(-math.expm1(min(log_ratio, 0.0)))


def conditional_winner_interval_scalar(y, sigma: float, alpha: float):
    """One outcome at a time: the scalar bisection that the batched
    ``locsim.winner.conditional_winner_interval`` must match bit for bit."""
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
        f_lo = truncated_cdf_scalar(x, lo, sigma, lower)
        f_hi = truncated_cdf_scalar(x, hi, sigma, lower)
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
            if truncated_cdf_scalar(x, mid, sigma, lower) >= target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return (solve(1.0 - alpha / 2.0), solve(alpha / 2.0))


def betting_capital_peaks_full(samples):
    """Running-maximum log capital of the hedged betting process at every
    grid mean in (0, 1), step 1e-3, over every sample and every grid value:
    one cumsum over the whole (n, grid) table.  Returns (grid, peaks)."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    if not np.all(np.isfinite(x)) or x.min() < 0.0 or x.max() > 1.0:
        raise ValueError("samples must lie in [0, 1]")
    grid = np.arange(_BETTING_GRID_STEP, 1.0, _BETTING_GRID_STEP)
    lam = _betting_lambdas(x)
    lam_plus = np.minimum(lam[:, None], _BET_TRUNCATION / grid[None, :])
    lam_minus = np.minimum(lam[:, None], _BET_TRUNCATION / (1.0 - grid[None, :]))
    diff = x[:, None] - grid[None, :]
    log_k_plus = np.cumsum(np.log1p(lam_plus * diff), axis=0)
    log_k_minus = np.cumsum(np.log1p(-lam_minus * diff), axis=0)
    log_capital = np.logaddexp(log_k_plus, log_k_minus) + math.log(0.5)
    return grid, log_capital.max(axis=0)


def bentkus_width_binom(n: int, alpha: float) -> float:
    """Two-sided Bentkus half-width, bisecting on ``scipy.stats.binom.cdf``."""
    def tail(t):
        return min(1.0, math.e * float(binom.cdf(math.ceil(n / 2), n, min(0.5 + t, 1.0))))

    target = alpha / 2.0
    if tail(0.5) > target:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if tail(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def erm_risk_bound_two_pass(losses, budget, rng, n_draws=2000):
    """ERM risk bound whose localized gap always comes from a second
    Monte-Carlo pass over the plausible columns, on the same sign draws."""
    risks = losses.empirical_risks()
    erm = int(np.argmin(risks))
    gap_full = rademacher_mc(losses, rng.child(0), n_draws)
    keep = plausible_hypotheses(losses, gap_full, budget.nu)
    gap_local = rademacher_mc(losses.restrict(keep), rng.child(0), n_draws)
    gap_local = min(gap_local, gap_full)
    dev = math.sqrt((2.0 / losses.n) * math.log(1.0 / budget.inference_level))
    bound = float(risks[erm] + gap_local + dev)
    return LocalizedBound(erm, float(risks[erm]), gap_full, gap_local,
                          int(keep.size), bound, budget)


def max_stat_quantile_mc_dense(noise, subset, alpha, rng, n_draws):
    """MC quantile of max_{i in subset} |Z_i| / sigma_i that restricts the
    noise on every call and draws ``standard_normal @ factor.T``."""
    idx = np.asarray(sorted(set(int(i) for i in np.asarray(subset, dtype=int).ravel())))
    sub = noise.restrict(idx)
    gen = rng.generator()
    stats = np.empty(n_draws)
    pos = 0
    for take in _chunk_sizes(n_draws, idx.size):
        z = gen.standard_normal((take, idx.size)) @ sub.factor.T
        stats[pos:pos + take] = np.max(np.abs(z) / sub.marginal_scales, axis=1)
        pos += take
    return _mc_quantile_estimate(stats, alpha, n_draws)


_LP_TOL = 1e-9


def _pivot_loops(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    piv = tableau[row]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * piv
    basis[row] = col


def _simplex_min_loops(tableau, basis, cost, tol=_LP_TOL):
    m, ncols = tableau.shape[0], tableau.shape[1] - 1
    for _ in range(2000 * (m + ncols)):
        cb = cost[basis]
        reduced = cost - cb @ tableau[:, :ncols]
        reduced[basis] = 0.0
        entering = -1
        for j in range(ncols):
            if reduced[j] < -tol:
                entering = j
                break
        if entering < 0:
            return "optimal"
        col = tableau[:, entering]
        best_ratio = np.inf
        leaving = -1
        for r in range(m):
            if col[r] > tol:
                ratio = tableau[r, -1] / col[r]
                if ratio < best_ratio - tol or (
                    abs(ratio - best_ratio) <= tol
                    and (leaving < 0 or basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            return "unbounded"
        _pivot_loops(tableau, basis, leaving, entering)
    raise LpError("simplex iteration cap exceeded")


def lp_maximize_loops(c, region):
    """Two-phase dense Bland simplex, one row and one column at a time, with
    the phase-1 drive-out that zeroes a row it cannot pivot on."""
    c = np.asarray(c, dtype=float).ravel()
    A, b = region.A, region.b
    k, n = A.shape
    if k == 0:
        if np.all(c == 0.0):
            return LpResult("optimal", 0.0, np.zeros(n))
        return LpResult("unbounded", np.inf)
    ncols = 2 * n + k
    body = np.hstack([A, -A, np.eye(k)])
    rhs = b.copy()
    neg = rhs < 0
    body[neg] *= -1.0
    rhs[neg] *= -1.0
    tableau = np.hstack([body, np.eye(k), rhs[:, None]])
    basis = np.arange(ncols, ncols + k)
    cost1 = np.concatenate([np.zeros(ncols), np.ones(k)])
    if _simplex_min_loops(tableau, basis, cost1) != "optimal":
        raise LpError("phase 1 reported unbounded")
    if cost1[basis] @ tableau[:, -1] > 1e-7:
        return LpResult("infeasible", -np.inf)
    for r in range(k):
        if basis[r] >= ncols:
            pivot_col = -1
            for j in range(ncols):
                if abs(tableau[r, j]) > _LP_TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot_loops(tableau, basis, r, pivot_col)
            else:
                tableau[r, :] = 0.0
                basis[r] = ncols + r
    live = np.array([r for r in range(k) if basis[r] < ncols], dtype=int)
    tableau2 = tableau[live][:, list(range(ncols)) + [-1]]
    basis2 = basis[live].copy()
    cost2 = np.concatenate([-c, c, np.zeros(k)])
    status = _simplex_min_loops(tableau2, basis2, cost2)
    x = np.zeros(ncols)
    x[basis2] = tableau2[:, -1]
    witness = x[:n] - x[n:2 * n]
    if status == "unbounded":
        return LpResult("unbounded", np.inf, witness)
    return LpResult("optimal", float(c @ witness), witness)


def lower_quantile_sorted(draws, tau):
    """Downward-biased lower tau-quantile: the sorted draw of rank
    floor(tau * (N + 1)), clipped to [1, N]."""
    t = np.sort(np.asarray(draws, dtype=float))
    n = t.size
    rank = min(max(int(math.floor(tau * (n + 1))), 1), n)
    return float(t[rank - 1])
