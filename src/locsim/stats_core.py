"""Gaussian sampling, Monte-Carlo quantiles of max statistics, and
nonparametric concentration widths.

Every quantile estimated by simulation uses the conservative order-statistic
rule: with N draws and target level 1-alpha, the reported quantile is the
order statistic of rank ceil((1-alpha)*(N+1)), which biases coverage upward.
In floating point the rank is the decimal formula's or one above, never below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import bdtr, ndtri

__all__ = [
    "RngSpec",
    "GaussianNoise",
    "QuantileEstimate",
    "CovarianceError",
    "normal_quantile",
    "max_abs_quantile_iid",
    "max_stat_quantile_mc",
    "contrast_quantile_mc",
    "hoeffding_width",
    "bentkus_width",
    "betting_ci",
    "betting_capital_peaks",
    "betting_interval_from_peaks",
    "conservative_rank",
    "conservative_quantile",
]

DEFAULT_DRAWS = 100_000
# The fewest draws max_stat_quantile_mc and contrast_quantile_mc accept, and
# the least n_draws an experiment config may set.
MIN_DRAWS = 1000

# Reference error level used to size the betting-CI bets. Bets must not
# depend on the target alpha, otherwise nestedness of the intervals in
# alpha would be lost; only the capital threshold 1/alpha varies.
_BET_REFERENCE_ALPHA = 0.05
_BET_TRUNCATION = 0.5
_BETTING_GRID_STEP = 1e-3
# Rows per block of the betting profile: a grid value may drop out only at
# a block's end, so the block trades per-block overhead against capital
# computed past the drop.
_BETTING_BLOCK = 32
# A chunk of Monte-Carlo draws holds at most ``_CHUNK_FLOATS`` floats (1 MiB
# of float64), so its draw, product and reduction stay in L2 instead of
# streaming through main memory once per pass.  It holds at least
# ``_CHUNK_MIN_ROWS`` rows: each BLAS call packs its shared operand (the RBF
# factor, the contrast matrix, the loss matrix) once, and few-row chunks
# would re-pack a large operand for every few draws.
_CHUNK_FLOATS = 131_072
_CHUNK_MIN_ROWS = 128


# The argument rules, each written once.  Every rule negates a comparison,
# so a NaN, which compares False, fails it.

def _check_level(name: str, x) -> None:
    if not 0.0 < x < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {x}")


def _check_scale(name: str, x) -> None:
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x}")


def _check_at_least(name: str, x, floor) -> None:
    if not floor <= x < math.inf:
        raise ValueError(f"{name} must be at least {floor} and finite, got {x}")


def _check_samples(name: str, x: np.ndarray, low: float, high: float) -> None:
    # x is nonempty: min and max of an empty array raise.
    if not np.all(np.isfinite(x)) or x.min() < low or x.max() > high:
        raise ValueError(f"{name} must be finite and lie in [{low:g}, {high:g}]")


class CovarianceError(ValueError):
    """Covariance matrix is not usable (asymmetric, non-PSD, bad diagonal)."""


@dataclass(frozen=True)
class RngSpec:
    """Deterministic random stream: (seed, stream_id) fixes all draws.

    Distinct stream_ids behave as independent streams.  ``child(k)`` derives
    a further independent substream without touching seed or stream_id; the
    derivation is collision-free because the full path is kept as a tuple.
    """

    seed: int
    stream_id: int = 0
    path: tuple = ()

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not (0 <= int(self.stream_id) < 2**64):
            raise ValueError("stream_id must be a 64-bit unsigned integer")

    def generator(self) -> np.random.Generator:
        key = np.random.SeedSequence(
            int(self.seed), spawn_key=(int(self.stream_id),) + tuple(self.path)
        )
        return np.random.default_rng(key)

    def child(self, k: int) -> "RngSpec":
        return RngSpec(self.seed, self.stream_id, self.path + (int(k),))


@dataclass(frozen=True)
class QuantileEstimate:
    """Monte-Carlo quantile with its nominal level and a batched std error."""

    value: float
    alpha: float
    n_draws: int
    mc_std_err: float


class GaussianNoise:
    """Centered Gaussian noise N(0, Sigma) with a cached Cholesky factor.

    Sigma must be nonempty and symmetric (within 1e-10) with strictly
    positive diagonal.  If the factorization fails, a jitter of
    1e-10 * trace/m is added to the diagonal once; a second failure raises
    CovarianceError.  A diagonal Sigma skips LAPACK: its factor is
    diag(sqrt(diag)), and ``sample`` scales the same standard normal draws
    elementwise instead of multiplying by the factor, which gives the same
    bits as the matrix product (each entry is z * sigma plus exact zeros).
    """

    def __init__(self, covariance):
        cov = np.asarray(covariance, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise CovarianceError("covariance must be a square matrix")
        if cov.shape[0] == 0:
            raise CovarianceError("covariance must be nonempty")
        if not np.all(np.isfinite(cov)):
            raise CovarianceError("covariance has non-finite entries")
        diag = np.diag(cov)
        # No off-diagonal entry is nonzero; a diagonal matrix is symmetric.
        diagonal = np.count_nonzero(cov) == np.count_nonzero(diag)
        if not diagonal and np.max(np.abs(cov - cov.T)) > 1e-10:
            raise CovarianceError("covariance is not symmetric within 1e-10")
        if np.any(diag <= 0):
            raise CovarianceError("covariance diagonal must be strictly positive")
        m = cov.shape[0]
        try:
            factor = np.diag(np.sqrt(diag)) if diagonal else np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            jitter = 1e-10 * np.trace(cov) / m
            try:
                factor = np.linalg.cholesky(cov + jitter * np.eye(m))
            except np.linalg.LinAlgError as exc:
                raise CovarianceError("covariance is not PSD (jitter retry failed)") from exc
        self.covariance = cov
        self.dimension = m
        self.factor = factor
        self.marginal_scales = np.sqrt(diag)
        self.diagonal = diagonal

    @classmethod
    def iid(cls, dimension: int, sigma: float = 1.0) -> "GaussianNoise":
        if sigma <= 0:
            raise CovarianceError("sigma must be positive")
        return cls(sigma**2 * np.eye(dimension))

    def restrict(self, indices) -> "GaussianNoise":
        """Noise of the given coordinates; they must be distinct and lie in
        [0, dimension)."""
        idx = np.asarray(indices, dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= self.dimension):
            raise CovarianceError("restrict indices out of range")
        if np.unique(idx).size != idx.size:
            raise CovarianceError("restrict indices must be distinct")
        return GaussianNoise(self.covariance[np.ix_(idx, idx)])

    def sample(self, generator: np.random.Generator, n: int) -> np.ndarray:
        z = generator.standard_normal((n, self.dimension))
        if self.diagonal:
            z *= self.marginal_scales
            return z
        return z @ self.factor.T


# ---------------------------------------------------------------------------
# Normal quantile
# ---------------------------------------------------------------------------

def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF via ``scipy.special.ndtri``, within a few
    units in the last place.  Raises ValueError unless 0 < p < 1."""
    _check_level("p", p)
    return float(ndtri(p))


def max_abs_quantile_iid(m: int, alpha: float, sigma: float = 1.0) -> float:
    """1-alpha quantile of max_{i<=m} |Z_i| for iid N(0, sigma^2).

    Closed form: sigma * PhiInv((1 + (1-alpha)^(1/m)) / 2).
    """
    _check_at_least("m", m, 1)
    _check_level("alpha", alpha)
    _check_scale("sigma", sigma)
    return sigma * normal_quantile((1.0 + (1.0 - alpha) ** (1.0 / m)) / 2.0)


# ---------------------------------------------------------------------------
# Monte-Carlo quantiles
# ---------------------------------------------------------------------------

def conservative_rank(alpha: float, n: int) -> int:
    """1-based order-statistic rank ceil((1-alpha)*(n+1)), clipped to [1, n];
    ValueError unless n >= 1.

    The product is taken in floating point on the binary alpha: where the
    decimal product is whole, the rank can be one above it, never below
    (conservative_rank(0.95, 19) is 2, not ceil(0.05 * 20) = 1).
    """
    if n < 1:
        raise ValueError(f"need at least one draw, got {n}")
    r = math.ceil((1.0 - alpha) * (n + 1))
    return min(max(r, 1), n)


def conservative_quantile(stats: np.ndarray, alpha: float) -> float:
    """Upward-biased 1-alpha quantile of 1-d draws: the order statistic of
    rank conservative_rank(alpha, stats.size)."""
    rank = conservative_rank(alpha, stats.size)
    return float(np.partition(stats, rank - 1)[rank - 1])


def _batch_se(stats: np.ndarray, alpha: float, n_batches: int) -> float:
    # Contiguous batches in draw order give independent replicate quantiles.
    n = stats.size
    b = min(n_batches, n)
    size = n // b
    if size < 2 or b < 2:
        return float("nan")
    rank = conservative_rank(alpha, size)
    qs = np.partition(stats[:b * size].reshape(b, size), rank - 1, axis=1)[:, rank - 1]
    return float(qs.std(ddof=1) / math.sqrt(b))


def _mc_quantile_estimate(stats: np.ndarray, alpha: float, n_draws: int) -> QuantileEstimate:
    q = conservative_quantile(stats, alpha)
    se = _batch_se(stats, alpha, 20)
    return QuantileEstimate(q, alpha, n_draws, se)


def _draw_stats(n_draws: int, row_floats: int, draw) -> np.ndarray:
    """``n_draws`` Monte-Carlo statistics from ``draw(take)``, which returns
    the next ``take``, in chunks of as many rows as fit ``_CHUNK_FLOATS`` at
    ``row_floats`` floats a row, and never fewer than ``_CHUNK_MIN_ROWS``.
    A chunk holds one block of draws and whatever its caller computes from
    them; the float bound keeps that block in L2, and the row floor keeps a
    BLAS call from re-packing its shared operand for every few rows.
    Chunking cannot change the draws: each caller's generator fills in order
    and each statistic reads only its own row.  A BLAS product may still move
    a statistic's last bits with the row count, since it may block its sums
    differently; exact sums (0/1 losses, diagonal noise) do not.
    """
    rows = max(_CHUNK_MIN_ROWS, _CHUNK_FLOATS // row_floats)
    return np.concatenate([draw(min(rows, n_draws - start))
                           for start in range(0, n_draws, rows)])


def max_stat_quantile_mc(noise: GaussianNoise, subset, alpha: float,
                         rng: RngSpec, n_draws: int = DEFAULT_DRAWS) -> QuantileEstimate:
    """MC quantile of the maximal z-statistic max_{i in subset} |Z_i| / sigma_i.

    Z ~ N(0, Sigma) restricted to the subset; intervals on the original scale
    are recovered by multiplying back by the marginal scales.  The full set
    reuses ``noise`` and its factor; diagonal noise is scaled elementwise
    (see ``GaussianNoise``), with the same draws and the same bits as the
    product with its factor.  A row of draws counts one float per subset
    coordinate; correlated noise holds a second block of the same size, the
    normals times the factor.
    """
    idx = np.unique(np.asarray(subset, dtype=int))
    if idx.size == 0:
        raise ValueError("subset must be nonempty")
    if idx.min() < 0 or idx.max() >= noise.dimension:
        raise ValueError("subset indices out of range")
    _check_level("alpha", alpha)
    _check_at_least("n_draws", n_draws, MIN_DRAWS)
    sub = noise if idx.size == noise.dimension else noise.restrict(idx)
    scales = sub.marginal_scales
    gen = rng.generator()

    def draw(take):
        z = sub.sample(gen, take)
        np.abs(z, out=z)
        z /= scales
        return np.max(z, axis=1)

    return _mc_quantile_estimate(_draw_stats(n_draws, idx.size, draw), alpha, n_draws)


def contrast_quantile_mc(contrasts, noise_scale: float, alpha: float,
                         rng: RngSpec, n_draws: int = DEFAULT_DRAWS) -> QuantileEstimate:
    """MC quantile of sup_v |v^T Z| over a finite contrast set, Z ~ N(0, scale^2 I).

    A row of draws holds its n normals and its k products ``Z V^T``, whose
    absolute values are taken in place.
    """
    v = np.atleast_2d(np.asarray(contrasts, dtype=float))
    if v.size == 0:
        raise ValueError("contrast set must be nonempty")
    if not np.all(np.isfinite(v)):
        raise ValueError("contrasts must be finite")
    _check_scale("noise_scale", noise_scale)
    _check_level("alpha", alpha)
    _check_at_least("n_draws", n_draws, MIN_DRAWS)
    k, n = v.shape
    gen = rng.generator()

    def draw(take):
        z = noise_scale * gen.standard_normal((take, n))
        p = z @ v.T
        np.abs(p, out=p)
        return np.max(p, axis=1)

    return _mc_quantile_estimate(_draw_stats(n_draws, n + k, draw), alpha, n_draws)


# ---------------------------------------------------------------------------
# Concentration widths for [0, 1]-bounded samples
# ---------------------------------------------------------------------------

def hoeffding_width(n: int, alpha: float) -> float:
    """Two-sided Hoeffding half-width sqrt(log(2/alpha) / (2n)) for [0,1] data."""
    _check_at_least("n", n, 1)
    _check_level("alpha", alpha)
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def _bentkus_one_sided_tail(n: int, t: float) -> float:
    # Deviation-t tail for the worst-case mean 1/2 + t:
    # e * P(Bin(n, 1/2 + t) <= ceil(n/2)).  The ceiling makes the bound
    # (slightly) larger, hence the resulting width conservative.
    p = min(0.5 + t, 1.0)
    k = math.ceil(n / 2)
    return min(1.0, math.e * float(bdtr(k, n, p)))


def bentkus_width(n: int, alpha: float) -> float:
    """Two-sided Bentkus half-width for [0,1]-bounded samples.

    Smallest t such that e * P(Bin(n, 1/2 + t) <= ceil(n/2)) <= alpha/2;
    the two-sided width is the union of the two symmetric one-sided bounds
    at alpha/2.  Bisection to 1e-8.  Saturates at 0.5 when n is too small
    for the bound to certify any deviation (then the Hoeffding width is the
    better choice anyway); in the usual regime the value stays below
    1.5 * hoeffding_width(n, alpha).
    """
    _check_at_least("n", n, 1)
    _check_level("alpha", alpha)
    target = alpha / 2.0
    if _bentkus_one_sided_tail(n, 0.5) > target:
        return 0.5
    lo, hi = 0.0, 0.5  # the tail at 0 is 1: P(Bin(n, 1/2) <= ceil(n/2)) >= 1/2
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if _bentkus_one_sided_tail(n, mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def _betting_lambdas(x: np.ndarray) -> np.ndarray:
    """Predictable bet magnitudes from running mean/variance estimates."""
    n = x.size
    t = np.arange(1, n + 1)
    mu_hat = (0.5 + np.cumsum(x)) / (t + 1)
    var_terms = (x - mu_hat) ** 2
    sig_hat = (0.25 + np.cumsum(var_terms)) / (t + 1)
    # Bets are predictable: the estimate used at step t comes from steps < t.
    sig_prev = np.concatenate(([0.25], sig_hat[:-1]))
    lam = np.sqrt(2.0 * math.log(2.0 / _BET_REFERENCE_ALPHA) / (sig_prev * n))
    return lam


def betting_capital_peaks(samples, alpha_floor):
    """Running-maximum log capital of the hedged betting process at every
    grid mean in (0, 1), step 1e-3.

    The bets are predictable and do not depend on any error level, so one
    peak profile serves every alpha: a grid value survives level alpha iff
    its peak stays below log(1/alpha).  Returns (grid, peaks).

    The samples are walked in blocks of ``_BETTING_BLOCK`` rows.  A grid
    value whose peak has reached log(1/alpha_floor), ``alpha_floor`` in
    (0, 1), at the end of a block is dropped: its reported peak is the peak
    at the drop, which is >= log(1/alpha_floor), so it is rejected at every
    level >= alpha_floor.  Every other peak equals the full-sample peak bit
    for bit, so intervals at levels >= alpha_floor are those of the
    full-sample profile.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    _check_samples("samples", x, 0.0, 1.0)
    _check_level("alpha_floor", alpha_floor)
    threshold = math.log(1.0 / alpha_floor)
    grid = np.arange(_BETTING_GRID_STEP, 1.0, _BETTING_GRID_STEP)
    lam = _betting_lambdas(x)
    peaks = np.empty_like(grid)
    # The grid values not dropped yet, with their running peak and log
    # capital after the last block.
    live = np.arange(grid.size)
    peak = np.full(grid.size, -np.inf)
    carry_plus = carry_minus = np.zeros(grid.size)
    for start in range(0, x.size, _BETTING_BLOCK):
        rows = slice(start, start + _BETTING_BLOCK)
        g = grid[live]
        lam_plus = np.minimum(lam[rows, None], _BET_TRUNCATION / g)
        lam_minus = np.minimum(lam[rows, None], _BET_TRUNCATION / (1.0 - g))
        diff = x[rows, None] - g
        # The carried log capital is the cumsum's first row, so every sum is
        # accumulated in the same order as one cumsum over all samples.
        log_k_plus = np.cumsum(np.vstack((carry_plus, np.log1p(lam_plus * diff))),
                               axis=0)[1:]
        log_k_minus = np.cumsum(np.vstack((carry_minus, np.log1p(-lam_minus * diff))),
                                axis=0)[1:]
        log_capital = np.logaddexp(log_k_plus, log_k_minus) + math.log(0.5)
        peak = np.maximum(peak, log_capital.max(axis=0))
        carry_plus, carry_minus = log_k_plus[-1], log_k_minus[-1]
        drop = peak >= threshold
        peaks[live[drop]] = peak[drop]
        live, peak, carry_plus, carry_minus = (
            a[~drop] for a in (live, peak, carry_plus, carry_minus))
    peaks[live] = peak
    return grid, peaks


def betting_interval_from_peaks(grid, peaks, alpha: float, fallback: float):
    _check_level("alpha", alpha)
    alive = peaks < math.log(1.0 / alpha)
    if not np.any(alive):
        center = float(np.clip(fallback, 0.0, 1.0))
        return (center, center)
    lo = float(np.clip(grid[alive].min(), 0.0, 1.0))
    hi = float(np.clip(grid[alive].max(), 0.0, 1.0))
    return (lo, hi)


def betting_ci(samples, alpha):
    """Betting confidence interval for the mean of [0,1]-bounded samples.

    Hedged capital process with truncated predictable-mixture bets,
    evaluated on the grid (0, 1) with step 1e-3.  A grid value m survives
    while the running capital stays below 1/alpha; the interval is the
    convex hull of the survivors, clipped to [0,1].  The bets do not depend
    on alpha, so intervals are nested in alpha.

    ``alpha`` is one level, giving (lower, upper) as floats, or a sequence
    of levels, giving two arrays with one entry per level.  Every level must
    lie in (0, 1).  One capital profile serves every level, computed with
    the smallest level as ``betting_capital_peaks``' alpha_floor, so grid
    values stop being computed once rejected at that level; each entry
    equals the single-level call and the full-grid profile's interval.
    """
    levels = np.ravel(alpha).astype(float)
    if levels.size == 0:
        raise ValueError("alpha must hold at least one level")
    for level in levels:
        _check_level("alpha", level)
    x = np.asarray(samples, dtype=float).ravel()
    grid, peaks = betting_capital_peaks(x, alpha_floor=float(levels.min()))
    center = float(x.mean())
    if np.ndim(alpha) == 0:
        return betting_interval_from_peaks(grid, peaks, float(levels[0]), center)
    lo, hi = np.array([betting_interval_from_peaks(grid, peaks, float(a), center)
                       for a in levels]).T
    return lo, hi


# ---------------------------------------------------------------------------
# Data files
# ---------------------------------------------------------------------------

def _read_csv(path, header_lines: int = 0):
    """(first ``header_lines`` lines, float matrix of the rows after them) of
    a CSV file; blank lines and ``#`` comments among the rows are skipped."""
    with open(path) as fh:
        lines = fh.readlines()
    # loadtxt only warns on a file without data rows; say so plainly.
    if not any(line.split("#", 1)[0].strip() for line in lines[header_lines:]):
        raise ValueError(f"{path} has no sample rows")
    return lines[:header_lines], np.loadtxt(lines[header_lines:], delimiter=",", ndmin=2)
