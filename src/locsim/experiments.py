"""Experiment grids, simulation scenario runners, and CSV reporting.

Each runner simulates a selection problem over a parameter grid, applies
the configured inference methods per trial, and aggregates interval widths
and coverage into ResultRow records.  All randomness derives from the
config seed through named substreams, so a (config, seed) pair pins the
statistical content of the output exactly, with one qualification: where
correlated (RBF) draws go through a matrix product, the bits are pinned
only for a fixed BLAS thread count.  Diagonal noise never touches BLAS.

Scenario notes
--------------
* winner / filedrawer grids: the mean profile has range C at the reference
  size m = 10; when m grows the same per-index formula is reused without
  rescaling, so extra candidates land far below the maximum.  The runners
  screen every trial of a cell at once with ``winner.py``'s own rules and
  keep only their quantile source for max |Z_i|/sigma_i, shared by
  screening, the local correction and the simultaneous baseline: the closed
  form for iid noise, and one shared table of standardized draws for RBF
  noise in place of the per-call Monte Carlo of ``winner_interval``.  One
  cache per cell, keyed by (level, mask), prices each distinct plausible
  mask once instead of once per trial.
  ``winner-np`` screens with ``plausible_winner_set`` and the library's
  nonparametric margin.
* winner-np: samples are signal_frac * mu01 + (1 - signal_frac) * xi with
  xi ~ Beta(a, b) iid, keeping everything inside [0, 1]; mu01 is the mean
  profile mapped affinely onto [0, 1].  The winner's local, simultaneous
  and nominal intervals come from one call of the library's CI (betting or
  Hoeffding, as ``np_winner_interval`` uses them) at the three levels.
* conditional baselines run only where defined: iid Gaussian winner
  problems and the two-candidate setting, where the truncated-Gaussian
  interval is exact.  The nonparametric runner adds a normal-approximation
  heuristic arm (the same interval with the pooled column sd plugged in for
  sigma) that carries no guarantee: it measures about 0.894 coverage at
  n=100, theta=4 against 0.9 nominal, short in the lower tail.  The
  conditional arm runs once per grid cell, on all of its trials at once.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .erm import LossMatrix, erm_risk_bound, load_loss_matrix
from .lasso import (
    Design,
    column_max_quantile,
    enumerate_plausible_models,
    posi_intervals,
    projection_truth,
)
from .sphere import SphereProblem, cap_quantile, sphere_interval
from .stats_core import (
    GaussianNoise,
    RngSpec,
    _read_csv,
    conservative_quantile,
    max_abs_quantile_iid,
    normal_quantile,
)
from .theory_core import BudgetSplit
from .winner import (
    _CI_FNS,
    _WIDTH_FNS,
    SampleMatrix,
    _filedrawer_mask,
    _np_margin,
    _winner_mask,
    conditional_winner_interval,
    np_filedrawer_region,
    np_winner_interval,
    plausible_winner_set,
    two_candidate_interval,
)

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "ConfigError",
    "generate_mu",
    "generate_mu_reference_scaled",
    "rbf_covariance",
    "run_experiment",
    "run_coverage",
    "write_csv",
    "read_csv",
    "load_config",
    "CSV_HEADER",
]

class ConfigError(ValueError):
    """Bad experiment configuration."""


@dataclass
class ExperimentConfig:
    kind: str = "winner"
    alpha: float = 0.1
    nu: float = None          # defaults to 0.1 * alpha
    trials: int = 100
    seed: int = 0
    out: str = None
    n_draws: int = 10_000
    # winner / filedrawer grids
    theta_grid: tuple = (0.5, 2.0, 4.0)
    c_grid: tuple = (10.0, 30.0)
    m_grid: tuple = (10, 100)
    cov_kinds: tuple = ("iid", "rbf")
    phi: float = 20.0
    threshold: float = -1.0
    # figure1
    delta_grid: tuple = tuple(float(v) for v in range(11))
    # nonparametric
    n_grid: tuple = (100, 1000)
    m: int = 50
    beta_a: float = 2.0
    beta_b: float = 5.0
    signal_frac: float = 0.9
    bound_kind: str = "bentkus"
    ci_kind: str = "betting"
    # lasso
    d: int = 8
    n: int = 200
    lambda0: float = 6.0
    sparsity: float = 0.5
    p_max: int = 2000
    sigma: float = 1.0
    # erm
    n_hypotheses: int = 50
    # sphere
    d_grid: tuple = (3, 5)
    mu_norm: float = 3.0
    # coverage dispatch and user data
    problem: str = "winner"
    data: str = None

    def budget(self) -> BudgetSplit:
        try:
            return (BudgetSplit.default(self.alpha) if self.nu is None
                    else BudgetSplit(self.alpha, self.nu))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def validate(self) -> "ExperimentConfig":
        runner = _resolve(self)
        if self.out is not None and (os.path.isdir(self.out)
                                     or not os.path.isdir(os.path.dirname(self.out) or ".")):
            raise ConfigError(f"out = {self.out!r} is a directory or has no directory")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.n_draws < 1000:
            raise ConfigError("n_draws must be >= 1000")
        if not self.phi > 0:
            raise ConfigError("phi must be positive")
        if runner is run_filedrawer and not math.isfinite(self.threshold):
            raise ConfigError(f"filedrawer needs a finite threshold, got {self.threshold!r}")
        for key, values, names in (("cov_kinds", self.cov_kinds, ("iid", "rbf")),
                                   ("bound_kind", (self.bound_kind,), _WIDTH_FNS),
                                   ("ci_kind", (self.ci_kind,), _CI_FNS)):
            for value in values:
                if value not in names:
                    raise ConfigError(f"unknown {key} entry {value!r} "
                                      f"(expected one of {', '.join(names)})")
        for key in ("m_grid", "n_grid", "d_grid"):
            for value in getattr(self, key):
                if not (isinstance(value, numbers.Real) and float(value).is_integer()
                        and value >= 1):
                    raise ConfigError(f"{key} entries must be positive whole numbers, "
                                      f"got {value!r}")
        self.budget()
        # Every mean profile the run will build, checked before any cell runs.
        if runner in (run_winner, run_filedrawer):
            for theta, C, m in itertools.product(self.theta_grid, self.c_grid,
                                                 self.m_grid):
                generate_mu_reference_scaled(int(m), float(theta), float(C))
        elif runner is run_winner_np:
            if any(n < 2 for n in self.n_grid):
                raise ConfigError("winner-np needs every n_grid entry >= 2, "
                                  f"got {self.n_grid!r}")
            for key in ("beta_a", "beta_b"):
                if not 0.0 < getattr(self, key) < math.inf:
                    raise ConfigError(f"winner-np needs a finite positive {key}, "
                                      f"got {getattr(self, key)!r}")
            if not 0.0 <= self.signal_frac <= 1.0:
                raise ConfigError("winner-np needs signal_frac in [0, 1], "
                                  f"got {self.signal_frac!r}")
            for theta in self.theta_grid:
                generate_mu(self.m, float(theta), 1.0)
        elif runner is run_lasso and not (self.d >= 1 and self.n >= 1
                                          and 0.0 <= self.sparsity <= 1.0
                                          and 0.0 < self.lambda0 < math.inf
                                          and 0.0 < self.sigma < math.inf):
            raise ConfigError("lasso needs d >= 1, n >= 1, sparsity in [0, 1] and finite "
                              f"positive lambda0 and sigma, got d = {self.d!r}, n = "
                              f"{self.n!r}, sparsity = {self.sparsity!r}, lambda0 = "
                              f"{self.lambda0!r}, sigma = {self.sigma!r}")
        elif runner is run_figure1 and not all(isinstance(v, numbers.Real)
                                               and math.isfinite(v) for v in self.delta_grid):
            raise ConfigError(f"delta_grid entries must be finite, got {self.delta_grid!r}")
        elif runner is run_sphere and any(d < 2 for d in self.d_grid):
            raise ConfigError(f"sphere needs every d_grid entry >= 2, got {self.d_grid!r}")
        elif self.kind == "filedrawer-np" and not 0.0 <= self.threshold <= 1.0:
            raise ConfigError("filedrawer-np needs --threshold in [0, 1], "
                              f"got {self.threshold!r}")
        return self


@dataclass(frozen=True)
class ResultRow:
    scenario: str
    method: str
    param_theta: float = None
    param_C: float = None
    param_m: int = None
    param_phi: float = None
    median_width: float = None
    q05_width: float = None
    q95_width: float = None
    coverage: float = None
    runtime_ms: int = 0

    def __post_init__(self):
        ok = [w for w in (self.q05_width, self.median_width, self.q95_width)
              if w is not None and not math.isnan(w)]
        if len(ok) == 3 and not (ok[0] <= ok[1] <= ok[2]):
            raise ValueError("width quantiles must be ordered q05 <= median <= q95")
        if self.coverage is not None and not math.isnan(self.coverage):
            if not (0.0 <= self.coverage <= 1.0):
                raise ValueError("coverage must lie in [0, 1]")


_ROW_FIELDS = fields(ResultRow)
CSV_HEADER = ",".join(f.name for f in _ROW_FIELDS)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return ""
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def write_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(",".join(_fmt(getattr(r, f.name)) for f in _ROW_FIELDS) + "\n")


# Cells parse by their ResultRow annotation; empty numeric cells keep the default.
_CELL_PARSERS = {"str": str, "float": float, "int": lambda v: int(float(v))}


def read_csv(path):
    """Round-trip reader for the documented schema."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER.split(","):
            raise ConfigError("unexpected CSV header")
        return [ResultRow(**{f.name: _CELL_PARSERS[f.type](rec[f.name])
                             for f in _ROW_FIELDS if rec[f.name] or f.type == "str"})
                for rec in reader]


# ---------------------------------------------------------------------------
# Config files: flat "key = value" lines
# ---------------------------------------------------------------------------

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_scalar(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_tuple(text: str) -> tuple:
    return tuple(_parse_scalar(v) for v in text.split(",") if v.strip())


# Values are parsed by their ExperimentConfig annotation (a string under
# ``from __future__ import annotations``).
_PARSERS = {"tuple": _parse_tuple, "str": str, "int": int, "float": float}


def load_config(path, base: ExperimentConfig = None) -> ExperimentConfig:
    """Parse a flat key=value config file ('#' starts a comment).

    LOCSIM_SEED in the environment overrides any configured seed.
    """
    cfg = base if base is not None else ExperimentConfig()
    updates = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            type_name = _FIELD_TYPES[key]
            try:
                updates[key] = _PARSERS[type_name](value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} expects a {type_name}, "
                                  f"got {value!r}") from None
    cfg = replace(cfg, **updates)
    return apply_env_seed(cfg)


def apply_env_seed(cfg: ExperimentConfig) -> ExperimentConfig:
    env = os.environ.get("LOCSIM_SEED")
    if env is not None:
        try:
            cfg = replace(cfg, seed=int(env))
        except ValueError:
            raise ConfigError(f"LOCSIM_SEED must be an integer, got {env!r}") from None
    return cfg


# ---------------------------------------------------------------------------
# Mean profiles and covariances
# ---------------------------------------------------------------------------

def generate_mu(m: int, theta: float, C: float) -> np.ndarray:
    """Mean profile -|i - (m+1)/2|^theta rescaled so max - min = C exactly."""
    return generate_mu_reference_scaled(m, theta, C, m_ref=m)


def generate_mu_reference_scaled(m: int, theta: float, C: float,
                                 m_ref: int = 10) -> np.ndarray:
    """Mean profile -|i - (m+1)/2|^theta scaled to range C at size m_ref.

    For m > m_ref the range exceeds C: the added candidates fall far below
    the maximum instead of compressing the profile.
    """
    if m < 2:
        raise ConfigError("m must be >= 2")
    if not (0.0 < theta < math.inf and 0.0 < C < math.inf):
        raise ConfigError(f"theta and C must be positive and finite, got {theta}, {C}")
    i_ref = np.arange(1, m_ref + 1, dtype=float)
    raw_ref = -np.abs(i_ref - 0.5 * (m_ref + 1)) ** theta
    spread = raw_ref.max() - raw_ref.min()
    if not 0.0 < spread < math.inf:
        raise ConfigError("degenerate mean profile (zero or overflowing range)")
    i = np.arange(1, m + 1, dtype=float)
    with np.errstate(over="ignore"):
        mu = -np.abs(i - 0.5 * (m + 1)) ** theta * (C / spread)
    if not np.all(np.isfinite(mu)):
        raise ConfigError(f"mean profile overflows at m={m}, theta={theta}, C={C}")
    return mu - mu.max()


def rbf_covariance(m: int, phi: float) -> np.ndarray:
    idx = np.arange(m, dtype=float)
    diff = idx[:, None] - idx[None, :]
    # np.square: a huge phi gives inf (all-ones covariance), not OverflowError.
    # A tiny phi underflows 2 phi^2 to 0: off the diagonal exp(-inf) = 0, and
    # on it 0/0, so the diagonal is set to its value at every other phi, 1.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cov = np.exp(-(diff**2) / (2.0 * np.square(phi)))
    np.fill_diagonal(cov, 1.0)
    return cov


# ---------------------------------------------------------------------------
# Shared helpers for the simulation runners
# ---------------------------------------------------------------------------

def _width_row(scenario, method, widths, covered, runtime_ms, **params) -> ResultRow:
    widths = np.asarray(widths, dtype=float)
    widths = widths[~np.isnan(widths)]
    if widths.size == 0:
        med = q05 = q95 = None
    else:
        # Order statistics, no interpolation: infinite widths (degenerate
        # conditional intervals) stay representable.
        med = float(np.quantile(widths, 0.5, method="lower"))
        q05 = float(np.quantile(widths, 0.05, method="lower"))
        q95 = float(np.quantile(widths, 0.95, method="lower"))
    cov = float(np.mean(covered)) if covered is not None else None
    return ResultRow(scenario, method, median_width=med, q05_width=q05,
                     q95_width=q95, coverage=cov, runtime_ms=runtime_ms, **params)


def _cell_rows(scenario, widths, covered, t0, **params):
    """One row per method of a cell, each stamped with the cell's wall time
    since ``t0``."""
    ms = int(1000 * (time.perf_counter() - t0))
    return [_width_row(scenario, method, widths[method], covered[method], ms, **params)
            for method in widths]


def _conditional_arm(ys, sigma, alpha, truth):
    """Widths and coverage of the conditional interval on (trials, m) outcomes."""
    lo, hi = conditional_winner_interval(ys, sigma, alpha)
    with np.errstate(invalid="ignore"):  # both ends at one infinity: width nan
        return hi - lo, (lo <= truth) & (truth <= hi)


# ---------------------------------------------------------------------------
# figure1: two candidates, vary the mean gap
# ---------------------------------------------------------------------------

def run_figure1(config: ExperimentConfig):
    budget = config.budget()
    alpha = budget.alpha
    rows = []
    q_sim = 2.0 * max_abs_quantile_iid(2, alpha)
    q_nom = 2.0 * max_abs_quantile_iid(1, alpha)
    for di, delta in enumerate(config.delta_grid):
        t0 = time.perf_counter()
        mu = np.array([0.0, float(delta)])
        gen = RngSpec(config.seed, 100 + di).generator()
        ys = mu + gen.standard_normal((config.trials, 2))
        top, truth = ys.max(axis=1), mu[ys.argmax(axis=1)]
        local = np.array([two_candidate_interval(y, budget, 1.0).half_widths[0]
                          for y in ys])
        cond_w, cond_hit = _conditional_arm(ys, 1.0, alpha, truth)
        widths = {"local": 2.0 * local, "simultaneous": np.full(len(ys), q_sim),
                  "conditional": cond_w, "nominal": np.full(len(ys), q_nom)}
        covered = {"local": np.abs(truth - top) <= local,
                   "simultaneous": np.abs(truth - top) <= q_sim / 2.0,
                   "conditional": cond_hit,
                   "nominal": np.abs(truth - top) <= q_nom / 2.0}
        rows.extend(_cell_rows(f"figure1:delta={delta:g}", widths, covered, t0))
    return rows


# ---------------------------------------------------------------------------
# winner & file-drawer grids (parametric)
# ---------------------------------------------------------------------------

def _cell_outcomes(config, theta, C, m, cov_kind, stream):
    """Means, outcomes (trials x m) and quantile source of one grid cell.

    ``q(level, mask=None)`` is the 1-level quantile of max |Z_i|/sigma_i over
    the masked coordinates, or over all of them when the mask is None.  For
    iid N(0, 1) noise it is the closed form.  For RBF noise one table of
    draws serves every trial: restricting a joint Gaussian draw to a subset
    of coordinates is an exact draw from the restricted covariance, and the
    conservative rank keeps the quantile estimate upward biased.  The RBF
    marginal variances are exactly 1, so the draws are already standardized.
    """
    mu = generate_mu_reference_scaled(m, theta, C)
    rng = RngSpec(config.seed, stream)
    if cov_kind == "iid":
        # No GaussianNoise.iid(m): at m = 10,000 its identity matrix and
        # factor would take 1.6 GB.
        ys = mu + rng.generator().standard_normal((config.trials, m))

        def price(level, mask):
            return max_abs_quantile_iid(int(mask.sum()), level)
    else:
        noise = GaussianNoise(rbf_covariance(m, config.phi))
        ys = mu + noise.sample(rng.generator(), config.trials)
        table = noise.sample(rng.child(1).generator(), config.n_draws)
        np.abs(table, out=table)

        def price(level, mask):
            return conservative_quantile(table[:, mask].max(axis=1), level)

    # A cell's trials share few distinct plausible masks (at most 43 in 200
    # trials at seed 0 on the default grid, 7 under RBF noise), so each
    # quantile is priced once per mask.
    cache, every = {}, np.ones(m, dtype=bool)

    def q(level, mask=None):
        mask = every if mask is None else mask
        key = (level, mask.tobytes())
        if key not in cache:
            cache[key] = price(level, mask)
        return cache[key]

    return mu, ys, q


def _winner_trials(config, budget, mu, ys, q, cov_kind):
    alpha = budget.alpha
    win = ys.argmax(axis=1)
    top = ys[np.arange(len(ys)), win]
    truth = mu[win]
    masks = _winner_mask(ys, q(budget.nu))
    halves = {"local": np.array([q(budget.inference_level, mask) for mask in masks]),
              "simultaneous": np.full(len(ys), q(alpha)),
              "nominal": np.full(len(ys), max_abs_quantile_iid(1, alpha))}
    widths = {k: 2.0 * h for k, h in halves.items()}
    covered = {k: np.abs(top - truth) <= h for k, h in halves.items()}
    if cov_kind == "iid":
        widths["conditional"], covered["conditional"] = _conditional_arm(
            ys, 1.0, alpha, truth)
    return widths, covered


def _filedrawer_trials(config, budget, mu, ys, q, cov_kind):
    # A trial that selects nothing covers trivially and has no width.  Else
    # its plausible set contains the realized one and so is nonempty.
    realized = ys >= config.threshold
    hit = realized.any(axis=1)
    masks = _filedrawer_mask(ys, config.threshold, q(budget.nu))
    halves = {"local": np.array([q(budget.inference_level, mask) if h else np.nan
                                 for mask, h in zip(masks, hit)]),
              "simultaneous": np.where(hit, q(budget.alpha), np.nan)}
    worst = np.where(realized, np.abs(ys - mu), -np.inf).max(axis=1)
    widths = {k: 2.0 * h for k, h in halves.items()}
    covered = {k: ~hit | (worst <= h) for k, h in halves.items()}
    return widths, covered


def _run_grid(config, scenario, trials_fn, stream):
    """Rows of the (cov_kind, theta, C, m) grid; cell k draws from stream + k."""
    budget = config.budget()
    rows = []
    for cov_kind, theta, C, m in itertools.product(
            config.cov_kinds, config.theta_grid, config.c_grid, config.m_grid):
        theta, C, m = float(theta), float(C), int(m)
        t0 = time.perf_counter()
        mu, ys, q = _cell_outcomes(config, theta, C, m, cov_kind, stream)
        stream += 1
        widths, covered = trials_fn(config, budget, mu, ys, q, cov_kind)
        phi = config.phi if cov_kind == "rbf" else None
        rows.extend(_cell_rows(f"{scenario}:{cov_kind}", widths, covered, t0,
                               param_theta=theta, param_C=C, param_m=m, param_phi=phi))
    return rows


def run_winner(config: ExperimentConfig):
    return _run_grid(config, "winner", _winner_trials, 1000)


def run_filedrawer(config: ExperimentConfig):
    return _run_grid(config, "filedrawer", _filedrawer_trials, 2000)


# ---------------------------------------------------------------------------
# Nonparametric winner (bounded samples)
# ---------------------------------------------------------------------------

def _np_draws(config, n, theta, gen):
    """Per trial of one winner-np cell: (column means, pooled sd of a column
    mean, winner's column, winner's true mean).  The column is a view, so
    keeping it keeps the trial's whole n x m sample block alive."""
    mu = generate_mu(config.m, theta, 1.0)
    signal = config.signal_frac * (mu - mu.min())  # range signal_frac, in [0, 1]
    noise_mean = config.beta_a / (config.beta_a + config.beta_b)
    truth_all = signal + (1.0 - config.signal_frac) * noise_mean
    for _ in range(config.trials):
        xi = gen.beta(config.beta_a, config.beta_b, size=(n, config.m))
        data = signal + (1.0 - config.signal_frac) * xi
        means = data.mean(axis=0)
        win = int(np.argmax(means))
        sd_pool = float(np.mean(data.std(axis=0, ddof=1))) / math.sqrt(n)
        yield means, sd_pool, data[:, win], truth_all[win]


def _np_winner_cell(config, budget, n, theta, gen):
    """Widths and coverage of one winner-np cell, keyed in CSV row order:
    one library CI call per trial at the local, simultaneous and nominal
    levels, and one conditional batch for the cell."""
    ci = _CI_FNS[config.ci_kind]
    margin = _np_margin(n, config.m, budget, config.bound_kind)
    records = []
    for means, sd_pool, col, truth in _np_draws(config, n, theta, gen):
        k = plausible_winner_set(means, margin).size
        lo, hi = ci(col, (budget.inference_level / k, budget.alpha / config.m,
                          budget.alpha))
        records.append((lo, hi, means, sd_pool, truth))
    # lo and hi are (trials, 3 levels); means is (trials, m).
    lo, hi, means, sds, truths = (np.array(v) for v in zip(*records))
    width, hit = hi - lo, (lo <= truths[:, None]) & (truths[:, None] <= hi)
    cond_w, cond_hit = _conditional_arm(means, sds, budget.alpha, truths)
    return ({"local": width[:, 0], "simultaneous": width[:, 1],
             "conditional": cond_w, "nominal": width[:, 2]},
            {"local": hit[:, 0], "simultaneous": hit[:, 1],
             "conditional": cond_hit, "nominal": hit[:, 2]})


def run_winner_np(config: ExperimentConfig):
    budget = config.budget()
    rows = []
    cells = itertools.product(map(int, config.n_grid), map(float, config.theta_grid))
    for stream, (n, theta) in enumerate(cells, start=3000):
        t0 = time.perf_counter()
        gen = RngSpec(config.seed, stream).generator()
        widths, covered = _np_winner_cell(config, budget, n, theta, gen)
        rows.extend(_cell_rows(f"winner-np:n={n}", widths, covered, t0,
                               param_theta=theta, param_m=config.m))
    return rows


def _run_np_on_data(config: ExperimentConfig):
    """User-data mode: one nonparametric analysis of a CSV of observations."""
    samples = SampleMatrix(_read_csv(config.data)[1])
    budget = config.budget()
    t0 = time.perf_counter()
    if config.kind == "winner-np":
        iv = np_winner_interval(samples, budget, config.bound_kind, config.ci_kind)
    else:
        iv = np_filedrawer_region(samples, config.threshold, budget,
                                  config.bound_kind, config.ci_kind)
    ms = int(1000 * (time.perf_counter() - t0))
    row = ResultRow(f"{config.kind}:data", "local", param_m=samples.m, runtime_ms=ms)
    if iv.is_empty:
        return [row]
    w = iv.widths
    return [replace(row, median_width=float(np.median(w)), q05_width=float(w.min()),
                    q95_width=float(w.max()))]


# ---------------------------------------------------------------------------
# LASSO
# ---------------------------------------------------------------------------

def _lasso_design(config, gen) -> Design:
    X = gen.standard_normal((config.n, config.d))
    X /= np.linalg.norm(X, axis=0)
    return Design(X)


def _lasso_beta(config, lam) -> np.ndarray:
    k = math.ceil(config.sparsity * config.d)
    beta = np.zeros(config.d)
    half = k // 2
    beta[:half] = 2.0 * lam      # strong
    beta[half:k] = lam           # weak
    return beta


def run_lasso(config: ExperimentConfig):
    budget = config.budget()
    lam = config.lambda0 * math.sqrt(2.0 * math.log(math.e * config.d))
    gen = RngSpec(config.seed, 4000).generator()
    design = _lasso_design(config, gen)
    beta = _lasso_beta(config, lam)
    mu = design.X @ beta
    s_nu = 2.0 * column_max_quantile(design, config.sigma, budget.nu,
                                     RngSpec(config.seed, 4001), config.n_draws)
    t0 = time.perf_counter()
    widths, covered = [], []
    for trial in range(config.trials):
        y = mu + config.sigma * gen.standard_normal(config.n)
        models, frontier = enumerate_plausible_models(design, y, lam, s_nu,
                                                      p_max=config.p_max)
        pair = frontier.start
        if not pair.M:
            covered.append(True)
            widths.append(float("nan"))
            continue
        iv = posi_intervals(design, y, pair, models, budget, config.sigma,
                            RngSpec(config.seed, 4003, (trial,)), config.n_draws)
        truth = projection_truth(design, pair.M, mu)
        covered.append(bool(np.all(np.abs(truth - iv.centers) <= iv.half_widths)))
        widths.append(float(np.median(iv.widths)))
    ms = int(1000 * (time.perf_counter() - t0))
    return [_width_row("lasso", "local", widths, covered, ms,
                       param_theta=config.lambda0, param_m=config.d)]


# ---------------------------------------------------------------------------
# ERM
# ---------------------------------------------------------------------------

def run_erm(config: ExperimentConfig):
    budget = config.budget()
    n, F = config.n, config.n_hypotheses
    means = np.linspace(0.1, 0.9, F)
    gen = RngSpec(config.seed, 5001).generator()
    t0 = time.perf_counter()
    holds, slacks = [], []
    for trial in range(config.trials):
        losses = (gen.random((n, F)) < means[None, :]).astype(float)
        lm = LossMatrix(losses)
        res = erm_risk_bound(lm, budget, RngSpec(config.seed, 5002, (trial,)), 500)
        pop_risk = means[res.erm_index]
        holds.append(pop_risk <= res.bound)
        slacks.append(res.bound - res.erm_risk)
    ms = int(1000 * (time.perf_counter() - t0))
    return [_width_row("erm", "local", slacks, holds, ms, param_m=F)]


def _run_erm_on_data(config: ExperimentConfig):
    """User-data mode: the ERM risk bound on a CSV loss matrix."""
    lm = load_loss_matrix(config.data)
    t0 = time.perf_counter()
    res = erm_risk_bound(lm, config.budget(), RngSpec(config.seed, 5000), 2000)
    ms = int(1000 * (time.perf_counter() - t0))
    return [_width_row("erm:data", "local", [res.bound - res.erm_risk], None, ms,
                       param_m=lm.n_hypotheses)]


# ---------------------------------------------------------------------------
# Sphere
# ---------------------------------------------------------------------------

def run_sphere(config: ExperimentConfig):
    budget = config.budget()
    nominal = normal_quantile(1.0 - budget.alpha / 2.0)
    rows = []
    # Cell k: outcomes on stream 6000 + 3k, the Scheffe table on the next,
    # the per-trial intervals on the one after.
    for stream, d in zip(itertools.count(6000, 3), config.d_grid):
        d = int(d)
        t0 = time.perf_counter()
        mu = np.zeros(d)
        mu[0] = config.mu_norm
        ys = mu + RngSpec(config.seed, stream).generator().standard_normal((config.trials, d))
        scheffe = cap_quantile(math.pi, d, budget.alpha,
                               RngSpec(config.seed, stream + 1), config.n_draws)
        lo, hi = np.array([sphere_interval(SphereProblem(y, budget),
                                           RngSpec(config.seed, stream + 2, (trial,)),
                                           config.n_draws)
                           for trial, y in enumerate(ys)]).T
        # Row by row: a norm along axis 1 sums in another order.
        norms = np.array([np.linalg.norm(y) for y in ys])
        truth = np.array([(y / norm) @ mu for y, norm in zip(ys, norms)])
        widths = {"local": hi - lo, "simultaneous": np.full(len(ys), 2.0 * scheffe),
                  "nominal": np.full(len(ys), 2.0 * nominal)}
        covered = {"local": (lo <= truth) & (truth <= hi),
                   "simultaneous": np.abs(norms - truth) <= scheffe,
                   "nominal": np.abs(norms - truth) <= nominal}
        rows.extend(_cell_rows("sphere", widths, covered, t0, param_m=d))
    return rows


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

# kind -> (simulation runner, user-data runner); a ``data`` file selects the
# latter.  "coverage" simulates: the user-data analyses have no truth to cover.
_RUNNERS = {
    "figure1": (run_figure1, None),
    "winner": (run_winner, None),
    "filedrawer": (run_filedrawer, None),
    "winner-np": (run_winner_np, _run_np_on_data),
    "filedrawer-np": (None, _run_np_on_data),
    "lasso": (run_lasso, None),
    "erm": (run_erm, _run_erm_on_data),
    "sphere": (run_sphere, None),
}
KINDS = (*_RUNNERS, "coverage")
DATA_KINDS = tuple(kind for kind, (_, on_data) in _RUNNERS.items() if on_data)


def _resolve(config: ExperimentConfig):
    """The runner that serves ``config``; ConfigError when none does."""
    coverage = config.kind == "coverage"
    kind = config.problem if coverage else config.kind
    simulate, on_data = _RUNNERS.get(kind, (None, None))
    on_data = None if coverage else on_data
    if simulate is None and on_data is None:
        what = "coverage problem" if coverage else "problem kind"
        raise ConfigError(f"unknown {what} {kind!r}")
    if config.data is None and simulate is None:
        raise ConfigError(f"{kind} requires data = <csv file>")
    if config.data is not None and on_data is None:
        raise ConfigError(f"{config.kind} reads no data file")
    return simulate if config.data is None else on_data


def run_experiment(config: ExperimentConfig):
    """Run the configured scenario; return its ResultRows, also written to
    config.out when set.  "coverage" runs config.problem's simulation.  A
    ``data`` file selects the user-data analysis of winner-np, filedrawer-np
    or erm (filedrawer-np requires one); coverage and every other kind reject it."""
    rows = _resolve(config.validate())(config)
    if config.out:
        write_csv(rows, config.out)
    return rows


def run_coverage(config: ExperimentConfig):
    """Coverage-focused run of config.problem: run_experiment with kind
    "coverage"."""
    return run_experiment(replace(config, kind="coverage"))
