"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy simulation grids are shared through module-scoped fixtures.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Criteria that take over 30 s are marked ``slow``.
"""

import math
import time

import numpy as np
import pytest

from locsim.erm import LossMatrix, erm_risk_bound
from locsim.experiments import (
    ExperimentConfig,
    _cell_outcomes,
    _conditional_arm,
    _np_draws,
    _np_winner_cell,
    _winner_trials,
    generate_mu,
    run_experiment,
)
from locsim.lasso import (
    Design,
    column_max_quantile,
    enumerate_plausible_models,
    lasso_solve,
    posi_intervals,
    projection_truth,
)
from locsim.sphere import SphereProblem, cap_angle, sphere_interval
from locsim.stats_core import (
    GaussianNoise,
    RngSpec,
    max_abs_quantile_iid,
    max_stat_quantile_mc,
    normal_quantile,
)
from locsim.theory_core import BudgetSplit
from locsim.winner import conditional_winner_interval, plausible_winner_set

from oracles import binomial_se, grid_lasso_models, vertex_enumeration_max

BUDGET = BudgetSplit(0.1, 0.01)
COVER_FLOOR = 0.9 - 3 * binomial_se(0.9, 2000)  # ~0.8799


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: two-candidate width profile (figure-1 reproduction)
# ---------------------------------------------------------------------------

def test_c01_two_candidate_profile():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(kind="figure1", trials=100, seed=101,
                           delta_grid=tuple(float(v) for v in range(11)))
    rows = run_experiment(cfg)
    by = {(r.scenario, r.method): r for r in rows}
    tied = 2 * max_abs_quantile_iid(2, 0.09)
    single = 2 * max_abs_quantile_iid(1, 0.09)
    sim = 2 * max_abs_quantile_iid(2, 0.1)
    nominal = 2 * normal_quantile(0.95)

    local0 = by[("figure1:delta=0", "local")].median_width
    local10 = by[("figure1:delta=10", "local")].median_width
    cond10 = by[("figure1:delta=10", "conditional")].median_width
    sim_rows = [by[(f"figure1:delta={d:g}", "simultaneous")].median_width
                for d in range(11)]
    elapsed = time.perf_counter() - t0

    ok = (abs(local0 - tied) <= 0.03
          and abs(local10 - single) <= 0.03
          and all(abs(w - sim) < 1e-9 for w in sim_rows)
          and abs(cond10 - nominal) / nominal <= 0.05
          and elapsed < 60.0)
    report("criterion 1 (figure-1 profile)", ok,
           f"local@0={local0:.4f} (target {tied:.4f}), "
           f"local@10={local10:.4f} (target {single:.4f}), "
           f"cond@10={cond10:.4f} (nominal {nominal:.4f}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criteria 2-3: parametric winner / file-drawer grids
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def winner_grid_rows():
    cfg = ExperimentConfig(kind="winner", trials=2000, seed=202,
                           theta_grid=(0.5, 2.0, 4.0), c_grid=(10.0, 30.0),
                           m_grid=(10, 100), cov_kinds=("iid", "rbf"),
                           n_draws=10_000)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def filedrawer_grid_rows():
    cfg = ExperimentConfig(kind="filedrawer", trials=2000, seed=203,
                           theta_grid=(0.5, 2.0, 4.0), c_grid=(10.0, 30.0),
                           m_grid=(10, 100), cov_kinds=("iid", "rbf"),
                           n_draws=10_000)
    return run_experiment(cfg)


def test_c02_parametric_coverage(winner_grid_rows, filedrawer_grid_rows):
    local = [r for r in winner_grid_rows + filedrawer_grid_rows
             if r.method == "local"]
    assert len(local) == 48
    worst = min(r.coverage for r in local)
    ok = worst >= 0.88
    report("criterion 2 (winner/file-drawer coverage)", ok,
           f"48 grid cells x 2000 trials, min local coverage {worst:.4f} >= 0.88")


def test_c03_width_qualitative_claims(winner_grid_rows):
    # (a) local width decreases in C at fixed (theta, m).
    decreasing = []
    for cov in ("iid", "rbf"):
        for theta in (0.5, 2.0, 4.0):
            for m in (10, 100):
                w10 = [r.median_width for r in winner_grid_rows
                       if r.method == "local" and r.scenario == f"winner:{cov}"
                       and r.param_theta == theta and r.param_m == m
                       and r.param_C == 10.0][0]
                w30 = [r.median_width for r in winner_grid_rows
                       if r.method == "local" and r.scenario == f"winner:{cov}"
                       and r.param_theta == theta and r.param_m == m
                       and r.param_C == 30.0][0]
                decreasing.append(w30 <= w10)
    ok_a = all(decreasing)

    # (b) local width insensitive to appending far-below candidates: the
    # winner runner's iid cell (closed forms) at m = 1e3 vs 1e4.
    cfg = ExperimentConfig(kind="winner", seed=301, trials=100)
    medians = {}
    for m in (1000, 10_000):
        mu, ys, q = _cell_outcomes(cfg, 4.0, 10.0, m, "iid", stream=m)
        arms = _winner_trials(cfg, BUDGET, mu, ys, q, "iid")
        medians[m] = float(np.median(arms["local"][0]))
    rel_change = abs(medians[10_000] - medians[1000]) / medians[1000]
    ok_b = rel_change < 0.02

    # (c) simultaneous width strictly increases in m.
    ok_c = True
    for cov in ("iid", "rbf"):
        w_m10 = [r.median_width for r in winner_grid_rows
                 if r.method == "simultaneous" and r.scenario == f"winner:{cov}"
                 and r.param_m == 10]
        w_m100 = [r.median_width for r in winner_grid_rows
                  if r.method == "simultaneous" and r.scenario == f"winner:{cov}"
                  and r.param_m == 100]
        ok_c = ok_c and max(w_m10) < min(w_m100)

    ok = ok_a and ok_b and ok_c
    report("criterion 3 (width qualitative claims)", ok,
           f"(a) C-monotone {sum(decreasing)}/12, "
           f"(b) m-growth change {100 * rel_change:.2f}% < 2%, "
           f"(c) simultaneous grows in m: {ok_c}")


# ---------------------------------------------------------------------------
# Criterion 4: nonparametric winner with bounded samples
# ---------------------------------------------------------------------------

# Beta(2, 5) noise, the runner's default: mean 2/7, variance
# a*b / ((a+b)^2 (a+b+1)) = 10/392.  Only the Gaussian control uses them.
BETA_MEAN, BETA_VAR = 2.0 / 7.0, 10.0 / 392.0

# Trials for the conditional sub-check.  The heuristic arm measures 0.8938
# against a nominal 0.9, a deficit of 0.0062; the heuristic must land three
# binomial SEs below 0.9 and the Gaussian control must not, so the deficit
# has to span six SEs: 0.0062 >= 6 * sqrt(0.09 / N) gives N >= 84,300.
COND_TRIALS = 90_000


def _np_cell(theta, n, trials, seed):
    """One cell of the shipped winner-np runner (m = 50, betting CI, Bentkus
    margin); returns its arms, {method: (widths, covered)}."""
    cfg = ExperimentConfig(kind="winner-np", trials=trials)
    return _np_winner_cell(cfg, BUDGET, n, theta, np.random.default_rng(seed))


def _cond_heuristic_hits(theta, n, trials, seed):
    """The runner's conditional arm alone, on the same stream as `_np_cell`.
    Only each trial's means, sd and truth are kept: the winner's column pins
    its trial's whole sample block."""
    cfg = ExperimentConfig(kind="winner-np", trials=trials)
    records = [(means, sd, truth) for means, sd, _, truth
               in _np_draws(cfg, n, theta, np.random.default_rng(seed))]
    means, sds, truths = (np.array(v) for v in zip(*records))
    return _conditional_arm(means, sds, BUDGET.alpha, truths)[1]


def _cond_gaussian_hits(theta, n, trials, seed, m=50, signal_frac=0.9):
    """Gaussian control: column means drawn exactly N(truth, sd^2) with the
    true sd of a bounded-sample column mean, and that sd passed as sigma."""
    mu = generate_mu(m, theta, 1.0)
    truth_all = signal_frac * (mu - mu.min()) + (1 - signal_frac) * BETA_MEAN
    sd = (1 - signal_frac) * math.sqrt(BETA_VAR / n)
    gen = np.random.default_rng(seed)
    means = truth_all + sd * gen.standard_normal((trials, m))
    lo, hi = conditional_winner_interval(means, sd, BUDGET.alpha)
    truths = truth_all[means.argmax(axis=1)]
    return (lo <= truths) & (truths <= hi)


@pytest.mark.slow
def test_c04_nonparametric_winner():
    trials = 2000
    arms = {}
    for n in (100, 1000):
        for theta in (0.5, 4.0):
            arms[n, theta] = _np_cell(theta, n, trials, seed=40_000 + n)

    cov = [arms[c][method][1].mean() for c in arms
           for method in ("local", "simultaneous")]
    cov_ok = min(cov) >= 0.88

    # Width comparison in the sharp-winner regime (theta = 0.5): the local
    # level exceeds the Bonferroni level whenever the plausible set stays
    # below m * (alpha - nu) / alpha, so nestedness forces local <= simultaneous.
    frac_le = np.mean([
        np.mean(arms[n, 0.5]["local"][0] <= arms[n, 0.5]["simultaneous"][0] + 1e-12)
        for n in (100, 1000)])
    width_ok = frac_le >= 0.99

    # The truncated-Gaussian interval is exact for Gaussian means with known
    # sigma; with bounded samples and a plug-in sd it undercovers.  The long
    # heuristic run replays the n=100 grid cell's stream from its start, and
    # the control separates that undercoverage from a broken interval.
    n, theta = 100, 4.0
    heur = _cond_heuristic_hits(theta, n, COND_TRIALS, seed=40_000 + n)
    ctrl = _cond_gaussian_hits(theta, n, COND_TRIALS, seed=40_000 + n + 1)
    floor = 0.9 - 3 * binomial_se(0.9, COND_TRIALS)
    prefix_ok = np.array_equal(heur[:trials], arms[n, theta]["conditional"][1])
    cond_ok = prefix_ok and heur.mean() < floor <= ctrl.mean()

    detail = (f"min local/sim coverage {min(cov):.4f}, "
              f"local<=sim on {100 * frac_le:.1f}% of theta=0.5 trials, "
              f"conditional at theta=4, n=100 over {COND_TRIALS} trials: "
              f"heuristic {heur.mean():.4f} < {floor:.4f} <= Gaussian control "
              f"{ctrl.mean():.4f} (first {trials} heuristic trials: "
              f"{heur[:trials].mean():.4f}, same as the grid cell: {prefix_ok})")
    report("criterion 4 (nonparametric winner)", cov_ok and width_ok and cond_ok, detail)


# ---------------------------------------------------------------------------
# Criteria 5-6: plausible-model enumeration vs grid oracle; safe rules
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lasso_oracle_instances():
    results = []
    for idx in range(50):
        d = 2 if idx < 25 else 3
        gen = np.random.default_rng(50_000 + idx)
        X = gen.standard_normal((30, d))
        X /= np.linalg.norm(X, axis=0)
        beta = gen.normal(scale=2.0, size=d)
        y = X @ beta + gen.standard_normal(30)
        design = Design(X)
        lam = 2.0
        s_nu = 2.0 * column_max_quantile(design, 1.0, BUDGET.nu,
                                         RngSpec(51_000 + idx), 20_000)
        with_safe, fr_safe = enumerate_plausible_models(design, y, lam, s_nu)
        no_safe, fr_plain = enumerate_plausible_models(design, y, lam, s_nu,
                                                       use_safe=False)
        if d == 2:
            oracle = grid_lasso_models(design, y, lam, s_nu, steps=401)
        else:
            # A literal step of s_nu/200 needs 401^3 ~ 6.5e7 LASSO solves;
            # use a coarser grid plus uniform fill-in instead.
            oracle = grid_lasso_models(design, y, lam, s_nu, steps=41,
                                       extra_random=200_000, seed=idx)
        results.append(dict(d=d, with_safe=with_safe, no_safe=no_safe,
                            oracle=oracle, lp_safe=fr_safe.lp_count,
                            lp_plain=fr_plain.lp_count))
    return results


@pytest.mark.slow
def test_c05_enumeration_matches_grid_oracle(lasso_oracle_instances):
    t0 = time.perf_counter()
    superset = sum(r["oracle"] <= r["with_safe"] for r in lasso_oracle_instances)
    equal = sum(r["oracle"] == r["with_safe"] for r in lasso_oracle_instances)
    elapsed = time.perf_counter() - t0
    ok = superset == 50 and equal >= 48  # >= 95% of 50
    report("criterion 5 (enumeration vs grid oracle)", ok,
           f"superset {superset}/50, equal {equal}/50 (>=48 required)")


@pytest.mark.slow
def test_c06_safe_rules_sound(lasso_oracle_instances):
    same = sum(r["with_safe"] == r["no_safe"] for r in lasso_oracle_instances)
    lp_safe = sum(r["lp_safe"] for r in lasso_oracle_instances)
    lp_plain = sum(r["lp_plain"] for r in lasso_oracle_instances)
    factor = lp_plain / max(lp_safe, 1)
    ok = same == 50 and lp_safe <= lp_plain
    report("criterion 6 (safe-rule soundness)", ok,
           f"model sets identical on {same}/50 instances; "
           f"LPs {lp_plain} -> {lp_safe} (reduction factor {factor:.2f}x)")


# ---------------------------------------------------------------------------
# Criterion 7: post-LASSO coverage and the P_max fallback
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_c07_posi_coverage_and_pmax_fallback():
    cfg = ExperimentConfig(kind="lasso", trials=1000, seed=701, d=8, n=200,
                           lambda0=6.0, n_draws=20_000)
    row = run_experiment(cfg)[0]
    cov_ok = row.coverage >= 0.88

    # Adversarial dense-signal fixture: every score sits at the selection
    # boundary, so the frontier blows past P_max and the full-correction
    # fallback engages.
    d, n = 8, 200
    gen = np.random.default_rng(702)
    X = gen.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=0)
    design = Design(X)
    lam = 6.0 * math.sqrt(2 * math.log(math.e * d))
    beta_adv = np.linalg.solve(design.XtX, np.full(d, lam))
    mu = X @ beta_adv
    s_nu = 2.0 * column_max_quantile(design, 1.0, BUDGET.nu, RngSpec(703), 20_000)
    trials, hits, capped = 50, 0, 0
    for t in range(trials):
        y = mu + gen.standard_normal(n)
        models, frontier = enumerate_plausible_models(design, y, lam, s_nu, p_max=150)
        capped += frontier.capped
        _, pair = lasso_solve(design, y, lam)
        if not pair.M:
            hits += 1
            continue
        iv = posi_intervals(design, y, pair, models, BUDGET, 1.0,
                            RngSpec(705, t), 20_000)
        truth = projection_truth(design, pair.M, mu)
        hits += bool(np.all(np.abs(truth - iv.centers) <= iv.half_widths))
    fb_cov = hits / trials
    fb_ok = capped == trials and fb_cov >= 0.88 - 3 * binomial_se(0.88, trials)
    report("criterion 7 (posi coverage + P_max fallback)", cov_ok and fb_ok,
           f"coverage {row.coverage:.4f} over 1000 trials; fallback capped "
           f"{capped}/{trials}, fallback coverage {fb_cov:.3f}")


# ---------------------------------------------------------------------------
# Criterion 8: localized ERM bound
# ---------------------------------------------------------------------------

def test_c08_erm_bound_validity():
    n, F = 400, 50
    [row] = run_experiment(ExperimentConfig(kind="erm", trials=2000, n=n,
                                            n_hypotheses=F, seed=801))
    freq = row.coverage
    ok_validity = freq >= 0.88

    # Localization fixture: one near-zero-risk hypothesis, many risk-1 ones.
    good = (np.random.default_rng(801).random((n, 1)) < 0.02).astype(float)
    bad = np.ones((n, F - 1))
    res = erm_risk_bound(LossMatrix(np.hstack([good, bad])), BUDGET,
                         RngSpec(803), 4000)
    ok_local = res.gap_local < res.gap_full
    report("criterion 8 (ERM bound)", ok_validity and ok_local,
           f"bound held {freq:.4f} >= 0.88; localized gap {res.gap_local:.4f} "
           f"< full gap {res.gap_full:.4f} on dominant fixture")


# ---------------------------------------------------------------------------
# Criterion 9: sphere projection intervals
# ---------------------------------------------------------------------------

def test_c09_sphere():
    rows = run_experiment(ExperimentConfig(kind="sphere", trials=2000, d_grid=(3, 5),
                                           mu_norm=3.0, n_draws=4000, seed=900))
    coverages = {row.param_m: row.coverage for row in rows if row.method == "local"}
    cov_ok = all(v >= 0.88 for v in coverages.values())

    deltas = []
    for norm in (0.5, 1.0, 3.0, 10.0, 30.0, 100.0):
        prob = SphereProblem(np.r_[norm, np.zeros(4)], BUDGET)
        deltas.append(cap_angle(prob, RngSpec(903), 50_000))
    mono_ok = all(a >= b for a, b in zip(deltas, deltas[1:]))

    prob = SphereProblem(np.r_[100.0, np.zeros(4)], BUDGET)
    lo, hi = sphere_interval(prob, RngSpec(904), 100_000)
    nominal = normal_quantile(1 - 0.09 / 2)
    width_ok = abs((hi - lo) / 2 - nominal) / nominal <= 0.10

    ok = cov_ok and mono_ok and width_ok
    report("criterion 9 (sphere)", ok,
           f"coverage d=3: {coverages[3]:.4f}, d=5: {coverages[5]:.4f}; "
           f"cap angle monotone: {mono_ok}; width@100 within "
           f"{100 * abs((hi - lo) / 2 - nominal) / nominal:.1f}% of nominal")


# ---------------------------------------------------------------------------
# Criterion 10: property suites green standalone
# ---------------------------------------------------------------------------

def test_c10_property_suites():
    checks = {}

    # Nestedness and alpha-monotonicity of the quantile engine.
    noise = GaussianNoise(np.eye(6))
    inner = max_stat_quantile_mc(noise, [0, 1], 0.09, RngSpec(10), 5000).value
    outer = max_stat_quantile_mc(noise, range(6), 0.09, RngSpec(10), 5000).value
    checks["nestedness"] = inner <= outer
    tight = max_stat_quantile_mc(noise, range(6), 0.05, RngSpec(10), 5000).value
    checks["alpha-monotone"] = tight >= outer

    # Plausible-set monotonicity in nu.
    y = np.random.default_rng(1).normal(size=10)
    sizes = [plausible_winner_set(y, max_abs_quantile_iid(10, nu)).size
             for nu in (0.001, 0.01, 0.1)]
    checks["nu-monotone"] = sizes == sorted(sizes, reverse=True)

    # Determinism by seed.
    a = max_stat_quantile_mc(noise, [0, 3], 0.1, RngSpec(7, 9), 2000)
    b = max_stat_quantile_mc(noise, [0, 3], 0.1, RngSpec(7, 9), 2000)
    checks["determinism"] = a == b

    # KKT residuals on random LASSO instances.
    ok_kkt = True
    gen = np.random.default_rng(2)
    for _ in range(10):
        X = gen.normal(size=(25, 4))
        X /= np.linalg.norm(X, axis=0)
        yy = gen.normal(scale=2.0, size=25)
        design = Design(X)
        lam = 0.7
        beta, pair = lasso_solve(design, yy, lam)
        grad = design.X.T @ (yy - design.X @ beta)
        for j in range(4):
            if j in pair.M:
                ok_kkt &= abs(grad[j] - lam * pair.s[pair.M.index(j)]) <= 1e-6 * max(1, lam)
            else:
                ok_kkt &= abs(grad[j]) <= lam * (1 + 1e-6)
    checks["kkt"] = bool(ok_kkt)

    # LP agreement with vertex enumeration.
    from locsim.lp import Polyhedron, lp_maximize
    ok_lp = True
    for _ in range(30):
        n_dim = int(gen.integers(1, 4))
        A = np.vstack([gen.normal(size=(4, n_dim)), np.eye(n_dim), -np.eye(n_dim)])
        b_vec = np.concatenate([gen.normal(size=4) + 0.7, np.full(2 * n_dim, 4.0)])
        c = gen.normal(size=n_dim)
        res = lp_maximize(c, Polyhedron(A, b_vec))
        ref = vertex_enumeration_max(c, A, b_vec)
        if res.status == "infeasible":
            ok_lp &= ref == -np.inf
        else:
            ok_lp &= abs(res.value - ref) < 1e-7
    checks["lp-vs-vertex"] = bool(ok_lp)

    ok = all(checks.values())
    report("criterion 10 (property suites)", ok,
           ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
