"""Standalone property suites: nestedness, monotonicity, determinism,
KKT residuals, LP agreement with brute-force vertex enumeration, and the
early-exit betting profile against the full-grid one."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from locsim.lasso import Design, lasso_solve
from locsim.lp import Polyhedron, lp_maximize
from locsim.stats_core import (
    GaussianNoise,
    RngSpec,
    betting_capital_peaks,
    betting_ci,
    betting_interval_from_peaks,
    hoeffding_width,
    max_abs_quantile_iid,
    max_stat_quantile_mc,
)
from locsim.winner import plausible_filedrawer_set, plausible_winner_set

from oracles import betting_capital_peaks_full, vertex_enumeration_max

COMMON = dict(deadline=None, max_examples=25)

finite_vecs = arrays(np.float64, st.integers(2, 8),
                     elements=st.floats(-50, 50, allow_nan=False))


@settings(**COMMON)
@given(finite_vecs, st.floats(0.0, 10.0), st.floats(0.0, 10.0))
def test_plausible_winner_monotone_in_margin(y, q1, q2):
    lo, hi = sorted((q1, q2))
    small = plausible_winner_set(y, lo)
    large = plausible_winner_set(y, hi)
    assert set(small.indices.tolist()) <= set(large.indices.tolist())
    assert small.realized[0] in small.indices


@settings(**COMMON)
@given(finite_vecs, st.floats(-20, 20), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
def test_plausible_filedrawer_contains_selection(y, T, q1, q2):
    lo, hi = sorted((q1, q2))
    small = plausible_filedrawer_set(y, T, lo)
    large = plausible_filedrawer_set(y, T, hi)
    assert set(small.realized.tolist()) <= set(small.indices.tolist())
    assert set(small.indices.tolist()) <= set(large.indices.tolist())


@settings(**COMMON)
@given(st.integers(1, 6), st.floats(0.01, 0.5), st.floats(0.01, 0.5))
def test_iid_quantile_monotone_in_alpha(m, a1, a2):
    lo, hi = sorted((a1, a2))
    assert max_abs_quantile_iid(m, lo) >= max_abs_quantile_iid(m, hi)


@settings(**COMMON)
@given(st.integers(1, 500), st.floats(0.005, 0.9), st.floats(0.005, 0.9))
def test_hoeffding_monotone(n, a1, a2):
    lo, hi = sorted((a1, a2))
    assert hoeffding_width(n, lo) >= hoeffding_width(n, hi)
    assert hoeffding_width(n + 1, lo) < hoeffding_width(n, lo)


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**16))
def test_mc_quantile_deterministic_by_seed(seed, stream):
    noise = GaussianNoise(np.eye(3))
    a = max_stat_quantile_mc(noise, [0, 1], 0.1, RngSpec(seed, stream), 2000)
    b = max_stat_quantile_mc(noise, [0, 1], 0.1, RngSpec(seed, stream), 2000)
    assert a == b


def test_mc_quantile_nested_in_subset_and_alpha():
    gen = np.random.default_rng(0)
    for trial in range(10):
        m = int(gen.integers(2, 7))
        A = gen.normal(size=(m, m))
        noise = GaussianNoise(A @ A.T + 0.5 * np.eye(m))
        rng = RngSpec(1234, trial)
        inner_idx = sorted(gen.choice(m, size=max(1, m // 2), replace=False).tolist())
        inner = max_stat_quantile_mc(noise, inner_idx, 0.1, rng, 4000)
        outer = max_stat_quantile_mc(noise, range(m), 0.1, rng, 4000)
        assert inner.value <= outer.value
        tighter = max_stat_quantile_mc(noise, range(m), 0.05, rng, 4000)
        assert tighter.value >= outer.value


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10_000))
def test_betting_ci_nested_in_alpha(seed):
    x = np.random.default_rng(seed).beta(2, 5, size=60)
    inner = betting_ci(x, 0.2)
    outer = betting_ci(x, 0.05)
    assert outer[0] <= inner[0] and inner[1] <= outer[1]
    # A level sequence is one call for both levels, entry for entry the same.
    lo, hi = betting_ci(x, (0.2, 0.05))
    assert lo.tolist() == [inner[0], outer[0]] and hi.tolist() == [inner[1], outer[1]]


# Bounded samples of any length the studies use: Beta draws, 0/1 draws,
# and constant columns (at an endpoint or inside).
SAMPLE_KINDS = {
    "beta": lambda gen, n, value: gen.beta(2, 5, size=n),
    "zero-one": lambda gen, n, value: (gen.uniform(size=n) < value).astype(float),
    "constant": lambda gen, n, value: np.full(n, value),
}


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(sorted(SAMPLE_KINDS)), st.integers(2, 1200),
       st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       st.floats(1e-4, 0.5),
       st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                min_size=3, max_size=3))
def test_betting_early_exit_matches_full_grid(kind, n, seed, value, floor, fractions):
    x = SAMPLE_KINDS[kind](np.random.default_rng(seed), n, value)
    grid, full = betting_capital_peaks_full(x)
    threshold = math.log(1.0 / floor)
    fast_grid, fast = betting_capital_peaks(x, alpha_floor=floor)
    kept = fast < threshold
    # The kept grid values are exactly those the full profile keeps, with
    # the same peaks; a dropped value's peak has reached the threshold.
    assert np.array_equal(fast_grid, grid)
    assert np.array_equal(kept, full < threshold)
    assert np.array_equal(fast[kept], full[kept])
    assert np.all(fast[~kept] >= threshold)
    # Intervals at the floor and at three levels above it (up to 0.9).
    levels = [floor] + [floor + f * (0.9 - floor) for f in fractions]
    center = float(x.mean())
    expected = np.array([betting_interval_from_peaks(grid, full, a, center)
                         for a in levels]).T
    assert np.array_equal(np.array(betting_ci(x, levels)), expected)


def test_lasso_kkt_on_random_instances():
    gen = np.random.default_rng(31337)
    for _ in range(30):
        n = int(gen.integers(10, 40))
        d = int(gen.integers(1, 6))
        X = gen.normal(size=(n, d))
        X /= np.linalg.norm(X, axis=0)
        y = gen.normal(scale=2.0, size=n)
        lam = float(gen.uniform(0.2, 2.0))
        design = Design(X)
        beta, pair = lasso_solve(design, y, lam)
        grad = design.X.T @ (y - design.X @ beta)
        for j in range(d):
            if j in pair.M:
                assert abs(grad[j] - lam * pair.s[pair.M.index(j)]) <= 1e-6 * max(1.0, lam)
            else:
                assert abs(grad[j]) <= lam * (1 + 1e-6)


def test_lp_matches_vertex_enumeration():
    gen = np.random.default_rng(2712)
    for _ in range(100):
        n = int(gen.integers(1, 4))
        k = int(gen.integers(1, 6))
        A = np.vstack([gen.normal(size=(k, n)), np.eye(n), -np.eye(n)])
        b = np.concatenate([gen.normal(size=k) + 0.7, np.full(2 * n, 4.0)])
        c = gen.normal(size=n)
        res = lp_maximize(c, Polyhedron(A, b))
        ref = vertex_enumeration_max(c, A, b)
        if res.status == "infeasible":
            assert ref == -np.inf
        else:
            assert abs(res.value - ref) < 1e-7
