import math

import numpy as np
import pytest

from locsim.sphere import (
    CapAngle,
    SphereProblem,
    cap_angle,
    cap_quantile,
    mu_norm_lower_bound,
    s_tau,
    sphere_interval,
)
from locsim.stats_core import RngSpec, conservative_quantile, normal_quantile
from locsim.theory_core import BudgetSplit

from oracles import binomial_se, lower_quantile_sorted

BUDGET = BudgetSplit(0.1, 0.01)


class TestMuNormLowerBound:
    def test_zero_observation(self):
        assert mu_norm_lower_bound(0.0, 3, 0.05, RngSpec(1), 20_000) == 0.0

    def test_self_consistency(self):
        lb = mu_norm_lower_bound(400.0, 3, 0.05, RngSpec(2), 100_000)
        gen = np.random.default_rng(999)
        z = gen.standard_normal((300_000, 3))
        vals = (z[:, 0] + lb) ** 2 + (z[:, 1:] ** 2).sum(axis=1)
        cdf = np.mean(vals <= 400.0)
        assert cdf == pytest.approx(0.95, abs=0.01)

    def test_monotone_in_observation(self):
        vals = [mu_norm_lower_bound(v, 4, 0.05, RngSpec(3), 20_000)
                for v in (1.0, 25.0, 100.0, 400.0)]
        assert vals == sorted(vals)

    def test_conservative_is_below_truth_mostly(self):
        # The bound targets P(||mu|| > LB) >= 1 - tau.
        trials, tau, d = 400, 0.05, 4
        mu_norm = 5.0
        gen = np.random.default_rng(4)
        hits = 0
        for t in range(trials):
            y = np.zeros(d)
            y[0] = mu_norm
            y = y + gen.standard_normal(d)
            lb = mu_norm_lower_bound(float(y @ y), d, tau, RngSpec(5, t), 4000)
            hits += lb < mu_norm
        assert hits / trials >= 1 - tau - 3 * binomial_se(1 - tau, trials)


class TestSTau:
    def test_central_median_is_zero(self):
        assert s_tau(0.0, 5, 0.5, RngSpec(6), 50_000) == pytest.approx(0.0, abs=0.02)

    def test_strong_signal_close_to_one(self):
        assert s_tau(50.0, 5, 0.05, RngSpec(7), 50_000) > 0.9

    def test_increasing_in_noncentrality(self):
        vals = [s_tau(c, 4, 0.05, RngSpec(8), 50_000) for c in (0.5, 2.0, 6.0, 20.0)]
        assert vals == sorted(vals)

    # The levels s_tau is called with (nu / 2, default and explicit nu) and
    # the levels of the tests above.
    TAUS = (0.005, BudgetSplit.default(0.05).nu / 2, BudgetSplit.default(0.1).nu / 2,
            BudgetSplit.default(0.2).nu / 2, 0.05, 0.5)

    @pytest.mark.parametrize("tau", TAUS)
    def test_lower_quantile_matches_sorted_rank(self, tau):
        # Includes every N with tau * (N + 1) whole below 1200, e.g.
        # tau = 0.005 at N = 199 and N = 999.
        gen = np.random.default_rng(11)
        for n in list(range(1, 1200)) + [9_999, 10_000, 100_000]:
            draws = gen.standard_normal(n)
            assert -conservative_quantile(-draws, tau) == lower_quantile_sorted(draws, tau)

    def test_matches_sorted_rank_end_to_end(self):
        c, d, tau, n = 2.0, 5, 0.005, 999
        gen = RngSpec(12).generator()
        num = gen.standard_normal(n) + c
        chi_sq = gen.standard_normal((n, d - 1))
        t = num / np.sqrt(np.einsum("ij,ij->i", chi_sq, chi_sq) / (d - 1))
        q = lower_quantile_sorted(t, tau)
        want = math.copysign(math.sqrt(1.0 / ((d - 1) / q**2 + 1.0)), q)
        assert s_tau(c, d, tau, RngSpec(12), n) == want


class TestCapQuantile:
    def test_degenerate_cap_is_single_contrast(self):
        q = cap_quantile(0.0, 5, 0.1, RngSpec(9), 200_000)
        assert q == pytest.approx(normal_quantile(0.95), abs=0.02)

    def test_full_sphere_is_chi_quantile(self):
        q = cap_quantile(math.pi, 5, 0.1, RngSpec(10), 200_000)
        gen = np.random.default_rng(11)
        chi = np.sort(np.sqrt((gen.standard_normal((400_000, 5)) ** 2).sum(axis=1)))
        oracle = chi[int(0.9 * chi.size)]
        assert q == pytest.approx(oracle, abs=0.02)

    def test_monotone_in_angle(self):
        qs = [cap_quantile(d, 4, 0.1, RngSpec(12), 50_000)
              for d in (0.0, 0.5, 1.5, math.pi)]
        assert qs == sorted(qs)

    def test_domain(self):
        with pytest.raises(ValueError):
            cap_quantile(-0.1, 4, 0.1, RngSpec(0), 2000)
        with pytest.raises(ValueError):
            CapAngle(4.0)


class TestSphereInterval:
    def test_strong_signal_close_to_nominal(self):
        prob = SphereProblem(np.r_[100.0, np.zeros(4)], BUDGET)
        lo, hi = sphere_interval(prob, RngSpec(13), 100_000)
        nominal = normal_quantile(1 - 0.09 / 2)
        assert (hi - lo) / 2 <= nominal * 1.10
        assert (hi - lo) / 2 >= nominal * 0.98

    def test_weak_signal_near_scheffe(self):
        d = 5
        prob = SphereProblem(np.r_[0.1, np.zeros(d - 1)], BUDGET)
        lo, hi = sphere_interval(prob, RngSpec(14), 100_000)
        scheffe = cap_quantile(math.pi, d, 0.09, RngSpec(15), 100_000)
        assert (hi - lo) / 2 == pytest.approx(scheffe, rel=0.02)

    def test_width_between_nominal_and_scheffe(self):
        d = 4
        scheffe = cap_quantile(math.pi, d, 0.09, RngSpec(16), 50_000)
        nominal = normal_quantile(1 - 0.09 / 2)
        gen = np.random.default_rng(17)
        for t in range(10):
            y = gen.normal(scale=3.0, size=d)
            prob = SphereProblem(y, BUDGET)
            lo, hi = sphere_interval(prob, RngSpec(18, t), 20_000)
            half = (hi - lo) / 2
            assert nominal * 0.97 <= half <= scheffe * 1.03

    def test_cap_angle_nonincreasing_in_norm(self):
        d = 4
        deltas = []
        for norm in (0.5, 2.0, 5.0, 20.0, 100.0):
            prob = SphereProblem(np.r_[norm, np.zeros(d - 1)], BUDGET)
            deltas.append(cap_angle(prob, RngSpec(19), 20_000).delta)
        assert deltas == sorted(deltas, reverse=True)

    def test_coverage_quick(self):
        trials, d = 400, 4
        mu = np.r_[3.0, np.zeros(d - 1)]
        gen = np.random.default_rng(20)
        hits = 0
        for t in range(trials):
            y = mu + gen.standard_normal(d)
            prob = SphereProblem(y, BUDGET)
            lo, hi = sphere_interval(prob, RngSpec(21, t), 4000)
            theta = float((y / np.linalg.norm(y)) @ mu)
            hits += lo <= theta <= hi
        assert hits / trials >= 0.9 - 3 * binomial_se(0.9, trials)

    def test_validation(self):
        with pytest.raises(ValueError):
            SphereProblem(np.array([1.0]), BUDGET)
        with pytest.raises(ValueError):
            SphereProblem(np.zeros(3), BUDGET)
