import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from locsim.stats_core import GaussianNoise, RngSpec, hoeffding_width, max_abs_quantile_iid, normal_quantile
from locsim.theory_core import BudgetSplit
from locsim.winner import (
    FileDrawerProblem,
    IntervalSet,
    PlausibleSet,
    SampleMatrix,
    WinnerProblem,
    conditional_winner_interval,
    filedrawer_region,
    np_filedrawer_region,
    np_winner_interval,
    plausible_filedrawer_set,
    plausible_winner_set,
    two_candidate_interval,
    winner_interval,
)
from locsim.winner import _hoeffding_ci, _np_margin
from locsim.experiments import rbf_covariance

from oracles import (
    binomial_se,
    conditional_winner_interval_scalar,
    filedrawer_region_separate,
    winner_interval_separate,
)

BUDGET = BudgetSplit(0.1, 0.01)


class TestPlausibleSet:
    def test_realized_must_be_plausible(self):
        with pytest.raises(ValueError, match="realized selection"):
            PlausibleSet(np.array([0, 1]), np.array([3]), 1.0)

    @pytest.mark.parametrize("margin", [-1e-12, -1.0, math.nan])
    def test_margin_must_be_nonnegative(self, margin):
        with pytest.raises(ValueError, match="margin"):
            PlausibleSet(np.array([0, 1]), np.array([0]), margin)


class TestPlausibleWinnerSet:
    def test_clear_winner(self):
        ps = plausible_winner_set(np.array([5.0, 1.2, -3.0]), 0.9)
        assert ps.indices.tolist() == [0]
        assert ps.realized.tolist() == [0]

    def test_near_winner_included(self):
        ps = plausible_winner_set(np.array([5.0, 4.0, -3.0]), 0.9)
        assert ps.indices.tolist() == [0, 1]

    def test_zero_margin_keeps_only_max(self):
        ps = plausible_winner_set(np.array([5.0, 4.0, -3.0]), 0.0)
        assert ps.indices.tolist() == [0]

    def test_ties_all_enter(self):
        ps = plausible_winner_set(np.array([2.0, 2.0, 0.0]), 0.0)
        assert ps.indices.tolist() == [0, 1]
        assert ps.realized.tolist() == [0]  # lowest tied index

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            plausible_winner_set(np.array([]), 1.0)
        with pytest.raises(ValueError):
            plausible_winner_set(np.array([1.0]), -0.1)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                plausible_winner_set(np.array([bad, 1.0]), 0.5)
            with pytest.raises(ValueError, match="finite"):
                plausible_filedrawer_set(np.array([bad, 1.0]), 0.0, 0.5)

    def test_monotone_in_margin(self):
        y = np.random.default_rng(0).normal(size=12)
        sizes = [plausible_winner_set(y, q).size for q in (0.0, 0.3, 1.0, 3.0)]
        assert sizes == sorted(sizes)


class TestPlausibleFiledrawerSet:
    def test_margin_pulls_in_near_threshold(self):
        ps = plausible_filedrawer_set(np.array([5.0, 1.2, -3.0]), 1.0, 0.9)
        assert ps.indices.tolist() == [0, 1]
        assert ps.realized.tolist() == [0, 1]

    def test_zero_margin_is_realized_selection(self):
        ps = plausible_filedrawer_set(np.array([5.0, 1.2, -3.0]), 1.0, 0.0)
        assert ps.indices.tolist() == [0, 1]

    def test_empty_selection(self):
        ps = plausible_filedrawer_set(np.array([-5.0, -6.0]), 1.0, 0.9)
        assert ps.indices.size == 0 and ps.realized.size == 0


class TestWinnerInterval:
    def test_single_candidate_nominal_width(self):
        prob = WinnerProblem(np.array([0.0]), GaussianNoise(np.eye(1)), BUDGET)
        iv = winner_interval(prob, RngSpec(101), 200_000)
        assert iv.half_widths[0] == pytest.approx(normal_quantile(0.955), abs=0.01)

    def test_tied_pair_pays_for_both(self):
        prob = WinnerProblem(np.zeros(2), GaussianNoise(np.eye(2)), BUDGET)
        iv = winner_interval(prob, RngSpec(102), 200_000)
        assert iv.half_widths[0] == pytest.approx(max_abs_quantile_iid(2, 0.09), abs=0.01)

    def test_coverage(self):
        trials, m = 2000, 10
        noise = GaussianNoise(np.eye(m))
        gen = np.random.default_rng(555)
        hits = 0
        for t in range(trials):
            y = gen.standard_normal(m)
            iv = winner_interval(WinnerProblem(y, noise, BUDGET), RngSpec(556, t), 2000)
            hits += abs(y[iv.indices[0]] - 0.0) <= iv.half_widths[0]
        assert hits / trials >= 0.9 - 3 * binomial_se(0.9, trials)


class TestFiledrawerRegion:
    def test_empty_selection_gives_empty_region(self):
        prob = FileDrawerProblem(np.array([-5.0, -6.0]), 1.0,
                                 GaussianNoise(np.eye(2)), BUDGET)
        iv = filedrawer_region(prob, RngSpec(103), 10_000)
        assert iv.is_empty

    def test_degenerate_threshold_reduces_to_fully_simultaneous(self):
        m = 6
        prob = FileDrawerProblem(np.zeros(m), -1e18, GaussianNoise(np.eye(m)), BUDGET)
        iv = filedrawer_region(prob, RngSpec(104), 200_000)
        assert iv.indices.size == m
        assert iv.half_widths[0] == pytest.approx(max_abs_quantile_iid(m, 0.09), abs=0.015)

    def test_rbf_beats_bonferroni(self):
        m, phi = 100, 20.0
        noise = GaussianNoise(rbf_covariance(m, phi))
        gen = np.random.default_rng(42)
        y = noise.sample(gen, 1)[0]
        prob = FileDrawerProblem(y, -1.0, noise, BUDGET)
        rng = RngSpec(105)
        iv = filedrawer_region(prob, rng, 50_000)
        # Recreate the plausible set the op used (same substream, so exact).
        from locsim.winner import _screening_margin_quantile
        margin = 2.0 * _screening_margin_quantile(noise, BUDGET.nu, rng.child(0), 50_000)
        k = int(np.sum(y >= -1.0 - margin))
        bonferroni = normal_quantile(1.0 - 0.09 / (2 * k))
        assert iv.half_widths[0] < bonferroni


class TestParametricCorrection:
    """The winner and file-drawer calls share one correction; it must give
    what their separate bodies gave, bit for bit, with unequal scales."""

    @staticmethod
    def _noise(kind, m, gen):
        scales = gen.uniform(0.3, 3.0, m)
        if kind == "diagonal":
            return GaussianNoise(np.diag(scales ** 2))
        return GaussianNoise(scales[:, None] * rbf_covariance(m, 4.0) * scales[None, :])

    @staticmethod
    def _same(got, want):
        assert got.indices.tolist() == want.indices.tolist()
        assert got.centers.tolist() == want.centers.tolist()
        assert got.half_widths.tolist() == want.half_widths.tolist()
        assert got.level == want.level

    @pytest.mark.parametrize("m", [5, 40])
    @pytest.mark.parametrize("kind", ["diagonal", "rbf"])
    def test_matches_separate_bodies(self, kind, m):
        gen = np.random.default_rng(m)
        noise = self._noise(kind, m, gen)
        for t in range(3):
            y = np.linspace(0.0, 2.0, m) + noise.sample(gen, 1)[0]
            rng = RngSpec(31, m, (t,))
            self._same(winner_interval(WinnerProblem(y, noise, BUDGET), rng, 2000),
                       winner_interval_separate(WinnerProblem(y, noise, BUDGET), rng, 2000))
            thresholds = {"some": float(np.median(y)), "none": y.max() + 1.0,
                          "every": y.min()}
            for which, threshold in thresholds.items():
                prob = FileDrawerProblem(y, threshold, noise, BUDGET)
                got = filedrawer_region(prob, rng, 2000)
                assert {"some": 0 < got.indices.size < m, "none": got.is_empty,
                        "every": got.indices.size == m}[which]
                self._same(got, filedrawer_region_separate(prob, rng, 2000))


class TestNpWinnerInterval:
    def test_single_candidate_exact_hoeffding(self):
        gen = np.random.default_rng(1)
        data = gen.beta(2, 5, size=(100, 1))
        iv = np_winner_interval(SampleMatrix(data), BUDGET, "hoeffding", "hoeffding")
        assert iv.half_widths[0] == pytest.approx(hoeffding_width(100, 0.09), abs=1e-12)

    def test_margin_formula(self):
        gen = np.random.default_rng(2)
        samples = SampleMatrix(gen.beta(2, 5, size=(100, 5)))
        margin = 4.0 * _np_margin(samples.n, samples.m, BUDGET, "hoeffding")
        assert margin == pytest.approx(4.0 * math.sqrt(math.log(2 * 5 / 0.01) / 200.0),
                                       abs=1e-12)
        assert margin == pytest.approx(0.743384, abs=1e-5)

    def test_coverage_beta_columns(self):
        trials, n, m = 2000, 100, 5
        truth = 2.0 / 7.0
        gen = np.random.default_rng(321)
        hits = 0
        for _ in range(trials):
            data = gen.beta(2, 5, size=(n, m))
            iv = np_winner_interval(SampleMatrix(data), BUDGET, "bentkus", "betting")
            hits += iv.covers(np.full(m, truth))
        assert hits / trials >= 0.9 - 3 * binomial_se(0.9, trials)

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            SampleMatrix(np.array([[0.5, 1.4], [0.2, 0.3]]))

    def test_hoeffding_ci_level_sequence(self):
        x = np.random.default_rng(6).beta(2, 5, size=60)
        inner, outer = _hoeffding_ci(x, 0.2), _hoeffding_ci(x, 0.05)
        lo, hi = _hoeffding_ci(x, (0.2, 0.05))
        assert lo.tolist() == [inner[0], outer[0]] and hi.tolist() == [inner[1], outer[1]]


class TestNpFiledrawerRegion:
    def test_unreachable_threshold(self):
        gen = np.random.default_rng(3)
        samples = SampleMatrix(gen.beta(2, 5, size=(50, 4)))
        iv = np_filedrawer_region(samples, 1.5, BUDGET)
        assert iv.is_empty

    def test_low_threshold_reduces_to_bonferroni_over_all(self):
        gen = np.random.default_rng(4)
        samples = SampleMatrix(gen.beta(2, 5, size=(80, 4)))
        iv = np_filedrawer_region(samples, -1.0, BUDGET, "hoeffding", "hoeffding")
        assert iv.indices.size == 4
        expect = hoeffding_width(80, 0.09 / 4)
        assert np.allclose(iv.half_widths, expect)

    def test_coverage(self):
        trials, n, m, T = 2000, 100, 5, 0.3
        truth = np.full(m, 2.0 / 7.0)
        gen = np.random.default_rng(99)
        hits = 0
        for _ in range(trials):
            data = gen.beta(2, 5, size=(n, m))
            iv = np_filedrawer_region(SampleMatrix(data), T, BUDGET, "bentkus", "hoeffding")
            hits += iv.is_empty or iv.covers(truth)
        assert hits / trials >= 0.9 - 3 * binomial_se(0.9, trials)


class TestTwoCandidateInterval:
    def test_switch_threshold_value(self):
        assert 2 * math.sqrt(2) * max_abs_quantile_iid(1, 0.01) == pytest.approx(
            7.2855455, abs=1e-5)

    def test_wide_gap_gives_nominal_width(self):
        iv = two_candidate_interval(np.array([0.0, 10.0]), BUDGET, 1.0)
        assert iv.half_widths[0] == pytest.approx(normal_quantile(0.955), abs=1e-9)
        assert iv.indices[0] == 1

    def test_tie_pays_for_two(self):
        iv = two_candidate_interval(np.array([0.0, 0.0]), BUDGET, 1.0)
        assert iv.half_widths[0] == pytest.approx(max_abs_quantile_iid(2, 0.09), abs=1e-9)

    def test_boundary_is_exactly_the_threshold(self):
        thr = 2 * math.sqrt(2) * max_abs_quantile_iid(1, 0.01)
        just_in = two_candidate_interval(np.array([0.0, thr - 1e-9]), BUDGET)
        just_out = two_candidate_interval(np.array([0.0, thr + 1e-9]), BUDGET)
        assert just_in.half_widths[0] > just_out.half_widths[0]

    def test_scale(self):
        iv = two_candidate_interval(np.array([0.0, 100.0]), BUDGET, 2.0)
        assert iv.half_widths[0] == pytest.approx(2 * normal_quantile(0.955), abs=1e-9)

    def test_bad_input_rejected(self):
        for y, sigma in (([0.0, 1.0, 2.0], 1.0), ([np.nan, 1.0], 1.0),
                         ([np.inf, 1.0], 1.0), ([0.0, 1.0], 0.0)):
            with pytest.raises(ValueError):
                two_candidate_interval(y, BUDGET, sigma)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_nonfinite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            two_candidate_interval([0.0, 1.0], BUDGET, sigma)


class TestConditionalWinnerInterval:
    def test_no_truncation_matches_nominal(self):
        lo, hi = conditional_winner_interval(np.array([3.0, -1e10]), 1.0, 0.1)
        z = normal_quantile(0.95)
        assert lo == pytest.approx(3.0 - z, abs=1e-6)
        assert hi == pytest.approx(3.0 + z, abs=1e-6)

    def test_wide_gap_close_to_nominal(self):
        lo, hi = conditional_winner_interval(np.array([10.0, 0.0]), 1.0, 0.1)
        nominal = 2 * normal_quantile(0.95)
        assert abs((hi - lo) - nominal) / nominal < 0.05

    def test_near_tie_degenerates(self):
        lo, hi = conditional_winner_interval(np.array([0.0, -1e-12]), 1.0, 0.1)
        assert lo == -math.inf

    @settings(deadline=None, max_examples=40)
    @given(y=arrays(np.float64, st.tuples(st.integers(2, 8), st.integers(2, 12)),
                    elements=st.floats(-1.0, 1.0)),
           scale=st.sampled_from([1e-3, 1.0, 1e3, 1e6]),
           sigma=st.floats(1e-6, 40.0), per_row=st.booleans(),
           gap=st.floats(0.0, 1e-3), alpha=st.floats(0.01, 0.5))
    def test_batch_matches_scalar_oracle(self, y, scale, sigma, per_row, gap, alpha):
        y = y * scale
        # Plant a near-tie (row 0) and a row with every candidate tied (row 1).
        y[0, :2] = y[0].max(), y[0].max() - gap * sigma
        y[1] = y[1, 0]
        sig = sigma * (1.0 + np.arange(len(y))) if per_row else sigma
        lo, hi = conditional_winner_interval(y, sig, alpha)
        assert lo.shape == hi.shape == (len(y),)
        assert lo[1] == hi[1] == -math.inf
        for t, s in enumerate(np.broadcast_to(sig, lo.shape)):
            expect = conditional_winner_interval_scalar(y[t], float(s), alpha)
            assert (lo[t], hi[t]) == expect
        single = conditional_winner_interval(y[0], float(np.ravel(sig)[0]), alpha)
        assert all(isinstance(v, float) for v in single)
        assert single == (lo[0], hi[0])

    def test_bad_input_rejected(self):
        y = np.arange(12.0).reshape(3, 4)
        for args in ((y, np.array([1.0, 0.0, 1.0])),  # a per-row sigma of 0
                     (y, np.array([1.0, np.inf, 1.0])),  # a per-row sigma of inf
                     (np.array([1.0, 0.0]), np.inf),
                     (y, np.ones(2)),                  # one sigma per row, wrong count
                     (y[None], 1.0),                   # 3-d outcomes
                     (y[:, :1], 1.0),                  # m = 1
                     (y[0, :1], 1.0),
                     (np.array([np.nan, 1.0]), 1.0),   # non-finite outcomes
                     (np.array([np.inf, 1.0]), 1.0),
                     (np.where(y == 5.0, -np.inf, y), 1.0)):
            with pytest.raises(ValueError):
                conditional_winner_interval(*args, 0.1)

    def test_conditional_coverage_given_selection(self):
        trials = 2000
        gen = np.random.default_rng(2718)
        hits = kept = 0
        while kept < trials:
            y = gen.standard_normal(2)
            if np.argmax(y) != 0:
                continue
            kept += 1
            lo, hi = conditional_winner_interval(y, 1.0, 0.1)
            hits += lo <= 0.0 <= hi
        assert hits / trials >= 0.9 - 3 * binomial_se(0.9, trials)


class TestStructuralInvariants:
    def test_nan_half_width_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            IntervalSet(np.array([0]), np.array([1.0]), np.array([np.nan]), 0.9)

    def test_nestedness_of_final_quantile(self):
        noise = GaussianNoise(rbf_covariance(12, 3.0))
        from locsim.stats_core import max_stat_quantile_mc
        inner = max_stat_quantile_mc(noise, [2, 3, 4], 0.09, RngSpec(9), 20_000)
        outer = max_stat_quantile_mc(noise, [1, 2, 3, 4, 5, 6], 0.09, RngSpec(9), 20_000)
        assert inner.value <= outer.value

    def test_plausible_shrinks_as_nu_budget_grows(self):
        # Larger nu means a smaller screening quantile, hence a smaller margin.
        y = np.random.default_rng(8).normal(size=15)
        m = y.size
        sizes = []
        for nu in (0.001, 0.01, 0.05):
            margin = max_abs_quantile_iid(m, nu)
            sizes.append(plausible_winner_set(y, margin).size)
        assert sizes == sorted(sizes, reverse=True)

    def test_reduction_to_fully_simultaneous(self):
        y = np.random.default_rng(10).normal(size=6)
        ps = plausible_winner_set(y, 1e12)
        assert ps.indices.size == 6

    def test_reduction_to_nominal(self):
        y = np.array([4.0, 0.0, -1.0])
        ps = plausible_winner_set(y, 0.0)
        assert ps.size == 1
