import numpy as np
import pytest

from locsim.stats_core import GaussianNoise, RngSpec, max_abs_quantile_iid, max_stat_quantile_mc
from locsim.theory_core import BudgetError, BudgetSplit, compose
from locsim.winner import IntervalSet, WinnerProblem, plausible_winner_set, winner_interval
from locsim.winner import _screening_margin_quantile


class TestBudgetSplit:
    def test_valid(self):
        b = BudgetSplit(0.1, 0.01)
        assert b.inference_level == pytest.approx(0.09)

    @pytest.mark.parametrize("alpha,nu", [(0.1, 0.1), (0.1, 0.2), (0.1, 0.5), (0.1, 0.0),
                                          (1.0, 0.1), (0.0, 0.0)])
    def test_invalid(self, alpha, nu):
        with pytest.raises(BudgetError):
            BudgetSplit(alpha, nu)

    def test_default_split(self):
        b = BudgetSplit.default(0.1)
        assert b.nu == pytest.approx(0.01)
        assert b.alpha == 0.1


def _winner_screen(noise, n_draws, built):
    """Screener that appends each PlausibleSet it builds to ``built``."""
    def screen(y, nu, rng):
        margin = _screening_margin_quantile(noise, nu, rng, n_draws)
        built.append(plausible_winner_set(y, margin))
        return built[-1]
    return screen


def _winner_correct(noise, n_draws):
    def correct(y, indices, level, rng):
        q = max_stat_quantile_mc(noise, indices, level, rng, n_draws)
        win = int(np.argmax(y))
        half = q.value * noise.marginal_scales[win]
        return IntervalSet(np.array([win]), np.array([y[win]]),
                           np.array([half]), 1.0 - level)
    return correct


class TestCompose:
    def test_full_universe_screen_is_fully_simultaneous(self):
        m, budget = 5, BudgetSplit(0.1, 0.01)
        noise = GaussianNoise(np.eye(m))

        def screen_all(y, nu, rng):
            return plausible_winner_set(y, 1e12)

        proc = compose(screen_all, _winner_correct(noise, 100_000), budget)
        y = np.random.default_rng(1).normal(size=m)
        iv, plausible = proc(y, RngSpec(21))
        assert plausible.size == m
        assert iv.half_widths[0] == pytest.approx(max_abs_quantile_iid(m, 0.09), abs=0.01)

    def test_singleton_screen_is_nominal(self):
        budget = BudgetSplit(0.1, 0.01)
        noise = GaussianNoise(np.eye(4))

        def screen_tight(y, nu, rng):
            return plausible_winner_set(y, 0.0)

        proc = compose(screen_tight, _winner_correct(noise, 100_000), budget)
        y = np.array([3.0, 0.1, -1.0, 0.4])
        iv, plausible = proc(y, RngSpec(22))
        assert plausible.size == 1
        assert iv.half_widths[0] == pytest.approx(max_abs_quantile_iid(1, 0.09), abs=0.01)

    def test_composed_winner_equals_direct_implementation(self):
        budget = BudgetSplit(0.1, 0.01)
        gen = np.random.default_rng(77)
        for trial in range(20):
            m = int(gen.integers(1, 7))
            noise = GaussianNoise(np.eye(m))
            y = gen.normal(scale=2.0, size=m)
            built = []
            proc = compose(_winner_screen(noise, 5000, built),
                           _winner_correct(noise, 5000), budget)
            rng = RngSpec(900, trial)
            iv_composed, plausible = proc(y, rng)
            iv_direct = winner_interval(WinnerProblem(y, noise, budget), rng, 5000)
            assert len(built) == 1 and plausible is built[0]
            assert plausible.realized.tolist() == iv_direct.indices.tolist()
            assert iv_composed.indices.tolist() == iv_direct.indices.tolist()
            assert iv_composed.half_widths[0] == iv_direct.half_widths[0]
