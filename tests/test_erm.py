import math
from itertools import product

import numpy as np
import pytest

import locsim.erm as erm_mod
import locsim.stats_core as stats_core
from locsim import cli
from locsim.erm import (
    LocalizedBound,
    LossMatrix,
    erm_risk_bound,
    load_loss_matrix,
    plausible_hypotheses,
    rademacher_mc,
)
from locsim.stats_core import RngSpec
from locsim.theory_core import BudgetSplit

from oracles import erm_risk_bound_two_pass, exact_rademacher_mean_abs

BUDGET = BudgetSplit(0.1, 0.01)


class TestLossMatrix:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            LossMatrix(np.array([[0.0, 1.5]]))

    def test_labels_default(self):
        lm = LossMatrix(np.zeros((3, 2)))
        assert lm.labels == ("f0", "f1")

    @pytest.mark.parametrize("shape, axis", [((0, 3), "samples"), ((3, 0), "hypotheses")])
    def test_empty_axis_rejected(self, shape, axis):
        with pytest.raises(ValueError, match=f"no {axis}"):
            LossMatrix(np.zeros(shape))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "losses.csv"
        path.write_text("good,bad\n0.0,1.0\n0.5,0.5\n1.0,0.0\n")
        lm = load_loss_matrix(path)
        assert lm.labels == ("good", "bad")
        assert lm.n == 3
        assert np.allclose(lm.empirical_risks(), [0.5, 0.5])

    @staticmethod
    def _erm_on(tmp_path, text):
        """(exit code, CSV rows without runtime_ms) of ``locsim erm --data``
        on a loss file holding ``text``."""
        data, out = tmp_path / "losses.csv", tmp_path / "out.csv"
        data.write_text(text)
        code = cli.main(["erm", "--data", str(data), "--out", str(out)])
        rows = out.read_text().splitlines() if code == 0 else []
        return code, [row.rsplit(",", 1)[0] for row in rows]

    def test_csv_trailing_blank_line(self, tmp_path):
        gen = np.random.default_rng(0)
        body = "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                       for row in gen.random((30, 4)))
        text = "f0,f1,f2,f3\n" + body
        plain = self._erm_on(tmp_path, text)
        assert plain[0] == 0 and len(plain[1]) == 2
        assert self._erm_on(tmp_path, text + "\n") == plain

    def test_csv_ragged_row(self, tmp_path, capsys):
        code, _ = self._erm_on(tmp_path, "a,b\n0.5,0.5\n0.1,0.2,0.3\n")
        assert code == 2
        assert "number of columns changed" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "a,b\n", "a,b\n\n# note\n"])
    def test_csv_without_samples(self, tmp_path, text):
        path = tmp_path / "losses.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="no sample rows"):
            load_loss_matrix(path)


class TestRademacherMC:
    def test_zero_losses_zero_gap(self):
        assert rademacher_mc(LossMatrix(np.zeros((40, 3))), RngSpec(1), 2000) == 0.0

    def test_constant_column_closed_form(self):
        n, c = 16, 0.8
        est = rademacher_mc(LossMatrix(np.full((n, 1), c)), RngSpec(2), 40_000)
        exact = 2.0 * c * exact_rademacher_mean_abs(n)
        assert est >= exact  # 3 SE padding keeps it an upper bound
        assert est == pytest.approx(exact, rel=0.05)

    def test_exact_enumeration_small_matrix(self):
        n = 12
        gen = np.random.default_rng(3)
        mat = gen.uniform(-1, 1, size=(n, 3))
        exact = 0.0
        for signs in product((-1.0, 1.0), repeat=n):
            exact += np.abs(np.array(signs) @ mat).max() / n
        exact *= 2.0 / 2**n
        est = rademacher_mc(LossMatrix(mat), RngSpec(4), 40_000)
        assert est == pytest.approx(exact, rel=0.05)
        assert est >= exact * 0.999

    def test_duplicate_column_no_change(self):
        gen = np.random.default_rng(5)
        mat = gen.uniform(0, 1, size=(30, 4))
        doubled = np.hstack([mat, mat[:, :1]])
        a = rademacher_mc(LossMatrix(mat), RngSpec(6), 5000)
        b = rademacher_mc(LossMatrix(doubled), RngSpec(6), 5000)
        assert a == b

    def test_chunk_invariant(self, chunked_both_ways):
        # Signs times 0/1 losses sum exactly whatever the BLAS blocking.
        mat = (np.random.default_rng(11).random((60, 7)) < 0.3).astype(float)
        one_row, one_chunk = chunked_both_ways(lambda: rademacher_mc(mat, RngSpec(12), 2000))
        assert one_row == one_chunk

    @staticmethod
    def _takes(mat, n_draws):
        takes = []
        real = erm_mod._draw_stats

        def spy(n_draws, row_floats, draw):
            return real(n_draws, row_floats, lambda take: takes.append(take) or draw(take))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(erm_mod, "_draw_stats", spy)
            rademacher_mc(mat, RngSpec(13), n_draws)
        return takes

    def test_row_width_is_signs_plus_products(self, monkeypatch):
        # A 5000 x 500 matrix gives rows of 5000 signs and 500 products, so
        # 50 draws fill one chunk of 50 * 5500 floats and overflow one less.
        monkeypatch.setattr(stats_core, "_CHUNK_MIN_ROWS", 1)
        mat = np.zeros((5000, 500))
        monkeypatch.setattr(stats_core, "_CHUNK_FLOATS", 50 * 5500)
        assert self._takes(mat, 50) == [50]
        monkeypatch.setattr(stats_core, "_CHUNK_FLOATS", 50 * 5500 - 1)
        assert self._takes(mat, 50) == [49, 1]

    def test_chunks_keep_the_row_floor(self):
        # Rows of 20500 floats fit six to a chunk; the floor takes 128.
        assert self._takes(np.zeros((20000, 500)), 300) == [128, 128, 44]

    def test_empty_subset_rejected(self):
        nan = np.zeros((10, 3))
        nan[2, 1] = np.nan
        for mat, n_draws in ((np.zeros((10, 0)), 100), (np.zeros((0, 3)), 100),
                             (np.zeros((10, 3)), 1), (nan, 100),         # a NaN loss
                             (np.full((10, 3), 5.0), 100),              # outside [-1, 1]
                             (np.zeros(10), 100)):                       # one-dimensional
            with pytest.raises(ValueError):
                rademacher_mc(mat, RngSpec(0), n_draws)


class TestPlausibleHypotheses:
    def test_single_hypothesis(self):
        lm = LossMatrix(np.random.default_rng(0).uniform(0, 1, size=(20, 1)))
        assert plausible_hypotheses(lm, 0.0, 0.01).tolist() == [0]

    def test_huge_gap_keeps_everything(self):
        lm = LossMatrix(np.random.default_rng(1).uniform(0, 1, size=(20, 7)))
        assert plausible_hypotheses(lm, 10.0, 0.01).size == 7

    def test_threshold_formula(self):
        # slack = 4*0.05 + 4*sqrt(2 log(100) / 400) = 0.80697...
        n = 400
        risks = np.array([0.0, 0.5, 0.80, 0.81])
        losses = np.tile(risks, (n, 1))
        lm = LossMatrix(losses)
        keep = plausible_hypotheses(lm, 0.05, 0.01)
        slack = 0.2 + 4 * math.sqrt(2 * math.log(100) / 400)
        assert slack == pytest.approx(0.8069709, abs=1e-6)
        assert keep.tolist() == [0, 1, 2]

    def test_monotone_in_gap_and_nu(self):
        lm = LossMatrix(np.random.default_rng(2).uniform(0, 1, size=(50, 9)))
        a = plausible_hypotheses(lm, 0.01, 0.01)
        b = plausible_hypotheses(lm, 0.05, 0.01)
        assert set(a.tolist()) <= set(b.tolist())
        c = plausible_hypotheses(lm, 0.01, 0.001)
        assert set(a.tolist()) <= set(c.tolist())

    def test_nan_gap_rejected(self):
        # A NaN slack would keep no hypothesis, not even the ERM.
        lm = LossMatrix(np.random.default_rng(3).uniform(0, 1, size=(20, 4)))
        with pytest.raises(ValueError, match="gap_full"):
            plausible_hypotheses(lm, math.nan, 0.01)

    def test_contains_all_minimizers(self):
        losses = np.zeros((30, 3))
        losses[:, 2] = 1.0
        keep = plausible_hypotheses(LossMatrix(losses), 0.0, 0.5)
        assert 0 in keep and 1 in keep


def _runner_losses(seed):
    # The coverage runner's problem: n = 200, 50 Bernoulli hypotheses.
    means = np.linspace(0.1, 0.9, 50)
    gen = np.random.default_rng(seed)
    return LossMatrix((gen.random((200, means.size)) < means).astype(float))


def _dominant_losses():
    # One near-zero-risk hypothesis among deterministic risk-1 ones.
    gen = np.random.default_rng(9)
    good = (gen.random((400, 1)) < 0.02).astype(float)
    return LossMatrix(np.hstack([good, np.ones((400, 30))]))


class TestErmRiskBound:
    def test_single_hypothesis_reduces_to_one_function_bound(self):
        gen = np.random.default_rng(7)
        lm = LossMatrix(gen.uniform(0, 1, size=(200, 1)))
        res = erm_risk_bound(lm, BUDGET, RngSpec(8), 2000)
        dev = math.sqrt((2 / 200) * math.log(1 / 0.09))
        assert res.plausible_count == 1
        assert res.bound == pytest.approx(res.erm_risk + res.gap_local + dev, abs=1e-12)

    def test_dominant_hypothesis_localizes(self):
        # The plausible set collapses and the localized gap drops.
        res = erm_risk_bound(_dominant_losses(), BUDGET, RngSpec(10), 4000)
        assert res.erm_index == 0
        assert res.plausible_count == 1
        assert res.gap_local < res.gap_full

    def test_gap_invariant_enforced(self):
        with pytest.raises(ValueError):
            LocalizedBound(0, 0.1, 0.05, 0.06, 1, 0.5, BUDGET)

    def test_validity_quick(self):
        # Smaller sibling of the acceptance run: known Bernoulli means.
        trials, n, F = 300, 200, 20
        means = np.linspace(0.15, 0.85, F)
        gen = np.random.default_rng(11)
        holds = 0
        for t in range(trials):
            losses = (gen.random((n, F)) < means[None, :]).astype(float)
            res = erm_risk_bound(LossMatrix(losses), BUDGET, RngSpec(12, t), 400)
            holds += means[res.erm_index] <= res.bound
        assert holds / trials >= 0.9 - 3 * math.sqrt(0.09 / trials)


class TestSinglePassWhenNothingIsScreened:
    """The localized gap skips its Monte-Carlo pass when screening keeps the
    whole class, and matches the two-pass oracle either way."""

    @pytest.mark.parametrize("losses, budget, passes", [
        (_runner_losses(0), BudgetSplit.default(0.1), 1),
        (_runner_losses(1), BudgetSplit.default(0.1), 1),
        (_dominant_losses(), BUDGET, 2),
    ], ids=["runner-seed0", "runner-seed1", "dominant"])
    def test_matches_two_pass_oracle(self, losses, budget, passes, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return rademacher_mc(*args, **kwargs)

        monkeypatch.setattr(erm_mod, "rademacher_mc", counted)
        rng = RngSpec(3, 5002, (7,))
        res = erm_mod.erm_risk_bound(losses, budget, rng, 500)
        assert res == erm_risk_bound_two_pass(losses, budget, rng, 500)
        assert len(calls) == passes
        assert (res.plausible_count == losses.n_hypotheses) == (passes == 1)
