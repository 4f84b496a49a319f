import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import locsim
import locsim.lasso as lasso
import locsim.stats_core as stats_core

from locsim.erm import rademacher_mc
from locsim.experiments import rbf_covariance
from locsim.stats_core import (
    CovarianceError,
    GaussianNoise,
    RngSpec,
    _batch_se,
    _bentkus_one_sided_tail,
    bentkus_width,
    betting_ci,
    conservative_quantile,
    conservative_rank,
    contrast_quantile_mc,
    hoeffding_width,
    max_abs_quantile_iid,
    max_stat_quantile_mc,
    normal_quantile,
)
from locsim.theory_core import BudgetSplit

from oracles import (
    bentkus_width_binom,
    binomial_se,
    contrast_quantile_mc_alloc,
    max_abs_quantile_bisect,
    max_stat_quantile_mc_dense,
    phi_inv_bisect,
)

# Frozen via phi_inv_bisect (quadrature CDF + bisection).
PHI_INV_95 = 1.6448536270
PHI_INV_995 = 2.5758293035
Q_PAIR_10 = 1.9488218626   # solves (2 Phi(q) - 1)^2 = 0.9


class TestNormalQuantile:
    def test_median_is_zero(self):
        assert normal_quantile(0.5) == 0.0

    @pytest.mark.parametrize("p,expected", [(0.95, PHI_INV_95), (0.995, PHI_INV_995)])
    def test_frozen_values(self, p, expected):
        assert normal_quantile(p) == pytest.approx(expected, abs=1e-9)

    def test_matches_quadrature_oracle(self):
        for p in (0.001, 0.02, 0.3, 0.77, 0.9999):
            assert normal_quantile(p) == pytest.approx(phi_inv_bisect(p), abs=1e-9)

    def test_accuracy_across_range(self):
        from scipy.special import ndtri
        ps = np.concatenate([np.geomspace(1e-12, 0.4, 200),
                             1.0 - np.geomspace(1e-12, 0.4, 200)])
        errs = [abs(normal_quantile(float(p)) - ndtri(p)) for p in ps]
        assert max(errs) < 1e-9

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            normal_quantile(p)


class TestMaxAbsQuantileIid:
    def test_single(self):
        assert max_abs_quantile_iid(1, 0.1, 1.0) == pytest.approx(PHI_INV_95, abs=1e-9)

    def test_pair(self):
        assert max_abs_quantile_iid(2, 0.1, 1.0) == pytest.approx(Q_PAIR_10, abs=1e-9)
        assert max_abs_quantile_iid(2, 0.1, 1.0) == pytest.approx(
            max_abs_quantile_bisect(2, 0.1), abs=1e-8)

    def test_scale_equivariance(self):
        assert max_abs_quantile_iid(1, 0.1, 2.0) == pytest.approx(2 * PHI_INV_95, abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            max_abs_quantile_iid(0, 0.1)
        with pytest.raises(ValueError):
            max_abs_quantile_iid(3, 0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0, -1.0])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            max_abs_quantile_iid(3, 0.1, sigma)


class TestConservativeRank:
    ALPHAS = [k / 1000 for k in range(1, 1000)] + [0.0001, 0.0025, 0.005, 0.045, 0.09]
    SIZES = [*range(1, 201), 999, 1000, 9999, 10_000, 99_999, 100_000]

    @staticmethod
    def decimal_rank(alpha, n):
        """ceil((1 - alpha) * (n + 1)) in exact arithmetic on the decimal alpha,
        clipped to [1, n]."""
        return min(max(math.ceil((1 - Fraction(str(alpha))) * (n + 1)), 1), n)

    def test_decimal_rank_or_one_above(self):
        above = 0
        for alpha in self.ALPHAS:
            for n in self.SIZES:
                exact, rank = self.decimal_rank(alpha, n), conservative_rank(alpha, n)
                assert exact <= rank <= exact + 1, (alpha, n)
                above += rank > exact
        assert above > 0  # floating point does round some whole products up

    def test_whole_product_can_round_up(self):
        assert self.decimal_rank(0.95, 19) == 1
        assert conservative_rank(0.95, 19) == 2

    def test_empty_draws_rejected(self):
        with pytest.raises(ValueError, match="at least one draw"):
            conservative_quantile(np.array([]), 0.1)


class TestMaxStatQuantileMC:
    def test_iid_pair_matches_closed_form(self):
        noise = GaussianNoise(np.eye(2))
        est = max_stat_quantile_mc(noise, [0, 1], 0.1, RngSpec(7), 200_000)
        assert est.value == pytest.approx(Q_PAIR_10, abs=0.01)

    def test_single_matches_normal_quantile(self):
        noise = GaussianNoise(np.eye(1))
        est = max_stat_quantile_mc(noise, [0], 0.1, RngSpec(8), 200_000)
        assert est.value == pytest.approx(PHI_INV_95, abs=0.01)

    def test_perfectly_correlated_pair_collapses(self):
        noise = GaussianNoise(np.array([[1.0, 1.0], [1.0, 1.0]]))
        est = max_stat_quantile_mc(noise, [0, 1], 0.1, RngSpec(9), 200_000)
        assert est.value == pytest.approx(PHI_INV_95, abs=0.01)

    def test_iid_agreement_within_mc_error(self):
        noise = GaussianNoise(np.eye(5))
        est = max_stat_quantile_mc(noise, range(5), 0.1, RngSpec(10), 50_000)
        assert abs(est.value - max_abs_quantile_iid(5, 0.1)) <= 4 * est.mc_std_err

    def test_deterministic_given_rng(self):
        noise = GaussianNoise(np.eye(3))
        a = max_stat_quantile_mc(noise, [0, 2], 0.05, RngSpec(3, 5), 10_000)
        b = max_stat_quantile_mc(noise, [0, 2], 0.05, RngSpec(3, 5), 10_000)
        assert a == b
        c = max_stat_quantile_mc(noise, [0, 2], 0.05, RngSpec(3, 6), 10_000)
        assert c.value != a.value

    def test_monotone_in_alpha_and_subset(self):
        noise = GaussianNoise(np.eye(4))
        qs = [max_stat_quantile_mc(noise, range(4), a, RngSpec(4), 20_000).value
              for a in (0.01, 0.05, 0.1, 0.3)]
        assert sorted(qs, reverse=True) == qs
        q_small = max_stat_quantile_mc(noise, [0, 1], 0.1, RngSpec(4), 20_000).value
        q_large = max_stat_quantile_mc(noise, range(4), 0.1, RngSpec(4), 20_000).value
        assert q_small <= q_large

    def test_batch_se_matches_per_batch_quantiles(self):
        gen = np.random.default_rng(11)
        for _ in range(200):
            n, alpha = int(gen.integers(2, 5000)), float(gen.uniform(0.001, 0.999))
            stats = gen.standard_normal(n)
            b = min(20, n)
            size = n // b
            if size < 2:
                assert math.isnan(_batch_se(stats, alpha, 20))
                continue
            qs = np.array([conservative_quantile(stats[i * size:(i + 1) * size], alpha)
                           for i in range(b)])
            assert _batch_se(stats, alpha, 20) == float(qs.std(ddof=1) / math.sqrt(b))

    def test_preconditions(self):
        noise = GaussianNoise(np.eye(2))
        with pytest.raises(ValueError):
            max_stat_quantile_mc(noise, [], 0.1, RngSpec(0), 10_000)
        with pytest.raises(ValueError):
            max_stat_quantile_mc(noise, [0, 5], 0.1, RngSpec(0), 10_000)
        with pytest.raises(ValueError):
            max_stat_quantile_mc(noise, [0], 0.1, RngSpec(0), 500)


def _chunk_rows(row_floats):
    """Rows in one chunk of ``stats_core._draw_stats`` at this row width."""
    return max(stats_core._CHUNK_MIN_ROWS, stats_core._CHUNK_FLOATS // row_floats)


def _warm_peak(run):
    """Tracemalloc's peak bytes over ``run()``, called once beforehand."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def rbf1000():
    return GaussianNoise(rbf_covariance(1000, 20.0))


def test_rbf_peak_memory_is_two_blocks(rbf1000):
    # A chunk of correlated draws holds its normals and their product with
    # the factor: two blocks of at most _CHUNK_FLOATS floats.
    peak = _warm_peak(
        lambda: max_stat_quantile_mc(rbf1000, range(1000), 0.1, RngSpec(1), 10_000))
    assert peak <= 2.2 * stats_core._CHUNK_FLOATS * 8


_COVARIANCES = {
    "iid": lambda m: np.eye(m),
    "iid-2.5": lambda m: 2.5**2 * np.eye(m),
    "hetero": lambda m: np.diag(np.linspace(0.2, 3.0, m) ** 2),
    "rbf": lambda m: rbf_covariance(m, 20.0),
}


class TestMaxStatMatchesDenseOracle:
    """Full-set reuse and elementwise scaling of diagonal noise keep every
    bit of the restrict-and-multiply kernel."""

    @staticmethod
    def _check(cov, subset, n_draws, seed):
        noise = GaussianNoise(cov)
        rng = RngSpec(seed, 4)
        got = max_stat_quantile_mc(noise, subset, 0.1, rng, n_draws)
        want = max_stat_quantile_mc_dense(noise, subset, 0.1, rng, n_draws)
        assert got.value == want.value
        assert got.mc_std_err == want.mc_std_err

    @pytest.mark.parametrize("kind", sorted(_COVARIANCES))
    @pytest.mark.parametrize("full", [True, False])
    def test_m50(self, kind, full):
        subset = range(50) if full else [3, 4, 17, 30, 31, 49]
        self._check(_COVARIANCES[kind](50), subset, 5_000, 11)

    @pytest.mark.parametrize("kind", ["iid", "hetero"])
    @pytest.mark.parametrize("full", [True, False])
    def test_m1000_spans_chunks(self, kind, full):
        subset = range(1000) if full else np.arange(0, 1000, 3)
        self._check(_COVARIANCES[kind](1000), subset, 10_000, 12)


@pytest.mark.parametrize("kind", ["iid", "hetero"])
def test_max_stat_chunk_invariant(chunked_both_ways, kind):
    # Diagonal noise is scaled elementwise, so no sum depends on the chunk.
    noise = GaussianNoise(_COVARIANCES[kind](20))
    one_row, one_chunk = chunked_both_ways(
        lambda: max_stat_quantile_mc(noise, range(20), 0.1, RngSpec(21), 2000))
    assert one_row == one_chunk


@pytest.fixture(scope="module")
def capped_contrasts():
    """The contrast set ``posi_intervals`` builds over every support of a
    lasso runner-like design (200 x 8 normals, unit columns), recorded
    from its call to the contrast kernel."""
    X = np.random.default_rng(0).standard_normal((200, 8))
    X /= np.linalg.norm(X, axis=0)
    seen = []

    def record(contrasts, *args):
        seen.append(contrasts)
        return contrast_quantile_mc(contrasts, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lasso, "contrast_quantile_mc", record)
        lasso.posi_intervals(lasso.Design(X), np.zeros(200),
                             lasso.ModelSignPair((0,), (1,)), lasso._all_models(8),
                             BudgetSplit(0.1, 0.01), 1.0, RngSpec(0), 1000)
    return seen[0]


class TestContrastMatchesAllocatingOracle:
    """Reducing the product in place keeps every bit of the kernel that
    allocates its absolute values."""

    @pytest.mark.parametrize("which, scale, n_draws", [
        ("capped", 1.0, 10_000),
        ("random", 2.5, 150_000),
    ], ids=["capped-1024x8", "random-50x8"])
    def test_spans_three_chunks(self, capped_contrasts, which, scale, n_draws):
        v = (capped_contrasts if which == "capped"
             else np.random.default_rng(3).standard_normal((50, 8)))
        k, n = v.shape
        assert n_draws > 2 * _chunk_rows(n + k)
        rng = RngSpec(7, 2)
        got = contrast_quantile_mc(v, scale, 0.1, rng, n_draws)
        want = contrast_quantile_mc_alloc(v, scale, 0.1, rng, n_draws)
        assert got.value == want.value
        assert got.mc_std_err == want.mc_std_err

    def test_peak_memory_is_one_chunk(self, capped_contrasts):
        # A chunk holds its draws and one product block; an absolute value
        # taken out of place would hold a second product block.
        v = capped_contrasts
        assert v.shape == (1024, 8)
        k, n = v.shape
        peak = _warm_peak(lambda: contrast_quantile_mc(v, 1.0, 0.1, RngSpec(1), 10_000))
        assert peak <= 1.1 * _chunk_rows(n + k) * (n + k) * 8


class TestChunkSizeKeepsBits:
    """Cache-sized chunks give every statistic of 32 MB chunks with no row
    floor bit for bit, on inputs where the two chunkings differ."""

    @staticmethod
    def _check(monkeypatch, run):
        got = run()
        monkeypatch.setattr(stats_core, "_CHUNK_FLOATS", 4_000_000)
        monkeypatch.setattr(stats_core, "_CHUNK_MIN_ROWS", 1)
        want = run()
        if isinstance(got, float):
            assert got == want
        else:
            assert got.value == want.value
            assert got.mc_std_err == want.mc_std_err

    @pytest.mark.parametrize("n_draws", [10_000, 20_000])
    def test_capped_contrasts(self, monkeypatch, capped_contrasts, n_draws):
        self._check(monkeypatch, lambda: contrast_quantile_mc(
            capped_contrasts, 1.0, 0.1, RngSpec(5), n_draws))

    @pytest.mark.parametrize("kind", ["iid", "hetero", "rbf"])
    @pytest.mark.parametrize("full", [True, False])
    def test_max_stat_m1000(self, monkeypatch, rbf1000, kind, full):
        noise = rbf1000 if kind == "rbf" else GaussianNoise(_COVARIANCES[kind](1000))
        subset = range(1000) if full else np.arange(0, 1000, 3)
        self._check(monkeypatch, lambda: max_stat_quantile_mc(
            noise, subset, 0.1, RngSpec(6, 1), 10_000))

    @pytest.mark.parametrize("shape", [(5000, 500), (20000, 120)],
                             ids=["5000x500", "20000x120"])
    def test_rademacher(self, monkeypatch, shape):
        mat = np.random.default_rng(8).uniform(-1.0, 1.0, shape)
        self._check(monkeypatch, lambda: rademacher_mc(mat, RngSpec(9), 2000))


class TestContrastQuantileMC:
    def test_single_contrast(self):
        v = np.array([[1.0, 0.0, 0.0]])
        est = contrast_quantile_mc(v, 1.0, 0.1, RngSpec(11), 200_000)
        assert est.value == pytest.approx(PHI_INV_95, abs=0.01)

    def test_sign_flip_redundant(self):
        v1 = np.array([[1.0, 0.0]])
        v2 = np.array([[1.0, 0.0], [-1.0, 0.0]])
        a = contrast_quantile_mc(v1, 1.0, 0.1, RngSpec(12), 100_000)
        b = contrast_quantile_mc(v2, 1.0, 0.1, RngSpec(12), 100_000)
        assert a.value == b.value

    def test_orthonormal_pair(self):
        v = np.eye(2)
        est = contrast_quantile_mc(v, 1.0, 0.1, RngSpec(13), 200_000)
        assert est.value == pytest.approx(Q_PAIR_10, abs=0.01)

    @pytest.mark.parametrize("dim, idx, match", [
        (2, [5], "out of range"),
        (3, [-1, 0], "out of range"),
        (3, [0, 0], "distinct"),
    ])
    def test_restrict_rejects_bad_indices(self, dim, idx, match):
        with pytest.raises(CovarianceError, match=match):
            GaussianNoise.iid(dim).restrict(idx)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            contrast_quantile_mc(np.zeros((0, 3)), 1.0, 0.1, RngSpec(0), 10_000)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_noise_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="noise_scale"):
            contrast_quantile_mc(np.eye(3), scale, 0.1, RngSpec(0), 10_000)


class TestHoeffdingWidth:
    def test_frozen_values(self):
        # Arbitrary-precision (Decimal) cross-check: 0.12238734153404...
        assert hoeffding_width(100, 0.1) == pytest.approx(0.1223873415340, abs=1e-10)
        assert hoeffding_width(200, 0.05) == pytest.approx(0.0960322791320, abs=1e-10)

    def test_formula_to_machine_precision(self):
        for n, alpha in [(7, 0.2), (350, 0.01), (1, 0.5)]:
            assert hoeffding_width(n, alpha) == math.sqrt(math.log(2 / alpha) / (2 * n))

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            hoeffding_width(100, 2.0)

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    def test_nonfinite_n_rejected(self, n):
        with pytest.raises(ValueError, match="n must be at least 1 and finite"):
            hoeffding_width(n, 0.1)

    def test_monotonicity(self):
        assert hoeffding_width(200, 0.1) < hoeffding_width(100, 0.1)
        assert hoeffding_width(100, 0.05) > hoeffding_width(100, 0.1)


class TestBentkusWidth:
    @pytest.mark.parametrize("n,alpha", [(5, 0.3), (50, 0.1), (400, 0.01), (2, 0.001)])
    def test_bounded(self, n, alpha):
        w = bentkus_width(n, alpha)
        assert 0.0 < w <= 0.5

    def test_bisection_is_bracketed(self):
        # P(Bin(n, 1/2) <= ceil(n/2)) >= 1/2, so e times it caps at 1 > alpha/2.
        for n in [*range(1, 301), 999, 1000, 10_000]:
            assert _bentkus_one_sided_tail(n, 0.0) == 1.0, n

    def test_comparable_to_hoeffding(self):
        assert bentkus_width(100, 0.1) <= hoeffding_width(100, 0.1) * 1.3

    def test_coverage_bernoulli(self):
        n, alpha, trials = 50, 0.1, 10_000
        w = bentkus_width(n, alpha)
        gen = np.random.default_rng(2024)
        means = gen.integers(0, 2, size=(trials, n)).mean(axis=1)
        coverage = np.mean(np.abs(means - 0.5) <= w)
        assert coverage >= 0.9 - 3 * binomial_se(0.9, trials)

    # nu / m at the default budget for m = 10, 50 (winner-np and the --data
    # runs) and 100.
    @pytest.mark.parametrize("alpha", [1e-3, 2e-4, 1e-4])
    def test_bdtr_matches_binom_cdf_widths(self, alpha):
        for n in [*range(1, 301), 500, 999, 1000, 2000]:
            assert bentkus_width(n, alpha) == bentkus_width_binom(n, alpha), n

    def test_import_leaves_scipy_stats_out(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(locsim.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, locsim; print('scipy.stats' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert out.strip() == "False"


class TestBettingCI:
    def test_contains_truth_for_constant_data(self):
        lo, hi = betting_ci(np.full(100, 0.5), 0.1)
        assert lo <= 0.5 <= hi

    def test_nested_in_alpha(self):
        gen = np.random.default_rng(5)
        x = gen.beta(2, 5, size=150)
        tight = betting_ci(x, 0.2)
        loose = betting_ci(x, 0.05)
        assert loose[0] <= tight[0] and tight[1] <= loose[1]

    def test_domain(self):
        with pytest.raises(ValueError):
            betting_ci(np.array([0.5, 1.2]), 0.1)
        with pytest.raises(ValueError):
            betting_ci(np.array([0.5]), 0.1)

    @pytest.mark.parametrize("alpha, match", [
        (0.0, "alpha must lie in"),
        (1.0, "alpha must lie in"),
        (float("nan"), "alpha must lie in"),
        ((0.1, 0.0), "alpha must lie in"),
        ((), "at least one level"),
    ])
    def test_levels_checked_before_the_profile(self, alpha, match):
        with pytest.raises(ValueError, match=match):
            betting_ci(np.full(50, 0.5), alpha)

    def test_coverage_beta(self):
        trials, n, alpha = 2000, 100, 0.1
        truth = 2.0 / 7.0
        gen = np.random.default_rng(77)
        hits = 0
        for _ in range(trials):
            lo, hi = betting_ci(gen.beta(2, 5, size=n), alpha)
            hits += lo <= truth <= hi
        assert hits / trials >= 0.9 - 3 * binomial_se(0.9, trials)


class TestGaussianNoise:
    def test_asymmetric_rejected(self):
        with pytest.raises(CovarianceError):
            GaussianNoise(np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(CovarianceError):
            GaussianNoise(np.diag([1.0, 0.0]))

    def test_non_psd_rejected(self):
        with pytest.raises(CovarianceError):
            GaussianNoise(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_singular_psd_accepted_with_jitter(self):
        noise = GaussianNoise(np.ones((3, 3)))
        z = noise.sample(RngSpec(1).generator(), 1000)
        assert np.abs(z - z[:, :1]).max() < 1e-4

    def test_restrict(self):
        cov = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 3.0]])
        sub = GaussianNoise(cov).restrict([0, 2])
        assert np.allclose(sub.covariance, cov[np.ix_([0, 2], [0, 2])])

    @pytest.mark.parametrize("dim, idx, match", [
        (2, [5], "out of range"),
        (3, [-1, 0], "out of range"),
        (3, [0, 0], "distinct"),
    ])
    def test_restrict_rejects_bad_indices(self, dim, idx, match):
        with pytest.raises(CovarianceError, match=match):
            GaussianNoise.iid(dim).restrict(idx)

    def test_empty_rejected(self):
        for make in (lambda: GaussianNoise(np.eye(0)),
                     lambda: GaussianNoise.iid(0),
                     lambda: GaussianNoise.iid(2).restrict([])):
            with pytest.raises(CovarianceError, match="nonempty"):
                make()

    @pytest.mark.parametrize("kind", ["iid", "iid-2.5", "hetero"])
    def test_diagonal_bits_match_cholesky(self, kind):
        cov = _COVARIANCES[kind](1000)
        noise = GaussianNoise(cov)
        assert noise.diagonal
        factor = np.linalg.cholesky(cov)
        assert np.array_equal(noise.factor, factor)
        got = noise.sample(RngSpec(5).generator(), 300)
        want = RngSpec(5).generator().standard_normal((300, 1000)) @ factor.T
        assert np.array_equal(got, want)

    def test_restrict_of_diagonal_is_diagonal(self):
        noise = GaussianNoise(_COVARIANCES["hetero"](20))
        idx = [1, 7, 8, 19]
        sub = noise.restrict(idx)
        assert sub.diagonal
        assert np.array_equal(sub.marginal_scales, noise.marginal_scales[idx])
        got = sub.sample(RngSpec(6).generator(), 500)
        want = RngSpec(6).generator().standard_normal((500, 4)) @ sub.factor.T
        assert np.array_equal(got, want)

    def test_correlated_is_not_diagonal(self):
        assert not GaussianNoise(_COVARIANCES["rbf"](10)).diagonal
        assert not GaussianNoise(np.array([[1.0, 1e-300], [1e-300, 1.0]])).diagonal


class TestRngSpec:
    def test_reproducible(self):
        a = RngSpec(42, 1).generator().standard_normal(8)
        b = RngSpec(42, 1).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngSpec(42, 1).generator().standard_normal(8)
        b = RngSpec(42, 2).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_children_differ_from_parent_and_siblings(self):
        base = RngSpec(42, 1)
        draws = {tuple(s.generator().standard_normal(4))
                 for s in (base, base.child(0), base.child(1), base.child(0).child(0))}
        assert len(draws) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            RngSpec(-1)
        with pytest.raises(ValueError):
            RngSpec(0, 2**64)
