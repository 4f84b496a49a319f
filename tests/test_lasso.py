import math
import re

import numpy as np
import pytest

from locsim.lasso import (
    DegeneracyError,
    Design,
    ModelSignPair,
    _all_models,
    _box,
    _selection_event,
    column_max_quantile,
    enumerate_plausible_models,
    exact_screening,
    lasso_solve,
    marginal_screening_plausible,
    posi_intervals,
    safe_screening,
    selection_polyhedron,
)
from locsim import lasso
from locsim.lp import lp_maximize
from locsim.stats_core import (RngSpec, contrast_quantile_mc, max_abs_quantile_iid,
                               normal_quantile)
from locsim.theory_core import BudgetSplit

from oracles import (grid_lasso_models, lasso_supports_ista, posi_contrasts_loop,
                     safe_screening_closed_form)

BUDGET = BudgetSplit(0.1, 0.01)


def random_instance(seed, n=30, d=2, signal=2.0):
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, d))
    X /= np.linalg.norm(X, axis=0)
    beta = gen.normal(scale=signal, size=d)
    y = X @ beta + gen.standard_normal(n)
    return Design(X), y


def grid_lasso_pairs(design, y, lam, s_nu, steps=200):
    """Sign-level grid oracle: (support, signs) seen anywhere in the box."""
    G = design.XtX
    u0 = design.X.T @ np.asarray(y, dtype=float)
    from oracles import box_grid
    pts = box_grid(u0, s_nu, steps)
    L = float(np.linalg.eigvalsh(G)[-1])
    B = np.zeros_like(pts)
    for it in range(6000):
        grad = B + (pts - G @ B) / L
        new = np.sign(grad) * np.maximum(np.abs(grad) - lam / L, 0.0)
        if it % 50 == 49 and np.max(np.abs(new - B)) < 1e-11:
            B = new
            break
        B = new
    pairs = set()
    for col in range(pts.shape[1]):
        sup = tuple(np.flatnonzero(np.abs(B[:, col]) > 0.0).tolist())
        sgn = tuple(int(v) for v in np.sign(B[list(sup), col]))
        pairs.add(ModelSignPair(sup, sgn))
    return pairs


class TestLassoSolve:
    def test_orthonormal_soft_threshold(self):
        X = np.eye(4)[:, :2]
        design = Design(X)
        beta, pair = lasso_solve(design, X @ np.array([3.0, 0.1]), 1.0)
        assert np.allclose(beta, [2.0, 0.0])
        assert pair == ModelSignPair((0,), (1,))

    def test_large_lambda_empty_model(self):
        X = np.eye(4)[:, :2]
        beta, pair = lasso_solve(Design(X), X @ np.array([3.0, 0.1]), 5.0)
        assert pair == ModelSignPair((), ())
        assert np.all(beta == 0.0)

    def test_matches_proximal_gradient_oracle(self):
        design, y = random_instance(11, n=20, d=4)
        lam = 0.5
        beta, _ = lasso_solve(design, y, lam)
        sup = lasso_supports_ista(design.XtX, (design.X.T @ y)[:, None], lam)
        ista = np.zeros(4)
        G, h = design.XtX, design.X.T @ y
        L = np.linalg.eigvalsh(G)[-1]
        b = np.zeros(4)
        for _ in range(100_000):
            g = b + (h - G @ b) / L
            b = np.sign(g) * np.maximum(np.abs(g) - lam / L, 0.0)
        assert np.abs(beta - b).max() < 1e-8
        assert {tuple(np.flatnonzero(beta).tolist())} == sup

    def test_kkt_residuals(self):
        for seed in range(10):
            design, y = random_instance(seed, n=25, d=5)
            lam = 0.6
            beta, pair = lasso_solve(design, y, lam)
            grad = design.X.T @ (y - design.X @ beta)
            for j in range(5):
                if j in pair.M:
                    s_j = pair.s[pair.M.index(j)]
                    assert abs(grad[j] - lam * s_j) <= 1e-6 * max(1.0, lam)
                else:
                    assert abs(grad[j]) <= lam * (1.0 + 1e-6)

    def test_invalid_lambda(self):
        design, y = random_instance(0)
        for lam in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="lambda"):
                lasso_solve(design, y, lam)

    def test_degenerate_design_rejected(self):
        X = np.ones((10, 2))  # duplicate columns
        y = X @ np.array([1.0, 1.0])
        with pytest.raises(DegeneracyError):
            lasso_solve(Design(X), y, 0.1)


class TestSelectionPolyhedron:
    def test_observed_point_strictly_inside(self):
        design, y = random_instance(3, d=3)
        _, pair = lasso_solve(design, y, 0.8)
        poly = selection_polyhedron(design, pair, 0.8)
        assert poly.contains(y)
        assert np.all(poly.A @ y < poly.b)
        assert poly.n_rows == 2 * (3 - len(pair.M)) + len(pair.M)

    def test_empty_model_rows(self):
        X = np.eye(4)[:, :2]
        design = Design(X)
        lam = 5.0
        _, pair = lasso_solve(design, X @ np.array([3.0, 0.1]), lam)
        poly = selection_polyhedron(design, pair, lam)
        gen = np.random.default_rng(1)
        for _ in range(200):
            yp = gen.normal(scale=4.0, size=4)
            inside = np.max(np.abs(X.T @ yp)) < lam
            assert poly.contains(yp) == inside

    def test_membership_agrees_with_solver(self):
        design, y = random_instance(21, n=15, d=2)
        lam = 0.7
        _, pair = lasso_solve(design, y, lam)
        poly = selection_polyhedron(design, pair, lam)
        gen = np.random.default_rng(5)
        for _ in range(1000):
            yp = gen.normal(scale=2.0, size=15)
            _, pp = lasso_solve(design, yp, lam)
            assert poly.contains(yp) == (pp == pair)


class TestSafeScreening:
    def test_zero_radius_everything_safe(self):
        design, y = random_instance(7, d=4)
        _, pair = lasso_solve(design, y, 0.5)
        safe_in, safe_out = safe_screening(design, y, pair, 0.5, 0.0)
        assert safe_in == set(pair.M)
        assert safe_out == set(range(4)) - set(pair.M)

    def test_huge_radius_nothing_safe(self):
        design, y = random_instance(7, d=4)
        _, pair = lasso_solve(design, y, 0.5)
        safe_in, safe_out = safe_screening(design, y, pair, 0.5, 10.0)
        assert safe_in == set() and safe_out == set()

    def test_safe_variables_never_flip_in_exact_neighbors(self):
        for seed in range(8):
            design, y = random_instance(seed + 50, n=25, d=3)
            lam = 0.6
            _, pair = lasso_solve(design, y, lam)
            s_nu = 0.8
            safe_in, safe_out = safe_screening(design, y, pair, lam, s_nu)
            neighbors = exact_screening(design, y, pair, lam, s_nu)
            for nb in neighbors:
                for j in safe_in:
                    assert j in nb.M
                for j in safe_out:
                    assert j not in nb.M

    def test_matches_closed_form_on_visited_pairs(self):
        # The event-row rule equals the closed form on every pair whose
        # region meets the box, so on every pair a fill visits, capped or not.
        for d in range(2, 9):
            for seed in range(2):
                design, y = random_instance(700 + 10 * d + seed, n=40, d=d)
                for s_nu in (0.3, 1.0):
                    _, frontier = enumerate_plausible_models(design, y, 1.0, s_nu, p_max=40)
                    for pair in frontier.visited:
                        assert (safe_screening(design, y, pair, 1.0, s_nu)
                                == safe_screening_closed_form(design, y, pair, 1.0, s_nu))


class TestExactScreening:
    def test_interior_pair_has_no_neighbors(self):
        X = np.eye(2)[:, :1]
        design = Design(X)
        y = X @ np.array([3.0])
        _, pair = lasso_solve(design, y, 1.0)
        assert exact_screening(design, y, pair, 1.0, 0.5) == set()

    def test_box_crossing_lambda_gives_null_model(self):
        X = np.eye(2)[:, :1]
        design = Design(X)
        y = X @ np.array([1.2])
        _, pair = lasso_solve(design, y, 1.0)
        assert exact_screening(design, y, pair, 1.0, 0.5) == {ModelSignPair((), ())}

    def test_flood_fill_matches_grid_pairs_d2(self):
        for seed in (101, 102, 103):
            design, y = random_instance(seed, n=30, d=2)
            lam, s_nu = 1.0, 0.8
            models, frontier = enumerate_plausible_models(design, y, lam, s_nu)
            oracle_pairs = grid_lasso_pairs(design, y, lam, s_nu, steps=400)
            assert oracle_pairs <= set(frontier.visited)
            assert set(frontier.visited) == oracle_pairs


class TestEnumeratePlausibleModels:
    def test_zero_radius_returns_selected_model_only(self):
        design, y = random_instance(31, d=4)
        _, pair = lasso_solve(design, y, 0.5)
        models, frontier = enumerate_plausible_models(design, y, 0.5, 0.0)
        assert models == {pair.M}
        assert not frontier.capped

    @pytest.mark.parametrize("seed, lam, s_nu, p_max", [(32, 0.8, 0.8, 2000),
                                                         (33, 0.2, 2.0, 1)])
    def test_start_is_the_lasso_pair(self, seed, lam, s_nu, p_max):
        design, y = random_instance(seed, d=3)
        _, frontier = enumerate_plausible_models(design, y, lam, s_nu, p_max=p_max)
        assert frontier.capped == (p_max == 1)
        assert frontier.start == lasso_solve(design, y, lam)[1]
        assert frontier.start in frontier.visited

    def test_d1_two_models(self):
        X = np.eye(2)[:, :1]
        design = Design(X)
        y = X @ np.array([1.2])
        models, _ = enumerate_plausible_models(design, y, 1.0, 0.5)
        assert models == {(0,), ()}

    def test_monotone_in_radius(self):
        design, y = random_instance(32, d=3)
        prev = None
        for s_nu in (0.0, 0.3, 0.8, 1.5):
            models, _ = enumerate_plausible_models(design, y, 0.8, s_nu)
            if prev is not None:
                assert prev <= models
            prev = models

    def test_safe_rules_do_not_change_output(self):
        for seed in range(6):
            design, y = random_instance(seed + 200, d=3)
            with_safe, fr1 = enumerate_plausible_models(design, y, 0.8, 0.7)
            without, fr2 = enumerate_plausible_models(design, y, 0.8, 0.7,
                                                      use_safe=False)
            assert with_safe == without
            assert fr1.lp_count <= fr2.lp_count

    def test_safe_rules_cut_lps_at_d8(self):
        # The lasso runner's instance (n = 200, lambda0 = 6, sparsity 0.5):
        # the safe rules keep the model set and strictly cut the LPs.
        d, n = 8, 200
        lam = 6.0 * math.sqrt(2.0 * math.log(math.e * d))
        for seed in range(3):
            gen = np.random.default_rng(800 + seed)
            X = gen.standard_normal((n, d))
            X /= np.linalg.norm(X, axis=0)
            design = Design(X)
            beta = np.zeros(d)
            beta[:2], beta[2:4] = 2.0 * lam, lam
            y = X @ beta + gen.standard_normal(n)
            s_nu = 2.0 * column_max_quantile(design, 1.0, BUDGET.nu, RngSpec(810 + seed), 20_000)
            with_safe, fr1 = enumerate_plausible_models(design, y, lam, s_nu)
            without, fr2 = enumerate_plausible_models(design, y, lam, s_nu, use_safe=False)
            assert not fr1.capped
            assert with_safe == without
            assert fr1.lp_count < fr2.lp_count

    def test_found_pairs_are_not_tested_again(self):
        # Without the safe rules every face needs an LP, unless the pair
        # across it was already found: each adjacency between two visited
        # pairs is then tested from one side only.
        design, y = random_instance(201, d=3)
        _, frontier = enumerate_plausible_models(design, y, 0.8, 0.7, use_safe=False)
        faces = sum(2 * design.d - len(pair.M) for pair in frontier.visited)
        assert len(frontier.visited) >= 2
        assert frontier.lp_count < faces

    def test_pmax_cap_falls_back_to_all_models(self):
        design, y = random_instance(33, d=3)
        models, frontier = enumerate_plausible_models(design, y, 0.2, 2.0, p_max=1)
        assert frontier.capped
        assert len(models) == 2**3
        assert () in models and (0, 1, 2) in models

    def test_every_visited_region_meets_the_box(self):
        # A feasibility LP per visited pair: its closed region intersects
        # the box the fill was run over.
        design, y = random_instance(34, d=3)
        _, frontier = enumerate_plausible_models(design, y, 0.8, 0.9)
        assert len(frontier.visited) >= 2
        for pair in frontier.visited:
            event, _ = _selection_event(design, pair, 0.8)
            res = lp_maximize(np.zeros(design.d), event.intersect(_box(design, y, 0.9)))
            assert res.status != "infeasible"

    def test_oracle_containment_d2_d3(self):
        hits_eq = 0
        cases = [(2, s) for s in range(300, 306)] + [(3, s) for s in range(400, 404)]
        for d, seed in cases:
            design, y = random_instance(seed, n=30, d=d)
            lam, s_nu = 1.0, 0.7
            models, _ = enumerate_plausible_models(design, y, lam, s_nu)
            steps = 120 if d == 2 else 40
            oracle = grid_lasso_models(design, y, lam, s_nu, steps=steps,
                                       extra_random=20_000, seed=seed)
            assert oracle <= models
            hits_eq += oracle == models
        assert hits_eq >= len(cases) - 1


class TestPosiIntervals:
    def test_single_model_single_feature_nominal(self):
        design, y = random_instance(41, n=40, d=3)
        _, pair = lasso_solve(design, y, 2.0)
        if not pair.M:
            pair = ModelSignPair((0,), (1,))
        models = {pair.M}
        iv = posi_intervals(design, y, pair, models, BUDGET, 1.0, RngSpec(3), 200_000)
        ws_inv = design.gram_inverse(pair.M)
        for k, j in enumerate(pair.M):
            expect = normal_quantile(1 - 0.09 / 2) * math.sqrt(ws_inv[k, k])
            if len(pair.M) == 1:
                assert iv.half_widths[k] == pytest.approx(expect, rel=0.01)

    def test_orthonormal_singletons_match_iid_quantile(self):
        d = 4
        X = np.eye(10)[:, :d]
        design = Design(X)
        y = X @ np.array([3.0, 0.0, 0.0, 0.0])
        pair = ModelSignPair((0,), (1,))
        models = {(j,) for j in range(d)}
        iv = posi_intervals(design, y, pair, models, BUDGET, 1.0, RngSpec(4), 200_000)
        assert iv.half_widths[0] == pytest.approx(max_abs_quantile_iid(d, 0.09), abs=0.01)

    def test_empty_selection_empty_intervals(self):
        design, y = random_instance(42, d=3)
        iv = posi_intervals(design, y, ModelSignPair((), ()), {()}, BUDGET,
                            1.0, RngSpec(5), 2000)
        assert iv.is_empty

    def test_centers_are_least_squares(self):
        design, y = random_instance(43, n=50, d=4)
        _, pair = lasso_solve(design, y, 0.3)
        if not pair.M:
            pytest.skip("empty selection in fixture")
        iv = posi_intervals(design, y, pair, {pair.M}, BUDGET, 1.0, RngSpec(6), 2000)
        XM = design.X[:, list(pair.M)]
        theta_ls = np.linalg.lstsq(XM, y, rcond=None)[0]
        assert np.allclose(iv.centers, theta_ls, atol=1e-8)


def runner_design(seed, n=200, d=8):
    """A lasso runner-like design: standard normals, unit columns."""
    X = np.random.default_rng(seed).standard_normal((n, d))
    return Design(X / np.linalg.norm(X, axis=0))


def posi_contrasts(monkeypatch, design, models, selected):
    """The contrast matrix posi_intervals passes to the contrast kernel."""
    seen = []

    def record(contrasts, *args):
        seen.append(contrasts)
        return contrast_quantile_mc(contrasts, *args)

    monkeypatch.setattr(lasso, "contrast_quantile_mc", record)
    posi_intervals(design, np.zeros(design.n), selected, models, BUDGET, 1.0,
                   RngSpec(0), 1000)
    (contrasts,) = seen
    return contrasts


class TestPosiContrastsMatchLoop:
    """The contrast blocks Design builds in one batch per support size give
    the matrix of the one-support-at-a-time loop bit for bit."""

    @pytest.mark.parametrize("seed", range(5))
    def test_every_support_of_runner_designs(self, monkeypatch, seed):
        design = runner_design(seed)
        selected = ModelSignPair((1, 4), (1, -1))
        got = posi_contrasts(monkeypatch, design, _all_models(8), selected)
        assert got.shape == (8 * 2 ** 7, 8)
        assert np.array_equal(got, posi_contrasts_loop(design, _all_models(8), selected))

    def test_uncapped_plausible_set(self, monkeypatch):
        design = runner_design(11)
        # The runner's defaults: lambda0 = 6, sparsity 0.5, sigma 1.
        lam = 6.0 * math.sqrt(2.0 * math.log(math.e * 8))
        beta = np.zeros(8)
        beta[:2], beta[2:4] = 2.0 * lam, lam
        y = design.X @ beta + np.random.default_rng(12).standard_normal(design.n)
        s_nu = 2.0 * column_max_quantile(design, 1.0, BUDGET.nu, RngSpec(13), 2000)
        models, frontier = enumerate_plausible_models(design, y, lam, s_nu)
        assert not frontier.capped and 1 < len(models) < 2 ** 8
        got = posi_contrasts(monkeypatch, design, models, frontier.start)
        assert np.array_equal(got, posi_contrasts_loop(design, models, frontier.start))

    def test_models_without_the_selected_support(self, monkeypatch):
        design = runner_design(21)
        models, selected = {(), (1, 2), (3,), (0, 5, 7)}, ModelSignPair((0, 4), (1, -1))
        got = posi_contrasts(monkeypatch, design, models, selected)
        assert got.shape == (2 + 2 + 1 + 3, 8)
        assert np.array_equal(got, posi_contrasts_loop(design, models, selected))

    def test_second_call_reads_the_cache(self, monkeypatch):
        design = runner_design(31)
        selected = ModelSignPair((2,), (1,))
        first = posi_contrasts(monkeypatch, design, _all_models(8), selected)

        def refill(*args, **kwargs):
            raise AssertionError("a cached support was built again")

        monkeypatch.setattr(design, "_fill", refill)
        second = posi_contrasts(monkeypatch, design, _all_models(8), selected)
        assert np.array_equal(second, first)
        assert np.array_equal(second, posi_contrasts_loop(design, _all_models(8), selected))


class TestDegeneracyThroughTheBatch:
    """Two identical columns: a batch holding a support with both raises
    DegeneracyError naming such a support, and what was cached before the
    failure is still exact."""

    @staticmethod
    def twin_columns(d=5):
        X = np.random.default_rng(41).standard_normal((30, d))
        X[:, 3] = X[:, 1]
        return Design(X)

    @staticmethod
    def named_support(exc_info):
        found = re.search(r"support \(([\d, ]*)\)", str(exc_info.value))
        return {int(j) for j in found.group(1).split(",") if j.strip()}

    def test_posi_intervals_over_every_support(self):
        design = self.twin_columns()
        with pytest.raises(DegeneracyError) as exc_info:
            posi_intervals(design, np.zeros(design.n), ModelSignPair((0,), (1,)),
                           _all_models(design.d), BUDGET, 1.0, RngSpec(0), 1000)
        assert {1, 3} <= self.named_support(exc_info)
        cached = [M for M in design._blocks if M]
        assert cached
        for M in cached:
            pair = ModelSignPair(M, (1,) * len(M))
            assert np.array_equal(design._blocks[M], posi_contrasts_loop(design, {M}, pair))
            assert np.array_equal(design.gram_inverse(M),
                                  np.linalg.inv(design.XtX[np.ix_(M, M)]))

    def test_gram_inverse_of_a_support_with_both(self):
        design = self.twin_columns()
        with pytest.raises(DegeneracyError) as exc_info:
            design.gram_inverse((0, 1, 3))
        assert self.named_support(exc_info) == {0, 1, 3}
        assert (0, 1, 3) not in design._inverses


class TestMarginalScreening:
    def test_zero_radius_top_k(self):
        X = np.eye(6)[:, :4]
        design = Design(X)
        y = np.array([3.0, -2.0, 1.0, 0.5, 0.0, 0.0])
        keep = marginal_screening_plausible(design, y, 2, 0.0)
        assert keep.tolist() == [0, 1]

    def test_all_tied_returns_everything(self):
        X = np.eye(4)
        design = Design(X)
        y = np.array([1.0, -1.0, 1.0, -1.0])
        keep = marginal_screening_plausible(design, y, 2, 0.0)
        assert keep.tolist() == [0, 1, 2, 3]

    def test_brute_force_oracle(self):
        # Union of top-k membership over the box, recomputed by brute force:
        # candidate i is plausible iff it makes top-k at its own most
        # favorable corner (its score pushed up by s_nu, all others pulled
        # toward zero by s_nu).
        gen = np.random.default_rng(61)
        X = gen.normal(size=(30, 6))
        X /= np.linalg.norm(X, axis=0)
        design = Design(X)
        y = gen.normal(size=30) * 2.0
        k, s_nu = 2, 0.4
        keep = set(marginal_screening_plausible(design, y, k, s_nu).tolist())
        u0 = design.X.T @ y
        oracle = set()
        for i in range(6):
            scores = np.maximum(np.abs(u0) - s_nu, 0.0)
            scores[i] = abs(u0[i]) + s_nu
            if i in np.argsort(-scores)[:k]:
                oracle.add(i)
        assert oracle == keep

    def test_k_out_of_range(self):
        design, y = random_instance(0, d=3)
        with pytest.raises(ValueError):
            marginal_screening_plausible(design, y, 0, 0.1)
        with pytest.raises(ValueError):
            marginal_screening_plausible(design, y, 4, 0.1)


@pytest.mark.parametrize("screen", [safe_screening, exact_screening])
def test_negative_radius_rejected(screen):
    design, y = random_instance(7, d=3)
    _, pair = lasso_solve(design, y, 0.5)
    with pytest.raises(ValueError):
        screen(design, y, pair, 0.5, -0.1)


@pytest.mark.parametrize("screen", [safe_screening, exact_screening])
@pytest.mark.parametrize("lam", [-1.0, 0.0, math.nan, math.inf])
def test_nonpositive_lambda_rejected(screen, lam):
    design, y = random_instance(7, d=4)
    _, pair = lasso_solve(design, y, 0.5)
    with pytest.raises(ValueError, match="lambda"):
        screen(design, y, pair, lam, 0.5)


def test_negative_radius_rejected_by_the_fill():
    design, y = random_instance(7, d=3)
    with pytest.raises(ValueError):
        enumerate_plausible_models(design, y, 0.5, -0.1)


class TestColumnMaxQuantile:
    def test_orthonormal_matches_iid(self):
        X = np.eye(12)[:, :3]
        q = column_max_quantile(Design(X), 1.0, 0.1, RngSpec(7), 100_000)
        assert q == pytest.approx(max_abs_quantile_iid(3, 0.1), abs=0.02)

    def test_scales_with_sigma(self):
        X = np.eye(12)[:, :3]
        q1 = column_max_quantile(Design(X), 1.0, 0.1, RngSpec(8), 50_000)
        q2 = column_max_quantile(Design(X), 2.0, 0.1, RngSpec(8), 50_000)
        assert q2 == pytest.approx(2 * q1, rel=1e-12)
