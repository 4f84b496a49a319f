import math

import numpy as np
import pytest

import locsim.lp
from locsim.lasso import Design, column_max_quantile, enumerate_plausible_models
from locsim.lp import Polyhedron, constraint_nonredundant, lp_maximize
from locsim.stats_core import RngSpec

from oracles import lp_maximize_loops, vertex_enumeration_max


def box(n, half):
    return Polyhedron.box(np.zeros(n), half)


class TestLpMaximize:
    def test_simple_bounded(self):
        region = Polyhedron(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
        res = lp_maximize(np.array([1.0]), region)
        assert res.status == "optimal"
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_unbounded(self):
        region = Polyhedron(np.array([[-1.0]]), np.array([0.0]))
        res = lp_maximize(np.array([1.0]), region)
        assert res.status == "unbounded"

    def test_unit_box_corner(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        b = np.array([1.0, 1.0, 0.0, 0.0])
        res = lp_maximize(np.array([1.0, 1.0]), Polyhedron(A, b))
        assert res.status == "optimal"
        assert res.value == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(res.witness, [1.0, 1.0], atol=1e-9)

    def test_infeasible(self):
        region = Polyhedron(np.array([[1.0], [-1.0]]), np.array([-2.0, 1.0]))
        res = lp_maximize(np.array([1.0]), region)
        assert res.status == "infeasible"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lp_maximize(np.array([1.0, 2.0]), box(3, 1.0))

    def test_matches_vertex_enumeration_on_random_instances(self):
        gen = np.random.default_rng(314)
        for _ in range(200):
            n = int(gen.integers(1, 4))
            k = int(gen.integers(1, 9 - 2 * n))
            A = np.vstack([gen.normal(size=(k, n)), np.eye(n), -np.eye(n)])
            b = np.concatenate([gen.normal(size=k) + 0.5, np.full(2 * n, 4.0)])
            c = gen.normal(size=n)
            res = lp_maximize(c, Polyhedron(A, b))
            ref = vertex_enumeration_max(c, A, b)
            if res.status == "infeasible":
                assert ref == -np.inf
            else:
                assert res.status == "optimal"
                assert res.value == pytest.approx(ref, abs=1e-7)
                assert np.all(A @ res.witness <= b + 1e-9)

    def test_witness_feasibility(self):
        gen = np.random.default_rng(99)
        A = np.vstack([gen.normal(size=(5, 3)), np.eye(3), -np.eye(3)])
        b = np.concatenate([gen.normal(size=5) + 1.0, np.full(6, 3.0)])
        res = lp_maximize(gen.normal(size=3), Polyhedron(A, b))
        assert res.status == "optimal"
        assert np.all(A @ res.witness <= b + 1e-9)


def assert_same_lp(c, region):
    res, ref = lp_maximize(c, region), lp_maximize_loops(c, region)
    assert res.status == ref.status
    assert res.value == ref.value
    if ref.witness is None:
        assert res.witness is None
    else:
        assert np.array_equal(res.witness, ref.witness)
    return res.status


class TestMatchesLoopSimplex:
    """The array-wise simplex reproduces the row-by-row one bit for bit."""

    def test_random_regions(self):
        gen = np.random.default_rng(2024)
        statuses = []
        for trial in range(240):
            n = int(gen.integers(1, 9))
            k = int(gen.integers(1, 12))
            A = gen.normal(size=(k, n))
            b = gen.normal(size=k)  # about half the right-hand sides negative
            dup = gen.integers(0, k, size=int(gen.integers(0, 4)))
            A = np.vstack([A, A[dup]])
            b = np.concatenate([b, b[dup]])
            if trial % 6 == 0:
                # x_0 <= -1 and -x_0 <= -1 together are infeasible.
                row = np.zeros(n)
                row[0] = 1.0
                A = np.vstack([A, row, -row])
                b = np.concatenate([b, [-1.0, -1.0]])
            A = np.vstack([A, np.eye(n), -np.eye(n)])
            b = np.concatenate([b, np.full(2 * n, 3.0)])
            statuses.append(assert_same_lp(gen.normal(size=n), Polyhedron(A, b)))
        assert {"optimal", "infeasible"} <= set(statuses)

    def test_unbounded_and_degenerate_regions(self):
        gen = np.random.default_rng(77)
        statuses = []
        for _ in range(40):
            n = int(gen.integers(1, 5))
            A = gen.normal(size=(int(gen.integers(1, 6)), n))
            A = np.vstack([A, A, 2.0 * A])  # duplicated and rescaled rows
            b = np.zeros(A.shape[0])  # a cone: every vertex is degenerate
            statuses.append(assert_same_lp(gen.normal(size=n), Polyhedron(A, b)))
        assert "unbounded" in statuses

    def test_every_lp_of_a_d8_flood_fill(self, monkeypatch):
        # The lasso runner's instance (n = 200, lambda0 = 6, sparsity 0.5).
        d, n = 8, 200
        lam = 6.0 * math.sqrt(2.0 * math.log(math.e * d))
        gen = np.random.default_rng(800)
        X = gen.standard_normal((n, d))
        X /= np.linalg.norm(X, axis=0)
        design = Design(X)
        beta = np.zeros(d)
        beta[:2], beta[2:4] = 2.0 * lam, lam
        y = X @ beta + gen.standard_normal(n)
        s_nu = 2.0 * column_max_quantile(design, 1.0, 0.01, RngSpec(810), 20_000)
        issued = []

        def recording(c, region):
            issued.append((np.array(c, dtype=float), region))
            return lp_maximize(c, region)

        monkeypatch.setattr(locsim.lp, "lp_maximize", recording)
        _, frontier = enumerate_plausible_models(design, y, lam, s_nu, use_safe=False)
        monkeypatch.undo()
        assert len(issued) == frontier.lp_count > 0
        for c, region in issued:
            assert_same_lp(c, region)


class TestConstraintNonredundant:
    def test_redundant_row(self):
        region = Polyhedron(np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
        assert not constraint_nonredundant(region, 1, box(1, 10.0))

    def test_active_row(self):
        region = Polyhedron(np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
        assert constraint_nonredundant(region, 0, box(1, 10.0))

    def test_box_caps_the_row(self):
        region = Polyhedron(np.array([[1.0]]), np.array([1.0]))
        assert not constraint_nonredundant(region, 0, box(1, 0.5))

    def test_infeasible_intersection_flagged(self):
        # region: x <= -5, x >= -4, x <= 0; removing the last row leaves an
        # empty intersection with the box.
        region = Polyhedron(np.array([[1.0], [-1.0], [1.0]]),
                            np.array([-5.0, 4.0, 0.0]))
        res = constraint_nonredundant(region, 2, box(1, 10.0))
        assert not res.nonredundant
        assert not res.intersection_feasible

    def test_unbounded_counts_as_active(self):
        region = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                            np.array([1.0, 0.0]))
        wide_box = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                              np.array([10.0, 10.0]))
        # box leaves the second coordinate free; removing row 0 keeps the
        # objective x1 bounded, so craft the objective along the free axis.
        region2 = Polyhedron(np.array([[0.0, 1.0], [1.0, 0.0]]),
                             np.array([1.0, 1.0]))
        res = constraint_nonredundant(region2, 0, wide_box)
        assert res.nonredundant

    def test_invariant_under_row_rescaling(self):
        gen = np.random.default_rng(7)
        for _ in range(50):
            A = gen.normal(size=(5, 2))
            b = gen.normal(size=5) + 1.0
            region = Polyhedron(A, b)
            scale = np.exp(gen.normal(size=5))
            scaled = Polyhedron(A * scale[:, None], b * scale)
            bx = box(2, 5.0)
            for i in range(5):
                assert (bool(constraint_nonredundant(region, i, bx))
                        == bool(constraint_nonredundant(scaled, i, bx)))


class TestPolyhedron:
    def test_contains_strictness(self):
        poly = Polyhedron(np.array([[1.0]]), np.array([1.0]),
                          open_row=np.array([True]))
        assert poly.contains(np.array([0.5]))
        assert not poly.contains(np.array([1.0]))
        closed = Polyhedron(np.array([[1.0]]), np.array([1.0]))
        assert closed.contains(np.array([1.0]))

    def test_box_geometry(self):
        region = Polyhedron.box(np.array([1.0, -2.0]), 0.5)
        assert region.contains(np.array([1.4, -1.6]))
        assert region.contains(np.array([1.5, -2.5]))
        assert not region.contains(np.array([1.6, -2.0]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Polyhedron(np.eye(2), np.ones(3))
        with pytest.raises(ValueError):
            Polyhedron(np.array([[np.inf, 0.0]]), np.array([1.0]))
