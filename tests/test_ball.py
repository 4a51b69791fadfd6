import itertools
import math

import numpy as np
import pytest
from scipy.optimize import nnls

import gramclust.ball as ball_mod
from gramclust import (
    GramFactor,
    Infeasible,
    SymMatrix,
    analyze_b,
    gram_factorize,
    min_enclosing_ball,
    radius_squared,
)

BALL_TOL = 1e-7


def factor(vectors):
    v = np.asarray(vectors, dtype=float)
    return GramFactor(k=len(v), ambient_dim=v.shape[1], vectors=v)


def exhaustive_meb(points):
    """Independent oracle: smallest ball over all boundary subsets of size
    <= d+1 (circumsphere of the subset, feasibility of the rest)."""
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    best = (math.inf, None)
    for size in range(1, min(len(pts), d + 1) + 1):
        for subset in itertools.combinations(range(len(pts)), size):
            sub = pts[list(subset)]
            p0 = sub[0]
            q = sub[1:] - p0
            if len(q):
                lam, *_ = np.linalg.lstsq(2.0 * (q @ q.T),
                                          np.einsum("ij,ij->i", q, q), rcond=None)
                center = p0 + lam @ q
            else:
                center = p0
            radius = float(np.max(np.linalg.norm(sub - center, axis=1)))
            if np.all(np.linalg.norm(pts - center, axis=1) <= radius + 1e-9):
                if radius < best[0]:
                    best = (radius, center)
    return best


class TestMinEnclosingBall:
    def test_single_vector(self):
        ball = min_enclosing_ball(factor([[2.0, -1.0]]))
        assert ball.radius == 0.0
        np.testing.assert_allclose(ball.center, [2.0, -1.0])

    def test_two_unit_basis_vectors(self):
        ball = min_enclosing_ball(factor([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(ball.center, [0.5, 0.5], atol=1e-12)
        assert ball.radius == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_bc_c2_circumradius(self):
        # smallest bounding circle of an acute triangle is its circumcircle
        vecs = [[1, 0, 0], [0, 1, 0], [0, 0, math.sqrt(2.0)]]
        ball = min_enclosing_ball(factor(vecs))
        assert ball.radius ** 2 == pytest.approx(0.9, abs=1e-10)
        assert set(ball.support) == {0, 1, 2}

    def test_matches_exhaustive_oracle(self):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(2, 9))
            d = int(rng.integers(1, 7))
            pts = rng.standard_normal((k, d))
            ball = min_enclosing_ball(factor(pts))
            radius_ref, _ = exhaustive_meb(pts)
            assert ball.radius == pytest.approx(radius_ref, rel=1e-9, abs=1e-12)

    def test_dependent_working_sets_match_exhaustive_oracle(self, monkeypatch):
        # four points of a planar working set are affinely dependent: the
        # solve must then step along the null direction of [V^T; 1^T]
        null_steps = []
        inner = ball_mod._working_set_step

        def spy(points, p):
            step, bounded = inner(points, p)
            null_steps.append(not bounded)
            return step, bounded

        monkeypatch.setattr(ball_mod, "_working_set_step", spy)
        for seed in range(200):
            pts = np.random.default_rng(seed).standard_normal((5, 2))
            radius_ref, _ = exhaustive_meb(pts)
            ball = min_enclosing_ball(factor(pts))
            assert ball.radius == pytest.approx(radius_ref, rel=1e-9)
        assert sum(null_steps) >= 5

    def test_monotone_under_added_vector(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((4, 3))
        r_before = min_enclosing_ball(factor(pts)).radius
        extra = np.vstack([pts, rng.standard_normal(3)])
        r_after = min_enclosing_ball(factor(extra)).radius
        assert r_after >= r_before - 1e-12

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((5, 3))
        ball = min_enclosing_ball(factor(pts))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        shift = rng.standard_normal(3)
        moved = pts @ q.T + shift
        ball2 = min_enclosing_ball(factor(moved))
        assert ball2.radius == pytest.approx(ball.radius, abs=1e-9)
        np.testing.assert_allclose(ball2.center, ball.center @ q.T + shift, atol=1e-9)

    def test_duplicate_points(self):
        ball = min_enclosing_ball(factor([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))
        assert ball.radius == pytest.approx(0.5, abs=1e-12)

    def test_subnormal_b_reports(self):
        # the Gram vectors are about 1e-159 long, so their squared distances
        # underflow unless the ball runs on the vectors scaled to unit size
        report = analyze_b(SymMatrix(np.diag([1.0, 1.0, 0.25]) * 1e-318))
        assert report["degenerate"] is False
        assert report["ball"]["r2"] == pytest.approx(0.5208333e-318, rel=1e-5)


def polygon(m, offset=(0.0, 0.0)):
    angles = 2.0 * math.pi * np.arange(m) / m
    return np.column_stack([np.cos(angles), np.sin(angles)]) + offset


KNOWN_RADII = {
    # cospherical, so every working set of four or more points in the plane
    # is affinely dependent
    "square": (np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]) + 3.0,
               math.sqrt(2.0)),
    "pentagon": (polygon(5, (2.0, -1.0)), 1.0),
    "12-gon": (polygon(12, (-1.0, 0.5)), 1.0),
    "pentagon and center": (np.vstack([polygon(5), [[0.0, 0.0]]]), 1.0),
    # the regular simplex on the standard basis of R^6, with its centroid
    "simplex": (np.vstack([np.eye(6), np.full((1, 6), 1.0 / 6.0)]), math.sqrt(5.0 / 6.0)),
    "repeated": (np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [2.0, 0.0], [1.0, 0.5]]), 1.0),
    "near-repeated": (np.array([[0.0, 0.0, 1.0], [2.0, 0.0, 1.0], [2.0, 1e-14, 1.0],
                                [1.0, 0.5, 1.0 + 1e-14], [1.0, 0.5, 1.0]]), 1.0),
}


class TestKnownRadii:
    @pytest.mark.parametrize("name", list(KNOWN_RADII))
    def test_radius_and_boundary(self, name):
        pts, radius = KNOWN_RADII[name]
        ball = min_enclosing_ball(factor(pts))
        assert ball.radius == pytest.approx(radius, rel=1e-12)
        dists = np.linalg.norm(pts - ball.center, axis=1)
        boundary = np.flatnonzero(np.abs(dists - radius) <= 1e-9).tolist()
        assert list(ball.support) == boundary
        assert ball.weights.sum() == pytest.approx(1.0, abs=1e-12)


def certificate_sets(rng):
    """Gram factors of random B with k <= 64 and rank <= 10: Wishart,
    rank-deficient, repeated vectors and unit vectors (all on one sphere)."""
    shapes = [("low-rank", 64, 8), ("repeated", 48, 10)]
    for _ in range(498):
        kind = ("full", "low-rank", "repeated", "sphere")[int(rng.integers(4))]
        d = int(rng.integers(1, 11))
        k = int(rng.integers(2, 11)) if kind == "full" else int(rng.integers(2, 65))
        shapes.append((kind, max(k, d) if kind == "full" else k, d))
    for kind, k, d in shapes:
        if kind == "repeated":
            v = rng.standard_normal((d, d))[np.arange(k) % d]
        else:
            v = rng.standard_normal((k, min(d, k) if kind == "full" else d))
            if kind == "sphere":
                v /= np.linalg.norm(v, axis=1, keepdims=True)
        yield gram_factorize(SymMatrix.from_array(v @ v.T))


class TestOptimalityCertificate:
    def test_random_sets_up_to_k64(self):
        sets = list(certificate_sets(np.random.default_rng(29)))
        assert len(sets) == 500
        for gf in sets:
            ball = min_enclosing_ball(gf)
            v, p, r2 = gf.vectors, ball.weights, ball.radius ** 2
            scale = max(r2, 1e-14 * float(np.max(np.einsum("ij,ij->i", v, v))))
            dist2 = np.einsum("ij,ij->i", v - ball.center, v - ball.center)
            # every vector is inside the ball
            assert np.max(dist2) <= r2 + 1e-12 * scale
            # p is in the simplex and positive only on the boundary
            assert np.all(p >= 0.0) and p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(dist2[p > 0.0] >= r2 - 1e-9 * scale)
            # so the dual value at p, a lower bound on R^2, meets the radius
            c = p @ v
            dual = float(p @ np.einsum("ij,ij->i", v - c, v - c))
            assert dual >= r2 - 1e-9 * scale


class TestPivotCapAndCertificate:
    @pytest.mark.parametrize("setting", [("PIVOTS_PER_POINT", 0), ("CERTIFICATE_TOL", -1.0)])
    def test_failed_solve_raises_infeasible(self, monkeypatch, setting):
        monkeypatch.setattr(ball_mod, *setting)
        pts = np.random.default_rng(3).standard_normal((6, 3))
        with pytest.raises(Infeasible):
            min_enclosing_ball(factor(pts))


class TestSupportWeights:
    def test_full_symmetry_identity3(self):
        gf = gram_factorize(SymMatrix.from_array(np.eye(3)))
        ball = min_enclosing_ball(gf)
        np.testing.assert_allclose(ball.weights, np.full(3, 1.0 / 3.0), atol=1e-8)

    def test_two_points(self):
        gf = factor([[1.0, 0.0], [0.0, 1.0]])
        ball = min_enclosing_ball(gf)
        np.testing.assert_allclose(ball.weights, [0.5, 0.5], atol=1e-8)

    def test_bc_c2_weights_match_linear_system(self):
        vecs = np.array([[1, 0, 0], [0, 1, 0], [0, 0, math.sqrt(2.0)]])
        gf = factor(vecs)
        ball = min_enclosing_ball(gf)
        # oracle: all three points are on the boundary, so p solves the
        # 3x3 system [v_i rows; ones] p = [center; 1] exactly
        a = np.vstack([vecs.T, np.ones(3)])
        rhs = np.concatenate([ball.center, [1.0]])
        p_ref, *_ = np.linalg.lstsq(a, rhs, rcond=None)
        np.testing.assert_allclose(ball.weights, p_ref, atol=1e-7)
        np.testing.assert_allclose(p_ref, [0.3, 0.3, 0.4], atol=1e-7)

    def test_invariants_on_random_sets(self):
        for seed in range(15):
            rng = np.random.default_rng(100 + seed)
            pts = rng.standard_normal((int(rng.integers(2, 6)), 3))
            gf = factor(pts)
            ball = min_enclosing_ball(gf)
            p = ball.weights
            assert np.all(p >= -1e-15)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            # p supported on the boundary only
            dists = np.linalg.norm(pts - ball.center, axis=1)
            on_boundary = np.abs(dists - ball.radius) <= BALL_TOL * max(ball.radius, 1.0)
            assert np.all(on_boundary[p > 1e-9])
            assert np.linalg.norm(p @ pts - ball.center) <= BALL_TOL * max(ball.radius, 1.0)

    def test_affinely_dependent_support_minimum_norm(self):
        # four corners of a square: weights are non-unique; the minimum
        # norm solution is the uniform one
        pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        ball = min_enclosing_ball(factor(pts))
        np.testing.assert_allclose(ball.weights, np.full(4, 0.25), atol=1e-5)


def scipy_nnls(a, b):
    return nnls(a, b)[0]


def lawson_hanson_spy(monkeypatch):
    """Count the calls that reach the active-set fallback."""
    calls = []
    inner = ball_mod._lawson_hanson

    def spy(a, b):
        calls.append(a.shape)
        return inner(a, b)

    monkeypatch.setattr(ball_mod, "_lawson_hanson", spy)
    return calls


def ball_systems(rng):
    """Gram vectors of random B: generic, rank-deficient, with repeated
    vectors, and on a sphere (every vector on the boundary, so the support
    is affinely dependent)."""
    for trial in range(240):
        k = int(rng.integers(2, 10))
        if trial % 2:
            d = int(rng.integers(2, 4))
            v = rng.standard_normal((k + d, d))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
        else:
            v = rng.standard_normal((k, int(rng.integers(1, k + 1))))
        if trial % 3 == 0:
            v = np.vstack([v, v[:2]])
        yield v


class TestNnls:
    def test_matches_scipy_on_ball_systems(self, monkeypatch):
        calls = lawson_hanson_spy(monkeypatch)
        for v in ball_systems(np.random.default_rng(7)):
            gf = gram_factorize(SymMatrix.from_array(v @ v.T))
            ours = min_enclosing_ball(gf)
            with monkeypatch.context() as m:
                m.setattr(ball_mod, "_nnls", scipy_nnls)
                ref = min_enclosing_ball(gf)
            assert ours.radius == ref.radius
            assert ours.support == ref.support
            np.testing.assert_allclose(ours.weights, ref.weights, rtol=0, atol=1e-9)
        assert len(calls) > 20  # the sphere systems exercise the fallback

    def test_fallback_on_negative_least_squares_weights(self, monkeypatch):
        # four unit vectors, all on the ball's boundary; 140 and -40 degrees
        # are antipodal, so the minimum-norm weights put 1/2 on each of them,
        # while the unconstrained minimizer goes negative elsewhere
        angles = np.radians([0.0, 40.0, 140.0, -40.0])
        v = np.column_stack([np.cos(angles), np.sin(angles)])
        gf = gram_factorize(SymMatrix.from_array(v @ v.T))
        calls = lawson_hanson_spy(monkeypatch)
        ball = min_enclosing_ball(gf)
        assert len(calls) == 1
        assert ball.support == (0, 1, 2, 3)
        np.testing.assert_allclose(ball.weights, [0.0, 0.0, 0.5, 0.5], atol=1e-9)
        monkeypatch.setattr(ball_mod, "_nnls", scipy_nnls)
        np.testing.assert_allclose(
            ball.weights, min_enclosing_ball(gf).weights, rtol=0, atol=1e-9
        )

    def test_fallback_resolves_tiny_gradient(self, monkeypatch):
        # eight unit vectors, all on the boundary: the last weight is about
        # 5e-5 and its gradient about 1e-17, below the rounding noise of a
        # plain a^T (b - a x); the projected gradient still sees it
        v = np.array([
            [-0.0797, 0.8913, -0.4464], [0.0572, -0.9965, -0.0602],
            [0.1031, 0.7773, -0.6206], [-0.3999, -0.8424, -0.3611],
            [0.6914, -0.5121, -0.5096], [0.0444, -0.6235, 0.7806],
            [-0.6720, 0.7113, -0.2060], [-0.5692, -0.7598, -0.3142],
        ])
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        gf = gram_factorize(SymMatrix.from_array(v @ v.T))
        calls = lawson_hanson_spy(monkeypatch)
        ours = min_enclosing_ball(gf)
        assert len(calls) == 1
        monkeypatch.setattr(ball_mod, "_nnls", scipy_nnls)
        ref = min_enclosing_ball(gf)
        assert ref.weights[7] > 1e-5
        np.testing.assert_allclose(ours.weights, ref.weights, rtol=0, atol=1e-9)

    def test_lawson_hanson_matches_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            m, n = int(rng.integers(2, 10)), int(rng.integers(1, 8))
            a = np.vstack([rng.standard_normal((m, n)), 1e-3 * np.eye(n)])
            b = np.concatenate([rng.standard_normal(m), np.zeros(n)])
            x = ball_mod._lawson_hanson(a, b)
            assert np.all(x >= 0.0)
            np.testing.assert_allclose(x, scipy_nnls(a, b), rtol=0, atol=1e-9)


class TestRadiusSquared:
    def test_identity3(self):
        assert radius_squared(SymMatrix.from_array(np.eye(3))) == pytest.approx(
            2.0 / 3.0, abs=1e-10
        )

    def test_bc_quarter(self):
        b = SymMatrix.from_array(np.diag([1.0, 1.0, 0.25]))
        assert radius_squared(b) == pytest.approx(1.25 ** 2 / 3.0, abs=1e-10)

    def test_coincident_points(self):
        assert radius_squared(SymMatrix.from_array([[1, 1], [1, 1]])) == pytest.approx(
            0.0, abs=1e-12
        )
