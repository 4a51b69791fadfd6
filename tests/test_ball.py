import itertools
import math

import numpy as np
import pytest

import gramclust.ball as ball_mod
from gramclust import (
    GramFactor,
    Infeasible,
    SymMatrix,
    analyze_b,
    build_mu,
    dictatorship_objective,
    gram_factorize,
    min_enclosing_ball,
    radius_squared,
)
from gramclust.hardness import LabelDistribution
from gramclust.matrixcore import unit_scaled

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


    def test_support_is_the_certified_boundary(self):
        # computed here from the unit-scaled vectors: the support holds the
        # vectors within CERTIFICATE_TOL * q_max of the largest squared
        # distance, q_max the largest squared offset of a distinct vector
        # from the lexicographically first
        tol = ball_mod.CERTIFICATE_TOL
        for gf in certificate_sets(np.random.default_rng(29)):
            ball = min_enclosing_ball(gf)
            v, shift = unit_scaled(gf.vectors)
            pts = np.unique(v, axis=0)
            q_max = float(np.max(np.einsum("ij,ij->i", pts - pts[0], pts - pts[0])))
            c = np.ldexp(ball.center, -shift)
            dist2 = np.einsum("ij,ij->i", v - c, v - c)
            gap, band = float(np.max(dist2)) - dist2, tol * q_max
            inside = np.ones(gf.k, dtype=bool)
            inside[list(ball.support)] = False
            assert np.all(gap[~inside] <= 1.01 * band) and np.all(gap[inside] > 0.99 * band)
            assert set(np.flatnonzero(ball.weights > 0.0)) <= set(ball.support)


def b_geometry_shape(kind, k, r, rng):
    """A B as the b-geometry benchmark draws it: Wishart of full rank k, or
    k Gram vectors taking r distinct values."""
    if kind == "full":
        g = rng.standard_normal((k, k))
        return g @ g.T / k
    v = rng.standard_normal((r, r)) / np.sqrt(r)
    rows = v[rng.permutation(np.arange(k) % r)]
    return rows @ rows.T


class TestAboveRankTen:
    @pytest.mark.parametrize("shape", [("full", 12, 12), ("full", 24, 24), ("repeated", 64, 16)])
    def test_active_set_certifies_within_the_pivot_cap(self, monkeypatch, shape):
        # min_enclosing_ball still runs the Frank-Wolfe fallback above rank
        # 10; this measures the exact solve there, on the same distinct points
        pivots = []
        inner = ball_mod._working_set_step

        def spy(points, p):
            pivots[-1] += 1
            return inner(points, p)

        monkeypatch.setattr(ball_mod, "_working_set_step", spy)
        rng = np.random.default_rng(11)
        for _ in range(5):
            gf = gram_factorize(SymMatrix.from_array(b_geometry_shape(*shape, rng)))
            vectors, _ = unit_scaled(gf.vectors)
            pts = vectors[ball_mod._distinct_rows(vectors)[0]]
            y = pts - pts[0]
            q_max = float(np.max(np.einsum("ij,ij->i", y, y)))
            pivots.append(0)
            work, p = ball_mod._active_set_ball(y, q_max)
            offset, r2, _ = ball_mod._certified(y, q_max, work, p)
            center = pts[0] + offset
            dist2 = np.einsum("ij,ij->i", pts - center, pts - center)
            assert np.max(dist2) <= r2 * (1.0 + 1e-12)
            assert np.all(p > 0.0) and p.sum() == pytest.approx(1.0, abs=1e-12)
            c = p @ pts[work]
            assert p @ np.einsum("ij,ij->i", pts[work] - c, pts[work] - c) >= r2 * (1.0 - 1e-12)
            # 4 to 11 pivots here, against a cap of 48 to 256
            assert pivots[-1] <= ball_mod.PIVOTS_PER_POINT * shape[1]

    @pytest.mark.parametrize(
        "shape", [("identity", 11, 11), ("full", 12, 12), ("full", 24, 24), ("repeated", 64, 16)]
    )
    def test_fallback_fails_the_certificate(self, monkeypatch, shape):
        # the Frank-Wolfe visits, 1e-4 accurate, are the weights that the
        # one certificate rejects: a documented limit above rank 10
        checked = []
        inner = ball_mod._certified

        def spy(y, q_max, work, p):
            checked.append(len(work))
            return inner(y, q_max, work, p)

        monkeypatch.setattr(ball_mod, "_certified", spy)
        kind, k, r = shape
        if kind == "identity":
            b = np.eye(k)
        else:
            b = b_geometry_shape(kind, k, r, np.random.default_rng(5))
        gf = gram_factorize(SymMatrix.from_array(b))
        assert gf.ambient_dim == r > ball_mod.EXACT_MAX_DIM
        with pytest.raises(Infeasible, match="optimality certificate"):
            min_enclosing_ball(gf)
        assert len(checked) == 1 and checked[0] >= 2


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

    def test_near_boundary_vector_left_out(self):
        # the third vector lies at r (1 - 1e-9), 2e-9 r^2 inside in squared
        # distance, far outside the certificate's band
        pts = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0 - 1e-9]])
        ball = min_enclosing_ball(factor(pts))
        assert ball.radius == 1.0
        assert ball.support == (0, 1)

    def test_vectors_one_ulp_apart_stay_two_points(self):
        v = np.array([[1.0, 0.0], [np.nextafter(1.0, 2.0), 0.0], [0.0, 1.0]])
        first, copy_of = ball_mod._distinct_rows(v)
        assert len(first) == 3 and sorted(copy_of) == [0, 1, 2]
        ball = min_enclosing_ball(factor(v))
        assert ball.support == (0, 1, 2)
        assert_certified(ball, v)

    def test_affinely_dependent_support_certified(self):
        # four corners of a square: weights are non-unique; the active set
        # ends on one diagonal, half on each of its corners
        pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        ball = min_enclosing_ball(factor(pts))
        assert ball.support == (0, 1, 2, 3)
        np.testing.assert_allclose(ball.weights, [0.5, 0.0, 0.0, 0.5], rtol=0, atol=1e-15)


def labelled_sets(rng, count):
    """(vectors, labels) with k <= 64 in dimension <= 10: every other set
    generic (each vector its own label), the rest exact repeats of 2 to
    d + 1 distinct vectors (rows with one label are bitwise equal)."""
    for trial in range(count):
        d, k = int(rng.integers(1, 11)), int(rng.integers(2, 65))
        if trial % 2:
            labels = rng.integers(0, int(rng.integers(2, d + 2)), k)
            yield rng.standard_normal((labels.max() + 1, d))[labels], labels
        else:
            yield rng.standard_normal((k, d)), np.arange(k)


def assert_certified(ball, v):
    """The ball's weights pass the optimality certificate: p >= 0 sums to 1,
    reproduces the center and weights only boundary vectors."""
    p, r2 = ball.weights, ball.radius ** 2
    longest = float(np.max(np.linalg.norm(v, axis=1)))
    assert np.all(p >= 0.0) and p.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(p @ v, ball.center, rtol=0, atol=1e-12 * longest)
    dist2 = np.einsum("ij,ij->i", v - ball.center, v - ball.center)
    assert np.all(dist2[p > 0.0] >= r2 - 1e-9 * max(r2, 1e-14 * longest ** 2))
    assert set(np.flatnonzero(p > 0.0)) <= set(ball.support)


def gadget_at_any_optimum(b, ball, beta):
    """The dictatorship objective at mu = (1 - beta) p + beta / k for any
    certified p: sum_i p_i |v_i|^2 = R^2 + |c|^2 and sum_i p_i v_i = c, so
    it depends on p through the center c and the radius alone."""
    v, c = ball.gram.vectors, ball.center
    mean = (1.0 - beta) * c + beta * v.mean(axis=0)
    spread = (1.0 - beta) * (ball.radius ** 2 + c @ c) + beta * float(np.mean(np.diag(b.mat)))
    return spread - mean @ mean


def ball_instance(name: str) -> tuple[np.ndarray, np.ndarray]:
    """A B for the enclosing-ball checks, and for each Gram vector the
    label of its distinct value."""
    if name == "low-rank-64":
        h = np.random.default_rng(64).standard_normal((64, 8))
        return h @ h.T / 8, np.arange(64)
    if name == "repeated-48":
        labels = np.arange(48) % 10
        v = np.random.default_rng(48).standard_normal((10, 10))[labels]
        return v @ v.T / 10, labels
    # four cospherical Gram vectors, whose optimal weights are not unique
    v = KNOWN_RADII["square"][0]
    return v @ v.T, np.arange(4)


class TestActiveSetWeights:
    def test_weights_are_the_solves_own(self):
        for v, labels in labelled_sets(np.random.default_rng(31), 500):
            ball = min_enclosing_ball(factor(v))
            p, support = ball.weights, list(ball.support)
            # reference: the weights of the distinct support vectors that
            # reproduce the center, split evenly over copies
            groups, first = np.unique(labels[support], return_index=True)
            reps = np.array(support)[first]
            a = np.vstack([v[reps].T, np.ones(len(reps))])
            x = np.linalg.lstsq(a, np.append(ball.center, 1.0), rcond=None)[0]
            counts = np.bincount(labels)
            ref = np.zeros(len(v))
            for g, xg in zip(groups, x):
                ref[labels == g] = xg / counts[g]
            np.testing.assert_allclose(p, ref, rtol=0, atol=1e-12)
            for g in groups:
                assert np.ptp(p[labels == g]) == 0.0

    @pytest.mark.parametrize("name", ["square", "pentagon", "12-gon"])
    def test_cospherical_sets_certified(self, name):
        pts = KNOWN_RADII[name][0]
        b = SymMatrix.from_array(pts @ pts.T)
        ball = min_enclosing_ball(factor(pts))
        assert_certified(ball, pts)
        # every vector is on the boundary, and the solve weights only an
        # affinely independent few of them
        assert len(ball.support) == len(pts) > np.count_nonzero(ball.weights)
        # the gadget is the same at the uniform boundary weights, another
        # optimum: by symmetry they reproduce the center too
        dist = build_mu(ball, 1e-3 * ball.radius ** 2)
        uniform = np.zeros(len(pts))
        uniform[list(ball.support)] = 1.0 / len(ball.support)
        mu = (1.0 - dist.beta) * uniform + dist.beta / len(pts)
        other = LabelDistribution(mu=mu, beta=dist.beta, p=uniform)
        assert dictatorship_objective(b, dist) == pytest.approx(
            dictatorship_objective(b, other), rel=1e-12
        )

    def test_sphere_systems_certified(self):
        cospherical = 0
        for v in ball_systems(np.random.default_rng(7)):
            b = SymMatrix.from_array(v @ v.T)
            ball = min_enclosing_ball(gram_factorize(b))
            assert_certified(ball, ball.gram.vectors)
            dist = build_mu(ball, 1e-3 * ball.radius ** 2)
            assert dictatorship_objective(b, dist) == pytest.approx(
                gadget_at_any_optimum(b, ball, dist.beta), rel=1e-12
            )
            cospherical += bool(np.any(ball.weights[list(ball.support)] == 0.0))
        # most sphere systems (odd trials) have more boundary vectors than
        # an affinely independent working set holds
        assert cospherical >= 90

    def test_copies_in_b_share_one_weight(self):
        # B from repeated Gram vectors: the factor gives copies equal bits,
        # so each distinct vector's weight splits exactly evenly
        rng = np.random.default_rng(41)
        for _ in range(400):
            d, r = int(rng.integers(1, 11)), int(rng.integers(2, 12))
            labels = rng.permutation(np.arange(int(rng.integers(r + 1, 65))) % r)
            rows = rng.standard_normal((r, d))[labels]
            ball = min_enclosing_ball(gram_factorize(SymMatrix.from_array(rows @ rows.T)))
            for g in range(r):
                assert np.ptp(ball.weights[labels == g]) == 0.0

    @pytest.mark.parametrize("name", ["low-rank-64", "repeated-48", "square"])
    def test_weights_certify_r2_on_b(self, name):
        # the ball block of an analyze-b or cluster report, checked on B's
        # entries alone
        b, labels = ball_instance(name)
        ball = min_enclosing_ball(gram_factorize(SymMatrix.from_array(b)))
        p, r2 = ball.weights, ball.r2
        # squared distances to the center sum_j p_j v_j
        d, bp = np.diag(b), b @ p
        dist2 = d - 2.0 * bp + p @ bp
        assert np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-12
        assert np.max(dist2) <= r2 * (1.0 + 1e-9)
        assert np.all(dist2[p > 0.0] >= r2 * (1.0 - 1e-9))
        # the ball holds the farthest pair
        assert r2 >= np.max(d[:, None] + d[None, :] - 2.0 * b) / 4.0 * (1.0 - 1e-9)
        # copies of one Gram vector carry one weight
        assert max(np.ptp(p[labels == g]) for g in np.unique(labels)) <= 1e-12

    def test_repeated_b_geometry_shape_dedups_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            gf = gram_factorize(SymMatrix.from_array(b_geometry_shape("repeated", 64, 16, rng)))
            vectors, _ = unit_scaled(gf.vectors)
            first, copy_of = ball_mod._distinct_rows(vectors)
            assert len(first) == 16
            np.testing.assert_array_equal(vectors[first][copy_of], vectors)


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
