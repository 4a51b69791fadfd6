import dataclasses
import math

import numpy as np
import pytest

from gramclust import (
    DegenerateB,
    Infeasible,
    LabelDistribution,
    SymMatrix,
    ZeroMass,
    analyze_b,
    build_basis,
    build_mu,
    dictatorship_objective,
    gram_factorize,
    min_enclosing_ball,
)
from gramclust import hardness

BC2 = SymMatrix.from_array(np.diag([1.0, 1.0, 2.0]))


def ball_of(b):
    return min_enclosing_ball(gram_factorize(b))


class TestBuildMu:
    def test_identity3_uniform_fixed_point(self):
        dist = build_mu(ball_of(SymMatrix.from_array(np.eye(3))), 1e-3)
        np.testing.assert_allclose(dist.mu, np.full(3, 1.0 / 3.0), atol=1e-9)

    def test_two_basis_vectors(self):
        dist = build_mu(ball_of(SymMatrix.from_array(np.eye(2))), 0.01)
        np.testing.assert_allclose(dist.p, [0.5, 0.5], atol=1e-8)
        np.testing.assert_allclose(dist.mu, [0.5, 0.5], atol=1e-8)

    def test_beta_choice(self):
        ball = ball_of(BC2)
        dist = build_mu(ball, 0.01)
        assert dist.beta == pytest.approx(0.01 / (7.0 * 0.9), rel=1e-9)
        # large epsilon hits the 1/8 cap (the lemma's chain needs beta < 1/7)
        assert build_mu(ball, 10.0).beta == 0.125

    def test_bc2_spread_lower_bound(self):
        # oracle: evaluate the spread directly from the explicit vectors
        dist = build_mu(ball_of(BC2), 0.01)
        vecs = np.array([[1, 0, 0], [0, 1, 0], [0, 0, math.sqrt(2.0)]])
        mean = dist.mu @ vecs
        spread = float(dist.mu @ np.sum((vecs - mean) ** 2, axis=1))
        assert spread >= 0.9 - 0.01
        assert dictatorship_objective(BC2, dist) == pytest.approx(spread, abs=1e-9)

    def test_mu_sums_to_one_positive(self):
        for seed in range(10):
            rng = np.random.default_rng(600 + seed)
            f = rng.standard_normal((4, 4))
            dist = build_mu(ball_of(SymMatrix.from_array(f @ f.T)), 1e-3)
            assert dist.mu.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(dist.mu > 0)

    def test_degenerate_radius(self):
        with pytest.raises(DegenerateB):
            build_mu(ball_of(SymMatrix.from_array([[1.0, 1.0], [1.0, 1.0]])), 0.01)

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            build_mu(ball_of(BC2), 0.0)

    def test_spread_check_relative_at_small_scale(self, monkeypatch):
        # R(B)^2 is about 8e-22 here, far below an absolute floor of 1e-12
        ball = ball_of(SymMatrix(BC2.mat * 4.0**-35))
        r2 = ball.radius**2
        epsilon = 0.01 * r2
        assert build_mu(ball, epsilon).beta == pytest.approx(0.01 / 7.0, rel=1e-9)
        monkeypatch.setattr(hardness, "_spread", lambda b, w: r2 - epsilon - 1e-9 * r2)
        with pytest.raises(Infeasible):
            build_mu(ball, epsilon)

    def test_beta_at_the_top_of_the_double_range(self):
        # 7 R^2 lies beyond the largest double here; beta stays the scale-1
        # MU_EPSILON / 7 up to the rounding of R^2
        b = np.diag([1.0, 1.0, 0.25])
        base = analyze_b(SymMatrix.from_array(b))["hardness"]["beta"]
        top = analyze_b(SymMatrix.from_array(1.2e308 * b))["hardness"]["beta"]
        assert base == 1e-4 / 7.0
        assert top == pytest.approx(base, rel=1e-15)

    def test_weights_off_the_boundary_raise_infeasible(self):
        # Gram vectors (1, 0), (-1, 0) and the interior point (0, 0.1): all
        # weight on the interior point leaves a spread far below R^2 = 1
        b = SymMatrix.from_array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.01]])
        ball = ball_of(b)
        assert ball.support == (0, 1)
        moved = dataclasses.replace(ball, weights=np.array([0.0, 0.0, 1.0]))
        with pytest.raises(Infeasible):
            build_mu(moved, 0.01)


class TestBuildBasis:
    def test_k2_sign_pattern(self):
        dist = LabelDistribution(mu=np.array([0.5, 0.5]), beta=0.0,
                                 p=np.array([0.5, 0.5]))
        basis = build_basis(dist)
        np.testing.assert_allclose(basis.table[0], [1.0, 1.0], atol=1e-12)
        x1 = basis.table[1]
        assert abs(x1[0]) == pytest.approx(1.0, abs=1e-12)
        assert x1[0] == pytest.approx(-x1[1], abs=1e-12)

    def test_uniform_k3_invariants(self):
        mu = np.full(3, 1.0 / 3.0)
        basis = build_basis(LabelDistribution(mu=mu, beta=0.0, p=mu))
        t = basis.table
        np.testing.assert_allclose(t[0], 1.0, atol=1e-12)
        np.testing.assert_allclose((t * mu) @ t.T, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(t.T @ t, np.diag(1.0 / mu), atol=1e-8)

    def test_first_moment_vanishes(self):
        rng = np.random.default_rng(4)
        raw = rng.random(5) + 0.1
        mu = raw / raw.sum()
        basis = build_basis(LabelDistribution(mu=mu, beta=0.0, p=mu))
        for i in range(1, 5):
            assert float(mu @ basis.table[i]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_mass_rejected(self):
        dist = LabelDistribution(mu=np.array([1.0, 0.0]), beta=0.0,
                                 p=np.array([1.0, 0.0]))
        with pytest.raises(ZeroMass):
            build_basis(dist)


class TestDictatorshipObjective:
    def test_identity3_uniform_exact(self):
        b = SymMatrix.from_array(np.eye(3))
        dist = build_mu(ball_of(b), 1e-3)
        assert abs(dictatorship_objective(b, dist) - 2.0 / 3.0) <= 1e-12

    def test_single_label(self):
        b = SymMatrix.from_array([[4.0]])
        dist = LabelDistribution(mu=np.array([1.0]), beta=0.0, p=np.array([1.0]))
        assert dictatorship_objective(b, dist) == pytest.approx(0.0, abs=1e-12)

    def test_bc2_value_window(self):
        dist = build_mu(ball_of(BC2), 0.01)
        val = dictatorship_objective(BC2, dist)
        assert 0.89 <= val <= 0.9 + 1e-12

    def test_beta_to_zero_recovers_r2(self):
        for seed in range(6):
            rng = np.random.default_rng(700 + seed)
            f = rng.standard_normal((3, 3))
            b = SymMatrix.from_array(f @ f.T)
            ball = ball_of(b)
            dist = build_mu(ball, 1e-9)  # beta ~ 1e-10
            assert abs(dictatorship_objective(b, dist) - ball.radius ** 2) <= 1e-6

    def test_gap_witness_reaches_threshold(self):
        from gramclust import search_cb

        for seed in range(4):
            rng = np.random.default_rng(800 + seed)
            f = rng.standard_normal((3, 3))
            b = SymMatrix.from_array(f @ f.T)
            ball = ball_of(b)
            eps = 1e-4 * ball.radius ** 2
            dist = build_mu(ball, eps)
            c_est, _, _ = search_cb(b)
            witness = dictatorship_objective(b, dist) / c_est
            ratio = ball.radius ** 2 / c_est
            assert witness >= ratio - 2 * eps / c_est
