import math

import numpy as np
import pytest

from gramclust import (
    ConicalPartition,
    LabelOutOfRange,
    SymMatrix,
    TooFewTrials,
    cluster,
    clustering_value,
    estimate_expectation,
    random_centered_psd,
    round_best_of,
    round_once,
    search_cb,
    solve_sdp,
)
from gramclust.rounding import _trial_rng

ANTIPODAL = SymMatrix.from_array([[1.0, -1.0], [-1.0, 1.0]])
I2 = SymMatrix.from_array(np.eye(2))


def halflines():
    return ConicalPartition(k=2, active=(0, 1), directions=np.array([[1.0], [-1.0]]))


def cones(apertures, k=3):
    bounds = np.concatenate([[0.0], np.cumsum(apertures)])
    w = []
    for j, ap in enumerate(apertures):
        mid = (bounds[j] + bounds[j + 1]) / 2.0
        w.append([math.cos(mid) / math.cos(ap / 2), math.sin(mid) / math.cos(ap / 2)])
    return ConicalPartition(k=k, active=tuple(range(len(apertures))),
                            directions=np.array(w))


class TestClusteringValue:
    def test_antipodal_split(self):
        assert clustering_value(ANTIPODAL, I2, [0, 1]) == pytest.approx(2.0)

    def test_constant_assignment_centered(self):
        assert clustering_value(ANTIPODAL, I2, [0, 0]) == pytest.approx(0.0)

    def test_zero_matrix(self):
        a = SymMatrix.from_array(np.zeros((3, 3)))
        assert clustering_value(a, I2, [1, 0, 1]) == 0.0

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            clustering_value(ANTIPODAL, I2, [0, 2])
        with pytest.raises(LabelOutOfRange):
            clustering_value(ANTIPODAL, I2, [0, -1])
        with pytest.raises(LabelOutOfRange):
            clustering_value(ANTIPODAL, I2, [0, 1, 0])

    def test_matches_direct_double_sum(self):
        rng = np.random.default_rng(3)
        a = random_centered_psd(6, rng)
        b = SymMatrix.from_array(np.diag([1.0, 1.0, 0.5]))
        sigma = rng.integers(0, 3, size=6)
        direct = sum(
            a.mat[i, j] * b.mat[sigma[i], sigma[j]] for i in range(6) for j in range(6)
        )
        assert clustering_value(a, b, sigma) == pytest.approx(direct, rel=1e-12)


class TestRoundOnce:
    def test_antipodal_vectors_separate(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        for t in range(20):
            sigma = round_once(x, halflines(), _trial_rng(7, t))
            assert sigma[0] != sigma[1]

    def test_identical_vectors_collapse(self):
        x = np.tile([0.6, 0.8], (5, 1))
        sigma = round_once(x, halflines(), _trial_rng(1, 0))
        assert len(set(sigma.tolist())) == 1

    def test_single_vector_label_distribution(self):
        # label frequencies must match the cones' Gaussian masses
        # (apertures / 2pi for planar cones)
        apertures = [math.pi / 2, 2 * math.pi / 3, 5 * math.pi / 6]
        part = cones(apertures)
        x = np.array([[1.0]])
        trials = 6000
        counts = np.zeros(3)
        for t in range(trials):
            counts[round_once(x, part, _trial_rng(3, t))[0]] += 1
        expected = trials * np.array(apertures) / (2 * math.pi)
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 16.27  # 99.97% quantile, 2 degrees of freedom

    def test_inactive_labels_never_emitted(self):
        part = ConicalPartition(k=5, active=(1, 3), directions=np.array([[1.0], [-1.0]]))
        x = np.random.default_rng(0).standard_normal((50, 4))
        sigma = round_once(x, part, _trial_rng(0, 0))
        assert set(sigma.tolist()) <= {1, 3}


class TestRoundBestOf:
    def test_antipodal_best_is_exact(self):
        sol = solve_sdp(ANTIPODAL, seed=0)
        best, values = round_best_of(ANTIPODAL, I2, sol.vectors, halflines(),
                                     trials=16, seed=0)
        assert best.value == pytest.approx(2.0, abs=1e-12)
        assert len(values) == 16

    def test_zero_matrix(self):
        a = SymMatrix.from_array(np.zeros((2, 2)))
        best, _ = round_best_of(a, I2, np.eye(2), halflines(), trials=4, seed=0)
        assert best.value == 0.0

    def test_never_below_zero_on_centered(self):
        a = random_centered_psd(6, np.random.default_rng(8))
        best, _ = round_best_of(a, I2, np.eye(6), halflines(), trials=3, seed=8)
        assert best.value >= 0.0

    def test_expectation_dominates_c_times_sdp(self):
        a = random_centered_psd(8, np.random.default_rng(12))
        b = SymMatrix.from_array(np.eye(3))
        c_est, part, _ = search_cb(b)
        sol = solve_sdp(a, seed=12)
        _, values = round_best_of(a, b, sol.vectors, part, trials=200, seed=12)
        mean, stderr = estimate_expectation(values)
        assert mean >= c_est * sol.value - 3.0 * stderr

    def test_deterministic_sigma_sequence(self):
        a = random_centered_psd(5, np.random.default_rng(9))
        b = SymMatrix.from_array(np.eye(3))
        _, part, _ = search_cb(b)
        sol = solve_sdp(a, seed=9)
        b1, v1 = round_best_of(a, b, sol.vectors, part, trials=24, seed=77)
        b2, v2 = round_best_of(a, b, sol.vectors, part, trials=24, seed=77)
        assert v1 == v2
        np.testing.assert_array_equal(b1.sigma, b2.sigma)

    def test_mean_reproducible_across_seeds(self):
        a = random_centered_psd(8, np.random.default_rng(15))
        b = SymMatrix.from_array(np.eye(3))
        _, part, _ = search_cb(b)
        sol = solve_sdp(a, seed=15)
        _, v1 = round_best_of(a, b, sol.vectors, part, trials=200, seed=1)
        _, v2 = round_best_of(a, b, sol.vectors, part, trials=200, seed=2)
        m1, s1 = estimate_expectation(v1)
        m2, s2 = estimate_expectation(v2)
        assert abs(m1 - m2) <= 3.0 * math.hypot(s1, s2)

    def test_relabeling_equivariance(self):
        a = random_centered_psd(6, np.random.default_rng(19))
        rng = np.random.default_rng(20)
        f = rng.standard_normal((3, 3))
        b = SymMatrix.from_array(f @ f.T)
        _, part, _ = search_cb(b)
        perm = np.array([2, 0, 1])
        bp = b.permuted(perm)
        inv = np.argsort(perm)
        # relabel the partition consistently: label a of b becomes inv[a]
        new_active = sorted(int(inv[lab]) for lab in part.active)
        reorder = np.argsort([int(inv[lab]) for lab in part.active])
        part_p = ConicalPartition(k=3, active=tuple(new_active),
                                  directions=part.directions[reorder])
        x = solve_sdp(a, seed=19).vectors
        best, _ = round_best_of(a, b, x, part, trials=32, seed=4)
        best_p, _ = round_best_of(a, bp, x, part_p, trials=32, seed=4)
        assert best_p.value == pytest.approx(best.value, abs=1e-9)


class TestEstimateExpectation:
    def test_constant_list(self):
        assert estimate_expectation([2.0, 2.0, 2.0]) == (2.0, 0.0)

    def test_two_point_sample(self):
        mean, stderr = estimate_expectation([0.0, 2.0])
        assert mean == pytest.approx(1.0)
        assert stderr == pytest.approx(1.0)

    def test_too_few(self):
        with pytest.raises(TooFewTrials):
            estimate_expectation([1.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scaled", ["A", "B"])
    def test_scale_free_at_the_top_of_the_range(self, scaled):
        # A * 2^520 or B * 4^260 scales every trial value by 2^520; their
        # squared deviations would overflow unless taken at unit scale
        a = random_centered_psd(12, np.random.default_rng(3))
        if scaled == "A":
            b = SymMatrix.from_array(np.eye(3))
            big_a, big_b = SymMatrix(np.ldexp(a.mat, 520)), b
        else:
            g = np.random.default_rng(4).standard_normal((4, 4))
            b = SymMatrix.from_array(g @ g.T / 4)
            big_a, big_b = a, SymMatrix(np.ldexp(b.mat, 520))
        base = cluster(a, b, trials=16, seed=0)["rounding"]
        big = cluster(big_a, big_b, trials=16, seed=0)["rounding"]
        for key in ("trial_mean", "trial_stderr"):
            assert math.isfinite(big[key]) and base[key] != 0.0
            assert big[key] == math.ldexp(base[key], 520), key
