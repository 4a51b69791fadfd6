import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gramclust import (
    NotPSD,
    SymMatrix,
    TooLarge,
    brute_force_c3,
    brute_force_clust,
    clustering_value,
    formula_bc,
    radius_squared,
    random_centered_psd,
    search_cb,
)
from gramclust import oracle
from gramclust.oracle import GRID_CAP, STATE_CAP

ANTIPODAL = SymMatrix.from_array([[1.0, -1.0], [-1.0, 1.0]])


def direct_max(a, b):
    """Independent oracle: plain product enumeration."""
    n, k = a.dim, b.dim
    best = -math.inf
    for sigma in itertools.product(range(k), repeat=n):
        best = max(best, clustering_value(a, b, np.array(sigma)))
    return best


class TestBruteForceClust:
    def test_antipodal(self):
        value, sigma = brute_force_clust(ANTIPODAL, SymMatrix.from_array(np.eye(2)))
        assert value == pytest.approx(2.0)
        assert sigma[0] != sigma[1]

    def test_zero_matrix(self):
        a = SymMatrix.from_array(np.zeros((3, 3)))
        value, _ = brute_force_clust(a, SymMatrix.from_array(np.eye(2)))
        assert value == 0.0

    def test_coincident_gram_vectors_give_zero(self):
        a = random_centered_psd(5, np.random.default_rng(1))
        b = SymMatrix.from_array([[1.0, 1.0], [1.0, 1.0]])
        value, _ = brute_force_clust(a, b)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_matches_direct_enumeration(self):
        for seed in range(8):
            rng = np.random.default_rng(200 + seed)
            n = int(rng.integers(3, 7))
            k = int(rng.integers(2, 4))
            a = random_centered_psd(n, rng)
            f = rng.standard_normal((k, k))
            b = SymMatrix.from_array(f @ f.T)
            value, sigma = brute_force_clust(a, b)
            assert value == pytest.approx(direct_max(a, b), rel=1e-10)
            assert clustering_value(a, b, sigma) == pytest.approx(value, rel=1e-10)

    def test_single_label(self):
        a = random_centered_psd(4, np.random.default_rng(5))
        value, sigma = brute_force_clust(a, SymMatrix.from_array([[2.0]]))
        assert value == pytest.approx(0.0, abs=1e-9)
        assert np.all(sigma == 0)

    def test_nonnegative_on_centered(self):
        for seed in range(5):
            a = random_centered_psd(6, np.random.default_rng(300 + seed))
            f = np.random.default_rng(seed).standard_normal((3, 3))
            value, _ = brute_force_clust(a, SymMatrix.from_array(f @ f.T))
            assert value >= -1e-12

    def test_invariant_under_index_permutation(self):
        rng = np.random.default_rng(17)
        a = random_centered_psd(6, rng)
        b = SymMatrix.from_array(np.eye(2))
        value, _ = brute_force_clust(a, b)
        perm = rng.permutation(6)
        a_perm = SymMatrix(a.mat[np.ix_(perm, perm)])
        value_perm, _ = brute_force_clust(a_perm, b)
        assert value_perm == pytest.approx(value, rel=1e-12)

    def test_state_cap(self, monkeypatch):
        # 3^17 = 1.3e8 assignments: the cap is checked before the first is scored
        def no_work(*args, **kwargs):
            raise AssertionError("the enumeration started")

        monkeypatch.setattr(oracle, "clustering_value", no_work)
        a = random_centered_psd(17, np.random.default_rng(0))
        assert 3 ** 17 > STATE_CAP
        with pytest.raises(TooLarge, match="exceed the cap"):
            brute_force_clust(a, SymMatrix.from_array(np.eye(3)))


class TestBruteForceC3:
    def test_identity3(self):
        b = SymMatrix.from_array(np.eye(3))
        assert brute_force_c3(b) == pytest.approx(9.0 / (8.0 * math.pi), abs=1e-3)

    def test_bc_quarter_degenerate(self):
        b = SymMatrix.from_array(np.diag([1.0, 1.0, 0.25]))
        assert brute_force_c3(b) == pytest.approx(1.0 / math.pi, abs=1e-3)

    def test_worthless_third_label(self):
        b = SymMatrix.from_array(np.diag([1.0, 1.0, 0.0]))
        val = brute_force_c3(b)
        assert val == pytest.approx(1.0 / math.pi, abs=1e-3)
        c_est, _, _ = search_cb(b)
        assert val == pytest.approx(c_est, rel=1e-3)

    def test_monotone_in_diagonal(self):
        values = [
            brute_force_c3(SymMatrix.from_array(np.diag([1.0, 1.0, c])))
            for c in (0.2, 0.6, 1.0, 2.0)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_cross_oracle_agreement(self):
        # the search's psi is the value of a partition, the grid oracle's a
        # refined grid maximum: the search may exceed the oracle, and may
        # fall short of it only by the fixed point's stopping tolerance
        rng = np.random.default_rng(400)
        blocks = []
        for _ in range(8):
            f = rng.standard_normal((3, 3))
            g = rng.standard_normal((3, 1))
            h = rng.standard_normal((3, 2))
            # Wishart, near-identity and rank 2
            blocks += [(f @ f.T, 240), (np.eye(3) + 0.3 * g @ g.T, 240), (h @ h.T, 240)]
        # a rank-2 B whose Gram seeds reach residual < FP_TOL 2e-8 short of
        # the optimum, on a slow stretch where psi still rises; the 240 grid
        # is 1.1e-8 short there too
        rng = np.random.default_rng(2026)
        for _ in range(8):
            h = [rng.standard_normal(shape) for shape in ((3, 3), (3, 1), (3, 2))][2]
        blocks.append((h @ h.T / 2, 360))
        for m, grid in blocks:
            b = SymMatrix.from_array(m)
            search_val, _, _ = search_cb(b)
            assert search_val >= brute_force_c3(b, grid=grid) * (1.0 - 1e-9)

    def test_memory_flat_at_the_grid_cap(self):
        # the whole 1441 x 1441 grid at once peaked at 224 MB; one block of
        # a1 rows at a time stays near 7 MB
        tracemalloc.start()
        try:
            value = brute_force_c3(SymMatrix.from_array(np.eye(3)), grid=GRID_CAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(9.0 / (8.0 * math.pi), abs=1e-6)
        assert peak < 16e6

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            brute_force_c3(SymMatrix.from_array(np.eye(2)))
        with pytest.raises(ValueError):
            brute_force_c3(SymMatrix.from_array(np.eye(3)), grid=10)
        with pytest.raises(ValueError):
            brute_force_c3(SymMatrix.from_array(np.eye(3)), grid=GRID_CAP + 1)

    def test_rejects_indefinite(self):
        b = SymMatrix.from_array([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        with pytest.raises(NotPSD):
            brute_force_c3(b)


class TestVerifySection6:
    def test_reference_values(self):
        # Pipeline R^2, C(B) and ratio on diag(1, 1, c) against the closed forms.
        for c in (0.25, 1.0, 2.0):
            b = SymMatrix.from_array(np.diag([1.0, 1.0, c]))
            r2_ref, c_ref, ratio_ref = formula_bc(c)
            r2 = radius_squared(b)
            c_est, _, _ = search_cb(b)
            assert r2 == pytest.approx(r2_ref, rel=0.01)
            assert c_est == pytest.approx(c_ref, rel=0.01)
            assert r2 / c_est == pytest.approx(ratio_ref, rel=0.01)
        assert formula_bc(1.0)[2] == pytest.approx(16.0 * math.pi / 27.0)
        assert formula_bc(2.0)[2] == pytest.approx(72.0 * math.pi / 125.0)
        assert formula_bc(0.25)[2] == pytest.approx(math.pi * 1.25 ** 2 / 3.0)

    def test_formula_consistency(self):
        for c in (0.3, 0.5, 0.7, 4.0):
            r2, c_of_b, ratio = formula_bc(c)
            assert ratio == pytest.approx(r2 / c_of_b)
