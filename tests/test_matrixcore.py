import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramclust import (
    NotPSD,
    SymMatrix,
    gram_factorize,
    random_centered_psd,
    validate_centered,
    validate_psd,
)


def sym(values):
    return SymMatrix.from_array(values)


class TestValidatePsd:
    def test_identity(self):
        assert validate_psd(sym(np.eye(3)))

    def test_rank_one_psd(self):
        # eigenvalues {0, 2}
        assert validate_psd(sym([[1, -1], [-1, 1]]))

    def test_indefinite(self):
        # eigenvalue -1
        assert not validate_psd(sym([[0, 1], [1, 0]]))

    def test_tolerance_is_relative_to_spectral_norm(self):
        assert validate_psd(sym(np.diag([1e6, -1e-4])))  # -1e-4 >= -1e-9 * 1e6
        assert not validate_psd(sym(np.diag([1e6, -1e-2])))

    @pytest.mark.parametrize("e", [-70, 0, 40])
    @pytest.mark.parametrize(
        "values",
        [[[1, 0, -1], [0, -1, 1], [-1, 1, 0]], [[1, 2], [2, 1]]],
        ids=["indefinite-3", "indefinite-2"],
    )
    def test_indefinite_rejected_at_any_scale(self, values, e):
        assert not validate_psd(sym(np.array(values) * 2.0 ** e))

    @pytest.mark.parametrize("e", [-70, 0, 40])
    def test_zero_and_rank_deficient_accepted_at_any_scale(self, e):
        g = np.random.default_rng(6).standard_normal((5, 2))
        assert validate_psd(sym(np.zeros((4, 4))))
        assert validate_psd(sym(g @ g.T * 2.0 ** e))
        assert validate_psd(sym(np.ones((3, 3)) * 2.0 ** e))

    def test_eigenvalues_computed_once_per_matrix(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda mat: calls.append(1) or eigvalsh(mat)
        )
        m = sym(np.diag([1e6, -1e-4]))
        assert validate_psd(m)
        assert validate_psd(m)
        assert len(calls) == 1


class TestValidateCentered:
    def test_row_sums_zero(self):
        assert validate_centered(sym([[1, -1], [-1, 1]]))

    def test_identity_not_centered(self):
        assert not validate_centered(sym(np.eye(2)))
        # the tolerance is relative, so scale does not hide the offset
        assert not validate_centered(sym(1e-20 * np.eye(2)))

    def test_zero_matrix(self):
        assert validate_centered(sym(np.zeros((3, 3))))


class TestGramFactorize:
    def test_identity_gives_orthonormal_vectors(self):
        gf = gram_factorize(sym(np.eye(2)))
        assert gf.ambient_dim == 2
        np.testing.assert_allclose(gf.gram(), np.eye(2), atol=1e-12)

    def test_rank_one_coincident_vectors(self):
        gf = gram_factorize(sym([[1, 1], [1, 1]]))
        assert gf.ambient_dim == 1
        np.testing.assert_allclose(gf.vectors[0], gf.vectors[1], atol=1e-12)
        assert np.linalg.norm(gf.vectors[0]) == pytest.approx(1.0)

    def test_bc_diagonal_roundtrip(self):
        b = sym(np.diag([1.0, 1.0, 2.0]))
        gf = gram_factorize(b)
        # oracle: recompute the Gram matrix entrywise
        np.testing.assert_allclose(gf.gram(), b.mat, atol=1e-12)
        norms = np.linalg.norm(gf.vectors, axis=1) ** 2
        np.testing.assert_allclose(sorted(norms), [1.0, 1.0, 2.0], atol=1e-12)

    def test_not_psd_raises(self):
        with pytest.raises(NotPSD):
            gram_factorize(sym([[0, 1], [1, 0]]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 10_000))
    def test_roundtrip_random_psd(self, k, rank, seed):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((k, min(rank, k)))
        b = sym(f @ f.T)
        gf = gram_factorize(b)
        scale = max(np.max(np.abs(b.mat)), 1.0)
        assert np.max(np.abs(gf.gram() - b.mat)) <= 1e-8 * scale
        assert gf.ambient_dim <= k


class TestRandomCenteredPsd:
    def test_n2_is_antipodal_multiple(self):
        a = random_centered_psd(2, np.random.default_rng(3))
        s = a.mat[0, 0]
        assert s >= 0
        np.testing.assert_allclose(a.mat, s * np.array([[1, -1], [-1, 1]]), atol=1e-12)

    def test_passes_validators(self):
        a = random_centered_psd(5, np.random.default_rng(11))
        assert validate_psd(a)
        assert validate_centered(a)

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            random_centered_psd(1, np.random.default_rng(0))

    def test_centered_sum_scale(self):
        a = random_centered_psd(8, np.random.default_rng(5))
        assert abs(np.sum(a.mat)) <= 1e-8 * np.sum(np.abs(a.mat))


class TestSymmetrization:
    def test_ingestion_symmetrizes_and_records(self):
        m = SymMatrix.from_array([[1.0, 2.0 + 1e-12], [2.0, 1.0]])
        assert m.asymmetry == pytest.approx(1e-12)
        np.testing.assert_array_equal(m.mat, m.mat.T)

    def test_entries_immutable(self):
        m = SymMatrix.from_array(np.eye(2))
        with pytest.raises(ValueError):
            m.mat[0, 0] = 5.0
