import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramclust import (
    NotPSD,
    SymMatrix,
    analyze_b,
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
        [
            [[1, 0, -1], [0, -1, 1], [-1, 1, 0]],
            [[1, 2], [2, 1]],
            # at e = 40 the entries reach 1.7e308, where eigvalsh of the
            # matrix itself gives -inf and inf
            np.ldexp(1.7e308 * np.array([[1, 0, -1], [0, -1, 1], [-1, 1, 0]]), -40),
        ],
        ids=["indefinite-3", "indefinite-2", "top-indefinite-3"],
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


class TestUnit:
    @pytest.mark.parametrize("top", [5e-324, 1e-300, 0.5, 1.0, 3.999, 4.0, 1e300, 1.7e308])
    def test_largest_entry_in_one_to_four(self, top):
        m = sym([[top, -top / 3], [-top / 3, top / 2]])
        unit, shift = m.unit
        assert 1.0 <= np.max(np.abs(unit)) < 4.0
        np.testing.assert_array_equal(np.ldexp(unit, 2 * shift), m.mat)

    def test_no_copy_at_shift_zero(self):
        for m in (sym(np.zeros((3, 3))), sym(3.0 * np.eye(3))):
            unit, shift = m.unit
            assert shift == 0 and unit is m.mat


class TestValidateCentered:
    def test_row_sums_zero(self):
        assert validate_centered(sym([[1, -1], [-1, 1]]))

    def test_identity_not_centered(self):
        assert not validate_centered(sym(np.eye(2)))
        # the tolerance is relative, so scale does not hide the offset
        assert not validate_centered(sym(1e-20 * np.eye(2)))

    def test_zero_matrix(self):
        assert validate_centered(sym(np.zeros((3, 3))))

    @pytest.mark.parametrize("c", [1.2e308, 1.7e308])
    def test_top_of_the_double_range(self, c):
        # the plain sum of these entries overflows to nan
        u = np.random.default_rng(3).standard_normal((6, 3))
        u -= u.mean(axis=0)
        a0 = u @ u.T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_centered(sym(c * (a0 / np.max(np.abs(a0)))))
            assert not validate_centered(sym(c * np.eye(2)))


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

    def test_equal_rows_give_equal_vectors(self):
        # eigh alone leaves copies of one Gram vector up to ~1e-12 apart;
        # every row equal to an earlier one gets that row's vector
        rng = np.random.default_rng(12)
        for _ in range(100):
            r = int(rng.integers(2, 11))
            labels = rng.permutation(np.arange(int(rng.integers(r + 1, 65))) % r)
            rows = rng.standard_normal((r, r))[labels]
            b = sym(rows @ rows.T)
            gf = gram_factorize(b)
            first = np.array([np.flatnonzero(labels == g)[0] for g in labels])
            np.testing.assert_array_equal(gf.vectors, gf.vectors[first])
            top = np.max(np.diag(b.mat))
            np.testing.assert_allclose(gf.gram(), b.mat, rtol=0, atol=1e-12 * top)

    @pytest.fixture
    def no_eigvalsh(self, monkeypatch):
        def eigvalsh(mat):
            raise AssertionError("gram_factorize ran a second decomposition")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)

    def test_one_decomposition(self, no_eigvalsh):
        g = np.random.default_rng(2).standard_normal((6, 4))
        gf = gram_factorize(sym(g @ g.T))
        assert gf.ambient_dim == 4

    def test_psd_rule_reads_the_eigh_eigenvalues(self, no_eigvalsh):
        with pytest.raises(NotPSD):
            gram_factorize(sym(np.diag([1.0, -1e-3])))
        gf = gram_factorize(sym(np.diag([1.0, -1e-12])))
        assert gf.ambient_dim == 1

    def test_eigh_bounds_match_eigvalsh(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            k = int(rng.integers(1, 65))
            g = rng.standard_normal((k, int(rng.integers(1, k + 4))))
            seeded, fresh = sym(g @ g.T), sym(g @ g.T)
            seeded.eigh()
            # the two LAPACK drivers differ by up to ~3e-15 of the norm at
            # k <= 64; the PSD rule's tolerance is 1e-9 of it
            norm = fresh.eig_bounds[1]
            np.testing.assert_allclose(seeded.eig_bounds, fresh.eig_bounds, rtol=0, atol=1e-14 * norm)

    def test_eigh_keeps_bounds_already_computed(self):
        m = sym(np.diag([2.0, -1e-12]))
        bounds = m.eig_bounds
        m.eigh()
        assert m.eig_bounds is bounds

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


    def test_eigenvalue_beyond_the_double_range_factors(self):
        # every entry is finite, but the largest eigenvalue of B is not; the
        # factor of B / 4^s times 2^s is finite, and so is every number the
        # B half reports, each at most the largest diagonal entry
        g = np.random.default_rng(1).standard_normal((3, 3))
        b = g @ g.T
        b = 1.7e308 * (b / np.max(np.abs(b)))
        assert np.isinf(np.linalg.eigvalsh(b)[-1])
        gf = gram_factorize(sym(b))
        assert gf.ambient_dim == 3
        v = np.ldexp(gf.vectors, -512)
        err = np.max(np.abs(v @ v.T - np.ldexp(b, -1024)))
        assert err <= 1e-9 * np.ldexp(np.max(b), -1024)

        report = analyze_b(sym(b))
        # json writes a non-finite float as Infinity or NaN
        text = json.dumps(report)
        assert "Infinity" not in text and "NaN" not in text
        assert report["cb"]["c_estimate"] <= report["ball"]["r2"] <= np.max(np.diag(b))


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

    def test_top_of_the_double_range(self):
        # (M + M^T) / 2 overflows for entries above half the largest double
        top = 1.2e308 * np.diag([1.0, 1.0, 0.25])
        skew = top.copy()
        skew[0, 1], skew[1, 0] = 1.5e308, 1.4e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kept, merged = SymMatrix.from_array(top), SymMatrix.from_array(skew)
        np.testing.assert_array_equal(kept.mat, top)
        assert merged.mat[0, 1] == merged.mat[1, 0] == 1.45e308

    def test_symmetric_input_kept_bit_for_bit(self):
        v = np.random.default_rng(4).standard_normal((5, 5))
        m = v @ v.T
        m = np.triu(m) + np.triu(m, 1).T
        np.testing.assert_array_equal(SymMatrix.from_array(m).mat, m)
        skew = m + 1e-12 * np.triu(np.ones((5, 5)), 1)
        merged = SymMatrix.from_array(skew).mat
        assert np.array_equal(merged, merged.T)
        np.testing.assert_array_equal(merged, (skew + skew.T) / 2.0)

    def test_symmetric_input_skips_the_merge(self, monkeypatch):
        def where(*args):
            raise AssertionError("a symmetric matrix was merged")

        m = np.array([[2.0, 5e-324], [5e-324, 1.0]])
        monkeypatch.setattr(np, "where", where)
        kept = SymMatrix(m)
        assert kept.asymmetry == 0.0
        np.testing.assert_array_equal(kept.mat, m)
        # a copy: the caller's array stays writable
        assert kept.mat is not m and m.flags.writeable

    def test_asymmetric_input_keeps_equal_subnormal_entries(self):
        # 0.5 * 5e-324 + 0.5 * 5e-324 is 0, so only unequal pairs are merged
        m = np.array([[5e-324, 1.0, 0.0], [1.5, 0.0, 5e-324], [0.0, 5e-324, 0.0]])
        merged = SymMatrix(m).mat
        assert merged[0, 0] == merged[1, 2] == merged[2, 1] == 5e-324
        assert merged[0, 1] == merged[1, 0] == 1.25

    def test_entries_immutable(self):
        m = SymMatrix.from_array(np.eye(2))
        with pytest.raises(ValueError):
            m.mat[0, 0] = 5.0
