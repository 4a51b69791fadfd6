"""Dense symmetric matrices, PSD/centered validation, and Gram factorization.

Every other module consumes these types: the data matrix A and the
hypothesis matrix B are both ``SymMatrix``, and B is turned into explicit
Gram vectors by :func:`gram_factorize`.  Every decomposition, sum and
solve of a matrix runs on its one exact scale, ``SymMatrix.unit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotPSD

# Relative tolerances of the validators: |sum of entries| against the sum of
# |entries| for the centered check, and the most negative eigenvalue against
# the spectral norm for the PSD check and the Gram factor's clamp band.
CENTERED_TOL = 1e-8
PSD_TOL = 1e-9


def _bounds(eigs: np.ndarray) -> tuple[float, float]:
    return float(eigs[0]), float(np.max(np.abs(eigs)))


@dataclass(frozen=True)
class SymMatrix:
    """Dense symmetric real matrix.

    Ingested matrices are symmetrized as M/2 + M^T/2 where M and M^T
    differ, which cannot overflow, so that entries are bit-exactly
    symmetric afterwards; the largest asymmetry seen on the way in is
    recorded for run reports, and a symmetric M is kept as it is.
    """

    mat: np.ndarray
    asymmetry: float = 0.0

    def __post_init__(self):
        m = np.array(self.mat, dtype=float)  # a copy: the caller's stays writable
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        asym = 0.0
        if not np.array_equal(m, m.T):  # NaN included
            asym = float(np.max(np.abs(m - m.T)))
            m = np.where(m == m.T, m, 0.5 * m + 0.5 * m.T)
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "asymmetry", asym)

    @classmethod
    def from_array(cls, values) -> "SymMatrix":
        return cls(np.asarray(values, dtype=float))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def unit(self) -> tuple[np.ndarray, int]:
        """(M / 4^s, s) with largest |entry| in [1, 4), s = 0 for M = 0 (then
        ``mat`` itself): exact, so M * 4^e has the same unit and s + e."""
        top = float(np.max(np.abs(self.mat)))
        shift = (math.frexp(top)[1] - 1) // 2 if top > 0.0 else 0
        unit = np.ldexp(self.mat, -2 * shift) if shift else self.mat
        unit.flags.writeable = False
        return unit, shift

    @cached_property
    def eig_bounds(self) -> tuple[float, float]:
        """(smallest eigenvalue, spectral norm) of ``unit``, from one eigvalsh."""
        return _bounds(np.linalg.eigvalsh(self.unit[0]))

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvectors of ``unit``; fills
        ``eig_bounds`` from the same eigenvalues when it is not yet computed."""
        eigs, vecs = np.linalg.eigh(self.unit[0])
        self.__dict__.setdefault("eig_bounds", _bounds(eigs))
        return eigs, vecs

    def permuted(self, perm: np.ndarray) -> "SymMatrix":
        """Simultaneous row/column permutation: entry (i,j) of the result is
        entry (perm[i], perm[j]) of self."""
        p = np.asarray(perm, dtype=int)
        return SymMatrix(self.mat[np.ix_(p, p)])


@dataclass(frozen=True)
class GramFactor:
    """Vectors v_0..v_{k-1} whose pairwise inner products reproduce B.

    ``ambient_dim`` equals the numerical rank of B.
    """

    k: int
    ambient_dim: int
    vectors: np.ndarray = field(repr=False)  # shape (k, ambient_dim)

    def gram(self) -> np.ndarray:
        return self.vectors @ self.vectors.T


def validate_psd(m: SymMatrix) -> bool:
    """True iff the smallest eigenvalue is >= -PSD_TOL * spectral norm.

    Relative to M alone, so a small indefinite M fails like a large one,
    while M = 0 passes.  The eigenvalues are computed once per matrix
    (``SymMatrix.eig_bounds``).
    """
    smallest, spectral = m.eig_bounds
    return smallest >= -PSD_TOL * spectral


def validate_centered(m: SymMatrix) -> bool:
    """True iff |sum of entries| <= CENTERED_TOL * sum of |entries|.

    Relative to M alone, so a small non-centered M fails like a large one;
    summed on ``unit``, so no sum overflows.
    """
    unit = m.unit[0]
    return abs(float(np.sum(unit))) <= CENTERED_TOL * float(np.sum(np.abs(unit)))


def gram_factorize(b: SymMatrix) -> GramFactor:
    """Factor a PSD matrix B as a Gram matrix of k explicit vectors.

    Uses a symmetric eigendecomposition rather than Cholesky so that
    rank-deficient B (repeated or affinely dependent v_i) is handled:
    eigenvalues in [-PSD_TOL * max_eig, 0] are clamped to zero and dropped.
    The one ``eigh`` also gives the PSD check its eigenvalues, so a B not
    yet validated is decomposed once.  It factors ``unit`` = B / 4^s and
    scales the vectors back by 2^s, so they are finite: |v_i|^2 = b_ii.

    Equal rows of B are copies of one Gram vector, which ``eigh`` leaves
    up to ~1e-12 apart; so each row that equals an earlier one, after
    rounding to 13 digits of the largest diagonal entry, gets that earlier
    row's vector bit for bit (the one copy rule: the enclosing ball merges
    only equal bits).  The rows are compared, as bytes in one sort, only
    when B is singular and its rounded diagonal repeats, as equal rows
    require; a full-rank B skips the comparison.

    Raises NotPSD when an eigenvalue is more negative than the clamp band.
    """
    unit, shift = b.unit
    eigs, vecs = b.eigh()
    if not validate_psd(b):
        raise NotPSD("matrix has a negative eigenvalue beyond tolerance")
    cut = PSD_TOL * max(float(eigs[-1]), 0.0)
    keep = eigs > cut
    # descending eigenvalue order keeps the factorization deterministic
    order = np.argsort(eigs[keep])[::-1]
    lam = eigs[keep][order]
    u = vecs[:, keep][:, order]
    vectors = np.ldexp(u * np.sqrt(lam), shift)
    # equal rows need a clamped eigenvalue (their difference spans one) and
    # equal diagonal entries
    if 0 < len(lam) < b.dim:
        top = float(unit.diagonal().max())
        diag = (unit.diagonal() / top).round(13)
        diag.sort()
        if (diag[1:] == diag[:-1]).any():
            # + 0.0 turns -0.0 into 0.0, so equal rounded rows have equal bytes
            rounded = (unit / top).round(13) + 0.0
            rows = rounded.view(np.dtype((np.void, rounded.itemsize * b.dim))).ravel()
            _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
            vectors = vectors[first[inverse]]
    return GramFactor(k=b.dim, ambient_dim=int(np.sum(keep)), vectors=vectors)


def unit_scaled(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """arr / 2^s with largest |entry| in [1/2, 1), and s (0 for zeros): an
    exact scaling whose squares neither overflow nor underflow."""
    shift = math.frexp(float(np.max(np.abs(arr), initial=0.0)))[1]
    return np.ldexp(arr, -shift), shift


def random_centered_psd(n: int, rng: np.random.Generator) -> SymMatrix:
    """Random centered PSD test matrix A = (⟨u_i, u_j⟩) with sum u_i = 0.

    Each u_i is standard Gaussian in R^n, translated so the u_i sum to
    zero; the resulting A passes both validators.
    """
    if n < 2:
        raise ValueError("random_centered_psd requires n >= 2")
    u = rng.standard_normal((n, n))
    u -= u.mean(axis=0)
    return SymMatrix(u @ u.T)
