"""Dense symmetric matrices, PSD/centered validation, and Gram factorization.

Every other module consumes these types: the data matrix A and the
hypothesis matrix B are both ``SymMatrix``, and B is turned into explicit
Gram vectors by :func:`gram_factorize`.
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


@dataclass(frozen=True)
class SymMatrix:
    """Dense symmetric real matrix.

    Ingested matrices are symmetrized as (M + M^T)/2 so that entries are
    bit-exactly symmetric afterwards; the largest asymmetry seen on the way
    in is recorded for run reports.
    """

    mat: np.ndarray
    asymmetry: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
        m = (m + m.T) / 2.0
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
    def eig_bounds(self) -> tuple[float, float]:
        """(smallest eigenvalue, spectral norm), from one eigendecomposition."""
        eigs = np.linalg.eigvalsh(self.mat)
        return float(eigs[0]), float(np.max(np.abs(eigs)))

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

    Relative to M alone, so a small non-centered M fails like a large one.
    """
    total = float(np.sum(m.mat))
    return abs(total) <= CENTERED_TOL * float(np.sum(np.abs(m.mat)))


def gram_factorize(b: SymMatrix) -> GramFactor:
    """Factor a PSD matrix B as a Gram matrix of k explicit vectors.

    Uses a symmetric eigendecomposition rather than Cholesky so that
    rank-deficient B (repeated or affinely dependent v_i) is handled:
    eigenvalues in [-PSD_TOL * max_eig, 0] are clamped to zero and dropped.

    Raises NotPSD when an eigenvalue is more negative than the clamp band.
    """
    if not validate_psd(b):
        raise NotPSD("matrix has a negative eigenvalue beyond tolerance")
    eigs, vecs = np.linalg.eigh(b.mat)
    max_eig = float(eigs[-1]) if eigs.size else 0.0
    cut = PSD_TOL * max(max_eig, 0.0)
    keep = eigs > cut
    # descending eigenvalue order keeps the factorization deterministic
    order = np.argsort(eigs[keep])[::-1]
    lam = eigs[keep][order]
    u = vecs[:, keep][:, order]
    vectors = u * np.sqrt(lam)
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
