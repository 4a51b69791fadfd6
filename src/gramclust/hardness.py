"""Computable gadgets from the hardness side of the analysis.

The boundary-support weights p of the enclosing ball induce a label
distribution; a small perturbation beta keeps every atom positive while
the mu-weighted spread of the Gram vectors stays within epsilon of R(B)^2.
That spread is exactly the dictatorship objective value, and the
orthonormal basis X_0..X_{k-1} underlies the Fourier expansion on which
the (out-of-scope) soundness analysis runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ball import EnclosingBall
from .errors import DegenerateB, Infeasible, ZeroMass
from .matrixcore import SymMatrix

BETA_CAP = 0.125  # the perturbation lemma's chain needs beta < 1/7


@dataclass(frozen=True)
class LabelDistribution:
    """mu(i) = (1 - beta) p(i) + beta / k, all atoms positive for beta > 0."""

    mu: np.ndarray
    beta: float
    p: np.ndarray = field(repr=False)

    @property
    def k(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class OrthonormalBasis:
    """Random variables X_0..X_{k-1} on ({0..k-1}, mu), X_0 = 1.

    table[i, w] = X_i(w).  Rows are orthonormal in L2(mu) and the columns
    satisfy sum_i X_i(w) X_i(w') = delta_{ww'} / mu(w).
    """

    k: int
    table: np.ndarray = field(repr=False)


def _spread(b: np.ndarray, weights: np.ndarray) -> float:
    """weights-weighted spread sum_i w_i ||v_i - sum_j w_j v_j||^2 of the
    Gram vectors of b.

    Equals sum_i w_i b_ii - w^T b w, so no factorization is needed.
    """
    return float(weights @ np.diag(b) - weights @ b @ weights)


def build_mu(ball: EnclosingBall, epsilon: float) -> LabelDistribution:
    """Perturbed boundary-support distribution for a given epsilon.

    beta = min(1/8, epsilon / (7 R^2)); the cap keeps the perturbation
    lemma's inequality chain valid, and either branch guarantees the
    mu-weighted spread is at least R^2 - epsilon when the ball's weights
    sit on its boundary; a spread below that raises Infeasible.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    r2 = ball.r2
    if ball.radius <= 0.0:
        raise DegenerateB("R(B) = 0: the support distribution is undefined")
    k = ball.gram.k
    # epsilon and R^2 divided by one power of 2 first, so 7 R^2 stays finite
    # at the top of the double range and the quotient keeps every bit
    shift = math.frexp(r2)[1]
    beta = min(BETA_CAP, math.ldexp(epsilon, -shift) / (7.0 * math.ldexp(r2, -shift)))
    mu = (1.0 - beta) * ball.weights + beta / k
    spread = _spread(ball.gram.gram(), mu)
    if spread < r2 - epsilon - 1e-12 * r2:
        raise Infeasible(f"perturbed spread {spread} fell below {r2} - {epsilon}")
    return LabelDistribution(mu=mu, beta=beta, p=ball.weights.copy())


def build_basis(dist: LabelDistribution) -> OrthonormalBasis:
    """Complete (sqrt(mu(0)), ..., sqrt(mu(k-1))) to an orthogonal matrix.

    A Householder reflection maps e_0 to the sqrt-mu row; X_i(w) =
    u_iw / sqrt(mu(w)) then gives X_0 = 1 and both orthogonality
    identities.
    """
    mu = np.asarray(dist.mu, dtype=float)
    if np.any(mu <= 0.0):
        raise ZeroMass("every label needs positive mass; use beta > 0")
    k = len(mu)
    m = np.sqrt(mu)
    e0 = np.zeros(k)
    e0[0] = 1.0
    diff = e0 - m
    nrm = np.linalg.norm(diff)
    if nrm < 1e-14:
        house = np.eye(k)
    else:
        q = diff / nrm
        house = np.eye(k) - 2.0 * np.outer(q, q)
    # house is symmetric orthogonal with first row m
    table = house / m[None, :]
    return OrthonormalBasis(k=k, table=table)


def dictatorship_objective(b: SymMatrix, dist: LabelDistribution) -> float:
    """Objective value of any dictatorship under mu.

    Equals the mu-weighted spread of the Gram vectors around their
    mu-mean; at beta = 0 this is exactly R(B)^2 because p is supported on
    the boundary.
    """
    return _spread(b.mat, dist.mu)
