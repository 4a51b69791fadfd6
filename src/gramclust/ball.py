"""Minimum enclosing Euclidean ball of the Gram vectors of B.

Produces the ball radius R(B) and center w(B), plus the convex-combination
weights p on the boundary support points: w(B) = sum_i p_i v_i with
p_i > 0 only for boundary vectors.

R(B)^2 is the optimum of the ball's dual, a concave QP on the simplex:
R^2 = max_p sum_i p_i |v_i|^2 - |sum_i p_i v_i|^2.  Any p in the simplex
that weights only vectors at the largest distance from sum_i p_i v_i
attains it, so it certifies R^2 (Yildirim 2008, SIAM J. Optim. 19(3)),
and the hardness gadget's spread sum_i p_i |v_i - w|^2 equals R^2 for
every such p.  Every ball passes that one certificate: its weights are
the certified p and its support the boundary the certificate tests.
Copies are bitwise-equal vectors, as gram_factorize makes them.

Up to ambient dimension EXACT_MAX_DIM one primal active-set solve
(Gartner 1999) finds the optimum exactly, or raises Infeasible past
PIVOTS_PER_POINT pivots per point.  Above it the Badoiu-Clarkson
iteration runs, whose 1e-4 accurate visits fail the certificate, so a B
of rank above 10 raises Infeasible.  It stays while
benchmarks/test_bench.py asserts that those failures occur (ROADMAP
item 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Infeasible, NotPSD
from .matrixcore import GramFactor, SymMatrix, gram_factorize, unit_scaled, validate_psd

# the exact solve runs up to this ambient dimension; above it the iterative
# scheme runs
EXACT_MAX_DIM = 10
# relative to the largest squared distance from the first distinct point
VIOLATION_TOL = 1e-13
CERTIFICATE_TOL = 1e-11
# offsets whose singular values fall below this share of the largest are
# affinely dependent
RANK_TOL = 1e-10
PIVOTS_PER_POINT = 4
FRANK_WOLFE_CAP = 10_000


@dataclass(frozen=True)
class EnclosingBall:
    """Smallest ball containing the Gram vectors, with support weights."""

    center: np.ndarray
    radius: float
    support: tuple[int, ...]
    weights: np.ndarray = field(repr=False)
    gram: GramFactor = field(repr=False)

    @property
    def r2(self) -> float:
        """R(B)^2, one rounded product, so exactly scale-free (pow is not)."""
        return self.radius * self.radius


def _working_set_step(points: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, bool]:
    """Step from the weights p on a working set toward its KKT point.

    With base point v_0 and offsets y_i = v_i - v_0, the equality-constrained
    minimizer puts the center v_0 + sum_i lam_i y_i equidistant from every
    point: 2 Y Y^T lam = |y|^2.  Returns (target - p, True) when the points
    are affinely independent.  Otherwise [V^T; 1^T] has a null direction,
    along which the center stays put and the objective is linear; that
    direction is returned, signed to descend, with False (no step bound).
    """
    if len(points) == 1:
        return np.zeros(1), True
    y = points[1:] - points[0]
    u, sv, _ = np.linalg.svd(y)
    if len(sv) == len(y) and sv[-1] > RANK_TOL * sv[0]:
        lam = u @ ((u.T @ np.einsum("ij,ij->i", y, y)) / (2.0 * sv * sv))
        return np.concatenate([[1.0 - lam.sum()], lam]) - p, True
    null = u[:, -1]
    step = np.concatenate([[-null.sum()], null])
    # the objective falls along the step by sum_i step_i |v_i - center|^2
    center = p @ points
    if step @ np.einsum("ij,ij->i", points - center, points - center) < 0.0:
        step = -step
    return step, False


def _active_set_ball(y: np.ndarray, q_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact smallest enclosing ball from the dual QP on the simplex,
    min p^T G p - q^T p over p >= 0, sum p = 1, by a primal active-set
    method.

    y holds the offsets y_i = v_i - v_0 of the distinct points (offsets
    keep the tolerances relative to the point set's own spread), G is
    their Gram matrix, q its diagonal and q_max = max q.  From the vertex
    p = e_0, the farthest point joins the working set while any point lies
    more than VIOLATION_TOL * q_max outside; each working set is solved
    for its KKT point, and a weight that would go <= 0 stops the step at
    the boundary and leaves the set.  Raises Infeasible past the pivot cap.

    Returns the final working set (indices into y) and its weights p > 0,
    for _certified to check.  The loop ends only after a full KKT step, so
    the working set is affinely independent and p is the unique weighting
    of it that reproduces the center.
    """
    cap = PIVOTS_PER_POINT * len(y)
    # the working set and its weights live in the first m slots; a set of
    # d + 1 affinely independent points plus the one joining fills d + 2
    slots = min(len(y), y.shape[1] + 2)
    work = np.zeros(slots, dtype=int)
    p = np.zeros(slots)
    p[0] = 1.0
    m = 1
    pivots = 0
    while True:
        center = p[:m] @ y[work[:m]]
        offsets = y - center
        dist2 = np.einsum("ij,ij->i", offsets, offsets)
        far = int(np.argmax(dist2))
        if dist2[far] - float(np.max(dist2[work[:m]])) <= VIOLATION_TOL * q_max:
            break
        work[m] = far
        p[m] = 0.0
        m += 1
        while True:
            pivots += 1
            if pivots > cap:
                raise Infeasible(f"enclosing ball: no optimum within {pivots - 1} pivots")
            step, bounded = _working_set_step(y[work[:m]], p[:m])
            falling = np.flatnonzero(step < 0.0)
            if falling.size:
                ratios = p[falling] / -step[falling]
                j = int(np.argmin(ratios))
                alpha = float(ratios[j])
            else:
                alpha = np.inf
            if bounded and alpha >= 1.0:
                p[:m] += step
                # every weight stays positive except a tie at alpha = 1 or
                # the joining point's, which the step can leave at 0
                if alpha > 1.0 and p[m - 1] > 0.0:
                    break
            else:
                p[:m] += alpha * step
                p[falling[j]] = 0.0
            keep = np.flatnonzero(p[:m] > 0.0)
            if len(keep) == m:
                break
            m = len(keep)
            work[:m] = work[keep]
            p[:m] = p[keep]
    return work[:m], p[:m]


def _frank_wolfe_ball(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Badoiu-Clarkson iteration, O(1/t) accurate, above EXACT_MAX_DIM: its
    iterate is the average of y[0] and each step's farthest point, so it
    returns the visited points and their visit shares as the working set
    and its weights."""
    center = y[0].copy()
    visits = np.zeros(len(y))
    visits[0] = 1.0
    for t in range(1, FRANK_WOLFE_CAP + 1):
        dists = np.linalg.norm(y - center, axis=1)
        far = int(np.argmax(dists))
        center += (y[far] - center) / (t + 1.0)
        visits[far] += 1.0
    work = np.flatnonzero(visits)
    return work, visits[work] / visits.sum()


def _certified(
    y: np.ndarray, q_max: float, work: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray]:
    """The center sum_i p_i y[work[i]], R^2 and the boundary mask (squared
    distance within CERTIFICATE_TOL * q_max of R^2), from one distance
    pass, once p passes the certificate: p >= 0 sums to 1 (within
    CERTIFICATE_TOL) and weights only the boundary, so its dual value
    meets R^2.  Raises Infeasible otherwise.
    """
    center = p @ y[work]
    offsets = y - center
    dist2 = np.einsum("ij,ij->i", offsets, offsets)
    r2 = float(np.max(dist2))
    boundary = dist2 >= r2 - CERTIFICATE_TOL * q_max
    if np.any(p < 0.0) or abs(p.sum() - 1.0) > CERTIFICATE_TOL or not np.all(boundary[work]):
        raise Infeasible("enclosing ball: the weights fail the optimality certificate")
    return center, r2, boundary


def _distinct_rows(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first occurrence of each distinct row of vectors (rows
    equal bit for bit, up to the sign of zero), in lexicographic order (as
    np.unique(..., axis=0, return_index=True)), and the inverse map: row i
    is a copy of distinct row inverse[i]."""
    order = np.lexsort(vectors.T[::-1])
    rows = vectors[order]
    new = np.concatenate([[True], np.any(rows[1:] != rows[:-1], axis=1)])
    inverse = np.empty(len(vectors), dtype=int)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def min_enclosing_ball(gram: GramFactor) -> EnclosingBall:
    """Smallest ball containing the Gram vectors.

    The exact active-set solve of the dual QP runs on the distinct vectors
    for ambient dimension <= EXACT_MAX_DIM, the iterative fallback above
    that (see the module docstring); either ball passes one optimality
    certificate or raises Infeasible.  The weights are the solve's own
    certified p, each distinct vector's weight split evenly over its
    copies; where the boundary is affinely dependent (a cospherical set
    such as the square) p is one optimum of several, all with the same dual
    value.  The support is the certificate's boundary (see _certified).
    B = 0 gets uniform weights and a support of every vector.  The ball
    runs on the vectors scaled exactly to unit size, so B * 4^e gives the
    same support and weights and the radius times 2^e.
    """
    if gram.k < 1:
        raise ValueError("need at least one vector")
    # scaled, so that the squared distances of a B at the bottom of the
    # double range do not underflow
    vectors, shift = unit_scaled(gram.vectors)
    if gram.ambient_dim == 0:
        # B = 0: every vector is the origin
        center, r2 = np.zeros(0), 0.0
        weights = np.full(gram.k, 1.0 / gram.k)
        support = np.ones(gram.k, dtype=bool)
    else:
        first, copy_of = _distinct_rows(vectors)
        pts = vectors[first]
        y = pts - pts[0]
        q_max = float(np.max(np.einsum("ij,ij->i", y, y)))
        if vectors.shape[1] <= EXACT_MAX_DIM:
            work, p = _active_set_ball(y, q_max)
        else:
            work, p = _frank_wolfe_ball(y)
        offset, r2, boundary = _certified(y, q_max, work, p)
        center = pts[0] + offset
        share = np.zeros(len(pts))
        share[work] = p / p.sum()
        weights = (share / np.bincount(copy_of))[copy_of]
        support = boundary[copy_of]
    return EnclosingBall(
        center=np.ldexp(center, shift),
        radius=math.ldexp(math.sqrt(r2), shift),
        support=tuple(np.flatnonzero(support).tolist()),
        weights=weights,
        gram=gram,
    )


def radius_squared(b: SymMatrix) -> float:
    """R(B)^2 straight from the hypothesis matrix."""
    if not validate_psd(b):
        raise NotPSD("hypothesis matrix is not PSD")
    ball = min_enclosing_ball(gram_factorize(b))
    return ball.r2
