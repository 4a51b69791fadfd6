"""Minimum enclosing Euclidean ball of the Gram vectors of B.

Produces the ball radius R(B) and center w(B), plus the convex-combination
weights p on the boundary support points: w(B) = sum_i p_i v_i with
p_i > 0 only for boundary vectors.

R(B)^2 is the optimum of the ball's dual, a concave QP on the simplex:
R^2 = max_p sum_i p_i |v_i|^2 - |sum_i p_i v_i|^2.  Up to ambient
dimension EXACT_MAX_DIM one primal active-set solve finds it exactly
(Gartner 1999; Yildirim 2008, SIAM J. Optim. 19(3)) and ends on the
optimality certificate: every vector within the radius of
sum_i p_i v_i, and p in the simplex with p_i > 0 only on the boundary.
A solve that fails the certificate, or does not settle within
PIVOTS_PER_POINT pivots per point, raises Infeasible.

The weights reported are the solve's own p whenever the boundary holds
nothing but the solve's final working set and copies of its points: that
set is affinely independent, so p is unique up to how it splits among
copies, and each point's weight is split evenly over them (the
minimum-norm split).  Only when further vectors lie on the boundary (a
cospherical set such as the square) or above EXACT_MAX_DIM does a
ridge-regularized NNLS pick the minimum-norm weights.  Above that
dimension the Badoiu-Clarkson iteration runs instead: it stops near 1e-4
relative accuracy, so the support weights of a B of rank above 10 fail
their check and raise Infeasible.  It stays while benchmarks/test_bench.py
asserts that those failures occur (ROADMAP item 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Infeasible, NotPSD
from .matrixcore import GramFactor, SymMatrix, gram_factorize, unit_scaled, validate_psd

BALL_TOL = 1e-7
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
# vectors within this share of the largest entry in every coordinate are
# copies of one point (the dedup rounds to 13 digits)
COPY_TOL = 1e-13
FRANK_WOLFE_CAP = 10_000


@dataclass(frozen=True)
class EnclosingBall:
    """Smallest ball containing the Gram vectors, with support weights."""

    center: np.ndarray
    radius: float
    support: tuple[int, ...]
    weights: np.ndarray = field(repr=False)
    gram: GramFactor = field(repr=False)


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


def _active_set_ball(
    points: np.ndarray,
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Exact smallest enclosing ball from the dual QP on the simplex,
    min p^T G p - q^T p over p >= 0, sum p = 1, by a primal active-set
    method.

    G is the Gram matrix of the offsets y_i = v_i - v_0 (the ball is
    translation invariant, and offsets keep the tolerances relative to the
    point set's own spread) and q its diagonal.  The center is
    v_0 + sum_i p_i y_i and R^2 = sum_i p_i |y_i - sum_j p_j y_j|^2.  From
    the vertex p = e_0, the farthest point joins the working set while any
    point lies more than VIOLATION_TOL * max q outside; each working set is
    solved for its KKT point, and a weight that would go <= 0 stops the
    step at the boundary and leaves the set.  Raises Infeasible past the
    pivot cap or when the optimality certificate fails.

    Returns the center, the radius, the final working set (indices into
    points) and its weights p > 0.  The loop ends only after a full KKT
    step, so the working set is affinely independent and p is the unique
    weighting of it that reproduces the center.
    """
    y = points - points[0]
    q_max = float(np.max(np.einsum("ij,ij->i", y, y)))
    cap = PIVOTS_PER_POINT * len(points)
    # the working set and its weights live in the first m slots; a set of
    # d + 1 affinely independent points plus the one joining fills d + 2
    slots = min(len(points), y.shape[1] + 2)
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
    # the radius reaches the farthest point, so every point is inside; the
    # certificate is that p (positive by construction) sums to 1 and weights
    # only points on that boundary, so the dual value at p meets R^2
    work, p = work[:m], p[:m]
    r2 = float(np.max(dist2))
    if abs(p.sum() - 1.0) > CERTIFICATE_TOL or np.any(
        dist2[work] < r2 - CERTIFICATE_TOL * q_max
    ):
        raise Infeasible("enclosing ball: the active-set weights fail the certificate")
    return points[0] + center, math.sqrt(r2), work, p


def _frank_wolfe_ball(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Badoiu-Clarkson iteration on the max-of-quadratics dual.

    O(1/t) accurate; used only above EXACT_MAX_DIM (see min_enclosing_ball).
    """
    center = points[0].copy()
    for t in range(1, FRANK_WOLFE_CAP + 1):
        dists = np.linalg.norm(points - center, axis=1)
        far = int(np.argmax(dists))
        center += (points[far] - center) / (t + 1.0)
    return center, float(np.max(np.linalg.norm(points - center, axis=1)))


def _support_indices(
    vectors: np.ndarray, center: np.ndarray, radius: float, scale: float
) -> list[int]:
    dists = np.linalg.norm(vectors - center, axis=1)
    return np.flatnonzero(np.abs(dists - radius) <= BALL_TOL * scale).tolist()


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin ||a x - b|| over x >= 0, for a of full column rank.

    The unconstrained minimizer is then unique, so when it is nonnegative
    it is the answer; otherwise Lawson & Hanson's active-set loop (Solving
    Least Squares Problems, 1974, ch. 23) finds it.
    """
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    if np.all(x >= 0.0):
        return x
    return _lawson_hanson(a, b)


def _lawson_hanson(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Active-set NNLS: grow the passive set by the steepest-descent
    coordinate while the gradient allows descent, stepping back to the
    feasible boundary whenever a passive least-squares solve goes
    nonpositive.  Iterations are capped at 3n, as in scipy.optimize.nnls.
    """
    n = a.shape[1]
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    rhs = np.column_stack([b, a])
    for _ in range(3 * n):
        # x solves the passive least squares, so minus the gradient of
        # ||a x - b||^2 / 2 is a^T r with r the residual of b off the passive
        # span; projecting the columns off that span too keeps the tiny
        # gradients of nearly dependent columns above rounding noise
        cols = a[:, passive]
        perp = rhs - cols @ np.linalg.lstsq(cols, rhs, rcond=None)[0]
        descent = perp[:, 1:].T @ perp[:, 0]
        descent[passive] = 0.0
        j = int(np.argmax(descent))
        if descent[j] <= 0.0:
            break
        passive[j] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            blocked = passive & (z <= 0.0)
            if not blocked.any():
                break
            # step from x toward z until the first passive entry reaches 0
            ratios = x[blocked] / (x[blocked] - z[blocked])
            x = x + float(np.min(ratios)) * (z - x)
            x[np.flatnonzero(blocked)[np.argmin(ratios)]] = 0.0
            passive &= x > 0.0
        x = z
    return x


def _min_norm_simplex_weights(
    vectors: np.ndarray, center: np.ndarray, support: list[int], scale: float
) -> np.ndarray:
    """Minimum-norm p >= 0 with sum p = 1 and sum p_i v_i = center.

    Solved as Tikhonov-regularized NNLS: the tiny ridge term selects the
    minimum-Euclidean-norm point of the (possibly non-unique) feasible set
    without perturbing it beyond ~1e-12, and makes the problem strictly
    convex, so one least-squares solve usually settles it.  ``scale`` is
    the length the offsets are measured in (see min_enclosing_ball).
    """
    k = len(vectors)
    s = len(support)
    sub = (vectors[support] - center).T / scale  # (d, s)
    ridge = 1e-6
    a = np.vstack([sub, np.ones((1, s)), ridge * np.eye(s)])
    b = np.concatenate([np.zeros(sub.shape[0]), [1.0], np.zeros(s)])
    p_sub = _nnls(a, b)
    p = np.zeros(k)
    p[support] = p_sub
    # feasibility check at 10x ball tolerance, on the offsets from the center
    # so that it does not depend on where the ball lies; failure means the
    # ball geometry itself is wrong, so surface it rather than repair
    recon = np.linalg.norm(p @ (vectors - center))
    if recon > 10.0 * BALL_TOL * scale or abs(p.sum() - 1.0) > 10.0 * BALL_TOL:
        raise Infeasible(
            f"no support weights reproduce the center (residual {recon / scale:.3e}"
            " of the radius)"
        )
    total = p.sum()
    if total > 0:
        p = p / total
    return p


def _working_set_weights(
    vectors: np.ndarray, pts: np.ndarray, work: np.ndarray, p: np.ndarray, support: list[int]
) -> np.ndarray | None:
    """The active-set weights p of the distinct points pts[work], each split
    evenly over that point's copies, or None when some support vector is
    not a copy of a working point.

    A copy agrees with the point to COPY_TOL of the largest entry in every
    coordinate, the dedup's rounding step (so copies that the rounding put
    on two sides of a step count too).  The working set is affinely
    independent, so on that support the weights are unique up to the
    split among copies, and the even split is the minimum-norm one.
    """
    gap = np.max(np.abs(vectors[support][:, None, :] - pts[work]), axis=2)
    nearest = np.argmin(gap, axis=1)
    counts = np.bincount(nearest, minlength=len(work))
    tol = COPY_TOL * np.max(np.abs(vectors))
    if np.any(gap[np.arange(len(support)), nearest] > tol) or not counts.all():
        return None
    weights = np.zeros(len(vectors))
    weights[support] = (p / p.sum() / counts)[nearest]
    return weights


def _distinct_rows(vectors: np.ndarray) -> np.ndarray:
    """Index of the first occurrence of each distinct row of vectors, rounded
    to 13 digits of the largest entry, in lexicographic order of the
    rounded rows: the order of np.unique(..., axis=0, return_index=True)."""
    unit = np.round(vectors / np.max(np.abs(vectors)), 13)
    order = np.lexsort(unit.T[::-1])
    rows = unit[order]
    return order[np.concatenate([[True], np.any(rows[1:] != rows[:-1], axis=1)])]


def min_enclosing_ball(gram: GramFactor) -> EnclosingBall:
    """Smallest ball containing the Gram vectors.

    The exact active-set solve of the dual QP runs on the distinct vectors
    for ambient dimension <= EXACT_MAX_DIM, the iterative fallback above
    that (see the module docstring).  The support is every vector within
    BALL_TOL of the boundary, and the weights are the minimum-norm ones on
    it, so repeated and affinely dependent boundary vectors get
    well-defined weights: the solve's own, split evenly over copies, when
    the support is exactly the copies of its final working set, and the
    NNLS's otherwise (a cospherical support, or the fallback).  The
    support and weight tolerances are relative to the radius, and never
    fall below BALL_TOL times the longest Gram vector, whose length sets
    the rounding error of the distances; so B * 4^e gives the same support
    and weights and the radius times 2^e.
    """
    if gram.k < 1:
        raise ValueError("need at least one vector")
    # scaled, so that the squared distances of a B at the bottom of the
    # double range do not underflow
    vectors, shift = unit_scaled(gram.vectors)
    work = None
    if gram.ambient_dim == 0:
        # B = 0: every vector is the origin
        center = np.zeros(0)
        radius = 0.0
    else:
        pts = vectors[_distinct_rows(vectors)]
        if vectors.shape[1] <= EXACT_MAX_DIM:
            center, radius, work, p = _active_set_ball(pts)
        else:
            center, radius = _frank_wolfe_ball(pts)
    longest = float(np.max(np.linalg.norm(vectors, axis=1)))
    scale = max(radius, BALL_TOL * longest)
    support = _support_indices(vectors, center, radius, scale)
    weights = None if work is None else _working_set_weights(vectors, pts, work, p, support)
    if weights is None:
        weights = _min_norm_simplex_weights(vectors, center, support, scale)
    return EnclosingBall(
        center=np.ldexp(center, shift),
        radius=math.ldexp(radius, shift),
        support=tuple(support),
        weights=weights,
        gram=gram,
    )


def radius_squared(b: SymMatrix) -> float:
    """R(B)^2 straight from the hypothesis matrix."""
    if not validate_psd(b):
        raise NotPSD("hypothesis matrix is not PSD")
    ball = min_enclosing_ball(gram_factorize(b))
    return ball.radius ** 2
