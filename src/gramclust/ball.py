"""Minimum enclosing Euclidean ball of the Gram vectors of B.

Produces the ball radius R(B) and center w(B), plus the convex-combination
weights p on the boundary support points: w(B) = sum_i p_i v_i with
p_i > 0 only for boundary vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Infeasible, NotPSD
from .matrixcore import GramFactor, SymMatrix, gram_factorize, validate_psd

BALL_TOL = 1e-7
# exact recursion is cheap in low dimension; above this fall back to the
# iterative scheme
WELZL_MAX_DIM = 10
FRANK_WOLFE_CAP = 10_000


@dataclass(frozen=True)
class EnclosingBall:
    """Smallest ball containing the Gram vectors, with support weights."""

    center: np.ndarray
    radius: float
    support: tuple[int, ...]
    weights: np.ndarray = field(repr=False)
    gram: GramFactor = field(repr=False)


def _circumsphere(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Smallest ball with all given points on its boundary.

    The center lies in the affine hull of the points; solved as a linear
    system in barycentric offsets.  Least squares keeps affinely dependent
    boundary sets (possible at tolerance level) from blowing up.
    """
    if len(points) == 0:
        return np.zeros(0), -1.0
    p0 = points[0]
    if len(points) == 1:
        return p0.copy(), 0.0
    q = points[1:] - p0
    g = 2.0 * (q @ q.T)
    rhs = np.einsum("ij,ij->i", q, q)
    lam, *_ = np.linalg.lstsq(g, rhs, rcond=None)
    center = p0 + lam @ q
    radius = float(np.max(np.linalg.norm(points - center, axis=1)))
    return center, radius


def _welzl(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Move-to-front Welzl recursion; exact for small support sets."""
    d = points.shape[1]
    eps = 1e-12 * float(np.max(np.abs(points))) ** 2

    # deterministic shuffle: expected-linear behaviour without run-to-run noise
    order = list(range(len(points)))
    np.random.default_rng(0x5EED).shuffle(order)

    def solve(m: int, boundary: list[int]) -> tuple[np.ndarray, float]:
        if m == 0 or len(boundary) == d + 1:
            return _circumsphere(points[boundary]) if boundary else (np.zeros(d), -1.0)
        idx = order[m - 1]
        center, radius = solve(m - 1, boundary)
        p = points[idx]
        if radius >= 0.0 and np.dot(p - center, p - center) <= radius * radius + eps:
            return center, radius
        center, radius = solve(m - 1, boundary + [idx])
        # move-to-front: violators are likely on the final support
        order.remove(idx)
        order.insert(0, idx)
        return center, radius

    return solve(len(order), [])


def _frank_wolfe_ball(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Badoiu-Clarkson iteration on the max-of-quadratics dual.

    O(1/t) accurate; used only above WELZL_MAX_DIM where the exact
    recursion is no longer cheap.
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
    tol = BALL_TOL * scale
    return [i for i in range(len(vectors)) if abs(dists[i] - radius) <= tol]


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


def min_enclosing_ball(gram: GramFactor) -> EnclosingBall:
    """Smallest ball containing the Gram vectors.

    Exact Welzl recursion for ambient dimension <= 10 (k is small in this
    problem's framing), iterative fallback above that.  The support and
    weight tolerances are relative to the radius, and never fall below
    BALL_TOL times the longest Gram vector, whose length sets the rounding
    error of the distances; so B * 4^e gives the same support and weights
    and the radius times 2^e.
    """
    if gram.k < 1:
        raise ValueError("need at least one vector")
    # the ball runs on the vectors times 2^-shift, largest entry in [1/2, 1):
    # the scaling is exact, and the squared distances of a B at the bottom
    # of the double range no longer underflow
    shift = math.frexp(float(np.max(np.abs(gram.vectors), initial=0.0)))[1]
    vectors = np.ldexp(gram.vectors, -shift)
    if gram.ambient_dim == 0:
        # B = 0: every vector is the origin
        center = np.zeros(0)
        radius = 0.0
    else:
        unit = np.round(vectors / np.max(np.abs(vectors)), 13)
        uniq, inverse = np.unique(unit, axis=0, return_inverse=True)
        pts = vectors[[int(np.where(inverse == u)[0][0]) for u in range(len(uniq))]]
        if vectors.shape[1] <= WELZL_MAX_DIM:
            center, radius = _welzl(pts)
        else:
            center, radius = _frank_wolfe_ball(pts)
        radius = max(radius, 0.0)
    longest = float(np.max(np.linalg.norm(vectors, axis=1)))
    scale = max(radius, BALL_TOL * longest)
    support = _support_indices(vectors, center, radius, scale)
    weights = _min_norm_simplex_weights(vectors, center, support, scale)
    return EnclosingBall(
        center=np.ldexp(center, shift),
        radius=math.ldexp(radius, shift),
        support=tuple(support),
        weights=weights,
        gram=gram,
    )


def radius_squared(b: SymMatrix, tol: float = 1e-9) -> float:
    """R(B)^2 straight from the hypothesis matrix."""
    if not validate_psd(b, tol):
        raise NotPSD("hypothesis matrix is not PSD")
    ball = min_enclosing_ball(gram_factorize(b, tol))
    return ball.radius ** 2
