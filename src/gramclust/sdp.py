"""Low-rank solver for the relaxation SDP(A|B) = max sum a_ij <x_i, x_j>.

The feasible set is a product of unit spheres and the objective is convex
(A is PSD), so the norm constraints bind at the optimum and we can ascend
directly on the spheres: the conditional-gradient step x_i <- normalize of
(A X)_i never decreases a convex objective.  Each step also tries an
extrapolation past that point along the last displacement and keeps it only
if the value does not drop below the current one (a monotone safeguard, as
in monotone accelerated gradient methods); the extrapolation weight adapts
to how often this succeeds.

The iterate is stored coordinate-first, as a C-contiguous (rank, n) array
whose column j is point j's vector, as in the Mixing method (Wang, Chang &
Kolter 2017).  A is symmetric, so the product is X A, one gemm, and every
per-point quantity (a norm, a multiplier lambda_i = <(X A)_i, x_i>, a
displacement) is a column reduction over rows of length n.  One product
per accepted step, and the lambda computed from it once, serve the step,
the value sum lambda_i, the residual and the certificate.  The solution's
``vectors`` are the transpose, (n, rank) with unit rows.

The solver is first-order only: each restart is one ascent at rank
r = min(n, isqrt(2n - 1) + 2), which has r(r + 1)/2 > n.  Above that
bound the second-order critical points of the rank-r problem are
generically global optima (Boumal, Voroninski & Bandeira 2016), and an
ascent from a random start does not end at a saddle in practice, so
there is no second-order step and no rank escalation.  Optimality is not
assumed but certified: for any lambda the dual matrix S = diag(lambda) - A
gives SDP <= sum lambda_i + n max(0, -mu_min(S)) (``dual_upper``).  Its
mu_min comes from one values-only eigvalsh, run only for the restarts
that reach the top value exactly, usually one; among those
:func:`solve_sdp` returns the smallest certificate.

The solver has no tunables beyond the seed: each solve runs, one after
the other, RESTARTS random starts at rank r, each capped at MAX_ITERS
ascent steps, and stops at a tenth of the Riemannian gradient
GRAD_TOL * ||A||_F above which a solve is flagged as not converged.  Every
threshold is relative to A alone, and the solve runs on A / 2^s with its
largest |entry| in [1/2, 1), an exact scaling, so the solver is
scale-free across the double range: A * 2^e gives the same iterates, and
values, residual and certificate times 2^e.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NotConvergedWarning, NotPSD
from .matrixcore import SymMatrix, unit_scaled, validate_psd

# ascent steps per restart, random restarts per solve, and the stopping
# Riemannian gradient relative to ||A||_F; read at call time
MAX_ITERS = 50_000
RESTARTS = 4
GRAD_TOL = 1e-7


@dataclass(frozen=True)
class SdpSolution:
    value: float
    rank: int
    vectors: np.ndarray = field(repr=False)  # (n, rank), unit rows
    stationarity_residual: float = 0.0
    iterations: int = 0
    converged: bool = True
    dual_upper: float = math.inf  # certified upper bound on SDP(A|B)
    restart_index: int = 0


# extrapolation weight of the ascent: starts at _BETA_START, grows by
# _BETA_GROWTH on an accepted step up to _BETA_MAX, halves on a rejected one
_BETA_START = 0.5
_BETA_GROWTH = 1.1
_BETA_MAX = 1.0


def _grad_tol(a: np.ndarray) -> float:
    """The stopping Riemannian gradient of A, relative to ||A||_F, so A = 0
    stops at once with value 0."""
    return GRAD_TOL * float(np.linalg.norm(a))


def _unscaled(sol: SdpSolution, shift: int) -> SdpSolution:
    """A solution of A / 2^s as one of A: value, residual and certificate
    times 2^s."""
    return replace(
        sol,
        value=math.ldexp(sol.value, shift),
        stationarity_residual=math.ldexp(sol.stationarity_residual, shift),
        dual_upper=math.ldexp(sol.dual_upper, shift),
    )


def _dots(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(n,) per-point inner products <p_j, q_j> of two (rank, n) arrays."""
    return np.einsum("ij,ij->j", p, q)


def _residual(m: np.ndarray, x: np.ndarray, lam: np.ndarray) -> float:
    """Riemannian gradient norm at X, given its product M = X A and lambda."""
    g = lam * x
    g -= m
    return 2.0 * math.sqrt(np.vdot(g, g))


def _normalize_columns(x: np.ndarray) -> np.ndarray:
    norms = np.sqrt(_dots(x, x))
    zero = norms == 0.0
    if np.any(zero):  # zero columns only occur when the matching row of A is 0
        x = x.copy()
        x[:, zero] = 0.0
        x[0, zero] = 1.0
        norms[zero] = 1.0
    return x / norms


def _plain_step(x, m, diag, tiny):
    """Conditional-gradient step: each point maximizes the linearization at X.

    Points where the gradient M = X A vanishes are free in the
    linearization; points with a_ii > 0 are flipped (a strict local
    improvement there), points with a_ii = 0 do not enter the objective at
    all and keep their direction on the sphere.
    """
    norms = np.sqrt(_dots(m, m))
    dead = norms <= tiny
    if not np.any(dead):
        return m / norms
    x_new = np.empty_like(x)
    x_new[:, ~dead] = m[:, ~dead] / norms[~dead]
    x_new[:, dead] = _normalize_columns(x[:, dead])
    x_new[:, dead & (diag > tiny)] *= -1.0
    return x_new


def _ascend(a, x, grad_tol, max_iters):
    """Safeguarded extrapolated conditional-gradient ascent on a (rank, n) X.

    Each step takes the plain step x_new, which never decreases a convex
    objective from a point with columns of norm <= 1, then tries the
    extrapolation y = normalize(x_new + beta (x_new - x_prev)), with x_prev
    the iterate before X, and keeps y only if f(y) >= f(X), so the value
    never decreases.  beta grows on an accepted step and halves on a
    rejected one.  The product Y A of an accepted step, and its lambda,
    serve the next step, the value and the stopping residual, so a step
    costs one product (a rejected one two).  The value sums the per-point
    lambda pairwise: the accept test compares values that differ at
    rounding level near convergence, and a coarser sum upsets it.  Stops at
    residual grad_tol / 10.  Returns X, X A, lambda and the step count.
    """
    diag = np.diag(a)
    tiny = 1e-14 * float(np.max(np.abs(a)))
    m = x @ a
    lam = _dots(m, x)
    value = float(np.sum(lam))
    x_prev = x
    beta = _BETA_START
    iters = 0
    for _ in range(max_iters):
        iters += 1
        x_new = _plain_step(x, m, diag, tiny)
        y = x_new - x_prev
        y *= beta
        y += x_new
        y = _normalize_columns(y)
        m_y = y @ a
        lam_y = _dots(m_y, y)
        value_y = float(np.sum(lam_y))
        x_prev = x
        if value_y >= value:
            x, m, lam, value = y, m_y, lam_y, value_y
            beta = min(_BETA_MAX, _BETA_GROWTH * beta)
        else:
            x = x_new
            m = x @ a
            lam = _dots(m, x)
            value = float(np.sum(lam))
            beta *= 0.5
        # stopping at grad_tol itself leaves mu_min(S) near -1e-8 ||A||_F,
        # which widens dual_upper by n times that
        step = x - x_prev
        moved = math.sqrt(float(np.max(_dots(step, step))))
        if moved < 1e-16 or _residual(m, x, lam) <= 0.1 * grad_tol:
            break
    return x, m, lam, iters


def _ascent(a, x, grad_tol, restart_index=0):
    """One ascent from the (rank, n) start X: the SdpSolution, uncertified,
    and the multipliers lambda_i = <(X A)_i, x_i> of its last product."""
    x, m, lam, iters = _ascend(a, x, grad_tol, MAX_ITERS)
    residual = _residual(m, x, lam)
    return SdpSolution(
        value=float(np.sum(lam)),
        rank=len(x),
        vectors=np.ascontiguousarray(x.T),
        stationarity_residual=residual,
        iterations=iters,
        converged=residual <= grad_tol,
        restart_index=restart_index,
    ), lam


def _certify(a, sol, lam):
    """``sol`` with its certified bound: any multipliers lambda give
    SDP <= sum lambda_i + n max(0, -mu_min(S)); here lambda is the one the
    ascent's last product gave, whose sum is the value, and mu_min comes
    from one eigvalsh."""
    mu_min = float(np.linalg.eigvalsh(np.diag(lam) - a)[0])
    return replace(sol, dual_upper=sol.value + len(lam) * max(0.0, -mu_min))


def solve_sdp(a: SymMatrix, seed: int = 0) -> SdpSolution:
    """First-order stationary point of the sphere-constrained relaxation.

    RESTARTS random starts at rank min(n, isqrt(2n - 1) + 2), drawn from
    ``seed``, each ascend in turn.  Only the restarts that reach the top
    value exactly are certified, and the one with the smallest
    (dual_upper, restart_index) is returned.  The products and the
    eigvalsh run in the caller's BLAS threads, one in a CLI process.  If
    MAX_ITERS is hit with the Riemannian gradient above tolerance the
    result is returned flagged (converged False) and a NotConvergedWarning
    is emitted.
    """
    if not validate_psd(a):
        raise NotPSD("data matrix is not PSD")
    rng = np.random.default_rng(seed)
    n = a.dim
    # ||A||_F^2 and the residual's squares stay in range at any scale
    mat, shift = unit_scaled(a.mat)
    grad_tol = _grad_tol(mat)
    rank0 = min(n, math.isqrt(2 * n - 1) + 2)

    starts = [rng.standard_normal((n, rank0)) for _ in range(RESTARTS)]
    candidates = [
        _ascent(mat, _normalize_columns(np.ascontiguousarray(x0.T)), grad_tol, r)
        for r, x0 in enumerate(starts)
    ]
    # the identity Gram is feasible with value tr(A); ascend from it too, at
    # rank n, if every restart landed below that floor by more than
    # 1e-9 ||A||_F
    if max(sol.value for sol, _ in candidates) < float(np.trace(mat)) - 1e-2 * grad_tol:
        candidates.append(_ascent(mat, np.eye(n), grad_tol, RESTARTS))
    top = max(sol.value for sol, _ in candidates)
    best = min(
        (_certify(mat, sol, lam) for sol, lam in candidates if sol.value == top),
        key=lambda sol: (sol.dual_upper, sol.restart_index),
    )
    best = _unscaled(best, shift)

    if not best.converged:
        warnings.warn(
            f"SDP ascent stopped at residual {best.stationarity_residual:.3e}"
            f" > {math.ldexp(grad_tol, shift):.3e}",
            NotConvergedWarning,
        )
    return best


def ascend_from(a: SymMatrix, vectors: np.ndarray) -> SdpSolution:
    """One certified ascent from an explicit feasible (n, d) configuration
    (norms <= 1 allowed), as each :func:`solve_sdp` restart is one from a
    random start.

    The Gram system of any clustering, (v_sigma(i) - w(B)) / R(B), is such
    a start, and the ascent can only increase its value.  Runs at most
    MAX_ITERS steps at the rank d.
    """
    mat, shift = unit_scaled(a.mat)
    # do not pre-normalize: the first ascent step from the interior point
    # already lands on the spheres without decreasing the value
    x0 = np.ascontiguousarray(np.asarray(vectors, dtype=float).T)
    return _unscaled(_certify(mat, *_ascent(mat, x0, _grad_tol(mat))), shift)


def certify_sandwich(
    sdp: SdpSolution,
    clust_exact: float,
    r2: float,
    c_of_b: float,
    tol: float = 1e-4,
) -> dict:
    """Check Clust/R^2 <= SDP <= Clust/C against an exact oracle value.

    SDP lies in [value, dual_upper], so the left check compares against the
    certified upper end and the right one against the primal value.  The
    left-hand side of each check may exceed the right-hand side by ``tol``
    relative to the latter.  The comparisons are in product form so
    degenerate zeros pass, and nothing has an absolute floor, so A * 2^e
    with the oracle value times 2^e gets the same verdict.
    """
    left_ok = clust_exact <= r2 * sdp.dual_upper * (1.0 + tol)
    right_ok = c_of_b * sdp.value <= clust_exact * (1.0 + tol)
    return {
        "left_ok": bool(left_ok),
        "right_ok": bool(right_ok),
        "passed": bool(left_ok and right_ok),
        "clust_over_r2": clust_exact / r2 if r2 > 0 else 0.0,
        "sdp_value": sdp.value,
        "clust_over_c": clust_exact / c_of_b if c_of_b > 0 else 0.0,
        "tolerance": tol,
    }
