"""Low-rank solver for the relaxation SDP(A|B) = max sum a_ij <x_i, x_j>.

The feasible set is a product of unit spheres and the objective is convex
(A is PSD), so the norm constraints bind at the optimum and we can ascend
directly on the spheres: the conditional-gradient step x_i <- normalize of
(A X)_i never decreases a convex objective.  Each step also tries an
extrapolation past that point along the last displacement and keeps it only
if the value does not drop below the current one (a monotone safeguard, as
in monotone accelerated gradient methods); the extrapolation weight adapts
to how often this succeeds.  One product A X per accepted step serves the
step, the value, the residual and the multipliers lambda.

First-order stationary points are screened with the dual matrix
S = diag(lambda) - A; S >= 0 certifies global optimality, and for any
lambda, sum lambda_i + n max(0, -mu_min(S)) is a certified upper bound
(``dual_upper``).  A restart stops once mu_min(S) >= -cert_tol, decided by
whether S + cert_tol I has a Cholesky factor (n^3/3 flops).  Only when the
factorization fails does an eigendecomposition run: its negative
eigenvector gives a curvilinear ascent direction into a fresh coordinate
after rank escalation; the starting rank ~sqrt(2n) suffices generically
(Boumal, Voroninski & Bandeira 2016).  The mu_min in ``dual_upper`` comes
from one values-only eigvalsh, run for the solution :func:`solve_sdp`
returns and for each :func:`ascend_from` polish, not for every restart.

The solver has no tunables beyond the seed and the thread count: each
solve runs RESTARTS random starts at rank min(n, isqrt(2n - 1) + 2), each
capped at MAX_ITERS ascent steps, and stops at Riemannian gradient
GRAD_TOL * ||A||_F.  Every threshold is relative to A alone, so the solver
is scale-free: A * 2^e gives the same iterates, and values times 2^e.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NotConvergedWarning, NotPSD
from .matrixcore import SymMatrix, validate_psd

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


def _tolerances(a: np.ndarray) -> tuple[float, float, float]:
    """(grad_tol, value_tol, cert_tol) of A: the stopping residual, the least
    value gain that pays for another rank escalation, and the most negative
    mu_min(S) still certified.  Each is relative to ||A||_F, so A = 0 stops
    at once with value 0."""
    fro = float(np.linalg.norm(a))
    return GRAD_TOL * fro, 1e-8 * fro, 1e-9 * fro


def _residual(m: np.ndarray, x: np.ndarray) -> float:
    """Riemannian gradient norm at X, given its product M = A X."""
    lam = np.sum(m * x, axis=1, keepdims=True)
    return float(np.linalg.norm(2.0 * (m - lam * x)))


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    norms = np.linalg.norm(x, axis=1)
    zero = norms == 0.0
    if np.any(zero):  # zero rows only occur when the matching row of A is 0
        x = x.copy()
        x[zero, :] = 0.0
        x[zero, 0] = 1.0
        norms[zero] = 1.0
    return x / norms[:, None]


def _plain_step(x, m, diag, tiny):
    """Conditional-gradient step: each row maximizes the linearization at X.

    Rows where the gradient M = A X vanishes are free in the linearization;
    rows with a_ii > 0 are flipped (a strict local improvement there), rows
    with a_ii = 0 do not enter the objective at all and keep their direction
    on the sphere.
    """
    norms = np.linalg.norm(m, axis=1)
    dead = norms <= tiny
    if not np.any(dead):
        return m / norms[:, None]
    x_new = np.empty_like(x)
    x_new[~dead] = m[~dead] / norms[~dead][:, None]
    x_new[dead] = _normalize_rows(x[dead])
    x_new[dead & (diag > tiny)] *= -1.0
    return x_new


def _ascend(a, x, grad_tol, max_iters):
    """Safeguarded extrapolated conditional-gradient ascent.

    Each step takes the plain step x_new, which never decreases a convex
    objective from a point with rows of norm <= 1, then tries the
    extrapolation y = normalize(x_new + beta (x_new - x_prev)), with x_prev
    the iterate before X, and keeps y only if f(y) >= f(X), so the value
    never decreases.  beta grows on an
    accepted step and halves on a rejected one.  The product A y of an
    accepted step serves the next step, the value and the stopping
    residual, so a step costs one product (a rejected one two).  Stops at
    residual grad_tol / 10.  Returns X, A X and the step count.
    """
    diag = np.diag(a)
    tiny = 1e-14 * float(np.max(np.abs(a)))
    m = a @ x
    value = float(np.sum(m * x))
    x_prev = x
    beta = _BETA_START
    iters = 0
    for _ in range(max_iters):
        iters += 1
        x_new = _plain_step(x, m, diag, tiny)
        y = _normalize_rows(x_new + beta * (x_new - x_prev))
        m_y = a @ y
        value_y = float(np.sum(m_y * y))
        x_prev = x
        if value_y >= value:
            x, m, value = y, m_y, value_y
            beta = min(_BETA_MAX, _BETA_GROWTH * beta)
        else:
            x, m = x_new, a @ x_new
            value = float(np.sum(m * x))
            beta *= 0.5
        # stopping at grad_tol itself leaves mu_min(S) near -1e-8 ||A||_F,
        # past the certificate's threshold, and costs rank escalations
        moved = float(np.max(np.linalg.norm(x - x_prev, axis=1)))
        if moved < 1e-16 or _residual(m, x) <= 0.1 * grad_tol:
            break
    return x, m, iters


def _certified(a, lam, cert_tol) -> bool:
    """Whether mu_min(S) >= -cert_tol for S = diag(lambda) - A, decided up
    to rounding by a Cholesky factorization of S + cert_tol I."""
    try:
        np.linalg.cholesky(np.diag(lam + cert_tol) - a)
    except np.linalg.LinAlgError:
        return False
    return True


def _solution(x, m, iters, grad_tol, restart_index=0):
    """The SdpSolution at X from its product M = A X, and the multipliers
    lambda_i = <(A X)_i, x_i>, whose sum is the value.  ``dual_upper`` is
    left at inf; :func:`_with_dual_upper` adds it."""
    lam = np.sum(m * x, axis=1)
    residual = _residual(m, x)
    sol = SdpSolution(
        value=float(np.sum(lam)),
        rank=x.shape[1],
        vectors=x,
        stationarity_residual=residual,
        iterations=iters,
        converged=residual <= grad_tol,
        restart_index=restart_index,
    )
    return sol, lam


def _with_dual_upper(a, sol):
    """``sol`` with its certified bound: any multipliers lambda give
    SDP <= sum lambda_i + n max(0, -mu_min(S)); here lambda_i = <(A X)_i,
    x_i>, whose sum is the value, and mu_min comes from one eigvalsh."""
    x = sol.vectors
    lam = np.sum((a @ x) * x, axis=1)
    mu_min = float(np.linalg.eigvalsh(np.diag(lam) - a)[0])
    return replace(sol, dual_upper=sol.value + len(x) * max(0.0, -mu_min))


def _curvilinear_kick(a, x, u, base):
    """Second-order escape along x_i(t) = cos(u_i t) x_i + sin(u_i t) e_new.

    Requires a fresh zero coordinate appended to every row; f''(0) =
    -2 u^T S u > 0 so some small t improves the objective ``base``.
    """
    x_aug = np.hstack([x, np.zeros((len(x), 1))])
    best = x_aug
    best_val = base
    for t in [2.0 ** (-j) for j in range(0, 22)]:
        c = np.cos(u * t)[:, None]
        s = np.sin(u * t)[:, None]
        cand = np.hstack([c * x, s * np.ones((len(x), 1))])
        val = float(np.sum((a @ cand) * cand))
        if val > best_val:
            best_val, best = val, cand
    return best, best_val > base


def _solve_single(a, x0, restart_index):
    n = len(a)
    grad_tol, value_tol, cert_tol = _tolerances(a)
    x = _normalize_rows(x0)
    iters_total = 0
    value_prev = -math.inf
    while True:
        x, m, iters = _ascend(a, x, grad_tol, MAX_ITERS - iters_total)
        iters_total += iters
        sol, lam = _solution(x, m, iters_total, grad_tol, restart_index)
        if iters_total >= MAX_ITERS or x.shape[1] >= n or _certified(a, lam, cert_tol):
            return sol
        # the kick needs the eigenvector; the eigenvalue settles the rare
        # case the factorization rejects within rounding of -cert_tol
        eigs, vecs = np.linalg.eigh(np.diag(lam) - a)
        if eigs[0] >= -cert_tol:
            return sol
        u = vecs[:, 0]
        # escalate rank by two and kick off the saddle along u
        x_kicked, improved = _curvilinear_kick(a, x, u, sol.value)
        if not improved and sol.value - value_prev <= value_tol:
            return sol
        value_prev = sol.value
        x = _normalize_rows(np.hstack([x_kicked, np.zeros((n, 1))]))


def solve_sdp(a: SymMatrix, seed: int = 0, threads: int = 1) -> SdpSolution:
    """First-order stationary point of the sphere-constrained relaxation.

    RESTARTS random starts, drawn from ``seed``, run independently (on
    ``threads`` threads when above 1) and reduce by (value, restart_index)
    lexicographic max, so the result does not depend on the thread count.
    If MAX_ITERS is hit with the Riemannian gradient above tolerance the
    result is returned flagged (converged False) and a NotConvergedWarning
    is emitted.
    """
    if not validate_psd(a):
        raise NotPSD("data matrix is not PSD")
    rng = np.random.default_rng(seed)
    n = a.dim
    mat = a.mat
    grad_tol, _, cert_tol = _tolerances(mat)
    rank0 = min(n, math.isqrt(2 * n - 1) + 2)

    starts = [rng.standard_normal((n, rank0)) for _ in range(RESTARTS)]

    def run_restart(ridx: int) -> SdpSolution:
        return _solve_single(mat, starts[ridx], ridx)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            solutions = list(pool.map(run_restart, range(len(starts))))
    else:
        solutions = [run_restart(r) for r in range(len(starts))]
    best = max(solutions, key=lambda s: (s.value, s.restart_index))

    # the identity Gram is feasible with value tr(A); fall back to ascending
    # from it if every restart somehow landed below that floor
    if best.value < float(np.trace(mat)) - cert_tol:
        fallback = _solve_single(mat, np.eye(n), len(starts))
        if fallback.value > best.value:
            best = fallback

    if not best.converged:
        warnings.warn(
            f"SDP ascent stopped at residual {best.stationarity_residual:.3e}"
            f" > {grad_tol:.3e}",
            NotConvergedWarning,
        )
    return _with_dual_upper(mat, best)


def ascend_from(a: SymMatrix, vectors: np.ndarray) -> SdpSolution:
    """Polish an explicit feasible configuration (norms <= 1 allowed).

    Used for the lower-bound chain: the Gram system of any clustering,
    (v_sigma(i) - w(B)) / R(B), is feasible, and ascending from it can only
    increase the value.  Runs at most MAX_ITERS steps, without escalation.
    """
    mat = a.mat
    grad_tol = _tolerances(mat)[0]
    # do not pre-normalize: the first ascent step from the interior point
    # already lands on the spheres without decreasing the value
    x, m, iters = _ascend(mat, np.asarray(vectors, dtype=float), grad_tol, MAX_ITERS)
    return _with_dual_upper(mat, _solution(x, m, iters, grad_tol)[0])


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
