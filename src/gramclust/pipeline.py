"""The algorithm as one chain: R(B), C(B), the SDP and the Gaussian rounding.

:func:`analyze_b` runs the half that reads B alone: the Gram factor, the
enclosing ball, the C(B) search and the hardness gadget.
:func:`cluster` validates A, runs the same half, then solves the SDP,
rounds it and checks the certified interval, whose upper end is R(B)^2
times the one certificate that :func:`gramclust.sdp.solve_sdp` returns.
Both return JSON-ready dicts, the blocks of the CLI's report.
"""

from __future__ import annotations

import math

from .ball import EnclosingBall, min_enclosing_ball
from .conic import ConicalPartition, search_cb
from .errors import DegenerateB, GramclustError, NotCentered, NotPSD
from .hardness import build_mu, dictatorship_objective
from .matrixcore import SymMatrix, gram_factorize, validate_centered, validate_psd
from .rounding import estimate_expectation, round_best_of
from .sdp import solve_sdp


def _b_half(
    b: SymMatrix, mu_epsilon: float
) -> tuple[dict, EnclosingBall, ConicalPartition | None]:
    """The blocks that depend on B alone, the ball, and the C(B) partition
    (None when B is degenerate)."""
    if not validate_psd(b):
        raise NotPSD("B is not positive semidefinite (within 1e-9)")
    ball = min_enclosing_ball(gram_factorize(b))
    r2 = ball.radius ** 2
    report: dict = {
        "ball": {
            "r2": r2,
            "center": ball.center.tolist(),
            "support": list(ball.support),
            "weights": ball.weights.tolist(),
            # non-unique when the support is affinely dependent
            "weights_rule": "minimum-norm",
        }
    }
    try:
        c_est, partition, value = search_cb(b)
    except DegenerateB:
        report["degenerate"] = True
        return report, ball, None
    report["degenerate"] = False
    report["cb"] = {
        "c_estimate": c_est,
        "active": list(partition.active),
        "directions": partition.directions.tolist(),
        "heuristic": value.heuristic,
        "mc_stderr": value.mc_stderr,
    }
    report["approx_ratio"] = r2 / c_est if c_est > 0 else None
    # mu_epsilon is a share of R(B)^2.  Below the normal range the product
    # loses precision and the floor keeps an underflowed one positive:
    # there the gadget is not scale-free
    dist = build_mu(ball, max(mu_epsilon * r2, math.ulp(0.0)))
    report["hardness"] = {
        "epsilon": mu_epsilon,
        "beta": dist.beta,
        "p": dist.p.tolist(),
        "mu": dist.mu.tolist(),
        "dictatorship_objective": dictatorship_objective(b, dist),
    }
    return report, ball, partition


def analyze_b(b: SymMatrix, mu_epsilon: float = 1e-4) -> dict:
    """R(B)^2 and the ball, C(B) and its partition, the approximation ratio
    R(B)^2 / C(B), and the hardness gadget at ``mu_epsilon`` times R(B)^2
    (left out when B is degenerate).  Deterministic in B and
    ``mu_epsilon``."""
    return _b_half(b, mu_epsilon)[0]


def cluster(
    a: SymMatrix,
    b: SymMatrix,
    trials: int = 100,
    seed: int = 0,
    mu_epsilon: float = 1e-4,
) -> dict:
    """The whole pipeline on a centered PSD A and a PSD B.

    ``seed`` drives the SDP starts and the rounding trials, which run
    serially.  The products inside them run in the caller's BLAS threads,
    and their rounding depends on that count, so the report is
    byte-identical only at a fixed BLAS thread count: one in a CLI process
    (see :mod:`gramclust.cli`).  The C(B) search reads B alone.  The report
    holds the :func:`analyze_b` blocks, plus ``sdp``, ``rounding`` and the
    ``certified_interval`` [best rounded value, R(B)^2 * dual_upper].
    """
    if not validate_psd(a):
        raise NotPSD("A is not positive semidefinite (within 1e-9)")
    if not validate_centered(a):
        raise NotCentered("A is not centered: entries must sum to zero")
    report, ball, partition = _b_half(b, mu_epsilon)
    if partition is None:
        # all Gram vectors coincide: every clustering of a centered matrix
        # has value 0, so report the trivial certified answer
        report["rounding"] = {"best_value": 0.0, "sigma": [0] * a.dim, "trials": 0}
        report["certified_interval"] = [0.0, 0.0]
        return report

    sol = solve_sdp(a, seed)
    best, trial_values = round_best_of(a, b, sol.vectors, partition, trials, seed)
    report["sdp"] = {
        "value": sol.value,
        "rank": sol.rank,
        "stationarity_residual": sol.stationarity_residual,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "dual_upper": sol.dual_upper,
    }
    mean, stderr = (
        estimate_expectation(trial_values) if len(trial_values) > 1 else (best.value, 0.0)
    )
    report["rounding"] = {
        "best_value": best.value,
        "sigma": best.sigma.tolist(),
        "trial_index": best.trial_index,
        "trials": trials,
        "trial_mean": mean,
        "trial_stderr": stderr,
    }
    interval = [best.value, ball.radius ** 2 * sol.dual_upper]
    if interval[0] > interval[1] * (1.0 + 1e-6):
        raise GramclustError(
            f"certified interval is empty: {interval}; SDP certificate failed"
        )
    report["certified_interval"] = interval
    return report
