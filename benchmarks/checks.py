"""Correctness checks on every benchmark operation, in the benchmark's own numpy.

Each check returns a list of failure messages; an empty list means the
output passed.  Inequalities allow a relative ``REL`` of floating-point
slack, so only a real violation fails.
"""

from __future__ import annotations

import json

import numpy as np

REL = 1e-9
# the upper end of the certified interval must reach R^2 * dual_upper
INTERVAL_REL = 1e-6


def _slack(x: float) -> float:
    return REL * max(abs(x), 1.0)


def objective(a: np.ndarray, b: np.ndarray, sigma: np.ndarray) -> float:
    """sum_ij A_ij B[sigma_i, sigma_j], computed directly."""
    return float(np.einsum("ij,ij->", a, b[np.ix_(sigma, sigma)]))


def check_cluster_report(report, a: np.ndarray, b: np.ndarray) -> list[str]:
    """Checks on one ``gramclust cluster`` report for inputs (A, B)."""
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    try:
        sigma = np.asarray(report["rounding"]["sigma"])
        best = float(report["rounding"]["best_value"])
        r2 = float(report["ball"]["r2"])
        upper = r2 * float(report["sdp"]["dual_upper"])
        top = float(report["certified_interval"][1])
        c_est = float(report["cb"]["c_estimate"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"report field missing or malformed: {exc!r}"]
    n, k = a.shape[0], b.shape[0]
    errors = []
    if sigma.shape != (n,) or sigma.dtype.kind not in "iu":
        errors.append(f"sigma has shape {sigma.shape} and dtype {sigma.dtype}, expected {n} integers")
    elif sigma.min() < 0 or sigma.max() >= k:
        errors.append(f"sigma labels outside [0, {k})")
    else:
        value = objective(a, b, sigma)
        if abs(value - best) > _slack(value):
            errors.append(f"best_value {best!r} differs from the recomputed {value!r}")
    if best > upper + _slack(upper):
        errors.append(f"best_value {best!r} exceeds r2 * dual_upper {upper!r}")
    if top < upper * (1.0 - INTERVAL_REL):
        errors.append(f"certified_interval[1] {top!r} is below r2 * dual_upper {upper!r}")
    if c_est > r2 + _slack(r2):
        errors.append(f"c_estimate {c_est!r} exceeds r2 {r2!r}")
    return errors


def check_oracle(report, clust: float) -> list[str]:
    """best_value <= Clust <= r2 * dual_upper, with Clust exact."""
    try:
        best = float(report["rounding"]["best_value"])
        upper = float(report["ball"]["r2"]) * float(report["sdp"]["dual_upper"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"report field missing or malformed: {exc!r}"]
    errors = []
    if best > clust + _slack(clust):
        errors.append(f"best_value {best!r} exceeds the exact Clust {clust!r}")
    if clust > upper + _slack(upper):
        errors.append(f"exact Clust {clust!r} exceeds r2 * dual_upper {upper!r}")
    return errors


def check_geometry(
    b: np.ndarray,
    vectors: np.ndarray,
    center: np.ndarray,
    r2: float,
    dictatorship: float,
    epsilon: float,
) -> list[str]:
    """Ball containment, the diameter lower bound, and the gadget's value."""
    errors = []
    far = float(np.max(np.sum((vectors - center) ** 2, axis=1)))
    if far > r2 + _slack(r2):
        errors.append(f"a Gram vector lies outside the ball: {far!r} > r2 {r2!r}")
    diag = np.diag(b)
    half_diam2 = float(np.max(diag[:, None] + diag[None, :] - 2.0 * b)) / 4.0
    if r2 < half_diam2 - _slack(half_diam2):
        errors.append(f"r2 {r2!r} is below max_ij |v_i - v_j|^2 / 4 = {half_diam2!r}")
    if dictatorship < r2 - epsilon - _slack(r2):
        errors.append(f"dictatorship_objective {dictatorship!r} is below r2 - {epsilon}")
    return errors


def canonical(report: dict) -> str:
    """The report as text without ``timestamp``, for the determinism probe."""
    return json.dumps(
        {key: value for key, value in report.items() if key != "timestamp"},
        sort_keys=True,
        indent=2,
    )
