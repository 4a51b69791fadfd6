"""Exact ground truth at desk scale.

brute_force_clust enumerates every assignment in mixed-radix Gray-code
order, updating cluster masses incrementally so each step costs O(n + k)
instead of O(n^2).  brute_force_c3 grid-searches three-ray planar
partitions with its own closed-form moment arithmetic, deliberately not
sharing code with the conic module so the two routes stay independent.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import NotPSD, TooLarge
from .matrixcore import SymMatrix, validate_psd
from .rounding import clustering_value

STATE_CAP = 50_000_000
# brute_force_c3's time grows as grid^2: 2 s at the cap on a 2-core x86_64
# host, in 42 MB resident, as at any grid
GRID_CAP = 1440


def brute_force_clust(a: SymMatrix, b: SymMatrix) -> tuple[float, np.ndarray]:
    """Exact max of sum a_ij b_{sigma(i) sigma(j)} over all k^n <= STATE_CAP
    assignments."""
    n = a.dim
    k = b.dim
    states = k ** n
    if states > STATE_CAP:
        raise TooLarge(f"{k}^{n} = {states} assignments exceed the cap {STATE_CAP}")
    if k == 1:
        sigma = np.zeros(n, dtype=int)
        return clustering_value(a, b, sigma), sigma

    amat = a.mat.tolist()
    bmat = b.mat.tolist()
    sigma = [0] * n
    # row masses: r[j][s] = sum of a_jl over l currently assigned label s
    row = [[sum(amat[j]), *([0.0] * (k - 1))] for j in range(n)]
    value = clustering_value(a, b, np.zeros(n, dtype=int))
    best_value = value
    best_sigma = list(sigma)

    # Knuth 7.2.1.1 Algorithm H: loopless reflected mixed-radix Gray code;
    # each step moves exactly one digit by +-1
    focus = list(range(n + 1))
    direction = [1] * n
    while True:
        j = focus[0]
        focus[0] = 0
        if j == n:
            break
        p = sigma[j]
        q = p + direction[j]
        # incremental value update for the single flip j: p -> q
        rj = row[j]
        bq = bmat[q]
        bp = bmat[p]
        delta = 0.0
        for s in range(k):
            delta += (bq[s] - bp[s]) * rj[s]
        ajj = amat[j][j]
        value += 2.0 * delta + ajj * (bp[p] - 2.0 * bq[p] + bq[q])
        sigma[j] = q
        col = amat[j]
        for i in range(n):
            row[i][p] -= col[i]
            row[i][q] += col[i]
        if value > best_value:
            best_value = value
            best_sigma = list(sigma)
        if q == 0 or q == k - 1:
            direction[j] = -direction[j]
            focus[j] = focus[j + 1]
            focus[j + 1] = j + 1

    sigma_arr = np.asarray(best_sigma, dtype=int)
    # recompute exactly: the incremental walk accumulates rounding drift
    return clustering_value(a, b, sigma_arr), sigma_arr


def _three_ray_psi(bmat: np.ndarray, a1, a2, perm) -> np.ndarray:
    """psi of the planar partition with cell apertures (a1, a2, 2pi-a1-a2).

    Slot s gets label perm[s]; cell moments point along slot bisectors
    with magnitude sin(aperture/2)/sqrt(2 pi).
    """
    a3 = 2.0 * math.pi - a1 - a2
    betas = [a1 / 2.0, a1 + a2 / 2.0, a1 + a2 + a3 / 2.0]
    mags = [
        np.sin(ap / 2.0) / math.sqrt(2.0 * math.pi) for ap in (a1, a2, a3)
    ]
    psi = 0.0
    for s in range(3):
        for t in range(3):
            psi += (
                bmat[perm[s], perm[t]]
                * mags[s]
                * mags[t]
                * np.cos(betas[s] - betas[t])
            )
    return psi


def brute_force_c3(b: SymMatrix, grid: int = 360) -> float:
    """Dense-grid maximum of psi over three-ray planar partitions (k = 3).

    Ray angles rather than cell angles are searched (all six label-to-slot
    assignments), so non-diagonal B is covered; two-cell optima appear as a
    vanishing aperture.  One pattern-search refinement pass follows the
    grid.
    """
    if b.dim != 3:
        raise ValueError("the planar oracle is specific to k = 3")
    if not 180 <= grid <= GRID_CAP:
        raise ValueError(f"grid must be in [180, {GRID_CAP}]")
    if not validate_psd(b):
        raise NotPSD("hypothesis matrix is not PSD")
    bmat = b.mat

    steps = np.linspace(0.0, 2.0 * math.pi, grid + 1)
    # 2^16 points at a time; the first maximum in (perm, a1, a2) order wins
    rows = max(1, 2**16 // (grid + 1))
    best_val = -np.inf
    best = (0.0, 0.0, (0, 1, 2))
    for perm in itertools.permutations(range(3)):
        for lo in range(0, grid + 1, rows):
            a1g, a2g = np.meshgrid(steps[lo:lo + rows], steps, indexing="ij")
            valid = a1g + a2g <= 2.0 * math.pi + 1e-12
            psi = np.where(valid, _three_ray_psi(bmat, a1g, a2g, perm), -np.inf)
            idx = np.unravel_index(int(np.argmax(psi)), psi.shape)
            if psi[idx] > best_val:
                best_val = float(psi[idx])
                best = (float(a1g[idx]), float(a2g[idx]), perm)

    # local refinement: shrinking coordinate pattern search
    a1, a2, perm = best
    step = 2.0 * math.pi / grid
    while step > 1e-9:
        improved = False
        for d1, d2 in ((step, 0), (-step, 0), (0, step), (0, -step)):
            c1 = min(max(a1 + d1, 0.0), 2.0 * math.pi)
            c2 = min(max(a2 + d2, 0.0), 2.0 * math.pi - c1)
            val = float(_three_ray_psi(bmat, c1, c2, perm))
            if val > best_val:
                best_val, a1, a2 = val, c1, c2
                improved = True
        if not improved:
            step /= 2.0
    return best_val
