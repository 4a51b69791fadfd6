"""Randomized rounding of SDP vectors through a Gaussian projection.

Each trial draws a random Gaussian matrix G, projects every SDP vector to
the partition's cone space, and assigns the label of the cone containing
the projection.  In expectation the rounded value is at least psi(P) times
the SDP value, which is where the C(B) factor in the guarantee comes from.

Labels are 0-based; trials use counter-based Philox streams keyed by
(seed, trial) so they are reproducible and order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conic import ConicalPartition, classify_batch
from .errors import LabelOutOfRange, TooFewTrials
from .matrixcore import SymMatrix, unit_scaled


@dataclass(frozen=True)
class Clustering:
    """An assignment with its objective value and provenance.

    Constant-assignment safety candidates get trial_index >= the trial
    count; random trials are indexed from 0.
    """

    sigma: np.ndarray = field(repr=False)
    value: float = 0.0
    trial_index: int = 0


def clustering_value(a: SymMatrix, b: SymMatrix, sigma) -> float:
    """sum_ij a_ij b_{sigma(i) sigma(j)} via per-cluster mass accumulation.

    The k x k cluster-mass matrix is formed first (O(n^2) once), then
    contracted against B (O(k^2)).
    """
    sigma = np.asarray(sigma, dtype=int)
    n = a.dim
    k = b.dim
    if sigma.shape != (n,):
        raise LabelOutOfRange(f"assignment length {sigma.shape} does not match n={n}")
    if sigma.size and (sigma.min() < 0 or sigma.max() >= k):
        raise LabelOutOfRange(f"labels must lie in [0, {k})")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), sigma] = 1.0
    masses = onehot.T @ a.mat @ onehot
    return float(np.sum(masses * b.mat))


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def round_once(
    x_vectors: np.ndarray, partition: ConicalPartition, rng: np.random.Generator
) -> np.ndarray:
    """One rounding draw: sigma(i) = cone label of G x_i.

    G is (l-1) x r with i.i.d. standard Gaussian entries; only active
    labels are ever emitted.
    """
    x = np.asarray(x_vectors, dtype=float)
    if partition.ell == 1:
        return np.full(len(x), partition.active[0], dtype=int)
    g = rng.standard_normal((partition.cone_dim, x.shape[1]))
    return classify_batch(x @ g.T, partition)


def round_best_of(
    a: SymMatrix,
    b: SymMatrix,
    x_vectors: np.ndarray,
    partition: ConicalPartition,
    trials: int = 100,
    seed: int = 0,
) -> tuple[Clustering, list[float]]:
    """Best clustering over ``trials`` independent draws.

    The k constant assignments are included as safety candidates, so on a
    centered instance the best value is never below 0.  Returns the winner
    plus the list of random-trial values (for the expectation test).
    Trial t draws from its own Philox stream keyed by (seed, t), and the
    candidates reduce by (value, trial_index) lexicographic max, kept as a
    running best, so one assignment is held at a time.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    best, values = None, []
    for t in range(trials + b.dim):
        if t < trials:
            sigma = round_once(x_vectors, partition, _trial_rng(seed, t))
        else:
            sigma = np.full(a.dim, t - trials, dtype=int)
        values.append(clustering_value(a, b, sigma))
        if best is None or (values[-1], t) > (best.value, best.trial_index):
            best = Clustering(sigma, values[-1], t)
    return best, values[:trials]


def estimate_expectation(trial_values) -> tuple[float, float]:
    """Sample mean and standard error of rounding trial values.

    Both are taken on the values scaled by a power of two to unit size and
    scaled back, so the squared deviations cannot overflow: the result is
    exactly 2^e times that of the values / 2^e.
    """
    values, shift = unit_scaled(np.asarray(trial_values, dtype=float))
    if values.size < 2:
        raise TooFewTrials("need at least two trials for a standard error")
    mean = math.ldexp(float(values.mean()), shift)
    stderr = math.ldexp(float(values.std(ddof=1) / np.sqrt(values.size)), shift)
    return mean, stderr
