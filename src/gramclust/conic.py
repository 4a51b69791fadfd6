"""Conical partitions of R^{l-1}, Gaussian moments, and the search for C(B).

A partition is given by distinct direction vectors w_j; cell j is the cone
where <x, w_j> is maximal.  Its quality is the quadratic form
psi = sum_{ij} b_ij <z_i, z_j> over the cells' Gaussian first moments z_j,
and C(B) is the supremum of psi over all measurable partitions, attained
by such conical ones.  The search below runs a fixed point on exact
moments over every subset of 2, 3 and 4 labels, each subset from one
seed, its Gram geometry.  Its constants are fixed and it draws nothing at
random, so C(B) depends on B alone.

The fixed-point map z -> moments(cells of B z) runs for many subsets of
one size at once: their matrices form an (S, l, l) array and their seeds
an (S, l, l-1) array, one array step advances every live seed, and each
seed keeps its own stopping rules and best state as masks.  Each step maps
a point extrapolated from the seed's last two images, under a monotone
safeguard that falls back to the plain step and keeps only exact images.
The search runs one such batch per block of SEARCH_BLOCK subsets, up to
POLISH_STEPS steps, and keeps a subset only at a verified fixed point: its
seed ended alive with a residual below FP_TOL (a seed that ends on an
emptying cell is covered by a smaller subset, and its last state is no
fixed point).  Cell moments are exact up to cone dimension 3, from one
kernel: the divergence identity sums each cell's inward facet normals,
weighted by the Gaussian measures of its facets.  No search and no
residual goes above cone dimension 3; the Monte-Carlo
partition_moments_mc is a separate cross-check on a default_rng Gaussian
pool.

Labels are 0-based throughout.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .ball import radius_squared
from .errors import DegenerateB, DimensionMismatch, NotPSD
from .matrixcore import SymMatrix, validate_psd
from .sdp import _BETA_GROWTH, _BETA_MAX, _BETA_START

TWO_PI = 2.0 * math.pi
HALFLINE_MOMENT = 1.0 / math.sqrt(TWO_PI)  # int_0^inf x dgamma_1
SPHERE_CONST = TWO_PI ** -1.5
EMPTY_CELL_MASS = 1e-6
DEFAULT_MC_SAMPLES = 200_000
FP_TOL = 1e-6  # fixed-point residual at which a seed stops
# largest |sum of a partition's moments| over the sum of their norms
MOMENT_SUM_RTOL = 1e-11
# relative psi gain by which a larger active subset must beat a smaller one
SIZE_GAIN_RTOL = 1e-10
POLISH_STEPS = 2000  # step cap of the fixed point over a block's seeds
SEARCH_BLOCK = 2048  # subsets per batched fixed point: bounds memory alone


@dataclass(frozen=True)
class ConicalPartition:
    """Simplicial conical partition with l active labels out of k.

    ``directions`` has one row per active label (sorted ascending), each in
    R^{l-1}; the cones live in R^{l-1} x R^{k-l} with the trailing factor
    free.  For l = 1 the single cell is the whole space.
    """

    k: int
    active: tuple[int, ...]
    directions: np.ndarray = field(repr=False)  # shape (l, l-1)

    def __post_init__(self):
        w = np.asarray(self.directions, dtype=float)
        ell = len(self.active)
        labels = [int(a) for a in self.active]
        if ell == 0 or labels != sorted(set(labels)) or not (
            0 <= labels[0] and labels[-1] < self.k
        ):
            raise DimensionMismatch(
                f"active labels {self.active} must be strictly increasing in [0, {self.k})"
            )
        if w.shape != (ell, max(ell - 1, 0)):
            raise DimensionMismatch(
                f"directions shape {w.shape} does not match {ell} active labels"
            )
        if ell > 1 and not _directions_distinct(w[None])[0]:
            raise DimensionMismatch("direction vectors must be distinct")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "directions", w)
        object.__setattr__(self, "active", tuple(int(a) for a in self.active))

    @property
    def ell(self) -> int:
        return len(self.active)

    @property
    def cone_dim(self) -> int:
        return max(self.ell - 1, 0)


@dataclass(frozen=True)
class PartitionValue:
    """Gaussian moments of a partition's cells and the value psi.

    mc_stderr is 0 for closed-form moments; heuristic marks values with no
    optimality claim (k >= 4 searches).
    """

    moments: np.ndarray = field(repr=False)  # shape (l, l-1), read-only
    psi: float = 0.0
    mc_stderr: float = 0.0
    heuristic: bool = False

    def __post_init__(self):
        z = np.array(self.moments, dtype=float)
        z.flags.writeable = False
        object.__setattr__(self, "moments", z)


def classify_batch(points: np.ndarray, partition: ConicalPartition) -> np.ndarray:
    """Active label whose direction maximizes <x_{1..l-1}, w_j>, for each
    row x of ``points``.

    Ties go to the smallest active label (a measure-zero event).
    """
    if partition.ell == 1:
        return np.full(len(points), partition.active[0], dtype=int)
    scores = points[:, : partition.cone_dim] @ partition.directions.T
    idx = np.argmax(scores, axis=1)  # argmax picks first max = smallest label
    return np.asarray(partition.active, dtype=int)[idx]


# ---------------------------------------------------------------------------
# Monte-Carlo cross-check


def partition_moments_mc(
    partition: ConicalPartition,
    b: SymMatrix,
    samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> PartitionValue:
    """Monte-Carlo cell moments z_j and the induced psi, over the pool of
    ``samples`` standard normal points that default_rng(seed) draws.

    Per-coordinate standard errors are aggregated conservatively: the
    reported mc_stderr is the largest per-cell Euclidean aggregate.
    """
    if samples < 1_000:
        raise ValueError("need at least 1e3 samples")
    dim = partition.cone_dim
    if dim == 0:
        return PartitionValue(moments=np.zeros((1, 0)), psi=0.0, mc_stderr=0.0)
    pool = np.random.default_rng(seed).standard_normal((samples, dim))
    # argmax keeps the first maximum: ties go to the smallest label
    labels = np.argmax(pool @ partition.directions.T, axis=1)
    cells = (labels == np.arange(partition.ell)[:, None]).astype(float)
    moments = cells @ pool / samples
    var = np.maximum(cells @ (pool * pool) / samples - moments * moments, 0.0)
    stderr = float(np.max(np.sqrt(np.sum(var, axis=1) / samples)))
    sub = b.mat[np.ix_(partition.active, partition.active)]
    psi = float(_psi(sub, moments[None])[0])
    return PartitionValue(moments=moments, psi=psi, mc_stderr=stderr)


# ---------------------------------------------------------------------------
# cells of S direction sets at once: w has shape (S, l, d), one set per seed


@functools.cache
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), i < j, of the pairs among m directions."""
    return np.triu_indices(m, 1)


@functools.cache
def _others(m: int) -> np.ndarray:
    """(m, m-1) table whose row i lists the indices j != i in ascending order.

    Facet f of cell i lies where w_i and w_{_others(l)[i, f]} tie, and the
    same table for l - 1 lists the other facets of a cell beside facet f.
    """
    return np.array([[j for j in range(m) if j != i] for i in range(m)], dtype=int)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of coordinate-first arrays of vectors, one explicit
    product per coordinate: a numpy sum over the short axis is slower."""
    out = a[0] * b[0]
    for c in range(1, len(a)):
        out = out + a[c] * b[c]
    return out


def _cells(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact (moments, masses) of the cells of S sets of l = d + 1 directions
    in cone dimension d = 1, 2 or 3, w of shape (S, l, d).

    Cell i is the cone {x : n_f . x >= 0} of its l - 1 inward unit normals
    n_f = (w_i - w_j)/|w_i - w_j|, j != i.  Gaussian integration by parts
    (the divergence identity) gives z_i = (2pi)^{-1/2} sum_f P_f n_f, where
    P_f is the (d-1)-dimensional Gaussian measure of the cell's facet on the
    plane of n_f: 1 for the origin in d = 1; 1/2 for a half-line in d = 2,
    where two equal normals make the cell a half-plane; L_f/(2pi) for a
    sector of angle L_f in d = 3.  There L_f = pi - (angle at n_f of the
    spherical triangle n_f, n_g, n_h), whose tangent is
    |det n| / (G_gh - G_fg G_fh) for the Gram matrix G of the normals.

    The masses are 1/2 in d = 1; the wedge's angle over 2pi in d = 2, pi
    minus the angle between its two normals; and by Gauss-Bonnet in d = 3
    the solid angle 2pi minus the perimeter of that triangle, over 4pi.
    Every angle is an atan2, accurate near 0 and pi where arccos is not.
    A cell with exactly opposite normals in d = 2, or whose sectors all
    have angle 0 in d = 3 (a direction inside the hull of the others), has
    mass exactly 0.
    """
    s, ell, dim = w.shape
    if not 1 <= dim == ell - 1 <= 3:
        raise DimensionMismatch(
            f"cell moments exist for l = d + 1 directions in cone dimension "
            f"1 to 3, got {ell} in dimension {dim}"
        )
    # coordinate-first (d, S, cell, facet): each dot product is d products
    n = np.moveaxis(w[:, :, None, :] - w[:, _others(ell), :], 3, 0)
    n = n / np.sqrt(_dot(n, n))
    if dim == 1:
        scale, weights = HALFLINE_MOMENT, np.ones((s, 2, 1))
        masses = np.full((s, 2), 0.5)
    elif dim == 2:
        nf, ng = n[..., 0], n[..., 1]
        between = np.arctan2(np.abs(nf[0] * ng[1] - nf[1] * ng[0]), _dot(nf, ng))
        scale, weights = HALFLINE_MOMENT, np.full((s, 3, 2), 0.5)
        masses = (math.pi - between) / TWO_PI
    else:
        g, h = _others(3).T  # the cell's two facets other than f
        ng, nh = n[..., g], n[..., h]
        cross = np.stack([  # normal to the facets g and h
            ng[1] * nh[2] - ng[2] * nh[1],
            ng[2] * nh[0] - ng[0] * nh[2],
            ng[0] * nh[1] - ng[1] * nh[0],
        ])
        det = np.abs(_dot(n[..., 0], cross[..., 0]))
        g_gh = _dot(ng, nh)
        turn = g_gh - _dot(n, ng) * _dot(n, nh)
        # the weights are the sectors L_f, and scale holds the 1/(2pi) of P_f
        weights = np.maximum(0.0, math.pi - np.arctan2(det[..., None], turn))
        scale = SPHERE_CONST
        sides = np.arctan2(np.sqrt(_dot(cross, cross)), g_gh)
        perimeter = sides[..., 0] + sides[..., 1] + sides[..., 2]
        masses = np.maximum(0.0, TWO_PI - perimeter) / (2.0 * TWO_PI)
        masses[weights[..., 0] + weights[..., 1] + weights[..., 2] == 0.0] = 0.0
    return scale * np.einsum("sif,csif->sic", weights, n), masses


def _directions_distinct(w: np.ndarray) -> np.ndarray:
    """(S,) True where no two directions of a set coincide to 1e-12 relative.

    The one test of distinct directions: a state the search keeps must
    build a ConicalPartition.  Relative to the largest entry of the set
    alone, so the directions B z of a small B pass like those of a large one.
    """
    scale = np.abs(w).max(axis=(1, 2))
    i, j = _pairs(w.shape[1])
    gaps = np.abs(w[:, i] - w[:, j]).max(axis=2)
    return (gaps > 1e-12 * scale[:, None]).all(axis=1)


def _psi(b_sub: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(S,) values sum_ij b_ij <z_i, z_j> of S moment tuples."""
    return (b_sub * (z @ z.transpose(0, 2, 1))).sum(axis=(1, 2))


# ---------------------------------------------------------------------------
# fixed-point iteration z -> moments(P(B z)), many seeds at once


def _fixed_point(
    b_sub: np.ndarray,
    z0: np.ndarray,
    fp_tol: float,
    max_iters: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Iterate the self-consistency map from S seeds z0 (S, l, l-1) together,
    seed s under its own matrix b_sub[s] (S, l, l).

    Returns per-seed arrays (moments, psi, residual, alive).  The map
    z -> moments(cells of B z) is the conditional-gradient step for the
    convex functional psi, so a plain step never lowers psi, but it
    converges only linearly.  So after each accepted image z the seed maps
    the extrapolated point y = z + beta (z - prev) next, prev being its
    previous accepted image (the seed itself at first), under the monotone
    safeguard of sdp._ascend: the image of y is accepted only if its psi
    beats that of z.  Otherwise the step is rejected and the seed maps z
    itself, a plain step.  beta starts at 1/2, grows by 1.1 (up to 1) on
    each accepted extrapolation and halves on each rejected one.  Only
    exact images carry a psi or become the seed's best state, so every
    returned psi is the value of a partition.

    A plain step (the first one, and each after a rejection) ends the seed
    when its directions coincide, a cell's Gaussian mass falls below
    EMPTY_CELL_MASS or its cell moments do not sum to 0; at an extrapolated
    point these are rejections.  A seed also stops when its residual
    |image - y| of an accepted or plain step falls below fp_tol and that
    step raised psi by at most fp_tol^2 |psi|, or after max_iters steps.
    The psi test keeps a seed going on a slow stretch, where the residual
    stays below fp_tol for many steps while psi still rises.  alive=False
    means the seed ended on a failed plain step, its residual inf: it
    degenerates to fewer cells, covered by a smaller subset.  Its moments
    are its best state, z0 if it never had one, and psi their value.
    """
    y = np.array(z0, dtype=float)
    best_z = y.copy()
    best_psi = np.full(len(y), -np.inf)
    residual = np.full(len(y), np.inf)
    # per live seed: its index, its matrix, the point y it maps next, its
    # last accepted image (the seed itself before the first step) and that
    # image's psi, its beta, and whether y is that image, a plain step
    seeds, b = np.arange(len(y)), b_sub
    prev = y.copy()
    prev_psi = np.full(len(y), -np.inf)
    beta = np.full(len(y), _BETA_START)
    plain = np.ones(len(y), dtype=bool)
    for _ in range(max_iters):
        if seeds.size == 0:
            break
        w = b @ y
        pos = np.flatnonzero(_directions_distinct(w))
        z_new, masses = _cells(w[pos])
        psi = _psi(b[pos], z_new)
        # moments of a partition sum to 0.  Exact cells reach about 1e-16
        # of the sum of their norms, and fixed points with two cells of
        # mass near 1e-5 up to 3e-12 in some label order; a larger sum
        # marks near-coplanar directions whose cells are wrong and whose
        # psi need not be a lower bound on C(B).  Relative, with that
        # margin, so the verdict does not turn on a label order's rounding
        size = np.sqrt((z_new * z_new).sum(axis=2)).sum(axis=1)
        up = (masses.min(axis=1) >= EMPTY_CELL_MASS) & (
            np.abs(z_new.sum(axis=1)).max(axis=1) <= MOMENT_SUM_RTOL * size
        )
        up &= plain[pos] | (psi > prev_psi[pos])
        pos, z_new, psi = pos[up], z_new[up], psi[up]
        gain = psi - prev_psi[pos]
        step = z_new - y[pos]
        res = np.sqrt((step * step).sum(axis=2)).max(axis=1)
        moved = seeds[pos]
        residual[moved] = res
        better = psi > best_psi[moved]
        best_psi[moved[better]] = psi[better]
        best_z[moved[better]] = z_new[better]
        grown = np.minimum(_BETA_MAX, _BETA_GROWTH * beta[pos])
        beta[pos] = np.where(plain[pos], beta[pos], grown)
        y[pos] = z_new + beta[pos, None, None] * (z_new - prev[pos])
        prev[pos], prev_psi[pos] = z_new, psi
        # a rejected extrapolation steps back for a plain step; a failed
        # plain step ends the seed on a state with no valid image
        failed = plain.copy()
        failed[pos] = False
        residual[seeds[failed]] = np.inf
        plain = ~plain
        plain[pos] = False
        y[plain] = prev[plain]
        beta[plain] *= 0.5
        keep = plain.copy()
        keep[pos] = ~((res < fp_tol) & (gain <= fp_tol * fp_tol * np.abs(psi)))
        if not keep.all():
            seeds, b, y, prev = seeds[keep], b[keep], y[keep], prev[keep]
            prev_psi, beta, plain = prev_psi[keep], beta[keep], plain[keep]
    alive = np.isfinite(residual)
    never = np.isneginf(best_psi)
    best_psi[never] = _psi(b_sub[never], best_z[never])
    return best_z, best_psi, residual, alive


def fixed_point_residual(
    b: SymMatrix, partition: ConicalPartition, value: PartitionValue
) -> float:
    """Self-consistency residual of a reported optimum.

    Recomputes the directions from the reported moments, measures the exact
    cell moments of the induced partition, and returns the largest per-cell
    displacement.  At a true optimum this vanishes.  Raises
    DimensionMismatch above cone dimension 3, where no closed form is
    implemented.
    """
    if partition.ell <= 1:
        return 0.0
    sub = b.mat[np.ix_(partition.active, partition.active)]
    return float(_fixed_point(sub[None], value.moments[None], 0.0, 1)[2][0])


# ---------------------------------------------------------------------------
# closed forms for B_c = diag(1, 1, c)


def formula_bc(c: float) -> tuple[float, float, float]:
    """(R^2, C, R^2/C) for the diagonal hypothesis diag(1, 1, c).

    C switches branch at c = 1/2, where the optimal partition degenerates
    from three cones to two half-planes.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    r2 = (1.0 + c) ** 2 / (2.0 + 4.0 * c)
    if c >= 0.5:
        c_of_b = (2.0 * c + 1.0) ** 2 / (8.0 * math.pi * c)
    else:
        c_of_b = 1.0 / math.pi
    return r2, c_of_b, r2 / c_of_b


# ---------------------------------------------------------------------------
# the search


# the latest B's bytes and its result: a batch against one B searches once
_SEARCH_CACHE: dict = {}


def clear_search_cache() -> None:
    _SEARCH_CACHE.clear()


def _canonical_label_order(b: np.ndarray) -> np.ndarray:
    """Deterministic label order invariant under simultaneous permutation."""
    keys = [
        (b[i, i], float(b[i].sum()), float(np.sum(b[i] ** 2)), i)
        for i in range(len(b))
    ]
    return np.array([i for *_, i in sorted(keys)], dtype=int)


def _structured_seeds(b_sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One seed per subset from its Gram geometry: the centered label
    vectors of each matrix of the stack b_sub (S, l, l), embedded in the
    cone dimension with largest norm 1/4.  Returns the (S, l, l-1) seeds and
    the (S,) mask of the subsets whose labels do not all coincide.  Cells
    of B z do not change when z is scaled, so the radius enters only the
    first extrapolation."""
    ell = b_sub.shape[1]
    ones = np.ones(ell) / ell
    col, row = ones @ b_sub, b_sub @ ones
    centered = b_sub - col[:, :, None] - row[:, None, :] + (col @ ones)[:, None, None]
    eigs, vecs = np.linalg.eigh((centered + centered.transpose(0, 2, 1)) / 2.0)
    # eigh sorts ascending: the top l-1 in descending order
    eigs, vecs = eigs[:, :0:-1], vecs[:, :, :0:-1]
    coords = vecs * np.sqrt(np.clip(eigs, 0.0, None))[:, None, :]
    norm = np.sqrt((coords * coords).sum(axis=2)).max(axis=1)
    # below this B z is rounding noise, and psi <= R(B_S)^2 <= norm^2 falls
    # short of the best pair of any non-degenerate B / 4^s (R^2 >= 1e-12)
    live = norm > 5e-8
    return coords / np.where(live, norm, 1.0)[:, None, None] * 0.25, live


def search_cb(b: SymMatrix) -> tuple[float, ConicalPartition, PartitionValue]:
    """Estimate C(B) and the partition attaining it.

    Exhausts active subsets by size l = 2, 3, 4.  Each subset starts from
    one seed, its Gram geometry, none when its labels coincide; the seed
    only picks a basin for the fixed point.  Each block of up to
    SEARCH_BLOCK subsets of one size runs one batched fixed-point iteration
    for up to POLISH_STEPS steps, on exact cell moments from the divergence
    identity (see _cells).
    The iteration is extrapolated under a monotone safeguard (see
    _fixed_point), which cuts its step count, and only its exact images are
    kept.  A subset counts only at a verified fixed point: its seed ended
    alive with a residual below FP_TOL.  Subsets of five or more cells are
    not searched.  The returned psi is the value of the exact cell moments
    of one conical partition, so a lower bound on C(B); the reported
    directions B z give that partition at a fixed point.  For k >= 4 psi
    comes with no optimality claim (heuristic flag set).  mc_stderr is 0
    for every k.  Nothing is drawn at random, each seed runs alone whatever
    its block, and subsets of one size reduce by (psi, position)
    lexicographic max, so the result depends on B alone.  A larger subset
    replaces the best smaller one only when psi rises by more than
    SIZE_GAIN_RTOL relative: a smaller gain comes from sliver cells, below
    what the moments resolve.  The result of the latest B is cached,
    and its arrays are read-only.

    The search runs on B's ``unit``, B / 4^s with its largest |entry|, a
    diagonal one, in [1, 4).  A power of 4 scales psi, R(B)^2 and the
    directions exactly and leaves every cell unchanged, so B * 4^e gets
    the same partition and C(B) times 4^e; B is degenerate when
    R(B)^2 / 4^s < 1e-12, a single Gram vector (k = 1) included.
    """
    if not validate_psd(b):
        raise NotPSD("hypothesis matrix is not PSD")
    k = b.dim
    unit, shift = b.unit
    # scaled before the comparison: 1e-12 * 4^s underflows for subnormal B
    if math.ldexp(radius_squared(b), -2 * shift) < 1e-12:
        raise DegenerateB(
            "all Gram vectors coincide; every clustering of a centered matrix "
            "has value 0"
        )

    # exact bytes: a rounded key lets B matrices that differ only below the
    # rounding step share one entry (SymMatrix is bit-exactly symmetric)
    cache_key = b.mat.tobytes()
    cached = _SEARCH_CACHE.get(cache_key)
    if cached is not None:
        return cached

    # ordered after scaling: the order's keys square entries of B
    perm = _canonical_label_order(unit)
    bc = unit[np.ix_(perm, perm)]

    # l = 1: the whole space, psi = 0.  Baseline for degenerate instances.
    best_psi, best_active, best_z = 0.0, (0,), np.zeros((1, 0))
    # l = 2, 3, 4: one batched fixed point per block of subsets; a subset
    # counts only at a verified fixed point.  Within one size ties go to the
    # later subset, near-ties across sizes to the smaller one (docstring)
    for ell in (2, 3, 4):
        subsets = itertools.combinations(range(k), ell)
        while block := list(itertools.islice(subsets, SEARCH_BLOCK)):
            idx = np.array(block)
            b_sub = bc[idx[:, :, None], idx[:, None, :]]
            seeds, live = _structured_seeds(b_sub)
            if not live.any():
                continue
            idx, b_sub = idx[live], b_sub[live]
            z, psi, residual, _ = _fixed_point(b_sub, seeds[live], FP_TOL, POLISH_STEPS)
            # a dead seed's residual is inf
            psi = np.where(residual < FP_TOL, psi, -np.inf)
            last = len(psi) - 1 - int(np.argmax(psi[::-1]))
            if len(best_active) == ell:
                better = psi[last] >= best_psi
            else:
                better = psi[last] > best_psi * (1.0 + SIZE_GAIN_RTOL)
            if better:
                best_psi, best_active, best_z = float(psi[last]), tuple(idx[last]), z[last]

    # map canonical labels back to the caller's ordering
    active_orig = sorted(int(perm[a]) for a in best_active)
    reorder = np.argsort([int(perm[a]) for a in best_active])
    moments = best_z[reorder]
    b_sub_orig = b.mat[np.ix_(active_orig, active_orig)]
    ell = len(active_orig)
    if ell == 1:
        directions = np.zeros((1, 0))
    else:
        directions = b_sub_orig @ moments
    partition = ConicalPartition(k=k, active=tuple(active_orig), directions=directions)
    psi = math.ldexp(best_psi, 2 * shift)
    value = PartitionValue(
        moments=moments,
        psi=psi,
        heuristic=k >= 4,
    )
    result = (psi, partition, value)
    _SEARCH_CACHE.clear()
    _SEARCH_CACHE[cache_key] = result
    return result
