import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import qmc

from gramclust import (
    ConicalPartition,
    DegenerateB,
    DimensionMismatch,
    NotPSD,
    PartitionValue,
    SymMatrix,
    analyze_b,
    formula_bc,
    partition_moments_mc,
    radius_squared,
    search_cb,
)
from gramclust import conic
from gramclust.conic import classify_batch, clear_search_cache

TWO_PI = 2.0 * math.pi


def halfline_partition():
    return ConicalPartition(k=2, active=(0, 1), directions=np.array([[1.0], [-1.0]]))


def three_cones_120():
    w = np.array([[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]])
    return ConicalPartition(k=3, active=(0, 1, 2), directions=w)


def classify(x, partition):
    return int(classify_batch(np.array([x], dtype=float), partition)[0])


class TestClassify:
    def test_halfline_sign(self):
        assert classify([0.5, 99.0], halfline_partition()) == 0
        assert classify([-0.5], halfline_partition()) == 1

    def test_tie_goes_to_smallest_label(self):
        assert classify([0.0], halfline_partition()) == 0
        assert classify([0.0, 0.0], three_cones_120()) == 0

    def test_three_cones(self):
        # dot products with (0,1): 0, sqrt(3)/2, -sqrt(3)/2
        assert classify([0.0, 1.0], three_cones_120()) == 1

    def test_distinct_directions_enforced(self):
        with pytest.raises(DimensionMismatch):
            ConicalPartition(k=2, active=(0, 1), directions=np.array([[1.0], [1.0]]))


def cone_moment_closed_2d(alpha, bisector):
    """Exact Gaussian moment of the planar cone of opening alpha: along the
    bisector, with |z|^2 = sin^2(alpha/2)/(2 pi)."""
    u = np.asarray(bisector, dtype=float)
    return math.sin(alpha / 2.0) / math.sqrt(TWO_PI) * u / np.linalg.norm(u)


class TestConeMomentClosed2d:
    def test_full_plane_vanishes(self):
        np.testing.assert_allclose(
            cone_moment_closed_2d(TWO_PI, [1.0, 0.0]), [0.0, 0.0], atol=1e-15
        )

    def test_half_plane(self):
        z = cone_moment_closed_2d(math.pi, [0.0, 1.0])
        assert np.sum(z ** 2) == pytest.approx(1.0 / TWO_PI, abs=1e-14)

    def test_propeller_cell(self):
        z = cone_moment_closed_2d(2.0 * math.pi / 3.0, [1.0, 0.0])
        assert np.sum(z ** 2) == pytest.approx(3.0 / (8.0 * math.pi), abs=1e-14)

    def test_matches_polar_quadrature(self):
        # oracle: integrate the x-coordinate over the cone in polar form
        alpha = 1.234
        radial = quad(lambda r: r * r * math.exp(-r * r / 2.0), 0.0, np.inf)[0]
        angular = quad(math.cos, -alpha / 2.0, alpha / 2.0)[0]
        expected = radial * angular / TWO_PI
        z = cone_moment_closed_2d(alpha, [1.0, 0.0])
        assert z[0] == pytest.approx(expected, abs=1e-12)
        assert z[1] == pytest.approx(0.0, abs=1e-15)


class TestPartitionMomentsMc:
    def test_halfline_matches_quadrature(self):
        # oracle: int_0^inf x dgamma_1 computed by quadrature
        expected = quad(
            lambda x: x * math.exp(-x * x / 2.0) / math.sqrt(TWO_PI), 0.0, np.inf
        )[0]
        pv = partition_moments_mc(
            halfline_partition(), SymMatrix.from_array(np.eye(2)), 200_000, seed=5
        )
        assert abs(pv.moments[0, 0] - expected) <= 3.0 * pv.mc_stderr
        assert abs(pv.moments[1, 0] + expected) <= 3.0 * pv.mc_stderr
        assert pv.mc_stderr > 0

    def test_propeller_cells(self):
        pv = partition_moments_mc(
            three_cones_120(), SymMatrix.from_array(np.eye(3)), 200_000, seed=6
        )
        for row in range(3):
            norm2 = float(np.sum(pv.moments[row] ** 2))
            band = 3.0 * (2.0 * math.sqrt(3.0 / (8 * math.pi)) * pv.mc_stderr)
            assert abs(norm2 - 3.0 / (8.0 * math.pi)) <= band

    def test_single_cell_exact_zero(self):
        part = ConicalPartition(k=3, active=(1,), directions=np.zeros((1, 0)))
        pv = partition_moments_mc(part, SymMatrix.from_array(np.eye(3)), 10_000, seed=0)
        assert pv.psi == 0.0
        assert pv.mc_stderr == 0.0

    def test_moment_sum_vanishes(self):
        pv = partition_moments_mc(
            three_cones_120(), SymMatrix.from_array(np.eye(3)), 50_000, seed=9
        )
        assert np.max(np.abs(pv.moments.sum(axis=0))) <= 3.0 * pv.mc_stderr

    def test_crude_norm_bound(self):
        pv = partition_moments_mc(
            three_cones_120(), SymMatrix.from_array(np.eye(3)), 50_000, seed=9
        )
        assert np.all(np.linalg.norm(pv.moments, axis=1) <= math.sqrt(2.0))

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            partition_moments_mc(
                halfline_partition(), SymMatrix.from_array(np.eye(2)), 10, seed=0
            )

    def test_runs_above_cone_dimension_63(self):
        # the pool has no dimension ceiling: 65 cells in cone dimension 64
        w = np.random.default_rng(8).standard_normal((65, 64))
        part = ConicalPartition(k=65, active=tuple(range(65)), directions=w)
        pv = partition_moments_mc(part, SymMatrix.from_array(np.eye(65)), 20_000, seed=2)
        assert pv.moments.shape == (65, 64)
        assert np.max(np.abs(pv.moments.sum(axis=0))) <= 3.0 * pv.mc_stderr

    def test_matches_per_cell_loop(self):
        w = np.array([[1.0, 0.2, -0.3], [-0.4, 0.9, 0.1], [0.0, -1.0, 0.5], [-0.6, 0.1, -0.8]])
        part = ConicalPartition(k=5, active=(0, 1, 3, 4), directions=w)
        b = SymMatrix.from_array(np.eye(5))
        pv = partition_moments_mc(part, b, 20_000, seed=4)
        # oracle: per-cell means and variances over the same pool
        pool = np.random.default_rng(4).standard_normal((20_000, 3))
        labels = classify_batch(pool, part)
        stderr = 0.0
        for row, lab in enumerate(part.active):
            contrib = pool * (labels == lab)[:, None]
            np.testing.assert_allclose(pv.moments[row], contrib.mean(axis=0), atol=1e-15)
            stderr = max(stderr, math.sqrt(np.sum(contrib.var(axis=0) / len(pool))))
        assert pv.mc_stderr == pytest.approx(stderr, rel=1e-9)


def planar_reference(w):
    """Scalar arcs: winners at arc midpoints, moments summed with
    cone_moment_closed_2d over the winning arcs."""
    m = len(w)
    cuts = set()
    for i in range(m):
        for j in range(i + 1, m):
            phi = math.atan2(w[i, 1] - w[j, 1], w[i, 0] - w[j, 0])
            cuts.add((phi + math.pi / 2.0) % TWO_PI)
            cuts.add((phi - math.pi / 2.0) % TWO_PI)
    angles = sorted(cuts)
    moments = np.zeros((m, 2))
    masses = np.zeros(m)
    for a, b in zip(angles, angles[1:] + [angles[0] + TWO_PI]):
        mid = (a + b) / 2.0
        u = np.array([math.cos(mid), math.sin(mid)])
        row = int(np.argmax(w @ u))
        moments[row] += cone_moment_closed_2d(b - a, u)
        masses[row] += (b - a) / TWO_PI
    return moments, masses


def sobol_gaussian_pool(dim, count, seed):
    """Gaussian pool (count, dim): scrambled Sobol points of the next even
    dimension mapped by Box-Muller, each coordinate pair (u, u') giving
    sqrt(-2 log(1 - u)) (cos 2pi u', sin 2pi u')."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # balance warning for non-2^m counts
        u = qmc.Sobol(d=2 * ((dim + 1) // 2), scramble=True, seed=seed).random(count)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    angle = TWO_PI * u[:, 1::2]
    pool = np.empty_like(u)
    pool[:, 0::2] = radius * np.cos(angle)
    pool[:, 1::2] = radius * np.sin(angle)
    return pool[:, :dim]


def pool_cells_one(pool):
    """Per-seed Monte-Carlo cells of one direction set, by argmax."""
    def cells(w):
        idx = np.argmax(pool @ w.T, axis=1)
        ell = len(w)
        z = np.array([pool[idx == r].sum(axis=0) / len(pool) for r in range(ell)])
        return z, np.array([np.mean(idx == r) for r in range(ell)])
    return cells


def spherical_cells_one(w):
    moments, masses = conic._cells(w[None])
    return moments[0], masses[0]


def fixed_point_reference(b_sub, z0, fp_tol, max_iters, cells):
    """One seed, one step at a time, extrapolated under the monotone
    safeguard; returns (alive, best psi).  alive: the seed ended on a state
    whose plain step is valid."""
    y, prev, prev_psi, beta, plain = z0, z0, -np.inf, 0.5, True
    best_psi, alive = -np.inf, False
    ell = len(z0)
    for _ in range(max_iters):
        w = b_sub @ y
        scale = max(1.0, float(np.max(np.abs(w))))
        ok = all(
            np.max(np.abs(w[i] - w[j])) > 1e-12 * scale
            for i in range(ell) for j in range(i + 1, ell)
        )
        if ok:
            z_new, masses = cells(w)
            psi = float(np.sum(b_sub * (z_new @ z_new.T)))
            ok = (
                masses.min() >= conic.EMPTY_CELL_MASS
                and np.max(np.abs(z_new.sum(axis=0))) <= 1e-12
                and (plain or psi > prev_psi)
            )
        if not ok:
            if plain:  # a plain step that fails ends the seed, dead
                return False, best_psi
            y, plain, beta = prev, True, 0.5 * beta  # step back
            continue
        residual = float(np.max(np.linalg.norm(z_new - y, axis=1)))
        gain = psi - prev_psi
        if psi > best_psi:
            best_psi, alive = psi, True
        if not plain:
            beta = min(1.0, 1.1 * beta)
        y = z_new + beta * (z_new - prev)
        prev, prev_psi, plain = z_new, psi, False
        if residual < fp_tol and gain <= fp_tol * fp_tol * abs(psi):
            break
    return alive, best_psi


def coplanar_quadruples():
    """Direction sets w = B z from the rank-3 B = F F^T whose Gram vectors
    f_i lie on the plane x_3 = 1, with f_3 inside the triangle of the
    others, so w_3 lies inside the triangle of w_0..w_2.  Integer B and
    dyadic z keep every entry exact, and z[:, 2] spans the null space of
    F^T, so w[:, 2] == 0 exactly."""
    f = np.array([[0.0, 0.0, 1.0], [4.0, 0.0, 1.0], [0.0, 4.0, 1.0], [1.0, 1.0, 1.0]])
    b = f @ f.T
    rng = np.random.default_rng(21)
    sets = []
    for t in range(6):
        z = np.zeros((4, 3))
        z[:3, :2] = rng.integers(-8, 9, size=(3, 2)) / 8.0
        z[3, :2] = -z[:3, :2].sum(axis=0)
        z[:, 2] = (t - 2.5) / 8.0 * np.array([2.0, 1.0, 1.0, -4.0])
        sets.append(b @ z)
    return np.array(sets)


class TestSphericalCells:
    def test_match_large_pool(self):
        rng = np.random.default_rng(7)
        cop = coplanar_quadruples()
        assert np.all(cop[:, :, 2] == 0.0)
        np.testing.assert_array_equal(
            cop[:, 3], 0.5 * cop[:, 0] + 0.25 * cop[:, 1] + 0.25 * cop[:, 2]
        )
        w = np.concatenate([rng.standard_normal((12, 4, 3)), cop])
        moments, masses = conic._cells(w)
        # oracle: a 2M-point scrambled Sobol Gaussian pool (standard error
        # of each moment coordinate below 1/sqrt(2e6) = 7e-4, far less for QMC)
        cells = pool_cells_one(sobol_gaussian_pool(3, 2_000_000, 5))
        ref_moments, ref_masses = (np.array(r) for r in zip(*map(cells, w)))
        np.testing.assert_allclose(moments, ref_moments, rtol=0, atol=3e-4)
        np.testing.assert_allclose(masses, ref_masses, rtol=0, atol=3e-4)
        np.testing.assert_allclose(masses.sum(axis=1), 1.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(moments.sum(axis=1), 0.0, rtol=0, atol=1e-14)
        # the interior direction's cell is a ray: no mass, no moment
        assert np.all(masses[12:, 3] == 0.0)
        assert np.all(moments[12:, 3] == 0.0)
        # the other coplanar cells are wedges: no moment along the normal
        assert np.all(moments[12:, :, 2] == 0.0)


class TestBatchedKernels:
    def test_planar_cells_match_scalar_arcs(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((40, 3, 2))
        # a dominated direction (the midpoint of the others: zero mass)
        w[0] = [[2.0, 1.0], [-2.0, -3.0], [0.0, -1.0]]
        # two nearly coincident directions, both hull vertices
        w[1] = [[1.0, 0.0], [1.0, 1e-9], [-1.0, 1.0]]
        moments, masses = conic._cells(w)
        for s in range(len(w)):
            ref_moments, ref_masses = planar_reference(w[s])
            np.testing.assert_allclose(moments[s], ref_moments, rtol=0, atol=1e-14)
            np.testing.assert_allclose(masses[s], ref_masses, rtol=0, atol=1e-14)
        assert masses[0, 2] == 0.0
        assert masses[1, 0] > 0.0 and masses[1, 1] > 0.0
        np.testing.assert_allclose(masses.sum(axis=1), 1.0, atol=1e-14)

    def test_collinear_planar_cells(self):
        # the outer cells are half-planes, the middle one is a line
        moments, masses = conic._cells(np.array([[[1.0, 0.0], [-1.0, 0.0], [-2.0, 0.0]]]))
        np.testing.assert_array_equal(masses[0], [0.5, 0.0, 0.5])
        c = 1.0 / math.sqrt(TWO_PI)
        np.testing.assert_allclose(moments[0], [[c, 0.0], [0.0, 0.0], [-c, 0.0]],
                                   rtol=0, atol=1e-16)

    def test_halfline_cells_exact(self):
        w = np.random.default_rng(13).standard_normal((200, 2, 1))
        moments, masses = conic._cells(w)
        c = np.where(w[:, 0, 0] > w[:, 1, 0], 1.0, -1.0) / math.sqrt(TWO_PI)
        np.testing.assert_array_equal(moments[:, 0, 0], c)
        np.testing.assert_array_equal(moments[:, 1, 0], -c)
        assert np.all(masses == 0.5)

    @pytest.mark.parametrize("shape", [(3, 4, 2), (3, 5, 4)], ids=["4-in-plane", "5-in-4d"])
    def test_cells_reject_other_shapes(self, shape):
        with pytest.raises(DimensionMismatch):
            conic._cells(np.ones(shape))

    @pytest.mark.parametrize("fp_tol", [1e-6, 0.0])
    def test_exact_fixed_point_matches_single_seed_loop(self, fp_tol):
        rng = np.random.default_rng(6)
        f = rng.standard_normal((4, 4))
        free = rng.normal(scale=0.3, size=(30, 3, 3))
        free[0] = 0.0  # coincident directions
        w = rng.standard_normal((4, 3))
        # a direction inside the hull of the others: an empty cell
        w[:, 2] = 0.5
        w[3] = w[:3].mean(axis=0)
        # the Wishart B's four-cell optimum degenerates, so every seed ends
        # on an emptying cell; I_4's is the propeller, which some seeds reach
        matrices, lives = [f @ f.T, np.eye(4)], [False, True]
        seeds = np.concatenate([free, -free.sum(axis=1, keepdims=True)], axis=1)
        seeds = np.stack([seeds, seeds])
        for b_sub, z in zip(matrices, seeds):
            z[1] = np.linalg.solve(b_sub, w)
        # one call, each seed under its own matrix
        stack = np.repeat(np.array(matrices), 30, axis=0)
        _, psi, _, alive = conic._fixed_point(stack, seeds.reshape(60, 4, 3), fp_tol, 60)
        psi, alive = psi.reshape(2, 30), alive.reshape(2, 30)
        for m, b_sub in enumerate(matrices):
            for s in range(30):
                ref_alive, ref_psi = fixed_point_reference(
                    b_sub, seeds[m, s], fp_tol, 60, spherical_cells_one
                )
                assert alive[m, s] == ref_alive
                if np.isfinite(ref_psi):
                    assert psi[m, s] == ref_psi
            assert not alive[m, :2].any() and alive[m, 2:].any() == lives[m]

    def test_no_four_cell_fixed_point_beats_propeller(self):
        # C(I_4) = 9/(8 pi) (Heilman, Jagannath & Naor, arXiv:1112.2993), and
        # exact moments leave no sampling slack
        rng = np.random.default_rng(11)
        free = rng.normal(scale=0.3, size=(500, 3, 3))
        seeds = np.concatenate([free, -free.sum(axis=1, keepdims=True)], axis=1)
        stack = np.broadcast_to(np.eye(4), (len(seeds), 4, 4))
        _, psi, _, alive = conic._fixed_point(stack, seeds, 1e-9, 400)
        assert alive.sum() >= 100
        assert np.max(psi[alive]) <= 9.0 / (8.0 * math.pi) + 1e-12


def simplex_lattice(grid):
    """Index triples (i, j, grid - i - j) of every point of the full (a1, a2)
    lattice with a3 >= 0, (3, (grid + 1)(grid + 2) / 2)."""
    i, j = np.meshgrid(np.arange(grid + 1), np.arange(grid + 1), indexing="ij")
    keep = i + j <= grid
    return np.stack([i[keep], j[keep], grid - i[keep] - j[keep]])


def simplex_apertures(grid):
    """Apertures (a1, a2, 2pi - a1 - a2) of the full lattice, (3, V)."""
    steps = np.linspace(0.0, TWO_PI, grid + 1)
    i, j, _ = simplex_lattice(grid)
    return np.stack([steps[i], steps[j], TWO_PI - steps[i] - steps[j]])


def cyclic_moments(apertures):
    """Moments of three cyclic planar cells, label s in slot s, (V, 3, 2):
    cell s has length sin(a_s/2)/sqrt(2 pi) along its bisector."""
    a1, a2, a3 = apertures
    beta = np.stack([a1 / 2.0, a1 + a2 / 2.0, a1 + a2 + a3 / 2.0])
    mag = np.sin(apertures / 2.0) / math.sqrt(TWO_PI)
    slots = mag[:, :, None] * np.stack([np.cos(beta), np.sin(beta)], axis=2)
    return slots.transpose(1, 0, 2)


@functools.cache
def reference_grid_grams(grid):
    """Moments and Gram matrices z z^T of the full aperture lattice.  With
    the labels in slot order it reaches every three-cell configuration up to
    rotation and reflection, which leave psi unchanged."""
    z = cyclic_moments(simplex_apertures(grid))
    return z, (z @ z.transpose(0, 2, 1)).reshape(len(z), 9)


def reference_grid_seeds(b_sub):
    """The 6 best configurations of the 720-step lattice by psi, best first."""
    z, grams = reference_grid_grams(720)
    psi = grams @ b_sub.ravel()
    best = np.argpartition(-psi, 6)[:6]
    return z[best[np.lexsort((best, -psi[best]))]]


class TestPsiValue:
    def test_zero_moments(self):
        assert conic._psi(np.eye(2), np.zeros((1, 2, 1)))[0] == 0.0

    def test_identity2_halflines(self):
        z = 1.0 / math.sqrt(TWO_PI)
        val = conic._psi(np.eye(2), np.array([[[z], [-z]]]))[0]
        assert val == pytest.approx(1.0 / math.pi, abs=1e-14)

    def test_identity3_propeller(self):
        m = math.sqrt(3.0 / (8.0 * math.pi))
        moments = np.array([[
            [m, 0.0],
            [-m / 2.0, m * math.sqrt(3) / 2],
            [-m / 2.0, -m * math.sqrt(3) / 2],
        ]])
        val = conic._psi(np.eye(3), moments)[0]
        assert val == pytest.approx(9.0 / (8.0 * math.pi), abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10_000))
    def test_nonnegative_for_psd(self, k, seed):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((k, k))
        b = f @ f.T
        z = rng.standard_normal((3, k, k - 1))
        assert np.all(conic._psi(b, z) >= -1e-10 * max(1.0, np.max(np.abs(b))))


class TestFormulaBc:
    def test_hardness_threshold_at_one(self):
        r2, c_of_b, ratio = formula_bc(1.0)
        assert ratio == pytest.approx(16.0 * math.pi / 27.0, abs=1e-12)
        assert r2 == pytest.approx(2.0 / 3.0)
        assert c_of_b == pytest.approx(9.0 / (8.0 * math.pi))

    def test_branches_agree_at_phase_point(self):
        low = 1.0 / math.pi
        high = (2.0 * 0.5 + 1.0) ** 2 / (8.0 * math.pi * 0.5)
        assert low == pytest.approx(high, abs=1e-15)
        assert formula_bc(0.5)[2] == pytest.approx(9.0 * math.pi / 16.0, abs=1e-12)

    def test_c_equals_two(self):
        assert formula_bc(2.0)[2] == pytest.approx(72.0 * math.pi / 125.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            formula_bc(0.0)


def wide_seed_reference(b):
    """Best psi of a wider seed set than search_cb starts from: per triple
    the six best configurations of the full 720-step aperture lattice, the
    Gram geometry and a 128-point uniform random net; per quadruple the Gram
    geometry and a 512-point net; each followed by a polish of the best
    seed.  Pairs are closed-form."""
    bm = b.mat
    k = len(bm)
    best = max(
        (bm[i, i] - 2.0 * bm[i, j] + bm[j, j]) / TWO_PI
        for i in range(k) for j in range(i + 1, k)
    )
    nets = {}
    for ell, count, scale, stream in ((3, 128, 0.45, 11), (4, 512, 0.4, 13)):
        u = np.random.default_rng(stream).random((count, ell - 1, ell - 1))
        free = (2.0 * u - 1.0) * scale
        nets[ell] = np.concatenate([free, -free.sum(axis=1, keepdims=True)], axis=1)
        # each net tuple is a moment tuple: it sums to 0
        assert np.max(np.abs(nets[ell].sum(axis=1))) <= 1e-15
    for ell, net in nets.items():
        for subset in itertools.combinations(range(k), ell):
            b_sub = bm[np.ix_(subset, subset)]
            gram, live = conic._structured_seeds(b_sub[None])
            seeds = np.concatenate([gram[live], net])
            if ell == 3:
                seeds = np.concatenate([reference_grid_seeds(b_sub), seeds])
            stack = np.broadcast_to(b_sub, (len(seeds), ell, ell))
            z, psi, _, alive = conic._fixed_point(stack, seeds, 1e-6, 200)
            if alive.any():
                top = [int(np.argmax(np.where(alive, psi, -np.inf)))]
                _, psi, _, alive = conic._fixed_point(b_sub[None], z[top], 1e-6, 2000)
                if alive[0]:
                    best = max(best, psi[0])
    return best


class TestSeedSet:
    def test_one_seed_source_per_subset_size(self, monkeypatch):
        calls = []
        fixed_point = conic._fixed_point

        def recording(b_sub, z0, fp_tol, max_iters):
            ell = z0.shape[1]
            assert b_sub.shape == (len(z0), ell, ell)
            calls.append((ell, len(z0), max_iters))
            return fixed_point(b_sub, z0, fp_tol, max_iters)

        monkeypatch.setattr(conic, "_fixed_point", recording)
        rng = np.random.default_rng(21)
        for k, size in ((4, conic.SEARCH_BLOCK), (5, conic.SEARCH_BLOCK), (5, 4)):
            monkeypatch.setattr(conic, "SEARCH_BLOCK", size)
            f = rng.standard_normal((k, k + 3))
            calls.clear()
            clear_search_cache()
            search_cb(SymMatrix.from_array(f @ f.T / (k + 3)))
            # one run per size and block, one Gram geometry seed per subset
            expected = []
            for ell in (2, 3, 4):
                count = math.comb(k, ell)
                expected += [
                    (ell, min(size, count - start), conic.POLISH_STEPS)
                    for start in range(0, count, size)
                ]
            assert calls == expected

    def test_quadruple_best_seed_converges(self, monkeypatch):
        # a Wishart B whose quadruple seed stays above FP_TOL after 40 plain
        # steps; extrapolated, it ends below FP_TOL
        runs = []
        fixed_point = conic._fixed_point

        def recording(b_sub, z0, fp_tol, max_iters):
            result = fixed_point(b_sub, z0, fp_tol, max_iters)
            if z0.shape[1] == 4:
                runs.append(result)
            return result

        monkeypatch.setattr(conic, "_fixed_point", recording)
        f = np.random.default_rng(49).standard_normal((4, 4))
        clear_search_cache()
        search_cb(SymMatrix.from_array(f @ f.T / 4))
        [(_, _, residual, alive)] = runs
        assert alive[0]
        assert residual[0] < conic.FP_TOL

    def test_unverified_fixed_point_not_reported(self, monkeypatch):
        # the quadruple wins at its fixed point; a run that ends alive but
        # with its residual above FP_TOL is no verified fixed point
        b = SymMatrix.from_array(wishart_quadruple_b())
        clear_search_cache()
        c_four, part, _ = search_cb(b)
        assert len(part.active) == 4
        fixed_point = conic._fixed_point

        def unverified(b_sub, z0, fp_tol, max_iters):
            z, psi, residual, alive = fixed_point(b_sub, z0, fp_tol, max_iters)
            if z0.shape[1] == 4:
                residual = np.where(alive, 2.0 * conic.FP_TOL, residual)
            return z, psi, residual, alive

        monkeypatch.setattr(conic, "_fixed_point", unverified)
        clear_search_cache()
        c_est, part, _ = search_cb(b)
        assert len(part.active) <= 3
        assert c_est < c_four

    def test_block_size_bounds_memory_alone(self, monkeypatch):
        f = np.random.default_rng(66).standard_normal((6, 9))
        b = SymMatrix.from_array(f @ f.T / 9)
        clear_search_cache()
        c_default, part_default, val_default = search_cb(b)
        monkeypatch.setattr(conic, "SEARCH_BLOCK", 5)
        clear_search_cache()
        c_small, part_small, val_small = search_cb(b)
        assert c_small == c_default
        assert part_small.active == part_default.active
        np.testing.assert_array_equal(part_small.directions, part_default.directions)
        np.testing.assert_array_equal(val_small.moments, val_default.moments)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_no_loss_against_wide_seed_set(self, k):
        rng = np.random.default_rng(40 + k)
        for _ in range(3):
            f = rng.standard_normal((k, k + 3))
            g = rng.standard_normal((k, 1))
            for m in (f @ f.T / (k + 3), np.eye(k) + 0.1 * g @ g.T):
                b = SymMatrix.from_array(m)
                # the search orders labels canonically; the reference does too
                perm = conic._canonical_label_order(b.mat)
                reference = wide_seed_reference(b.permuted(perm))
                clear_search_cache()
                c_est, _, _ = search_cb(b)
                assert c_est >= reference * (1.0 - 1e-10)


def wishart_quadruple_b():
    """A 4x4 Wishart B whose best partition has 4 cells."""
    f = np.random.default_rng(3017).standard_normal((4, 4))
    return f @ f.T


def near_repeat_b(seed, gap):
    """A 4x4 Gram matrix whose second vector is the first moved by gap."""
    v = np.random.default_rng(seed).standard_normal((4, 4))
    v[1] = v[0]
    v[1, 3] += gap
    return v @ v.T


class TestSearchCb:
    def test_identity2_threshold_scan_oracle(self):
        # oracle: over 1-D threshold partitions {x > t}, psi = 2 phi(t)^2,
        # maximized over a dense t-grid
        ts = np.linspace(-4, 4, 4001)
        phi = np.exp(-(ts ** 2) / 2.0) / math.sqrt(TWO_PI)
        scan_best = float(np.max(2.0 * phi ** 2))
        c_est, part, val = search_cb(SymMatrix.from_array(np.eye(2)))
        assert c_est == pytest.approx(scan_best, rel=1e-3)
        assert c_est == pytest.approx(1.0 / math.pi, abs=1e-12)
        assert part.active == (0, 1)
        assert val.mc_stderr == 0.0

    def test_identity3_propeller(self):
        c_est, part, _ = search_cb(SymMatrix.from_array(np.eye(3)))
        assert c_est == pytest.approx(9.0 / (8.0 * math.pi), rel=1e-9)
        assert len(part.active) == 3

    def test_bc_quarter_two_cells(self):
        b = SymMatrix.from_array(np.diag([1.0, 1.0, 0.25]))
        c_est, part, _ = search_cb(b)
        assert c_est == pytest.approx(1.0 / math.pi, rel=1e-9)
        # the cell weighted by c is empty
        assert part.active == (0, 1)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(42)
        f = rng.standard_normal((3, 3))
        b = SymMatrix.from_array(f @ f.T)
        base, _, _ = search_cb(b)
        for t in (0.5, 3.0):
            scaled, _, _ = search_cb(SymMatrix.from_array(t * b.mat))
            assert scaled == pytest.approx(t * base, rel=0.01)

    def test_bounded_by_r2(self):
        for seed in range(8):
            rng = np.random.default_rng(900 + seed)
            f = rng.standard_normal((3, 3))
            b = SymMatrix.from_array(f @ f.T)
            c_est, _, _ = search_cb(b)
            assert c_est <= radius_squared(b) + 1e-6

    def test_degenerate_b(self):
        with pytest.raises(DegenerateB):
            search_cb(SymMatrix.from_array([[1.0, 1.0], [1.0, 1.0]]))

    @pytest.mark.parametrize(
        "b",
        [np.ones((2, 2)) * 4.0 ** -35, np.ones((2, 2)) * 4.0 ** 20,
         np.array([[5e-324]]), np.ones((2, 2)) * 5e-324],
        ids=["-35", "20", "subnormal-1x1", "subnormal-2x2"],
    )
    def test_degenerate_b_at_any_scale(self, b):
        # R(B)^2 is compared after scaling: 1e-12 * 4^s underflows to 0 for
        # subnormal B
        with pytest.raises(DegenerateB):
            search_cb(SymMatrix(b))

    @pytest.mark.parametrize("e", [-35, 20, 260])
    @pytest.mark.parametrize("name", ["I3", "diag-half", "wishart-0", "wishart-1"])
    @pytest.mark.filterwarnings("error")
    def test_b_half_scale_free(self, name, e):
        # B * 4^e scales the Gram vectors by 2^e exactly; every threshold of
        # the ball, the search and the hardness gadget is relative to B, and
        # at 4^260 nothing squares an entry of B itself
        rng = np.random.default_rng(5)
        wisharts = [g @ g.T / 6 for g in (rng.standard_normal((4, 6)) for _ in range(2))]
        b = {
            "I3": np.eye(3),
            "diag-half": np.diag([1.0, 1.0, 0.5]),
            "wishart-0": wisharts[0],
            "wishart-1": wisharts[1],
        }[name]
        base = analyze_b(SymMatrix(b))
        scaled = analyze_b(SymMatrix(b * 4.0 ** e))
        assert scaled["degenerate"] is False
        assert scaled["ball"]["r2"] == pytest.approx(
            math.ldexp(base["ball"]["r2"], 2 * e), rel=1e-12
        )
        assert scaled["cb"]["c_estimate"] == pytest.approx(
            math.ldexp(base["cb"]["c_estimate"], 2 * e), rel=1e-12
        )
        assert scaled["ball"]["support"] == base["ball"]["support"]
        assert scaled["cb"]["active"] == base["cb"]["active"]
        # --mu-epsilon is a share of R(B)^2, so the hardness gadget scales too
        assert scaled["hardness"]["beta"] == pytest.approx(
            base["hardness"]["beta"], rel=1e-12
        )
        assert scaled["hardness"]["dictatorship_objective"] == pytest.approx(
            math.ldexp(base["hardness"]["dictatorship_objective"], 2 * e), rel=1e-12
        )

    def test_hardness_at_subnormal_scale(self):
        # mu_epsilon * R(B)^2 underflows to 0 here; the gadget still builds,
        # at epsilon = the smallest positive double instead of 1e-4 R(B)^2
        b = np.eye(3) * 1e-320
        report = analyze_b(SymMatrix(b))
        assert report["degenerate"] is False
        r2 = report["ball"]["r2"]
        assert report["hardness"]["beta"] == math.ulp(0.0) / (7.0 * r2)

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            search_cb(SymMatrix.from_array([[0.0, 1.0], [1.0, 0.0]]))

    def test_k1_rejected(self):
        # a single Gram vector: R(B) = 0, the degenerate case
        with pytest.raises(DegenerateB):
            search_cb(SymMatrix.from_array([[1.0]]))

    @pytest.mark.parametrize(
        "seed, gap", [(2, 1e-12), (5, 1e-6), (5, 1e-8)], ids=["2-1e-12", "5-1e-6", "5-1e-8"]
    )
    def test_near_repeated_label_is_a_lower_bound(self, seed, gap):
        # two Gram vectors gap apart: the quadruples' directions are nearly
        # coplanar, where the cells' moments stop summing to 0 or two
        # directions coincide to 1e-12
        b = SymMatrix.from_array(near_repeat_b(seed, gap))
        clear_search_cache()
        c_est, part, val = search_cb(b)
        assert c_est <= radius_squared(b) * (1.0 + 1e-9)
        assert np.max(np.abs(val.moments.sum(axis=0))) <= 1e-9
        sub = b.mat[np.ix_(part.active, part.active)]
        assert c_est == pytest.approx(conic._psi(sub, val.moments[None])[0], rel=1e-12)

    def test_quadruples_exact_without_pools(self):
        b = SymMatrix.from_array(wishart_quadruple_b())
        clear_search_cache()
        c_est, part, val = search_cb(b)
        assert len(part.active) == 4
        assert val.mc_stderr == 0.0
        assert val.heuristic
        np.testing.assert_allclose(val.moments.sum(axis=0), 0.0, rtol=0, atol=1e-14)
        assert conic.fixed_point_residual(b, part, val) < 1e-6

    def test_near_empty_quadruple_residual_finite_in_any_label_order(self):
        # a k = 7 Wishart B (the 93rd 7 x 7 draw of default_rng(4242)) whose
        # quadruple (3, 4, 5, 6) has two cells of mass near 1e-5: its moment
        # sum rounds to 7e-13 to 2.5e-12 depending on the label order, so an
        # absolute cut at 1e-12 passed the state in the search's order and
        # failed it in the caller's, leaving the reported residual inf
        rng = np.random.default_rng(4242)
        for _ in range(93):
            g = rng.standard_normal((7, 7))
        bm = g @ g.T / 7
        for perm in (np.arange(7), np.arange(7)[::-1], np.array([3, 0, 6, 1, 5, 2, 4])):
            b = SymMatrix(bm[np.ix_(perm, perm)])
            c_est, part, val = search_cb(b)
            assert np.isfinite(conic.fixed_point_residual(b, part, val))
            # the value of that quadruple, within rounding
            assert c_est >= 0.5328763773919143 * (1.0 - 1e-9)

    def test_cache_keys_on_exact_bytes(self):
        # the two B differ by 2e-13 in one entry; each gets its own search
        clear_search_cache()
        first = SymMatrix.from_array(1e-11 * np.diag([1.0, 1.0, 0.6]))
        second = SymMatrix.from_array(1e-11 * np.diag([1.0, 1.0, 0.62]))
        c_first, _, _ = search_cb(first)
        c_second, part_second, _ = search_cb(second)
        clear_search_cache()
        c_cold, part_cold, _ = search_cb(second)
        assert c_second == c_cold > c_first
        np.testing.assert_array_equal(part_second.directions, part_cold.directions)

    def test_cached_result_is_read_only(self):
        # every caller of the same B gets the one cached result
        b = SymMatrix.from_array(np.diag([1.0, 1.0, 0.6]))
        clear_search_cache()
        _, part, value = search_cb(b)
        for arr in (value.moments, part.directions):
            with pytest.raises(ValueError):
                arr[:] = 0.0
        assert search_cb(b)[2] is value
        assert np.all(np.abs(value.moments).sum(axis=1) > 0.0)

    def test_cache_keeps_the_latest_b_alone(self):
        clear_search_cache()
        bs = [SymMatrix.from_array(np.diag([1.0, 1.0, 0.5 + 0.1 * t])) for t in range(4)]
        results = [search_cb(b) for b in bs]
        assert len(conic._SEARCH_CACHE) == 1
        assert search_cb(bs[-1]) is results[-1]
        assert search_cb(bs[0]) is not results[0]

    def test_deterministic_in_b_alone(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((4, 4))
        b = SymMatrix.from_array(f @ f.T)
        first = search_cb(b)
        clear_search_cache()
        second = search_cb(b)
        assert second is not first
        assert first[0] == second[0]
        assert first[1].active == second[1].active
        np.testing.assert_array_equal(first[1].directions, second[1].directions)
        for name in ("psi", "mc_stderr", "heuristic"):
            assert getattr(first[2], name) == getattr(second[2], name)
        np.testing.assert_array_equal(first[2].moments, second[2].moments)

    def test_identity4_propeller(self):
        # C(I_4) = C(I_3) = 9/(8 pi): the fourth cell does not help
        # (Heilman, Jagannath & Naor, arXiv:1112.2993)
        c_est, part, _ = search_cb(SymMatrix.from_array(np.eye(4)))
        assert c_est == pytest.approx(9.0 / (8.0 * math.pi), rel=1e-9)
        assert len(part.active) == 3

    def test_sixteen_labels_rank_four(self):
        # C(16, 4) = 1820 quadruples, in one block; the ball of a rank-4 B is
        # exact, so C(B) <= R(B)^2 holds with no slack
        h = np.random.default_rng(16).standard_normal((16, 4))
        bm = h @ h.T / 4
        report = analyze_b(SymMatrix.from_array(bm))
        cb = report["cb"]
        d = np.diag(bm)
        best_pair = np.max(d[:, None] - 2.0 * bm + d[None, :]) / TWO_PI
        assert best_pair <= cb["c_estimate"] <= report["ball"]["r2"]
        assert cb["heuristic"]

    def test_five_cell_residual_rejected(self):
        # no closed form is implemented above cone dimension 3
        rng = np.random.default_rng(5)
        part = ConicalPartition(k=5, active=tuple(range(5)),
                                directions=rng.standard_normal((5, 4)))
        val = PartitionValue(moments=rng.standard_normal((5, 4)))
        with pytest.raises(DimensionMismatch):
            conic.fixed_point_residual(SymMatrix.from_array(np.eye(5)), part, val)

    def test_heuristic_flag(self):
        rng = np.random.default_rng(8)
        f = rng.standard_normal((4, 4))
        c_est, _, val4 = search_cb(SymMatrix.from_array(f @ f.T))
        assert val4.heuristic
        _, _, val3 = search_cb(SymMatrix.from_array(np.eye(3)))
        assert not val3.heuristic
