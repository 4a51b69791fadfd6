import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gramclust import (
    NotConvergedWarning,
    NotPSD,
    SymMatrix,
    ascend_from,
    brute_force_clust,
    certify_sandwich,
    gram_factorize,
    min_enclosing_ball,
    random_centered_psd,
    solve_sdp,
    validate_psd,
)
from gramclust import sdp
from gramclust.sdp import _ascend, _normalize_columns, _plain_step

ANTIPODAL = SymMatrix.from_array([[1.0, -1.0], [-1.0, 1.0]])


def start(x0):
    """The (rank, n) iterate of the (n, rank) start x0, as a solve_sdp
    restart makes it: transposed, C-contiguous, unit columns."""
    return _normalize_columns(np.ascontiguousarray(x0.T))


def spy_start_ranks(monkeypatch):
    """The start rank of every sdp._ascent call made from now on."""
    ranks = []
    ascent = sdp._ascent

    def spy(mat, x, grad_tol, restart_index=0):
        ranks.append(len(x))
        return ascent(mat, x, grad_tol, restart_index)

    monkeypatch.setattr(sdp, "_ascent", spy)
    return ranks


def row_normalize(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def row_major_ascend(a, x, grad_tol, max_iters):
    """Reference: the ascent with the points as rows of an (n, rank) X, and
    the product A X, as it ran before the coordinate-first layout.  It
    leaves out the dead-row branch, which a random A never takes.  Returns
    X, A X and the step count."""

    def residual(m, x):
        lam = np.sum(m * x, axis=1, keepdims=True)
        return float(np.linalg.norm(2.0 * (m - lam * x)))

    m = a @ x
    value = float(np.sum(m * x))
    x_prev = x
    beta = sdp._BETA_START
    iters = 0
    for _ in range(max_iters):
        iters += 1
        x_new = row_normalize(m)
        y = row_normalize(x_new + beta * (x_new - x_prev))
        m_y = a @ y
        value_y = float(np.sum(m_y * y))
        x_prev = x
        if value_y >= value:
            x, m, value = y, m_y, value_y
            beta = min(sdp._BETA_MAX, sdp._BETA_GROWTH * beta)
        else:
            x, m = x_new, a @ x_new
            value = float(np.sum(m * x))
            beta *= 0.5
        moved = float(np.max(np.linalg.norm(x - x_prev, axis=1)))
        if moved < 1e-16 or residual(m, x) <= 0.1 * grad_tol:
            break
    return x, m, iters


def row_major_reference(a, x, grad_tol, max_iters):
    """row_major_ascend behind sdp._ascend's contract: a (rank, n) X in,
    and X, X A, lambda and the step count out."""
    x_rows, m_rows, iters = row_major_ascend(a, x.T, grad_tol, max_iters)
    x, m = np.ascontiguousarray(x_rows.T), np.ascontiguousarray(m_rows.T)
    return x, m, np.einsum("ij,ij->j", m, x), iters


def ascent_trajectory(mat, x0, steps):
    """Iterates (X_t, X_t A) of the ascent from the (rank, n) x0, t = 0..steps.

    The ascent is deterministic, so the run capped at t steps ends at the
    t-th iterate of an uncapped run.
    """
    return [_ascend(mat, x0, 0.0, t)[:2] for t in range(steps + 1)]


def rejected_steps(mat, trajectory):
    """Steps that fell back to the plain step after a rejected extrapolation."""
    tiny = 1e-14 * float(np.max(np.abs(mat)))
    return sum(
        np.array_equal(x_next, _plain_step(x, m, np.diag(mat), tiny))
        for (x, m), (x_next, _) in zip(trajectory, trajectory[1:])
    )


def plain_ascent_value(mat, x, tol, max_iters=100_000):
    """Reference: the unextrapolated conditional-gradient ascent."""
    for _ in range(max_iters):
        m = mat @ x
        lam = np.sum(m * x, axis=1, keepdims=True)
        if np.linalg.norm(2.0 * (m - lam * x)) <= tol:
            break
        x = m / np.linalg.norm(m, axis=1, keepdims=True)
    return float(np.sum((mat @ x) * x))


def dense_reference(mat, restarts, seed):
    """Best of ``restarts`` ascents from full-rank random starts."""
    rng = np.random.default_rng(seed)
    n = len(mat)
    grad_tol = sdp._grad_tol(mat)
    return max(
        float(np.sum(_ascend(mat, start(rng.standard_normal((n, n))), grad_tol, sdp.MAX_ITERS)[2]))
        for _ in range(restarts)
    )


class TestSolveSdp:
    def test_antipodal_optimum(self):
        sol = solve_sdp(ANTIPODAL, seed=0)
        assert sol.value == pytest.approx(4.0, abs=1e-9)
        assert sol.vectors[0] @ sol.vectors[1] == pytest.approx(-1.0, abs=1e-9)
        assert sol.converged

    def test_zero_matrix(self):
        sol = solve_sdp(SymMatrix.from_array(np.zeros((3, 3))), seed=0)
        assert sol.value == 0.0

    def test_unit_rows(self):
        a = random_centered_psd(9, np.random.default_rng(2))
        sol = solve_sdp(a, seed=2)
        np.testing.assert_allclose(
            np.linalg.norm(sol.vectors, axis=1), 1.0, atol=1e-9
        )

    def test_value_recomputes_from_vectors(self):
        a = random_centered_psd(7, np.random.default_rng(3))
        sol = solve_sdp(a, seed=3)
        recomputed = float(np.sum((a.mat @ sol.vectors) * sol.vectors))
        assert sol.value == pytest.approx(recomputed, rel=1e-7)

    def test_value_at_least_trace_and_nonnegative(self):
        for seed in range(6):
            a = random_centered_psd(6, np.random.default_rng(40 + seed))
            sol = solve_sdp(a, seed=seed)
            assert sol.value >= float(np.trace(a.mat)) - 1e-7 * np.linalg.norm(a.mat)
            assert sol.value >= 0.0

    def test_matches_dense_multirestart_reference(self):
        # convexity: spurious strict local maxima are rank-deficient, so a
        # full-rank many-restart run is a reliable reference at n <= 6
        for seed in range(5):
            n = 4 + seed % 3
            a = random_centered_psd(n, np.random.default_rng(60 + seed))
            sol = solve_sdp(a, seed=seed)
            ref = dense_reference(a.mat, 12, seed + 1)
            assert sol.value == pytest.approx(ref, rel=1e-5)

    def test_dual_upper_bounds_value(self):
        a = random_centered_psd(8, np.random.default_rng(5))
        sol = solve_sdp(a, seed=5)
        assert sol.dual_upper >= sol.value - 1e-9
        # the certificate should be nearly tight at a certified optimum
        assert sol.dual_upper - sol.value <= 1e-4 * max(sol.value, 1.0)

    def test_lower_bound_chain(self):
        a = random_centered_psd(6, np.random.default_rng(9))
        b = SymMatrix.from_array(np.eye(3))
        clust, sigma = brute_force_clust(a, b)
        ball = min_enclosing_ball(gram_factorize(b))
        sol = solve_sdp(a, seed=9)
        seed_vectors = (ball.gram.vectors[sigma] - ball.center) / ball.radius
        feasible_value = float(np.sum((a.mat @ seed_vectors) * seed_vectors))
        assert feasible_value == pytest.approx(clust / ball.radius ** 2, rel=1e-9)
        assert sol.value >= feasible_value - 1e-7 * max(1.0, abs(feasible_value))

    def test_ascend_from_never_decreases(self):
        a = random_centered_psd(6, np.random.default_rng(10))
        b = SymMatrix.from_array(np.eye(2))
        _, sigma = brute_force_clust(a, b)
        ball = min_enclosing_ball(gram_factorize(b))
        seed_vectors = (ball.gram.vectors[sigma] - ball.center) / ball.radius
        before = float(np.sum((a.mat @ seed_vectors) * seed_vectors))
        sol = ascend_from(a, seed_vectors)
        assert sol.value >= before - 1e-10

    def test_value_ties_break_by_certificate(self, monkeypatch):
        # restarts 0, 2 and 3 reach the same value bit for bit; restart 0's
        # multipliers leave diag(lambda) - A indefinite, 2 and 3 share a
        # tight certificate, and restart 1 ends lower with the tightest one
        n = 6
        # largest |entry| in [1, 4): A is its own unit, so solve_sdp runs on
        # A itself, unscaled, and the faked ends below are in A's units
        a = SymMatrix(random_centered_psd(n, np.random.default_rng(13)).unit[0])
        assert a.unit[1] == 0
        l_max = float(np.linalg.eigvalsh(a.mat)[-1])
        tight = np.full(n, 2.0 * l_max)
        wide = tight.copy()
        wide[0] -= 3.0 * l_max
        value = n * 2.0 * l_max
        ends = {0: (value, wide), 1: (l_max, tight), 2: (value, tight), 3: (value, tight)}

        def ascent(mat, x, grad_tol, restart_index=0):
            end, lam = ends[restart_index]
            vectors = np.ascontiguousarray(x.T)
            return sdp.SdpSolution(end, len(x), vectors, restart_index=restart_index), lam

        certified = []
        certify = sdp._certify

        def counting_certify(mat, sol, lam):
            certified.append(sol.restart_index)
            return certify(mat, sol, lam)

        monkeypatch.setattr(sdp, "_ascent", ascent)
        monkeypatch.setattr(sdp, "_certify", counting_certify)
        sol = solve_sdp(a, seed=13)
        assert sorted(certified) == [0, 2, 3]
        assert (sol.restart_index, sol.value, sol.dual_upper) == (2, value, value)
        assert certify(a.mat, *ascent(a.mat, np.eye(n), 0.0, 0)).dual_upper > sol.dual_upper

    def test_identity_fallback_when_every_restart_ends_below_trace(self, monkeypatch):
        n = 10
        a = random_centered_psd(n, np.random.default_rng(14))
        ascent = sdp._ascent

        def below_trace(mat, x, grad_tol, restart_index=0):
            sol, lam = ascent(mat, x, grad_tol, restart_index)
            if restart_index < sdp.RESTARTS:
                sol = replace(sol, value=0.0)
            return sol, lam

        monkeypatch.setattr(sdp, "_ascent", below_trace)
        starts = spy_start_ranks(monkeypatch)
        sol = solve_sdp(a, seed=14)
        # the fallback starts at rank n and may end lower
        assert starts == [math.isqrt(2 * n - 1) + 2] * sdp.RESTARTS + [n]
        assert sol.restart_index == sdp.RESTARTS
        assert sol.rank == sol.vectors.shape[1] <= n
        assert sol.value >= float(np.trace(a.mat)) - 1e-9 * np.linalg.norm(a.mat)
        assert sol.dual_upper >= sol.value

    def test_not_converged_flagged(self, monkeypatch):
        a = random_centered_psd(12, np.random.default_rng(11))
        monkeypatch.setattr(sdp, "MAX_ITERS", 2)
        monkeypatch.setattr(sdp, "RESTARTS", 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sol = solve_sdp(a, seed=11)
        assert not sol.converged
        assert any(issubclass(w.category, NotConvergedWarning) for w in caught)

    @pytest.mark.parametrize("e", [-520, -70, 60, 520])
    def test_scale_free(self, e):
        # every threshold is relative to A, and the solve runs on A / 2^s,
        # so A * 2^e takes the same steps even where ||A||_F^2 would
        # overflow or the residual's squares underflow
        a = random_centered_psd(9, np.random.default_rng(12))
        scaled = SymMatrix(np.ldexp(a.mat, e))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base, sol = solve_sdp(a, seed=12), solve_sdp(scaled, seed=12)
        assert sol.value == math.ldexp(base.value, e)
        assert sol.dual_upper == math.ldexp(base.dual_upper, e)
        assert sol.stationarity_residual == math.ldexp(base.stationarity_residual, e)
        assert 0.0 < sol.stationarity_residual < math.inf
        assert (sol.iterations, sol.rank, sol.converged) == (base.iterations, base.rank, True)
        np.testing.assert_array_equal(sol.vectors, base.vectors)
        polished = ascend_from(scaled, base.vectors[::-1])
        assert polished.value == math.ldexp(ascend_from(a, base.vectors[::-1]).value, e)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            solve_sdp(SymMatrix.from_array([[0.0, 1.0], [1.0, 0.0]]), seed=0)

    def test_deterministic(self):
        a = random_centered_psd(8, np.random.default_rng(21))
        s1 = solve_sdp(a, seed=21)
        s2 = solve_sdp(a, seed=21)
        assert s1.value == s2.value
        np.testing.assert_array_equal(s1.vectors, s2.vectors)


def laplacian(n, edges):
    adj = np.zeros((n, n))
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1.0
    return np.diag(adj.sum(axis=1)) - adj


def start_rank_cases():
    """Centered PSD A, named for the test ids: graph Laplacians, I - J/n
    and random A."""
    cases = {}
    for n in (8, 12, 30):
        half = n // 2
        cases[f"cycle-{n}"] = laplacian(n, [(i, (i + 1) % n) for i in range(n)])
        cases[f"path-{n}"] = laplacian(n, [(i, i + 1) for i in range(n - 1)])
        cases[f"star-{n}"] = laplacian(n, [(0, i) for i in range(1, n)])
        cases[f"complete-{n}"] = laplacian(n, itertools.combinations(range(n), 2))
        cases[f"bipartite-{n}"] = laplacian(
            n, [(i, half + j) for i in range(half) for j in range(half)]
        )
        cases[f"centering-{n}"] = np.eye(n) - 1.0 / n
    for d in (3, 4, 5):
        edges = [(i, i ^ (1 << b)) for i in range(2**d) for b in range(d) if i < i ^ (1 << b)]
        cases[f"hypercube-{d}"] = laplacian(2**d, edges)
    for n in range(4, 41):
        cases[f"random-{n}"] = random_centered_psd(n, np.random.default_rng([n, 23])).mat
    return cases


START_RANK_CASES = start_rank_cases()


class TestCertificate:
    def test_zero_matrix_certified_without_escalation(self):
        # S = 0 has mu_min = 0, so dual_upper is exactly the value 0, at the
        # start rank
        sol = solve_sdp(SymMatrix.from_array(np.zeros((10, 10))), seed=0)
        assert (sol.value, sol.rank, sol.dual_upper) == (0.0, 6, 0.0)

    @pytest.mark.parametrize("name", sorted(START_RANK_CASES))
    def test_start_rank_reaches_optimum(self, monkeypatch, name):
        # r(r + 1)/2 > n at the start rank r, so an ascent there reaches the
        # full-rank optimum and the dual certificate closes on it; the rank
        # drop may end it at a lower rank
        mat = START_RANK_CASES[name]
        n = len(mat)
        starts = spy_start_ranks(monkeypatch)
        sol = solve_sdp(SymMatrix.from_array(mat), seed=n)
        assert sol.value == pytest.approx(dense_reference(mat, 4, n + 1), rel=1e-9)
        assert sol.dual_upper - sol.value <= 1e-7 * sol.value
        rank0 = min(n, math.isqrt(2 * n - 1) + 2)
        assert starts == [rank0] * sdp.RESTARTS
        assert sol.rank == sol.vectors.shape[1] <= rank0


class TestRankDrop:
    @pytest.mark.parametrize("name", ["wishart-200", "complete-30"])
    def test_matches_ascent_without_rank_drop(self, monkeypatch, name):
        # the n = 200 Wishart A of test_cli's wishart_a_doc ends at a low
        # rank from start rank 21; K_n's optima include configurations of
        # every rank, and an ascent at its start rank keeps it
        if name == "wishart-200":
            u = np.random.default_rng(3).standard_normal((200, 200))
            u -= u.mean(axis=0)
            mat = u @ u.T
        else:
            mat = START_RANK_CASES[name]
        a = SymMatrix.from_array(mat)
        sol = solve_sdp(a, seed=0)
        # RANK_DROP = 0 still drops the eigenvalues of X X^T that rounding
        # leaves negative, so the reference never checks the rank
        monkeypatch.setattr(sdp, "RANK_CHECK", sdp.MAX_ITERS + 1)
        ref = solve_sdp(a, seed=0)
        assert sol.value == pytest.approx(ref.value, rel=1e-12)
        assert sol.dual_upper - sol.value <= 1e-7 * sol.value
        assert ref.dual_upper - ref.value <= 1e-7 * ref.value
        rank0 = math.isqrt(2 * len(mat) - 1) + 2
        assert ref.rank == rank0
        assert (sol.rank < rank0) == (name == "wishart-200")


class TestAscent:
    @staticmethod
    def assert_monotone(mat, x0, steps=60):
        trajectory = ascent_trajectory(mat, x0, steps)
        values = [float(np.sum((x @ mat) * x)) for x, _ in trajectory]
        slack = 1e-12 * max(1.0, abs(values[-1]))
        assert all(b >= a - slack for a, b in zip(values, values[1:]))
        return trajectory

    def test_value_never_decreases_from_random_start(self):
        a = random_centered_psd(20, np.random.default_rng(70))
        x0 = start(np.random.default_rng(71).standard_normal((20, 8)))
        self.assert_monotone(a.mat, x0)

    def test_value_never_decreases_from_interior_start(self):
        # ascend_from takes rows of norm <= 1 and does not pre-normalize
        a = random_centered_psd(20, np.random.default_rng(72))
        rng = np.random.default_rng(73)
        x0 = start(rng.standard_normal((20, 3))) * rng.uniform(0.1, 1.0, 20)
        self.assert_monotone(a.mat, x0)
        assert float(np.sum((x0 @ a.mat) * x0)) <= ascend_from(a, x0.T).value

    def test_value_never_decreases_with_zero_row(self):
        # row and column 0 of A vanish, so (A X)_0 = 0: the dead-row branch
        inner = random_centered_psd(11, np.random.default_rng(73)).mat
        mat = np.zeros((12, 12))
        mat[1:, 1:] = inner
        x0 = start(np.random.default_rng(74).standard_normal((12, 6)))
        trajectory = self.assert_monotone(mat, x0)
        x_last = trajectory[-1][0]
        np.testing.assert_allclose(np.linalg.norm(x_last, axis=0), 1.0, atol=1e-12)
        sol = solve_sdp(SymMatrix.from_array(mat), seed=74)
        assert sol.converged
        assert sol.dual_upper - sol.value <= 1e-7 * sol.value

    def test_safeguard_rejects_extrapolated_steps(self):
        # the first restart's start, drawn as solve_sdp draws it, takes
        # steps whose extrapolation the safeguard turns down
        n, seed = 60, 75
        a = random_centered_psd(n, np.random.default_rng(seed))
        rank0 = math.isqrt(2 * n - 1) + 2
        x0 = start(np.random.default_rng(seed).standard_normal((n, rank0)))
        assert rejected_steps(a.mat, ascent_trajectory(a.mat, x0, 40)) > 0

    def test_matches_plain_ascent_reference(self):
        n = 150
        a = random_centered_psd(n, np.random.default_rng(76))
        sol = solve_sdp(a, seed=76)
        x0 = row_normalize(np.random.default_rng(77).standard_normal((n, sol.rank)))
        ref = plain_ascent_value(a.mat, x0, 1e-10 * np.linalg.norm(a.mat))
        assert sol.value == pytest.approx(ref, rel=1e-7)
        assert (sol.dual_upper - sol.value) / sol.value <= 1e-7


class TestCoordinateFirstLayout:
    @pytest.mark.parametrize("n", [60, 150, 300])
    def test_matches_row_major_reference(self, monkeypatch, n):
        a = random_centered_psd(n, np.random.default_rng([n, 17]))
        sol = solve_sdp(a, seed=n)
        monkeypatch.setattr(sdp, "_ascend", row_major_reference)
        ref = solve_sdp(a, seed=n)
        assert sol.value == pytest.approx(ref.value, rel=1e-12)
        assert sol.dual_upper - sol.value <= 1e-8 * sol.value
        assert ref.dual_upper - ref.value <= 1e-8 * ref.value

    def test_steps_match_row_major_reference(self):
        # the two layouts differ only in rounding, so early iterates agree
        a = random_centered_psd(80, np.random.default_rng(18)).mat
        x0 = np.random.default_rng(19).standard_normal((80, 14))
        for steps in (1, 2, 5, 10):
            x, m, lam, _ = _ascend(a, start(x0), 0.0, steps)
            x_ref, m_ref, lam_ref, _ = row_major_reference(a, start(x0), 0.0, steps)
            np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(m, m_ref, rtol=1e-12, atol=1e-12 * np.abs(m).max())
            np.testing.assert_allclose(lam, lam_ref, rtol=1e-12)

    def test_vectors_are_unit_rows(self):
        n = 40
        sol = solve_sdp(random_centered_psd(n, np.random.default_rng(20)), seed=20)
        assert sol.vectors.shape == (n, sol.rank)
        assert sol.vectors.flags.c_contiguous
        np.testing.assert_allclose(np.linalg.norm(sol.vectors, axis=1), 1.0, atol=1e-12)

    def test_ascend_from_takes_interior_rows(self):
        n, d = 40, 3
        a = random_centered_psd(n, np.random.default_rng(21))
        rng = np.random.default_rng(22)
        vectors = row_normalize(rng.standard_normal((n, d))) * rng.uniform(0.1, 1.0, (n, 1))
        sol = ascend_from(a, vectors)
        assert sol.vectors.shape == (n, d)
        np.testing.assert_allclose(np.linalg.norm(sol.vectors, axis=1), 1.0, atol=1e-12)
        assert sol.value >= float(np.sum((a.mat @ vectors) * vectors))
        grad_tol = sdp._grad_tol(a.mat)
        x_ref, _, _ = row_major_ascend(a.mat, vectors, grad_tol, sdp.MAX_ITERS)
        ref = float(np.sum((a.mat @ x_ref) * x_ref))
        assert sol.value == pytest.approx(ref, rel=1e-12)
        assert sol.dual_upper >= sol.value


class TestCertifySandwich:
    def test_antipodal_example(self):
        sol = solve_sdp(ANTIPODAL, seed=0)
        # Clust = 2, R^2 = 1/2, C = 1/pi: checks 4 <= 4.0004 and 4 <= 2pi
        report = certify_sandwich(sol, 2.0, 0.5, 1.0 / math.pi)
        assert report["passed"]
        assert report["clust_over_r2"] == pytest.approx(4.0)
        assert report["clust_over_c"] == pytest.approx(2.0 * math.pi)

    def test_all_zero_instance(self):
        sol = solve_sdp(SymMatrix.from_array(np.zeros((2, 2))), seed=0)
        report = certify_sandwich(sol, 0.0, 0.0, 0.0)
        assert report["passed"]

    def test_detects_undershoot(self):
        sol = solve_sdp(ANTIPODAL, seed=0)
        bogus = sol.__class__(**{**sol.__dict__, "value": 1.0, "dual_upper": 1.0})
        report = certify_sandwich(bogus, 2.0, 0.5, 1.0 / math.pi)
        assert not report["left_ok"]

    @pytest.mark.parametrize("e", [-70, 0, 60])
    def test_scale_free(self, e):
        # no absolute floor: a 1000x wrong oracle value fails on a tiny A too
        a = random_centered_psd(6, np.random.default_rng(1))
        clust, _ = brute_force_clust(a, SymMatrix.from_array(np.eye(3)))
        sol = solve_sdp(SymMatrix(a.mat * 2.0 ** e), seed=1)
        right = certify_sandwich(sol, math.ldexp(clust, e), 2.0 / 3.0, 0.3)
        wrong = certify_sandwich(sol, math.ldexp(1000.0 * clust, e), 2.0 / 3.0, 0.3)
        assert right["passed"]
        assert not wrong["passed"]
