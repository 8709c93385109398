import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression, lsq_linear
from scipy.sparse.csgraph import connected_components

from graphtv import graphs as G
from graphtv import spectral as S
from graphtv import tvsolver as T
from graphtv.signals import island_signal


def path_problem(y, lam):
    return T.DenoiseProblem(np.asarray(y, float), G.incidence(G.build_path(len(y))), lam)


def dual_exact_path(y, lam):
    """Independent exact solver: bounded least squares on the dual."""
    n = len(y)
    A = G.incidence(G.build_path(n)).T.toarray()
    mu = 0.5 * lam * n
    sol = lsq_linear(A, y, bounds=(-mu, mu), method="bvls", tol=1e-15, max_iter=5000)
    return y - A @ sol.x


class TestTwoNodeClosedForm:
    def test_exact_solution(self):
        res = T.denoise(path_problem([0.0, 4.0], 1.0))
        assert np.allclose(res.theta_hat, [1.0, 3.0], atol=1e-9)
        assert res.converged

    def test_grid_search_oracle(self):
        # brute force the 2-variable objective on a fine grid
        y = np.array([0.0, 4.0])
        D = G.incidence(G.build_path(2))
        t = np.arange(-1.0, 5.0, 0.005)
        t1, t2 = np.meshgrid(t, t, indexing="ij")
        obj = ((t1 - y[0]) ** 2 + (t2 - y[1]) ** 2) / 2 + 1.0 * np.abs(t1 - t2)
        best = np.unravel_index(np.argmin(obj), obj.shape)
        assert abs(t[best[0]] - 1.0) <= 0.005
        assert abs(t[best[1]] - 3.0) <= 0.005
        res = T.denoise(path_problem(y, 1.0))
        assert T.objective_value(y, D, 1.0, res.theta_hat) <= obj[best] + 1e-9

    def test_taut_string_agrees(self):
        assert np.allclose(T.denoise_path_exact(np.array([0.0, 4.0]), 1.0), [1.0, 3.0])


class TestDenoiseBasics:
    def test_lambda_zero_is_identity(self):
        y = np.random.default_rng(0).normal(size=15)
        res = T.denoise(path_problem(y, 0.0))
        assert np.array_equal(res.theta_hat, y)
        assert res.stationarity_residual == 0.0

    def test_huge_lambda_gives_mean(self):
        rng = np.random.default_rng(1)
        for g in (G.build_path(12), G.build_grid(2, 3), G.build_complete(8)):
            y = rng.normal(size=g.n) + 3.0
            res = T.denoise(T.DenoiseProblem(y, G.incidence(g), 1e6))
            assert np.max(np.abs(res.theta_hat - y.mean())) <= 1e-6

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            path_problem([1.0, np.nan], 0.1)

    def test_rejects_non_finite_warm_start(self):
        # an all-NaN z0 once ran all max_iter iterations to a non-finite theta
        with pytest.raises(ValueError, match="z0"):
            T.SolverOptions(z0=np.full(112, np.nan))
        with pytest.raises(ValueError, match="z0"):
            T.SolverOptions(z0=[0.0, np.inf])

    @pytest.mark.parametrize("shape", [(111,), (113,), (112, 1), ()])
    def test_rejects_warm_start_of_the_wrong_shape(self, shape):
        g = G.build_grid(2, 8)  # 112 edges
        problem = T.DenoiseProblem(np.random.default_rng(3).normal(size=g.n), g, 0.05)
        with pytest.raises(ValueError, match="z0"):
            T.denoise(problem, T.SolverOptions(z0=np.zeros(shape)))
        assert T.denoise(problem, T.SolverOptions(z0=np.zeros(112))).converged

    def test_exact_routes_ignore_the_warm_start(self):
        y = np.random.default_rng(4).normal(size=12)
        opts = T.SolverOptions(z0=np.zeros(3))
        for g in (G.build_path(12), G.build_complete(12)):
            cold = T.solve(g, y, 0.05).theta_hat
            assert np.array_equal(T.solve(g, y, 0.05, opts).theta_hat, cold)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            path_problem([1.0, 2.0], -0.5)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_lambda(self, lam):
        # nan once gave converged=True with an all-NaN estimate, inf a TypeError
        with pytest.raises(ValueError, match="finite"):
            path_problem([1.0, 2.0, 4.0], lam)

    def test_disconnected_warns_and_preserves_component_means(self):
        g = G.Graph(4, np.array([[0, 1], [2, 3]]))
        y = np.array([0.0, 2.0, 10.0, 20.0])
        with pytest.warns(UserWarning, match="disconnected"):
            res = T.solve(g, y, 100.0)
        assert np.allclose(res.theta_hat[:2], 1.0, atol=1e-6)
        assert np.allclose(res.theta_hat[2:], 15.0, atol=1e-6)

    def test_only_solve_warns_on_a_disconnected_matrix(self):
        D = G.incidence(G.Graph(4, np.array([[0, 1], [2, 3]])))
        y = np.array([0.0, 2.0, 10.0, 20.0])
        with pytest.warns(UserWarning, match="disconnected"):
            T.solve(D, y, 100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            T.denoise(T.DenoiseProblem(y, D, 100.0))

    def test_mean_preserved(self):
        rng = np.random.default_rng(2)
        for g in (G.build_path(30), G.build_grid(2, 5), G.build_star(14)):
            y = rng.normal(size=g.n) * 4
            res = T.denoise(T.DenoiseProblem(y, G.incidence(g), 0.07))
            assert abs(res.theta_hat.mean() - y.mean()) <= 1e-9


class TestTautString:
    def test_constant_input(self):
        y = np.full(9, 2.5)
        assert np.array_equal(T.denoise_path_exact(y, 3.0), y)

    def test_lambda_zero(self):
        y = np.random.default_rng(3).normal(size=11)
        assert np.array_equal(T.denoise_path_exact(y, 0.0), y)

    def test_single_point(self):
        assert np.array_equal(T.denoise_path_exact(np.array([4.2]), 9.9), [4.2])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exact_dual(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            n = int(rng.integers(2, 45))
            style = int(rng.integers(4))
            if style == 0:
                y = rng.normal(size=n) * float(rng.choice([0.1, 1.0, 20.0]))
            elif style == 1:
                y = np.round(rng.normal(size=n) * 2, 1)  # many ties
            elif style == 2:
                y = np.sort(rng.normal(size=n))
            else:
                y = (np.arange(n) % 2) * 4.0 + rng.normal(size=n) * 0.05
            lam = float(10 ** rng.uniform(-4, 2))
            ts = T.denoise_path_exact(y, lam)
            ex = dual_exact_path(y, lam)
            D = G.incidence(G.build_path(n))
            o1 = T.objective_value(y, D, lam, ts)
            o2 = T.objective_value(y, D, lam, ex)
            assert o1 <= o2 + 1e-9 * (1 + abs(o2))

    def test_mean_preservation(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=40)
        for lam in (0.01, 0.2, 5.0):
            assert abs(T.denoise_path_exact(y, lam).mean() - y.mean()) <= 1e-10


class TestSolverAgainstOracles:
    @pytest.mark.parametrize("n", [10, 50, 200])
    def test_path_objective_agreement(self, n):
        rng = np.random.default_rng(n)
        D = G.incidence(G.build_path(n))
        for seed in range(20):
            y = rng.normal(size=n) * 2 + 1
            lam = float(10 ** rng.uniform(-3, 0))  # three decades
            res = T.denoise(T.DenoiseProblem(y, D, lam),
                            T.SolverOptions(tol=1e-8))
            o_solver = T.objective_value(y, D, lam, res.theta_hat)
            o_exact = T.objective_value(y, D, lam, T.denoise_path_exact(y, lam))
            assert abs(o_solver - o_exact) <= 1e-6 * (1 + abs(o_exact))

    def test_complete_exact_matches_solver(self):
        rng = np.random.default_rng(21)
        for n in (5, 20, 60):
            g = G.build_complete(n)
            D = G.incidence(g)
            y = rng.normal(size=n) * 2 + 50
            for lam_scale in (1e-4, 1e-3, 1e-2):
                lam = lam_scale / n
                res = T.denoise(T.DenoiseProblem(y, D, lam), T.SolverOptions(tol=1e-8))
                exact = T.denoise_complete_exact(y, lam)
                o1 = T.objective_value(y, D, lam, res.theta_hat)
                o2 = T.objective_value(y, D, lam, exact)
                # the direct reduction must never lose to the iterative solver
                assert o2 <= o1 + 1e-8 * (1 + abs(o1))
                assert abs(o1 - o2) <= 1e-6 * (1 + abs(o2))

    def test_complete_exact_order_preservation(self):
        rng = np.random.default_rng(22)
        y = rng.normal(size=30)
        theta = T.denoise_complete_exact(y, 0.002)
        order = np.argsort(y, kind="stable")
        assert np.all(np.diff(theta[order]) >= -1e-12)

    @pytest.mark.parametrize("solver", [T.denoise_path_exact, T.denoise_complete_exact])
    @pytest.mark.parametrize("y, lam", [([1.0, np.nan, 3.0], 0.1), ([1.0, np.inf, 3.0], 0.1),
                                        ([1.0, 2.0, 3.0], np.nan), ([1.0, 2.0, 3.0], np.inf)],
                             ids=["nan-y", "inf-y", "nan-lam", "inf-lam"])
    def test_exact_solvers_reject_non_finite_input(self, solver, y, lam):
        # a NaN sigma once reached denoise_complete_exact and gave mse=nan records
        with pytest.raises(ValueError, match="finite|NaN"):
            solver(np.array(y), lam)

    def test_complete_exact_edge_cases(self):
        y = np.array([3.0, 1.0, 2.0])
        assert np.array_equal(T.denoise_complete_exact(y, 0.0), y)
        big = T.denoise_complete_exact(y, 100.0)
        assert np.allclose(big, 2.0, atol=1e-12)


@st.composite
def isotonic_inputs(draw):
    """Vectors of length 1..300 with ties, constant runs or a downward trend, at 1e-3..1e6."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "ties", "runs", "decreasing"]))
    if kind == "ties":
        x = rng.integers(-3, 4, size=n).astype(float)
    elif kind == "runs":
        x = np.repeat(rng.normal(size=n), rng.integers(1, 30, size=n))[:n]
    elif kind == "decreasing":
        x = np.linspace(1.0, -1.0, n) * n + rng.normal(size=n)
    else:
        x = rng.normal(size=n)
    return x * 10.0 ** draw(st.floats(-3.0, 6.0))


def _complete_exact_scipy(y, lam):
    """The K_n reduction with scipy's isotonic regression, as the reference."""
    n = len(y)
    if lam == 0.0 or n <= 1:
        return y.copy()
    mu = 0.5 * lam * n
    order = np.argsort(y, kind="stable")
    ranks = np.arange(1, n + 1, dtype=float)
    theta = np.empty(n)
    theta[order] = isotonic_regression(y[order] - mu * (2.0 * ranks - 1.0 - n)).x
    return theta


class TestIsotonicAgainstScipy:
    @settings(max_examples=300, deadline=None)
    @given(isotonic_inputs())
    def test_pava_matches_scipy(self, x):
        fit = T._isotonic(x)
        assert np.all(np.diff(fit) >= 0)
        diff = np.max(np.abs(fit - isotonic_regression(x).x))
        assert diff <= 1e-12 * (1 + np.max(np.abs(x)))

    @settings(max_examples=200, deadline=None)
    @given(isotonic_inputs(), st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0]))
    def test_complete_exact_matches_scipy_body(self, y, c):
        n = len(y)
        lam = c * (1 + np.max(np.abs(y))) / n**2
        # the fit runs on y_(r) - mu (2r - 1 - n), whose size sets the rounding
        scale = 1 + np.max(np.abs(y)) + 0.5 * lam * n * n
        diff = np.max(np.abs(T.denoise_complete_exact(y, lam) - _complete_exact_scipy(y, lam)))
        assert diff <= 1e-12 * scale


class TestCertificates:
    def test_zero_lambda_identity_point(self):
        z, resid = T.kkt_certificate(path_problem([1.0, 2.0, 3.0], 0.0),
                                     np.array([1.0, 2.0, 3.0]))
        assert resid == 0.0

    def test_exact_two_node_point(self):
        z, resid = T.kkt_certificate(path_problem([0.0, 4.0], 1.0), np.array([1.0, 3.0]))
        assert resid <= 1e-9
        assert z[0] == -1.0  # theta_1 > theta_0 means a negative edge difference

    def test_perturbed_point_fails(self):
        y = np.array([0.0, 4.0])
        _, resid = T.kkt_certificate(path_problem(y, 1.0), np.array([1.1, 3.0]))
        assert resid > 1e-3

    @pytest.mark.parametrize("g", [
        G.build_path(25), G.build_grid(2, 6), G.build_star(15), G.build_complete(12),
    ], ids=lambda g: g.family)
    def test_certificate_properties_on_converged_results(self, g):
        rng = np.random.default_rng(g.n)
        D = G.incidence(g)
        y = rng.normal(size=g.n) * 3 + 5
        scale = 1 + np.max(np.abs(y))
        for lam in (0.005, 0.05, 0.5):
            res = T.denoise(T.DenoiseProblem(y, D, lam))
            assert res.converged
            assert res.dual_feasibility <= 1 + 1e-6
            assert res.stationarity_residual <= 1e-6 * scale
            Dtheta = D @ res.theta_hat
            jumps = np.abs(Dtheta) > 1e-8 * scale
            assert np.array_equal(res.dual_z[jumps], np.sign(Dtheta[jumps]))
            z, resid = T.kkt_certificate(T.DenoiseProblem(y, D, lam), res.theta_hat)
            assert resid <= 1e-6 * scale
            assert np.max(np.abs(z)) <= 1.0 + 1e-12


class TestSolverProperties:
    def test_local_perturbations_never_improve(self):
        rng = np.random.default_rng(33)
        g = G.build_grid(2, 5)
        D = G.incidence(g)
        y = rng.normal(size=g.n) * 2
        res = T.denoise(T.DenoiseProblem(y, D, 0.05), T.SolverOptions(tol=1e-9))
        base = T.objective_value(y, D, 0.05, res.theta_hat)
        radius = 0.1 * np.linalg.norm(res.theta_hat - res.theta_hat.mean())
        for _ in range(100):
            u = rng.normal(size=g.n)
            u *= radius * rng.random() / np.linalg.norm(u)
            assert T.objective_value(y, D, 0.05, res.theta_hat + u) >= base - 1e-9

    def test_regularization_path_monotone(self):
        rng = np.random.default_rng(34)
        y = rng.normal(size=40) * 2
        D = G.incidence(G.build_path(40))
        lams = 10 ** np.linspace(-3, 1, 12)
        tv_norms = [np.abs(D @ T.denoise_path_exact(y, lam)).sum() for lam in lams]
        assert all(b <= a + 1e-9 for a, b in zip(tv_norms, tv_norms[1:]))

    def test_regularization_path_monotone_general_solver(self):
        rng = np.random.default_rng(39)
        g = G.build_grid(2, 5)
        D = G.incidence(g)
        y = rng.normal(size=g.n) * 2
        tv_norms = []
        for lam in 10 ** np.linspace(-3, 0.5, 10):
            res = T.denoise(T.DenoiseProblem(y, D, lam), T.SolverOptions(tol=1e-9))
            tv_norms.append(float(np.abs(D @ res.theta_hat).sum()))
        assert all(b <= a + 1e-6 * (1 + a) for a, b in zip(tv_norms, tv_norms[1:]))

    def test_shrinkage_safety(self):
        rng = np.random.default_rng(35)
        for g in (G.build_path(20), G.build_grid(2, 4)):
            D = G.incidence(g)
            y = rng.normal(size=g.n)
            centered = np.linalg.norm(y - y.mean())
            for lam in (0.01, 0.1, 1.0):
                res = T.denoise(T.DenoiseProblem(y, D, lam))
                assert np.linalg.norm(res.theta_hat - y.mean()) <= centered + 1e-9

    def test_nonconvergence_is_flagged(self):
        rng = np.random.default_rng(36)
        g = G.build_grid(2, 6)
        y = rng.normal(size=g.n)
        res = T.denoise(T.DenoiseProblem(y, G.incidence(g), 0.05),
                        T.SolverOptions(tol=1e-12, max_iter=10))
        assert not res.converged
        assert res.stationarity_residual > 0

    def test_warm_start_accelerates(self):
        rng = np.random.default_rng(37)
        g = G.build_grid(2, 8)
        D = G.incidence(g)
        y = rng.normal(size=g.n)
        cold = T.denoise(T.DenoiseProblem(y, D, 0.05))
        warm = T.denoise(T.DenoiseProblem(y, D, 0.048),
                         T.SolverOptions(z0=cold.dual_z))
        assert warm.converged
        assert warm.iterations <= cold.iterations


def _apg_box_reference(grad, u0, step, bound, max_iter):
    """The allocating form of ``T._apg_box``: fresh arrays every iteration."""
    u = u0
    v = u.copy()
    t = 1.0
    for it in range(1, max_iter + 1):
        u_new = np.clip(v - step * grad(v), -bound, bound)
        if np.dot(v - u_new, u_new - u) > 0.0:
            t_new = 1.0
            v = u_new.copy()
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            v = u_new + ((t - 1.0) / t_new) * (u_new - u)
        u_prev, u = u, u_new
        t = t_new
        yield it, u_prev, u


class TestApgBox:
    """The in-place loop reproduces the allocating reference bit for bit."""

    @staticmethod
    def _compare(grad_ref, grad_new, u0, step, bound, iters=400):
        u0_before = u0.copy()
        ref = _apg_box_reference(grad_ref, u0.copy(), step, bound, iters)
        new = T._apg_box(grad_new, u0, step, bound, iters)
        count = 0
        for (it_r, p_r, u_r), (it_n, p_n, u_n) in zip(ref, new):
            assert it_r == it_n
            assert np.array_equal(p_r, p_n)
            assert np.array_equal(u_r, u_n)
            count += 1
        assert count == iters
        assert np.array_equal(u0, u0_before)  # the start is never written

    @pytest.mark.parametrize("g", [G.build_grid(2, 12), G.build_erdos_renyi(100, 0.16, 4)],
                             ids=lambda g: g.family)
    def test_denoise_gradient(self, g):
        D = G.incidence(g)
        Dt = D.T.tocsr()
        rng = np.random.default_rng(g.n)
        y = rng.normal(size=g.n) * 2
        mu = 0.5 * g.n * 0.02
        step = 1.0 / T.operator_norm(D)
        u0 = mu * rng.uniform(-1, 1, size=g.m)
        self._compare(lambda v: -(D @ (y - Dt @ v)), lambda v: D @ (Dt @ v - y),
                      u0, step, mu)

    def test_certificate_gradient(self):
        # the free-edge least-squares gradient kkt_certificate runs
        g = G.build_grid(2, 10)
        D = G.incidence(g)
        rng = np.random.default_rng(5)
        free = rng.random(g.m) < 0.7
        DF = D[free].tocsr()
        DFt = DF.T.tocsr()
        lam = 0.03
        r0 = rng.normal(size=g.n) * 0.01

        def grad(v):
            return lam * (DF @ (r0 + lam * (DFt @ v)))

        step = 1.0 / (lam * lam * T.operator_norm(DF))
        self._compare(grad, grad, np.zeros(DF.shape[0]), step, 1.0)


def _lambda_max(D) -> float:
    return float(np.linalg.eigvalsh((D.T @ D).toarray())[-1])


def _anderson_morley(g) -> float:
    deg = np.bincount(g.edges.ravel(), minlength=g.n)
    return float(np.max(deg[g.edges[:, 0]] + deg[g.edges[:, 1]]))


@st.composite
def small_graphs(draw):
    """Any simple graph on 1..12 vertices: disconnected ones and isolated vertices included."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return G.Graph(n, [pq for pq, k in zip(pairs, keep) if k])


class TestOperatorNorm:
    """``operator_norm`` is a certified upper bound on lambda_max(D^T D)."""

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_bounds_eigenvalue_on_graphs(self, g):
        D = G.incidence(g)
        bound = T.operator_norm(D)
        assert _lambda_max(D) <= bound * (1 + 1e-12)
        if g.m:
            assert bound <= _anderson_morley(g) * (1 + 1e-12)
        else:
            assert bound == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 15), st.integers(1, 15), st.floats(0.05, 1.0),
           st.integers(0, 2**32 - 1))
    def test_bounds_eigenvalue_on_signed_matrices(self, m, n, density, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((m, n)) < density
        D = sp.csr_matrix(mask * rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, 3, (m, n)))
        assert _lambda_max(D) <= T.operator_norm(D) * (1 + 1e-12)

    def test_isolated_vertices_and_components(self):
        # a star on 0..4, an edge 5-6 and the isolated vertices 7 and 8
        g = G.Graph(9, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6)])
        assert T.operator_norm(G.incidence(g)) == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 10, 50, 400])
    def test_exact_on_stars(self, n):
        assert T.operator_norm(G.incidence(G.build_star(n))) == pytest.approx(n, rel=1e-12)

    @pytest.mark.parametrize("N", [32, 100, 1000])
    def test_within_one_percent_on_paths(self, N):
        exact = 2.0 + 2.0 * np.cos(np.pi / N)
        assert exact <= T.operator_norm(G.incidence(G.build_path(N))) <= 1.01 * exact

    @pytest.mark.parametrize("N", [32, 64, 128])
    def test_within_one_percent_on_grids(self, N):
        exact = 2.0 * (2.0 + 2.0 * np.cos(np.pi / N))
        assert exact <= T.operator_norm(G.incidence(G.build_grid(2, N))) <= 1.01 * exact

    def test_tight_bound_solves_star(self):
        # the bound equals lambda_max here, so the step 1/bound has no slack
        g = G.build_star(50)
        D = G.incidence(g)
        assert T.operator_norm(D) == pytest.approx(_lambda_max(D), rel=1e-12)
        y = np.random.default_rng(38).normal(size=g.n) * 2 + 1
        scale = 1 + np.max(np.abs(y))
        for lam in (0.001, 0.02, 0.2):
            problem = T.DenoiseProblem(y, D, lam)
            res = T.denoise(problem)
            assert res.converged
            _, resid = T.kkt_certificate(problem, res.theta_hat)
            assert resid <= 1e-6 * scale


class TestSolverOptions:
    @pytest.mark.parametrize("kwargs", [
        {"tol": np.inf}, {"tol": np.nan}, {"tol": -1.0}, {"tol": 0.0},
        {"max_iter": 0}, {"max_iter": -5},
    ], ids=repr)
    def test_rejects_invalid_options(self, kwargs):
        with pytest.raises(ValueError):
            T.SolverOptions(**kwargs)

    def test_non_finite_estimate_never_converges(self):
        # a NaN entry in D makes every iterate NaN; it must not certify.
        # DenoiseProblem rejects such a D, so the NaN goes in afterwards.
        problem = T.DenoiseProblem(np.arange(5.0), G.incidence(G.build_path(5)).copy(), 0.5)
        problem.D.data[0] = np.nan
        res = T.denoise(problem, T.SolverOptions(max_iter=60))
        assert not res.converged
        assert res.iterations == 60

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_problem_rejects_non_finite_D(self, bad):
        D = G.incidence(G.build_path(5)).copy()
        D.data[3] = bad
        with pytest.raises(ValueError, match="D contains"):
            T.DenoiseProblem(np.arange(5.0), D, 0.5)
        with pytest.raises(ValueError, match="D contains"):
            T.DenoiseProblem(np.arange(5.0), D.toarray(), 0.5)


class TestLambdaRules:
    def test_theorem_general_plugin(self):
        # delta chosen so that log(e m / delta) = 1
        g = G.build_path(10)
        delta = float(g.m)  # log(e m / m) = 1; bypass the (0,1) check via direct math
        lam = 1.0 * 1.0 * np.sqrt(2.0 * np.log(np.e * g.m / delta)) / 10
        assert lam == pytest.approx(np.sqrt(2) / 10)
        rule = T.LambdaRule("theorem_general", sigma=1.0, delta=0.1)
        got = T.lambda_value(rule, g)
        assert got == pytest.approx(S.rho_estimate(g) * np.sqrt(2 * np.log(np.e * 9 / 0.1)) / 10)

    def test_grid2d_formula(self):
        g = G.build_grid(2, 10)
        rule = T.LambdaRule("corollary", sigma=0.5, delta=0.1)
        n = 100
        expected = 0.5 * np.sqrt(np.log(n) * np.log(10 * np.e * n)) / n
        assert T.lambda_value(rule, g) == pytest.approx(expected, rel=1e-12)

    def test_family_formulas(self):
        n = 64
        delta, sigma = 0.2, 1.5
        log_en = np.log(np.e * n / delta)
        cases = [
            (G.build_complete(n), sigma * np.sqrt(log_en) / n**2),
            (G.build_star(n), sigma * np.sqrt(log_en) / n),
            (G.build_hypercube(6), sigma * np.sqrt(log_en) / n),
            (G.build_grid(3, 4), sigma * np.sqrt(log_en) / n),
            (G.build_grid(6, 2), sigma * np.sqrt(log_en) / n),
        ]
        rule = T.LambdaRule("corollary", sigma=sigma, delta=delta)
        for g, expected in cases:
            assert T.lambda_value(rule, g) == pytest.approx(expected, rel=1e-12), g.family

    def test_random_gap_uses_expected_degree(self):
        rule = T.LambdaRule("corollary", sigma=1.0, delta=0.1)
        dn = 16.0
        expected = np.sqrt(np.log(np.e * dn * 50 / 0.1)) / (dn * 50)
        for g in (G.build_erdos_renyi(50, 16 / 50, seed=0), G.build_random_regular(50, 16, seed=0)):
            assert T.lambda_value(rule, g) == pytest.approx(expected, rel=1e-12), g.family

    def test_cycle_power_min(self):
        g = G.build_cycle_power(100, 3)
        rule = T.LambdaRule("corollary", sigma=1.0, delta=0.1)
        denom = min(np.sqrt(100) * 27, 100)
        assert T.lambda_value(rule, g) == pytest.approx(
            np.sqrt(np.log(np.e * 100 / 0.1)) / denom, rel=1e-12)

    @pytest.mark.parametrize("rule, g", [
        ("random_gap", G.build_complete(6)), ("random_gap", G.build_grid(2, 3)),
        ("cycle_power", G.build_grid(2, 3)), ("cycle_power", G.Graph(3, np.array([[0, 1]]))),
    ], ids=["random-gap-complete", "random-gap-grid", "cycle-power-grid", "cycle-power-custom"])
    def test_rule_off_its_families_is_rejected(self, rule, g):
        # the family rules are retired: the corollary rule reads the family from g
        with pytest.raises(ValueError, match=f"unknown lambda rule '{rule}'"):
            T.lambda_value(T.LambdaRule(rule), g)

    def test_manual_passthrough(self):
        rule = T.LambdaRule("manual", value=0.0421)
        assert T.lambda_value(rule) == 0.0421

    def test_sigma_zero_gives_zero_lambda(self):
        # noiseless regime: every theoretical rule collapses to lambda = 0
        g = G.build_grid(2, 4)
        assert T.lambda_value(T.LambdaRule("corollary", sigma=0.0), g) == 0.0
        assert T.lambda_value(T.LambdaRule("theorem_general", sigma=0.0), g) == 0.0

    def test_theorem_general_reads_rho_estimate(self):
        rule = T.LambdaRule("theorem_general", sigma=0.7, delta=0.2, constant_c=1.5)
        for g in (G.build_path(5), G.build_complete(6), G.build_grid(2, 5)):
            expected = 1.5 * 0.7 * S.rho_estimate(g) * np.sqrt(2 * np.log(np.e * g.m / 0.2)) / g.n
            assert T.lambda_value(rule, g) == pytest.approx(expected, rel=1e-12), g.family

    def test_validation(self):
        with pytest.raises(ValueError):
            T.LambdaRule("no_such_rule")
        with pytest.raises(ValueError):
            T.LambdaRule("corollary", sigma=-1.0)
        with pytest.raises(ValueError):
            T.LambdaRule("corollary", delta=1.5)

    @pytest.mark.parametrize("field", ["sigma", "delta", "constant_c"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_parameters(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            T.LambdaRule("corollary", **{field: bad})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_manual_value(self, bad):
        with pytest.raises(ValueError, match="finite"):
            T.LambdaRule("manual", value=bad)

    @pytest.mark.parametrize("rule", ["corollary", "theorem_general"])
    def test_value_off_the_manual_rule_is_rejected(self, rule):
        # the theoretical rules never read value, so a value beside them is a mistake
        with pytest.raises(ValueError, match="value is read only by the manual rule"):
            T.LambdaRule(rule, sigma=0.5, value=0.1)


def _certificate_holds(problem, res, tol):
    """The converged contract, checked from the returned pair alone."""
    y, D, lam = problem.y, problem.D, problem.lam
    n = len(y)
    scale = 1 + np.max(np.abs(y))
    theta, z = res.theta_hat, res.dual_z
    Dtheta = D @ theta
    jumps = np.abs(Dtheta) > 1e-8 * scale
    fit = float(np.mean((theta - y) ** 2))
    resid = np.max(np.abs((2 / n) * (theta - y) + lam * (D.T @ z)))
    assert np.all(np.isfinite(theta))
    assert resid <= tol * scale
    assert np.array_equal(z[jumps], np.sign(Dtheta[jumps]))
    assert np.all(np.abs(z) <= 1.0)
    assert 0.0 <= res.duality_gap <= tol * (1 + fit)


def _constant_threshold(g, y) -> float:
    """A lambda above which the estimate is constant on every component.

    (2/n) ||u||_inf for the minimum-norm u with D^T u = y - (component means):
    that u is dual feasible at every larger lambda, so it bounds the smallest
    such lambda from above (and equals it on a path).
    """
    comp = G._components(g.n, g.edges[:, 0], g.edges[:, 1])
    centered = y - (np.bincount(comp, weights=y) / np.bincount(comp))[comp]
    u = np.linalg.lstsq(G.incidence(g).T.toarray(), centered, rcond=None)[0]
    return 2.0 / g.n * float(np.max(np.abs(u)))


@st.composite
def denoise_instances(draw, graphs=None):
    """(graph, y, lam) with lam from 0 to past the constant-solution threshold."""
    g = draw(graphs if graphs is not None else small_graphs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.normal(size=3) * draw(st.sampled_from([0.0, 1.0, 10.0]))
    y = levels[rng.integers(0, 3, size=g.n)] + rng.normal(size=g.n) * draw(
        st.sampled_from([0.01, 0.3, 2.0]))
    threshold = _constant_threshold(g, y) if g.m else 1.0
    lam = threshold * draw(st.sampled_from([0.0, 0.01, 0.1, 0.3, 0.6, 0.9, 1.1, 2.0]))
    return g, y, lam


def _path_graphs():
    return st.integers(2, 14).map(G.build_path)


class TestFusedCandidateAgainstOracles:
    """The early-stopping certificate, checked against the exact solvers."""

    tol = 1e-6

    def _solve(self, g, y, lam):
        problem = T.DenoiseProblem(y, G.incidence(g), lam)
        res = T.denoise(problem, T.SolverOptions(tol=self.tol))
        return problem, res

    @settings(max_examples=150, deadline=None)
    @given(denoise_instances())
    def test_converged_passes_kkt_and_preserves_component_means(self, inst):
        g, y, lam = inst
        problem, res = self._solve(g, y, lam)
        assert res.converged
        scale = 1 + np.max(np.abs(y))
        _certificate_holds(problem, res, self.tol)
        _, resid = T.kkt_certificate(problem, res.theta_hat)
        assert resid <= self.tol * scale
        # fusion never crosses components: each keeps the mean of its data
        comp = G._components(g.n, g.edges[:, 0], g.edges[:, 1])
        for c in np.unique(comp):
            assert abs(res.theta_hat[comp == c].mean() - y[comp == c].mean()) <= 1e-12 * scale

    @settings(max_examples=150, deadline=None)
    @given(denoise_instances(_path_graphs()))
    def test_path_objective_within_gap_and_constant_above_threshold(self, inst):
        g, y, lam = inst
        problem, res = self._solve(g, y, lam)
        assert res.converged
        D = problem.D
        exact = T.objective_value(y, D, lam, T.denoise_path_exact(y, lam))
        got = T.objective_value(y, D, lam, res.theta_hat)
        slack = 1e-12 * (1 + abs(exact))
        assert exact - slack <= got <= exact + res.duality_gap + slack
        # (2/n) max_k |sum_{i<=k} (y_i - mean y)| on the path
        threshold = 2.0 / g.n * np.max(np.abs(np.cumsum(y - y.mean())))
        if lam > threshold:
            scale = 1 + np.max(np.abs(y))
            assert np.ptp(res.theta_hat) <= g.n * 1e-8 * scale

    @settings(max_examples=60, deadline=None)
    @given(denoise_instances(st.integers(2, 9).map(G.build_complete)))
    def test_complete_objective_within_gap(self, inst):
        g, y, lam = inst
        problem, res = self._solve(g, y, lam)
        assert res.converged
        D = problem.D
        exact = T.objective_value(y, D, lam, T.denoise_complete_exact(y, lam))
        got = T.objective_value(y, D, lam, res.theta_hat)
        slack = 1e-12 * (1 + abs(exact))
        assert exact - slack <= got <= exact + res.duality_gap + slack


class TestCertificateMeaning:
    """``converged=True`` means the returned pair certifies."""

    @pytest.mark.parametrize("g", [
        G.build_path(200), G.build_grid(2, 24), G.build_erdos_renyi(150, 0.08, 2),
    ], ids=lambda g: g.family)
    @pytest.mark.parametrize("tol", [1e-5, 1e-7])
    def test_returned_pair_certifies(self, g, tol):
        rng = np.random.default_rng(g.n)
        D = G.incidence(g)
        y = np.where(np.arange(g.n) < g.n // 3, 2.0, -1.0) + rng.normal(size=g.n) * 0.5
        flat = []
        for lam in (0.002, 0.01, 0.05):
            problem = T.DenoiseProblem(y, D, lam)
            res = T.denoise(problem, T.SolverOptions(tol=tol))
            assert res.converged
            _certificate_holds(problem, res, tol)
            flat.append(np.any(D @ res.theta_hat == 0.0))
        assert any(flat)  # fusion sets some edge exactly flat on every family

    def test_fused_estimate_is_piecewise_constant(self):
        # fusion stops the solve with exact flat pieces, not near-flat edges
        g = G.build_grid(2, 32)
        D = G.incidence(g)
        y = np.repeat([0.0, 2.0], 512) + np.random.default_rng(7).normal(size=g.n) * 0.5
        res = T.denoise(T.DenoiseProblem(y, D, 0.01), T.SolverOptions(tol=1e-5))
        assert res.converged
        Dtheta = D @ res.theta_hat
        assert np.count_nonzero(Dtheta) < g.m // 2
        assert np.all((Dtheta == 0) | (np.abs(Dtheta) > 1e-8 * (1 + np.max(np.abs(y)))))

    def test_fusion_graph_skips_non_difference_rows(self):
        # the anchor row of the augmented path has one entry; a sum row two
        D = sp.vstack([G.build_augmented_path(4),
                       sp.csr_matrix(np.array([[1.0, 1.0, 0.0, 0.0]]))]).tocsr()
        rows, i, j = T._fusion_graph(D)
        assert rows.tolist() == [1, 2, 3]
        assert sorted(zip(i.tolist(), j.tolist())) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("D", [
        G.incidence(G.build_path(7)), G.incidence(G.build_grid(2, 5)),
        G.incidence(G.Graph(6, np.array([[0, 1], [1, 2], [4, 5]]))),  # isolated vertex 3
        G.incidence(G.Graph(3, np.zeros((0, 2)))), G.build_augmented_path(9),
    ], ids=["path", "grid", "isolated", "no-edges", "augmented"])
    def test_component_count_matches_gram(self, D):
        # the connectivity warning counts components of the fusion graph;
        # on these inputs that is the component count of |D|^T |D|
        _, i, j = T._fusion_graph(D)
        ncomp, _ = connected_components(abs(D.T) @ abs(D), directed=False)
        assert G._components(D.shape[1], i, j).max() + 1 == ncomp

    def test_augmented_path_certifies(self):
        y = np.random.default_rng(8).normal(size=40)
        problem = T.DenoiseProblem(y, G.build_augmented_path(40), 0.05)
        res = T.denoise(problem, T.SolverOptions(tol=1e-7))
        assert res.converged
        _certificate_holds(problem, res, 1e-7)


def _components_coo(n, i, j):
    """Reference for ``G._components``: the link matrix through coo."""
    links = sp.coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
    return connected_components(links, directed=False)[1]


class TestComponents:
    @settings(max_examples=100, deadline=None)
    @given(small_graphs(), st.integers(0, 2**32 - 1))
    def test_matches_coo_route(self, g, seed):
        # random edge subsets in random row order and orientation: no edges,
        # isolated vertices and i that is not nondecreasing included
        rng = np.random.default_rng(seed)
        edges = g.edges[rng.random(g.m) < rng.random()]
        edges = rng.permuted(edges[rng.permutation(len(edges))], axis=1)
        i, j = edges[:, 0], edges[:, 1]
        assert np.array_equal(G._components(g.n, i, j), _components_coo(g.n, i, j))

    def test_fusion_edges_in_row_order(self):
        # the edges of an incidence matrix come out of _fusion_graph sorted by i
        _, i, j = T._fusion_graph(G.incidence(G.build_grid(2, 9)))
        assert np.all(np.diff(i) >= 0)
        assert np.array_equal(G._components(81, i[::2], j[::2]),
                              _components_coo(81, i[::2], j[::2]))


@st.composite
def weighted_forests(draw):
    """(D, y, lam): rows ``a (theta_i - theta_j)`` of a random forest in random order.

    Each vertex joins an earlier one or starts a new tree, so forests with
    several trees and isolated vertices come up; a takes either sign and
    sizes other than one.
    """
    n = draw(st.integers(2, 16))
    parents = [draw(st.one_of(st.none(), st.integers(0, k - 1))) for k in range(1, n)]
    pairs = [(p, k) for k, p in enumerate(parents, start=1) if p is not None]
    a = draw(st.lists(st.sampled_from([-2.5, -1.0, -0.3, 0.3, 1.0, 2.5]),
                      min_size=len(pairs), max_size=len(pairs)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(len(pairs))
    rows = np.repeat(np.arange(len(pairs)), 2)
    cols = np.array([pairs[e] for e in order], dtype=int).reshape(-1)
    data = np.array([[a[e], -a[e]] for e in order]).reshape(-1)
    D = sp.csr_matrix((data, (rows, cols)), shape=(len(pairs), n))
    levels = rng.normal(size=3) * draw(st.sampled_from([0.0, 1.0, 10.0]))
    y = levels[rng.integers(0, 3, size=n)] + rng.normal(size=n) * draw(
        st.sampled_from([0.01, 0.3, 2.0]))
    lam = draw(st.sampled_from([1e-3, 1e-2, 0.1, 1.0]))
    return D, y, lam


class TestForestCertificate:
    @settings(max_examples=60, deadline=None)
    @given(weighted_forests())
    def test_forests_exact(self, inst):
        D, y, lam = inst
        res = T.denoise(T.DenoiseProblem(y, D, lam), T.SolverOptions(tol=1e-12))
        assert res.converged


@st.composite
def path_instances(draw):
    """(y, lam) on paths of 2..80 vertices: four levels plus noise, lam = 0 included."""
    n = draw(st.integers(2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = (np.repeat(rng.normal(size=4) * 3, -(-n // 4))[:n]
         + rng.normal(size=n) * draw(st.sampled_from([0.0, 0.3, 1.0])))
    return y, draw(st.sampled_from([0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0]))


def _path_verdict(y, lam, theta, tol):
    _, resid, feasibility, _ = T._path_certificate(y, lam, theta)
    return resid <= tol * (1 + np.max(np.abs(y))) and feasibility <= 1 + tol


class TestPathCertificate:
    """The closed-form path certificate, against ``kkt_certificate`` on the incidence matrix."""

    @settings(max_examples=100, deadline=None)
    @given(path_instances())
    def test_agrees_with_kkt_certificate(self, inst):
        y, lam = inst
        problem = path_problem(y, lam)
        scale = 1 + np.max(np.abs(y))
        theta = T.denoise_path_exact(y, lam)
        z, resid, feasibility, tv = T._path_certificate(y, lam, theta)
        kkt_z, kkt_resid = T.kkt_certificate(problem, theta)
        assert resid <= 1e-12 * scale and feasibility <= 1 + 1e-9
        assert kkt_resid <= 1e-9 * scale
        # the dual of a path is unique, so the two certificates find the same z
        assert np.max(np.abs(z - kkt_z)) <= 1e-9
        assert tv == pytest.approx(np.abs(problem.D @ theta).sum(), rel=1e-12, abs=1e-12)
        # a theta from another weight: both certificates give the same verdict
        wrong = T.denoise_path_exact(y, 1.5 * lam)
        _, kkt_wrong = T.kkt_certificate(problem, wrong)
        assert _path_verdict(y, lam, wrong, 1e-6) == (kkt_wrong <= 1e-6 * scale)


@st.composite
def complete_instances(draw):
    """(y, lam) on K_n with 2..25 vertices, tied values included, lam in [1e-3, 0.3]."""
    n = draw(st.integers(2, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "ties", "runs"]))
    if kind == "ties":
        y = rng.integers(-3, 4, size=n).astype(float)
    elif kind == "runs":
        y = np.repeat(rng.normal(size=n), rng.integers(1, 5, size=n))[:n]
    else:
        y = rng.normal(size=n) * 3
    return y, 10.0 ** draw(st.floats(-3.0, np.log10(0.3)))


def _complete_verdict(y, lam, theta, tol):
    _, resid, feasibility, _ = T._complete_certificate(y, lam, theta)
    return resid <= tol * (1 + np.max(np.abs(y))) and feasibility <= 1 + tol


class TestCompleteCertificate:
    """The O(n log n) K_n certificate, against ``kkt_certificate`` on the incidence matrix."""

    @settings(max_examples=100, deadline=None)
    @given(complete_instances())
    def test_agrees_with_kkt_certificate(self, inst):
        y, lam = inst
        problem = T.DenoiseProblem(y, G.incidence(G.build_complete(len(y))), lam)
        scale = 1 + np.max(np.abs(y))
        theta = T.denoise_complete_exact(y, lam)
        z, resid, feasibility, tv = T._complete_certificate(y, lam, theta)
        assert z is None
        z, kkt_resid = T.kkt_certificate(problem, theta)
        assert resid <= 1e-12 * scale and feasibility <= 1 + 1e-9
        assert kkt_resid <= 1e-9 * scale and np.max(np.abs(z)) <= 1.0
        assert tv == pytest.approx(np.abs(problem.D @ theta).sum(), rel=1e-12, abs=1e-12)
        # a theta from another weight: both certificates give the same verdict
        wrong = T.denoise_complete_exact(y, 1.5 * lam)
        _, kkt_wrong = T.kkt_certificate(problem, wrong)
        assert _complete_verdict(y, lam, wrong, 1e-6) == (kkt_wrong <= 1e-6 * scale)

    def test_wrong_theta_fails(self):
        # island-model K_n: the exact theta at 1.5 lambda is refused at lambda
        refused = 0
        rule = T.LambdaRule("theorem_general", sigma=0.5, delta=0.1)
        for n in (100, 200, 400):
            theta_star = island_signal(n, 3, 3)
            lam_th = T.lambda_value(rule, G.build_complete(n))
            rng = np.random.default_rng(n)
            for trial in range(4):
                y = theta_star + 0.5 * rng.standard_normal(n)
                for lam in lam_th * np.array([0.5, 1.0, 2.0, 4.0, 8.0]):
                    assert _complete_verdict(y, lam, T.denoise_complete_exact(y, lam), 1e-5)
                    refused += not _complete_verdict(
                        y, lam, T.denoise_complete_exact(y, 1.5 * lam), 1e-5)
        assert refused == 60

    def test_block_at_the_fusing_boundary(self):
        # the whole of y fuses at lam* = (2/n) max_k topk(y - mean)/(k (n - k)):
        # just above it the one block certifies with a prefix ratio near 1,
        # just below it the constant theta is refused
        y = np.random.default_rng(11).normal(size=40) * 2
        n = len(y)
        top = np.cumsum(np.sort(y - y.mean())[::-1])[:-1]
        k = np.arange(1, n)
        lam_star = 2.0 / n * np.max(top / (k * (n - k)))
        theta = T.denoise_complete_exact(y, lam_star * (1 + 1e-6))
        assert np.ptp(theta) <= 1e-12
        _, resid, feasibility, _ = T._complete_certificate(y, lam_star * (1 + 1e-6), theta)
        assert 1 - 1e-4 < feasibility <= 1.0 and resid <= 1e-15
        below = lam_star * (1 - 1e-3)
        assert not _complete_verdict(y, below, np.full(n, y.mean()), 1e-5)
        assert _complete_verdict(y, below, T.denoise_complete_exact(y, below), 1e-5)


ROUTE_CASES = {
    "complete": (G.build_complete(12), "sort_isotonic"),
    "path": (G.build_path(12), "taut_string"),
    "grid-1d": (G.build_grid(1, 12), "taut_string"),  # a path's edge list
    "grid": (G.build_grid(2, 4), "dual_fista"),
    "star": (G.build_star(12), "dual_fista"),
    "cycle_power": (G.build_cycle_power(12, 2), "dual_fista"),
    "erdos_renyi": (G.build_erdos_renyi(12, 0.5, 3), "dual_fista"),
    "augmented": (G.build_augmented_path(12), "dual_fista"),
    "complete-as-custom": (G.Graph(12, G.build_complete(12).edges), "dual_fista"),
    # a complete tag on a graph that is not complete falls through to denoise
    "complete-minus-an-edge": (G.Graph(12, G.build_complete(12).edges[1:], family="complete"),
                               "dual_fista"),
    # so does a path tag on a star, while a path's edges take the taut string untagged
    "star-tagged-path": (G.Graph(12, G.build_star(12).edges, family="path"), "dual_fista"),
    "path-as-custom": (G.Graph(12, G.build_path(12).edges), "taut_string"),
}


class TestSolveRoute:
    """``solve`` picks the solver from the graph and certifies every result."""

    @pytest.mark.parametrize("case", ROUTE_CASES)
    @pytest.mark.parametrize("lam", [0.0, 0.01, 0.3])
    def test_solver_and_converged_contract(self, case, lam):
        g, solver = ROUTE_CASES[case]
        n = g.shape[1] if sp.issparse(g) else g.n
        y = np.random.default_rng(n).normal(size=n) * 3 + 5
        tol = 1e-6
        res = T.solve(g, y, lam, T.SolverOptions(tol=tol))
        assert T.solver_for(g) == res.solver == solver
        assert res.converged
        assert res.stationarity_residual <= tol * (1 + np.max(np.abs(y)))
        assert res.dual_feasibility <= 1 + tol
        if lam == 0.0:
            assert np.array_equal(res.theta_hat, y)
        if solver == "dual_fista":
            return
        assert res.iterations == 0 and res.duality_gap is None
        assert (res.dual_z is None) == (solver == "sort_isotonic")
        D = G.incidence(g)
        exact = (T.denoise_path_exact if solver == "taut_string" else T.denoise_complete_exact)
        assert np.array_equal(res.theta_hat, exact(y, lam))
        assert res.objective == pytest.approx(T.objective_value(y, D, lam, res.theta_hat),
                                              rel=1e-12)

    def test_complete_route_builds_no_incidence(self, monkeypatch):
        def no_incidence(g):
            raise AssertionError("incidence built")
        monkeypatch.setattr(T.G, "incidence", no_incidence)
        y = np.random.default_rng(0).normal(size=300)
        res = T.solve(G.build_complete(300), y, 1e-4)
        assert res.converged and res.solver == "sort_isotonic"

    def test_one_dimensional_grid_is_solved_as_its_path(self):
        path, grid = G.build_path(40), G.build_grid(1, 40)
        assert np.array_equal(grid.edges, path.edges)
        rng = np.random.default_rng(11)
        for lam in (0.0, 0.002, 0.02, 0.5):
            y = np.repeat(rng.normal(size=4) * 3, 10) + 0.4 * rng.normal(size=40)
            a, b = T.solve(grid, y, lam), T.solve(path, y, lam)
            assert a.solver == b.solver == "taut_string" and a.converged
            for f in ("theta_hat", "dual_z"):
                assert np.array_equal(getattr(a, f), getattr(b, f))
            for f in ("stationarity_residual", "dual_feasibility", "objective", "converged"):
                assert getattr(a, f) == getattr(b, f)

    def test_complete_graph_reads_only_n(self):
        # K_3000 has 4.5M edges: an edge list alone is 72 MB, an incidence matrix more
        y = np.random.default_rng(2).normal(size=3000)
        rule = T.LambdaRule("theorem_general", sigma=0.5)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            g = G.build_complete(3000)
            res, lam, rep = T.solve(g, y, 1e-4), T.lambda_value(rule, g), S.spectral_report(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 2e6 and "edges" not in g._derived
        assert res.converged and res.solver == "sort_isotonic"
        eager = G.Graph(3000, np.column_stack(np.triu_indices(3000, 1)), family="complete")
        ref = T.solve(eager, y, 1e-4)
        for f in ("theta_hat", "stationarity_residual", "dual_feasibility", "objective",
                  "converged", "solver"):
            assert np.array_equal(getattr(res, f), getattr(ref, f))
        assert lam == T.lambda_value(rule, eager)
        assert rep.to_json_dict() == S.spectral_report(eager).to_json_dict()

    @pytest.mark.parametrize("case, exact", [("complete", "denoise_complete_exact"),
                                             ("path", "denoise_path_exact")])
    def test_exact_routes_report_a_failed_certificate(self, monkeypatch, case, exact):
        # theta of the wrong weight, as a broken exact solver would return
        solver = getattr(T, exact)
        monkeypatch.setattr(T, exact, lambda y, lam: solver(y, 1.5 * lam))
        y = np.random.default_rng(3).normal(size=12) * 3
        assert not T.solve(ROUTE_CASES[case][0], y, 0.01).converged

    @pytest.mark.parametrize("case", ["complete", "path"])
    def test_exact_routes_reject_bad_input(self, case):
        g = ROUTE_CASES[case][0]
        with pytest.raises(ValueError, match="finite"):
            T.solve(g, np.zeros(12), np.nan)
        with pytest.raises(ValueError, match="length"):
            T.solve(g, np.zeros(11), 0.1)


def _count_operator_builds(monkeypatch):
    """Count the calls of ``graphs.incidence`` and ``tvsolver.operator_norm``."""
    calls = {"incidence": 0, "operator_norm": 0}
    for module, name in ((T.G, "incidence"), (T, "operator_norm")):
        def counted(*args, _inner=getattr(module, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


class TestGraphKeepsItsOperator:
    """A Graph keeps the incidence matrix and step bound of its first DenoiseProblem."""

    def test_five_solves_build_one_of_each(self, monkeypatch):
        calls = _count_operator_builds(monkeypatch)
        g = G.build_grid(2, 6)
        y = np.random.default_rng(0).normal(size=g.n) * 3
        for lam in (0.01, 0.02, 0.04, 0.08, 0.16):
            assert T.solve(g, y, lam).converged
        assert calls == {"incidence": 1, "operator_norm": 1}

    def test_path_solve_derives_nothing(self, monkeypatch):
        # the 20-block path signal of the benchmark's taut-string CLI command
        g = G.build_path(20_000)
        rng = np.random.default_rng(1)
        y = np.repeat(rng.normal(0.0, 3.0, size=20), 1000) + 0.5 * rng.standard_normal(20_000)
        calls = _count_operator_builds(monkeypatch)
        for lam in (3e-4, 3e-3):
            res = T.solve(g, y, lam)
            assert res.converged and res.solver == "taut_string"
            assert res.stationarity_residual <= 1e-12 * (1 + np.max(np.abs(y)))
            theta = T.denoise_path_exact(y, lam)
            z, resid, _, _ = T._path_certificate(y, lam, theta)
            assert np.array_equal(res.theta_hat, theta) and np.array_equal(res.dual_z, z)
            assert res.stationarity_residual == resid
        assert calls == {"incidence": 0, "operator_norm": 0}
        assert set(g._derived) == {"edges"}

    def test_bare_matrix_solve_computes_its_bound(self, monkeypatch):
        g = G.build_grid(2, 6)
        D = G.incidence(g)
        y = np.random.default_rng(1).normal(size=g.n) * 3
        calls = _count_operator_builds(monkeypatch)
        res = T.solve(D, y, 0.05)
        assert res.converged and res.solver == "dual_fista"
        assert calls == {"incidence": 0, "operator_norm": 1}
        # a problem on a matrix keeps nothing: each denoise derives its bound again
        problem = T.DenoiseProblem(y, D, 0.05)
        assert problem.Dt is None and problem.op_norm is None and problem.fusion is None
        assert T.denoise(problem).converged and T.denoise(problem).converged
        assert calls == {"incidence": 0, "operator_norm": 3}
        assert np.array_equal(res.theta_hat, T.solve(g, y, 0.05).theta_hat)

    @pytest.mark.parametrize("case", ["grid", "star", "cycle_power", "erdos_renyi", "path"])
    def test_graph_problem_matches_matrix_problem(self, case):
        g = G.build_family(case, n=30, d=2, N=6, k=2, p=0.2, seed=4)
        y = np.random.default_rng(2).normal(size=g.n) * 3 + 1
        D = G.incidence(g)
        kept = T.DenoiseProblem(y, g, 0.03)
        assert kept.op_norm == T.operator_norm(D)
        assert (kept.D != D).nnz == 0
        a = T.denoise(kept)
        b = T.denoise(T.DenoiseProblem(y, D, 0.03))
        assert np.array_equal(a.theta_hat, b.theta_hat)
        assert a.iterations == b.iterations and a.converged == b.converged

    def test_incidence_stays_a_fresh_matrix(self):
        # a caller may mutate what incidence returns; the kept matrix is another one
        g = G.build_path(6)
        kept = T.DenoiseProblem(np.zeros(6), g, 0.1).D
        fresh = G.incidence(g)
        assert fresh is not kept
        fresh.data[:] = 0.0
        assert np.array_equal(T.DenoiseProblem(np.zeros(6), g, 0.1).D.toarray(),
                              G.incidence(g).toarray())

    def test_two_solves_share_one_transpose(self, monkeypatch):
        calls = _count_operator_builds(monkeypatch)
        g = G.build_erdos_renyi(60, 0.15, seed=3)
        y = np.random.default_rng(3).normal(size=g.n)
        first, second = T.DenoiseProblem(y, g, 0.02), T.DenoiseProblem(-y, g, 0.05)
        assert first.Dt is second.Dt and first.D is second.D
        assert (first.Dt != first.D.T).nnz == 0 and first.Dt.format == "csr"
        assert T.denoise(first).converged and T.denoise(second).converged
        assert calls == {"incidence": 1, "operator_norm": 1}

    def test_denoise_multiplies_by_the_kept_transpose(self):
        g = G.build_grid(2, 5)
        problem = T.DenoiseProblem(np.random.default_rng(5).normal(size=g.n), g, 0.05)
        plain = T.denoise(problem)
        products = []

        class Spy:  # the kept D^T, counting its products
            def __matmul__(self, v, _Dt=problem.Dt):
                products.append(1)
                return _Dt @ v

        problem.Dt = Spy()
        res = T.denoise(problem)
        assert len(products) > plain.iterations
        assert np.array_equal(res.theta_hat, plain.theta_hat)


def _denoise_reference(problem, opts):
    """A plain copy of ``denoise``'s check loop that tests two candidates in full.

    Each check tests the raw iterate theta = y - D^T u first and then the
    dual-fused candidate, which is the only one ``denoise`` tests; the raw
    one is a fallback only when its gap alone passes.  When no edge is
    strictly inside the box the two candidates are equal bit for bit.  It
    checks on the schedule of ``denoise``: the multiples of
    ``CHECK_EVERY``, ``max_iter`` and, for a warm start, ``WARM_CHECK``.
    It derives D^T, the step bound and the fusion edges from the matrix on
    each call and labels the flat pieces through coo.
    Returns ``(theta, z, iterations, residual, gap, converged)``.
    """
    y, D, lam = problem.y, problem.D, problem.lam
    m, n = D.shape
    scale = 1.0 + float(np.max(np.abs(y)))
    Dt = D.T.tocsr()
    mu = 0.5 * n * lam
    rows, fuse_i, fuse_j = T._fusion_graph(D)
    warm = opts.z0 is not None
    u0 = mu * np.clip(np.asarray(opts.z0, dtype=float), -1.0, 1.0) if warm else np.zeros(m)
    best = None
    for it, _, u in T._apg_box(lambda v: D @ (Dt @ v - y), u0, 1.0 / T.operator_norm(D),
                               mu, opts.max_iter):
        if not (it % T.CHECK_EVERY == 0 or it == opts.max_iter
                or (warm and it == T.WARM_CHECK)):
            continue
        theta = y - Dt @ u
        Dtheta = D @ theta
        fit = float(np.mean((theta - y) ** 2))
        tv = float(np.abs(Dtheta).sum())
        gap = np.maximum(0.0, lam * tv - (2.0 / n) * float(Dtheta @ u))
        flat = np.abs(u[rows]) < mu
        piece = _components_coo(n, fuse_i[flat], fuse_j[flat])
        theta_f = (np.bincount(piece, weights=theta) / np.bincount(piece))[piece]
        fit_f = float(np.mean((theta_f - y) ** 2))
        tv_f = float(np.abs(D @ theta_f).sum())
        gap_f = np.maximum(0.0, gap + (fit_f - fit) + lam * (tv_f - tv))
        for fused, th, gp, ft in ((False, theta, gap, fit), (True, theta_f, gap_f, fit_f)):
            Dth = D @ th
            jumps = np.abs(Dth) > T.JUMP_RTOL * scale
            zq = u / mu
            zq[jumps] = np.sign(Dth[jumps])
            resid = float(np.max(np.abs((2.0 / n) * (th - y) + lam * (Dt @ zq))))
            score = float(np.max([resid / scale, gp / (1.0 + ft)]))
            if (fused or gp / (1.0 + ft) <= opts.tol) and (best is None or score < best[0]):
                best = (score, th, zq, resid, float(gp))
            if score <= opts.tol and np.all(np.isfinite(th)):
                return th, zq, it, resid, float(gp), True
    return (*best[1:3], it, *best[3:], False)


def _reference_case(case):
    """(problem, y) with a two-level signal under noise on one of four difference operators."""
    rng = np.random.default_rng(7)
    if case == "anchored_path":
        D = G.build_augmented_path(40)
    else:
        D = G.build_family(case, n=50, d=2, N=7, p=0.15, seed=5)
    n = D.n if isinstance(D, G.Graph) else D.shape[1]
    y = 2.0 * (np.arange(n) < n // 3) + 0.3 * rng.normal(size=n)
    return D, y


class TestDenoiseMatchesReference:
    """``denoise`` equals the full-evaluation reference bit for bit, converged or not."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("case", ["erdos_renyi", "grid", "star", "anchored_path"])
    def test_bit_for_bit(self, case, warm):
        D, y = _reference_case(case)
        outcomes = []
        # at the smallest lam no dual entry of the anchored path is strictly
        # inside the box, so the reference's raw and fused candidates are one;
        # the warm starts from 1.05 lam pass at WARM_CHECK on the grid and path
        for lam in (0.0005, 0.004, 0.02):
            z0 = T.solve(D, y, 1.05 * lam).dual_z if warm else None
            for max_iter in (7, 10, 24, 60, 50000):
                opts = T.SolverOptions(max_iter=max_iter, z0=z0)
                problem = T.DenoiseProblem(y, D, lam)
                res = T.denoise(problem, opts)
                theta, z, it, resid, gap, converged = _denoise_reference(problem, opts)
                assert np.array_equal(res.theta_hat, theta) and np.array_equal(res.dual_z, z)
                assert (res.iterations, res.stationarity_residual, res.duality_gap,
                        res.converged) == (it, resid, gap, converged)
                if not converged:
                    # the reported residual is that of the returned pair
                    n = len(y)
                    Dt = problem.D.T.tocsr()
                    assert res.stationarity_residual == float(np.max(np.abs(
                        (2.0 / n) * (res.theta_hat - y) + lam * (Dt @ res.dual_z))))
                outcomes.append(converged)
        assert any(outcomes) and not all(outcomes)


@st.composite
def one_candidate_cases(draw):
    """(problem, opts) on a small ER, grid, star, cycle-power or path graph, cold or warm."""
    family = draw(st.sampled_from(["erdos_renyi", "grid", "star", "cycle_power", "path"]))
    n = draw(st.integers(4, 30))
    g = G.build_family(family, n=n, d=2, N=draw(st.integers(2, 6)), k=draw(st.integers(1, 2)),
                       p=draw(st.sampled_from([0.15, 0.3, 0.6])), seed=draw(st.integers(0, 99)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.normal(size=3) * draw(st.sampled_from([1.0, 10.0]))
    y = levels[rng.integers(0, 3, size=g.n)] + rng.normal(size=g.n) * draw(
        st.sampled_from([0.01, 0.3, 2.0]))
    lam = _constant_threshold(g, y) * draw(st.sampled_from([0.001, 0.01, 0.1, 0.3, 0.6, 0.9]))
    tol = draw(st.sampled_from([1e-4, 1e-5, 1e-6, 1e-7]))
    z0 = None
    if draw(st.booleans()):  # warm, from the dual at a nearby lam
        z0 = T.solve(g, y, lam * draw(st.sampled_from([0.8, 1.05, 1.5]))).dual_z
    return T.DenoiseProblem(y, g, lam), T.SolverOptions(tol=tol, z0=z0)


class TestOneCandidateGivesUpNothing:
    """The fused candidate alone stops ``denoise`` where two candidates would."""

    @settings(max_examples=80, deadline=None)
    @given(one_candidate_cases())
    def test_converges_with_the_two_candidate_reference(self, case):
        problem, opts = case
        res = T.denoise(problem, opts)
        _, _, it, _, _, converged = _denoise_reference(problem, opts)
        assert (res.converged, res.iterations) == (converged, it)
        if converged:
            _certificate_holds(problem, res, opts.tol)


class TestCheckSchedule:
    """Cold solves check at the multiples of CHECK_EVERY, warm ones also at WARM_CHECK."""

    def test_constants(self):
        assert (T.CHECK_EVERY, T.WARM_CHECK) == (25, 10)

    def test_warm_start_at_the_dual_stops_at_the_warm_check(self):
        g = G.build_star(12)
        problem = T.DenoiseProblem(np.random.default_rng(1).normal(size=g.n), g, 0.02)
        exact = T.denoise(problem, T.SolverOptions(tol=1e-13))
        assert exact.converged
        warm = T.denoise(problem, T.SolverOptions(z0=exact.dual_z))
        cold = T.denoise(problem)
        assert warm.converged and warm.iterations == T.WARM_CHECK
        assert cold.converged and cold.iterations == T.CHECK_EVERY
        for z0 in (exact.dual_z, None):
            assert T.denoise(problem, T.SolverOptions(max_iter=7, z0=z0)).iterations == 7

    def test_cold_solve_skips_the_warm_check(self):
        # this cold solve would pass a check at WARM_CHECK, yet waits for CHECK_EVERY
        D, y = _reference_case("anchored_path")
        problem = T.DenoiseProblem(y, D, 0.0005)
        assert T.denoise(problem, T.SolverOptions(max_iter=T.WARM_CHECK)).converged
        assert T.denoise(problem).iterations == T.CHECK_EVERY
