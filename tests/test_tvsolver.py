import numpy as np
import pytest
from scipy.optimize import lsq_linear

from graphtv import graphs as G
from graphtv import tvsolver as T


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
            res = T.denoise(T.DenoiseProblem(y, G.incidence(g), 100.0))
        assert np.allclose(res.theta_hat[:2], 1.0, atol=1e-6)
        assert np.allclose(res.theta_hat[2:], 15.0, atol=1e-6)

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

    def test_complete_exact_edge_cases(self):
        y = np.array([3.0, 1.0, 2.0])
        assert np.array_equal(T.denoise_complete_exact(y, 0.0), y)
        big = T.denoise_complete_exact(y, 100.0)
        assert np.allclose(big, 2.0, atol=1e-12)


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


class TestOperatorNorm:
    def test_matches_dense_eigenvalue(self):
        for g in (G.build_path(20), G.build_grid(2, 5), G.build_complete(10)):
            D = G.incidence(g)
            exact = np.linalg.eigvalsh((D.T @ D).toarray())[-1]
            est = T.operator_norm(D)
            assert est == pytest.approx(exact, rel=1e-4)


class TestLambdaRules:
    def test_theorem_general_plugin(self):
        # delta chosen so that log(e m / delta) = 1
        g = G.build_path(10)
        delta = float(g.m)  # log(e m / m) = 1; bypass the (0,1) check via direct math
        lam = 1.0 * 1.0 * np.sqrt(2.0 * np.log(np.e * g.m / delta)) / 10
        assert lam == pytest.approx(np.sqrt(2) / 10)
        rule = T.LambdaRule("theorem_general", sigma=1.0, delta=0.1)
        got = T.lambda_value(rule, g, rho=1.0)
        assert got == pytest.approx(np.sqrt(2 * np.log(np.e * 9 / 0.1)) / 10)

    def test_grid2d_formula(self):
        g = G.build_grid(2, 10)
        rule = T.LambdaRule("grid2d", sigma=0.5, delta=0.1)
        n = 100
        expected = 0.5 * np.sqrt(np.log(n) * np.log(10 * np.e * n)) / n
        assert T.lambda_value(rule, g) == pytest.approx(expected, rel=1e-12)

    def test_family_formulas(self):
        n = 64
        delta, sigma = 0.2, 1.5
        log_en = np.log(np.e * n / delta)
        cases = [
            ("complete", G.build_complete(n), sigma * np.sqrt(log_en) / n**2),
            ("star", G.build_star(n), sigma * np.sqrt(log_en) / n),
            ("hypercube", G.build_hypercube(6), sigma * np.sqrt(log_en) / n),
            ("grid_high_dim", G.build_grid(3, 4), sigma * np.sqrt(log_en) / n),
        ]
        for rule_name, g, expected in cases:
            rule = T.LambdaRule(rule_name, sigma=sigma, delta=delta)
            assert T.lambda_value(rule, g) == pytest.approx(expected, rel=1e-12), rule_name

    def test_random_gap_uses_expected_degree(self):
        g = G.build_erdos_renyi(50, 16 / 50, seed=0)
        rule = T.LambdaRule("random_gap", sigma=1.0, delta=0.1)
        dn = 16.0
        expected = np.sqrt(np.log(np.e * dn * 50 / 0.1)) / (dn * 50)
        assert T.lambda_value(rule, g) == pytest.approx(expected, rel=1e-12)

    def test_cycle_power_min(self):
        g = G.build_cycle_power(100, 3)
        rule = T.LambdaRule("cycle_power", sigma=1.0, delta=0.1)
        denom = min(np.sqrt(100) * 27, 100)
        assert T.lambda_value(rule, g) == pytest.approx(
            np.sqrt(np.log(np.e * 100 / 0.1)) / denom, rel=1e-12)

    def test_manual_passthrough(self):
        rule = T.LambdaRule("manual", value=0.0421)
        assert T.lambda_value(rule) == 0.0421

    def test_sigma_zero_gives_zero_lambda(self):
        # noiseless regime: every theoretical rule collapses to lambda = 0
        g = G.build_grid(2, 4)
        assert T.lambda_value(T.LambdaRule("grid2d", sigma=0.0), g) == 0.0
        assert T.lambda_value(T.LambdaRule("theorem_general", sigma=0.0), g,
                              rho=1.0) == 0.0

    def test_theorem_general_requires_rho(self):
        with pytest.raises(ValueError, match="rho"):
            T.lambda_value(T.LambdaRule("theorem_general"), G.build_path(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            T.LambdaRule("no_such_rule")
        with pytest.raises(ValueError):
            T.LambdaRule("grid2d", sigma=-1.0)
        with pytest.raises(ValueError):
            T.LambdaRule("grid2d", delta=1.5)

    @pytest.mark.parametrize("field", ["sigma", "delta", "constant_c"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_parameters(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            T.LambdaRule("grid2d", **{field: bad})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_manual_value(self, bad):
        with pytest.raises(ValueError, match="finite"):
            T.LambdaRule("manual", value=bad)
