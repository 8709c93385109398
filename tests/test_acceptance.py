"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; the Monte Carlo
criteria use fixed master seeds, so they are deterministic.
"""
import json
import time

import numpy as np
import pytest

from graphtv import cli
from graphtv import experiments as E
from graphtv import graphs as G
from graphtv import haar as H
from graphtv import signals as sig
from graphtv import spectral as S
from graphtv import tvsolver as T


def _report(num: int, started: float, detail: str) -> None:
    print(f"PASS criterion {num} ({time.time() - started:.1f}s): {detail}")


def test_c01_star_rho_exactness():
    t0 = time.time()
    for n in (3, 10, 100):
        expected = np.sqrt((n * n - n) / n**2)
        rho_dense = S.rho_dense(G.incidence(G.build_star(n)))
        # explicit entry formula from the proof
        Sm = np.full((n, n - 1), 1.0 / n)
        for j in range(n - 1):
            Sm[j + 1, j] = -(n - 1) / n
        rho_formula = float(np.linalg.norm(Sm, axis=0).max())
        assert abs(rho_dense - expected) <= 1e-10, n
        assert abs(rho_formula - expected) <= 1e-10, n
        # the dense pseudoinverse itself matches the formula entrywise
        assert np.max(np.abs(S.pseudoinverse_columns_dense(
            G.incidence(G.build_star(n))) - Sm)) <= 1e-10
    assert time.time() - t0 < 1.0
    _report(1, t0, "star rho = sqrt((n^2-n)/n^2) via dense pseudoinverse and entry formula")


def test_c02_complete_rho():
    t0 = time.time()
    worst = 0.0
    for n in range(3, 51):
        rho = S.rho_dense(G.incidence(G.build_complete(n)))
        worst = max(worst, abs(rho * n - np.sqrt(2.0)))
    assert worst <= 1e-9
    assert time.time() - t0 < 5.0
    _report(2, t0, f"rho(K_n) * n = sqrt(2) for n in 3..50 (worst dev {worst:.1e})")


def test_c03_augmented_path():
    t0 = time.time()
    for N in (2, 5, 20):
        Dt = G.build_augmented_path(N)
        inv = np.linalg.inv(Dt.toarray())
        assert np.max(np.abs(inv - np.tril(np.ones((N, N))))) <= 1e-12, N
        rho = S.rho_dense(Dt)
        assert abs(rho - np.sqrt(N)) <= 1e-10, N
    assert time.time() - t0 < 1.0
    _report(3, t0, "augmented-path inverse is the cumulative-sum matrix; rho = sqrt(N)")


def test_c04_grid2d_cross_method_and_log_band():
    t0 = time.time()
    for N in (2, 4, 8, 16):
        dense = S.rho_dense(G.incidence(G.build_grid(2, N)))
        structured = S.rho_structured_grid(2, N)
        assert abs(dense - structured) <= 1e-7, N
    ratios = []
    for N in (8, 16, 32, 64):
        rho = S.rho_structured_grid(2, N)
        ratios.append(rho**2 / np.log(N * N))
    band = max(ratios) / min(ratios)
    assert band <= 3.0
    assert time.time() - t0 < 120.0
    _report(4, t0, f"2D grid structured == dense; rho^2/log(n) band factor {band:.2f} <= 3")


def test_c05_high_dim_and_hypercube():
    t0 = time.time()
    for d in range(1, 11):
        assert S.rho_structured_grid(d, 2) <= 1.0 + 1e-12, d
    rho3 = {N: S.rho_structured_grid(3, N) for N in range(2, 13)}
    assert max(rho3.values()) <= 2.0 * rho3[4]
    assert time.time() - t0 < 120.0
    _report(5, t0, f"hypercube rho <= 1 for d in 1..10; 3D grid max rho "
                   f"{max(rho3.values()):.3f} <= 2 x rho(N=4) = {2 * rho3[4]:.3f}")


def test_c06_cycle_power():
    t0 = time.time()
    for n, k in ((8, 1), (8, 2), (12, 3)):
        vals = np.sort(S.circulant_eigenvalues(n, k))
        D = G.incidence(G.build_cycle_power(n, k))
        oracle = np.linalg.eigvalsh((D.T @ D).toarray())
        assert np.max(np.abs(vals - oracle)) <= 1e-8, (n, k)
    fitted = 0.0
    for n, k in ((64, 1), (64, 2), (64, 4), (256, 2), (256, 4)):
        rho = S.rho_dense(G.incidence(G.build_cycle_power(n, k)))
        fitted = max(fitted, rho / (np.sqrt(n) / k**3 + 1.0))
    assert fitted <= 10.0
    assert time.time() - t0 < 60.0
    _report(6, t0, f"circulant eigenvalues match dense; rho <= C(sqrt(n)/k^3 + 1) "
                   f"with fitted C = {fitted:.2f} <= 10")


def test_c07_kappa():
    t0 = time.time()
    D = G.incidence(G.build_grid(2, 4))
    for e in (0, 5, 11):
        assert abs(S.kappa_exact_bruteforce(D, [e]) - 1 / np.sqrt(2)) <= 1e-12
    Dp = G.incidence(G.build_path(3))
    assert abs(S.kappa_exact_bruteforce(Dp, [0, 1]) - 1 / np.sqrt(3)) <= 1e-12
    rng = np.random.default_rng(7)
    pool = [G.build_path(12), G.build_grid(2, 4), G.build_star(10),
            G.build_complete(8), G.build_cycle_power(12, 2),
            G.build_erdos_renyi(15, 0.3, seed=1),
            G.build_random_regular(12, 3, seed=2)]
    for i in range(100):
        g = pool[i % len(pool)]
        t = int(rng.integers(1, 13))
        T_set = rng.choice(g.m, size=min(t, g.m), replace=False)
        exact = S.kappa_exact_bruteforce(G.incidence(g), T_set)
        bound = S.kappa_lower_bound(G.max_degree(g), len(T_set))
        assert exact >= bound - 1e-12, (g.family, T_set)
    assert time.time() - t0 < 60.0
    _report(7, t0, "kappa oracle: 1/sqrt(2) single edges, 1/sqrt(3) on path-3, "
                   ">= degree bound on 100 random (graph, T) pairs")


def test_c08_solver_correctness():
    t0 = time.time()
    rng = np.random.default_rng(8)
    # 60 random path instances against the taut-string oracle
    for i in range(60):
        n = int(rng.integers(10, 201))
        y = rng.normal(size=n) * float(rng.choice([0.5, 2.0, 10.0]))
        lam = float(10 ** rng.uniform(-3, 0))
        D = G.incidence(G.build_path(n))
        res = T.denoise(T.DenoiseProblem(y, D, lam), T.SolverOptions(tol=1e-8))
        assert res.converged
        o1 = T.objective_value(y, D, lam, res.theta_hat)
        o2 = T.objective_value(y, D, lam, T.denoise_path_exact(y, lam))
        assert abs(o1 - o2) <= 1e-6 * (1 + abs(o2)), (i, n, lam)
    # certificate quality across the stated graph families
    cases = [G.build_path(120), G.build_grid(2, 32), G.build_star(60),
             G.build_complete(50)]
    for g in cases:
        D = G.incidence(g)
        y = rng.normal(size=g.n) * 2 + 10
        scale = 1 + np.max(np.abs(y))
        for lam in (0.002, 0.02, 0.2):
            res = T.denoise(T.DenoiseProblem(y, D, lam))
            assert res.converged, (g.family, lam)
            assert res.stationarity_residual <= 1e-6 * scale
            assert res.dual_feasibility <= 1 + 1e-6
            z, resid = T.kkt_certificate(T.DenoiseProblem(y, D, lam), res.theta_hat)
            assert resid <= 1e-6 * scale, (g.family, lam)
            assert np.max(np.abs(z)) <= 1 + 1e-6
    assert time.time() - t0 < 180.0
    _report(8, t0, "60 path instances match the taut string at rel 1e-6; certificates "
                   "pass at 1e-6 (path, 32x32 grid, star, K_50)")


def _island_curves(policy: str):
    sizes = [100, 200, 400, 800]
    island = {"kind": "island", "params": {"k": 3, "l": 3}}
    kn_cfg = E.ExperimentConfig(
        name=f"acc-kn-{policy}", family="complete", sizes=sizes, signal=island,
        sigma=0.5, trials=50, lambda_policy=policy,
        lambda_rule={"rule": "theorem_general", "delta": 0.1},
        master_seed=20170301)
    er_cfg = E.ExperimentConfig(
        name=f"acc-er-{policy}", family="erdos_renyi",
        family_params={"p": [16 / n for n in sizes]}, sizes=sizes, signal=island,
        sigma=0.5, trials=50, lambda_policy=policy,
        lambda_rule={"rule": "corollary", "delta": 0.1, "constant_c": 2.0},
        master_seed=20170302)
    kn = E.run_experiment(kn_cfg)
    er = E.run_experiment(er_cfg)
    return kn, er


@pytest.mark.slow
def test_c09_island_model_reproduction():
    t0 = time.time()
    details = []
    for policy in ("theoretical", "oracle"):
        kn, er = _island_curves(policy)
        assert all(r.converged for r in kn + er), policy
        power = E.fit_rate(kn, "power_law")
        clogn = E.fit_rate(kn, "c_logn_over_n")
        b = power.params["exponent"]
        assert -1.3 <= b <= -0.7, (policy, b)
        assert clogn.r_squared >= 0.85, (policy, clogn.r_squared)
        mk = E.mean_mse_by(kn)
        me = E.mean_mse_by(er)
        worst_ratio = max(max(me[n] / mk[n], mk[n] / me[n]) for n in mk)
        assert worst_ratio <= 3.0, (policy, worst_ratio)
        details.append(f"{policy}: exponent {b:.2f}, C*log(n)/n r^2 "
                       f"{clogn.r_squared:.3f}, ER/K_n ratio <= {worst_ratio:.2f}")
    assert time.time() - t0 < 900.0
    _report(9, t0, "; ".join(details))


@pytest.mark.slow
def test_c10_kl_linearity():
    t0 = time.time()
    kls = [[k, l] for k in range(2, 6) for l in range(3, 10)]
    cfg = E.ExperimentConfig(
        name="acc-fig3", family="erdos_renyi", family_params={"p": 16 / 100},
        sizes=[100], signal={"kind": "island", "params": {"k": 2, "l": 3}},
        kl_values=kls, sigma=0.5, trials=50, lambda_policy="theoretical",
        lambda_rule={"rule": "corollary", "delta": 0.1, "constant_c": 2.0},
        master_seed=20170303)
    rec = E.run_experiment(cfg)
    res = E.kl_linearity_check(rec)
    assert res.ok
    assert res.correlation >= 0.9
    assert time.time() - t0 < 600.0
    _report(10, t0, f"mean MSE vs k*l Pearson correlation {res.correlation:.3f} >= 0.9")


def test_c11_haar():
    t0 = time.time()
    for N in (2, 4, 8, 16, 32):
        O = H.haar_basis_2d(N)
        assert np.max(np.abs(O.T @ O - np.eye(N * N))) <= 1e-10, N
    rng = np.random.default_rng(11)
    for N in (4, 16, 32):
        x = rng.normal(size=(N, N))
        assert np.max(np.abs(H.inverse_2d(H.haar_transform_2d(x)) - x)) <= 1e-10
    worst = 0.0
    Dg = G.incidence(G.build_grid(2, 16))
    for _ in range(50):
        theta = np.zeros((16, 16))
        for _ in range(int(rng.integers(1, 4))):
            i0, i1 = np.sort(rng.integers(0, 17, size=2))
            j0, j1 = np.sort(rng.integers(0, 17, size=2))
            theta[i0:i1, j0:j1] += rng.normal() * 3
        theta -= theta.mean()
        tv_norm = float(np.abs(Dg @ theta.reshape(-1, order="F")).sum())
        if tv_norm <= 1e-12:
            continue
        c = np.sort(np.abs(H.haar_transform_2d(theta)))[::-1]
        k = np.arange(1, len(c) + 1)
        worst = max(worst, float(np.max(k * c / tv_norm)))
    assert worst <= 10.0
    assert time.time() - t0 < 60.0
    _report(11, t0, f"orthonormal to 1e-10 (N <= 32); exact round-trip; weak-l1 "
                    f"ratio {worst:.2f} <= 10")


@pytest.mark.slow
def test_c12_nonparametric_rate_windows():
    t0 = time.time()
    _, fit_h = E.rate_study_nonparametric("holder", sides=[16, 32, 64, 128],
                                          trials=10, master_seed=513)
    bh = fit_h.params["exponent"]
    assert -0.8 <= bh <= -0.3, bh
    _, fit_pc = E.rate_study_nonparametric("pc", sides=[16, 32, 64, 128],
                                           trials=10, master_seed=513)
    bpc = fit_pc.params["exponent"]
    assert -0.8 <= bpc <= -0.3, bpc
    rec_bi, _ = E.rate_study_nonparametric("bi_isotonic", sides=[32, 64, 128],
                                           trials=10, master_seed=513)
    means = E.mean_mse_by(rec_bi)
    vals = [means[n] for n in sorted(means)]
    assert vals[0] > vals[1] > vals[2], vals
    assert time.time() - t0 < 1200.0
    _report(12, t0, f"Holder exponent {bh:.2f}, piecewise-constant exponent {bpc:.2f} "
                    f"(both in [-0.8, -0.3]); bi-isotonic MSE strictly decreasing "
                    f"{[round(v, 4) for v in vals]}")


def test_c13_determinism(tmp_path):
    t0 = time.time()
    cfg = {
        "name": "det", "family": "complete", "sizes": [30, 60],
        "signal": {"kind": "island", "params": {"k": 2, "l": 3}},
        "sigma": 0.5, "trials": 5, "lambda_policy": "theoretical",
        "lambda_rule": {"rule": "theorem_general", "delta": 0.1},
        "master_seed": 13,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name, threads in (("a", 1), ("b", 2), ("c", 4)):
        out = tmp_path / name
        assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(out),
                         "--threads", str(threads)]) == 0
        outs.append((out / "records.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]
    # re-running from the manifest's resolved config reproduces the bytes
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps(manifest["configs"]))
    out2 = tmp_path / "d"
    assert cli.main(["experiment", "--config", str(cfg2), "--out", str(out2)]) == 0
    assert (out2 / "records.csv").read_bytes() == outs[0]
    assert time.time() - t0 < 120.0
    _report(13, t0, "byte-identical CSV across thread counts 1/2/4 and manifest re-run")
