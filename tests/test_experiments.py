import csv
import io
import json

import numpy as np
import pytest
from test_tvsolver import _count_operator_builds

from graphtv import experiments as E
from graphtv import graphs as G
from graphtv import spectral as S
from graphtv import tvsolver as T


class TestStableMinIndex:
    def test_dip_then_rise(self):
        # monotone decreasing then increasing with the minimum at index 4
        errs = [9, 8, 7, 6, 5, 6.5, 7, 8]
        assert E.stable_min_index(errs) == 4

    def test_strictly_increasing(self):
        assert E.stable_min_index([1, 2, 3, 4, 5]) == 0

    def test_plateau_counts_as_no_improvement(self):
        assert E.stable_min_index([3, 3, 3, 3]) == 0

    def test_short_sequences_are_undecided(self):
        assert E.stable_min_index([5, 4, 3]) is None

    def test_stops_before_later_dip(self):
        # the scan commits to index 0 after three lookahead values
        assert E.stable_min_index([1, 2, 2, 2, 0.1]) == 0


class TestOracleSearch:
    def test_island_search_lands_near_theoretical(self):
        # regression pin: lambda_or within a factor 4 of lambda_th on the
        # island model (K_100, k = l = 3, sigma = 0.5, fixed seed)
        n = 100
        g = G.build_complete(n)
        theta = np.full(n, 50.0)
        theta[:9] = [60, 60, 60, 70, 70, 70, 80, 80, 80]
        noise = np.random.default_rng(99).normal(size=n) * 0.5
        y = theta + noise
        rule = T.LambdaRule("theorem_general", sigma=0.5, delta=0.1)
        lam_th = T.lambda_value(rule, g)
        assert lam_th == pytest.approx(
            0.5 * S.rho_estimate(g) * np.sqrt(2 * np.log(np.e * g.m / 0.1)) / n, rel=1e-12)

        def solve(lam, z0):
            return T.denoise_complete_exact(y, lam), None, True

        res = E.oracle_lambda_search(solve, theta, lam_th)
        assert res.rule_satisfied
        assert lam_th / 4 <= res.lambda_or <= lam_th * 4
        # the picked lambda must be at least as good as its three successors
        j = res.j_star
        assert all(res.errors[j - 1] <= res.errors[j - 1 + i] for i in (1, 2, 3))

    def test_cap_returns_best_so_far(self, monkeypatch):
        # theta* = y and sub-fusion lambdas make the error strictly
        # decreasing, so no candidate ever survives the lookahead
        monkeypatch.setattr(E, "ORACLE_MAX_STEPS", 5)
        y = np.array([0.0, 4.0])
        D = G.incidence(G.build_path(2))

        def solve(lam, z0):
            r = T.denoise(T.DenoiseProblem(y, D, lam), T.SolverOptions(z0=z0))
            return r.theta_hat, r.dual_z, r.converged

        res = E.oracle_lambda_search(solve, y, 0.05)
        assert not res.rule_satisfied
        assert len(res.errors) == 5
        assert res.j_star == 5  # best-so-far is the last (smallest) lambda


def tiny_config(**overrides):
    base = dict(
        name="tiny", family="complete", sizes=[20, 40],
        signal={"kind": "island", "params": {"k": 2, "l": 2}},
        sigma=0.5, trials=4, estimators=("tv", "identity"),
        lambda_policy="theoretical",
        lambda_rule={"rule": "theorem_general", "delta": 0.1},
        master_seed=5,
    )
    base.update(overrides)
    return E.ExperimentConfig(**base)


class TestRunExperiment:
    def test_record_count_and_grouping(self):
        cfg = tiny_config()
        rec = E.run_experiment(cfg)
        assert len(rec) == 2 * 4 * 2  # sizes x trials x estimators
        assert all(r.converged for r in rec)
        assert {r.estimator for r in rec} == {"tv", "identity"}

    def test_deterministic_given_seed(self):
        a = E.run_experiment(tiny_config())
        b = E.run_experiment(tiny_config())
        assert a == b
        c = E.run_experiment(tiny_config(master_seed=6))
        assert a != c

    def test_thread_count_does_not_change_records(self):
        a = E.run_experiment(tiny_config())
        b = E.run_experiment(tiny_config(), threads=2)
        assert a == b

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            E.run_experiment(tiny_config(), threads=threads)

    @pytest.mark.parametrize("threads, cpus, workers", [
        (64, 4, 4), (64, 16, 8), (3, 16, 3), (2, 1, None), (8, None, None),
    ])
    def test_workers_capped_at_cells_and_cpus(self, monkeypatch, threads, cpus, workers):
        # an in-process stand-in for the pool records the worker count it is asked for
        import concurrent.futures
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(E.os, "cpu_count", lambda: cpus)
        cfg = tiny_config()  # 2 sizes x 4 trials = 8 cells
        assert E.run_experiment(cfg, threads=threads) == E.run_experiment(cfg)
        assert seen == ([] if workers is None else [workers])

    @pytest.mark.parametrize("policy", ["theoretical", "oracle"])
    def test_complete_family_builds_no_incidence(self, policy, monkeypatch):
        # the exact solver and the closed-form rho never read D
        calls = []
        monkeypatch.setattr(E.G, "incidence", lambda g: calls.append(g.family))
        rec = E.run_experiment(tiny_config(lambda_policy=policy, trials=2))
        assert all(r.converged for r in rec)
        assert calls == []

    def test_grid_cells_build_one_operator(self, monkeypatch):
        # the cached grid keeps its incidence matrix and step bound across cells
        calls = _count_operator_builds(monkeypatch)
        E._fixed_graph.cache_clear()
        cfg = tiny_config(family="grid2d", sizes=[6], trials=3, estimators=("tv",),
                          signal={"kind": "grid_function", "params": {"name": "pc_halfplane"}},
                          lambda_rule={"rule": "corollary", "delta": 0.1})
        assert all(r.converged for r in E.run_experiment(cfg))
        assert calls == {"incidence": 1, "operator_norm": 1}

    def test_cells_read_the_theta_realized_at_load(self, monkeypatch):
        cfg = tiny_config(kl_values=[[2, 2], [3, 1]])
        expected = E.run_experiment(cfg)
        assert [len(row) for row in cfg._theta] == [2, 2]
        monkeypatch.setattr(E, "_signal_for", None)  # the cells never call it
        assert E.run_experiment(cfg) == expected

    def test_sigma_zero_lambda_zero_gives_zero_mse(self):
        cfg = tiny_config(sigma=0.0, estimators=("tv",),
                          lambda_rule={"rule": "manual", "value": 0.0})
        rec = E.run_experiment(cfg)
        assert all(r.mse == 0.0 for r in rec)

    def test_sigma_zero_theoretical_rule_gives_zero_mse(self):
        cfg = tiny_config(sigma=0.0, estimators=("tv",),
                          lambda_rule={"rule": "theorem_general", "delta": 0.1})
        rec = E.run_experiment(cfg)
        assert all(r.mse == 0.0 for r in rec)

    def test_identity_estimator_matches_chi_square_mean(self):
        cfg = tiny_config(sizes=[100], trials=50, estimators=("identity",))
        rec = E.run_experiment(cfg)
        mses = np.array([r.mse for r in rec])
        sigma2 = 0.25
        # chi-square concentration: 3 sigma^2 sqrt(2 / (n * trials))
        assert abs(mses.mean() - sigma2) <= 3 * sigma2 * np.sqrt(2 / (100 * 50))

    def test_island_kl_sweep(self):
        cfg = tiny_config(sizes=[30], kl_values=[[2, 2], [2, 4], [3, 3]],
                          estimators=("tv",))
        rec = E.run_experiment(cfg)
        assert len(rec) == 3 * 4
        assert {(r.k, r.l) for r in rec} == {(2, 2), (2, 4), (3, 3)}

    def test_grid_family_with_haar(self):
        cfg = tiny_config(family="grid2d", sizes=[8],
                          signal={"kind": "grid_function",
                                  "params": {"name": "pc_halfplane", "height": 5.0}},
                          estimators=("tv", "haar", "identity"),
                          lambda_rule={"rule": "corollary", "delta": 0.1},
                          trials=2)
        rec = E.run_experiment(cfg)
        assert len(rec) == 6
        assert all(r.n == 64 for r in rec)

    @pytest.mark.parametrize("change, key", [
        ({"trails": 1, "zzz": 2}, "trails"),
        ({"oracle_beta": 0.7}, "oracle_beta"),  # retired: the grid ratio is ORACLE_BETA
        ({"lambda_rule": {"rule": "theorem_general", "delat": 0.5}}, "delat"),
        ({"lambda_rule": {"rule": "corollary", "degree": 8.0}}, "degree"),
    ])
    def test_unknown_key_is_an_error(self, change, key):
        d = {**tiny_config().to_json_dict(), **change}
        with pytest.raises(ValueError, match=f"unknown .*key '{key}'"):
            E.ExperimentConfig.from_json_dict(d)

    @pytest.mark.parametrize("family, size, signal, match", [
        ("grid2d", 4, {"kind": "grid_function", "params": {"height": 1.0}},
         r"grid_function signal needs params\['name'\]"),
        ("grid2d", 4, {"kind": "grid_function", "params": {"name": "pc_halfplane", "heigth": 1}},
         "grid_function signal params .*'heigth'"),
        ("grid2d", 4, {"kind": "bi_isotonic", "params": {}},
         r"bi_isotonic signal needs params\['variation_sqrt'\]"),
        ("complete", 20, {"kind": "custom", "params": {"vector": [1.0, 2.0, 3.0]}},
         r"custom signal has shape \(3,\) at size 20, but the complete graph has 20 vertices"),
        ("complete", 20, {"kind": "grid_function", "params": {"name": "pc_halfplane"}},
         r"grid_function signal has shape \(400,\)"),
        ("grid2d", 2, {"kind": "custom", "params": {"vector": [1.0, float("nan"), 0.0, 0.0]}},
         "custom signal has values that are not finite"),
        ("complete", 20, {"kind": "island", "params": {"k": 5, "l": 5}}, r"k\*l <= n"),
    ])
    def test_bad_signal_fails_at_load(self, family, size, signal, match):
        with pytest.raises(ValueError, match=match):
            tiny_config(family=family, sizes=[size], signal=signal,
                        lambda_rule={"rule": "manual", "value": 0.1})

    def test_kl_values_need_an_island_signal(self):
        with pytest.raises(ValueError, match="kl_values sweeps island shapes"):
            tiny_config(family="grid2d", sizes=[4], kl_values=[[1, 2], [2, 3]],
                        signal={"kind": "grid_function", "params": {"name": "pc_halfplane"}},
                        lambda_rule={"rule": "corollary"})

    def test_config_json_roundtrip(self):
        cfg = tiny_config()
        back = E.ExperimentConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
        assert back == cfg


class TestFitRate:
    def test_exact_c_logn_over_n(self):
        recs = [E.ExperimentRecord("complete", n, None, None, "tv", "theoretical",
                                   0.0, t, 0, 7.0 * np.log(n) / n, True)
                for n in (50, 100, 200, 400) for t in range(3)]
        fit = E.fit_rate(recs, "c_logn_over_n")
        assert fit.params["C"] == pytest.approx(7.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_exact_power_law(self):
        recs = [E.ExperimentRecord("complete", n, None, None, "tv", "theoretical",
                                   0.0, 0, 0, n ** -0.5, True)
                for n in (50, 100, 200, 400)]
        fit = E.fit_rate(recs, "power_law")
        assert fit.params["exponent"] == pytest.approx(-0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_needs_two_sizes(self):
        recs = [E.ExperimentRecord("complete", 10, None, None, "tv", "theoretical",
                                   0.0, 0, 0, 1.0, True)]
        with pytest.raises(ValueError):
            E.fit_rate(recs, "power_law")


class TestKlLinearity:
    def test_synthetic_linear(self):
        recs = [E.ExperimentRecord("erdos_renyi", 100, k, l, "tv", "theoretical",
                                   0.0, t, 0, 0.01 * k * l, True)
                for k in (2, 3) for l in (3, 4, 5) for t in range(2)]
        res = E.kl_linearity_check(recs)
        assert res.ok
        assert res.correlation == pytest.approx(1.0)

    def test_constant_flagged(self):
        recs = [E.ExperimentRecord("erdos_renyi", 100, k, l, "tv", "theoretical",
                                   0.0, 0, 0, 0.5, True)
                for k in (2, 3) for l in (3, 4)]
        res = E.kl_linearity_check(recs)
        assert not res.ok
        assert np.isnan(res.correlation)


class TestOutputs:
    def test_csv_schema_and_quoting(self):
        rec = E.run_experiment(tiny_config(trials=2))
        text = E.records_to_csv(rec)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == E.CSV_HEADER
        assert len(rows) == 1 + len(rec)
        # round-trip one float field exactly
        assert float(rows[1][9]) == rec[0].mse
        assert rows[1][10] in ("true", "false")

    def test_json_mirror(self):
        rec = E.run_experiment(tiny_config(trials=2))
        data = json.loads(E.records_to_json(rec))
        assert len(data) == len(rec)
        assert set(data[0]) == set(E.CSV_HEADER)

    def test_write_records_and_plot_data(self, tmp_path):
        rec = E.run_experiment(tiny_config(trials=2))
        E.write_records(tmp_path, rec)
        assert (tmp_path / "records.csv").exists()
        assert (tmp_path / "records.json").exists()
        ns, means, errs = E.summarize_for_plot(rec)
        fit = E.fit_rate(rec, "power_law")
        E.write_plot_data(tmp_path / "fig.tsv", ns, means, errs, fit=fit)
        lines = (tmp_path / "fig.tsv").read_text().splitlines()
        assert lines[0] == "x\ty\tyerr"
        assert len(lines) == 1 + len(ns)
        sidecar = json.loads((tmp_path / "fig.fit.json").read_text())
        assert sidecar["model"] == "power_law"

    def test_presets_exist(self):
        for name in ("island-fig2", "island-fig3", "holder-2d", "cartoon-2d",
                     "isotonic-2d"):
            cfgs = E.preset_configs(name)
            assert cfgs and all(isinstance(c, E.ExperimentConfig) for c in cfgs)
        with pytest.raises(ValueError):
            E.preset_configs("nope")


class TestRhoEstimate:
    def test_complete_closed_form(self):
        g = G.build_complete(40)
        assert S.rho_estimate(g) == pytest.approx(np.sqrt(2) / 40, abs=1e-12)

    def test_er_uses_exact_dense_rho(self):
        g = G.build_erdos_renyi(30, 0.4, seed=1)
        assert S.rho_estimate(g) == pytest.approx(S.rho_dense(G.incidence(g)), abs=1e-10)

    def test_grid_structured(self):
        g = G.build_grid(2, 6)
        assert S.rho_estimate(g) == pytest.approx(S.rho_structured_grid(2, 6), abs=1e-12)
