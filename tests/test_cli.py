import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from test_spectral import _rho_independent

from graphtv import cli
from graphtv import graphs as G
from graphtv import spectral as spec
from graphtv import tvsolver as T


def run(argv):
    return cli.main(argv)


class TestVectorIO:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "v.txt"
        v = np.array([1.5, -2.0, 3.25])
        cli.write_vector(p, v, comment="hello")
        assert np.array_equal(cli.read_vector(p), v)

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("# c\n1.0\n\n2.0 # inline\n")
        assert np.array_equal(cli.read_vector(p), [1.0, 2.0])


class TestSpectralCommand:
    def test_star_value(self, tmp_path):
        out = tmp_path / "star.json"
        assert run(["spectral", "--graph", "star", "--n", "10",
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["rho"] == pytest.approx(np.sqrt(0.9), abs=1e-10)
        assert rep["family"] == "star"
        assert (tmp_path / "manifest.json").exists()

    def test_hypercube_structured(self, tmp_path):
        out = tmp_path / "hc.json"
        assert run(["spectral", "--graph", "hypercube", "--d", "8",
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["rho"] <= 1.0
        assert rep["rho_method"] == "eigensum_structured"

    def test_augmented_path(self, tmp_path):
        out = tmp_path / "aug.json"
        assert run(["spectral", "--graph", "path", "--n", "5", "--augmented",
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["rho"] == pytest.approx(np.sqrt(5), abs=1e-9)
        assert rep["family"] == "augmented_path"

    @pytest.mark.parametrize("graph", [["--graph", "grid", "--d", "2", "--N", "3"],
                                       ["--graph", "star", "--n", "5"]])
    def test_augmented_off_the_path_is_usage_error(self, tmp_path, capsys, graph):
        out = tmp_path / "out" / "x.json"
        assert run(["spectral", *graph, "--augmented", "--out", str(out)]) == 2
        assert "--augmented needs --graph path" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_custom_graph(self, tmp_path):
        edges = tmp_path / "g.txt"
        edges.write_text("1 2\n2 3\n1 3\n")
        out = tmp_path / "tri.json"
        assert run(["spectral", "--graph", "custom", "--edges", str(edges),
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["n"] == 3 and rep["m"] == 3

    def test_disconnected_custom_graph_dense(self, tmp_path):
        edges = tmp_path / "g.txt"
        edges.write_text("1 2\n2 3\n4 5\n")  # two components and an isolated vertex 6
        out = tmp_path / "two.json"
        assert run(["spectral", "--graph", "custom", "--edges", str(edges), "--n", "6",
                    "--method", "dense", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["lambda2"] == 0.0 and rep["rho_method"] == "dense_pseudoinverse"
        assert np.isfinite(rep["rho"])

    def test_dense_rho_matches_lstsq(self, tmp_path):
        # the minimum-norm lstsq reference shares no code with the CLI's route
        out = tmp_path / "er.json"
        assert run(["spectral", "--graph", "erdos-renyi", "--n", "200", "--p", "0.05",
                    "--method", "dense", "--out", str(out)]) == 0
        rho = json.loads(out.read_text())["rho"]
        ref = _rho_independent(G.build_erdos_renyi(200, 0.05, seed=0))
        assert rho == pytest.approx(ref, rel=1e-9)

    def test_missing_flag_is_usage_error(self, tmp_path):
        assert run(["spectral", "--graph", "star", "--out",
                    str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("extra", [[], ["--augmented"]])
    def test_dense_size_cap_is_usage_error(self, tmp_path, monkeypatch, extra):
        # a small cap stands in for a size whose dense Laplacian cannot fit
        monkeypatch.setattr(spec, "DENSE_SIZE_CAP", 8)
        out = tmp_path / "x.json"
        assert run(["spectral", "--graph", "path", "--n", "9", "--method", "dense",
                    "--out", str(out)] + extra) == 2
        assert not out.exists()

    @pytest.mark.parametrize("family", ["complete", "star"])
    def test_closed_form_past_the_dense_cap(self, tmp_path, monkeypatch, family):
        monkeypatch.setattr(spec, "DENSE_SIZE_CAP", 8)
        out = tmp_path / "x.json"
        assert run(["spectral", "--graph", family, "--n", "9", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["rho_method"] == "closed_form"

    def test_complete_edge_cap_is_usage_error(self, tmp_path, monkeypatch):
        # a small cap stands in for K_n with n(n-1)/2 past SIZE_CAP (K_20 has 190 edges)
        monkeypatch.setattr(G, "SIZE_CAP", 189)
        out = tmp_path / "x.json"
        assert run(["spectral", "--graph", "complete", "--n", "20", "--out", str(out)]) == 2
        assert not out.exists()

    def test_generation_failure_is_numerical_error(self, tmp_path):
        # p far below the connectivity threshold exhausts the retry budget
        assert run(["spectral", "--graph", "erdos-renyi", "--n", "60",
                    "--p", "0.001", "--seed", "0",
                    "--out", str(tmp_path / "x.json")]) == 3


    def test_custom_graph_size_cap_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # refused from the edge list's counts, before any spectral work
        def no_report(*args, **kwargs):
            raise AssertionError("spectral work on an oversized graph")
        monkeypatch.setattr(spec, "spectral_report", no_report)
        (tmp_path / "e.txt").write_text("1 2\n2 3\n")
        out = tmp_path / "out" / "x.json"
        assert run(["spectral", "--graph", "custom", "--edges", str(tmp_path / "e.txt"),
                    "--n", "2000000000", "--out", str(out)]) == 2
        assert "past the supported" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_memory_error_is_numerical_error(self, tmp_path, monkeypatch, capsys):
        def out_of_memory(n):
            raise MemoryError
        monkeypatch.setattr(G, "build_path", out_of_memory)
        assert run(["spectral", "--graph", "path", "--n", "10",
                    "--out", str(tmp_path / "x.json")]) == 3
        assert capsys.readouterr().err == "graphtv: out of memory\n"


class TestFamilyFlags:
    def test_graph_choices_are_the_family_table(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        for command in ("spectral", "denoise"):
            graph = next(a for a in sub.choices[command]._actions if a.dest == "graph")
            assert graph.choices == [f.replace("_", "-") for f in G.FAMILIES] + ["custom"]

    # every required flag but --seed, which defaults to 0
    FLAGS = {"n": "12", "d": "3", "N": "4", "k": "2", "p": "0.5"}

    @pytest.mark.parametrize("family, name", [(f, name) for f, (_, req) in G.FAMILIES.items()
                                              for name in req if name != "seed"])
    def test_missing_flag_is_usage_error(self, tmp_path, capsys, family, name):
        _, required = G.FAMILIES[family]
        flags = [x for r in required if r in self.FLAGS and r != name
                 for x in (f"--{r}", self.FLAGS[r])]
        out = tmp_path / "out" / "x.json"
        assert run(["spectral", "--graph", family.replace("_", "-"), *flags,
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"graphtv: missing required flag --{name}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["--graph", "custom"],
                                      ["--graph", "path", "--augmented"]])
    def test_missing_flag_outside_the_table(self, tmp_path, capsys, argv):
        assert run(["spectral", *argv, "--out", str(tmp_path / "out" / "x.json")]) == 2
        assert capsys.readouterr().err.startswith("graphtv: missing required flag --")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["spectral", "--graph", "grid", "--d", "2", "--N", "4", "--method", "structured"],
        ["denoise", "--graph", "path", "--n", "4", "--y", "y.txt", "--lambda-rule", "manual",
         "--lambda-value", "0.1"],
        ["denoise", "--graph", "grid", "--d", "2", "--N", "4", "--y", "y.txt",
         "--lambda-rule", "grid2d"],
    ], ids=["method-structured", "lambda-rule-manual", "lambda-rule-grid2d"])
    def test_retired_choices_are_usage_errors(self, tmp_path, capsys, argv):
        # auto already takes the eigensum wherever it applies; --lambda-value sets
        # lambda; the corollary rule reads the family from the graph
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--out", str(tmp_path / "out" / "x")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestDenoiseCommand:
    def _write_y(self, tmp_path, y):
        p = tmp_path / "y.txt"
        cli.write_vector(p, y)
        return p

    def test_lambda_zero_passthrough(self, tmp_path):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        yp = self._write_y(tmp_path, y)
        out = tmp_path / "theta.txt"
        assert run(["denoise", "--graph", "path", "--n", "4", "--y", str(yp),
                    "--lambda-value", "0", "--out", str(out)]) == 0
        assert np.array_equal(cli.read_vector(out), y)

    def test_huge_lambda_constant(self, tmp_path):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        yp = self._write_y(tmp_path, y)
        out = tmp_path / "theta.txt"
        assert run(["denoise", "--graph", "path", "--n", "4", "--y", str(yp),
                    "--lambda-value", "1e6", "--out", str(out)]) == 0
        theta = cli.read_vector(out)
        assert np.max(np.abs(theta - 2.5)) <= 1e-6

    def test_oracle_mode_matches_solver_objective(self, tmp_path):
        # the path and the 1-D grid take the taut string with or without
        # --oracle; both match the iterative solver on the same problem
        rng = np.random.default_rng(4)
        y = rng.normal(size=30) * 2
        yp = self._write_y(tmp_path, y)
        problem = T.DenoiseProblem(y, G.incidence(G.build_path(30)), 0.08)
        ref = T.denoise(problem, T.SolverOptions(tol=1e-9))
        for graph in (["--graph", "path", "--n", "30"],
                      ["--graph", "grid", "--d", "1", "--N", "30"]):
            args = ["denoise", *graph, "--y", str(yp), "--lambda-value", "0.08",
                    "--tol", "1e-9"]
            for extra in ([], ["--oracle", "taut-string"]):
                out = tmp_path / f"theta{len(extra)}.txt"
                assert run(args + extra + ["--out", str(out)]) == 0
                theta = cli.read_vector(out)
                assert np.array_equal(theta, T.denoise_path_exact(y, 0.08))
                obj = T.objective_value(y, problem.D, 0.08, theta)
                assert abs(obj - ref.objective) <= 1e-6 * (1 + abs(ref.objective))
                rep = json.loads(out.with_suffix(".txt.report.json").read_text())
                assert rep["solver"] == "taut_string" and rep["duality_gap"] is None

    def test_complete_graph_takes_the_exact_route(self, tmp_path, monkeypatch):
        def no_incidence(g):
            raise AssertionError("incidence built")
        monkeypatch.setattr(G, "incidence", no_incidence)
        y = np.random.default_rng(7).normal(size=50)
        yp = self._write_y(tmp_path, y)
        out = tmp_path / "theta.txt"
        assert run(["denoise", "--graph", "complete", "--n", "50", "--y", str(yp),
                    "--sigma", "1", "--out", str(out)]) == 0
        rep = json.loads((tmp_path / "theta.txt.report.json").read_text())
        assert np.array_equal(cli.read_vector(out), T.denoise_complete_exact(y, rep["lambda"]))
        assert rep["solver"] == "sort_isotonic" and rep["converged"] is True
        assert rep["duality_gap"] is None and rep["iterations"] == 0
        assert set(rep) == {"lambda", "iterations", "stationarity_residual",
                            "dual_feasibility", "objective", "converged", "duality_gap",
                            "solver"}

    def test_complete_graph_reads_no_edge_list(self, tmp_path, monkeypatch):
        # K_3000 has 4.5M edges; neither command reads them
        def no_edges(g):
            raise AssertionError("edge list built")
        monkeypatch.setattr(G.Graph, "edges", property(no_edges))
        yp = self._write_y(tmp_path, np.random.default_rng(8).normal(size=3000))
        out = tmp_path / "theta.txt"
        assert run(["denoise", "--graph", "complete", "--n", "3000", "--y", str(yp),
                    "--sigma", "1", "--out", str(out)]) == 0
        assert run(["spectral", "--graph", "complete", "--n", "3000",
                    "--out", str(tmp_path / "k.json")]) == 0
        assert json.loads((tmp_path / "k.json").read_text())["m"] == 3000 * 2999 // 2

    def test_taut_string_certificate_sets_converged(self, tmp_path, monkeypatch):
        yp = self._write_y(tmp_path, np.array([0.0, 4.0, 1.0]))
        out = tmp_path / "theta.txt"
        args = ["denoise", "--graph", "path", "--n", "3", "--y", str(yp),
                "--lambda-value", "0.5", "--oracle", "taut-string", "--out", str(out)]
        assert run(args) == 0
        monkeypatch.setattr(T, "_path_certificate",
                            lambda y, lam, theta: (np.zeros(2), 1.0, 0.0, 0.0))
        assert run(args) == 3
        rep = json.loads((tmp_path / "theta.txt.report.json").read_text())
        assert rep["converged"] is False and rep["stationarity_residual"] == 1.0

    def test_report_sidecar(self, tmp_path):
        yp = self._write_y(tmp_path, np.array([0.0, 4.0]))
        out = tmp_path / "theta.txt"
        assert run(["denoise", "--graph", "path", "--n", "2", "--y", str(yp),
                    "--lambda-value", "1.0", "--out", str(out)]) == 0
        rep = json.loads((tmp_path / "theta.txt.report.json").read_text())
        assert rep["converged"] is True
        assert rep["dual_feasibility"] <= 1 + 1e-9

    def test_report_carries_gap_and_fusion(self, tmp_path):
        # a noisy two-level image: the dual-fused candidate certifies it
        y = np.repeat([0.0, 3.0], 72) + np.random.default_rng(6).normal(size=144) * 0.3
        yp = self._write_y(tmp_path, y)
        out = tmp_path / "theta.txt"
        assert run(["denoise", "--graph", "grid", "--d", "2", "--N", "12", "--y", str(yp),
                    "--lambda-value", "0.05", "--tol", "1e-6", "--out", str(out)]) == 0
        rep = json.loads((tmp_path / "theta.txt.report.json").read_text())
        theta = cli.read_vector(out)
        fit = float(np.mean((theta - y) ** 2))
        assert 0.0 <= rep["duality_gap"] <= 1e-6 * (1 + fit)
        # the fused estimate is flat on whole pieces, so some edges are exactly 0
        assert np.any(G.incidence(G.build_grid(2, 12)) @ theta == 0.0)

    def test_nonconvergence_exit_code(self, tmp_path):
        rng = np.random.default_rng(5)
        yp = self._write_y(tmp_path, rng.normal(size=36))
        out = tmp_path / "theta.txt"
        code = run(["denoise", "--graph", "grid", "--d", "2", "--N", "6",
                    "--y", str(yp), "--lambda-value", "0.05",
                    "--tol", "1e-13", "--max-iter", "10", "--out", str(out)])
        assert code == 3

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    @pytest.mark.parametrize("oracle", [[], ["--oracle", "taut-string"]])
    def test_non_finite_lambda_is_usage_error(self, tmp_path, lam, oracle):
        yp = self._write_y(tmp_path, np.array([1.0, 2.0, 3.0, 4.0]))
        out = tmp_path / "theta.txt"
        assert run(["denoise", "--graph", "path", "--n", "4", "--y", str(yp),
                    "--lambda-value", lam, "--out", str(out)] + oracle) == 2
        assert not out.exists()
        assert not (tmp_path / "theta.txt.report.json").exists()

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    @pytest.mark.parametrize("route", [["--graph", "path", "--n", "4"],
                                       ["--graph", "path", "--n", "4", "--oracle", "taut-string"],
                                       ["--graph", "complete", "--n", "4"],
                                       ["--graph", "star", "--n", "4"]])
    def test_bad_tol_is_usage_error(self, tmp_path, tol, route):
        yp = self._write_y(tmp_path, np.array([1.0, 2.0, 3.0, 4.0]))
        out = tmp_path / "theta.txt"
        assert run(["denoise", *route, "--y", str(yp), "--lambda-value", "0.1",
                    "--tol", tol, "--out", str(out)]) == 2
        assert not out.exists()

    def test_non_finite_sigma_is_usage_error(self, tmp_path):
        yp = self._write_y(tmp_path, np.zeros(4))
        assert run(["denoise", "--graph", "path", "--n", "4", "--y", str(yp),
                    "--lambda-rule", "theorem_general", "--sigma", "nan",
                    "--out", str(tmp_path / "t.txt")]) == 2

    @pytest.mark.parametrize("graph", [["--graph", "path", "--n", "4"],
                                       ["--graph", "path", "--n", "4", "--augmented"],
                                       ["--graph", "complete", "--n", "4"]])
    def test_rule_without_sigma_is_usage_error(self, tmp_path, capsys, graph):
        # the rules scale with the noise level, which has no default
        yp = self._write_y(tmp_path, np.zeros(4))
        out = tmp_path / "out" / "t.txt"
        assert run(["denoise", *graph, "--y", str(yp), "--lambda-rule", "theorem_general",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "graphtv: missing required flag --sigma (or set --lambda-value)\n")
        assert not (tmp_path / "out").exists()

    def test_length_mismatch(self, tmp_path):
        yp = self._write_y(tmp_path, np.array([1.0, 2.0]))
        assert run(["denoise", "--graph", "path", "--n", "3", "--y", str(yp),
                    "--lambda-value", "1", "--out", str(tmp_path / "t.txt")]) == 2

    def test_augmented_rule_fails_before_spectral_work(self, tmp_path, monkeypatch, capsys):
        def no_spectrum(D):
            raise RuntimeError("dense spectrum computed")
        monkeypatch.setattr(spec, "_dense_spectrum", no_spectrum)
        yp = self._write_y(tmp_path, np.zeros(4))
        assert run(["denoise", "--graph", "path", "--n", "4", "--augmented", "--y", str(yp),
                    "--sigma", "1", "--out", str(tmp_path / "t.txt")]) == 2
        assert "needs a graph" in capsys.readouterr().err

    def test_cycle_power_rule_off_cycle_power_is_usage_error(self, tmp_path, capsys):
        # the family rules are retired choices; the corollary rule reads the family
        yp = self._write_y(tmp_path, np.zeros(16))
        out = tmp_path / "out" / "theta.txt"
        with pytest.raises(SystemExit) as exc:
            run(["denoise", "--graph", "grid", "--d", "2", "--N", "4", "--y", str(yp),
                 "--lambda-rule", "cycle_power", "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'cycle_power'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("graph, what", [
        (["--graph", "path", "--n", "16"], "path graph"),
        (["--graph", "grid", "--d", "1", "--N", "16"], "1-D grid"),
        (["--graph", "custom", "--edges", "edges.txt"], "custom graph"),
    ], ids=["path", "grid-1d", "custom"])
    def test_corollary_off_its_families_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                         graph, what):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "edges.txt").write_text("".join(f"{i} {i + 1}\n" for i in range(1, 16)))
        yp = self._write_y(tmp_path, np.zeros(16))
        out = tmp_path / "out" / "theta.txt"
        assert run(["denoise", *graph, "--y", str(yp), "--lambda-rule", "corollary",
                    "--sigma", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"graphtv: the corollary rule has no lambda for a {what}; use the theorem_general "
            "rule or set lambda directly (--lambda-value)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("graph, family_lambda", [
        (["--graph", "grid", "--d", "2", "--N", "4"],
         lambda n: np.sqrt(np.log(n) * np.log(np.e * n / 0.1)) / n),
        (["--graph", "star", "--n", "16"], lambda n: np.sqrt(np.log(np.e * n / 0.1)) / n),
        (["--graph", "complete", "--n", "16"],
         lambda n: np.sqrt(np.log(np.e * n / 0.1)) / (n * n)),
    ], ids=["grid2d", "star", "complete"])
    def test_corollary_reads_the_family(self, tmp_path, graph, family_lambda):
        yp = self._write_y(tmp_path, np.zeros(16))
        out = tmp_path / "theta.txt"
        assert run(["denoise", *graph, "--y", str(yp), "--lambda-rule", "corollary",
                    "--sigma", "0.5", "--out", str(out)]) == 0
        rep = json.loads((tmp_path / "theta.txt.report.json").read_text())
        assert rep["lambda"] == pytest.approx(0.5 * family_lambda(16), rel=1e-12)

    def test_oracle_requires_path(self, tmp_path):
        yp = self._write_y(tmp_path, np.zeros(4))
        assert run(["denoise", "--graph", "grid", "--d", "2", "--N", "2",
                    "--y", str(yp), "--lambda-value", "1",
                    "--oracle", "taut-string", "--out", str(tmp_path / "t.txt")]) == 2


class TestExperimentCommand:
    CFG = {
        "name": "tiny", "family": "complete", "sizes": [20, 40],
        "signal": {"kind": "island", "params": {"k": 2, "l": 2}},
        "sigma": 0.5, "trials": 3,
        "lambda_policy": "theoretical",
        "lambda_rule": {"rule": "theorem_general", "delta": 0.1},
        "master_seed": 5,
    }

    def test_config_run_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CFG))
        out = tmp_path / "run"
        assert run(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "records.csv").exists()
        assert (out / "records.json").exists()
        assert (out / "tiny.tsv").exists()
        assert (out / "tiny.fit.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["configs"][0]["master_seed"] == 5
        assert manifest["configs"][0]["trials"] == 3
        assert manifest["configs"][0]["estimators"] == ["tv"]  # defaults materialized

    def test_byte_identical_across_thread_counts(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CFG))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["experiment", "--config", str(cfg), "--out", str(a),
                    "--threads", "1"]) == 0
        assert run(["experiment", "--config", str(cfg), "--out", str(b),
                    "--threads", "3"]) == 0
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()

    def test_rerun_from_manifest_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CFG))
        a = tmp_path / "a"
        assert run(["experiment", "--config", str(cfg), "--out", str(a)]) == 0
        manifest = json.loads((a / "manifest.json").read_text())
        cfg2 = tmp_path / "cfg2.json"
        cfg2.write_text(json.dumps(manifest["configs"]))
        b = tmp_path / "b"
        assert run(["experiment", "--config", str(cfg2), "--out", str(b)]) == 0
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()

    def test_sigma_zero_all_zero_mse(self, tmp_path):
        cfg_d = dict(self.CFG, sigma=0.0,
                     lambda_rule={"rule": "manual", "value": 0.0}, name="zero")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_d))
        out = tmp_path / "run"
        assert run(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "records.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[9] == "0.0" for row in rows)

    @pytest.mark.parametrize("change, rule, graph", [
        ({}, "theorem_general", G.build_complete(20)),
        ({"family": "grid", "family_params": {"d": 2}, "sizes": [5],
          "lambda_rule": {"rule": "corollary"},
          "signal": {"kind": "grid_function", "params": {"name": "pc_halfplane"}}},
         "corollary", G.build_grid(2, 5)),
    ], ids=["default-rule", "corollary"])
    def test_lambda_reads_the_config_sigma(self, tmp_path, change, rule, graph):
        d = {k: v for k, v in self.CFG.items() if k != "lambda_rule"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**d, "sigma": 2.0, "sizes": [20], "trials": 1, **change}))
        out = tmp_path / "run"
        assert run(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        lam = T.lambda_value(T.LambdaRule(rule, sigma=2.0, delta=0.1), graph)
        rows = (out / "records.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[6]) for row in rows] == [lam]
        manifest = json.loads((out / "manifest.json").read_text())
        assert "sigma" not in manifest["configs"][0]["lambda_rule"]

    def test_hypercube_island_study(self, tmp_path):
        # a rate study on a family outside the presets is a config: sizes fill d
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CFG, "name": "cube", "family": "hypercube",
                                   "sizes": [4, 5, 6], "trials": 2,
                                   "lambda_rule": {"rule": "corollary", "delta": 0.1}}))
        out = tmp_path / "run"
        assert run(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO((out / "records.csv").read_text())))
        assert [(row["family"], int(row["n"])) for row in rows] == [
            ("hypercube", n) for n in (16, 16, 32, 32, 64, 64)]
        for row in rows:
            n = int(row["n"])
            assert float(row["lambda_value"]) == pytest.approx(
                0.5 * np.sqrt(np.log(np.e * n / 0.1)) / n, rel=1e-12)
            assert row["converged"] == "true"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["configs"][0]["family"] == "hypercube"
        assert (out / "cube.fit.json").exists()

    def test_needs_config_or_preset(self, tmp_path):
        assert run(["experiment", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("change", [
        {"family": "hexagonal"},
        {"family": "erdos_renyi"},  # no family_params["p"]: sizes fill n or p, not both
        {"family": "random_regular", "family_params": {"p": 0.2}},
        {"signal": {"params": {"k": 2, "l": 2}}},
        {"signal": {"kind": "wave"}},
        {"estimators": ["tv", "lasso"]},
        {"estimators": ["haar"]},  # haar needs the 2-D grid
        {"trails": 1},
        {"oracle_beta": 0.7},
        {"lambda_rule": {"rule": "theorem_general", "delat": 0.5}},
        {"lambda_rule": {"rule": "nope"}},
        {"sizes": [1]},
        {"sigma": float("nan")},
        {"sigma": -1.0},
        {"family": "erdos_renyi", "family_params": {"p": -0.2}},
        {"family": "random_regular", "family_params": {"d": 3}, "sizes": [20, 21]},
        {"family": "random_regular", "family_params": {"d": 20}, "sizes": [20]},
        {"lambda_rule": {"sigma": 0.5}},
        {"trials": "1"},
        {"signal": {"kind": "island", "params": {"k": 10, "l": 10}}, "sizes": [20, 400]},
        {"kl_values": []},
        {"sizes": ["20"]},
        {"family": "erdos_renyi", "family_params": {"p": "0.2"}},
        {"family": "random_regular", "family_params": {"d": "3"}, "sizes": [20]},
        {"signal": {"kind": "island", "params": [2, 2]}},
        {"signal": {"kind": "grid_function", "params": "pc_halfplane"}},
        {"signal": {"kind": ["island"], "params": {"k": 2, "l": 2}}},
        {"lambda_rule": {"rule": "random_gap", "delta": 0.1}},
        {"lambda_rule": {"rule": "cycle_power"}},
        {"family": "grid", "family_params": {"d": 2}, "sizes": [4],
         "lambda_rule": {"rule": "random_gap"}},
        {"family": "grid", "family_params": {"d": 2}, "sizes": [4],
         "signal": {"kind": "grid_function", "params": {"height": 1.0}}},
        {"family": "grid", "family_params": {"d": 2}, "sizes": [4],
         "signal": {"kind": "grid_function", "params": {"name": "pc_halfplane", "heigth": 1.0}}},
        {"sizes": [20], "signal": {"kind": "custom", "params": {"vector": [1.0, 2.0, 3.0]}}},
        {"sizes": [20], "signal": {"kind": "grid_function", "params": {"name": "pc_halfplane"}}},
        {"family": "grid", "family_params": {"d": 2}, "sizes": [4], "kl_values": [[1, 2], [2, 3]],
         "signal": {"kind": "grid_function", "params": {"name": "pc_halfplane"}},
         "lambda_rule": {"rule": "corollary"}},
        {"family": "grid", "family_params": {"d": 2}, "sizes": [4],
         "signal": {"kind": "grid_function", "params": {"name": "pc_halfplane"}},
         "lambda_rule": {"rule": "corollary", "value": 0.1}},
        {"family": "grid", "family_params": {"d": 2}, "sizes": [4, 5000],
         "lambda_rule": {"rule": "corollary"},
         "signal": {"kind": "grid_function", "params": {"name": "pc_halfplane"}}},
        {"lambda_rule": {"rule": "theorem_general", "sigma": 0.5, "delta": 0.1}},
        {"family": "grid", "family_params": {"d": 2}, "sizes": [4],
         "signal": {"kind": "grid_function", "params": {"name": "pc_halfplane", "N": 4}}},
        {"family": "grid", "family_params": {"d": 2}, "sizes": [8],  # 4^3 = 8^2 vertices
         "signal": {"kind": "grid_function", "params": {"name": "pc_halfplane", "d": 3, "N": 4}}},
        {"family": "grid", "family_params": {"d": 2}, "sizes": [4],
         "signal": {"kind": "bi_isotonic", "params": {"variation_sqrt": 1.0, "N": 4}}},
        {"family_params": {"d": 8}},
        {"signal": {"kind": "island", "params": {"k": 2, "l": 2, "heigth": 1.0}}},
        {"sizes": [20], "signal": {"kind": "custom", "params": {"vector": [0.0] * 20,
                                                                 "scale": 2.0}}},
        {"family": "grid", "family_params": {"d": 2}, "sizes": [4],
         "signal": {"kind": "bi_isotonic", "params": {"variation_sqrt": 1.0, "seed": 3}}},
        {"signal": {"kind": "island", "params": {"k": 2, "l": 2}, "parms": {"k": 5}}},
        {"family": "grid", "family_params": {"d": True}, "sizes": [4],
         "signal": {"kind": "grid_function", "params": {"name": "pc_halfplane"}}},
        {"family": "erdos_renyi", "family_params": {"p": None}},
        {"family": "erdos_renyi", "family_params": {"p": [0.5]}},
        {"family": "erdos_renyi", "family_params": {"p": 0.5, "seed": 3}},
        {"family": "grid", "family_params": {"d": 2, "N": 4},
         "signal": {"kind": "grid_function", "params": {"name": "pc_halfplane"}}},
        {"family": "cycle_power"},
        {"family": "grid", "family_params": {"d": 3}, "sizes": [4], "estimators": ["haar"],
         "signal": {"kind": "grid_function", "params": {"name": "pc_halfplane"}}},
        {"family": "cycle_power", "family_params": {"k": 11}},
    ], ids=["unknown-family", "er-no-degree", "rr-no-degree", "signal-no-kind",
            "unknown-kind", "unknown-estimator", "haar-off-grid", "unknown-key",
            "retired-key", "unknown-rule-key", "unknown-rule", "size-below-2", "nan-sigma",
            "negative-sigma", "negative-expected-degree", "rr-odd-degree-sum",
            "rr-degree-not-below-n", "rule-missing", "trials-not-int", "islands-past-n",
            "empty-kl-values", "size-not-int", "expected-degree-not-number",
            "rr-degree-not-int", "signal-params-list", "signal-params-string",
            "signal-kind-not-string", "random-gap-on-complete", "cycle-power-on-complete",
            "random-gap-on-grid", "grid-function-no-name", "grid-function-misspelled-key",
            "custom-vector-wrong-length", "grid-signal-on-complete", "kl-values-off-island",
            "rule-value-off-manual", "size-past-the-cap", "rule-sigma", "grid-function-N",
            "grid-function-d", "bi-isotonic-N", "family-param-unread", "island-param-unread",
            "custom-param-unread", "bi-isotonic-param-unread", "unknown-signal-key",
            "flag-bool", "flag-null", "p-list-length", "family-param-seed",
            "no-flag-for-sizes", "two-flags-for-sizes", "haar-off-2d-grid",
            "seedless-family-refused-at-load"])
    def test_bad_config_fails_before_running(self, tmp_path, capsys, change):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CFG, **change}))
        out = tmp_path / "run"
        assert run(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("graphtv: ") and err.count("\n") == 1
        assert not out.exists()


    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, threads):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CFG))
        out = tmp_path / "run"
        assert run(["experiment", "--config", str(cfg), "--out", str(out),
                    "--threads", threads]) == 2
        err = capsys.readouterr().err
        assert err.startswith("graphtv: ") and err.count("\n") == 1
        assert not out.exists()


class TestImportFootprint:
    """Importing the package, or running a command, loads neither scipy.optimize
    nor multiprocessing: both are slow to import and unused on these paths."""

    def _heavy_modules_after(self, code, cwd):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code + "\nprint(' '.join(sys.modules))"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return [m for m in proc.stdout.split() if m.startswith(("multiprocessing", "scipy.optimize"))]

    def test_import(self, tmp_path):
        assert self._heavy_modules_after("import sys, graphtv", tmp_path) == []

    def test_spectral_and_denoise_commands(self, tmp_path):
        (tmp_path / "y.txt").write_text("0\n4\n1\n3\n")
        code = ("import sys\nfrom graphtv import cli\n"
                "assert cli.main(['spectral', '--graph', 'path', '--n', '4', '--method', "
                "'dense', '--out', 's.json']) == 0\n"
                "assert cli.main(['denoise', '--graph', 'complete', '--n', '4', '--y', "
                "'y.txt', '--lambda-value', '0.1', '--out', 't.txt']) == 0\n"
                "assert cli.main(['denoise', '--graph', 'path', '--n', '4', '--y', "
                "'y.txt', '--lambda-value', '0.1', '--out', 'p.txt']) == 0")
        assert self._heavy_modules_after(code, tmp_path) == []
