"""The benchmark's workloads: inputs from a seed, the timed call, the checks.

``studies`` runs three trimmed Monte Carlo studies back to back
(``island-fig2``, ``island-kl``, ``grid-rate``); ``cli-oneshot`` runs three
CLI commands.  Each workload has three steps, run by ``worker.py`` in a
fresh interpreter:

* ``prepare(seed, workdir)`` builds the inputs (vector files, seeds);
  it is not timed.
* ``run(inputs)`` is the timed call: what a user waits for.  It returns
  the output and the seconds of each part (study or command).
* ``check(inputs, output, full)`` verifies the output and returns a
  :class:`Checked`.  An operation is a record (a CLI command for
  ``cli-oneshot``); it fails if it did not converge or fails the
  workload's correctness check.  Outputs are a pure function of the seed,
  so later repetitions of a run pass ``full=False`` to skip the expensive
  checks, and ``run.py`` requires their digest to equal the first one's.

Why each workload was chosen is in ``README.md`` next to this file.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import time

import numpy as np

from graphtv import cli
from graphtv import experiments as E
from graphtv import graphs as G
from graphtv import signals as sig
from graphtv import spectral as spec
from graphtv import tvsolver as tv

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Trials per (config, size) cell.  The presets run 50 (island) and 10
# (grid) trials; the benchmark keeps every family, size and lambda policy
# and trims only the trial count, so each workload's layer mix holds while
# one repetition stays a few seconds long.
TRIALS = {"island-fig2": 3, "island-kl": 10, "grid-rate": 2}

# Mean MSE per (config, size) must lie within Z_MAX standard errors of
# the reference mean recorded at the preset seed with 50 island or 40 grid
# trials (reference.json, written by record_reference.py).  The standard error
# combines the reference's and the trimmed mean's, from the per-trial MSE
# spread recorded with the reference, so the check is tight where MSE
# varies little (large grids) and loose where it varies much (n = 100).
Z_MAX = 5.0

GRID_SIDES = [16, 32, 64, 128]
GRID_KINDS = ("holder", "pc")
GRID_SEED = 513


@dataclasses.dataclass
class Checked:
    attempted: int
    failed: int
    digest: str  # sha256 of the output bytes (records.csv for the studies)
    notes: list


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Monte Carlo studies


def study_configs(name: str, seed: int, trials: int) -> list:
    """The workload's experiment configs, trimmed to ``trials``, shifted by ``seed``."""
    if name == "island-fig2":
        base = E.preset_configs("island-fig2")
    elif name == "island-kl":
        base = E.preset_configs("island-fig3")
    else:
        raise ValueError(name)
    return [dataclasses.replace(c, trials=trials, master_seed=c.master_seed + seed)
            for c in base]


def run_study(study: str, seed: int, trials: int) -> list:
    """[(config name, records)] of one study at ``trials`` trials, shifted by ``seed``."""
    if study == "grid-rate":
        return [(f"rate-{kind}",
                 E.rate_study_nonparametric(kind, sides=GRID_SIDES, trials=trials,
                                            master_seed=GRID_SEED + seed, threads=1)[0])
                for kind in GRID_KINDS]
    return [(cfg.name, E.run_experiment(cfg, threads=1))
            for cfg in study_configs(study, seed, trials)]


def _prepare_studies(seed, workdir):
    return {"seed": seed}


def _run_studies(inputs):
    output, parts = {}, {}
    for study, trials in TRIALS.items():
        t0 = time.perf_counter()
        output[study] = run_study(study, inputs["seed"], trials)
        parts[study] = time.perf_counter() - t0
    return output, parts


def mse_stats(groups) -> dict:
    """{config name: {n: [mean MSE, per-trial standard deviation, trials]}}."""
    out = {}
    for name, records in groups:
        by_n = {}
        for r in records:
            by_n.setdefault(r.n, []).append(r.mse)
        out[name] = {str(n): [float(np.mean(v)), float(np.std(v, ddof=1)) if len(v) > 1
                              else 0.0, len(v)] for n, v in sorted(by_n.items())}
    return out


def z_score(stat, ref) -> float:
    """Distance of a trimmed mean from the reference mean in standard errors."""
    mean, _, trials = stat
    ref_mean, ref_sd, ref_trials = ref
    se = ref_sd * np.sqrt(1.0 / trials + 1.0 / ref_trials)
    return abs(mean - ref_mean) / se if se > 0 else (0.0 if mean == ref_mean else np.inf)


def check_study(study: str, groups: list, reference: dict) -> Checked:
    """Convergence and per-size mean MSE of one study; the k*l correlation for island-kl."""
    notes, failed, attempted = [], 0, 0
    stats = mse_stats(groups)
    for name, records in groups:
        attempted += len(records)
        bad_n = set()
        for n, stat in stats[name].items():
            z = z_score(stat, reference[name][n])
            if z > Z_MAX:
                bad_n.add(int(n))
                notes.append(f"{name} n={n}: mean MSE {stat[0]:.5g} is {z:.1f} "
                             f"standard errors from the reference {reference[name][n][0]:.5g}")
        for r in records:
            if not r.converged or r.n in bad_n:
                failed += 1
        unconverged = sum(not r.converged for r in records)
        if unconverged:
            notes.append(f"{name}: {unconverged} records with converged=False")
    if study == "island-kl":
        kl = E.kl_linearity_check([r for _, rs in groups for r in rs])
        if not (kl.ok and kl.correlation >= 0.9):
            notes.append(f"k*l correlation {kl.correlation:.3f} < 0.9")
            failed = attempted
    csv = "".join(E.records_to_csv(records) for _, records in groups)
    return Checked(attempted, failed, _sha256(csv.encode()), notes)


def _check_studies(inputs, output, full=True):
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    checked = [check_study(study, groups, reference[study]) for study, groups in output.items()]
    return Checked(sum(c.attempted for c in checked), sum(c.failed for c in checked),
                   _sha256("".join(c.digest for c in checked).encode()),
                   [note for c in checked for note in c.notes])


# ---------------------------------------------------------------------------
# CLI one-shot

CLI_GRID_SIDE = 256
CLI_ER = (2000, 0.008)
CLI_PATH_N = 20_000
CLI_PATH_BLOCKS = 20
CLI_SIGMA = 0.5
# Weight for the path command, given explicitly because theorem_general has
# no rho route for a path past the dense cap.  It keeps the command at a few
# seconds: kkt_certificate's cost grows with the weight and superlinearly
# with n (README.md).
CLI_PATH_LAMBDA = 3e-4
CERT_TOL = 1e-6  # the CLI's default solver tolerance
# Iterations for re-certifying the grid estimate: enough to reach a
# residual about 20 times below the bound, at a fraction of the default.
CERT_MAX_ITER = 500


def _prepare_cli(seed, workdir):
    workdir = pathlib.Path(workdir)
    rng = np.random.default_rng(seed)
    grid_truth = sig.sample_grid_function("pc_halfplane", 2, CLI_GRID_SIDE, height=10.0)
    y_grid = grid_truth + CLI_SIGMA * rng.standard_normal(grid_truth.size)
    levels = rng.normal(0.0, 3.0, size=CLI_PATH_BLOCKS)
    path_truth = np.repeat(levels, CLI_PATH_N // CLI_PATH_BLOCKS)
    y_path = path_truth + CLI_SIGMA * rng.standard_normal(CLI_PATH_N)
    cli.write_vector(workdir / "y_grid.txt", y_grid)
    cli.write_vector(workdir / "y_path.txt", y_path)
    out = workdir / "out"
    n, p = CLI_ER
    commands = [
        ["denoise", "--graph", "grid", "--d", "2", "--N", str(CLI_GRID_SIDE),
         "--y", str(workdir / "y_grid.txt"), "--sigma", str(CLI_SIGMA),
         "--out", str(out / "grid_theta.txt")],
        ["spectral", "--graph", "erdos-renyi", "--n", str(n), "--p", str(p),
         "--seed", str(seed), "--method", "dense", "--out", str(out / "er_spectral.json")],
        ["denoise", "--graph", "path", "--n", str(CLI_PATH_N),
         "--y", str(workdir / "y_path.txt"), "--lambda-value", repr(CLI_PATH_LAMBDA),
         "--oracle", "taut-string", "--out", str(out / "path_theta.txt")],
    ]
    return {"seed": seed, "commands": commands, "out": out,
            "y_grid": y_grid, "y_path": y_path}


def _run_cli(inputs):
    codes, parts = [], {}
    for argv in inputs["commands"]:
        t0 = time.perf_counter()
        codes.append(cli.main(argv))
        parts[f"{argv[0]} {argv[2]}"] = time.perf_counter() - t0
    return codes, parts


def _certified(y, report, resid) -> str | None:
    """None if the report and the residual certify the estimate, else why not."""
    bound = CERT_TOL * (1.0 + float(np.max(np.abs(y))))
    if not report["converged"]:
        return "report says converged=false"
    if not resid <= bound:
        return f"stationarity residual {resid:.3g} > {bound:.3g}"
    return None


def check_cli(inputs, codes, full: bool = True) -> Checked:
    """Exit codes; with ``full``, the certificates and the dense rho cross-check.

    The grid estimate comes from the iterative solver, so a separate
    kkt_certificate call re-certifies it.  The path estimate was certified
    by the CLI's own kkt_certificate call, whose residual is in its report.
    """
    out = inputs["out"]
    notes = []
    ok = [code == 0 for code in codes]
    for argv, code in zip(inputs["commands"], codes):
        if code != 0:
            notes.append(f"{argv[0]} --graph {argv[2]} exited {code}")
    files = ["grid_theta.txt", "er_spectral.json", "path_theta.txt"]
    digest = _sha256(b"".join((out / f).read_bytes() if (out / f).exists() else b""
                              for f in files))
    if full and ok[0]:
        theta = cli.read_vector(out / "grid_theta.txt")
        report = json.loads((out / "grid_theta.txt.report.json").read_text())
        D = G.incidence(G.build_grid(2, CLI_GRID_SIDE))
        problem = tv.DenoiseProblem(inputs["y_grid"], D, report["lambda"])
        _, resid = tv.kkt_certificate(problem, theta, max_iter=CERT_MAX_ITER)
        why = _certified(inputs["y_grid"], report, resid)
        if why:
            ok[0] = False
            notes.append(f"grid denoise: {why}")
    if full and ok[1]:
        rho = json.loads((out / "er_spectral.json").read_text())["rho"]
        ref = spec.rho_dense_gram(G.build_erdos_renyi(*CLI_ER, inputs["seed"]))
        if not abs(rho - ref) <= 1e-9 * ref:
            ok[1] = False
            notes.append(f"spectral: dense rho {rho!r} vs rho_dense_gram {ref!r}")
    if full and ok[2]:
        report = json.loads((out / "path_theta.txt.report.json").read_text())
        why = _certified(inputs["y_path"], report, report["stationarity_residual"])
        if why:
            ok[2] = False
            notes.append(f"path denoise: {why}")
    return Checked(len(codes), ok.count(False), digest, notes)


# ---------------------------------------------------------------------------
# registry


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    prepare: object
    run: object
    check: object


WORKLOADS = {
    "studies": Workload("studies", _prepare_studies, _run_studies, _check_studies),
    "cli-oneshot": Workload("cli-oneshot", _prepare_cli, _run_cli, check_cli),
}
