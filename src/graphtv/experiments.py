"""Monte Carlo harness: island-model studies, rate fits, CSV/JSON output.

Every experiment is a pure function of its :class:`ExperimentConfig`
(including ``master_seed``): noise, random graphs and random signals all
draw from substreams derived from (master_seed, size index, kl index,
trial), so results are byte-identical regardless of execution order or
worker count.
"""
from __future__ import annotations

import copy
import csv
import io
import json
import numbers
import os
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import repeat

import numpy as np

from . import graphs as G
from . import haar as H
from . import signals as sig
from . import tvsolver as tv

CSV_HEADER = ["family", "n", "k", "l", "estimator", "lambda_policy",
              "lambda_value", "trial", "seed", "mse", "converged"]
ESTIMATORS = ("tv", "identity", "haar")
# signal kind -> the params keys it reads; a grid function also reads the
# keywords of its function, which refuses any other
SIGNAL_PARAMS = {"island": ("k", "l"), "grid_function": ("name",),
                 "bi_isotonic": ("variation_sqrt",), "custom": ("vector",)}
# The oracle search of the island-model study: the grid
# ORACLE_START * lambda_th * ORACLE_BETA^j for j = 1, 2, ..., stopped
# ORACLE_LOOKAHEAD steps past its minimum or after ORACLE_MAX_STEPS steps.
ORACLE_BETA = 0.85
ORACLE_START = 10.0
ORACLE_LOOKAHEAD = 3
ORACLE_MAX_STEPS = 200
# Tolerance and iteration cap of every iterative TV solve in the harness.
SOLVER_TOL = 1e-5
SOLVER_MAX_ITER = 200000


# ---------------------------------------------------------------------------
# configuration and records


@dataclass
class ExperimentConfig:
    """One sweep: a graph family, a signal, a lambda policy, seeded trials.

    ``family`` is a key of :data:`graphs.FAMILIES` and ``family_params``
    holds its CLI flags but ``seed``, which the cells draw from
    ``master_seed``.  ``sizes`` fills the one flag they leave out, and a
    flag given as a list holds one value per size (``{"d": 2}`` on
    ``grid``: side lengths).  ``kl_values`` optionally sweeps island
    shapes at fixed size (Figure-3 style); when absent the island shape
    comes from ``signal.params``.  ``lambda_rule`` holds the
    :class:`tvsolver.LambdaRule` fields but ``sigma``: the rule reads the
    noise level ``sigma``.
    """

    name: str
    family: str  # a key of graphs.FAMILIES
    sizes: list
    signal: dict
    family_params: dict = field(default_factory=dict)
    kl_values: list | None = None
    sigma: float = 0.5
    trials: int = 50
    estimators: tuple = ("tv",)
    lambda_policy: str = "theoretical"  # "theoretical" | "oracle"
    lambda_rule: dict = field(default_factory=lambda: {"rule": "theorem_general",
                                                       "delta": 0.1})
    master_seed: int = 20170301

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and nonnegative")
        if not self.sizes or not all(isinstance(size, numbers.Integral) and size >= 1
                                     and not isinstance(size, bool) for size in self.sizes):
            raise ValueError("sizes must be a nonempty list of positive integers")
        if self.lambda_policy not in ("theoretical", "oracle"):
            raise ValueError(f"unknown lambda policy {self.lambda_policy!r}")
        self._params = self._family_flags()
        self._seeded = "seed" in G.FAMILIES[self.family][1]
        kind = self.signal.get("kind") if isinstance(self.signal, dict) else None
        if not isinstance(kind, str) or kind not in SIGNAL_PARAMS:
            raise ValueError(f"signal needs a kind from {', '.join(SIGNAL_PARAMS)}, "
                             f"got {kind!r}")
        if not isinstance(self.signal.get("params", {}), dict):
            raise ValueError(f"signal params must be a JSON object, got {self.signal['params']!r}")
        for key in self.signal:
            if key not in ("kind", "params"):
                raise ValueError(f"unknown signal key {key!r}")
        if kind != "grid_function":
            for key in self.signal.get("params", {}):
                if key not in SIGNAL_PARAMS[kind]:
                    raise ValueError(f"{kind} signal does not read params[{key!r}]")
        self.estimators = tuple(self.estimators)
        for estimator in self.estimators:
            if estimator not in ESTIMATORS:
                raise ValueError(f"unknown estimator {estimator!r}")
        if "haar" in self.estimators and not (self.family == "grid" and all(
                dict(params)["d"] == 2 for params in self._params)):
            raise ValueError("haar estimator needs the 2-D grid: family grid with d = 2")
        tv.check_json_fields(tv.LambdaRule, self.lambda_rule, "lambda_rule")
        if "sigma" in self.lambda_rule:
            raise ValueError("lambda_rule key 'sigma' is not read: lambda reads the config's sigma")
        self.rule = tv.LambdaRule(**self.lambda_rule, sigma=self.sigma)
        self._shapes = self._island_shapes()
        # theta* depends on the size and the island shape alone: realized
        # here once per pair, so a bad signal fails before any cell runs
        self._theta = [[self._theta_star(si, ki) for ki in range(len(self._shapes))]
                       for si in range(len(self.sizes))]

    def _family_flags(self) -> list:
        """The family's flags at each size, as sorted (name, value) pairs, checked."""
        if self.family not in G.FAMILIES:
            raise ValueError(f"unknown graph family {self.family!r}; have {', '.join(G.FAMILIES)}")
        flags = [name for name in G.FAMILIES[self.family][1] if name != "seed"]
        for key, value in self.family_params.items():
            if key not in flags:
                raise ValueError(f"family {self.family!r} does not read family_params[{key!r}]")
            if isinstance(value, list) and len(value) != len(self.sizes):
                raise ValueError(f"family_params[{key!r}] holds {len(value)} values, "
                                 f"not one per size")
        free = [name for name in flags if name not in self.family_params]
        if len(free) != 1:
            raise ValueError(f"family_params of {self.family!r} must leave out one of its flags "
                             f"{', '.join(flags)} for sizes to fill, not {len(free)}")
        out = []
        for si, size in enumerate(self.sizes):
            params = {free[0]: int(size), **{key: value[si] if isinstance(value, list) else value
                                             for key, value in self.family_params.items()}}
            out.append(tuple(sorted((name, G.check_flag(self.family, name, value))
                                    for name, value in params.items())))
        return out

    def _island_shapes(self) -> list:
        """(k, l) per island-shape index: ``kl_values``, the island signal's, or (None, None)."""
        kind = self.signal["kind"]
        if kind != "island":
            if self.kl_values is not None:
                raise ValueError(f"kl_values sweeps island shapes, but the signal kind is {kind!r}")
            return [(None, None)]
        params = self.signal.get("params", {})
        pairs = [[params.get("k"), params.get("l")]] if self.kl_values is None else self.kl_values
        if not pairs:
            raise ValueError("kl_values must be nonempty when given")
        for pair in pairs:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(isinstance(x, numbers.Integral) for x in pair)
                    and pair[0] >= 0 and pair[1] >= 1):
                raise ValueError(f"island shape (k, l) = {pair!r} needs integers k >= 0 and l >= 1")
        return [(int(k), int(l)) for k, l in pairs]

    def _theta_star(self, si: int, ki: int) -> np.ndarray:
        """theta* at size index si and shape index ki, one finite value per vertex."""
        size, kind = int(self.sizes[si]), self.signal["kind"]
        graph = None if self._seeded else _seedless_graph(self.family, self._params[si])
        n = dict(self._params[si])["n"] if self._seeded else graph.n  # a random family's n flag
        if n > G.SIZE_CAP:  # refused before theta* is allocated, as every graph builder does
            raise ValueError(f"size {size} has {n} vertices, past the supported {G.SIZE_CAP}")
        try:
            theta = _signal_for(self, graph, n, self._shapes[ki],
                                _substream(self.master_seed, si, ki, 2))
        except KeyError as exc:
            raise ValueError(f"{kind} signal needs params[{exc.args[0]!r}]") from None
        except TypeError as exc:
            raise ValueError(f"{kind} signal params do not fit: {exc}") from None
        if theta.shape != (n,):
            raise ValueError(f"{kind} signal has shape {theta.shape} at size {size}, but the "
                             f"{self.family} graph has {n} vertices")
        if not np.all(np.isfinite(theta)):
            raise ValueError(f"{kind} signal has values that are not finite")
        return theta

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["estimators"] = list(self.estimators)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        tv.check_json_fields(cls, d, "config")
        return cls(**d)


@dataclass
class ExperimentRecord:
    family: str
    n: int
    k: int | None
    l: int | None
    estimator: str
    lambda_policy: str
    lambda_value: float
    trial: int
    seed: int
    mse: float
    converged: bool


@dataclass
class RateFit:
    model: str  # "c_logn_over_n" | "power_law"
    params: dict
    r_squared: float


# ---------------------------------------------------------------------------
# graph construction


@lru_cache(maxsize=64)
def _seedless_graph(family: str, params: tuple) -> G.Graph:
    """A family without a seed flag at the flags ``params``, built once per process: configs
    and cells share it and what its solves keep on it (a grid's operator, for one)."""
    return G.build_family(family, **dict(params))


# ---------------------------------------------------------------------------
# the oracle lambda search


def stable_min_index(errors) -> int | None:
    """Index of the first entry followed by ``ORACLE_LOOKAHEAD`` entries all >= it.

    Scanning rule for the geometric-grid oracle search; returns None when
    the sequence ends before any entry qualifies.
    """
    c = None
    for j, err in enumerate(errors):
        if c is None or err < errors[c]:
            c = j
        elif j - c >= ORACLE_LOOKAHEAD:
            return c
    return None


@dataclass
class OracleSearchResult:
    lambda_or: float
    j_star: int
    errors: np.ndarray
    theta_hat: np.ndarray
    rule_satisfied: bool  # False when the step cap was hit
    all_converged: bool


def oracle_lambda_search(solve, theta_star, lambda_th) -> OracleSearchResult:
    """Pick lambda on the geometric grid ORACLE_START * lambda_th * ORACLE_BETA^j.

    Stops at the first j* whose next ``ORACLE_LOOKAHEAD`` error values
    ``||theta_hat(lambda_j) - theta*||_2`` are all >= the value at j*;
    returns best-so-far with ``rule_satisfied=False`` if ``ORACLE_MAX_STEPS``
    is exhausted first.  ``solve(lam, z0)`` returns ``(theta, z_or_None,
    converged)``; each step passes the previous step's z as ``z0``.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    errors, thetas = [], []
    all_conv = True
    z_prev = None
    rule_satisfied = False
    for j in range(1, ORACLE_MAX_STEPS + 1):
        theta, z_prev, conv = solve(ORACLE_START * lambda_th * ORACLE_BETA**j, z_prev)
        all_conv = all_conv and conv
        errors.append(float(np.linalg.norm(theta - theta_star)))
        thetas.append(theta)
        if stable_min_index(errors) is not None:
            rule_satisfied = True
            break
    # Padding with +inf makes the rule fire at the best-so-far entry, which
    # is j* when the rule already held and the fallback when the cap was hit.
    j_star = stable_min_index(errors + [np.inf] * (ORACLE_LOOKAHEAD + 1)) + 1
    return OracleSearchResult(
        lambda_or=float(ORACLE_START * lambda_th * ORACLE_BETA**j_star), j_star=j_star,
        errors=np.asarray(errors), theta_hat=thetas[j_star - 1],
        rule_satisfied=rule_satisfied, all_converged=all_conv,
    )


# ---------------------------------------------------------------------------
# one trial


def _substream(master_seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(master_seed, spawn_key=tuple(key))
               .generate_state(1, np.uint64)[0])


def _signal_for(cfg: ExperimentConfig, graph, n: int, shape, signal_seed: int) -> np.ndarray:
    """theta* of one cell as a flat vector; grid kinds sample the grid ``graph`` column-major."""
    params = dict(cfg.signal.get("params", {}))
    kind = cfg.signal["kind"]
    if kind == "island":
        return sig.island_signal(n, *shape)
    if kind == "custom":
        return np.asarray(params["vector"], dtype=float)
    if cfg.family != "grid":
        raise ValueError(f"{kind} signal needs the grid family, not {cfg.family!r}")
    d, N = graph.params["d"], graph.params["N"]
    if kind == "grid_function":
        return sig.sample_grid_function(params.pop("name"), d, N, **params)
    return sig.bi_isotonic_signal(N, params["variation_sqrt"],
                                  seed=signal_seed).reshape(-1, order="F")


def _run_cell_trial(cfg: ExperimentConfig, si: int, ki: int, trial: int) -> list:
    """All estimator records for one (size, island shape, trial) cell."""
    shape = cfg._shapes[ki]  # (k, l) of the island signal, or (None, None)
    stream = (si * len(cfg._shapes) + ki) * cfg.trials + trial
    graph = (G.build_family(cfg.family, **dict(cfg._params[si]),
                            seed=_substream(cfg.master_seed, si, ki, trial, 1))
             if cfg._seeded else _seedless_graph(cfg.family, cfg._params[si]))
    n = graph.n
    theta_star = cfg._theta[si][ki]
    noise = sig.gaussian_noise(n, sig.NoiseModel(cfg.sigma, cfg.master_seed, stream))
    y = theta_star + noise

    def solve_tv(lam, z0):
        r = tv.solve(graph, y, lam, tv.SolverOptions(
            tol=SOLVER_TOL, max_iter=SOLVER_MAX_ITER, z0=z0))
        return r.theta_hat, r.dual_z, r.converged

    records = []
    for estimator in cfg.estimators:
        if estimator == "identity":
            theta_hat, lam_used, converged = y.copy(), 0.0, True
        elif estimator == "haar":
            N = graph.params["N"]
            theta_hat = H.haar_denoise_2d(y.reshape(N, N, order="F"),
                                          cfg.sigma).reshape(-1, order="F")
            lam_used, converged = 0.0, True
        else:  # tv
            lam_th = float(tv.lambda_value(cfg.rule, graph))
            if cfg.lambda_policy == "theoretical":
                theta_hat, _, converged = solve_tv(lam_th, None)
                lam_used = lam_th
            else:
                search = oracle_lambda_search(solve_tv, theta_star, lam_th)
                theta_hat = search.theta_hat
                lam_used = search.lambda_or
                converged = search.all_converged and search.rule_satisfied
        mse = float(np.mean((theta_hat - theta_star) ** 2))
        records.append(ExperimentRecord(cfg.family, n, *shape, estimator,
                                        cfg.lambda_policy, float(lam_used), trial,
                                        stream, mse, bool(converged)))
    return records


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list:
    """Run all (size, shape, trial) cells; deterministic in cfg alone.

    Records are sorted by (size index, shape index, trial, estimator), so
    the output is independent of ``threads``.  At most
    ``min(threads, cells, os.cpu_count())`` worker processes run.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    tasks = [(si, ki, trial)
             for si in range(len(cfg.sizes))
             for ki in range(len(cfg._shapes))
             for trial in range(cfg.trials)]
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here so that `import graphtv` does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_cell_trial, repeat(cfg), *zip(*tasks),
                                   chunksize=max(1, len(tasks) // (4 * workers))))
    else:
        chunks = [_run_cell_trial(cfg, si, ki, trial) for si, ki, trial in tasks]
    records = []
    for chunk in chunks:
        records.extend(chunk)
    return records


# ---------------------------------------------------------------------------
# fits and summaries


def _mse_groups(records, key, estimator: str) -> dict:
    """{key(r): [MSE, ...]} over one estimator's records, in sorted key order."""
    groups: dict = {}
    for r in records:
        if r.estimator == estimator:
            groups.setdefault(key(r), []).append(r.mse)
    return dict(sorted(groups.items()))


def mean_mse_by(records, key=lambda r: r.n, estimator: str = "tv") -> dict:
    return {k: float(np.mean(v)) for k, v in _mse_groups(records, key, estimator).items()}


def _r_squared(obs: np.ndarray, pred: np.ndarray) -> float:
    """Coefficient of determination in [0, 1]; for constant obs, 1 if fit exactly, else 0."""
    ss_res = float(np.sum((obs - pred) ** 2))
    ss_tot = float(np.sum((obs - obs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res == 0 else 0.0)
    return float(np.clip(r2, 0.0, 1.0))


def fit_rate(records, model: str, estimator: str = "tv") -> RateFit:
    """Fit mean MSE per n to C log(n)/n or to a power law in n."""
    means = mean_mse_by(records, estimator=estimator)
    if len(means) < 2:
        raise ValueError("rate fit needs at least two distinct n values")
    ns = np.array(sorted(means))
    ms = np.array([means[n] for n in ns], dtype=float)
    if model == "c_logn_over_n":
        x = np.log(ns) / ns
        C = float(np.dot(x, ms) / np.dot(x, x))
        return RateFit("c_logn_over_n", {"C": C}, _r_squared(ms, C * x))
    if model == "power_law":
        if np.any(ms <= 0):
            raise ValueError("power-law fit needs strictly positive mean MSE values")
        lx, ly = np.log(ns), np.log(ms)
        b, a = np.polyfit(lx, ly, 1)
        return RateFit("power_law", {"exponent": float(b), "log_intercept": float(a)},
                       _r_squared(ly, a + b * lx))
    raise ValueError(f"unknown rate model {model!r}")


@dataclass
class KlLinearityResult:
    correlation: float
    ok: bool
    reason: str = ""


def kl_linearity_check(records, estimator: str = "tv") -> KlLinearityResult:
    """Pearson correlation between mean MSE and the island mass k*l."""
    means = mean_mse_by(records, key=lambda r: (r.k, r.l), estimator=estimator)
    if len(means) < 2:
        return KlLinearityResult(float("nan"), False, "need at least two (k, l) cells")
    x = np.array([k * l for (k, l) in means], dtype=float)
    y = np.array([means[kl] for kl in means], dtype=float)
    if np.std(x) == 0 or np.std(y) == 0:
        return KlLinearityResult(float("nan"), False, "degenerate: constant values")
    corr = float(np.corrcoef(x, y)[0, 1])
    return KlLinearityResult(corr, True)


# The signals of the grid rate studies, by rate-study kind.
GRID_SIGNALS = {
    "holder": {"kind": "grid_function",
               "params": {"name": "holder_cone", "alpha": 1.0, "L": 10.0}},
    "cartoon": {"kind": "grid_function",
                "params": {"name": "cartoon_disk", "height": 10.0, "radius": 0.3,
                           "alpha": 1.0, "L": 5.0}},
    "pc": {"kind": "grid_function", "params": {"name": "pc_halfplane", "height": 10.0}},
    "bi_isotonic": {"kind": "bi_isotonic", "params": {"variation_sqrt": 10.0}},
}


def _grid_study(name: str, kind: str, sides, trials: int, sigma: float,
                master_seed: int) -> ExperimentConfig:
    """Grid-graph TV denoising of a GRID_SIGNALS kind with the 2-D grid's corollary rule."""
    if kind not in GRID_SIGNALS:
        raise ValueError(f"unknown rate-study kind {kind!r}")
    return ExperimentConfig(
        name=name, family="grid", family_params={"d": 2}, sizes=list(sides),
        signal=copy.deepcopy(GRID_SIGNALS[kind]), sigma=sigma, trials=trials,
        lambda_policy="theoretical",
        lambda_rule={"rule": "corollary", "delta": 0.1},
        master_seed=master_seed)


def rate_study_nonparametric(kind: str, sides, trials: int = 10, sigma: float = 0.5,
                             master_seed: int = 513, threads: int = 1) -> tuple[list, RateFit]:
    """Grid-graph TV denoising across side lengths with the 2-D grid's corollary rule.

    ``kind`` is one of holder / cartoon / pc / bi_isotonic; returns the
    records and the fitted power law of mean MSE against n.
    """
    cfg = _grid_study(f"rate-{kind}", kind, sides, trials, sigma, master_seed)
    records = run_experiment(cfg, threads=threads)
    return records, fit_rate(records, "power_law")


# ---------------------------------------------------------------------------
# output files


def records_to_csv(records) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in records:
        w.writerow([
            r.family, r.n,
            "" if r.k is None else r.k,
            "" if r.l is None else r.l,
            r.estimator, r.lambda_policy, repr(r.lambda_value),
            r.trial, r.seed, repr(r.mse),
            "true" if r.converged else "false",
        ])
    return buf.getvalue()


def records_to_json(records) -> str:
    return json.dumps([asdict(r) for r in records], indent=1)


def write_records(out_dir, records) -> None:
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "records.csv").write_text(records_to_csv(records), encoding="utf-8")
    (out / "records.json").write_text(records_to_json(records), encoding="utf-8")


def write_plot_data(path, xs, ys, yerrs, fit: RateFit | None = None) -> None:
    """Per-figure TSV (x, y, yerr) plus a sidecar JSON of fit parameters."""
    import pathlib

    path = pathlib.Path(path)
    lines = ["x\ty\tyerr"]
    for x, y, e in zip(xs, ys, yerrs):
        lines.append(f"{x!r}\t{y!r}\t{e!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if fit is not None:
        sidecar = {"model": fit.model, "params": fit.params, "r_squared": fit.r_squared}
        path.with_suffix(".fit.json").write_text(json.dumps(sidecar, indent=1),
                                                 encoding="utf-8")


def summarize_for_plot(records, estimator: str = "tv"):
    """(n values, mean MSE, standard error) triples for plotting."""
    groups = _mse_groups(records, lambda r: r.n, estimator)
    ns = list(groups)
    means = [float(np.mean(groups[n])) for n in ns]
    errs = [float(np.std(groups[n], ddof=1) / np.sqrt(len(groups[n])))
            if len(groups[n]) > 1 else 0.0 for n in ns]
    return ns, means, errs


# ---------------------------------------------------------------------------
# presets (paper-style experiment bundles at desk scale)


# grid preset -> (GRID_SIGNALS kind, side lengths, master seed)
GRID_PRESETS = {
    "holder-2d": ("holder", [16, 32, 64, 128], 20170304),
    "cartoon-2d": ("cartoon", [16, 32, 64, 128], 20170305),
    "isotonic-2d": ("bi_isotonic", [32, 64, 128], 20170306),
}
# The names ``preset_configs`` takes, and the CLI's ``--preset`` choices.
PRESETS = ("island-fig2", "island-fig3", *GRID_PRESETS)


def preset_configs(name: str) -> list[ExperimentConfig]:
    """Named experiment bundles; each returns a list of configs."""
    island33 = {"kind": "island", "params": {"k": 3, "l": 3}}
    # Complete graphs take the generic theorem rule with the exact
    # rho = sqrt(2)/n; random graphs take their corollary rule (expected
    # degree in place of rho), whose free constant is calibrated once so
    # the two families show the matching performance the theory predicts.
    kn_rule = {"rule": "theorem_general", "delta": 0.1}
    er_rule = {"rule": "corollary", "delta": 0.1, "constant_c": 2.0}
    if name == "island-fig2":
        sizes = [100, 200, 400, 800]
        out = []
        for policy in ("theoretical", "oracle"):
            out.append(ExperimentConfig(
                name=f"island-fig2-complete-{policy}", family="complete",
                sizes=sizes, signal=island33, sigma=0.5, trials=50,
                lambda_policy=policy, lambda_rule=dict(kn_rule),
                master_seed=20170301))
            out.append(ExperimentConfig(
                name=f"island-fig2-er16-{policy}", family="erdos_renyi",
                family_params={"p": [16 / n for n in sizes]},
                sizes=sizes, signal=island33, sigma=0.5, trials=50,
                lambda_policy=policy, lambda_rule=dict(er_rule),
                master_seed=20170302))
        return out
    if name == "island-fig3":
        kls = [[k, l] for k in range(2, 6) for l in range(3, 10)]
        return [ExperimentConfig(
            name="island-fig3-er16", family="erdos_renyi",
            family_params={"p": 16 / 100},
            sizes=[100], signal={"kind": "island", "params": {"k": 2, "l": 3}},
            kl_values=kls, sigma=0.5, trials=50,
            lambda_policy="theoretical", lambda_rule=dict(er_rule),
            master_seed=20170303)]
    if name in GRID_PRESETS:
        kind, sides, master_seed = GRID_PRESETS[name]
        return [_grid_study(name, kind, sides, trials=10, sigma=0.5,
                            master_seed=master_seed)]
    raise ValueError(f"unknown preset {name!r}; have {', '.join(PRESETS)}")
