"""Command-line front end: spectral constants, denoising, experiments.

Exit codes: 0 success, 2 invalid arguments, 3 numerical failure
(non-convergence or generation failure).  ``denoise`` takes the solver
that ``tvsolver.solve`` picks from the graph and reports the scalar fields
of its certified result.  Every run writes a
``manifest.json`` next to its outputs echoing the fully resolved
configuration, sufficient to re-run identically.

Vector files hold one number per line; ``#`` starts a comment.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from . import experiments as E
from . import graphs as G
from . import spectral as spec
from . import tvsolver as tv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def read_vector(path) -> np.ndarray:
    vals = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                vals.append(float(line))
    return np.asarray(vals, dtype=float)


def write_vector(path, vec, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for v in np.asarray(vec, dtype=float):
            fh.write(f"{float(v)!r}\n")


def _write_manifest(directory, payload: dict) -> None:
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {"tool": "graphtv", "version": __version__, **payload}
    (directory / "manifest.json").write_text(json.dumps(payload, indent=1, sort_keys=True),
                                             encoding="utf-8")


# ---------------------------------------------------------------------------
# graph construction from flags


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True,
                   choices=[f.replace("_", "-") for f in G.FAMILIES] + ["custom"])
    p.add_argument("--n", type=int, help="vertex count (path/complete/star/cycle-power/random)")
    p.add_argument("--d", type=int, help="dimension (grid/hypercube) or degree (random-regular)")
    p.add_argument("--N", type=int, dest="side", help="grid side length")
    p.add_argument("--k", type=int, help="cycle power")
    p.add_argument("--p", type=float, help="Erdos-Renyi edge probability")
    p.add_argument("--seed", type=int, default=0, help="seed for random families")
    p.add_argument("--edges", help="edge-list file for --graph custom")
    p.add_argument("--augmented", action="store_true",
                   help="anchored path difference matrix instead of the path graph")


def _graph_from_args(args):
    """The graph the flags name, or the anchored path matrix for ``--augmented``."""
    if args.augmented and args.graph != "path":
        raise UsageError(f"--augmented needs --graph path, not --graph {args.graph}")
    if args.graph == "custom":
        if args.edges is None:
            raise UsageError("missing required flag --edges")
        return G.read_edge_list(args.edges, n=args.n)
    if args.augmented and args.n is not None:
        return G.build_augmented_path(args.n)
    # also reports a missing --n for --augmented
    return G.build_family(args.graph.replace("-", "_"), n=args.n, d=args.d, N=args.side,
                          k=args.k, p=args.p, seed=args.seed)


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectral(args) -> int:
    g = _graph_from_args(args)
    report = spec.spectral_report(g, method=args.method)
    if not isinstance(g, G.Graph):  # only --augmented gives a bare matrix
        report.family = "augmented_path"
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report.to_json_dict(), indent=1, sort_keys=True),
                   encoding="utf-8")
    _write_manifest(out.parent, {"command": "spectral", "args": _resolved(args),
                                 "outputs": [out.name]})
    return EXIT_OK


def cmd_denoise(args) -> int:
    g = _graph_from_args(args)
    graph = g if isinstance(g, G.Graph) else None  # None for --augmented
    if args.oracle == "taut-string" and tv.solver_for(g) != "taut_string":
        raise UsageError("--oracle taut-string requires a graph whose edges form a path "
                         "(i, i+1): --graph path, a 1-D --graph grid or a custom edge list")
    opts = tv.SolverOptions(tol=args.tol, max_iter=args.max_iter)
    y = read_vector(args.y)
    n = g.shape[1] if graph is None else g.n
    if y.shape[0] != n:
        raise UsageError(f"y has {y.shape[0]} entries but the graph has {n} vertices")
    lam = args.lambda_value
    if lam is None:  # a rule needs a graph, so --augmented fails here, before any spectral work
        if args.sigma is None:
            raise UsageError("missing required flag --sigma (or set --lambda-value)")
        rule = tv.LambdaRule(args.lambda_rule, sigma=args.sigma, delta=args.delta,
                             constant_c=args.constant_c)
        lam = float(tv.lambda_value(rule, graph))
    result = tv.solve(g, y, lam, opts)  # rejects a non-finite lambda
    report = {"lambda": lam, **{f.name: getattr(result, f.name) for f in fields(result)
                                if f.name not in ("theta_hat", "dual_z")}}
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_vector(out, result.theta_hat, comment=f"theta_hat, lambda={lam!r}")
    out.with_suffix(out.suffix + ".report.json").write_text(
        json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    _write_manifest(out.parent, {"command": "denoise", "args": _resolved(args),
                                 "outputs": [out.name, out.name + ".report.json"]})
    return EXIT_OK if result.converged else EXIT_NUMERICAL


def cmd_experiment(args) -> int:
    if (args.config is None) == (args.preset is None):
        raise UsageError("experiment needs exactly one of --config or --preset")
    if args.preset is not None:
        configs = E.preset_configs(args.preset)
    else:
        raw = json.loads(pathlib.Path(args.config).read_text(encoding="utf-8"))
        raw = raw if isinstance(raw, list) else [raw]
        configs = [E.ExperimentConfig.from_json_dict(d) for d in raw]

    # every config runs before anything is written, so a failure leaves no output
    runs = [(cfg, E.run_experiment(cfg, threads=args.threads)) for cfg in configs]
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_records = []
    for cfg, records in runs:
        all_records.extend(records)
        ns, means, errs = E.summarize_for_plot(records)
        fit = None
        if len(ns) >= 2 and all(m > 0 for m in means):
            fit = E.fit_rate(records, "power_law")
        E.write_plot_data(out_dir / f"{cfg.name}.tsv", ns, means, errs, fit=fit)
    E.write_records(out_dir, all_records)
    _write_manifest(out_dir, {
        "command": "experiment", "threads": args.threads,
        "configs": [cfg.to_json_dict() for cfg in configs],
        "outputs": ["records.csv", "records.json"] + [f"{cfg.name}.tsv" for cfg in configs],
    })
    if not all(r.converged for r in all_records):
        return EXIT_NUMERICAL
    return EXIT_OK


def _resolved(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="graphtv",
                                 description="Graph TV denoising: constants, solver, experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("spectral", help="compute rho/kappa constants for a graph")
    _add_graph_args(ps)
    ps.add_argument("--method", choices=["auto", "dense"], default="auto")
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_spectral)

    pd = sub.add_parser("denoise", help="TV-denoise a vector on a graph")
    _add_graph_args(pd)
    pd.add_argument("--y", required=True, help="observation vector file")
    pd.add_argument("--lambda-rule", dest="lambda_rule", default="theorem_general",
                    choices=[r for r in tv.LAMBDA_RULES if r != "manual"])
    pd.add_argument("--sigma", type=float, help="noise level; required without --lambda-value")
    pd.add_argument("--delta", type=float, default=0.1)
    pd.add_argument("--constant-c", dest="constant_c", type=float, default=1.0)
    pd.add_argument("--lambda-value", dest="lambda_value", type=float,
                    help="explicit lambda (overrides the rule)")
    pd.add_argument("--oracle", choices=["taut-string"],
                    help="the exact path solver; implied on any graph whose edges form a "
                         "path (i, i+1), refused elsewhere")
    pd.add_argument("--tol", type=float, default=1e-6)
    pd.add_argument("--max-iter", dest="max_iter", type=int, default=50000)
    pd.add_argument("--out", required=True)
    pd.set_defaults(func=cmd_denoise)

    pe = sub.add_parser("experiment", help="run a Monte Carlo experiment bundle")
    pe.add_argument("--config", help="JSON config (one object or a list)")
    pe.add_argument("--preset",
                    choices=["island-fig2", "island-fig3", "holder-2d",
                             "cartoon-2d", "isotonic-2d"])
    pe.add_argument("--out", required=True, help="output directory")
    pe.add_argument("--threads", type=int, default=1,
                    help="worker processes, at least 1 and capped at the cells and the CPUs "
                         "(output bytes are thread-count independent)")
    pe.set_defaults(func=cmd_experiment)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:  # UsageError is a ValueError
        print(f"graphtv: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except G.GraphGenerationError as exc:
        print(f"graphtv: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        print("graphtv: out of memory", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
