"""graphtv benchmark: one workload (or both) for a fixed measuring time.

    python3 perfbench/run.py --workload island-fig2 --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seconds 24

Run it from anywhere inside a checkout: it imports graphtv from the
checkout's ``src``.  Every repetition runs in a fresh interpreter
(``worker.py``), single process, BLAS pinned to one thread, so the
package's ``lru_cache``s start cold as in a user's study or CLI call.

``--trace 0`` repeats the untraced workload until ``--seconds`` have
passed and reports the end-to-end metrics, medians over the repetitions:
``wall_s`` (the timed call), ``setup_s`` (fresh interpreter -> ``import
graphtv`` complete) and ``peak_rss_mb`` (peak resident memory).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of spans.py, medians for times and exact counts, plus
the tracing overhead and how much of the traced wall the spans cover.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, the sample counts and each output's sha256.  See
README.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("studies", "cli-oneshot")

MIN_REPS = 2  # untraced repetitions in a --trace 0 run
RUN_LIMIT_S = 170.0  # a run ends within this, whatever --seconds says
BLAS_THREADS = "1"  # the same on every side of a comparison, <= nproc

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric units; counts must repeat exactly across repetitions.
LAYER_UNITS = {
    "graphs.build_s": "s", "graphs.build_calls": "count",
    "graphs.incidence_s": "s", "graphs.incidence_calls": "count",
    "signals.s": "s",
    "spectral.rho_s": "s", "spectral.rho_calls": "count",
    "tvsolver.opnorm_s": "s", "tvsolver.opnorm_calls": "count",
    "tvsolver.solve_s": "s", "tvsolver.solve_calls": "count",
    "tvsolver.iters": "count", "tvsolver.iters_p50": "count",
    "tvsolver.us_per_iter": "us", "tvsolver.unconverged": "count",
    "tvsolver.exact_s": "s", "tvsolver.exact_calls": "count",
    "tvsolver.taut_ns_per_elem": "ns",
    "tvsolver.cert_s": "s", "tvsolver.cert_calls": "count",
    "experiments.self_s": "s", "experiments.cells": "count",
    "experiments.oracle_steps": "count", "experiments.oracle_useful_ratio": "ratio",
    "cli.io_s": "s", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.coverage": "ratio",
    "trace.unwrapped_s": "s", "trace.spans": "count",
}
COVERAGE_TOL = 0.05  # layer self times must cover the traced wall to within this


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]]
                                                       if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list, deadline: float) -> str:
    """Run a child interpreter to completion; its standard output."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a repetition")
    try:
        proc = subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"{argv[:2]} exceeded the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def run_rep(workload: str, seed: int, traced: bool, full: bool, deadline: float) -> dict:
    """One repetition; ``setup_s`` is interpreter start to ``import graphtv`` complete."""
    started = time.monotonic()
    out = run_child([str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
                     "--traced", str(int(traced)), "--full", str(int(full))], deadline)
    rep = json.loads(out.strip().splitlines()[-1])
    rep["setup_s"] = rep["imported_at"] - started
    return rep


def environment() -> dict:
    probe = HERE / "environment.py"
    env = json.loads(run_child([str(probe)], time.monotonic() + 60).strip().splitlines()[-1])
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        env["git_sha"] = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        env["git_sha"] = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "graphtv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    env["nproc"] = len(os.sched_getaffinity(0))
    env["blas_threads_pinned"] = int(BLAS_THREADS)
    if pathlib.Path(env["graphtv_file"]).resolve().parent != SRC / "graphtv":
        raise BenchError(f"imported graphtv from {env['graphtv_file']}, not from {SRC}")
    return env


def bench_workload(workload: str, seed: int, seconds: float, trace: bool,
                   deadline: float) -> dict:
    """Repetitions of one workload; a dict with the result line's four keys."""
    # untraced repetitions, or (untraced, traced) pairs when tracing; a
    # repetition (or pair) starts only if the last one's length says it
    # ends within ``seconds``
    step = 2 if trace else 1
    min_reps = step if trace else MIN_REPS
    reps, lengths = [], []
    start = time.monotonic()
    while (len(reps) < min_reps or len(reps) % step
           or time.monotonic() - start + sum(lengths[-step:]) <= seconds):
        t0 = time.monotonic()
        reps.append(run_rep(workload, seed, traced=trace and len(reps) % 2 == 1,
                            full=not reps, deadline=deadline))
        lengths.append(time.monotonic() - t0)

    attempted = failed = 0
    notes = []
    digest = reps[0].get("digest")
    expected = next((r["attempted"] for r in reps if "error" not in r), 1)
    for i, rep in enumerate(reps):
        if "error" in rep:
            notes.append(f"repetition {i} raised:\n{rep['error']}")
            attempted += expected
            failed += expected
            continue
        attempted += rep["attempted"]
        failed += rep["failed"]
        notes.extend(rep["notes"])
        if rep["digest"] != digest:
            notes.append(f"repetition {i}: output digest differs from the first")
            failed += rep["attempted"] - rep["failed"]
    plain = [r for r in reps if "error" not in r and "layers" not in r]
    traced = [r for r in reps if "error" not in r and "layers" in r]
    info = {"workload": workload, "seed": seed, "repetitions": len(reps),
            "output_sha256": digest}
    metrics = {}
    if trace and traced and plain:
        metrics, trace_notes = layer_summary(traced, plain)
        if trace_notes:  # an incomplete or non-repeating trace fails the run
            notes.extend(trace_notes)
            failed = attempted
        info.update(traced_samples=len(traced), untraced_samples=len(plain))
    elif not trace and plain:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        info.update(wall_s_samples=[r["wall_s"] for r in plain],
                    setup_s_samples=[r["setup_s"] for r in plain],
                    parts_s_median={part: statistics.median(r["parts_s"][part] for r in plain)
                                    for part in plain[0]["parts_s"]})
    info["notes"] = notes
    return {"correct": failed == 0 and not notes and bool(metrics),
            "attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def layer_summary(traced: list, plain: list) -> tuple[dict, list]:
    """Per-layer metrics over the traced repetitions, and any failed trace checks.

    Times are medians over repetitions; counts must repeat exactly.
    """
    notes = []
    out = {}
    for name, unit in LAYER_UNITS.items():
        if name not in traced[0]["layers"]:
            continue
        values = [r["layers"][name] for r in traced]
        if unit == "count":
            if len(set(values)) != 1:
                notes.append(f"{name} differs between repetitions: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    coverage = statistics.median(r["layers"]["trace.self_sum_s"] / r["wall_s"]
                                 for r in traced)
    if abs(1.0 - coverage) > COVERAGE_TOL:
        notes.append(f"layer self times cover {coverage:.3f} of the traced wall")
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - statistics.median(r["wall_s"] for r in plain)
    out["trace.coverage"] = coverage
    return out, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="graphtv benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed; 0 gives the presets' own master seeds")
    ap.add_argument("--seconds", type=float, default=24.0,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "graphtv" / "__init__.py").is_file():
        print(f"run.py: no graphtv package under {SRC}; run from a graphtv checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    try:
        env = environment()
        print(json.dumps({"environment": env}))
        results = {}
        units = LAYER_UNITS if args.trace else END_TO_END
        for name in names:
            res = bench_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            results[name] = res
            print(json.dumps(res.pop("info")))
            for metric, value in res["metrics"].items():
                print(f"{name:12s} {metric:34s} {value!r:>24} {units[metric]}")
            print(f"{name:12s} failed_frac {res['failed']}/{res['attempted']}")
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        res = results[names[0]]
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()}
    else:
        metrics = {f"{w}.{k}": {"value": v, "unit": units[k]}
                   for w, res in results.items() for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
