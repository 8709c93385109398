"""One repetition of one workload, in the fresh interpreter ``run.py`` starts.

    python3 perfbench/worker.py --workload NAME --seed N --traced 0|1 --full 0|1

``--traced 1`` records spans through spans.py.  ``--full 1`` runs the full
correctness checks; later repetitions of a run pass 0 and are checked by
their output digest in ``run.py``.  The result is one JSON object on the
last line of standard output; it includes the monotonic clock reading
at which ``import graphtv`` completed, from which ``run.py`` takes the
set-up time.  ``graphtv`` must be importable: ``run.py`` puts the
checkout's ``src`` on ``PYTHONPATH``.
"""
from __future__ import annotations

import time

import graphtv

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = pathlib.Path(__file__).resolve().parent.parent / ".perfbench_work"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", type=int, choices=[0, 1], required=True)
    ap.add_argument("--full", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)

    tracer = None
    if args.traced:
        tracer = spans.Tracer()
        spans.install(tracer)
    workload = workloads.WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    result = {"imported_at": IMPORTED_AT, "graphtv_file": graphtv.__file__}
    try:
        inputs = workload.prepare(args.seed, workdir)
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        output, parts = workload.run(inputs)
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
            result["layers"] = spans.layer_metrics(tracer.spans, wall)
        result["wall_s"] = wall
        result["parts_s"] = parts
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = workload.check(inputs, output, full=bool(args.full))
        result.update(attempted=checked.attempted, failed=checked.failed,
                      digest=checked.digest, notes=checked.notes)
    except Exception:  # a raising workload is a failed repetition; run.py counts it
        result["error"] = traceback.format_exc()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
