"""Write reference.json: per-size MSE statistics of each study at many trials.

For every (config, size) it records [mean MSE, per-trial standard
deviation, trials].  The benchmark checks a trimmed study's per-size mean
MSE against these references (see ``Z_MAX`` in workloads.py).  The
references use the presets' own seeds (benchmark seed 0).

    python3 perfbench/record_reference.py            # rewrite reference.json
    python3 perfbench/record_reference.py --spread 10

``--spread K`` instead runs the trimmed studies at benchmark seeds 1..K
and prints, per study, the largest distance of a per-size mean from its
reference in standard errors: the sampling spread ``Z_MAX`` must cover.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402

# The island presets' 50 trials; 40 grid trials where the presets run 10,
# because 10 trials estimate the per-trial spread of the large grids too
# loosely for the standard-error check.
FULL_TRIALS = {"island-fig2": 50, "island-kl": 50, "grid-rate": 40}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spread", type=int, default=0, metavar="K")
    args = ap.parse_args(argv)
    if args.spread:
        reference = json.loads(W.REFERENCE.read_text(encoding="utf-8"))
        for name, trials in W.TRIALS.items():
            worst = 0.0
            for seed in range(1, args.spread + 1):
                stats = W.mse_stats(W.run_study(name, seed, trials))
                for cfg, by_n in stats.items():
                    for n, stat in by_n.items():
                        worst = max(worst, W.z_score(stat, reference[name][cfg][n]))
            print(f"{name}: {trials} trials, seeds 1..{args.spread}: largest distance "
                  f"{worst:.2f} standard errors (limit {W.Z_MAX})")
        return 0
    out = {}
    for name, trials in FULL_TRIALS.items():
        groups = W.run_study(name, 0, trials)
        if not all(r.converged for _, rs in groups for r in rs):
            raise SystemExit(f"{name}: a reference record did not converge")
        out[name] = W.mse_stats(groups)
        print(name, "done", flush=True)
    W.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
