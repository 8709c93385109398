"""Run every experiment preset on two source trees and compare their records byte for byte.

Usage: python tools/compare_presets.py PARENT_SRC CHANGE_SRC OUT

PARENT_SRC and CHANGE_SRC are directories that hold the ``graphtv``
package, such as the ``src`` of two checkouts.  Each preset that the
parent tree lists runs at ``--threads 1`` and ``--threads 2`` on both
trees, into ``OUT/parent/<preset>-t<threads>`` and ``OUT/change/...``.
One line per ``records.csv`` and ``records.json`` says whether the two
trees wrote the same bytes (a ``cmp`` verdict), and the exit status is 1
if any pair differs or the two runs exit differently.  Standard library
only, so it runs against any tree.
"""
import filecmp
import os
import subprocess
import sys
from pathlib import Path

THREADS = (1, 2)
RECORDS = ("records.csv", "records.json")


def _python(src: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    trees = {"parent": argv[0], "change": argv[1]}
    listed = _python(trees["parent"], "-c",
                     "from graphtv.experiments import PRESETS; print(*PRESETS)")
    if listed.returncode != 0:
        print(listed.stderr, file=sys.stderr)
        return 2
    same_everywhere = True
    for preset in listed.stdout.split():
        for threads in THREADS:
            out, codes = {}, {}
            for side, src in trees.items():
                out[side] = Path(argv[2], side, f"{preset}-t{threads}")
                codes[side] = _python(src, "-m", "graphtv", "experiment", "--preset", preset,
                                      "--threads", str(threads),
                                      "--out", str(out[side])).returncode
            if codes["parent"] != codes["change"]:
                same_everywhere = False
                print(f"{preset} --threads {threads}: exit {codes['parent']} -> {codes['change']}")
            for name in RECORDS:
                a, b = out["parent"] / name, out["change"] / name
                same = a.is_file() and b.is_file() and filecmp.cmp(a, b, shallow=False)
                same_everywhere &= same
                print(f"{preset} --threads {threads} {name}: {'identical' if same else 'DIFFER'}")
    return 0 if same_everywhere else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
