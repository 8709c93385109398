"""Every demo runs end to end: 01 builds every family through the ``auto``
spectral route, 03 runs the harness families, 05 the grid rate studies.
The README's quick start runs and its command-line examples parse."""
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from graphtv import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_spectral_constants.py", "02_denoise_cartoon.py",
                                  pytest.param("03_island_model.py", marks=pytest.mark.slow),
                                  "04_haar_thresholding.py",
                                  pytest.param("05_rate_studies.py", marks=pytest.mark.slow)])
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    src = (ROOT / "README.md").read_text(encoding="utf-8")
    block = src.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].rho_method == "eigensum_structured"
    assert namespace["res"].converged


def test_readme_commands_parse():
    # a retired flag or choice in the README's examples fails here
    src = (ROOT / "README.md").read_text(encoding="utf-8")
    block = src.split("## Command line", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) == 7 and all(argv[0] == "graphtv" for argv in commands)
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])  # exits on an unknown flag or choice
        assert args.command == argv[1]
