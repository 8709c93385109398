"""Every demo runs end to end: 01 builds every family through the ``auto``
spectral route, 03 runs the harness families, 05 the grid rate studies."""
import os
import pathlib
import subprocess
import sys

import pytest

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
