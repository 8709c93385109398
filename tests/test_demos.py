"""Every demo runs end to end: 01 builds every family through the ``auto``
spectral route, 03 runs the harness families, 05 the grid rate studies."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_spectral_constants.py", "02_denoise_cartoon.py",
                                  "03_island_model.py", "04_haar_thresholding.py",
                                  "05_rate_studies.py"])
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
