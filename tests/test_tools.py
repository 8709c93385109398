"""Smoke tests of the scripts under ``tools/``."""
import pathlib
import subprocess
import sys

COMPARE = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_presets.py"


def _compare(*args):
    return subprocess.run([sys.executable, str(COMPARE), *map(str, args)],
                          capture_output=True, text=True, timeout=60)


def test_compare_presets_wrong_argument_count_prints_usage():
    done = _compare("only-one")
    assert done.returncode == 2
    assert "Usage: python tools/compare_presets.py PARENT_SRC CHANGE_SRC OUT" in done.stderr


def test_compare_presets_parent_without_graphtv(tmp_path):
    (tmp_path / "empty").mkdir()
    done = _compare(tmp_path / "empty", tmp_path / "empty", tmp_path / "out")
    assert done.returncode == 2
    assert "graphtv" in done.stderr and not (tmp_path / "out").exists()
