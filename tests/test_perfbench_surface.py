"""The package names and CLI argv that the benchmark in ``perfbench/`` uses.

The benchmark is kept unchanged across package changes, so a renamed
function or flag would otherwise surface only as a failed benchmark run.
"""
import ast
import importlib
import pathlib

from graphtv import cli
from graphtv import experiments as E
from graphtv import graphs as G
from graphtv import signals as sig
from graphtv import spectral as spec
from graphtv import tvsolver as tv

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
ALIASES = {"tv": tv, "E": E, "G": G, "spec": spec, "sig": sig, "cli": cli}


def _used_attributes():
    used = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ALIASES):
                used.add((node.value.id, node.attr))
    return sorted(used)


def test_every_attribute_the_benchmark_uses_exists():
    used = _used_attributes()
    assert len(used) == 15
    missing = [f"{alias}.{attr}" for alias, attr in used
               if not hasattr(ALIASES[alias], attr)]
    assert missing == []


def test_cli_oneshot_commands_parse(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    commands = workloads._prepare_cli(1, tmp_path)["commands"]
    assert len(commands) == 3
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv)  # exits on an unknown flag or choice
        assert args.func in (cli.cmd_denoise, cli.cmd_spectral)
