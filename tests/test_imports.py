"""What importing the package and starting the CLI load.

The package loads each public name's module on first use, and the CLI
imports a command's modules only when it runs. These tests keep an eager
import from creeping back into ``discrimpower/__init__.py`` or the top of
``cli.py``, where it would cost every invocation, ``--help`` included.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import discrimpower
from discrimpower.cli import build_parser

SRC = str(Path(discrimpower.__file__).resolve().parent.parent)
HEAVY = ("numpy", "multiprocessing", "concurrent.futures.process", "discrimpower.measures")


def _child(code, *args, cwd):
    """Run ``code`` in a fresh interpreter that imports discrimpower from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


STARTUP = f"""\
import json, sys
import discrimpower.cli as cli
cli.build_parser()
code = 0
if len(sys.argv) > 1:
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(set({HEAVY!r}) & set(sys.modules))]))
"""


@pytest.mark.parametrize("argv, code", [
    ([], 0),
    (["--help"], 0),
    (["evaluate", "--qrels", "gt.qrels", "--gain", "cubic"], 2),
    (["evaluate", "--qrels", "gt.qrels", "--runs-dir", ".", "--config", "unknown.cfg"], 1),
    (["sweep", "--gt", "gt.qrels", "--runs-dir", ".", "--config", "choice.cfg"], 1),
], ids=["build-parser", "help", "bad-flag", "config-unknown-key", "config-value-not-a-choice"])
def test_cli_start_and_option_errors_load_no_numpy(tmp_path, argv, code):
    (tmp_path / "unknown.cfg").write_text("permutation=100\n")
    (tmp_path / "choice.cfg").write_text("precision=ful\n")
    proc = _child(STARTUP, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [code, []]


def test_single_worker_test_loads_no_process_pool(tmp_path):
    code = (
        "import sys\n"
        "from discrimpower import (MeasureSpec, SigTestConfig, build_mini_collection,\n"
        "                          score_matrix, tukey_hsd_pvalues)\n"
        "runs, qrels = build_mini_collection()\n"
        "sm = score_matrix(runs, qrels, MeasureSpec())\n"
        "tukey_hsd_pvalues(sm, SigTestConfig(permutations=300, n_workers=1))\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
    )
    proc = _child(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_public_names_are_their_defining_modules_objects():
    names = [n for n in discrimpower.__all__ if n != "__version__"]
    assert len(discrimpower.__all__) == 63 and len(set(names)) == 62
    for name in names:
        home = importlib.import_module(f"discrimpower.{discrimpower._MODULE_OF[name]}")
        value = getattr(discrimpower, name)
        assert value is getattr(home, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home.__name__, name  # defined there, not imported


def test_dir_star_import_and_unknown_names():
    assert set(discrimpower.__all__) <= set(dir(discrimpower))
    namespace = {}
    exec("from discrimpower import *", namespace)
    assert set(discrimpower.__all__) <= set(namespace)
    assert namespace["parse_run"] is discrimpower.trec.parse_run
    with pytest.raises(AttributeError, match="no_such_name"):
        discrimpower.no_such_name
    assert not hasattr(discrimpower, "labeller_config")


def test_literal_cli_choices_are_the_module_constants():
    from discrimpower.measures import EXPONENTIAL, LINEAR
    from discrimpower.synth import EXPLICIT, GLOBAL, PER_TOPIC

    parser = build_parser()
    for command in (["evaluate", "--qrels", "q"], ["compare", "--gt", "q", "--cand", "q"],
                    ["sweep", "--gt", "q"]):
        assert tuple(parser.parse_args(command).choices["gain"]) == (LINEAR, EXPONENTIAL)
    popularity = parser.parse_args(["generate", "popularity", "--gt", "q"])
    assert tuple(popularity.choices["p_mode"]) == (PER_TOPIC, GLOBAL, EXPLICIT)
