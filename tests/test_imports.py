"""What importing the package and starting the CLI load.

The package loads each public name's module on first use, and the CLI
imports a command's modules only when it runs. These tests keep an eager
import from creeping back into ``discrimpower/__init__.py`` or the top of
``cli.py``, where it would cost every invocation, ``--help`` included.
"""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import discrimpower
from discrimpower.cli import OPTIONS

SRC = str(Path(discrimpower.__file__).resolve().parent.parent)
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
HEAVY = ("numpy", "multiprocessing", "concurrent.futures.process", "discrimpower.measures")


def _child(code, *args, cwd, unset=(), **set_env):
    """Run ``code`` in a fresh interpreter that imports discrimpower from SRC,
    with the variables in ``unset`` removed from its environment and
    ``set_env`` added."""
    env = {name: value for name, value in os.environ.items() if name not in unset}
    env.update(set_env)
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
    (["sweep", "--gt", "gt.qrels", "--runs-dir", ".", "--fractions", "0.5,0.5"], 1),
    (["plot", "--sweep", "sweep.csv", "--out-dir", "."], 0),
], ids=["build-parser", "help", "bad-flag", "config-unknown-key", "config-value-not-a-choice",
        "duplicate-fraction", "plot-sweep"])
def test_cli_start_and_option_errors_load_no_numpy(tmp_path, argv, code):
    (tmp_path / "unknown.cfg").write_text("permutation=100\n")
    (tmp_path / "choice.cfg").write_text("precision=ful\n")
    (tmp_path / "sweep.csv").write_text("fraction,p1,r1,p2,r2,bac,mcc\n0.5,1,1,1,1,1,0\n"
                                        "0.5,0.5,1,1,0.5,0.75,undefined\n")
    proc = _child(STARTUP, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [code, []]


def test_single_worker_test_loads_no_process_pool(tmp_path):
    sampled = ("runs, qrels = build_mini_collection()\n"
               "sm = score_matrix(runs, qrels, MeasureSpec())\n"
               "tukey_hsd_pvalues(sm, SigTestConfig(permutations=300, n_workers=1))\n")
    # 6**4 = 1,296 assignments: two blocks, both in this process.
    exhaustive = ("sm = ScoreMatrix('abc', 'wxyz', [[0.1, 0.2, 0.3, 0.4], [0.5] * 4, [0.0] * 4])\n"
                  "tukey_hsd_pvalues(sm, SigTestConfig(mode='exhaustive', n_workers=1))\n")
    for test in (sampled, exhaustive):
        code = (
            "import sys\n"
            "from discrimpower import (MeasureSpec, ScoreMatrix, SigTestConfig,\n"
            "                          build_mini_collection, score_matrix, tukey_hsd_pvalues)\n"
            + test +
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
        )
        proc = _child(code, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", test


SAMPLER = ("discrimpower.synth", "fractions", "decimal")


@pytest.mark.parametrize("command, loaded", [
    (["compare", "--cand", "{gt}"], []),
    (["sweep", "--fractions", "0.5,1", "--repetitions", "2"], ["discrimpower.synth"]),
], ids=["compare", "sweep"])
def test_a_command_loads_no_sampling_module_it_does_not_run(tmp_path, mini_files, command,
                                                            loaded):
    # Only sweep samples, and only popularity labelling reads fractions;
    # decimal comes with fractions.
    gt, runs_dir, out = mini_files
    code = (
        "import json, sys\n"
        "from discrimpower import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        f"print(json.dumps([code, sorted(set({SAMPLER!r}) & set(sys.modules))]))\n"
    )
    argv = [*(arg.format(gt=gt) for arg in command), "--gt", gt, "--runs-dir", runs_dir,
            "--permutations", "50", "--out-dir", out]
    proc = _child(code, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, loaded]


HASHING = ("hashlib", "_hashlib", "_blake2")
LOADED_THEN_EXIT = f"""\
import json, sys
from discrimpower import cli
load = cli._load_inputs
loaded = []
def spy(*args):
    inputs = load(*args)
    loaded.append(sorted(set({HASHING!r}) & set(sys.modules)))
    return inputs
cli._load_inputs = spy
code = cli.main(sys.argv[1:])
print(json.dumps([code, loaded, sorted(set({HASHING!r}) & set(sys.modules))]))
"""


@pytest.mark.parametrize("command", [
    ["evaluate", "--qrels", "{gt}"],
    ["compare", "--gt", "{gt}", "--cand", "{gt}", "--permutations", "50"],
    ["sweep", "--gt", "{gt}", "--fractions", "0.5,1", "--repetitions", "2",
     "--permutations", "50"],
], ids=["evaluate", "compare", "sweep"])
def test_the_run_cache_hashes_without_hashlib(tmp_path, mini_files, cache_home, command):
    # hashlib loads OpenSSL, about 3.6 MB of peak RSS; the run cache keys
    # files with _blake2, the module behind hashlib.blake2b. numpy.random
    # imports hashlib (through secrets and hmac), so compare and sweep load
    # it once their inputs are in; evaluate never does.
    gt, runs_dir, out = mini_files
    argv = [*(arg.format(gt=gt) for arg in command), "--runs-dir", runs_dir, "--out-dir", out]
    for cache in ("cold", "warm"):
        proc = _child(LOADED_THEN_EXIT, *argv, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        code, loaded, at_exit = json.loads(proc.stdout.splitlines()[-1])
        assert [code, loaded] == [0, [["_blake2"]]], cache
        if command[0] == "evaluate":
            assert at_exit == ["_blake2"], cache
    assert len(list(cache_home.glob("discrimpower/runs/*"))) == 5


def test_importing_the_cli_loads_no_hashing_module(tmp_path):
    code = ("import sys\nimport discrimpower.cli as cli\ncli.build_parser()\n"
            f"print(sorted(set({HASHING!r}) & set(sys.modules)))\n")
    proc = _child(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_public_names_are_their_defining_modules_objects():
    names = [n for n in discrimpower.__all__ if n != "__version__"]
    assert len(discrimpower.__all__) == 60 and len(set(names)) == 59
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

    # The parser takes its choices and defaults from this table; test_cli
    # checks that both the flag and the config key enforce them.
    table = {(command, o.dest): (o.choices, o.default)
             for o in OPTIONS if o.choices for command in o.commands}
    for command in ("evaluate", "compare", "sweep"):
        assert table[command, "gain"] == ((LINEAR, EXPONENTIAL), LINEAR)
    assert table["generate popularity", "p_mode"] == ((PER_TOPIC, GLOBAL, EXPLICIT), PER_TOPIC)


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# compare, since evaluate never loads numpy: a gate it passed would pass
# vacuously. The last field says that numpy was loaded.
COMPARE_THEN_REPORT = f"""\
import json, os, sys
from discrimpower import cli
code = cli.main(["compare", "--gt", sys.argv[1], "--cand", sys.argv[1],
                 "--runs-dir", sys.argv[2], "--out-dir", sys.argv[3], "--permutations", "50"])
print(json.dumps([code, len(os.listdir("/proc/self/task")),
                  [os.environ.get(name) for name in {BLAS_VARS!r}], "numpy" in sys.modules]))
"""


@pytest.fixture(scope="module")
def mini_files(tmp_path_factory):
    from discrimpower.minicollection import write_mini_collection

    root = tmp_path_factory.mktemp("blas")
    qrels_path, _ = write_mini_collection(root)
    return [str(qrels_path), str(qrels_path.parent / "runs"), str(root / "out")]


NO_NUMPY = """\
import sys
sys.modules["numpy"] = None  # every import of numpy now fails
from discrimpower import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_evaluate_runs_without_numpy(tmp_path, mini_files):
    # evaluate scores its one qrels set in plain floats; the grade index,
    # which needs numpy, must give the same bytes.
    from discrimpower.measures import _GradeIndex
    from discrimpower.trec import load_qrels, load_runs_dir

    gt, runs_dir, _ = mini_files
    index = _GradeIndex(load_runs_dir(runs_dir, depth=10), 10, load_qrels(gt))
    expected = index.score(index.grades[0], "linear").to_csv()
    for out_dir in (None, tmp_path / "out"):
        cache = tmp_path / ("cache-stdout" if out_dir is None else "cache-out-dir")
        argv = ["evaluate", "--qrels", gt, "--runs-dir", runs_dir,
                *(() if out_dir is None else ("--out-dir", str(out_dir)))]
        for run in ("cold", "warm"):
            proc = _child(NO_NUMPY, *argv, cwd=tmp_path, XDG_CACHE_HOME=str(cache))
            assert proc.returncode == 0, (run, proc.stderr)
            written = proc.stdout if out_dir is None else (out_dir / "scores.csv").read_text()
            assert written == expected, run
        assert len(list(cache.glob("discrimpower/runs/*"))) == 5


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_starts_no_blas_threads(tmp_path, mini_files):
    # No command calls BLAS; numpy's BLAS would otherwise start a worker
    # thread per extra core when the command imports numpy.
    proc = _child(COMPARE_THEN_REPORT, *mini_files, cwd=tmp_path, unset=BLAS_VARS)
    assert proc.returncode == 0, proc.stderr
    code, tasks, values, numpy_loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0 and numpy_loaded
    assert tasks <= 1
    assert values == ["1", "1", "1"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_keeps_a_blas_thread_count_already_set(tmp_path, mini_files):
    proc = _child(COMPARE_THEN_REPORT, *mini_files, cwd=tmp_path, unset=BLAS_VARS,
                  OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    code, _, values, numpy_loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0 and numpy_loaded
    assert values == ["2", "1", "1"]


def test_importing_the_cli_leaves_the_environment_alone(tmp_path):
    code = ("import os\nbefore = dict(os.environ)\nimport discrimpower.cli\n"
            "print(dict(os.environ) == before)\n")
    proc = _child(code, cwd=tmp_path, unset=BLAS_VARS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def _imported_packages():
    """The top-level package of every absolute import in the package's modules."""
    found = set()
    for path in Path(discrimpower.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.partition(".")[0])
    return found


def test_every_import_is_stdlib_or_a_declared_dependency():
    try:
        import tomllib
    except ImportError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
                for req in requirements}
    # Both ways: nothing imported goes undeclared, nothing declared goes unused.
    third_party = _imported_packages() - set(sys.stdlib_module_names) - {"discrimpower"}
    assert third_party == declared
