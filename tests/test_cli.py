import csv
import importlib.metadata
import os
import pkgutil
import random
import shutil
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

import discrimpower
from discrimpower import cli
from discrimpower.cli import _load_config, main
from discrimpower.errors import ConfigurationError
from discrimpower.minicollection import write_mini_collection
from discrimpower.trec import Qrels, RunSet, load_qrels, save_qrels


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    qrels_path, run_paths = write_mini_collection(root)
    return {
        "root": root,
        "gt": str(qrels_path),
        "runs_dir": str(qrels_path.parent / "runs"),
        "runs": [str(p) for p in run_paths],
    }


def run_compare(ws, out_dir, extra=()):
    return main([
        "compare",
        "--gt", ws["gt"], "--cand", ws["gt"],
        "--runs-dir", ws["runs_dir"],
        "--permutations", "500",
        "--out-dir", str(out_dir),
        *extra,
    ])


def test_compare_end_to_end(workspace, tmp_path, capsys):
    code = run_compare(workspace, tmp_path)
    assert code == 0
    for name in ("report.csv", "report.json", "pairs.csv"):
        assert (tmp_path / name).is_file()
    out = capsys.readouterr().out
    assert f"wrote {tmp_path / 'report.csv'}" in out
    assert "dataset,qrels,kappa" in out
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert len(lines) == 2
    cells = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert cells["dataset"] == "truth"  # defaults to the gt file stem
    assert cells["kappa"] == "1.0000"
    assert cells["fp"] == "0" and cells["fn"] == "0"


def test_compare_rerun_and_workers_byte_identical(workspace, tmp_path):
    dirs = [tmp_path / f"o{i}" for i in range(3)]
    assert run_compare(workspace, dirs[0]) == 0
    assert run_compare(workspace, dirs[1]) == 0
    assert run_compare(workspace, dirs[2], extra=("--workers", "2")) == 0
    for name in ("report.csv", "report.json", "pairs.csv"):
        ref = (dirs[0] / name).read_bytes()
        assert (dirs[1] / name).read_bytes() == ref
        assert (dirs[2] / name).read_bytes() == ref


def test_explicit_run_list(workspace, tmp_path):
    code = main([
        "compare",
        "--gt", workspace["gt"], "--cand", workspace["gt"],
        *[arg for p in workspace["runs"] for arg in ("--run", p)],
        "--permutations", "300",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0


def test_runs_dir_and_run_conflict(workspace, tmp_path, capsys):
    code = main([
        "compare", "--gt", workspace["gt"], "--cand", workspace["gt"],
        "--runs-dir", workspace["runs_dir"], "--run", workspace["runs"][0],
        "--out-dir", str(tmp_path),
    ])
    assert code == 1
    assert "not both" in capsys.readouterr().err


def test_missing_qrels_exits_2(workspace, tmp_path, capsys):
    code = main([
        "compare", "--gt", workspace["gt"],
        "--cand", str(tmp_path / "missing.qrels"),
        "--runs-dir", workspace["runs_dir"],
        "--out-dir", str(tmp_path),
    ])
    assert code == 2
    assert "missing.qrels" in capsys.readouterr().err


def test_missing_runs_dir_exits_2(workspace, tmp_path, capsys):
    code = main([
        "compare", "--gt", workspace["gt"], "--cand", workspace["gt"],
        "--runs-dir", str(tmp_path / "nowhere"),
        "--out-dir", str(tmp_path),
    ])
    assert code == 2
    assert "nowhere" in capsys.readouterr().err


def test_bad_alpha_exits_1(workspace, tmp_path, capsys):
    code = run_compare(workspace, tmp_path, extra=("--alpha", "1.5"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "alpha" in err


def test_config_file_applies_and_flags_override(workspace, tmp_path):
    cfg_dir = tmp_path / "from_config"
    config = tmp_path / "opts.cfg"
    config.write_text(
        "# comment line\n"
        "precision = full\n"
        f"out-dir = {cfg_dir}\n"
    )
    base = [
        "compare", "--gt", workspace["gt"], "--cand", workspace["gt"],
        "--runs-dir", workspace["runs_dir"], "--permutations", "300",
        "--config", str(config),
    ]
    assert main(base) == 0
    text = (cfg_dir / "report.csv").read_text()
    cells = dict(zip(*[line.split(",") for line in text.splitlines()]))
    assert cells["kappa"] == "1.0"  # full precision repr, not 1.0000

    flag_dir = tmp_path / "from_flag"
    assert main(base + ["--precision", "4", "--out-dir", str(flag_dir)]) == 0
    cells = dict(zip(*[line.split(",") for line in
                       (flag_dir / "report.csv").read_text().splitlines()]))
    assert cells["kappa"] == "1.0000"


def test_bad_config_line_exits_1(workspace, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("precision full\n")
    code = run_compare(workspace, tmp_path, extra=("--config", str(config)))
    assert code == 1
    assert "key=value" in capsys.readouterr().err


@pytest.mark.parametrize("char", ["\x85", "\x0c", "\u2028"],
                         ids=["next-line", "form-feed", "line-separator"])
def test_config_lines_end_only_at_newlines(tmp_path, char):
    # \n, \r\n and \r end a line; str.splitlines would also split at char.
    config = tmp_path / "odd.cfg"
    config.write_bytes(f"dataset=trec{char}dl\r\nname=a\rprecision=full\n".encode("utf-8"))
    assert _load_config(config) == {"dataset": f"trec{char}dl", "name": "a",
                                    "precision": "full"}


EVALUATE = ["evaluate", "--runs-dir", "{runs_dir}", "--qrels", "{gt}"]
COMPARE = ["compare", "--runs-dir", "{runs_dir}", "--gt", "{gt}", "--cand", "{gt}"]
SWEEP = ["sweep", "--runs-dir", "{runs_dir}", "--gt", "{gt}"]


@pytest.mark.parametrize("args, config, named", [
    (EVALUATE, b"k=abc\n", "'abc'"),
    (EVALUATE, b"permutation=100\n", "permutation"),
    (EVALUATE, b"k=\xff\n", "UTF-8"),
    (["evaluate", "--runs-dir", "{runs_dir}", "--qrels", "{runs_dir}"], None, "Is a directory"),
    (["evaluate", "--runs-dir", "{runs_dir}", "--qrels", "{latin1}"], None, "latin1.qrels"),
    (SWEEP, b"precision=ful\n", "opts.cfg: invalid value for precision: 'ful'"),
    (EVALUATE + ["--k", "0"], None, "cutoff k must be >= 1, got 0"),
    (["evaluate", "--runs-dir", "{root}/nowhere", "--qrels", "{gt}", "--k", "0"], None,
     "cutoff k must be >= 1, got 0"),
    (["generate", "popularity", "--runs-dir", "{root}/nowhere", "--gt", "{gt}",
      "--depth", "0"], None, "depth must be >= 1"),
    (COMPARE + ["--alpha", "1.5"], None, "alpha must be in (0, 1), got 1.5"),
    (COMPARE + ["--permutations", "0"], None, "permutation count must be >= 1"),
    (COMPARE + ["--workers", "0"], None, "n_workers must be >= 1"),
    (COMPARE + ["--seed", "-1"], None, "master_seed must be a non-negative integer"),
    (["generate", "sample", "--gt", "{gt}", "--fraction", "1.5"], None,
     "fraction must be in [0, 1], got 1.5"),
    (SWEEP + ["--repetitions", "0"], None, "repetitions must be >= 1"),
    (SWEEP + ["--repetitions", "-1"], None, "repetitions must be >= 1"),
    (EVALUATE + ["--max-grade", "-1"], None, "error: max_grade must be >= 0, got -1"),
    (["generate", "sample", "--gt", "{gt}", "--fraction", "0.5", "--max-grade", "-1"], None,
     "error: max_grade must be >= 0, got -1"),
    (["generate", "popularity", "--runs-dir", "{runs_dir}", "--gt", "{gt}",
      "--p-mode", "explicit"], None, "explicit mode needs explicit_p in [0, 1]"),
    (["plot", "--pairs", "{gt}"], None, "scatter input is missing columns"),
    (SWEEP + ["--fractions", "0.5,0.5", "--repetitions", "1"], None,
     "error: sampling fraction 0.5 is listed twice"),
    (SWEEP, b"fractions=0.2,0.5,0.50\n",
     "opts.cfg: invalid value for fractions: sampling fraction 0.5 is listed twice"),
    (["generate", "sample", "--gt", "{gt}", "--fractions", "1,0.3,1.0"], None,
     "error: sampling fraction 1.0 is listed twice"),
    (COMPARE, b"config=other.cfg\n", "opts.cfg: config can only be given as a flag"),
    (COMPARE, b"cand=x.qrels\n", "opts.cfg: cand can only be given as a flag"),
    (SWEEP, b"gt=x.qrels\n", "opts.cfg: gt can only be given as a flag"),
    (EVALUATE, b"qrels=x.qrels\n", "opts.cfg: qrels can only be given as a flag"),
    (EVALUATE, b"precision=4\n", "opts.cfg: unknown option precision"),
    (COMPARE + ["--precision", "4"], b"precision=ful\n",
     "opts.cfg: invalid value for precision: 'ful'"),
    (EVALUATE, b"k=5\nk=7\n", "opts.cfg: line 2: k is given twice"),
], ids=["config-bad-value", "config-unknown-key", "config-not-utf8",
        "qrels-is-a-directory", "qrels-not-utf8", "config-value-not-a-choice",
        "k-0", "k-0-before-missing-runs", "depth-0-before-missing-runs", "alpha-1.5",
        "permutations-0", "workers-0", "seed-negative",
        "fraction-1.5", "repetitions-0", "repetitions-negative", "max-grade-negative",
        "sample-max-grade-negative", "explicit-mode-without-p", "plot-pairs-given-qrels",
        "sweep-fraction-twice", "config-fraction-twice", "sample-fraction-twice",
        "config-key-config", "config-key-cand", "config-key-gt", "config-key-qrels",
        "config-key-precision-on-evaluate", "config-value-checked-under-a-flag",
        "config-key-twice"])
def test_bad_input_gives_one_error_line(workspace, tmp_path, args, config, named):
    latin1 = tmp_path / "latin1.qrels"
    latin1.write_bytes(b"q1 0 caf\xe9 1\n")
    paths = dict(workspace, latin1=str(latin1))
    args = [arg.format(**paths) for arg in args]
    if config is not None:
        path = tmp_path / "opts.cfg"
        path.write_bytes(config)
        args += ["--config", str(path)]
    proc = _run_script("discrimpower.cli:main", *args, cwd=tmp_path)
    assert proc.returncode in (1, 2)
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert named in lines[0]


OVERFLOW = "grade {} is too large for exponential gain: the ideal DCG overflows a float"


@pytest.mark.parametrize("command", [["evaluate", "--qrels", "{qrels}"],
                                     ["compare", "--gt", "{qrels}", "--cand", "{qrels}",
                                      "--permutations", "50"],
                                     ["sweep", "--gt", "{qrels}", "--fractions", "1",
                                      "--repetitions", "1", "--permutations", "50"]],
                         ids=["evaluate", "compare", "sweep"])
@pytest.mark.parametrize("judged, message", [
    ("q1 0 a 2000\n", OVERFLOW.format(2000)),
    ("q1 0 a 1023\nq1 0 b 1023\nq1 0 c 1023\n", OVERFLOW.format(1023)),
    # The DCG of (53, 1, 2) rounds one ulp above the ideal (53, 2, 1)'s: it scores 1.
    ("q1 0 a 53\nq1 0 b 1\nq1 0 c 2\n", None),
], ids=["gain-overflows", "ideal-dcg-overflows", "rounded-above-1"])
def test_an_unrepresentable_exponential_score_is_one_error_line(tmp_path, command, judged,
                                                                message):
    qrels, out = tmp_path / "gt.qrels", tmp_path / "out"
    qrels.write_text(judged)
    (tmp_path / "A.run").write_text("q1 Q0 a 1 3.0 A\nq1 Q0 b 2 2.0 A\nq1 Q0 c 3 1.0 A\n")
    (tmp_path / "B.run").write_text("q1 Q0 c 1 3.0 B\n")  # a test needs two systems
    args = [arg.format(qrels=qrels) for arg in command]
    proc = _run_script("discrimpower.cli:main", *args, "--run", "A.run", "--run", "B.run",
                       "--gain", "exponential", "--max-grade", "5000", "--out-dir", str(out),
                       cwd=tmp_path)
    if message is not None:
        assert (proc.returncode, proc.stderr) == (1, f"error: {message}\n")
        assert not out.exists()
        return
    assert (proc.returncode, proc.stderr) == (0, "")
    if command[0] == "evaluate":
        assert (out / "scores.csv").read_text().splitlines()[1] == "A,1.000000"


def test_a_fraction_listed_twice_exits_1_before_loading(workspace, tmp_path, capsys):
    # Both cells of a repeated fraction would draw the same seed substream.
    missing = str(tmp_path / "nowhere")
    for args in (["sweep", "--gt", missing, "--runs-dir", missing],
                 ["generate", "sample", "--gt", missing]):
        assert main([*args, "--fractions", "0.5,0.5", "--repetitions", "1",
                     "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: sampling fraction 0.5 is listed twice\n"
    assert not any(tmp_path.iterdir())


MISSING = "{missing}"
BAD_ENDPOINTS = {"not-a-url": "notaurl", "ftp": "ftp://x/", "file": "file:///etc/hostname",
                 "no-host": "http:///nohost", "port-not-a-number": "http://h:abc/"}
TOO_LARGE = 2 ** 63  # a grade this large does not fit the int64 grade buffers
ALL_INPUTS_MISSING = {
    "compare": ["--gt", MISSING, "--cand", MISSING, "--runs-dir", MISSING],
    "sweep": ["--gt", MISSING, "--runs-dir", MISSING],
    "generate sample": ["--gt", MISSING],
    "generate popularity": ["--gt", MISSING, "--runs-dir", MISSING],
    "generate llm": ["--gt", MISSING, "--queries", MISSING, "--texts", MISSING],
    "evaluate": ["--qrels", MISSING, "--runs-dir", MISSING],
}


@pytest.mark.parametrize("command, flags, config, named", [
    ("compare", ["--alpha", "1.5"], None, "alpha must be in (0, 1), got 1.5"),
    ("compare", ["--permutations", "0"], None, "permutation count must be >= 1"),
    ("compare", ["--workers", "0"], None, "n_workers must be >= 1"),
    ("compare", ["--seed", "-1"], None, "master_seed must be a non-negative integer"),
    ("compare", [], b"permutations=abc\n", "opts.cfg: invalid value for permutations: 'abc'"),
    ("sweep", ["--repetitions", "0"], None, "repetitions must be >= 1"),
    ("compare", ["--max-grade", "-1"], None, "max_grade must be >= 0, got -1"),
    ("evaluate", ["--max-grade", "-1"], None, "max_grade must be >= 0, got -1"),
    ("evaluate", [], b"max_grade=-1\n",
     "opts.cfg: invalid value for max_grade: max_grade must be >= 0, got -1"),
    *[(command, ["--max-grade", str(TOO_LARGE)], None,
       f"max_grade must be below 2^63, got {TOO_LARGE}") for command in ALL_INPUTS_MISSING],
    ("evaluate", [], f"max_grade={TOO_LARGE}\n".encode(),
     f"opts.cfg: invalid value for max_grade: max_grade must be below 2^63, got {TOO_LARGE}"),
    ("generate sample", ["--fraction", "1.5"], None, "fraction must be in [0, 1], got 1.5"),
    ("generate sample", ["--fractions", "0.1,0.1000001"], None,
     "sampling fractions 0.1 and 0.1000001 would both write sample_0.1_0.qrels"),
    ("generate popularity", ["--p-mode", "explicit"], None,
     "explicit mode needs explicit_p in [0, 1]"),
    ("generate llm", ["--model", "m"], None, "--endpoint is required for llm generation"),
    ("generate llm", ["--model", "m", "--endpoint", "http://127.0.0.1:1/", "--timeout", "0"],
     None, "timeout must be > 0 seconds, got 0.0"),
    ("generate llm", ["--model", "m", "--endpoint", "http://127.0.0.1:1/", "--timeout", "inf"],
     None, "timeout must be at most 9223372036 seconds, got inf"),
    ("generate llm", ["--model", "m", "--endpoint", "http://127.0.0.1:1/", "--rate-limit", "nan"],
     None, "rate_limit must be positive when set"),
    ("generate llm", ["--model", "m", "--endpoint", "http://127.0.0.1:1/"], b"retries=0\n",
     "max_retries must be >= 1"),
    *[("generate llm", ["--model", "m", "--endpoint", endpoint], None,
       f"endpoint must look like http(s)://host[:port]/path, got {endpoint!r}")
      for endpoint in BAD_ENDPOINTS.values()],
    ("evaluate", [], b"out-dir=a\n\nout_dir=b\n", "opts.cfg: line 3: out_dir is given twice"),
], ids=["compare-alpha-1.5", "compare-permutations-0", "compare-workers-0",
        "compare-seed-negative", "compare-config-permutations-abc", "sweep-repetitions-0",
        "compare-max-grade-negative", "evaluate-max-grade-negative",
        "evaluate-config-max-grade-negative",
        *[f"{command.replace(' ', '-')}-max-grade-2^63" for command in ALL_INPUTS_MISSING],
        "evaluate-config-max-grade-2^63", "sample-fraction-1.5",
        "sample-fractions-one-file-name",
        "popularity-explicit-without-p", "llm-without-endpoint",
        "llm-timeout-0", "llm-timeout-inf", "llm-rate-limit-nan", "llm-config-retries-0",
        *[f"llm-endpoint-{name}" for name in BAD_ENDPOINTS],
        "config-key-twice-after-normalising"])
def test_option_errors_come_before_any_input(tmp_path, capsys, monkeypatch,
                                             command, flags, config, named):
    # Every input path is missing, so reading any of them would exit 2.
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    args = [*command.split(), *ALL_INPUTS_MISSING[command], *flags, "--out-dir", str(out)]
    if config is not None:
        (tmp_path / "opts.cfg").write_bytes(config)
        args += ["--config", "opts.cfg"]
    assert main([arg.format(missing=tmp_path / "nowhere") for arg in args]) == 1
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not out.exists()


def _run_error_case(root, case):
    """(CLI arguments, exit code, stderr line) for one bad run input."""
    runs = root / "runs"
    runs.mkdir()
    bad = runs / "bad.run"
    if case == "missing-dir":
        return ["--runs-dir", root / "nowhere"], 2, f"error: file not found: {root / 'nowhere'}"
    if case == "runs-dir-is-a-file":
        bad.write_text("q1 Q0 d1 1 1.0 s\n")
        return ["--runs-dir", bad], 2, f"error: {bad}: Not a directory"
    if case == "empty-dir":
        return ["--runs-dir", runs], 1, f"error: no run files in {runs}"
    if case == "not-utf8":
        bad.write_bytes(b"q1 Q0 caf\xe9 1 1.0 s\n")
        return (["--runs-dir", runs], 1, f"error: {bad}: line 1: 'utf-8' codec can't decode "
                "byte 0xe9 in position 9: invalid continuation byte")
    if case == "not-utf8-past-first-chunk":
        good = "".join(f"q1 Q0 d{i} {i} 1.0 s\n" for i in range(1, 1201))
        bad.write_bytes(good.encode() + b"q1 Q0 caf\xe9 1201 1.0 s\n")
        return (["--runs-dir", runs], 1, f"error: {bad}: line 1201: 'utf-8' codec can't "
                "decode byte 0xe9 in position 9: invalid continuation byte")
    if case == "bad-line":
        bad.write_text("q1 Q0 d1 1 1.0 s\nq1 Q0 d2 2 0.5\n")
        return ["--runs-dir", runs], 1, f"error: {bad}: line 2: expected 6 columns, got 5"
    if case == "bad-score":
        bad.write_text("q1 Q0 d1 1 high s\n")
        return (["--run", bad], 1,
                f"error: {bad}: line 1: score is not a number: 'high'")
    if case == "nan-score":
        bad.write_text("q1 Q0 d1 1 1.0 s\nq1 Q0 d2 2 NaN s\n")
        return ["--run", bad], 1, f"error: {bad}: line 2: score is not a number: 'NaN'"
    if case == "mixed-tags":
        bad.write_text("q1 Q0 d1 1 1.0 s\nq1 Q0 d2 2 0.5 t\n")
        return (["--runs-dir", runs], 1, f"error: {bad}: run file mixes system tags "
                "'s' and 't'; pass a system tag override to read it as a single system")
    if case == "duplicate-doc":
        bad.write_text("q1 Q0 d1 1 1.0 s\nq1 Q0 d1 2 0.5 s\n")
        return (["--runs-dir", runs], 1,
                f"error: {bad}: duplicate document 'd1' for topic 'q1' in run 's'")
    if case == "duplicate-tag":
        bad.write_text("q1 Q0 d1 1 1.0 s\n")
        (runs / "copy.run").write_text("q1 Q0 d1 1 1.0 s\n")
        return ["--runs-dir", runs], 1, "error: duplicate system tag 's' across run files"
    if case == "run-is-a-directory":
        return ["--run", runs], 2, f"error: {runs}: Is a directory"
    assert case == "missing-run-file"
    return ["--run", bad], 2, f"error: file not found: {bad}"


def _entries(cache_home):
    """The run cache entries under ``$XDG_CACHE_HOME``, by name."""
    return sorted(p.name for p in cache_home.glob("discrimpower/runs/*"))


@pytest.mark.parametrize("case", [
    "missing-dir", "runs-dir-is-a-file", "empty-dir", "not-utf8", "not-utf8-past-first-chunk",
    "bad-line", "bad-score", "nan-score", "mixed-tags", "duplicate-doc", "duplicate-tag",
    "missing-run-file", "run-is-a-directory",
])
def test_run_input_errors_keep_their_message(workspace, tmp_path, capsys, monkeypatch,
                                             cache_home, case):
    # The same line and code twice on the run cache, then once where the
    # cache directory cannot be made; a file that fails leaves no entry.
    run_args, code, line = _run_error_case(tmp_path, case)
    argv = ["evaluate", "--qrels", workspace["gt"], *map(str, run_args)]
    for _ in range(2):
        assert main(argv) == code
        assert capsys.readouterr().err.splitlines() == [line]
    assert _entries(cache_home) == []
    (tmp_path / "xdg").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert main(argv) == code
    assert capsys.readouterr().err.splitlines() == [line]


def test_generate_sample_identity(workspace, tmp_path):
    code = main([
        "generate", "sample", "--gt", workspace["gt"],
        "--fraction", "1.0", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    out = tmp_path / "sample_1_0.qrels"
    assert out.is_file()
    assert load_qrels(out) == load_qrels(workspace["gt"])


def test_generate_sample_grid(workspace, tmp_path):
    code = main([
        "generate", "sample", "--gt", workspace["gt"],
        "--fractions", "0.4,0.8", "--repetitions", "2",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "sample_0.4_0.qrels", "sample_0.4_1.qrels",
        "sample_0.8_0.qrels", "sample_0.8_1.qrels",
    ]
    reps = [load_qrels(tmp_path / n) for n in names[:2]]
    assert reps[0] != reps[1]  # different repetitions, different samples


def test_generate_sample_conflicting_flags(workspace, tmp_path, capsys):
    code = main([
        "generate", "sample", "--gt", workspace["gt"],
        "--fraction", "0.5", "--fractions", "0.4,0.8",
        "--out-dir", str(tmp_path),
    ])
    assert code == 1
    assert "not both" in capsys.readouterr().err


def test_generate_sample_needs_a_fraction(workspace, tmp_path, capsys):
    code = main([
        "generate", "sample", "--gt", workspace["gt"],
        "--out-dir", str(tmp_path),
    ])
    assert code == 1
    assert "fraction" in capsys.readouterr().err


def test_generate_popularity(workspace, tmp_path):
    code = main([
        "generate", "popularity", "--gt", workspace["gt"],
        "--runs-dir", workspace["runs_dir"], "--out-dir", str(tmp_path),
    ])
    assert code == 0
    out = tmp_path / "popularity_per_topic_0.qrels"
    labelled = load_qrels(out)
    truth = load_qrels(workspace["gt"])
    assert set(labelled.judgments) == set(truth.judgments)
    assert set(labelled.judgments.values()) <= {0, 1}


def test_generate_popularity_explicit_p(workspace, tmp_path):
    code = main([
        "generate", "popularity", "--gt", workspace["gt"],
        "--runs-dir", workspace["runs_dir"],
        "--p-mode", "explicit", "--explicit-p", "0.5",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "popularity_0.5_0.qrels").is_file()


def test_generate_llm(stub_server, tmp_path):
    url, state = stub_server
    gt = tmp_path / "pairs.qrels"
    gt.write_text("t1 0 dA 1\nt1 0 dB 0\nt2 0 dA 2\n")
    (tmp_path / "queries.tsv").write_text("t1\tquery one\nt2\tquery two\n")
    (tmp_path / "texts.tsv").write_text(
        "t1\tdA\ttext DOC:dA\nt1\tdB\ttext DOC:dB\nt2\tdA\ttext DOC:dA\n"
    )
    state.replies["dA"] = "2"
    state.replies["dB"] = "grade: 1"
    code = main([
        "generate", "llm", "--gt", str(gt),
        "--queries", str(tmp_path / "queries.tsv"),
        "--texts", str(tmp_path / "texts.tsv"),
        "--endpoint", url, "--model", "stub/model:v1",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    out = tmp_path / "llm_stub-model-v1_0.qrels"  # tag sanitised for the name
    assert load_qrels(out).judgments == {
        ("t1", "dA"): 2, ("t1", "dB"): 1, ("t2", "dA"): 2,
    }


def test_generate_llm_sends_the_prompt_file(stub_server, tmp_path):
    url, state = stub_server
    (tmp_path / "pairs.qrels").write_text("t1 0 dA 1\n")
    (tmp_path / "queries.tsv").write_text("t1\tquery one\n")
    (tmp_path / "texts.tsv").write_text("t1\tdA\ttext DOC:dA\n")
    (tmp_path / "prompt.txt").write_text("Custom rubric. Q={query} D={document} Grade:")
    state.replies["dA"] = "1"
    code = main([
        "generate", "llm", "--gt", str(tmp_path / "pairs.qrels"),
        "--queries", str(tmp_path / "queries.tsv"), "--texts", str(tmp_path / "texts.tsv"),
        "--endpoint", url, "--model", "m", "--prompt-file", str(tmp_path / "prompt.txt"),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    assert [body["messages"][0]["content"] for body in state.bodies] == [
        "Custom rubric. Q=query one D=text DOC:dA Grade:"]


def test_generate_llm_over_tls_to_a_plain_http_server_fails_at_once(stub_server, tmp_path,
                                                                    capsys):
    url, state = stub_server
    (tmp_path / "pairs.qrels").write_text("t1 0 dA 1\nt1 0 dB 0\n")
    (tmp_path / "queries.tsv").write_text("t1\tquery one\n")
    (tmp_path / "texts.tsv").write_text("t1\tdA\ttext DOC:dA\nt1\tdB\ttext DOC:dB\n")
    start = time.perf_counter()
    code = main([
        "generate", "llm", "--gt", str(tmp_path / "pairs.qrels"),
        "--queries", str(tmp_path / "queries.tsv"), "--texts", str(tmp_path / "texts.tsv"),
        "--endpoint", url.replace("http://", "https://"), "--model", "m",
        "--out-dir", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert code == 1 and time.perf_counter() - start < 1
    # The first failure's cause follows on the same line; OpenSSL words its reason.
    assert err.startswith("error: 2 pair(s) failed: (t1, dA), (t1, dB); "
                          "first: TLS handshake failed: ")
    assert err.count("\n") == 1 and err.endswith("\n") and state.requests == 0


def test_generate_llm_requires_endpoint(workspace, tmp_path, capsys):
    code = main([
        "generate", "llm", "--gt", workspace["gt"],
        "--queries", "q.tsv", "--texts", "t.tsv",
        "--out-dir", str(tmp_path),
    ])
    assert code == 1
    assert "--endpoint" in capsys.readouterr().err


def test_sweep_and_plots(workspace, tmp_path):
    sweep_dir = tmp_path / "sweep"
    code = main([
        "sweep", "--gt", workspace["gt"], "--runs-dir", workspace["runs_dir"],
        "--fractions", "0.5,1.0", "--repetitions", "2",
        "--permutations", "300", "--out-dir", str(sweep_dir),
    ])
    assert code == 0
    assert (sweep_dir / "sweep.csv").is_file()
    assert (sweep_dir / "sweep_summary.csv").is_file()

    cmp_dir = tmp_path / "cmp"
    assert run_compare(workspace, cmp_dir) == 0

    code = main(["plot", "--pairs", str(cmp_dir / "pairs.csv"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    scatter = (tmp_path / "scatter.svg").read_text()
    assert scatter.count('<circle class="system"') == 5  # five systems

    code = main(["plot", "--sweep", str(sweep_dir / "sweep.csv"),
                 "--out", str(tmp_path / "curves.svg")])
    assert code == 0
    curves = (tmp_path / "curves.svg").read_text()
    assert curves.count("<polyline") == 6


def test_a_comma_in_a_run_tag_survives_every_csv(workspace, tmp_path):
    runs_dir = tmp_path / "runs"
    runs_dir.mkdir()
    for i, path in enumerate(map(Path, workspace["runs"])):
        lines = path.read_text().splitlines(keepends=True)
        if i == 0:  # the tag is the last column of a run line
            lines = [line.rsplit(" ", 1)[0] + " sys,A\n" for line in lines]
        (runs_dir / path.name).write_text("".join(lines))

    assert main(["evaluate", "--qrels", workspace["gt"], "--runs-dir", str(runs_dir),
                 "--out-dir", str(tmp_path / "ev")]) == 0
    with open(tmp_path / "ev" / "scores.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 5 and all(len(row) == len(header) for row in rows)
    assert "sys,A" in [row[0] for row in rows]

    cmp_args = ["compare", "--gt", workspace["gt"], "--cand", workspace["gt"],
                "--runs-dir", str(runs_dir), "--permutations", "200"]
    assert main([*cmp_args, "--out-dir", str(tmp_path / "cmp")]) == 0
    with open(tmp_path / "cmp" / "pairs.csv", newline="") as fh:
        pairs = list(csv.DictReader(fh))
    assert len(pairs) == 10 and all(None not in row for row in pairs)
    assert sum("sys,A" in (row["system_a"], row["system_b"]) for row in pairs) == 4
    assert {row["error_class"] for row in pairs} <= {"TP", "TN"}

    assert main(["plot", "--pairs", str(tmp_path / "cmp" / "pairs.csv"),
                 "--out-dir", str(tmp_path)]) == 0
    scatter = (tmp_path / "scatter.svg").read_text()
    assert scatter.count('<circle class="system"') == 5
    assert "sys,A" in scatter


def test_plot_requires_exactly_one_input(tmp_path, capsys):
    assert main(["plot", "--out-dir", str(tmp_path)]) == 1
    assert "exactly one" in capsys.readouterr().err
    assert main(["plot", "--pairs", "a.csv", "--sweep", "b.csv",
                 "--out-dir", str(tmp_path)]) == 1


def test_plot_wrong_schema_exits_1(workspace, tmp_path, capsys):
    sweep_dir = tmp_path / "s"
    main([
        "sweep", "--gt", workspace["gt"], "--runs-dir", workspace["runs_dir"],
        "--fractions", "1.0", "--repetitions", "1",
        "--permutations", "200", "--out-dir", str(sweep_dir),
    ])
    capsys.readouterr()
    code = main(["plot", "--pairs", str(sweep_dir / "sweep.csv"),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "missing columns" in capsys.readouterr().err


SWEEP_HEADER = "fraction,repetition,p1,r1,p2,r2,bac,mcc\n"
PAIRS_HEADER = "system_a,system_b,mean_gt_a,mean_gt_b,mean_cand_a,mean_cand_b,error_class\n"


@pytest.mark.parametrize("flag, text, message", [
    ("--sweep", SWEEP_HEADER + "0.5,0,0.6,0.5,0.7,0.8,0.65,0.3\n,1,0.6,0.5,0.7,0.8,0.65,0.3\n",
     "column fraction, data row 2: '' is not a number"),
    ("--sweep", SWEEP_HEADER + "0.5,0,abc,0.5,0.7,0.8,0.65,0.3\n",
     "column p1, data row 1: 'abc' is not a number"),
    ("--sweep", SWEEP_HEADER + "0.5,0,0.6,0.5,0.7,0.8,0.65,0.3\ninf,0,0.6,0.5,0.7,0.8,0.65,0.3\n",
     "column fraction, data row 2: 'inf' is not a number"),
    ("--pairs", PAIRS_HEADER + "A,B,0.8,0.5,0.7,0.5,TP\nA,C,0.8,x,0.7,0.2,FP\n",
     "column mean_gt_b, data row 2: 'x' is not a number"),
    ("--pairs", PAIRS_HEADER + "A,B,0.8,,0.7,0.5,TP\n",
     "column mean_gt_b, data row 1: '' is not a number"),
    ("--pairs", PAIRS_HEADER + "A,B,0.8,0.5,0.7,undefined,TP\n",
     "column mean_cand_b, data row 1: 'undefined' is not a number"),
], ids=["blank-fraction", "metric-not-a-number", "infinite-fraction", "mean-not-a-number",
        "blank-mean", "undefined-mean"])
def test_plot_rejects_a_cell_that_is_not_a_number(tmp_path, capsys, flag, text, message):
    path = tmp_path / "in.csv"
    path.write_text(text)
    assert main(["plot", flag, str(path), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("*.svg"))


def test_plot_reads_blank_and_undefined_metric_cells_as_undefined(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text(SWEEP_HEADER + "0.5,0,,undefined,0.7,0.8,0.65,0.3\n"
                    "1.0,0, 1.0 ,1.0,1.0,1.0,1.0,1.0\n")
    assert main(["plot", "--sweep", str(path), "--out-dir", str(tmp_path)]) == 0
    svg = (tmp_path / "sweep.svg").read_text()
    for metric in ("p1", "r1"):  # only the fraction-1.0 vertex
        points = svg.split(f'<polyline class="metric-{metric}" points="')[1].split('"')[0]
        assert len(points.split()) == 1
    assert len(svg.split('<polyline class="metric-p2" points="')[1].split('"')[0].split()) == 2


def test_plot_on_latin_1_input_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_bytes((PAIRS_HEADER + "caf\xe9,B,0.8,0.5,0.7,0.5,TP\n").encode("latin-1"))
    assert main(["plot", "--pairs", str(path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: input is not UTF-8 text: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("*.svg"))


def test_plot_missing_file_exits_2(tmp_path, capsys):
    code = main(["plot", "--pairs", str(tmp_path / "nope.csv"),
                 "--out-dir", str(tmp_path)])
    assert code == 2


def test_plot_takes_its_input_and_output_from_a_config_file(workspace, tmp_path):
    assert run_compare(workspace, tmp_path / "cmp") == 0
    config = tmp_path / "plot.cfg"
    config.write_text(f"pairs={tmp_path / 'cmp' / 'pairs.csv'}\nout={tmp_path / 'x.svg'}\n")
    assert main(["plot", "--config", str(config)]) == 0
    scatter = (tmp_path / "x.svg").read_bytes()
    assert scatter.count(b'<circle class="system"') == 5

    assert main(["plot", "--config", str(config), "--out", str(tmp_path / "y.svg")]) == 0
    assert (tmp_path / "y.svg").read_bytes() == scatter  # the flag wins over the file

    config.write_text(f"sweep={tmp_path / 'cmp' / 'pairs.csv'}\nout={tmp_path / 'z.svg'}\n")
    assert main(["plot", "--config", str(config)]) == 1  # a pairs file is not a sweep
    assert not (tmp_path / "z.svg").exists()


def test_evaluate_stdout_and_file(workspace, tmp_path, capsys):
    code = main([
        "evaluate", "--qrels", workspace["gt"],
        "--runs-dir", workspace["runs_dir"],
    ])
    assert code == 0
    stdout_csv = capsys.readouterr().out
    assert stdout_csv.startswith("system,")
    assert len(stdout_csv.splitlines()) == 6  # header plus five systems

    code = main([
        "evaluate", "--qrels", workspace["gt"],
        "--runs-dir", workspace["runs_dir"], "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "scores.csv").read_text() == stdout_csv


@pytest.mark.parametrize("args, depth", [
    (["evaluate", "--qrels", "{gt}", "--k", "5"], 5),
    (["evaluate", "--qrels", "{gt}"], 10),
    (["compare", "--gt", "{gt}", "--cand", "{gt}", "--k", "3", "--permutations", "100"], 3),
    (["sweep", "--gt", "{gt}", "--k", "4", "--fractions", "1.0", "--repetitions", "1",
      "--permutations", "100"], 4),
    (["generate", "popularity", "--gt", "{gt}", "--depth", "7"], 7),
    (["generate", "popularity", "--gt", "{gt}"], 100),
], ids=["evaluate", "evaluate-default", "compare", "sweep", "popularity",
        "popularity-default"])
def test_commands_load_runs_to_the_depth_they_score(workspace, tmp_path, monkeypatch,
                                                    args, depth):
    depths = []

    def spy(directory, tag_from_filename, depth, **private):
        depths.append(depth)
        return real(directory, tag_from_filename, depth, **private)

    real = cli.load_runs_dir
    monkeypatch.setattr(cli, "load_runs_dir", spy)
    args = [arg.format(**workspace) for arg in args]
    assert main([*args, "--runs-dir", workspace["runs_dir"], "--out-dir", str(tmp_path)]) == 0
    assert depths == [depth]


@pytest.fixture(scope="module")
def candidate(workspace):
    """A 30% sample of the truth, as a candidate qrels file."""
    from discrimpower.synth import SamplingConfig, percentage_sample

    path = workspace["root"] / "cand.qrels"
    save_qrels(percentage_sample(load_qrels(workspace["gt"]), SamplingConfig(0.3), 0), path)
    return str(path)


INDEXED = {
    "evaluate": ["evaluate", "--qrels", "{gt}"],
    "compare": ["compare", "--gt", "{gt}", "--cand", "{cand}", "--permutations", "500"],
    "sweep": ["sweep", "--gt", "{gt}", "--fractions", "0.3,0.6", "--repetitions", "2",
              "--permutations", "200"],
}


def _holds_one_string_per_id(workspace, candidate, tmp_path, monkeypatch, cache_home,
                             command, warm):
    # Every file a command loads draws on one pool, so each topic id and doc id
    # is one object across the runs, the truth and the candidate. Warm, the
    # runs come from the run cache.
    from discrimpower.measures import _GradeIndex

    args = [arg.format(cand=candidate, **workspace) for arg in INDEXED[command]]
    if warm:
        assert main([*args, "--runs-dir", workspace["runs_dir"], "--out-dir",
                     str(tmp_path / "first")]) == 0
        assert len(_entries(cache_home)) == len(workspace["runs"])
    indexed = []

    def spy(self, runs, k, *qrels_sets, _init=_GradeIndex.__init__):
        indexed.append((runs, qrels_sets))
        _init(self, runs, k, *qrels_sets)

    monkeypatch.setattr(_GradeIndex, "__init__", spy)
    assert main([*args, "--runs-dir", workspace["runs_dir"], "--out-dir", str(tmp_path)]) == 0
    ((runs, qrels_sets),) = indexed
    assert len(qrels_sets) == (2 if command == "compare" else 1)
    ids = [i for qrels in qrels_sets for key in qrels.judgments for i in key]
    ids += [i for per_topic in runs.runs.values()
            for topic, ranking in per_topic.items() for i in (topic, *ranking.doc_ids)]
    assert len({id(i) for i in ids}) == len(set(ids))


@pytest.mark.parametrize("command", INDEXED)
def test_a_command_holds_one_string_per_id(workspace, candidate, tmp_path, monkeypatch,
                                           cache_home, command):
    _holds_one_string_per_id(workspace, candidate, tmp_path, monkeypatch, cache_home,
                             command, warm=False)


@pytest.mark.parametrize("command", INDEXED)
def test_a_command_holds_one_string_per_id_on_a_warm_cache(workspace, candidate, tmp_path,
                                                           monkeypatch, cache_home, command):
    _holds_one_string_per_id(workspace, candidate, tmp_path, monkeypatch, cache_home,
                             command, warm=True)


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_the_test_runs_without_the_inputs(workspace, candidate, tmp_path, monkeypatch,
                                          command):
    from discrimpower import reporting, synth
    from discrimpower.measures import _GradeIndex

    loaded = []
    for cls in (RunSet, Qrels, _GradeIndex):
        def spy(self, *args, _init=cls.__init__, **kwargs):
            loaded.append(weakref.ref(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
    tested, sampled = [], []

    def live():
        return sorted(type(ref()).__name__ for ref in loaded if ref() is not None)

    def test(*args, _real=reporting._tukey_many):
        tested.append(live())
        return _real(*args)

    def sample(*args, _real=synth._sample_grades):
        sampled.append(live())
        return _real(*args)

    monkeypatch.setattr(reporting, "_tukey_many", test)
    monkeypatch.setattr(synth, "_sample_grades", sample)
    args = [arg.format(cand=candidate, **workspace) for arg in INDEXED[command]]
    assert main([*args, "--runs-dir", workspace["runs_dir"], "--out-dir", str(tmp_path)]) == 0
    assert len(loaded) > 3 and tested == [[]]
    # sweep samples its 2 x 2 cells on the truth's index alone.
    assert sampled == ([["_GradeIndex"]] * 4 if command == "sweep" else [])


def _shuffled(path, dest, rng):
    lines = Path(path).read_text().splitlines(keepends=True)
    rng.shuffle(lines)
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text("".join(lines))
    return str(dest)


def _order_free(workspace, candidate, tmp_path, seed, warm):
    # Warm, every command runs twice and the second run, on cached runs, is
    # the one compared.
    rng = random.Random(seed)
    files = {"gt": workspace["gt"], "cand": candidate}
    reordered = {key: _shuffled(path, tmp_path / "in" / Path(path).name, rng)
                 for key, path in files.items()}
    runs = workspace["runs"]
    reversed_runs = [_shuffled(path, tmp_path / "in" / "runs" / Path(path).name, rng)
                     for path in reversed(runs)]
    for command, args in INDEXED.items():
        outputs = []
        for inputs, run_paths, out in ((files, runs, "a"), (reordered, reversed_runs, "b")):
            out_dir = tmp_path / out / command
            flags = [flag for path in run_paths for flag in ("--run", path)]
            argv = [arg.format(**inputs) for arg in args]
            for _ in range(1 + warm):
                assert main([*argv, *flags, "--out-dir", str(out_dir)]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert outputs[0] == outputs[1] and outputs[0], command


@pytest.mark.parametrize("seed", [1, 2])
def test_outputs_do_not_depend_on_the_order_of_the_inputs(workspace, candidate, tmp_path,
                                                          seed):
    _order_free(workspace, candidate, tmp_path, seed, warm=False)


@pytest.mark.parametrize("seed", [1, 2])
def test_outputs_do_not_depend_on_the_order_of_the_inputs_on_a_warm_cache(
        workspace, candidate, tmp_path, seed):
    _order_free(workspace, candidate, tmp_path, seed, warm=True)


def _evaluate(runs, out_dir, *flags):
    """``evaluate`` on the ``runs`` files; (exit code, scores.csv bytes or None)."""
    code = main(["evaluate", "--qrels", str(runs[0].parent.parent / "truth.qrels"),
                 *[arg for path in runs for arg in ("--run", str(path))], *flags,
                 "--out-dir", str(out_dir)])
    scores = out_dir / "scores.csv"
    return code, scores.read_bytes() if scores.exists() else None


@pytest.fixture
def collection(tmp_path):
    """A fresh copy of the mini collection: its run files (20 deep), in order."""
    _, run_paths = write_mini_collection(tmp_path / "collection")
    return run_paths


@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_an_unusable_cache_directory_changes_nothing(workspace, tmp_path, monkeypatch,
                                                     command):
    import _blake2

    argv = [*(["evaluate", "--qrels", workspace["gt"]] if command == "evaluate" else
              ["compare", "--gt", workspace["gt"], "--cand", workspace["gt"],
               "--permutations", "300"]), "--runs-dir", workspace["runs_dir"]]
    assert main([*argv, "--out-dir", str(tmp_path / "cached")]) == 0
    xdg = tmp_path / "xdg"
    xdg.write_text("a regular file")
    monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))

    def no_hashing(*args, **kwargs):
        raise AssertionError("hashed a file with no cache to key")

    monkeypatch.setattr(_blake2, "blake2b", no_hashing)
    assert main([*argv, "--out-dir", str(tmp_path / "uncached")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cached", "uncached", "xdg"]
    assert xdg.read_text() == "a regular file"
    cached, uncached = ({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
                        for name in ("cached", "uncached"))
    assert cached == uncached and cached


def test_the_cache_keys_a_run_by_its_content(collection, tmp_path, cache_home):
    first = _evaluate(collection, tmp_path / "a")
    assert first[0] == 0 and len(_entries(cache_home)) == len(collection)
    # Swap the first and the last document of a topic in place: the same
    # size and mtime, another top 10.
    path = collection[0]
    stat = path.stat()
    lines = path.read_text().splitlines(keepends=True)
    (t1, q, d1, *rest1), (t2, _, d2, *rest2) = lines[0].split(" "), lines[19].split(" ")
    assert t1 == t2 and len(d1) == len(d2) and d1 != d2
    lines[0], lines[19] = " ".join([t1, q, d2, *rest1]), " ".join([t2, q, d1, *rest2])
    path.write_text("".join(lines))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size and path.stat().st_mtime_ns == stat.st_mtime_ns
    second = _evaluate(collection, tmp_path / "b")
    assert second[0] == 0 and second[1] != first[1]
    assert len(_entries(cache_home)) == len(collection) + 1
    shutil.rmtree(cache_home)
    assert _evaluate(collection, tmp_path / "c") == second


DAMAGE = {
    "truncated-in-a-line": lambda data: data[:-5],
    "truncated-at-a-line-end": lambda data: b"".join(data.splitlines(keepends=True)[:-1]),
    "a-digit-changed": lambda data: data[:-30] + data[-30:].replace(b"1", b"2", 1),
    "empty": lambda data: b"",
    "not-utf8": lambda data: data[:-2] + b"\xe9\n",
}


@pytest.mark.parametrize("damage", DAMAGE)
def test_a_damaged_cache_entry_is_a_miss_and_is_rewritten(collection, tmp_path, cache_home,
                                                          damage):
    expected = _evaluate(collection, tmp_path / "a")
    entries = list(cache_home.glob("discrimpower/runs/*"))
    written = {path: path.read_bytes() for path in entries}
    assert len(written) == len(collection)
    for path, data in written.items():
        path.write_bytes(DAMAGE[damage](data))
        assert path.read_bytes() != data
    assert _evaluate(collection, tmp_path / "b") == expected
    assert {path: path.read_bytes() for path in entries} == written


def test_a_run_file_that_changes_while_it_is_parsed_leaves_no_entry(collection, tmp_path,
                                                                   cache_home, monkeypatch):
    from discrimpower import _runcache

    def read_then_edit(source, *args, _real=_runcache._read_run):
        read = _real(source, *args)
        if source.name == str(collection[0]):
            collection[0].write_text(collection[1].read_text())
        return read

    monkeypatch.setattr(_runcache, "_read_run", read_then_edit)
    assert _evaluate(collection, tmp_path / "a")[0] == 0
    assert len(_entries(cache_home)) == len(collection) - 1


def test_each_run_file_is_opened_once_on_a_miss_and_on_a_hit(collection, tmp_path,
                                                             monkeypatch):
    # A miss keys and parses the file through one descriptor; a hit keys it.
    from discrimpower import _runcache

    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(Path(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(_runcache, "open", counting_open, raising=False)
    cold = _evaluate(collection, tmp_path / "a")
    assert opened == collection
    warm = _evaluate(collection, tmp_path / "b")
    assert opened == collection * 2 and cold == warm and cold[0] == 0


def test_a_python_without_blake2_loads_runs_uncached(collection, tmp_path, cache_home,
                                                     monkeypatch):
    expected = _evaluate(collection, tmp_path / "a")
    shutil.rmtree(cache_home / "discrimpower")
    # None in sys.modules makes ``import _blake2`` raise ImportError.
    monkeypatch.setitem(sys.modules, "_blake2", None)
    monkeypatch.delitem(sys.modules, "discrimpower._runcache", raising=False)
    assert _evaluate(collection, tmp_path / "b") == expected
    assert _entries(cache_home) == []
    assert "discrimpower._runcache" not in sys.modules


def test_the_cache_holds_only_cuts_that_drop_lines(collection, tmp_path, cache_home):
    # The runs are 20 deep: k=20 keeps every line, and --depth 100 too.
    assert _evaluate(collection, tmp_path / "a", "--k", "20")[0] == 0
    runs_dir = str(collection[0].parent)
    truth = str(collection[0].parent.parent / "truth.qrels")
    assert main(["generate", "popularity", "--gt", truth, "--runs-dir", runs_dir,
                 "--depth", "100", "--out-dir", str(tmp_path / "b")]) == 0
    assert _entries(cache_home) == []
    assert _evaluate(collection, tmp_path / "c", "--k", "19")[0] == 0
    assert len(_entries(cache_home)) == len(collection)


def test_the_cache_keys_a_run_by_its_tag(collection, tmp_path, cache_home):
    # One file under three names: the tag from each name is part of the key,
    # and a name with whitespace, which serialize_run cannot keep, skips the
    # cache.
    runs = [collection[0].with_name(name) for name in ("a.run", "b.run", "c d.run")]
    for path in runs:
        shutil.copy(collection[0], path)
    outputs = [_evaluate(runs, tmp_path / out, "--tag-from-filename") for out in "xy"]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    rows = [row.partition(",") for row in outputs[0][1].decode().splitlines()[1:]]
    assert [tag for tag, _, _ in rows] == ["a", "b", "c d"]
    assert len({scores for _, _, scores in rows}) == 1
    assert len(_entries(cache_home)) == 2


def test_library_loaders_never_cache(workspace, cache_home):
    from discrimpower.trec import load_runs, load_runs_dir

    load_runs_dir(workspace["runs_dir"], depth=5)
    load_runs(workspace["runs"], depth=5)
    assert list(cache_home.iterdir()) == []


def _resolved(command, *flags):
    """The options ``command`` resolves from ``flags`` and its required files."""
    required = [arg for o in cli.OPTIONS if command in o.commands and o.required
                for arg in (o.flag, "x")]
    return cli._resolve(cli.build_parser().parse_args([*command.split(), *required, *flags]))


SAMPLE_TEXT = {int: "7", float: "0.25", str: "x.txt", Path: "elsewhere",
               cli._parse_fractions: "0.2,0.4", cli._max_grade: "7"}


@pytest.mark.parametrize("command, option", [
    pytest.param(command, o, id=f"{command.replace(' ', '-')}{o.flag}")
    for o in cli.OPTIONS for command in o.commands
])
def test_each_option_reads_alike_from_flag_and_config(tmp_path, capsys, monkeypatch,
                                                      command, option):
    assert command in cli.COMMANDS
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exit_info:
        cli.build_parser().parse_args([*command.split(), "--help"])
    assert exit_info.value.code == 0
    shown = option.help if option.required else f"{option.help} (default {option.default or 'none'})"
    assert shown in " ".join(capsys.readouterr().out.split())

    config = tmp_path / "opts.cfg"
    if option.required or option.dest == "config":
        config.write_text(f"{option.dest}=x\n")
        with pytest.raises(ConfigurationError, match=f": {option.dest} can only be given as a flag"):
            _resolved(command, "--config", str(config))
        return
    if option.action == "append":
        flags, text = [option.flag, "a", option.flag, "b"], "a,b"
    elif option.action is not None:  # a switch
        flags, text = [option.flag], "true"
    else:
        text = option.choices[-1] if option.choices else SAMPLE_TEXT[option.convert]
        flags = [option.flag, text]
    config.write_text(f"{option.dest}={text}\n")
    from_flag = _resolved(command, *flags)[option.dest]
    assert from_flag == _resolved(command, "--config", str(config))[option.dest]
    assert from_flag != _resolved(command)[option.dest]  # neither is the default

    if option.choices is not None:
        with pytest.raises(SystemExit) as exit_info:
            _resolved(command, option.flag, "bogus")
        assert exit_info.value.code == 2
        config.write_text(f"{option.dest}=bogus\n")
        with pytest.raises(ConfigurationError, match=r"'bogus' \(choose from "):
            _resolved(command, "--config", str(config))


@pytest.mark.parametrize("command", ["evaluate", "generate sample", "generate popularity",
                                     "generate llm", "plot"])
def test_only_compare_and_sweep_take_precision(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        _resolved(command, "--precision", "4")
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --precision 4" in capsys.readouterr().err
    config = tmp_path / "opts.cfg"
    config.write_text("precision=4\n")
    with pytest.raises(ConfigurationError, match="unknown option precision"):
        _resolved(command, "--config", str(config))


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _declared_scripts():
    """The ``[project.scripts]`` table of the repository's pyproject.toml."""
    try:
        import tomllib
    except ImportError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


def _run_script(target, *args, cwd):
    """Run ``target`` ("module:func") as the generated console script does.

    The child imports ``discrimpower`` from the same directory as this
    test process, so the script is checked without installing the package.
    """
    module, func = target.split(":")
    code = (f"import sys\nfrom {module} import {func}\n"
            f"sys.argv[0] = 'discrimpower'\nsys.exit({func}())\n")
    src = str(Path(discrimpower.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=120)


def test_console_script_is_installed(tmp_path):
    target = _declared_scripts().get("discrimpower")
    assert target == "discrimpower.cli:main"
    assert pkgutil.resolve_name(target) is main

    proc = _run_script(target, "--help", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for command in ("compare", "sweep", "generate", "plot", "evaluate"):
        assert command in proc.stdout

    # main's return value must reach the shell as the exit status
    proc = _run_script(target, "plot", "--pairs", str(tmp_path / "nope.csv"),
                       "--out-dir", str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: file not found:")


def _distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(not _distribution_installed("discrimpower"),
                    reason="the discrimpower distribution is not installed "
                           "(importlib.metadata.PackageNotFoundError)")
def test_console_script_on_path(tmp_path):
    dist = importlib.metadata.distribution("discrimpower")
    installed = [ep.value for ep in dist.entry_points
                 if ep.group == "console_scripts" and ep.name == "discrimpower"]
    assert installed == [_declared_scripts()["discrimpower"]]

    exe = shutil.which("discrimpower")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
