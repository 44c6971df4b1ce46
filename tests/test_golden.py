"""Golden CLI outputs: the SHA-256 of every file the CLI writes.

A fixed ``write_mini_collection`` set (12 systems x 15 topics, runs 120
deep) is written to a temporary directory, every subcommand runs on it
in-process, first on an empty run cache and then on the entries it wrote,
and each output file's digest is compared with ``golden_digests.json``.
A change that alters outputs on purpose regenerates the digests in the
same commit and says so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import itertools
import json
import os
import sys
from pathlib import Path

import pytest

from discrimpower.cli import main
from discrimpower.minicollection import write_mini_collection
from discrimpower.trec import CANDIDATE, Qrels, load_qrels, load_runs_dir, save_qrels

DIGESTS = Path(__file__).with_name("golden_digests.json")
COLLECTION = dict(n_systems=12, n_topics=15, n_docs=200, judged_per_topic=60,
                  run_depth=120, seed=7)


def _run(*args):
    code = main([str(a) for a in args])
    assert code == 0, args


def write_mixed_candidate(sample: Path, gt: Path, runs: Path, path: Path) -> Path:
    """A candidate whose judged keys differ from the truth's on the same topics.

    It is ``sample`` without every 7th judgment in sorted key order, plus
    grades for the first two documents of ``sys12``'s top 10 that the truth
    leaves unjudged, on each of the first five topics.
    """
    kept = sorted(load_qrels(sample).judgments.items())
    judgments = {key: grade for i, (key, grade) in enumerate(kept) if i % 7 != 6}
    truth = load_qrels(gt).judgments
    system = load_runs_dir(runs).runs["sys12"]
    added = 0
    for topic in sorted(system)[:5]:
        unjudged = [doc for doc in system[topic].doc_ids[:10] if (topic, doc) not in truth]
        for doc, grade in zip(unjudged, (3, 1)):
            judgments[(topic, doc)] = grade
            added += 1
    assert added > 0, "the candidate must judge documents the truth leaves unjudged"
    save_qrels(Qrels(judgments, role=CANDIDATE), path)
    return path


def write_outputs(root: Path, caches: Path) -> Path:
    """Run every subcommand on the golden collection; return the output root.

    The i-th command keeps its run cache under ``caches / str(i)``, so a
    first call runs each command on an empty cache, and a second call with
    the same ``caches`` runs it on the entries it wrote.
    """
    count = itertools.count()

    def _cli(*args):
        os.environ["XDG_CACHE_HOME"] = str(caches / str(next(count)))
        _run(*args)

    gt, _ = write_mini_collection(root / "collection", **COLLECTION)
    runs = gt.parent / "runs"
    out = root / "out"

    _cli("generate", "sample", "--gt", gt, "--fractions", "0.3,0.6",
         "--repetitions", 2, "--seed", 1, "--out-dir", out / "sample")
    _cli("generate", "popularity", "--gt", gt, "--runs-dir", runs,
         "--out-dir", out / "popularity")
    _cli("generate", "popularity", "--gt", gt, "--runs-dir", runs, "--depth", 50,
         "--p-mode", "explicit", "--explicit-p", 0.4, "--out-dir", out / "popularity")
    _cli("evaluate", "--qrels", gt, "--runs-dir", runs, "--out-dir", out / "evaluate-linear")
    _cli("evaluate", "--qrels", gt, "--runs-dir", runs, "--gain", "exponential",
         "--k", 20, "--out-dir", out / "evaluate-exponential")

    cand = out / "sample" / "sample_0.3_0.qrels"
    for b in (200, 1500):
        for workers in (1, 2):
            for precision in ("4", "full"):
                _cli("compare", "--gt", gt, "--cand", cand, "--runs-dir", runs,
                     "--permutations", b, "--workers", workers, "--seed", 3,
                     "--precision", precision,
                     "--out-dir", out / f"compare-B{b}-w{workers}-{precision}")
    mixed = write_mixed_candidate(cand, gt, runs, root / "collection" / "mixed.qrels")
    for workers in (1, 2):
        _cli("compare", "--gt", gt, "--cand", mixed, "--runs-dir", runs,
             "--permutations", 1500, "--workers", workers, "--seed", 3,
             "--precision", "full", "--out-dir", out / f"compare-mixed-w{workers}-full")
    for workers in (1, 2):
        for precision in ("4", "full"):
            _cli("sweep", "--gt", gt, "--runs-dir", runs, "--fractions", "0.3,0.7",
                 "--repetitions", 2, "--permutations", 1500, "--workers", workers,
                 "--precision", precision,
                 "--out-dir", out / f"sweep-w{workers}-{precision}")
    _cli("sweep", "--gt", gt, "--runs-dir", runs, "--fractions", "0.3,0.7",
         "--repetitions", 2, "--permutations", 1500, "--stratified",
         "--relevant-threshold", 2, "--out-dir", out / "sweep-stratified")
    _cli("sweep", "--gt", gt, "--runs-dir", runs, "--fractions", "0,0.3,1",
         "--repetitions", 2, "--permutations", 1500, "--gain", "exponential",
         "--k", 5, "--kappa-threshold", 1, "--out-dir", out / "sweep-exponential")

    _cli("plot", "--pairs", out / "compare-B1500-w1-4" / "pairs.csv",
         "--out", out / "plot" / "scatter.svg")
    _cli("plot", "--sweep", out / "sweep-w1-4" / "sweep.csv",
         "--out", out / "plot" / "sweep.svg")
    return out


def digests(out: Path) -> dict[str, str]:
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def entries(caches: Path) -> dict[str, int]:
    """Each run cache entry under ``caches`` and the time it was last written."""
    return {path.relative_to(caches).as_posix(): path.stat().st_mtime_ns
            for path in sorted(caches.rglob("runs/*"))}


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """The digests of every output, from a cold run cache, then from a warm one."""
    root = tmp_path_factory.mktemp("golden")
    caches = root / "caches"
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", "")  # restored after the passes
        cold = digests(write_outputs(root / "cold", caches))
        written = entries(caches)
        warm = digests(write_outputs(root / "warm", caches))
    # Every command that loads runs (the 2nd to the 21st) wrote entries when
    # cold, and found them all when warm: a miss writes its entry again.
    assert {name.split("/")[0] for name in written} == {str(i) for i in range(1, 21)}
    assert entries(caches) == written
    return {"cold": cold, "warm": warm}


@pytest.fixture(scope="module")
def outputs(passes):
    return passes["cold"]


def _changed(outputs):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(outputs) == sorted(expected)
    return [name for name in expected if outputs[name] != expected[name]]


def test_cli_outputs_match_golden_digests(passes):
    assert _changed(passes["cold"]) == []


def test_cli_outputs_match_golden_digests_on_a_warm_cache(passes):
    assert _changed(passes["warm"]) == []


def test_worker_count_does_not_change_outputs(outputs):
    pairs = [(name, name.replace("-w1-", "-w2-")) for name in outputs if "-w1-" in name]
    assert len(pairs) == 5 * 3 + 2 * 2  # five compare and two sweep settings
    for one, two in pairs:
        assert outputs[one] == outputs[two], one


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = digests(write_outputs(Path(tmp), Path(tmp) / "caches"))
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
