"""Self-contained synthetic retrieval collection for demos and tests.

Generates a small but realistically shaped bundle: graded qrels over a
shared document pool and one run per synthetic system, where systems
differ by a quality knob so that score gaps, and hence significance
outcomes, actually occur.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .trec import Qrels, Ranking, RunSet, save_qrels, serialize_run, write_atomic


def build_mini_collection(
    n_systems: int = 5,
    n_topics: int = 10,
    n_docs: int = 50,
    judged_per_topic: int = 25,
    run_depth: int = 20,
    seed: int = 7,
) -> tuple[RunSet, Qrels]:
    """Build (runs, qrels) with deterministic content for a given seed.

    Each topic judges a random subset of the document pool with graded
    relevance (at least one positive grade per topic so nDCG is always
    defined). System i ranks documents by ``grade * quality_i + noise``,
    with quality falling from 1.0 to 0.2 across systems, so earlier
    systems track the truth closely and later ones barely beat chance.
    """
    if judged_per_topic > n_docs:
        raise ValueError("cannot judge more documents than the pool holds")
    root = np.random.SeedSequence(seed)
    topics = [f"q{i + 1:02d}" for i in range(n_topics)]
    docs = [f"d{i + 1:03d}" for i in range(n_docs)]
    tags = [f"sys{i + 1}" for i in range(n_systems)]
    qualities = np.linspace(1.0, 0.2, n_systems)

    judgments: dict[tuple[str, str], int] = {}
    grade_p = [0.5, 0.25, 0.15, 0.1]
    for ti, topic in enumerate(topics):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, ti)))
        judged = rng.choice(n_docs, size=judged_per_topic, replace=False)
        grades = rng.choice(4, size=judged_per_topic, p=grade_p)
        if not grades.any():
            grades[0] = 1
        for di, grade in zip(judged, grades):
            judgments[(topic, docs[di])] = int(grade)
    qrels = Qrels(judgments=judgments)

    runs: dict[str, dict[str, Ranking]] = {}
    for si, tag in enumerate(tags):
        runs[tag] = {}
        for ti, topic in enumerate(topics):
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(1, si, ti))
            )
            grade_vec = np.array(
                [judgments.get((topic, d), 0) for d in docs], dtype=float
            )
            utility = grade_vec * qualities[si] + rng.normal(0.0, 0.35, n_docs)
            order = np.argsort(-utility)[:run_depth]
            runs[tag][topic] = Ranking((docs[di] for di in order), utility[order])
    return RunSet(runs=runs), qrels


def write_mini_collection(out_dir: Path, **kwargs) -> tuple[Path, list[Path]]:
    """Materialise the collection as qrels plus a runs/ directory.

    Runs go into their own subdirectory so the whole directory can be
    handed to tooling that treats every file in a runs directory as one
    system.
    """
    out_dir = Path(out_dir)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    runs, qrels = build_mini_collection(**kwargs)
    qrels_path = out_dir / "truth.qrels"
    save_qrels(qrels, qrels_path)
    run_paths = []
    for tag in runs.systems():
        path = runs_dir / f"{tag}.run"
        write_atomic(path, serialize_run(RunSet(runs={tag: runs.runs[tag]})))
        run_paths.append(path)
    return qrels_path, run_paths
