"""Reference computations written independently of the package under test.

``ndcg_at_10`` recomputes nDCG@k with numpy from a raw ranking and a
topic's grades; ``read_rankings`` ranks (system, topic) cells straight from
the run file text. ``mc_bound`` is the Monte-Carlo tolerance a sampled
p-value must meet against the exact one.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


def ndcg_at_10(ranking: list[str], grades: dict[str, int], k: int = 10) -> float:
    """Linear-gain nDCG@k; unjudged and non-positive grades gain nothing."""
    gains = np.array([max(grades.get(doc, 0), 0) for doc in ranking[:k]], dtype=float)
    ideal = np.sort(np.clip(np.fromiter(grades.values(), dtype=float), 0, None))[::-1][:k]
    idcg = float(ideal @ (1.0 / np.log2(np.arange(2, ideal.size + 2))))
    if idcg == 0.0:
        return 0.0
    dcg = float(gains @ (1.0 / np.log2(np.arange(2, gains.size + 2))))
    return dcg / idcg


def read_rankings(run_path: Path, topics: set[str]) -> dict[str, list[str]]:
    """Doc ids per topic of a six-column run file, by score then doc id, both descending."""
    entries: dict[str, list[tuple[float, str]]] = {}
    with open(run_path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if parts and parts[0] in topics:
                entries.setdefault(parts[0], []).append((float(parts[4]), parts[2]))
    return {topic: [doc for _, doc in sorted(pairs, reverse=True)]
            for topic, pairs in entries.items()}


def read_grades(qrels_path: Path) -> dict[str, dict[str, int]]:
    grades: dict[str, dict[str, int]] = {}
    with open(qrels_path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if parts:
                grades.setdefault(parts[0], {})[parts[2]] = int(parts[3])
    return grades


def mc_bound(p_exact: float, permutations: int) -> float:
    """4 standard errors of a B-sample proportion plus the add-one offset."""
    return 4.0 * math.sqrt(p_exact * (1.0 - p_exact) / permutations) + 1.0 / (permutations + 1)
