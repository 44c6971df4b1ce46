"""nDCG@k and the systems-by-topics score matrix it fills.

The score matrix is the single input to significance testing and to the
system ranking, so everything here is deterministic: topics and systems
are kept in sorted order and per-system means are summed left-to-right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, ValidationError
from .trec import Qrels, RunSet, _csv_table

LINEAR = "linear"
EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class MeasureSpec:
    """Evaluation measure identity: nDCG with a rank cutoff and gain."""

    name: str = "ndcg"
    k: int = 10
    gain: str = LINEAR

    def __post_init__(self):
        if self.name != "ndcg":
            raise ConfigurationError(f"unsupported measure {self.name!r}")
        if self.k < 1:
            raise ConfigurationError(f"cutoff k must be >= 1, got {self.k}")
        if self.gain not in (LINEAR, EXPONENTIAL):
            raise ConfigurationError(f"unknown gain function {self.gain!r}")


def _gain(grade: int, kind: str) -> float:
    if kind == LINEAR:
        return float(grade)
    return float(2 ** grade - 1)


def _dcg(grades: Sequence[int], kind: str) -> float:
    # Grades in rank order; the discount of rank i is log2(i + 1).
    total = 0.0
    for i, grade in enumerate(grades):
        if grade > 0:
            total += _gain(grade, kind) / math.log2(i + 2)
    return total


def _ideal_dcg(topic_judgments: Mapping[str, int], spec: MeasureSpec) -> float:
    return _dcg(sorted(topic_judgments.values(), reverse=True)[:spec.k], spec.gain)


def _ndcg(ranking: Sequence[str], topic_judgments: Mapping[str, int], idcg: float,
          spec: MeasureSpec) -> float:
    if idcg == 0.0:
        return 0.0
    grades = [topic_judgments.get(doc_id, 0) for doc_id in ranking[:spec.k]]
    return _dcg(grades, spec.gain) / idcg


def ndcg_at_k(ranking: Sequence[str], topic_judgments: Mapping[str, int],
              spec: MeasureSpec = MeasureSpec()) -> float:
    """nDCG@k of one ranking against one topic's judgments.

    ``ranking`` is a list of doc ids in rank order. Unjudged documents
    gain 0. The ideal ranking is all judged documents of the topic in
    grade-descending order, truncated at k. Topics with no positively
    graded document score 0. The discount of rank i is log2(i + 1) with
    ranks starting at 1.
    """
    return _ndcg(ranking, topic_judgments, _ideal_dcg(topic_judgments, spec), spec)


@dataclass
class ScoreMatrix:
    """Systems x topics matrix of per-topic evaluation scores in [0, 1]."""

    system_tags: tuple[str, ...]
    topic_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        self.system_tags = tuple(self.system_tags)
        self.topic_ids = tuple(self.topic_ids)
        self.values = np.asarray(self.values, dtype=float)
        m, n = len(self.system_tags), len(self.topic_ids)
        if self.values.shape != (m, n):
            raise ValidationError(
                f"matrix shape {self.values.shape} does not match "
                f"{m} systems x {n} topics"
            )
        if len(set(self.system_tags)) != m:
            raise ValidationError("system tags are not unique")
        if len(set(self.topic_ids)) != n:
            raise ValidationError("topic ids are not unique")
        if not ((self.values >= 0.0) & (self.values <= 1.0)).all():  # NaN fails both
            raise ValidationError("matrix values must lie in [0, 1]")

    def __eq__(self, other):  # the generated one compares ``values`` as an array
        return (isinstance(other, ScoreMatrix) and self.system_tags == other.system_tags
                and self.topic_ids == other.topic_ids
                and np.array_equal(self.values, other.values))

    def row(self, system_tag: str) -> np.ndarray:
        return self.values[self.system_tags.index(system_tag)]

    def to_csv(self) -> str:
        """CSV with topic ids as header and one row per system, 6 dp."""
        columns = [("system", str), *((topic, "{:.6f}".format) for topic in self.topic_ids)]
        return _csv_table(columns, ((tag, *v) for tag, v in zip(self.system_tags, self.values)))


def sequential_row_means(values: np.ndarray) -> np.ndarray:
    """Mean over columns with a fixed left-to-right summation order.

    Guarantees bit-identical results no matter how callers schedule or
    parallelize the surrounding computation.
    """
    acc = values[:, 0].astype(float).copy()
    for t in range(1, values.shape[1]):
        acc += values[:, t]
    return acc / values.shape[1]


def score_matrix(runs: RunSet, qrels: Qrels,
                 spec: MeasureSpec = MeasureSpec()) -> ScoreMatrix:
    """Score every system on every judged topic.

    Topics are those present in the qrels; a system with no ranking for a
    topic scores 0 on it.
    """
    topics = qrels.topics()
    if not topics:
        raise ConfigurationError("qrels contain no judgments")
    systems = runs.systems()
    if not systems:
        raise ConfigurationError("run set contains no systems")
    if not set(runs.topics()) & set(topics):
        raise ConfigurationError("runs and qrels share no topics")
    by_topic = qrels.by_topic()
    ideal = {topic: _ideal_dcg(by_topic[topic], spec) for topic in topics}
    values = np.zeros((len(systems), len(topics)))
    for i, tag in enumerate(systems):
        per_topic = runs.runs[tag]
        for j, topic in enumerate(topics):
            ranking = per_topic.get(topic)
            if ranking is not None:
                values[i, j] = _ndcg(ranking.doc_ids, by_topic[topic], ideal[topic], spec)
    return ScoreMatrix(systems, topics, values)


def mean_scores(sm: ScoreMatrix) -> dict[str, float]:
    """Per-system arithmetic mean over topics, in system-tag order."""
    means = sequential_row_means(sm.values)
    return {tag: float(v) for tag, v in zip(sm.system_tags, means)}
