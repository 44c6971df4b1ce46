"""nDCG@k and the systems-by-topics score matrix it fills.

The score matrix is the single input to significance testing and to the
system ranking, so everything here is deterministic: topics and systems
are kept in sorted order and per-system means are summed left-to-right.
"""

from __future__ import annotations

import math
from array import array
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


def ndcg_at_k(ranking: Sequence[str], topic_judgments: Mapping[str, int],
              spec: MeasureSpec = MeasureSpec()) -> float:
    """nDCG@k of one ranking against one topic's judgments.

    ``ranking`` is a list of doc ids in rank order. Unjudged documents
    gain 0. The ideal ranking is all judged documents of the topic in
    grade-descending order, truncated at k. Topics with no positively
    graded document score 0. The discount of rank i is log2(i + 1) with
    ranks starting at 1.
    """
    idcg = _dcg(sorted(topic_judgments.values(), reverse=True)[:spec.k], spec.gain)
    if idcg == 0.0:
        return 0.0
    grades = [topic_judgments.get(doc_id, 0) for doc_id in ranking[:spec.k]]
    return _dcg(grades, spec.gain) / idcg


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


def _sorted_judgments(qrels: Qrels) -> tuple[list[str], list[list[str]], np.ndarray, np.ndarray]:
    """A qrels set in sorted (topic, doc) order: the topics, each topic's
    docs, every judgment's grade, and the bounds of the topics' segments."""
    by_topic = qrels.by_topic()
    topics = sorted(by_topic)
    docs = [sorted(by_topic[topic]) for topic in topics]
    grades = np.fromiter((by_topic[topic][doc] for topic, ds in zip(topics, docs) for doc in ds),
                         dtype=np.int64, count=len(qrels.judgments))
    return topics, docs, grades, np.cumsum([0, *map(len, docs)])


def _scored_systems(runs: RunSet, topics: list[str]) -> list[str]:
    """The systems to score on ``topics``, the judged topics in sorted order."""
    if not topics:
        raise ConfigurationError("qrels contain no judgments")
    systems = runs.systems()
    if not systems:
        raise ConfigurationError("run set contains no systems")
    if not set(runs.topics()) & set(topics):
        raise ConfigurationError("runs and qrels share no topics")
    return systems


def _ranked(runs: RunSet, systems: list[str], lookups: list[Mapping[str, int]], topics: list[str],
            k: int, missing: int) -> np.ndarray:
    """``lookups[j][doc]`` for each system's top-k documents on each topic j.

    The (systems, topics, ranks) array holds ``missing`` for an unjudged
    document and pads short and missing rankings with it. It is as wide
    as the deepest ranking when that is shallower than k.
    """
    rankings = [runs.runs[tag] for tag in systems]
    width = min(k, max((len(r.doc_ids) for per in rankings for r in per.values()), default=0))
    values, pad = array("q"), [missing] * width
    for per_topic in rankings:
        for topic, lookup in zip(topics, lookups):
            ranking = per_topic.get(topic)
            row = [] if ranking is None else [lookup.get(doc, missing)
                                              for doc in ranking.doc_ids[:width]]
            values.extend(row)
            values.extend(pad[len(row):])
    return np.frombuffer(values, dtype=np.int64).reshape(len(systems), len(topics), width)


def _gains(grades: np.ndarray, values: np.ndarray, kind: str) -> np.ndarray:
    """The gain of every grade, from a table built with ``_gain`` over
    ``values``: the sorted distinct grades, which hold every one in ``grades``."""
    table = np.array([_gain(g, kind) if g > 0 else 0.0 for g in values.tolist()])
    return table[np.searchsorted(values, grades)]


def _grade_values(qrels: Qrels) -> np.ndarray:
    """Every grade a score of ``qrels`` or of a sample of it reads, 0 included."""
    return np.array(sorted({0, *qrels.judgments.values()}), dtype=np.int64)


def _dcg_rows(gains: np.ndarray) -> np.ndarray:
    # ``_dcg`` over the last axis, rank by rank in the same order; a 0 gain
    # adds 0.0, which changes no sum, so the results are bit-identical.
    acc = np.zeros(gains.shape[:-1])
    for r in range(gains.shape[-1]):
        acc += gains[..., r] / math.log2(r + 2)
    return acc


def _ndcg_matrix(gains: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """nDCG of (systems, topics, ranks) gains in rank order against each
    topic's ideal gains, (topics, ranks); 0 where the ideal DCG is 0."""
    dcg, idcg = _dcg_rows(gains), _dcg_rows(ideal)
    return np.divide(dcg, idcg, out=np.zeros_like(dcg), where=idcg != 0.0)


class _GradeIndex:
    """One qrels set's judgments as arrays, for scoring many grade vectors.

    A grade vector holds one grade per judgment in sorted (topic, doc)
    order, each one of the qrels set's grades or 0, as a sample's are;
    ``grades`` is the qrels set's own. ``bounds[j]:bounds[j + 1]`` is
    topic j's segment. ``ranked[i, j]`` holds the positions of system i's
    top-k documents for topic j and ``judged[j]`` those of topic j's
    judgments. Both are padded with -1, which reads a 0 grade appended to
    the vector; an unjudged document and a missing ranking read it too.
    """

    def __init__(self, runs: RunSet, qrels: Qrels, k: int):
        topics, docs, self.grades, self.bounds = _sorted_judgments(qrels)
        self.systems, self.topics, self.k = _scored_systems(runs, topics), topics, k
        self.values = _grade_values(qrels)
        positions = [{doc: start + i for i, doc in enumerate(ds)}
                     for start, ds in zip(self.bounds[:-1].tolist(), docs)]
        self.ranked = _ranked(runs, self.systems, positions, topics, k, -1)
        self.judged = self.bounds[:-1, None] + np.arange(max(map(len, docs)))
        self.judged[self.judged >= self.bounds[1:, None]] = -1

    def score(self, grades: np.ndarray, gain: str) -> ScoreMatrix:
        """nDCG@k of every system on every topic under one grade vector."""
        gains = _gains(np.append(grades, 0), self.values, gain)
        # Gains rise with grades, so sorting gains sorts the ideal ranking.
        ideal = np.sort(gains[self.judged], axis=1)[:, ::-1][:, :self.k]
        return ScoreMatrix(self.systems, self.topics, _ndcg_matrix(gains[self.ranked], ideal))


def score_matrix(runs: RunSet, qrels: Qrels,
                 spec: MeasureSpec = MeasureSpec()) -> ScoreMatrix:
    """Score every system on every judged topic.

    Topics are those present in the qrels; a system with no ranking for a
    topic scores 0 on it. Each score equals ``ndcg_at_k`` bit for bit.
    """
    by_topic = qrels.by_topic()
    topics = sorted(by_topic)
    systems = _scored_systems(runs, topics)
    grades = _ranked(runs, systems, [by_topic[topic] for topic in topics], topics, spec.k, 0)
    ideal = [sorted(by_topic[topic].values(), reverse=True)[:spec.k] for topic in topics]
    width = max(map(len, ideal))
    ideal = np.array([row + [0] * (width - len(row)) for row in ideal], dtype=np.int64)
    values = _grade_values(qrels)
    scores = _ndcg_matrix(_gains(grades, values, spec.gain), _gains(ideal, values, spec.gain))
    return ScoreMatrix(systems, topics, scores)


def mean_scores(sm: ScoreMatrix) -> dict[str, float]:
    """Per-system arithmetic mean over topics, in system-tag order."""
    means = sequential_row_means(sm.values)
    return {tag: float(v) for tag, v in zip(sm.system_tags, means)}
