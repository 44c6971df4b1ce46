"""nDCG@k and the systems-by-topics score matrix it fills.

The score matrix is the single input to significance testing and to the
system ranking, so everything here is deterministic: topics and systems
are kept in sorted order and per-system means are summed left-to-right.

Every command scores on one ``_GradeIndex``: the judged keys of one or
more qrels sets in ``array`` buffers and the positions of each system's
top-k documents among them. It scores a set's grade vector, or a sampled
one, with the arithmetic of ``ndcg_at_k``, the plain reference, so every
score equals it bit for bit. Building and scoring an index loads no
numpy; only ``ScoreMatrix`` and the callers that compute on the buffers
import it, so importing this module and ``evaluate`` never load it.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import ConfigurationError, ValidationError
from .trec import Qrels, RunSet, _csv_table

if TYPE_CHECKING:
    import numpy as np

LINEAR = "linear"
EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class MeasureSpec:
    """Evaluation measure identity: nDCG with a rank cutoff and gain."""

    k: int = 10
    gain: str = LINEAR

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError(f"cutoff k must be >= 1, got {self.k}")
        if self.gain not in (LINEAR, EXPONENTIAL):
            raise ConfigurationError(f"unknown gain function {self.gain!r}")


def _gain(grade: int, kind: str) -> float:
    # A gain past the largest float is inf, which _idcg refuses.
    if kind == EXPONENTIAL:
        grade = 2 ** min(grade, 1024) - 1
    try:
        return float(grade)
    except OverflowError:
        return math.inf


def _dcg(grades: Sequence[int], kind: str) -> float:
    # Grades in rank order; the discount of rank i is log2(i + 1).
    total = 0.0
    for i, grade in enumerate(grades):
        if grade > 0:
            total += _gain(grade, kind) / math.log2(i + 2)
    return total


def _idcg(grades: Iterable[int], k: int, kind: str) -> float:
    """The DCG of a topic's ideal ranking: its k highest grades, highest first.

    Every scorer refuses a DCG that overflows a float here: no ranking of
    a topic has a larger DCG than its ideal one, whose top grade is named.
    """
    top = sorted(grades, reverse=True)[:k]
    idcg = _dcg(top, kind)
    if idcg == math.inf:
        raise ValidationError(f"grade {top[0]} is too large for {kind} gain: "
                              "the ideal DCG overflows a float")
    return idcg


def _ndcg(dcg: float, idcg: float) -> float:
    # No ranking's DCG exceeds its ideal one except by rounding.
    return 0.0 if idcg == 0.0 else min(dcg / idcg, 1.0)


def ndcg_at_k(ranking: Sequence[str], topic_judgments: Mapping[str, int],
              spec: MeasureSpec = MeasureSpec()) -> float:
    """nDCG@k of one ranking against one topic's judgments.

    ``ranking`` is a list of doc ids in rank order. Unjudged documents
    gain 0. The ideal ranking is all judged documents of the topic in
    grade-descending order, truncated at k. Topics with no positively
    graded document score 0. The discount of rank i is log2(i + 1) with
    ranks starting at 1. A score that rounds above 1 is 1.
    """
    idcg = _idcg(topic_judgments.values(), spec.k, spec.gain)
    grades = [topic_judgments.get(doc_id, 0) for doc_id in ranking[:spec.k]]
    return _ndcg(_dcg(grades, spec.gain), idcg)


@dataclass
class ScoreMatrix:
    """Systems x topics matrix of per-topic evaluation scores in [0, 1]."""

    system_tags: tuple[str, ...]
    topic_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        import numpy as np

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
        if not all(0.0 <= v <= 1.0 for v in self.values.ravel().tolist()):  # NaN fails both
            raise ValidationError("matrix values must lie in [0, 1]")

    def __eq__(self, other):  # the generated one compares ``values`` as an array
        import numpy as np

        return (isinstance(other, ScoreMatrix) and self.system_tags == other.system_tags
                and self.topic_ids == other.topic_ids
                and np.array_equal(self.values, other.values))

    def row(self, system_tag: str) -> np.ndarray:
        return self.values[self.system_tags.index(system_tag)]

    def to_csv(self) -> str:
        """CSV with topic ids as header and one row per system, 6 dp."""
        return _score_table(self.system_tags, self.topic_ids, self.values)


def _score_table(system_tags: Sequence[str], topic_ids: Sequence[str], rows: Iterable) -> str:
    """``ScoreMatrix.to_csv`` of these tags, topics and rows of scores."""
    columns = [("system", str), *((topic, "{:.6f}".format) for topic in topic_ids)]
    return _csv_table(columns, ((tag, *row) for tag, row in zip(system_tags, rows)))


def sequential_row_means(values: np.ndarray) -> np.ndarray:
    """Mean over columns with a fixed left-to-right summation order.

    Guarantees bit-identical results no matter how callers schedule or
    parallelize the surrounding computation.
    """
    acc = values[:, 0].astype(float).copy()
    for t in range(1, values.shape[1]):
        acc += values[:, t]
    return acc / values.shape[1]


def _union_judgments(*qrels_sets: Qrels) -> tuple[list[tuple[str, str]], list[str], list[int],
                                                   list[array], array]:
    """The union of the sets' judged (topic, doc) keys in sorted order.

    Returns the keys, their topics, the bounds of the topics' segments,
    one ``array('q')`` per set holding its grade of every key (0 where it
    judged none), and an ``array('B')`` marking the keys every set judged.
    Each buffer ends in one more slot, a 0 grade that no set judged, which
    index -1 reads. Callers that compute in numpy wrap them with
    ``np.frombuffer``.
    """
    keys = sorted(chain.from_iterable(q.judgments for q in qrels_sets))
    if len(qrels_sets) > 1:  # a sorted merge: a set union of the keys holds more memory
        keys = [key for key, _ in groupby(keys)]
    topics = [topic for topic, _ in groupby(keys, key=itemgetter(0))]
    bounds = [*(bisect_left(keys, (topic,)) for topic in topics), len(keys)]
    grades = [array("q", chain(map(q.judgments.get, keys, repeat(0)), [0])) for q in qrels_sets]
    shared = array("B", chain(map(all, zip(*(map(q.judgments.__contains__, keys)
                                             for q in qrels_sets))), [False]))
    return keys, topics, bounds, grades, shared


def _ranked(runs: RunSet, systems: list[str], keys: list[tuple[str, str]], topics: list[str],
            bounds: list[int], k: int) -> array:
    """The position in ``keys`` of each system's top-k documents on each topic.

    The flat ``array('q')`` holds topic by topic, system by system, one
    row of positions as wide as k, or as the deepest ranking when that is
    shallower, and at least 1 wide. It holds -1 for an unjudged document
    and pads short and missing rankings with it.
    """
    rankings = [runs.runs[tag] for tag in systems]
    width = min(k, max([1, *(len(r.doc_ids) for per in rankings for r in per.values())]))
    ranked, pad = array("q"), [-1] * width
    for topic, start, end in zip(topics, bounds, bounds[1:]):
        # One topic's positions at a time: a dict over every key holds far more.
        position = {keys[i][1]: i for i in range(start, end)}
        for per_topic in rankings:
            ranking = per_topic.get(topic)
            row = [] if ranking is None else [position.get(doc, -1)
                                              for doc in ranking.doc_ids[:width]]
            ranked.extend(row)
            ranked.extend(pad[len(row):])
    return ranked


class _GradeIndex:
    """The judgments of one or more qrels sets, for scoring grade vectors.

    The index covers the union of the sets' judged (topic, doc) keys in
    sorted order; ``bounds[j]:bounds[j + 1]`` is topic j's segment.
    ``grades[s]`` is set s's grade vector, with 0 for a key it did not
    judge: an unjudged document and a grade-0 one both gain 0, so each
    set scores as on its own judgments. ``shared`` marks the keys every
    set judged. Any vector of one grade per key, each one of the sets'
    grades or 0 as a sample's are, can be scored; it ends in the 0 slot
    of ``_union_judgments``.

    ``ranked`` is ``_ranked``'s buffer: the ``width`` positions of system
    i's top-k documents for topic j start at ``(j * len(systems) + i) *
    width``. Its padding, -1, reads that last 0; an unjudged document and
    a missing ranking read it too.
    """

    def __init__(self, runs: RunSet, k: int, *qrels_sets: Qrels):
        keys, topics, self.bounds, self.grades, self.shared = _union_judgments(*qrels_sets)
        if not topics:
            raise ConfigurationError("qrels contain no judgments")
        self.systems, self.topics = runs.systems(), topics
        if not self.systems:
            raise ConfigurationError("run set contains no systems")
        if not set(runs.topics()) & set(topics):
            raise ConfigurationError("runs and qrels share no topics")
        self.k = k
        self.ranked = _ranked(runs, self.systems, keys, topics, self.bounds, k)
        self.width = len(self.ranked) // (len(topics) * len(self.systems))

    def score(self, grades: array, gain: str) -> tuple[list[str], list[str], list[list[float]]]:
        """The systems, the topics and each system's row of nDCG@k under one grade vector.

        Each topic's IDCG is ``_idcg`` of its segment, which refuses the
        vector's grades before any is gathered. Each ranking's DCG adds its
        gains rank by rank, as ``_dcg`` does; a 0 gain adds 0.0, which
        changes no sum, so each score is ``ndcg_at_k``'s bit for bit.
        """
        grades, bounds, m = grades.tolist(), self.bounds, len(self.systems)
        ideal = [_idcg(grades[start:end], self.k, gain) for start, end in zip(bounds, bounds[1:])]
        table = {g: _gain(g, gain) if g > 0 else 0.0 for g in set(grades)}
        discounts = [math.log2(r + 2) for r in range(self.width)]
        dcg = []
        for row in zip(*[map(grades.__getitem__, self.ranked)] * self.width):  # one ranking each
            total = 0.0
            for g, discount in zip(row, discounts):
                total += table[g] / discount
            dcg.append(total)
        return self.systems, self.topics, [[_ndcg(dcg[j * m + i], idcg)
                                            for j, idcg in enumerate(ideal)] for i in range(m)]


def score_matrix(runs: RunSet, qrels: Qrels,
                 spec: MeasureSpec = MeasureSpec()) -> ScoreMatrix:
    """Score every system on every judged topic.

    Topics are those present in the qrels; a system with no ranking for a
    topic scores 0 on it. Each score equals ``ndcg_at_k`` bit for bit.
    """
    index = _GradeIndex(runs, spec.k, qrels)
    return ScoreMatrix(*index.score(index.grades[0], spec.gain))


def mean_scores(sm: ScoreMatrix) -> dict[str, float]:
    """Per-system arithmetic mean over topics, in system-tag order."""
    means = sequential_row_means(sm.values)
    return {tag: float(v) for tag, v in zip(sm.system_tags, means)}
