"""Synthetic candidate qrels derived from a ground-truth set.

Two generators:

* percentage sampling, which keeps a seeded random fraction of the
  relevant judgments and relabels the rest as non-relevant, and
* a popularity-biased labeller, which calls a document relevant when
  many systems retrieve it near the top, regardless of its true grade.

Both preserve the judged (topic, document) universe so downstream score
matrices stay comparable; only grades change. Both work on the sorted
judged keys of ``measures._union_judgments``, and the labeller counts
ranked documents through ``measures._ranked``, as scoring does. Only
popularity labelling loads ``fractions``, for its exact relevant rate.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .measures import _ranked, _union_judgments
from .trec import CANDIDATE, Qrels, RunSet

PER_TOPIC = "per_topic"
GLOBAL = "global"
EXPLICIT = "explicit"


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


@dataclass(frozen=True)
class SamplingConfig:
    """Parameters for percentage sampling of relevant judgments."""

    fraction: float
    repetitions: int = 10
    master_seed: int = 0
    relevant_threshold: int = 1
    stratified: bool = False

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in [0, 1], got {self.fraction}")
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        if self.relevant_threshold < 1:
            raise ConfigurationError("relevant_threshold must be >= 1")


def _sampling_configs(fractions: list[float], repetitions: int, master_seed: int,
                      relevant_threshold: int, stratified: bool) -> list[SamplingConfig]:
    """One ``SamplingConfig`` per fraction, in order, for a sweep or a sample."""
    if not fractions:
        raise ConfigurationError("need at least one sampling fraction")
    repeated = [f for i, f in enumerate(fractions) if f in fractions[:i]]
    if repeated:  # its cells would repeat another fraction's, seed for seed
        raise ConfigurationError(f"sampling fraction {repeated[0]!r} is listed twice")
    return [SamplingConfig(fraction, repetitions, master_seed, relevant_threshold, stratified)
            for fraction in fractions]


def percentage_sample(gt: Qrels, cfg: SamplingConfig, repetition_index: int = 0) -> Qrels:
    """Keep round(fraction * |relevant|) relevant judgments; zero the rest.

    ``repetition_index`` selects an independent substream of the master
    seed, so repetitions are reproducible individually and the set for a
    given (seed, repetition) never depends on how many repetitions run.

    In stratified mode the quota is applied per topic instead of to the
    pooled relevant list, which keeps per-topic relevance counts closer
    to proportional at the cost of larger total rounding error.
    """
    if not 0 <= repetition_index < cfg.repetitions:
        raise ConfigurationError(
            f"repetition_index {repetition_index} outside [0, {cfg.repetitions})"
        )
    keys, _, bounds, grades, _ = _union_judgments(gt)
    sampled = _sample_grades(grades[0], bounds, cfg, repetition_index)
    return Qrels(judgments=dict(zip(keys, sampled)), role=CANDIDATE)


def _sample_grades(grades: array, bounds: list[int], cfg: SamplingConfig,
                   repetition_index: int) -> array:
    """``percentage_sample`` on an ``array('q')`` grade vector in sorted (topic, doc) order.

    Topic j owns ``grades[bounds[j]:bounds[j + 1]]``; a 0 past the last
    topic is copied as it is. The relevant judgments are drawn from in
    sorted key order, so the kept set is the one ``percentage_sample``
    keeps. The sample is a new ``array('q')``, which scoring reads grade
    by grade without numpy.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.master_seed, spawn_key=(repetition_index,))
    )
    grades = np.frombuffer(grades, dtype=np.int64)
    relevant = np.flatnonzero(grades >= cfg.relevant_threshold)
    if cfg.stratified:  # one draw per topic, in topic order
        groups = np.split(relevant, np.searchsorted(relevant, bounds[1:-1]))
    else:
        groups = [relevant]
    sampled = grades.copy()
    sampled[relevant] = 0
    for group in groups:
        k = _round_half_up(cfg.fraction * len(group))
        if k < len(group):
            group = group[rng.choice(len(group), size=k, replace=False)]
        sampled[group] = grades[group]
    return array("q", sampled.tobytes())


@dataclass(frozen=True)
class PopularityConfig:
    """Parameters for the popularity-biased labeller.

    ``p_mode`` picks how many documents per topic get labelled relevant:
    ``per_topic`` matches each topic's own true relevant count, ``global``
    applies the collection-wide relevant rate to every topic, and
    ``explicit`` uses ``explicit_p`` directly.
    """

    depth: int = 100
    p_mode: str = PER_TOPIC
    explicit_p: float | None = None
    relevant_threshold: int = 1

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigurationError("depth must be >= 1")
        if self.p_mode not in (PER_TOPIC, GLOBAL, EXPLICIT):
            raise ConfigurationError(f"unknown p_mode {self.p_mode!r}")
        if self.p_mode == EXPLICIT:
            if self.explicit_p is None or not 0.0 <= self.explicit_p <= 1.0:
                raise ConfigurationError("explicit mode needs explicit_p in [0, 1]")
        elif self.explicit_p is not None:
            raise ConfigurationError("explicit_p is only valid with p_mode='explicit'")


def popularity_biased(gt: Qrels, runs: RunSet, cfg: PopularityConfig = PopularityConfig()) -> Qrels:
    """Label the most-retrieved judged documents per topic as relevant.

    A judged document's count is how many systems retrieve it in their
    top ``depth``. Within a topic, documents are ranked by count
    (descending, document id ascending as tie-break) and the top
    ceil(p * judged) receive grade 1; the rest grade 0. Topics none of
    whose judged documents appear in any run keep all grades at 0 and
    produce a warning, since the labeller has no signal there.
    """
    from fractions import Fraction  # here, so that sampling never loads it

    keys, topics, bounds, (grades,), _ = _union_judgments(gt)
    ranked = np.frombuffer(_ranked(runs, runs.systems(), keys, topics, bounds, cfg.depth),
                           dtype=np.int64)
    counts = np.bincount(ranked + 1, minlength=len(keys) + 1)[1:]
    relevant = np.frombuffer(grades, dtype=np.int64)[:-1] >= cfg.relevant_threshold
    if cfg.p_mode == GLOBAL:
        if not keys:
            raise ConfigurationError("cannot label an empty qrel set")
        p = Fraction(int(relevant.sum()), len(keys))
    elif cfg.p_mode == EXPLICIT:
        p = Fraction(str(cfg.explicit_p))

    labels = np.zeros(len(keys), dtype=np.int64)
    for topic, start, end in zip(topics, bounds, bounds[1:]):
        if cfg.p_mode == PER_TOPIC:
            n_select = int(relevant[start:end].sum())
        else:
            n_select = min(math.ceil(p * (end - start)), end - start)
        if n_select and not counts[start:end].any():
            warnings.warn(f"topic {topic}: no judged document retrieved within depth "
                          f"{cfg.depth}; labelling all non-relevant", stacklevel=2)
            continue
        # A stable sort keeps the segment's doc id order among equal counts.
        order = np.argsort(-counts[start:end], kind="stable")
        labels[start + order[:n_select]] = 1
    return Qrels(judgments=dict(zip(keys, labels.tolist())), role=CANDIDATE)
