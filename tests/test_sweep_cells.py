"""Sweep cells and compare candidates on the grade index, checked against
dict-based references.

``run_sweep`` samples, scores and computes kappa for every cell on one
grade vector over the truth's judgments. ``compare_qrels`` indexes the
truth and the candidate together, over the union of their judged keys.
The references below are plain loops over ``Qrels`` dicts: the per-cell
sample, ``ndcg_at_k`` topic by topic, and kappa over the keys both sets
judged. Every result must equal them bit for bit.
"""

import math
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrimpower import reporting
from discrimpower.errors import ConfigurationError, ValidationError
from discrimpower.measures import EXPONENTIAL, LINEAR, MeasureSpec, ndcg_at_k, score_matrix
from discrimpower.metrics import cohen_kappa, full_report
from discrimpower.significance import SigTestConfig
from discrimpower.synth import SamplingConfig, percentage_sample
from discrimpower.trec import CANDIDATE, Qrels, Ranking, RunSet

QUICK = SigTestConfig(permutations=20, master_seed=5)


def reference_sample(gt, cfg, rep):
    rng = np.random.default_rng(np.random.SeedSequence(cfg.master_seed, spawn_key=(rep,)))
    judgments = dict(gt.judgments)

    def sample_keys(relevant):
        k = math.floor(cfg.fraction * len(relevant) + 0.5)
        if k >= len(relevant):
            return set(relevant)
        picked = rng.choice(len(relevant), size=k, replace=False)
        return {relevant[i] for i in picked}

    relevant = sorted(key for key, grade in gt.judgments.items()
                      if grade >= cfg.relevant_threshold)
    if cfg.stratified:
        topics = groupby(relevant, key=lambda key: key[0])
        kept = set().union(*(sample_keys(list(keys)) for _, keys in topics))
    else:
        kept = sample_keys(relevant)
    for key, grade in gt.judgments.items():
        if grade >= cfg.relevant_threshold and key not in kept:
            judgments[key] = 0
    return Qrels(judgments=judgments, role=CANDIDATE)


def reference_scores(runs, qrels, spec):
    topics, by_topic = qrels.topics(), qrels.by_topic()
    values = np.zeros((len(runs.systems()), len(topics)))
    for i, tag in enumerate(runs.systems()):
        for j, topic in enumerate(topics):
            ranking = runs.runs[tag].get(topic)
            if ranking is not None:
                values[i, j] = ndcg_at_k(ranking.doc_ids, by_topic[topic], spec)
    return values


def reference_kappa(gt, cand, threshold):
    common = gt.judgments.keys() & cand.judgments.keys()
    n = len(common)
    both = pos_gt = pos_cand = 0
    for key in common:
        rel_gt, rel_cand = gt.judgments[key] >= threshold, cand.judgments[key] >= threshold
        both += rel_gt == rel_cand
        pos_gt += rel_gt
        pos_cand += rel_cand
    p_o, pos_gt, pos_cand = both / n, pos_gt / n, pos_cand / n
    p_e = pos_gt * pos_cand + (1 - pos_gt) * (1 - pos_cand)
    if p_e == 1.0:
        return (1.0 if p_o == 1.0 else 0.0), True
    return (p_o - p_e) / (1 - p_e), False


POOL = [f"d{i:02d}" for i in range(30)]


@st.composite
def collections(draw):
    """(runs, truth): 2-6 systems, 1-8 topics, rankings 1-25 deep that may
    miss topics and hold unjudged documents, grades -1 to 3."""
    m, n = draw(st.integers(2, 6)), draw(st.integers(1, 8))
    judgments = {}
    for t in range(n):
        judged = draw(st.lists(st.sampled_from(POOL[:15]), min_size=1, max_size=15,
                               unique=True))
        grades = draw(st.lists(st.integers(-1, 3), min_size=len(judged), max_size=len(judged)))
        judgments.update(((f"q{t}", doc), grade) for doc, grade in zip(judged, grades))
    runs = {}
    for s in range(m):
        per_topic = {}
        for t in range(n):
            if s > 0 and draw(st.integers(0, 4)) == 0:  # system s misses topic t
                continue
            depth = draw(st.integers(1, 25))
            docs = draw(st.permutations(POOL))[:depth]
            per_topic[f"q{t}"] = Ranking(docs, range(depth, 0, -1))
        runs[f"s{s}"] = per_topic
    return RunSet(runs=runs), Qrels(judgments=judgments)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(collection=collections(),
       gain=st.sampled_from([LINEAR, EXPONENTIAL]),
       k=st.sampled_from([1, 5, 20]),
       fractions=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 1.0]),
                          min_size=1, max_size=3, unique=True),
       repetitions=st.integers(1, 2),
       master_seed=st.integers(0, 2**32 - 1),
       stratified=st.booleans(),
       relevant_threshold=st.integers(1, 3),
       kappa_threshold=st.integers(1, 3))
def test_sweep_cells_equal_the_per_cell_qrels_path(
        collection, gain, k, fractions, repetitions, master_seed, stratified,
        relevant_threshold, kappa_threshold):
    runs, truth = collection
    spec = MeasureSpec(k=k, gain=gain)
    tested = []

    def recording(matrices, cfg):
        tested.extend(matrices)
        return real(matrices, cfg)

    real = reporting._tukey_many
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reporting, "_tukey_many", recording)
        result = reporting.run_sweep(
            runs, truth, fractions, repetitions=repetitions, master_seed=master_seed,
            spec=spec, sig_cfg=QUICK, kappa_threshold=kappa_threshold,
            relevant_threshold=relevant_threshold, stratified=stratified)

    assert tested[0].values.tobytes() == reference_scores(runs, truth, spec).tobytes()
    cells = iter(zip(tested[1:], result.rows))
    for fraction in fractions:
        cfg = SamplingConfig(fraction=fraction, repetitions=repetitions,
                             master_seed=master_seed, relevant_threshold=relevant_threshold,
                             stratified=stratified)
        for rep in range(repetitions):
            matrix, row = next(cells)
            cand = reference_sample(truth, cfg, rep)
            assert (row["fraction"], row["repetition"]) == (fraction, rep)
            assert matrix.values.tobytes() == reference_scores(runs, cand, spec).tobytes()
            kappa, degenerate = reference_kappa(truth, cand, kappa_threshold)
            assert (row["kappa"], "kappa_degenerate" in row["flags"]) == (kappa, degenerate)
            assert type(row["kappa"]) is float

            sampled = percentage_sample(truth, cfg, rep)
            assert sampled.judgments == cand.judgments
            assert {type(grade) for grade in sampled.judgments.values()} <= {int}
            scored = score_matrix(runs, sampled, spec)
            assert scored.values.tobytes() == reference_scores(runs, cand, spec).tobytes()


@st.composite
def mixed_candidates(draw, truth):
    """A candidate on the truth's topics that drops some of the truth's
    judgments and judges documents the truth did not, grades -1 to 3."""
    judgments = {}
    for topic in truth.topics():
        judged = sorted(doc for t, doc in truth.judgments if t == topic)
        kept = draw(st.lists(st.sampled_from(judged), max_size=len(judged), unique=True))
        extra = draw(st.lists(st.sampled_from([doc for doc in POOL if doc not in judged]),
                              min_size=0 if kept else 1, max_size=8, unique=True))
        grades = draw(st.lists(st.integers(-1, 3), min_size=len(kept) + len(extra),
                               max_size=len(kept) + len(extra)))
        judgments.update(((topic, doc), grade) for doc, grade in zip(kept + extra, grades))
    return Qrels(judgments=judgments, role=CANDIDATE)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(collection=collections(), data=st.data(),
       gain=st.sampled_from([LINEAR, EXPONENTIAL]),
       k=st.sampled_from([1, 5, 20]),
       kappa_threshold=st.integers(1, 3))
def test_compare_candidates_that_judge_other_keys_equal_the_dict_path(
        collection, data, gain, k, kappa_threshold):
    runs, truth = collection
    cand = data.draw(mixed_candidates(truth))
    spec = MeasureSpec(k=k, gain=gain)

    def compare(candidate):
        return reporting.compare_qrels(runs, truth, candidate, spec=spec, sig_cfg=QUICK,
                                       kappa_threshold=kappa_threshold)

    first = truth.topics()[0]
    for other_topics in (
        Qrels({key: g for key, g in cand.judgments.items() if key[0] != first}, CANDIDATE),
        Qrels({**cand.judgments, ("q9", POOL[0]): 1}, CANDIDATE),
    ):
        with pytest.raises(ValidationError, match="topic sets differ"):
            compare(other_topics)
    if not truth.judgments.keys() & cand.judgments.keys():
        with pytest.raises(ValidationError, match="no shared judged"):
            compare(cand)
        return

    cmp = compare(cand)
    assert cmp.gt_matrix.values.tobytes() == reference_scores(runs, truth, spec).tobytes()
    assert cmp.cand_matrix.values.tobytes() == reference_scores(runs, cand, spec).tobytes()
    kappa, degenerate = reference_kappa(truth, cand, kappa_threshold)
    assert (cmp.report.kappa, "kappa_degenerate" in cmp.report.flags) == (kappa, degenerate)
    assert type(cmp.report.kappa) is float
    assert cohen_kappa(truth, cand, kappa_threshold) == kappa
    report = full_report(cmp.gt_ss, cmp.cand_ss, truth, cand, cmp.means_gt, cmp.means_cand,
                         kappa_threshold=kappa_threshold)
    assert report.kappa == kappa


def test_sweep_builds_no_qrels_per_cell(mini, monkeypatch):
    runs, truth = mini
    built = []
    init = Qrels.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Qrels, "__init__", counting)
    reporting.run_sweep(runs, truth, fractions=[0.3, 0.6], repetitions=2, sig_cfg=QUICK)
    assert built == [], (
        f"run_sweep built {len(built)} Qrels for 4 cells: a cell must stay a grade "
        "vector, not become a percentage_sample Qrels")


@pytest.mark.parametrize("fractions, named", [
    ([0.5, 1.0, 0.5], "0.5"),
    ([1, 0.3, 1.0], "1.0"),
])
def test_sweep_rejects_a_fraction_listed_twice(mini, fractions, named):
    runs, truth = mini
    with pytest.raises(ConfigurationError, match=f"sampling fraction {named} is listed twice"):
        reporting.run_sweep(runs, truth, fractions, repetitions=1, sig_cfg=QUICK)
