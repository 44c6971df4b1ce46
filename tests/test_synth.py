import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrimpower.errors import ConfigurationError
from discrimpower.synth import (
    EXPLICIT,
    GLOBAL,
    PER_TOPIC,
    PopularityConfig,
    SamplingConfig,
    percentage_sample,
    popularity_biased,
)
from discrimpower.trec import CANDIDATE, Qrels, Ranking, RunSet, parse_run


def random_qrels(rng, n_topics=4, docs_per_topic=12):
    judgments = {}
    for t in range(n_topics):
        for d in range(docs_per_topic):
            judgments[(f"q{t}", f"d{d:02d}")] = int(rng.integers(0, 4))
    return Qrels(judgments=judgments)


def relevant_keys(q, threshold=1):
    return {k for k, g in q.judgments.items() if g >= threshold}


def test_fraction_one_is_identity():
    gt = random_qrels(np.random.default_rng(0))
    out = percentage_sample(gt, SamplingConfig(fraction=1.0), 0)
    assert out.judgments == gt.judgments
    assert out.role == CANDIDATE


def test_fraction_zero_relabels_every_relevant():
    gt = random_qrels(np.random.default_rng(1))
    out = percentage_sample(gt, SamplingConfig(fraction=0.0), 0)
    assert set(out.judgments) == set(gt.judgments)  # universe preserved
    assert relevant_keys(out) == set()
    # non-relevant judgments untouched
    for key, grade in gt.judgments.items():
        if grade == 0:
            assert out.judgments[key] == 0


def test_exact_retention_count_and_grades():
    gt = random_qrels(np.random.default_rng(2))
    n_rel = len(relevant_keys(gt))
    for fraction in (0.25, 0.5, 0.8):
        out = percentage_sample(gt, SamplingConfig(fraction=fraction), 0)
        kept = relevant_keys(out)
        assert len(kept) == math.floor(fraction * n_rel + 0.5)
        for key in kept:
            assert out.judgments[key] == gt.judgments[key]  # grades survive


def test_half_up_rounding():
    # 5 relevant docs at f = 0.5 keeps 3, not numpy/banker's 2.
    judgments = {("q", f"d{i}"): 1 for i in range(5)}
    gt = Qrels(judgments=judgments)
    out = percentage_sample(gt, SamplingConfig(fraction=0.5), 0)
    assert len(relevant_keys(out)) == 3


def test_repetitions_differ_and_are_stable():
    gt = random_qrels(np.random.default_rng(3))
    cfg = SamplingConfig(fraction=0.5, repetitions=10, master_seed=42)
    first = percentage_sample(gt, cfg, 0)
    again = percentage_sample(gt, cfg, 0)
    assert first == again
    others = [percentage_sample(gt, cfg, r) for r in range(1, 10)]
    assert any(o.judgments != first.judgments for o in others)


def test_repetition_sample_independent_of_repetition_count():
    gt = random_qrels(np.random.default_rng(4))
    few = SamplingConfig(fraction=0.5, repetitions=3, master_seed=7)
    many = SamplingConfig(fraction=0.5, repetitions=30, master_seed=7)
    assert percentage_sample(gt, few, 2) == percentage_sample(gt, many, 2)


def test_repetition_index_bounds():
    gt = random_qrels(np.random.default_rng(5))
    with pytest.raises(ConfigurationError):
        percentage_sample(gt, SamplingConfig(fraction=0.5, repetitions=3), 3)


def stratified_reference(gt, cfg, repetition_index):
    """Stratified sampling by a scan of every judgment per topic, in topic order."""
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.master_seed, spawn_key=(repetition_index,))
    )
    kept = set()
    for topic in gt.topics():
        relevant = sorted(
            key for key in gt.judgments
            if key[0] == topic and gt.judgments[key] >= cfg.relevant_threshold
        )
        k = math.floor(cfg.fraction * len(relevant) + 0.5)
        if k >= len(relevant):
            kept |= set(relevant)
        else:
            kept |= {relevant[i] for i in rng.choice(len(relevant), size=k, replace=False)}
    return {
        key: 0 if grade >= cfg.relevant_threshold and key not in kept else grade
        for key, grade in gt.judgments.items()
    }


def test_stratified_sample_equals_per_topic_scan():
    rng = np.random.default_rng(11)
    for trial in range(6):
        gt = random_qrels(rng, n_topics=7, docs_per_topic=9)
        items = list(gt.judgments.items())
        rng.shuffle(items)  # insertion order unlike topic order
        judgments = dict(items)
        judgments.update({("q9", f"d{d}"): 0 for d in range(3)})  # nothing relevant
        gt = Qrels(judgments=judgments)
        for fraction in (0.1, 0.35, 0.5, 0.8):
            cfg = SamplingConfig(fraction=fraction, repetitions=3, master_seed=trial,
                                 relevant_threshold=1 + trial % 3, stratified=True)
            for rep in range(3):
                got = percentage_sample(gt, cfg, rep).judgments
                assert got == stratified_reference(gt, cfg, rep)


def test_stratified_mode_rounds_per_topic():
    judgments = {}
    # topic qa: 4 relevant, topic qb: 5 relevant
    for i in range(4):
        judgments[("qa", f"d{i}")] = 1
    for i in range(5):
        judgments[("qb", f"d{i}")] = 2
    gt = Qrels(judgments=judgments)
    out = percentage_sample(
        gt, SamplingConfig(fraction=0.5, stratified=True), 0
    )
    kept_a = {k for k in relevant_keys(out) if k[0] == "qa"}
    kept_b = {k for k in relevant_keys(out) if k[0] == "qb"}
    assert len(kept_a) == 2
    assert len(kept_b) == 3


def test_relevant_threshold_protects_grade_one():
    judgments = {("q", "d0"): 1, ("q", "d1"): 2, ("q", "d2"): 3}
    gt = Qrels(judgments=judgments)
    out = percentage_sample(
        gt, SamplingConfig(fraction=0.0, relevant_threshold=2), 0
    )
    assert out.judgments[("q", "d0")] == 1  # below threshold: untouched
    assert out.judgments[("q", "d1")] == 0
    assert out.judgments[("q", "d2")] == 0


def test_sampling_config_validation():
    with pytest.raises(ConfigurationError):
        SamplingConfig(fraction=1.5)
    with pytest.raises(ConfigurationError):
        SamplingConfig(fraction=0.5, repetitions=0)


SINGLE_RUN = parse_run(
    "q1 Q0 d1 1 4.0 s\nq1 Q0 d2 2 3.0 s\nq1 Q0 dx 3 2.0 s\n"
)


def test_popularity_single_run_example():
    # 4 judged docs, 2 relevant in gt: the 2 retrieved docs (count 1)
    # beat the unretrieved ones (count 0).
    gt = Qrels(judgments={
        ("q1", "d1"): 0, ("q1", "d2"): 2, ("q1", "d3"): 1, ("q1", "d4"): 0,
    })
    out = popularity_biased(gt, SINGLE_RUN, PopularityConfig())
    assert out.judgments == {
        ("q1", "d1"): 1, ("q1", "d2"): 1, ("q1", "d3"): 0, ("q1", "d4"): 0,
    }


def test_popularity_count_dominance():
    r1 = parse_run("q1 Q0 X 1 3.0 s1\nq1 Q0 Y 2 2.0 s1\n")
    r2 = parse_run("q1 Q0 X 1 3.0 s2\n")
    r3 = parse_run("q1 Q0 X 1 3.0 s3\n")
    runs = RunSet({**r1.runs, **r2.runs, **r3.runs})
    gt = Qrels(judgments={("q1", "X"): 0, ("q1", "Y"): 1})
    out = popularity_biased(gt, runs, PopularityConfig())
    # p_t * N_t = 1; X retrieved by 3 systems, Y by 1 -> X selected
    assert out.judgments == {("q1", "X"): 1, ("q1", "Y"): 0}


def test_popularity_tie_breaks_by_doc_id():
    runs = parse_run("q1 Q0 dB 1 2.0 s\nq1 Q0 dA 2 1.0 s\n")
    gt = Qrels(judgments={("q1", "dA"): 1, ("q1", "dB"): 0})
    out = popularity_biased(gt, runs, PopularityConfig())
    # both retrieved once; doc id ascending wins the single slot
    assert out.judgments[("q1", "dA")] == 1
    assert out.judgments[("q1", "dB")] == 0


def test_popularity_depth_limits_counting():
    runs = parse_run("q1 Q0 d1 1 3.0 s\nq1 Q0 d2 2 2.0 s\nq1 Q0 d3 3 1.0 s\n")
    gt = Qrels(judgments={("q1", "d2"): 0, ("q1", "d3"): 1})
    out = popularity_biased(gt, runs, PopularityConfig(depth=2))
    # within depth 2 only d2 is retrieved; one slot to fill
    assert out.judgments == {("q1", "d2"): 1, ("q1", "d3"): 0}


def brute_popularity(gt, runs, depth, n_select_per_topic):
    counts = {}
    for tag in runs.systems():
        for topic, ranking in runs.runs[tag].items():
            for doc_id in ranking.doc_ids[:depth]:
                if (topic, doc_id) in gt.judgments:
                    counts[(topic, doc_id)] = counts.get((topic, doc_id), 0) + 1
    out = {}
    topics = sorted({t for t, _ in gt.judgments})
    for topic in topics:
        docs = sorted(d for t, d in gt.judgments if t == topic)
        ranked = sorted(docs, key=lambda d: (-counts.get((topic, d), 0), d))
        selected = set(ranked[: n_select_per_topic[topic]])
        for d in docs:
            out[(topic, d)] = 1 if d in selected else 0
    return out


def test_popularity_random_instance_matches_oracle():
    rng = np.random.default_rng(9)
    from discrimpower.trec import Ranking, RunSet

    docs = [f"d{i:02d}" for i in range(20)]
    runs = {}
    for s in range(5):
        tag = f"s{s}"
        runs[tag] = {}
        for t in range(3):
            chosen = rng.choice(20, size=12, replace=False)
            scores = rng.normal(size=12)
            order = np.argsort(-scores)
            runs[tag][f"q{t}"] = Ranking(tuple(docs[chosen[i]] for i in order),
                                         tuple(float(scores[i]) for i in order))
    runset = RunSet(runs=runs)
    judgments = {}
    for t in range(3):
        for d in rng.choice(20, size=10, replace=False):
            judgments[(f"q{t}", docs[d])] = int(rng.integers(0, 3))
    gt = Qrels(judgments=judgments)

    out = popularity_biased(gt, runset, PopularityConfig(depth=8))
    expected_counts = {
        topic: sum(1 for (t, _), g in gt.judgments.items() if t == topic and g >= 1)
        for topic in ("q0", "q1", "q2")
    }
    assert out.judgments == brute_popularity(gt, runset, 8, expected_counts)
    assert set(out.judgments.values()) <= {0, 1}


def test_popularity_per_topic_fraction_bound():
    # Per-topic mode matches the relevant count exactly; global mode's
    # ceiling overshoot stays below one document's worth.
    rng = np.random.default_rng(10)
    from discrimpower.trec import Ranking, RunSet

    judgments = {}
    sizes = {"q0": 7, "q1": 11, "q2": 4}
    for topic, n in sizes.items():
        rel = int(rng.integers(1, n))
        for i in range(n):
            judgments[(topic, f"d{i}")] = 1 if i < rel else 0
    gt = Qrels(judgments=judgments)
    runs = RunSet(runs={"s": {
        topic: Ranking(tuple(f"d{i}" for i in range(n)), tuple(float(-i) for i in range(n)))
        for topic, n in sizes.items()
    }})

    for mode in ("per_topic", GLOBAL):
        out = popularity_biased(gt, runs, PopularityConfig(p_mode=mode))
        for topic, n in sizes.items():
            gt_frac = sum(
                1 for (t, _), g in gt.judgments.items() if t == topic and g >= 1
            ) / n
            out_frac = sum(
                1 for (t, _), g in out.judgments.items() if t == topic and g >= 1
            ) / n
            if mode == "per_topic":
                assert out_frac == gt_frac
            else:
                total = len(gt.judgments)
                rel = sum(1 for g in gt.judgments.values() if g >= 1)
                assert abs(out_frac - rel / total) < 1 / n + 1e-12


def test_popularity_explicit_p_exact_ceiling():
    judgments = {("q", f"d{i}"): 0 for i in range(10)}
    gt = Qrels(judgments=judgments)
    runs = parse_run(
        "".join(f"q Q0 d{i} {i + 1} {10 - i}.0 s\n" for i in range(10))
    )
    out = popularity_biased(
        gt, runs, PopularityConfig(p_mode=EXPLICIT, explicit_p=0.7)
    )
    assert sum(out.judgments.values()) == 7  # ceil(0.7 * 10), no float drift


def test_popularity_uncovered_topic_warns_and_zeroes():
    gt = Qrels(judgments={("q1", "d1"): 1, ("q9", "dz"): 1})
    with pytest.warns(UserWarning, match="q9"):
        out = popularity_biased(gt, SINGLE_RUN, PopularityConfig())
    assert out.judgments[("q9", "dz")] == 0
    assert out.judgments[("q1", "d1")] == 1


def test_popularity_universe_preserved():
    rng = np.random.default_rng(11)
    gt = random_qrels(rng, n_topics=2, docs_per_topic=6)
    runs = parse_run(
        "".join(f"q{t} Q0 d{i:02d} {i + 1} {9 - i}.0 s\n" for t in range(2) for i in range(4))
    )
    out = popularity_biased(gt, runs, PopularityConfig())
    assert set(out.judgments) == set(gt.judgments)


def test_popularity_config_validation():
    with pytest.raises(ConfigurationError):
        PopularityConfig(depth=0)
    with pytest.raises(ConfigurationError):
        PopularityConfig(p_mode="weird")
    with pytest.raises(ConfigurationError):
        PopularityConfig(p_mode=EXPLICIT)
    with pytest.raises(ConfigurationError):
        PopularityConfig(p_mode=EXPLICIT, explicit_p=1.2)
    with pytest.raises(ConfigurationError):
        PopularityConfig(explicit_p=0.5)  # explicit_p without explicit mode


def reference_popularity(gt, runs, cfg):
    """The popularity labeller as loops over (topic, doc) dicts."""
    counts = {}
    for tag in runs.systems():
        for topic, ranking in runs.runs[tag].items():
            for doc_id in ranking.doc_ids[:cfg.depth]:
                if (topic, doc_id) in gt.judgments:
                    counts[(topic, doc_id)] = counts.get((topic, doc_id), 0) + 1
    by_topic = gt.by_topic()
    if cfg.p_mode == GLOBAL:
        rel = sum(1 for g in gt.judgments.values() if g >= cfg.relevant_threshold)
        p_global = Fraction(rel, len(gt.judgments))
    judgments = {}
    for topic in gt.topics():
        docs = sorted(by_topic[topic])
        if cfg.p_mode == PER_TOPIC:
            n_select = sum(1 for d in docs if by_topic[topic][d] >= cfg.relevant_threshold)
        elif cfg.p_mode == GLOBAL:
            n_select = math.ceil(p_global * len(docs))
        else:
            n_select = math.ceil(Fraction(str(cfg.explicit_p)) * len(docs))
        n_select = min(n_select, len(docs))
        if n_select > 0 and not any(counts.get((topic, d), 0) for d in docs):
            warnings.warn(f"topic {topic}: no judged document retrieved within depth "
                          f"{cfg.depth}; labelling all non-relevant")
            n_select = 0
        ranked = sorted(docs, key=lambda d: (-counts.get((topic, d), 0), d))
        selected = set(ranked[:n_select])
        judgments.update(((topic, d), int(d in selected)) for d in docs)
    return judgments


POOL = [f"d{i:02d}" for i in range(12)]


@st.composite
def popularity_inputs(draw):
    """(gt, runs): 1-5 systems, 1-4 topics, rankings 1-12 deep that may
    miss topics and hold unjudged documents, grades -1 to 3. A system may
    copy another's run, which ties every count it adds. Topic ``qz``, when
    present, is judged only on documents no run retrieves."""
    n_systems, n_topics = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    judgments = {}
    for t in range(n_topics):
        judged = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=8, unique=True))
        judgments.update(((f"q{t}", doc), draw(st.integers(-1, 3))) for doc in judged)
    topics = [f"q{t}" for t in range(n_topics)]
    if draw(st.booleans()):
        judgments.update({("qz", "u0"): 3, ("qz", "u1"): 3, ("qz", "u2"): 0})
        topics.append("qz")
    runs = {}
    for s in range(n_systems):
        if s and draw(st.integers(0, 3)) == 0:
            runs[f"s{s}"] = runs[f"s{s - 1}"]
            continue
        per_topic = {}
        for topic in topics:
            if draw(st.integers(0, 4)) == 0:  # the system misses the topic
                continue
            depth = draw(st.integers(1, 12))
            per_topic[topic] = Ranking(draw(st.permutations(POOL))[:depth],
                                       range(depth, 0, -1))
        runs[f"s{s}"] = per_topic
    return Qrels(judgments=judgments), RunSet(runs=runs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(inputs=popularity_inputs(),
       p_mode=st.sampled_from([PER_TOPIC, GLOBAL, EXPLICIT]),
       explicit_p=st.one_of(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 1.0]),
                            st.floats(0.0, 1.0)),
       depth=st.integers(1, 14),
       relevant_threshold=st.integers(1, 3))
def test_popularity_equals_the_dict_reference(inputs, p_mode, explicit_p, depth,
                                              relevant_threshold):
    gt, runs = inputs
    cfg = PopularityConfig(depth=depth, p_mode=p_mode, relevant_threshold=relevant_threshold,
                           explicit_p=explicit_p if p_mode == EXPLICIT else None)
    with warnings.catch_warnings(record=True) as expected_warnings:
        warnings.simplefilter("always")
        expected = reference_popularity(gt, runs, cfg)
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = popularity_biased(gt, runs, cfg)
    assert sorted(got.judgments.items()) == sorted(expected.items())
    assert {type(grade) for grade in got.judgments.values()} == {int}
    assert got.role == CANDIDATE
    messages = [str(w.message) for w in got_warnings]
    assert messages == [str(w.message) for w in expected_warnings]
    assert all(w.category is UserWarning and w.filename == __file__ for w in got_warnings)
    if "qz" in gt.topics() and (p_mode != EXPLICIT or explicit_p > 0):
        assert any(m.startswith("topic qz: ") for m in messages)
